#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Every workload, in smoke mode, emits exactly the end-to-end metrics of
   BENCHMARK.json with --trace 0 and exactly its per-layer metrics with
   --trace 1, each with its declared unit, and checks all outputs clean.
2. A perturbed expected table makes the output check fail ops, so the
   checker is known to be live.
Exits 0 when everything holds.
"""
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own launcher)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
failures = []


def bench(workload, trace, expected=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    if expected:
        cmd += ["--expected", str(expected)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(name, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{name} trace={trace}: every op checked clean")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace={trace}: {key} metrics and units")

    # Perturb one row that the smoke run's warm-up op must hit: variant 0
    # of the first fleet_population kind.
    table = (HERE / "expected.tsv").read_text().splitlines()
    row = next(i for i, line in enumerate(table)
               if line.startswith("fleet_population\t100000/hash\t0\t"))
    table[row] += "0"
    perturbed = run.build_dir() / "perturbed_expected.tsv"
    perturbed.write_text("\n".join(table) + "\n")
    result = bench("fleet_population", 0, perturbed)
    check(result["failed"] > 0 and not result["correct"],
          "perturbed expected value gives a non-zero error rate "
          f"({result['failed']}/{result['attempted']})")

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
