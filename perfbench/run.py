#!/usr/bin/env python3
"""Host-time benchmark of the offloading reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload paper_offload --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build, or into
$CARGO_TARGET_DIR when set, then runs the workload in a driver process of
its own, with the program's default knobs (every OFFLOAD_* variable is
removed from the environment) and address-space randomization off. The
last stdout line is the JSON result. With --trace 1 the span file is
written under <build dir>/spans.

Workloads: paper_offload, heap_session, fleet_population.
--smoke runs tiny op counts (perfbench/selftest.py uses it);
--record <file> writes the expected-output table rows for the workload
instead of measuring.
"""
import argparse
import ctypes
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("paper_offload", "heap_session", "fleet_population")
ADDR_NO_RANDOMIZE = 0x0040000


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(out):
    """Configure and build the driver; returns its path or None."""
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "-j", "4",
              "--target", "perfbench_driver"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return out / "perfbench_driver"


def no_aslr():
    """Run the driver with a fixed address-space layout, one less source
    of run-to-run variation."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("OFFLOAD_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--expected", default=str(HERE / "expected.tsv"))
    ap.add_argument("--record")
    args = ap.parse_args()

    out = build_dir()
    driver = build(out)
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(driver), "--workload", args.workload]
    if args.record:
        return subprocess.run(cmd + ["--record", args.record],
                              env=clean_env()).returncode
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--expected", args.expected]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans)]
    if args.smoke:
        cmd.append("--smoke")
    # The driver forks its set-up processes; on a timeout the whole process
    # group goes.
    proc = subprocess.Popen(cmd, env=clean_env(), preexec_fn=no_aslr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: driver timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
