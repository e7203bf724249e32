#include "src/tracer.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

void Tracer::max(const std::string& key, double v) {
  auto [it, inserted] = counters_.emplace(key, v);
  if (!inserted) it->second = std::max(it->second, v);
}

double Tracer::total_ms(const std::string& name) const {
  auto it = totals_ms_.find(name);
  return it == totals_ms_.end() ? 0.0 : it->second;
}

double Tracer::counter(const std::string& key) const {
  auto it = counters_.find(key);
  return it == counters_.end() ? 0.0 : it->second;
}

void Tracer::record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, bool covered) {
  const double ms = ms_between(start, end);
  totals_ms_[name] += ms;
  if (covered) covered_ms_ += ms;
  spans_.push_back({name, op_, kind_, depth_, ms_between(origin_, start) * 1e3,
                    ms * 1e3});
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%zu,"
                 "\"kind\":\"%s\",\"depth\":%d}}%s\n",
                 s.name.c_str(), s.start_us, s.dur_us, s.op, s.kind.c_str(),
                 s.depth,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
