#include "trace.hpp"

#include <cstdio>

namespace perfbench {

std::int64_t Tracer::record(const char* name, Clock::time_point start, Clock::time_point end,
                            std::int64_t parent, std::uint64_t request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, ns(start), ns(end), parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t id) {
  const std::int64_t end = ns(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

double Tracer::duration_ms(std::int64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %lld, \"request\": %llu}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent), static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
}

}  // namespace perfbench
