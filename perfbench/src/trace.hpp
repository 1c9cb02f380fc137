// In-memory span recorder of the traced run.
//
// Every span records a name, start, end, its parent span and the request it
// belongs to; spans of one request share the request id. Spans stay in memory
// until the run ends, when write() dumps them as JSON.
//
// The harness sees each layer only from outside, so some spans are replays:
// the traced run times SesrInference::upscale_into, then replays the same
// forward step by step through the nn kernels under an nn.replay span of the
// same request. upscale_into's self time is its duration minus the replay's
// step spans; every child span lies inside its parent.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::int64_t kNoParent = -1;

  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  // Records a finished span; returns its id (the parent handle of children).
  std::int64_t record(const char* name, Clock::time_point start, Clock::time_point end,
                      std::int64_t parent, std::uint64_t request);

  // Opens a span that starts now; close() ends it. For a parent whose
  // children are recorded while it runs.
  std::int64_t open(const char* name, std::int64_t parent, std::uint64_t request) {
    const Clock::time_point now = Clock::now();
    return record(name, now, now, parent, request);
  }
  void close(std::int64_t id);

  double duration_ms(std::int64_t id) const;

  // Writes every span as a JSON array to `path` (best effort).
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::uint64_t request;
  };
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  Clock::time_point origin_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

// Times one call and records it as a span; returns the span id.
template <typename F>
std::int64_t traced(Tracer& tracer, const char* name, std::int64_t parent, std::uint64_t request,
                    F&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return tracer.record(name, start, Clock::now(), parent, request);
}

}  // namespace perfbench
