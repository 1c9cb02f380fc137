// The benchmark's workloads. Each takes its seed and run length, generates
// its own inputs, checks every output, and fills a Report.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;    // flip one output bit: the correctness gate must fail the run
  std::string trace_dir;   // where the traced run writes its spans
  std::string self_exe;    // this binary, re-executed as the server process
};

Report run_frame_ref(const Options& options);
Report run_serve_open_mix(const Options& options);
Report run_video_reuse(const Options& options);

// Server-process entry: `perfbench_harness serve --workload W`.
int run_server_process(const std::string& workload);

}  // namespace perfbench
