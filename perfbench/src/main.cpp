// perfbench_harness — the benchmark binary perfbench/run.py builds and runs.
//
//   perfbench_harness run --workload W --seed N --seconds S --trace 0|1
//                         [--trace-dir DIR] [--corrupt-output]
//   perfbench_harness serve --workload W     (server process; internal)
//
// `run` prints a details JSON line and, last, the result line
// {"correct", "attempted", "failed", "metrics"}; it exits 0 only when every
// output passed the correctness gate.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <unistd.h>

#include "workloads.hpp"

namespace {

std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return argv0;
  buf[n] = '\0';
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness run --workload W --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR] [--corrupt-output]\n"
               "       perfbench_harness serve --workload W\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  // A peer that closes a socket or pipe early must surface as an error, not
  // kill the run.
  std::signal(SIGPIPE, SIG_IGN);
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  bool corrupt = false;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--corrupt-output") {
      corrupt = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    perfbench::Options options;
    options.workload = args["workload"];
    options.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    if (mode == "serve") return perfbench::run_server_process(options.workload);
    if (mode != "run") return usage();
    options.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
    options.trace = args.count("trace") && args["trace"] == "1";
    options.trace_dir = args.count("trace-dir") ? args["trace-dir"] : ".";
    options.corrupt = corrupt;
    options.self_exe = self_exe(argv[0]);
    if (options.seconds <= 0.0) return usage();

    perfbench::Report report;
    if (options.workload == "frame_ref") {
      report = perfbench::run_frame_ref(options);
    } else if (options.workload == "serve_open_mix") {
      report = perfbench::run_serve_open_mix(options);
    } else if (options.workload == "video_reuse") {
      report = perfbench::run_video_reuse(options);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
    report.print();
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
