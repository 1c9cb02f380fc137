// Warm upscale_into timing of the five frame_ms_* configurations, shared by
// every workload (frame_ref on the reference frame, the TCP workloads on
// their own frame shape as the compute baseline of the served traffic).
#pragma once

#include <functional>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct FrameConfig {
  const char* metric;
  InferencePrecision precision;
  bool all_threads;
};
inline constexpr FrameConfig kFrameConfigs[] = {
    {"frame_ms_fp32_t1", InferencePrecision::kFp32, false},
    {"frame_ms_fp32_tN", InferencePrecision::kFp32, true},
    {"frame_ms_fp16_t1", InferencePrecision::kFp16, false},
    {"frame_ms_int8_t1", InferencePrecision::kInt8, false},
    {"frame_ms_hybrid_t1", InferencePrecision::kHybrid, false},
};
inline constexpr std::size_t kFrameConfigCount = std::size(kFrameConfigs);

std::size_t precision_index(InferencePrecision p);  // into kAllPrecisions

// One instance per precision, in kAllPrecisions order.
std::vector<SesrInference> precision_instances(const SesrInference& base);

// Times warm upscale_into of every configuration on `input`, round-robin so
// drift of the host hits all alike, until `seconds` have passed (at least
// three rounds). `check_first(config, output)` validates the first
// output of each configuration; every later output must be bit-identical to
// it, and fp32 must not depend on the thread count. Counts every frame in
// report.attempted / failed. Leaves the intra-op width at one thread.
std::vector<Samples> time_frame_configs(
    std::vector<SesrInference>& nets, const Tensor& input, double seconds, Report& report,
    const std::function<bool(const FrameConfig&, Tensor&)>& check_first);

// Reports the fastest frame of each configuration, with its median and
// sample count: the one-thread ones as metrics, the all-threads one as a
// detail.
void report_frame_configs(Report& report, const std::vector<Samples>& samples);

}  // namespace perfbench
