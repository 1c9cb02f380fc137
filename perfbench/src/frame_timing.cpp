#include "frame_timing.hpp"

namespace perfbench {

std::size_t precision_index(InferencePrecision p) {
  for (std::size_t i = 0; i < std::size(kAllPrecisions); ++i) {
    if (kAllPrecisions[i] == p) return i;
  }
  return 0;
}

std::vector<SesrInference> precision_instances(const SesrInference& base) {
  std::vector<SesrInference> nets;
  for (InferencePrecision p : kAllPrecisions) nets.push_back(with_precision(base, p));
  return nets;
}

std::vector<Samples> time_frame_configs(
    std::vector<SesrInference>& nets, const Tensor& input, double seconds, Report& report,
    const std::function<bool(const FrameConfig&, Tensor&)>& check_first) {
  const unsigned nproc = hardware_threads();
  const sesr::Shape& s = input.shape();
  Tensor out(1, s.h() * 2, s.w() * 2, 1);
  set_threads(1);
  for (SesrInference& net : nets) {  // compile each plan, grow each arena
    net.upscale_into(input, out);
    net.upscale_into(input, out);
  }
  std::vector<Samples> samples(kFrameConfigCount);
  std::vector<Tensor> first(kFrameConfigCount);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  unsigned threads = 1;
  for (int round = 0; Clock::now() < deadline || round < 3; ++round) {
    for (std::size_t c = 0; c < kFrameConfigCount; ++c) {
      const FrameConfig& config = kFrameConfigs[c];
      const unsigned want_threads = config.all_threads ? nproc : 1;
      if (want_threads != threads) {
        set_threads(want_threads);
        threads = want_threads;
      }
      SesrInference& net = nets[precision_index(config.precision)];
      const Clock::time_point t0 = Clock::now();
      net.upscale_into(input, out);
      samples[c].add(ms_since(t0));
      ++report.attempted;
      if (first[c].numel() == 0) {
        if (!check_first(config, out)) ++report.failed;
        first[c] = out;
      } else if (!bit_equal(out, first[c])) {
        ++report.failed;
        report.fail(std::string(config.metric) + ": output changed between warm frames");
      }
    }
  }
  set_threads(1);
  if (!bit_equal(first[0], first[1])) {
    ++report.failed;
    report.fail("fp32 output differs between one and all threads");
  }
  return samples;
}

void report_frame_configs(Report& report, const std::vector<Samples>& samples) {
  for (std::size_t c = 0; c < kFrameConfigCount; ++c) {
    const FrameConfig& config = kFrameConfigs[c];
    if (!config.all_threads) {
      report.fastest(config.metric, samples[c], "ms");
      continue;
    }
    // Unbounded: on a shared 4-vCPU host the all-threads median moved by
    // 15-75% between runs (any busy vCPU stalls the whole parallel loop),
    // beyond the largest bound a gated metric may have.
    report.detail(config.metric, samples[c].min());
    report.detail(std::string(config.metric) + ".median", samples[c].median());
    report.detail(std::string(config.metric) + ".samples", static_cast<double>(samples[c].count()));
  }
}

}  // namespace perfbench
