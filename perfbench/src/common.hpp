// Shared pieces of the benchmark harness: timing and sample statistics, the
// result report, host facts, the seeded SESR-M5 x2 model every workload
// serves, and the double-precision reference forward.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sesr_inference.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using sesr::Tensor;
using sesr::core::InferencePrecision;
using sesr::core::SesrInference;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

// Heap allocations made by any thread of this process (the harness replaces
// the global operator new to count them).
std::uint64_t heap_allocations();

// A bag of timing or size samples.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Nearest-rank quantile, q in [0, 1]; 0 for no samples.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double min() const { return quantile(0.0); }
  double mean() const;
  // The highest of p50/p90/p99/p99.9 with at least ten samples above it (the
  // percentile the sample count supports), as a percent; 0 when none is.
  double supported_percentile() const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

// Everything one run prints. `metrics` become the final JSON line; `details`
// (sample counts, supported percentiles, host facts, generator lag) go in a
// separate JSON line before it.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> details;  // name -> JSON value text
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // correctness failures, printed to stderr

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void detail(const std::string& name, double value);
  void detail(const std::string& name, const std::string& text);  // quoted
  // Median of `samples` as metric `name`, plus its count and supported
  // percentile as details.
  void timing(const std::string& name, const Samples& samples, const std::string& unit);
  // Fastest of `samples` as metric `name`, plus its median, count and
  // supported percentile as details. For single-threaded compute on a shared
  // host: co-tenants only ever add time, so the fastest warm call estimates
  // the call's own cost and moved between runs by a half to two thirds as
  // much as the median did (quartile spread 0.06-0.10 against 0.08-0.15 over
  // six 25 s frame_ref runs).
  void fastest(const std::string& name, const Samples& samples, const std::string& unit);
  void fail(const std::string& why);
  // Per-request latency, median and p99, as details: not gated, because on
  // a shared 4-vCPU host they moved between runs by more than a gated
  // metric's largest bound (serve_open_mix's median: quartile spread 0.27 to
  // 0.67 of its median over sets of six to ten runs).
  void latency(const Samples& samples);
  bool correct() const { return errors.empty() && failed == 0; }
  void print() const;
};

// nproc, the dispatched kernel ISAs and the build type, as details.
void record_host_facts(Report& report);

// VmHWM of this process in MiB (peak resident set).
double peak_rss_mb();

// Seed of the benchmark's network. The model is part of each workload's
// fixed definition, like a deployed checkpoint; the run seed varies only the
// inputs. (With seeded weights the hybrid plan, and with it the hybrid
// forward's cost, changes from one run seed to the next by up to 2x.)
inline constexpr std::uint64_t kModelSeed = 2022;

// The served network: SESR-M5 x2 with weights drawn from kModelSeed,
// collapsed, int8-calibrated and hybrid-planned on seeded synthetic frames.
// Deterministic: every process that calls this holds bit-identical weights,
// scales and plan. The precision is left at fp32.
SesrInference build_model();

// A copy of `base` switched to `precision`.
SesrInference with_precision(const SesrInference& base, InferencePrecision precision);

const char* precision_name(InferencePrecision precision);
constexpr InferencePrecision kAllPrecisions[] = {
    InferencePrecision::kFp32, InferencePrecision::kFp16, InferencePrecision::kInt8,
    InferencePrecision::kHybrid};

// A seeded (1, h, w, 1) natural-texture Y frame in [0, 1].
Tensor seeded_frame(std::uint64_t seed, std::int64_t h, std::int64_t w);

// The collapsed network's fp32 dataflow (convs, activations, the two long
// residuals, depth-to-space) evaluated in double through src/check's
// reference kernels.
std::vector<double> reference_upscale(const SesrInference& net, const Tensor& input);

// Largest |got - want| and the PSNR of `got` against `want` (peak 1).
struct Deviation {
  double max_abs = 0.0;
  double psnr_db = 0.0;
};
Deviation deviation(const Tensor& got, const std::vector<double>& want);

bool bit_equal(const Tensor& a, const Tensor& b);

// Flips one mantissa bit of the first pixel: the correctness gate must catch
// it. Used by --corrupt-output.
void corrupt(Tensor& t);

// Process-wide intra-op width (sesr::ThreadPool::set_global_threads).
void set_threads(unsigned threads);
unsigned hardware_threads();

// Splits a 64-bit stream key out of the run seed (SplitMix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
