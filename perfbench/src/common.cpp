#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sched.h>
#include <thread>

#include "check/reference.hpp"
#include "core/hybrid_plan.hpp"
#include "core/sesr_network.hpp"
#include "data/synthetic.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_s8.hpp"
#include "nn/im2col.hpp"
#include "tensor/fp16.hpp"
#include "tensor/rng.hpp"
#include "tensor/thread_pool.hpp"

// ------------------------------------------------------ counting operator new

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t a) { return counted_aligned_alloc(size, a); }
void* operator new[](std::size_t size, std::align_val_t a) {
  return counted_aligned_alloc(size, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t heap_allocations() { return g_allocations.load(std::memory_order_relaxed); }

// ------------------------------------------------------------------ samples

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return sorted[std::min(rank, sorted.size()) - 1];
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::supported_percentile() const {
  const auto n = static_cast<double>(values_.size());
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (n * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

// ------------------------------------------------------------------- report

namespace {
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}
}  // namespace

void Report::detail(const std::string& name, double value) { details[name] = number(value); }
void Report::detail(const std::string& name, const std::string& text) {
  details[name] = quoted(text);
}

void Report::timing(const std::string& name, const Samples& samples, const std::string& unit) {
  metric(name, samples.median(), unit);
  detail(name + ".samples", static_cast<double>(samples.count()));
  const double p = samples.supported_percentile();
  detail(name + ".supported_percentile", p);
  if (p > 50.0) detail(name + ".p" + number(p), samples.quantile(p / 100.0));
}

void Report::fastest(const std::string& name, const Samples& samples, const std::string& unit) {
  timing(name, samples, unit);
  metric(name, samples.min(), unit);
  detail(name + ".median", samples.median());
}

void Report::latency(const Samples& samples) {
  detail("latency_p50_ms", samples.median());
  detail("latency_p99_ms", samples.quantile(0.99));
  detail("latency.samples", static_cast<double>(samples.count()));
  detail("latency.supported_percentile", samples.supported_percentile());
}

void Report::fail(const std::string& why) {
  if (errors.size() < 32) errors.push_back(why);
}

void Report::print() const {
  for (const std::string& e : errors) std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
  std::string d = "{\"details\": {";
  bool first = true;
  for (const auto& [name, text] : details) {
    d += (first ? "" : ", ") + quoted(name) + ": " + text;
    first = false;
  }
  std::printf("%s}}\n", d.c_str());
  std::string m = "{";
  first = true;
  for (const auto& [name, metric] : metrics) {
    m += (first ? "" : ", ") + quoted(name) + ": {\"value\": " + number(metric.value) +
         ", \"unit\": " + quoted(metric.unit) + "}";
    first = false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}}\n",
              correct() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.c_str());
  std::fflush(stdout);
}

// --------------------------------------------------------------- host facts

void record_host_facts(Report& report) {
  report.detail("host.nproc", static_cast<double>(hardware_threads()));
  auto append = [](std::string& list, bool on, const char* name) {
    if (!on) return;
    if (!list.empty()) list.push_back(',');
    list.append(name);
  };
  std::string isa;
  append(isa, sesr::nn::gemm_avx2_supported(), "gemm:avx2");
  append(isa, sesr::nn::gemm_s8_avx2_supported(), "gemm_s8:avx2");
  append(isa, sesr::nn::gemm_s8_vnni_supported(), "gemm_s8:vnni");
  append(isa, sesr::fp16::f16c_supported(), "fp16:f16c");
  report.detail("host.dispatched_isa", isa.empty() ? std::string("generic") : isa);
  std::string cpu;
  __builtin_cpu_init();
  append(cpu, __builtin_cpu_supports("avx2"), "avx2");
  append(cpu, __builtin_cpu_supports("avx512f"), "avx512f");
  append(cpu, __builtin_cpu_supports("avx512vnni"), "avx512vnni");
  append(cpu, __builtin_cpu_supports("f16c"), "f16c");
  report.detail("host.cpu_isa", cpu);
  report.detail("host.build_type", std::string(PERFBENCH_BUILD_TYPE));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// ------------------------------------------------------------------- models

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Tensor seeded_frame(std::uint64_t seed, std::int64_t h, std::int64_t w) {
  sesr::Rng rng(seed);
  return sesr::data::synthesize_image(sesr::data::ImageFamily::kNatural, h, w, rng);
}

SesrInference build_model() {
  const std::uint64_t seed = kModelSeed;
  sesr::Rng rng(derive_seed(seed, 1));
  const sesr::core::SesrNetwork network(sesr::core::sesr_m5(2), rng);
  SesrInference net(network);
  std::vector<Tensor> lr;
  for (std::uint64_t i = 0; i < 4; ++i) {
    lr.push_back(seeded_frame(derive_seed(seed, 100 + i), 32, 32));
  }
  net.calibrate_int8(lr);
  // Planning targets: the fp32 output plus seeded noise of +-0.005, so the
  // 0.3 dB budget admits only the int8 layers that cost little against it.
  sesr::Rng noise(derive_seed(seed, 2));
  std::vector<Tensor> hr;
  for (const Tensor& frame : lr) {
    hr.push_back(net.upscale(frame));
    for (std::int64_t i = 0; i < hr.back().numel(); ++i) {
      hr.back().raw()[i] += noise.uniform(-0.005F, 0.005F);
    }
  }
  sesr::core::plan_hybrid_precision(net, lr, hr);
  return net;
}

SesrInference with_precision(const SesrInference& base, InferencePrecision precision) {
  SesrInference copy = base;
  copy.set_precision(precision);
  return copy;
}

const char* precision_name(InferencePrecision precision) {
  switch (precision) {
    case InferencePrecision::kFp32:
      return "fp32";
    case InferencePrecision::kFp16:
      return "fp16";
    case InferencePrecision::kInt8:
      return "int8";
    case InferencePrecision::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

// ---------------------------------------------------------- double reference

std::vector<double> reference_upscale(const SesrInference& net, const Tensor& input) {
  using sesr::check::DTensor;
  const auto& convs = net.convolutions();
  auto conv = [&](const DTensor& x, std::size_t i) {
    const sesr::core::CollapsedConv& c = convs[i];
    const sesr::nn::ConvGeometry g = sesr::nn::same_geometry(
        x.shape.h(), x.shape.w(), x.shape.c(), c.weight.shape().dim(0), c.weight.shape().dim(1));
    DTensor y = sesr::check::ref_conv2d(x, c.weight, g);
    if (c.bias) {
      const std::int64_t oc = y.shape.c();
      for (std::size_t p = 0; p < y.data.size(); ++p) {
        y.data[p] += c.bias->raw()[static_cast<std::int64_t>(p) % oc];
      }
    }
    return y;
  };
  auto activate = [&](DTensor& y, std::size_t i) {
    const Tensor& alpha = net.prelu_alphas()[i];
    const std::int64_t oc = y.shape.c();
    for (std::size_t p = 0; p < y.data.size(); ++p) {
      double& v = y.data[p];
      if (v > 0.0) continue;
      v = alpha.numel() == 0 ? 0.0 : alpha.raw()[static_cast<std::int64_t>(p) % oc] * v;
    }
  };
  const DTensor x = sesr::check::to_dtensor(input);
  DTensor feat = conv(x, 0);
  activate(feat, 0);
  const DTensor skip = feat;
  for (std::size_t i = 1; i + 1 < convs.size(); ++i) {
    feat = conv(feat, i);
    activate(feat, i);
  }
  for (std::size_t p = 0; p < feat.data.size(); ++p) feat.data[p] += skip.data[p];
  DTensor out = conv(feat, convs.size() - 1);
  if (net.config().input_residual) {
    const std::int64_t oc = out.shape.c();
    for (std::size_t p = 0; p < out.data.size(); ++p) {
      out.data[p] += x.data[p / static_cast<std::size_t>(oc)];
    }
  }
  DTensor y = sesr::check::ref_depth_to_space(out, 2);
  if (net.config().scale == 4) y = sesr::check::ref_depth_to_space(y, 2);
  return y.data;
}

Deviation deviation(const Tensor& got, const std::vector<double>& want) {
  Deviation d;
  if (static_cast<std::size_t>(got.numel()) != want.size()) {
    d.max_abs = INFINITY;
    return d;
  }
  double sq = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double e = static_cast<double>(got.raw()[i]) - want[i];
    if (!(std::fabs(e) <= d.max_abs)) d.max_abs = std::isnan(e) ? INFINITY : std::fabs(e);
    sq += e * e;
  }
  const double mse = sq / static_cast<double>(want.size());
  d.psnr_db = mse > 0.0 ? 10.0 * std::log10(1.0 / mse) : 200.0;
  return d;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

void corrupt(Tensor& t) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, t.raw(), sizeof(bits));
  bits ^= 1u;
  std::memcpy(t.raw(), &bits, sizeof(bits));
}

void set_threads(unsigned threads) { sesr::ThreadPool::set_global_threads(threads); }

unsigned hardware_threads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
