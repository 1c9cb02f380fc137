#include "core/sesr_inference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/plan/execution_plan.hpp"
#include "core/plan/planned_executor.hpp"

namespace sesr::core {

namespace {
constexpr const char* kConfigKey = "__config";
// Calibration state rides the checkpoint as extra tensors (ignored by older
// readers): activation scales as-is, the hybrid plan as 0/1 floats. The s8
// weights themselves are NOT stored — quantize_conv_weights is deterministic,
// so restoring replays it on the fp32 kernels and every replica of a
// checkpoint holds bit-identical quantized state.
constexpr const char* kActScaleKey = "__int8.act_scale";
constexpr const char* kPlanKey = "__int8.plan";

Tensor encode_config(const SesrConfig& c) {
  Tensor t(1, 1, 1, 8);
  t.raw()[0] = static_cast<float>(c.f);
  t.raw()[1] = static_cast<float>(c.m);
  t.raw()[2] = static_cast<float>(c.scale);
  t.raw()[3] = static_cast<float>(c.expand);
  t.raw()[4] = c.prelu ? 1.0F : 0.0F;
  t.raw()[5] = c.input_residual ? 1.0F : 0.0F;
  t.raw()[6] = c.with_bias ? 1.0F : 0.0F;
  t.raw()[7] = 0.0F;  // reserved
  return t;
}

SesrConfig decode_config(const Tensor& t) {
  if (t.numel() < 7) throw std::runtime_error("SesrInference: malformed config tensor");
  SesrConfig c;
  c.f = static_cast<std::int64_t>(t.raw()[0]);
  c.m = static_cast<std::int64_t>(t.raw()[1]);
  c.scale = static_cast<std::int64_t>(t.raw()[2]);
  c.expand = static_cast<std::int64_t>(t.raw()[3]);
  c.prelu = t.raw()[4] != 0.0F;
  c.input_residual = t.raw()[5] != 0.0F;
  c.with_bias = t.raw()[6] != 0.0F;
  return c;
}
}  // namespace

void add_input_residual(float* out, const float* input, std::int64_t pixels,
                        std::int64_t out_c) {
  for (std::int64_t p = 0; p < pixels; ++p) {
    for (std::int64_t c = 0; c < out_c; ++c) out[p * out_c + c] += input[p];
  }
}

SesrInference::SesrInference(const SesrNetwork& network) : config_(network.config()) {
  convs_ = plan::collapse_pass(network);
  for (std::int64_t i = 0; i < config_.m + 1; ++i) {
    if (config_.prelu) {
      const auto& prelu =
          dynamic_cast<const nn::PRelu&>(network.activation(static_cast<std::size_t>(i)));
      prelu_alpha_.push_back(prelu.alpha().value);
    } else {
      prelu_alpha_.emplace_back();  // empty = ReLU
    }
  }
}

SesrInference::SesrInference(const TensorMap& map) {
  const auto cfg_it = map.find(kConfigKey);
  if (cfg_it == map.end()) throw std::runtime_error("SesrInference: checkpoint missing config");
  config_ = decode_config(cfg_it->second);
  const std::int64_t n_convs = config_.m + 2;
  for (std::int64_t i = 0; i < n_convs; ++i) {
    CollapsedConv conv;
    const auto w_it = map.find("conv" + std::to_string(i) + ".weight");
    if (w_it == map.end()) throw std::runtime_error("SesrInference: checkpoint missing conv weight");
    conv.weight = w_it->second;
    const auto b_it = map.find("conv" + std::to_string(i) + ".bias");
    if (b_it != map.end()) conv.bias = b_it->second;
    convs_.push_back(std::move(conv));
  }
  for (std::int64_t i = 0; i < config_.m + 1; ++i) {
    const auto a_it = map.find("act" + std::to_string(i) + ".alpha");
    if (config_.prelu) {
      if (a_it == map.end()) throw std::runtime_error("SesrInference: checkpoint missing alpha");
      prelu_alpha_.push_back(a_it->second);
    } else {
      prelu_alpha_.emplace_back();
    }
  }
  const auto scale_it = map.find(kActScaleKey);
  if (scale_it != map.end()) {
    if (scale_it->second.numel() != n_convs) {
      throw std::runtime_error("SesrInference: malformed int8 activation scales");
    }
    act_scales_.assign(scale_it->second.raw(), scale_it->second.raw() + n_convs);
    s8_weights_.reserve(convs_.size());
    for (const CollapsedConv& c : convs_) s8_weights_.push_back(nn::quantize_conv_weights(c.weight));
  }
  const auto plan_it = map.find(kPlanKey);
  if (plan_it != map.end()) {
    if (plan_it->second.numel() != n_convs) {
      throw std::runtime_error("SesrInference: malformed hybrid plan");
    }
    plan_.reserve(static_cast<std::size_t>(n_convs));
    for (std::int64_t i = 0; i < n_convs; ++i) {
      plan_.push_back(plan_it->second.raw()[i] != 0.0F ? LayerPrecision::kInt8
                                                       : LayerPrecision::kFp16);
    }
  }
}

SesrInference::SesrInference(const SesrInference& other)
    : config_(other.config_),
      convs_(other.convs_),
      prelu_alpha_(other.prelu_alpha_),
      precision_(other.precision_),
      fp16_weights_(other.fp16_weights_),
      act_scales_(other.act_scales_),
      s8_weights_(other.s8_weights_),
      plan_(other.plan_) {}

SesrInference& SesrInference::operator=(const SesrInference& other) {
  if (this == &other) return *this;
  config_ = other.config_;
  convs_ = other.convs_;
  prelu_alpha_ = other.prelu_alpha_;
  precision_ = other.precision_;
  fp16_weights_ = other.fp16_weights_;
  act_scales_ = other.act_scales_;
  s8_weights_ = other.s8_weights_;
  plan_ = other.plan_;
  exec_.reset();  // the copy re-plans lazily
  return *this;
}

SesrInference::SesrInference(SesrInference&&) noexcept = default;
SesrInference& SesrInference::operator=(SesrInference&&) noexcept = default;
SesrInference::~SesrInference() = default;

// Fused-epilogue descriptor for the activation after conv `index`: ReLU when
// the stored alpha tensor is empty, per-channel PReLU otherwise, applied
// inside the GEMM write-back.
nn::Epilogue SesrInference::activation_epilogue(std::size_t index) const {
  const Tensor& alpha = prelu_alpha_.at(index);
  nn::Epilogue e;
  if (alpha.empty()) {
    e.act = nn::Epilogue::Act::kRelu;
    return e;
  }
  if (alpha.numel() != convs_.at(index).weight.shape().dim(3)) {
    throw std::runtime_error("SesrInference: alpha/channel mismatch");
  }
  e.act = nn::Epilogue::Act::kPRelu;
  e.prelu_alpha = alpha.raw();
  return e;
}

Tensor SesrInference::upscale(const Tensor& input) const {
  const Shape& s = input.shape();
  Tensor out(s.n(), s.h() * config_.scale, s.w() * config_.scale, 1);
  upscale_into(input, out);
  return out;
}

void SesrInference::upscale_into(const Tensor& input, Tensor& output) const {
  if (input.shape().c() != 1) {
    throw std::invalid_argument("SesrInference::upscale expects a single (Y) channel");
  }
  if (!exec_) exec_ = std::make_unique<plan::PlannedExecutor>();
  exec_->run(*this, input, output);
}

void SesrInference::plan_reserve(std::int64_t lr_pixels) {
  if (!exec_) exec_ = std::make_unique<plan::PlannedExecutor>();
  exec_->reserve(*this, lr_pixels);
}

void SesrInference::plan_trim(std::int64_t lr_pixels) {
  if (exec_) exec_->trim(*this, lr_pixels);
}

std::int64_t SesrInference::plan_arena_bytes() const {
  return exec_ ? exec_->arena_bytes() : 0;
}

void SesrInference::ensure_fp16_weights() {
  if (!fp16_weights_.empty()) return;
  fp16_weights_.reserve(convs_.size());
  for (const CollapsedConv& c : convs_) {
    fp16_weights_.push_back(fp16::HalfTensor::from_float(c.weight));
  }
}

void SesrInference::set_precision(InferencePrecision precision) {
  if (precision == InferencePrecision::kFp16) ensure_fp16_weights();
  if (precision == InferencePrecision::kInt8 || precision == InferencePrecision::kHybrid) {
    if (!int8_calibrated()) {
      throw std::logic_error("SesrInference: int8/hybrid precision requires calibrate_int8()");
    }
  }
  if (precision == InferencePrecision::kHybrid) {
    if (plan_.size() != convs_.size()) {
      throw std::logic_error("SesrInference: hybrid precision requires set_hybrid_plan()");
    }
    ensure_fp16_weights();  // the plan's fp16 layers
  }
  precision_ = precision;
}

void SesrInference::set_hybrid_plan(std::vector<LayerPrecision> plan) {
  if (plan.size() != convs_.size()) {
    throw std::invalid_argument("SesrInference: hybrid plan must hold one entry per conv");
  }
  plan_ = std::move(plan);
  if (exec_) exec_->invalidate();
}

void SesrInference::calibrate_int8(const std::vector<Tensor>& frames) {
  if (frames.empty()) {
    throw std::invalid_argument("SesrInference::calibrate_int8: no calibration frames");
  }
  s8_weights_.clear();
  s8_weights_.reserve(convs_.size());
  for (const CollapsedConv& c : convs_) s8_weights_.push_back(nn::quantize_conv_weights(c.weight));
  // Calibration always observes the fp32 plan, so the scales do not depend
  // on the precision currently selected. A private executor leaves the
  // serving plan cache and arenas untouched.
  plan::PlannedExecutor exec;
  std::vector<float> scales(convs_.size(), 0.0F);
  const plan::ConvObserver observe = [&](std::size_t layer, const float* x, std::int64_t n) {
    float m = 0.0F;
    for (std::int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
    scales[layer] = std::max(scales[layer], m / 127.0F);
  };
  for (const Tensor& frame : frames) {
    if (frame.shape().c() != 1) {
      throw std::invalid_argument(
          "SesrInference::calibrate_int8: calibration frames must be Y-channel");
    }
    const Shape& s = frame.shape();
    Tensor out(s.n(), s.h() * config_.scale, s.w() * config_.scale, 1);
    exec.run(exec.plan_for(*this, InferencePrecision::kFp32, s.h(), s.w()), *this, frame, out,
             &observe);
  }
  for (float& s : scales) {
    if (s <= 0.0F) s = nn::kDegenerateQuantScale;
  }
  act_scales_ = std::move(scales);
}

std::int64_t SesrInference::parameter_count() const {
  std::int64_t p = 0;
  for (const CollapsedConv& c : convs_) {
    p += c.weight.numel();
    if (c.bias) p += c.bias->numel();
  }
  return p;
}

TensorMap SesrInference::to_tensor_map() const {
  TensorMap map;
  map.emplace(kConfigKey, encode_config(config_));
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    map.emplace("conv" + std::to_string(i) + ".weight", convs_[i].weight);
    if (convs_[i].bias) map.emplace("conv" + std::to_string(i) + ".bias", *convs_[i].bias);
  }
  for (std::size_t i = 0; i < prelu_alpha_.size(); ++i) {
    if (!prelu_alpha_[i].empty()) map.emplace("act" + std::to_string(i) + ".alpha", prelu_alpha_[i]);
  }
  if (int8_calibrated()) {
    Tensor scales(1, 1, 1, static_cast<std::int64_t>(act_scales_.size()));
    for (std::size_t i = 0; i < act_scales_.size(); ++i) scales.raw()[i] = act_scales_[i];
    map.emplace(kActScaleKey, std::move(scales));
  }
  if (!plan_.empty()) {
    Tensor plan(1, 1, 1, static_cast<std::int64_t>(plan_.size()));
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      plan.raw()[i] = plan_[i] == LayerPrecision::kInt8 ? 1.0F : 0.0F;
    }
    map.emplace(kPlanKey, std::move(plan));
  }
  return map;
}

}  // namespace sesr::core
