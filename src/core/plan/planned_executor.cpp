#include "core/plan/planned_executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/conv2d.hpp"
#include "nn/conv2d_s8.hpp"
#include "nn/depth_to_space.hpp"
#include "tensor/tensor_ops.hpp"

namespace sesr::core::plan {
namespace {

// A handful of shapes covers full frames plus the serve layer's tile sizes.
constexpr std::size_t kMaxCachedPlans = 8;

const Tensor* bias_ptr(const CollapsedConv& c) { return c.bias ? &*c.bias : nullptr; }

}  // namespace

const ExecutionPlan& PlannedExecutor::plan_for(const SesrInference& net,
                                               InferencePrecision precision, std::int64_t lr_h,
                                               std::int64_t lr_w) {
  for (CachedPlan& cached : plans_) {
    if (cached.plan.lr_h() == lr_h && cached.plan.lr_w() == lr_w &&
        cached.plan.precision() == precision) {
      cached.stamp = ++stamp_;
      return cached.plan;
    }
  }
  if (plans_.size() >= kMaxCachedPlans) {
    const auto lru = std::min_element(
        plans_.begin(), plans_.end(),
        [](const CachedPlan& a, const CachedPlan& b) { return a.stamp < b.stamp; });
    plans_.erase(lru);
  }
  plans_.push_back(CachedPlan{ExecutionPlan::compile(net, precision, lr_h, lr_w), ++stamp_});
  return plans_.back().plan;
}

PlanFootprint PlannedExecutor::footprint(const SesrInference& net) {
  // Any probe shape gives the exact coefficients; 16x16 keeps compile cheap.
  return plan_for(net, net.precision(), 16, 16).footprint();
}

std::int64_t PlannedExecutor::arena_bytes() const {
  return static_cast<std::int64_t>(float_arena_.capacity() * sizeof(float)) +
         static_cast<std::int64_t>(half_arena_.capacity() * sizeof(fp16::Half));
}

void PlannedExecutor::reserve(const SesrInference& net, std::int64_t lr_pixels) {
  const PlanFootprint f = footprint(net);
  const auto f_need = static_cast<std::size_t>(f.float_per_pixel * lr_pixels);
  const auto h_need = static_cast<std::size_t>(f.half_per_pixel * lr_pixels);
  if (float_arena_.size() < f_need) float_arena_.resize(f_need);
  if (half_arena_.size() < h_need) half_arena_.resize(h_need);
}

void PlannedExecutor::trim(const SesrInference& net, std::int64_t lr_pixels) {
  const PlanFootprint f = footprint(net);
  const auto f_keep = static_cast<std::size_t>(f.float_per_pixel * lr_pixels);
  const auto h_keep = static_cast<std::size_t>(f.half_per_pixel * lr_pixels);
  if (float_arena_.capacity() > f_keep) {
    float_arena_.resize(f_keep);
    float_arena_.shrink_to_fit();
  }
  if (half_arena_.capacity() > h_keep) {
    half_arena_.resize(h_keep);
    half_arena_.shrink_to_fit();
  }
}

void PlannedExecutor::invalidate() { plans_.clear(); }

float* PlannedExecutor::float_ptr(const ExecutionPlan& p, int value, std::int64_t batch,
                                  Tensor& output) {
  const PlanValue& v = p.values()[static_cast<std::size_t>(value)];
  if (v.external) return output.raw();
  return float_arena_.data() + v.offset * batch;
}

fp16::Half* PlannedExecutor::half_ptr(const ExecutionPlan& p, int value, std::int64_t batch) {
  return half_arena_.data() + p.values()[static_cast<std::size_t>(value)].offset * batch;
}

void PlannedExecutor::run(const SesrInference& net, const Tensor& input, Tensor& output) {
  const Shape& s = input.shape();
  run(plan_for(net, net.precision(), s.h(), s.w()), net, input, output);
}

void PlannedExecutor::run_shuffle(const ExecutionPlan& p, const PlanStep& step, const float* in,
                                  std::int64_t batch, Tensor& output) {
  const PlanOp& op = step.op;
  const float* cur = in;
  Shape shape(batch, op.in_h, op.in_w, op.in_c);
  for (std::size_t k = 0; k < op.blocks.size(); ++k) {
    const std::int64_t b = op.blocks[k];
    float* dst = k + 1 == op.blocks.size() ? float_ptr(p, op.output, batch, output)
                                           : float_ptr(p, step.temps[k], batch, output);
    nn::depth_to_space_into(cur, shape, b, dst);
    shape = Shape(batch, shape.h() * b, shape.w() * b, shape.c() / (b * b));
    cur = dst;
  }
}

void PlannedExecutor::run(const ExecutionPlan& p, const SesrInference& net, const Tensor& input,
                          Tensor& output, const ConvObserver* observe) {
  const std::int64_t batch = input.shape().n();
  if (input.shape().h() != p.lr_h() || input.shape().w() != p.lr_w()) {
    throw std::invalid_argument("PlannedExecutor::run: plan compiled for another shape");
  }
  if (output.numel() != p.steps().back().op.output_elements() * batch) {
    throw std::invalid_argument("PlannedExecutor::run: output tensor has the wrong shape");
  }
  const auto f_need = static_cast<std::size_t>(p.float_arena_elements() * batch);
  const auto h_need = static_cast<std::size_t>(p.half_arena_elements() * batch);
  if (float_arena_.size() < f_need) float_arena_.resize(f_need);
  if (half_arena_.size() < h_need) half_arena_.resize(h_need);

  // Operand views: kInputValue is the caller's fp32 input, or its binary16
  // copy when the plan stages the input.
  const auto is_half = [&](int value) {
    return value == kInputValue
               ? p.input_half_value() != kNoValue
               : p.values()[static_cast<std::size_t>(value)].space == ValueSpace::kHalf;
  };
  const auto floats = [&](int value) -> const float* {
    return value == kInputValue ? input.raw() : float_ptr(p, value, batch, output);
  };
  const auto halves = [&](int value) {
    return half_ptr(p, value == kInputValue ? p.input_half_value() : value, batch);
  };
  if (p.input_half_value() != kNoValue) {
    fp16::convert_to_half(input.raw(), halves(kInputValue), input.numel());
  }

  for (const PlanStep& step : p.steps()) {
    const PlanOp& op = step.op;
    if (op.kind == hw::OpKind::kDepthToSpace) {
      run_shuffle(p, step, floats(op.input), batch, output);
      continue;
    }
    if (op.kind != hw::OpKind::kConv) {
      throw std::logic_error("PlannedExecutor: unfused op survived the pass pipeline");
    }
    const auto ci = static_cast<std::size_t>(op.conv_index);
    const CollapsedConv& c = net.convolutions()[ci];
    const Shape in_shape(batch, op.in_h, op.in_w, op.in_c);
    const std::int64_t in_elems = op.input_elements() * batch;
    const std::int64_t elems = op.output_elements() * batch;
    const nn::Epilogue epi = op.act_index >= 0
                                 ? net.activation_epilogue(static_cast<std::size_t>(op.act_index))
                                 : nn::Epilogue{};
    const bool half_out = is_half(op.output);
    if (observe != nullptr) {
      if (is_half(op.input)) {
        throw std::logic_error("PlannedExecutor: observed conv input is not fp32");
      }
      (*observe)(ci, floats(op.input), in_elems);
    }
    switch (step.kernel) {
      case StepKernel::kFp32:
        nn::conv2d_into(floats(op.input), in_shape, c.weight, bias_ptr(c),
                        op.act_index >= 0 ? &epi : nullptr, nn::Padding::kSame,
                        float_ptr(p, op.output, batch, output));
        break;
      case StepKernel::kS8:
        nn::conv2d_s8_into(floats(op.input), in_shape, net.activation_scales()[ci],
                           net.s8_weights()[ci], bias_ptr(c), epi, nn::Padding::kSame,
                           float_ptr(p, op.output, batch, output));
        break;
      case StepKernel::kFp16: {
        const fp16::Half* in = nullptr;
        if (step.stage == kNoValue) {
          in = halves(op.input);
        } else {
          fp16::Half* stage = half_ptr(p, step.stage, batch);
          fp16::convert_to_half(floats(op.input), stage, in_elems);
          in = stage;
        }
        const fp16::HalfTensor& w = net.fp16_weights()[ci];
        if (half_out) {
          nn::conv2d_fp16_into(in, in_shape, w, bias_ptr(c), epi, nn::Padding::kSame,
                               halves(op.output));
        } else {
          float* out = float_ptr(p, op.output, batch, output);
          nn::conv2d_fp16_to_float_into(in, in_shape, w, bias_ptr(c), epi, nn::Padding::kSame,
                                        out);
          if (step.round_output) fp16::round_through_half(out, elems);
        }
        break;
      }
    }
    if (op.skip == kNoValue) continue;
    if (half_out) {
      fp16::add_inplace(halves(op.output), halves(op.skip), elems);
      continue;
    }
    float* out = float_ptr(p, op.output, batch, output);
    const float* skip = nullptr;
    if (step.widen == kNoValue) {
      skip = floats(op.skip);
    } else {
      float* wide = float_ptr(p, step.widen, batch, output);
      fp16::convert_to_float(halves(op.skip), wide,
                             p.values()[static_cast<std::size_t>(step.widen)].elements * batch);
      skip = wide;
    }
    if (op.skip == kInputValue) {
      add_input_residual(out, skip, elems / op.out_c, op.out_c);
    } else {
      add_inplace(out, skip, elems);
    }
  }
}

}  // namespace sesr::core::plan
