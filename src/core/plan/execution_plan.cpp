#include "core/plan/execution_plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace sesr::core::plan {

std::vector<CollapsedConv> collapse_pass(const SesrNetwork& network) {
  const auto collapse = [](const CollapsibleBlock& block) {
    CollapsedConv conv;
    conv.weight = block.collapsed_weight();
    conv.bias = block.collapsed_bias();
    return conv;
  };
  std::vector<CollapsedConv> convs;
  convs.reserve(network.middle_blocks().size() + 2);
  convs.push_back(collapse(network.first_block()));
  for (const auto& b : network.middle_blocks()) convs.push_back(collapse(*b));
  convs.push_back(collapse(network.last_block()));
  return convs;
}

ExecutionPlan ExecutionPlan::compile(const SesrInference& net, InferencePrecision precision,
                                     std::int64_t lr_h, std::int64_t lr_w) {
  const hw::NetworkIr ir = hw::sesr_ir(net.config(), lr_h, lr_w);
  std::vector<PlanOp> ops = lower_and_fuse(ir);

  ExecutionPlan plan;
  plan.lr_h_ = lr_h;
  plan.lr_w_ = lr_w;
  plan.precision_ = precision;
  const int n_steps = static_cast<int>(ops.size());

  // Value ids are original lowered-op indices; remap to dense PlanValue
  // indices and derive [def, last_use] from the fused program's reads.
  std::vector<int> vmap(ir.layers.size(), kNoValue);
  for (int s = 0; s < n_steps; ++s) {
    PlanValue v;
    v.elements = ops[s].output_elements();
    v.def = s;
    v.last_use = s;
    v.external = s == n_steps - 1;
    vmap[static_cast<std::size_t>(ops[s].output)] = static_cast<int>(plan.values_.size());
    plan.values_.push_back(v);
  }
  int input_last_use = 0;
  for (int s = 0; s < n_steps; ++s) {
    const auto remap = [&](int& ref) {
      if (ref == kInputValue) input_last_use = std::max(input_last_use, s);
      if (ref < 0) return;  // kInputValue stays symbolic
      ref = vmap[static_cast<std::size_t>(ref)];
      if (ref == kNoValue) {
        throw std::logic_error("ExecutionPlan: op references a value no pass defines");
      }
      plan.values_[static_cast<std::size_t>(ref)].last_use =
          std::max(plan.values_[static_cast<std::size_t>(ref)].last_use, s);
    };
    remap(ops[s].input);
    remap(ops[s].skip);
    ops[s].output = vmap[static_cast<std::size_t>(ops[s].output)];
  }

  int last_conv_step = -1;
  for (int s = 0; s < n_steps; ++s) {
    if (ops[s].kind == hw::OpKind::kConv) last_conv_step = s;
  }

  // Per-conv kernels: uniform for the three single-precision routes, the
  // stored per-layer assignment for kHybrid.
  const auto kernel_for = [&](int conv_index) {
    switch (precision) {
      case InferencePrecision::kFp32:
        return StepKernel::kFp32;
      case InferencePrecision::kFp16:
        return StepKernel::kFp16;
      case InferencePrecision::kInt8:
        return StepKernel::kS8;
      case InferencePrecision::kHybrid:
        break;
    }
    return net.hybrid_plan().at(static_cast<std::size_t>(conv_index)) == LayerPrecision::kInt8
               ? StepKernel::kS8
               : StepKernel::kFp16;
  };
  plan.steps_.reserve(ops.size());
  for (int s = 0; s < n_steps; ++s) {
    PlanStep step;
    step.op = std::move(ops[s]);
    if (step.op.kind == hw::OpKind::kConv) step.kernel = kernel_for(step.op.conv_index);
    plan.steps_.push_back(std::move(step));
  }

  const auto add_value = [&](std::int64_t elements, ValueSpace space, int def, int last_use) {
    PlanValue v;
    v.elements = elements;
    v.space = space;
    v.def = def;
    v.last_use = last_use;
    plan.values_.push_back(v);
    return static_cast<int>(plan.values_.size()) - 1;
  };

  // Storage: kFp16 rounds the input to binary16 once and stores every
  // inter-conv activation as binary16; the last conv's fp32 accumulator (and
  // everything after it) stays float. Every other route keeps the carrier.
  const std::int64_t input_elements = ir.input_h * ir.input_w * ir.input_c;
  if (precision == InferencePrecision::kFp16) {
    for (int s = 0; s < n_steps; ++s) {
      const PlanOp& op = plan.steps_[static_cast<std::size_t>(s)].op;
      if (op.kind == hw::OpKind::kConv && s != last_conv_step) {
        plan.values_[static_cast<std::size_t>(op.output)].space = ValueSpace::kHalf;
      }
    }
    plan.input_half_value_ = add_value(input_elements, ValueSpace::kHalf, 0, input_last_use);
  }

  // Staging follows from the kernels and spaces: an fp16 kernel reading the
  // carrier stages its input through binary16, a binary16 skip added to an
  // fp32 output widens first, and an fp16 kernel storing to the carrier rounds
  // its output once (except the network's final accumulator).
  const auto space_of = [&](int value) {
    if (value == kInputValue) {
      return plan.input_half_value_ == kNoValue ? ValueSpace::kFloat : ValueSpace::kHalf;
    }
    return plan.values_[static_cast<std::size_t>(value)].space;
  };
  for (int s = 0; s < n_steps; ++s) {
    PlanStep& step = plan.steps_[static_cast<std::size_t>(s)];
    if (step.op.kind != hw::OpKind::kConv) continue;
    const bool float_out = space_of(step.op.output) == ValueSpace::kFloat;
    if (step.kernel == StepKernel::kFp16) {
      if (space_of(step.op.input) == ValueSpace::kFloat) {
        step.stage = add_value(step.op.input_elements(), ValueSpace::kHalf, s, s);
      }
      step.round_output = float_out && s != last_conv_step;
    }
    if (step.op.skip != kNoValue && float_out && space_of(step.op.skip) == ValueSpace::kHalf) {
      const std::int64_t skip_elements =
          step.op.skip == kInputValue
              ? input_elements
              : plan.values_[static_cast<std::size_t>(step.op.skip)].elements;
      step.widen = add_value(skip_elements, ValueSpace::kFloat, s, s);
    }
  }

  // Chained depth-to-space intermediates (scale 4): step-local float temps.
  for (int s = 0; s < n_steps; ++s) {
    PlanStep& step = plan.steps_[static_cast<std::size_t>(s)];
    if (step.op.kind != hw::OpKind::kDepthToSpace) continue;
    for (std::size_t k = 0; k + 1 < step.op.blocks.size(); ++k) {
      // A shuffle is a permutation: every intermediate has the input's numel.
      step.temps.push_back(add_value(step.op.input_elements(), ValueSpace::kFloat, s, s));
    }
  }

  // Pack each space into its own flat arena. The final output lives in the
  // caller's buffer, not the arena.
  const auto pack = [&](ValueSpace space) {
    std::vector<ValueInterval> intervals(plan.values_.size());
    for (std::size_t i = 0; i < plan.values_.size(); ++i) {
      const PlanValue& v = plan.values_[i];
      intervals[i].def = v.def;
      intervals[i].last_use = v.last_use;
      intervals[i].elements = (v.space == space && !v.external) ? v.elements : 0;
    }
    const MemoryPlan mem = plan_memory(intervals);
    for (std::size_t i = 0; i < plan.values_.size(); ++i) {
      if (plan.values_[i].space == space && !plan.values_[i].external) {
        plan.values_[i].offset = mem.offsets[i];
      }
    }
    return mem.arena_elements;
  };
  plan.float_arena_elements_ = pack(ValueSpace::kFloat);
  plan.half_arena_elements_ = pack(ValueSpace::kHalf);
  return plan;
}

ExecutionPlan ExecutionPlan::unshared() const {
  ExecutionPlan plan = *this;
  plan.float_arena_elements_ = 0;
  plan.half_arena_elements_ = 0;
  for (PlanValue& v : plan.values_) {
    if (v.external) continue;
    std::int64_t& arena = v.space == ValueSpace::kHalf ? plan.half_arena_elements_
                                                        : plan.float_arena_elements_;
    v.offset = arena;
    arena += v.elements;
  }
  return plan;
}

PlanFootprint ExecutionPlan::footprint() const {
  const std::int64_t pixels = lr_h_ * lr_w_;
  if (pixels <= 0 || float_arena_elements_ % pixels != 0 || half_arena_elements_ % pixels != 0) {
    throw std::logic_error("ExecutionPlan::footprint: arena not a multiple of the pixel count");
  }
  PlanFootprint f;
  f.float_per_pixel = float_arena_elements_ / pixels;
  f.half_per_pixel = half_arena_elements_ / pixels;
  return f;
}

}  // namespace sesr::core::plan
