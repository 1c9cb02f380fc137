// Tests for the execution-plan compiler: pass-pipeline structure, the
// liveness memory planner's no-alias property, per-step kernels, bitwise
// equivalence of the packed plan against the same interpreter over the
// unshared layout ("direct": every value in its own slot; including
// stale-arena reuse and plan-cache eviction), arena reserve/trim, exact
// per-pixel footprints, and the scratch trim / high-water seams the serve
// workers use.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/plan/execution_plan.hpp"
#include "core/plan/memory_planner.hpp"
#include "core/plan/network_ir.hpp"
#include "core/plan/passes.hpp"
#include "core/plan/planned_executor.hpp"
#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "core/tiled_inference.hpp"
#include "tensor/rng.hpp"
#include "tensor/scratch.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/tensor.hpp"

namespace sesr::core::plan {
namespace {

Tensor random_frame(Rng& rng, std::int64_t n, std::int64_t h, std::int64_t w) {
  Tensor t(n, h, w, 1);
  t.fill_uniform(rng, 0.0F, 1.0F);
  return t;
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.numel(), want.numel());
  EXPECT_EQ(std::memcmp(got.raw(), want.raw(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0);
}

SesrConfig make_config(std::int64_t m, std::int64_t scale, bool prelu, bool input_residual,
                       bool with_bias) {
  SesrConfig config;
  config.f = 8;
  config.m = m;
  config.scale = scale;
  config.expand = 16;
  config.prelu = prelu;
  config.input_residual = input_residual;
  config.with_bias = with_bias;
  return config;
}

// A calibrated inference with a hybrid plan, so every precision is settable.
SesrInference make_inference(const SesrConfig& config, std::uint64_t seed) {
  Rng rng(seed);
  Rng init = rng.fork();
  const SesrNetwork network(config, init);
  SesrInference inference(network);
  inference.calibrate_int8({random_frame(rng, 1, 12, 12)});
  std::vector<LayerPrecision> plan(inference.convolutions().size(), LayerPrecision::kFp16);
  for (std::size_t i = 0; i < plan.size(); i += 2) plan[i] = LayerPrecision::kInt8;
  inference.set_hybrid_plan(std::move(plan));
  return inference;
}

// The same plan interpreter over the unshared layout, in a fresh executor.
Tensor unshared_upscale(const SesrInference& net, const Tensor& input) {
  const Shape& s = input.shape();
  const ExecutionPlan plan = ExecutionPlan::compile(net, net.precision(), s.h(), s.w()).unshared();
  Tensor out(s.n(), s.h() * net.config().scale, s.w() * net.config().scale, 1);
  PlannedExecutor().run(plan, net, input, out);
  return out;
}

constexpr InferencePrecision kAllPrecisions[] = {
    InferencePrecision::kFp32, InferencePrecision::kFp16, InferencePrecision::kInt8,
    InferencePrecision::kHybrid};

// ------------------------------------------------------------ memory planner

TEST(MemoryPlanner, SimultaneouslyLiveValuesNeverShareBytes) {
  Rng rng(0x51ab7e01);
  for (int trial = 0; trial < 300; ++trial) {
    const std::int64_t n = rng.uniform_int(1, 14);
    const std::int64_t horizon = rng.uniform_int(0, 12);
    std::vector<ValueInterval> intervals(static_cast<std::size_t>(n));
    std::int64_t total = 0;
    for (ValueInterval& v : intervals) {
      v.def = static_cast<int>(rng.uniform_int(0, horizon));
      v.last_use = v.def + static_cast<int>(rng.uniform_int(0, horizon - v.def));
      v.elements = rng.bernoulli(0.15) ? 0 : rng.uniform_int(1, 96);
      total += v.elements;
    }
    const MemoryPlan plan = plan_memory(intervals);
    // Fragmentation never exceeds packing everything disjointly.
    EXPECT_LE(plan.arena_elements, total);
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      if (intervals[i].elements == 0) continue;
      EXPECT_LE(plan.offsets[i] + intervals[i].elements, plan.arena_elements);
      for (std::size_t j = i + 1; j < intervals.size(); ++j) {
        if (intervals[j].elements == 0) continue;
        if (!intervals_overlap(intervals[i], intervals[j])) continue;
        const bool disjoint =
            plan.offsets[i] + intervals[i].elements <= plan.offsets[j] ||
            plan.offsets[j] + intervals[j].elements <= plan.offsets[i];
        EXPECT_TRUE(disjoint) << "trial " << trial << ": values " << i << " and " << j
                              << " are live together but share arena bytes";
      }
    }
  }
}

TEST(MemoryPlanner, ArenaCoversPeakSimultaneousFootprint) {
  // Two values alive at once plus one that dies first: the survivor may reuse
  // the dead value's bytes, the concurrent one may not.
  std::vector<ValueInterval> intervals = {
      {/*elements=*/10, /*def=*/0, /*last_use=*/1},   // dies at step 1
      {/*elements=*/10, /*def=*/0, /*last_use=*/3},   // pinned across everything
      {/*elements=*/10, /*def=*/2, /*last_use=*/3},   // may reuse value 0's bytes
  };
  const MemoryPlan plan = plan_memory(intervals);
  EXPECT_EQ(plan.arena_elements, 20);
  EXPECT_EQ(plan.offsets[0], plan.offsets[2]);
}

TEST(MemoryPlanner, RejectsBackwardInterval) {
  std::vector<ValueInterval> intervals = {{/*elements=*/4, /*def=*/3, /*last_use=*/1}};
  EXPECT_THROW(plan_memory(intervals), std::invalid_argument);
}

// ------------------------------------------------------------- pass pipeline

TEST(Passes, SesrGraphFusesToConvsPlusOneShuffle) {
  for (const std::int64_t m : {std::int64_t{0}, std::int64_t{1}, std::int64_t{2},
                               std::int64_t{5}}) {
    for (const std::int64_t scale : {std::int64_t{2}, std::int64_t{4}}) {
      for (const bool input_residual : {false, true}) {
        const SesrConfig config = make_config(m, scale, true, input_residual, false);
        const hw::NetworkIr ir = hw::sesr_ir(config, 16, 20);
        const std::vector<PlanOp> ops = lower_and_fuse(ir);
        // Every activation, residual add, and chained shuffle stage fuses
        // away: m+2 convs plus exactly one depth-to-space survive.
        ASSERT_EQ(ops.size(), static_cast<std::size_t>(m + 3))
            << "m=" << m << " scale=" << scale;
        std::int64_t shuffle_factor = 1;
        for (std::size_t i = 0; i < ops.size(); ++i) {
          const PlanOp& op = ops[i];
          if (i + 1 < ops.size()) {
            EXPECT_EQ(op.kind, hw::OpKind::kConv);
          } else {
            EXPECT_EQ(op.kind, hw::OpKind::kDepthToSpace);
            for (const std::int64_t b : op.blocks) shuffle_factor *= b;
          }
          if (op.kind == hw::OpKind::kConv && i + 2 < ops.size()) {
            EXPECT_GE(op.act_index, 0) << "conv step " << i << " lost its fused activation";
          }
        }
        EXPECT_EQ(shuffle_factor, scale);
        // The long (blue) residual lands fused on the last feature conv; the
        // input (black) residual on the final conv when configured.
        EXPECT_NE(ops[static_cast<std::size_t>(m)].skip, kNoValue);
        const PlanOp& last_conv = ops[static_cast<std::size_t>(m + 1)];
        EXPECT_LT(last_conv.act_index, 0);
        EXPECT_EQ(last_conv.skip, input_residual ? kInputValue : kNoValue);
      }
    }
  }
}

TEST(Passes, ResidualSkipOntoOwnProducerBecomesSelfSkip) {
  // m = 0: the long residual's source is the same conv it fuses into; the
  // fused op must reference its own (renamed) output, never a dangling id.
  const SesrConfig config = make_config(0, 2, false, false, false);
  const std::vector<PlanOp> ops = lower_and_fuse(hw::sesr_ir(config, 8, 8));
  ASSERT_GE(ops.size(), 1U);
  EXPECT_EQ(ops[0].skip, ops[0].output);
}

// ------------------------------------------------------------ compiled plans

TEST(ExecutionPlan, LiveValuesDisjointForRandomConfigsAndPrecisions) {
  Rng rng(0xc0ffee11);
  for (int trial = 0; trial < 40; ++trial) {
    const SesrConfig config =
        make_config(rng.uniform_int(0, 3), rng.bernoulli(0.5) ? 2 : 4, rng.bernoulli(0.5),
                    rng.bernoulli(0.5), rng.bernoulli(0.5));
    SesrInference net = make_inference(config, 0x1000 + static_cast<std::uint64_t>(trial));
    net.set_precision(kAllPrecisions[rng.uniform_int(0, 3)]);
    const ExecutionPlan plan = ExecutionPlan::compile(net, net.precision(), rng.uniform_int(4, 20),
                                                      rng.uniform_int(4, 20));
    const std::vector<PlanValue>& values = plan.values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const PlanValue& a = values[i];
      if (a.external || a.elements == 0) continue;
      const std::int64_t arena = a.space == ValueSpace::kFloat ? plan.float_arena_elements()
                                                               : plan.half_arena_elements();
      EXPECT_LE(a.offset + a.elements, arena);
      for (std::size_t j = i + 1; j < values.size(); ++j) {
        const PlanValue& b = values[j];
        if (b.external || b.elements == 0 || b.space != a.space) continue;
        if (a.def > b.last_use || b.def > a.last_use) continue;  // never live together
        const bool disjoint =
            a.offset + a.elements <= b.offset || b.offset + b.elements <= a.offset;
        EXPECT_TRUE(disjoint) << "trial " << trial << ": values " << i << " and " << j;
      }
    }
  }
}

TEST(ExecutionPlan, FootprintCoefficientsExactAcrossShapes) {
  SesrInference net = make_inference(make_config(2, 2, true, true, false), 7);
  for (const InferencePrecision precision : kAllPrecisions) {
    net.set_precision(precision);
    const ExecutionPlan small = ExecutionPlan::compile(net, precision, 16, 16);
    const ExecutionPlan wide = ExecutionPlan::compile(net, precision, 24, 40);
    const PlanFootprint fs = small.footprint();
    const PlanFootprint fw = wide.footprint();
    // Per-pixel coefficients are shape-independent and reproduce the arena
    // byte-for-byte — the registry records them per route at registration.
    EXPECT_EQ(fs.float_per_pixel, fw.float_per_pixel);
    EXPECT_EQ(fs.half_per_pixel, fw.half_per_pixel);
    EXPECT_EQ(fs.bytes(16 * 16), small.peak_activation_bytes());
    EXPECT_EQ(fw.bytes(24 * 40), wide.peak_activation_bytes());
    EXPECT_GT(fs.float_per_pixel, 0);
  }
}

TEST(ExecutionPlan, PlannedArenaBeatsSumOfLayerOutputs) {
  // The planner's whole point: the packed arena is far below materializing
  // every fused step's output at once.
  SesrInference net = make_inference(make_config(5, 2, false, true, false), 11);
  const ExecutionPlan plan = ExecutionPlan::compile(net, net.precision(), 32, 32);
  std::int64_t direct_sum = 0;
  for (const PlanStep& step : plan.steps()) direct_sum += step.op.output_elements();
  EXPECT_LE(plan.float_arena_elements() * 2, direct_sum);
}

TEST(ExecutionPlan, KernelsAndSpacesFollowThePrecision) {
  SesrInference net = make_inference(make_config(2, 2, true, true, false), 13);
  for (const InferencePrecision precision : kAllPrecisions) {
    net.set_precision(precision);
    const ExecutionPlan plan = ExecutionPlan::compile(net, precision, 8, 8);
    // Only kFp16 stores activations (and the input) as binary16.
    EXPECT_EQ(plan.input_half_value() != kNoValue, precision == InferencePrecision::kFp16);
    for (const PlanStep& step : plan.steps()) {
      if (step.op.kind != hw::OpKind::kConv) continue;
      const LayerPrecision layer = net.hybrid_plan()[static_cast<std::size_t>(step.op.conv_index)];
      StepKernel want = StepKernel::kFp32;
      if (precision == InferencePrecision::kFp16) want = StepKernel::kFp16;
      if (precision == InferencePrecision::kInt8) want = StepKernel::kS8;
      if (precision == InferencePrecision::kHybrid) {
        want = layer == LayerPrecision::kInt8 ? StepKernel::kS8 : StepKernel::kFp16;
      }
      EXPECT_EQ(step.kernel, want);
      // Hybrid fp16 layers read the fp32 carrier through a binary16 stage.
      EXPECT_EQ(step.stage != kNoValue,
                precision == InferencePrecision::kHybrid && want == StepKernel::kFp16);
    }
  }
}

TEST(ExecutionPlan, UnsharedLayoutGivesEveryValueItsOwnSlot) {
  SesrInference net = make_inference(make_config(3, 4, false, true, true), 17);
  for (const InferencePrecision precision : kAllPrecisions) {
    net.set_precision(precision);
    const ExecutionPlan packed = ExecutionPlan::compile(net, precision, 9, 7);
    const ExecutionPlan plan = packed.unshared();
    std::int64_t float_sum = 0;
    std::int64_t half_sum = 0;
    for (const PlanValue& v : plan.values()) {
      if (v.external) continue;
      (v.space == ValueSpace::kHalf ? half_sum : float_sum) += v.elements;
    }
    EXPECT_EQ(plan.float_arena_elements(), float_sum);
    EXPECT_EQ(plan.half_arena_elements(), half_sum);
    EXPECT_LT(packed.peak_activation_bytes(), plan.peak_activation_bytes());
    const std::vector<PlanValue>& values = plan.values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      for (std::size_t j = i + 1; j < values.size(); ++j) {
        const PlanValue& a = values[i];
        const PlanValue& b = values[j];
        if (a.external || b.external || a.space != b.space) continue;
        EXPECT_TRUE(a.offset + a.elements <= b.offset || b.offset + b.elements <= a.offset);
      }
    }
  }
}

// ---------------------------------------------------------- planned executor

TEST(PlannedExecutor, BitIdenticalToDirectAllPrecisions) {
  SesrInference planned = make_inference(make_config(2, 2, true, true, true), 21);
  Rng rng(22);
  const Tensor frame = random_frame(rng, 1, 10, 14);
  const Tensor batch = random_frame(rng, 3, 10, 14);
  for (const InferencePrecision precision : kAllPrecisions) {
    planned.set_precision(precision);
    expect_bitwise(planned.upscale(frame), unshared_upscale(planned, frame));
    expect_bitwise(planned.upscale(batch), unshared_upscale(planned, batch));
  }
}

TEST(PlannedExecutor, StaleArenaBytesNeverLeakIntoSmallerFrames) {
  // Run a large frame first so the arena holds stale activations, then a
  // small one: any offset bug that reads bytes the small plan never wrote
  // would surface as a bitwise mismatch against a fresh unshared run.
  SesrInference planned = make_inference(make_config(1, 4, true, true, false), 31);
  Rng rng(32);
  for (const InferencePrecision precision : kAllPrecisions) {
    planned.set_precision(precision);
    (void)planned.upscale(random_frame(rng, 1, 24, 24));
    const Tensor small = random_frame(rng, 1, 5, 3);
    expect_bitwise(planned.upscale(small), unshared_upscale(planned, small));
  }
}

TEST(PlannedExecutor, PlanCacheEvictionRecompilesCorrectly) {
  // More distinct shapes than the bounded plan cache holds: the comparison
  // shape is compiled, evicted, and recompiled — all bit-identical.
  SesrInference planned = make_inference(make_config(1, 2, false, true, false), 41);
  Rng rng(42);
  const Tensor probe = random_frame(rng, 1, 9, 9);
  const Tensor first = planned.upscale(probe);
  for (std::int64_t i = 0; i < 12; ++i) {
    (void)planned.upscale(random_frame(rng, 1, 4 + i, 4));
  }
  const Tensor recompiled = planned.upscale(probe);
  expect_bitwise(recompiled, first);
  expect_bitwise(recompiled, unshared_upscale(planned, probe));
}

TEST(PlannedExecutor, TiledUpscaleRunsThroughThePlan) {
  // Every tile shape compiles its own plan; each tile must match that shape's
  // unshared run.
  SesrInference planned = make_inference(make_config(2, 2, true, true, false), 51);
  Rng rng(52);
  const Tensor frame = random_frame(rng, 1, 20, 17);
  TilingOptions options;
  options.tile_h = 7;
  options.tile_w = 6;
  options.halo = receptive_field_radius(planned);
  Tensor want(1, 40, 34, 1);
  for (const TileTask& task : tile_grid(20, 17, options, options.halo)) {
    const Tensor up =
        unshared_upscale(planned, crop_spatial(frame, task.hy0, task.hx0, task.hh, task.hw));
    paste_tile(want,
               crop_spatial(up, (task.y0 - task.hy0) * 2, (task.x0 - task.hx0) * 2, task.th * 2,
                            task.tw * 2),
               task, 2);
  }
  expect_bitwise(upscale_tiled(planned, frame, options), want);
}

TEST(PlannedExecutor, ReserveAndTrimGovernArenaBytes) {
  SesrInference net = make_inference(make_config(2, 2, false, true, false), 61);
  const PlanFootprint f = ExecutionPlan::compile(net, net.precision(), 16, 16).footprint();
  EXPECT_EQ(net.plan_arena_bytes(), 0);  // nothing compiled or reserved yet
  net.plan_reserve(24 * 24);
  EXPECT_EQ(net.plan_arena_bytes(), f.bytes(24 * 24));
  Rng rng(62);
  // A frame within the reservation must not grow the arena...
  (void)net.upscale(random_frame(rng, 1, 20, 20));
  EXPECT_EQ(net.plan_arena_bytes(), f.bytes(24 * 24));
  // ...an oversized one grows it, and trim gives the excess back.
  (void)net.upscale(random_frame(rng, 1, 40, 40));
  EXPECT_GE(net.plan_arena_bytes(), f.bytes(40 * 40));
  net.plan_trim(24 * 24);
  EXPECT_EQ(net.plan_arena_bytes(), f.bytes(24 * 24));
  // Still correct after the trim.
  const Tensor frame = random_frame(rng, 1, 10, 10);
  expect_bitwise(net.upscale(frame), unshared_upscale(net, frame));
}

// ------------------------------------------------------------- scratch seams

TEST(ScratchTrim, TrimIsDeferredToTheSlotsNextRequest) {
  (void)scratch_floats(ScratchSlot::kIm2col, 1 << 16);
  const std::size_t before = scratch_thread_retained_bytes();
  EXPECT_GE(before, (std::size_t{1} << 16) * sizeof(float));
  scratch_trim();
  // Nothing freed yet: a span handed out before the trim stays valid until
  // its own slot is requested again.
  EXPECT_EQ(scratch_thread_retained_bytes(), before);
  (void)scratch_floats(ScratchSlot::kIm2col, 16);
  EXPECT_LE(scratch_thread_retained_bytes(),
            before - ((std::size_t{1} << 16) - 16) * sizeof(float));
}

}  // namespace
}  // namespace sesr::core::plan
