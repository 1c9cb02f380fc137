// Interprets compiled execution plans with statically planned arenas.
//
// The executor owns nothing about the network: run() takes the SesrInference
// whose weights it replays, and the executor holds only (a) a small cache of
// compiled plans keyed by input shape and (b) the two activation arenas (fp32
// carrier and binary16). Steady state — same shape, warm cache, arenas grown
// — performs zero heap allocations: every layer output lands in a
// planner-assigned arena slice and the final step writes the caller's output
// buffer directly.
//
// Batching scales the compiled plan instead of recompiling: every offset and
// size is per batch item, so the executor multiplies both by N. That keeps
// slices disjoint because disjointness is preserved under a common positive
// scale factor.
//
// One interpreter loop serves every precision: each conv step runs the
// kernel the compiler wrote for it and reads and writes operands in the
// spaces the compiler assigned, so fp32, fp16, int8 and hybrid differ only
// in the plan. The same loop over ExecutionPlan::unshared() (every value in
// its own slot) is the audit's reference: the packed layout changes where
// bytes live, never arithmetic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/plan/execution_plan.hpp"
#include "tensor/fp16.hpp"
#include "tensor/tensor.hpp"

namespace sesr::core::plan {

// Sees each conv's fp32 input just before the conv runs: (conv index, data,
// element count). The int8 calibration's max-abs observer.
using ConvObserver = std::function<void(std::size_t, const float*, std::int64_t)>;

class PlannedExecutor {
 public:
  // Upscales `input` (N, H, W, 1) into `output` (N, scale*H, scale*W, 1),
  // which must be pre-shaped, at the network's current precision. Compiles/
  // caches the plan for (H, W) on first use; allocation-free afterwards.
  void run(const SesrInference& net, const Tensor& input, Tensor& output);

  // Interprets `plan` (compiled for `input`'s spatial shape). A non-null
  // `observe` is called before every conv; it needs a plan whose conv
  // inputs all live on the fp32 carrier (kFp32, kInt8).
  void run(const ExecutionPlan& plan, const SesrInference& net, const Tensor& input,
           Tensor& output, const ConvObserver* observe = nullptr);

  // The cached (or freshly compiled) plan for one LR shape and precision.
  const ExecutionPlan& plan_for(const SesrInference& net, InferencePrecision precision,
                                std::int64_t lr_h, std::int64_t lr_w);

  // Per-pixel arena coefficients at the current precision (compiles a small
  // probe plan if none is cached).
  PlanFootprint footprint(const SesrInference& net);

  // Bytes currently retained by the two arenas (capacity, not size: what the
  // process actually holds).
  std::int64_t arena_bytes() const;

  // Grow the arenas up front to the footprint of `lr_pixels` LR pixels so
  // steady-state traffic below that bound never reallocates.
  void reserve(const SesrInference& net, std::int64_t lr_pixels);

  // Release arena memory beyond the footprint of `lr_pixels` (after an
  // oversized frame inflated them).
  void trim(const SesrInference& net, std::int64_t lr_pixels);

  // Drop cached plans (the hybrid assignment changed). Arenas keep their
  // memory.
  void invalidate();

 private:
  struct CachedPlan {
    ExecutionPlan plan;
    std::uint64_t stamp = 0;  // LRU clock
  };

  void run_shuffle(const ExecutionPlan& p, const PlanStep& step, const float* in,
                   std::int64_t batch, Tensor& output);
  float* float_ptr(const ExecutionPlan& p, int value, std::int64_t batch, Tensor& output);
  fp16::Half* half_ptr(const ExecutionPlan& p, int value, std::int64_t batch);

  std::vector<CachedPlan> plans_;
  std::uint64_t stamp_ = 0;
  std::vector<float> float_arena_;
  std::vector<fp16::Half> half_arena_;
};

}  // namespace sesr::core::plan
