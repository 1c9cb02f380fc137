// Compiled execution plan: fused steps + a static activation memory plan.
//
// compile() runs the whole pipeline for one network at one input shape and
// one precision: build the IR, lower and fuse it (passes.hpp), write each conv
// step's kernel (fp32, fp16 or s8) and the storage space (fp32 carrier or
// binary16) of every value, add the staging values those choices need, derive
// live intervals, and let the memory planner pack each space into one flat
// arena. The result is a closed-form recipe the planned executor replays: for
// each step, which kernel, which weights, and the exact arena offsets of its
// operands. No allocation or precision decisions remain at run time.
//
// Precision changes the per-step kernels and which values are stored as
// binary16, never the step list. kFp32, kInt8 and kHybrid keep every value on
// the fp32 carrier; kFp16 stores the input and the inter-conv activations as
// binary16, so its input residual adds the binary16-rounded input.
//
// Every value's size is channels x pixels, so the whole plan scales linearly
// and exactly with the LR pixel count: footprint() returns per-pixel
// coefficients the registry records per route at registration time.
#pragma once

#include <cstdint>
#include <vector>

#include "core/plan/memory_planner.hpp"
#include "core/plan/passes.hpp"
#include "core/sesr_inference.hpp"

namespace sesr::core::plan {

// Constant-folding pass: collapse every trained linear block into its single
// equivalent conv (Algorithm 1) with the short residual and all biases folded
// through (Algorithm 2). Weights and biases become plan-time constants; the
// SesrInference constructor delegates here.
std::vector<CollapsedConv> collapse_pass(const SesrNetwork& network);

enum class ValueSpace : std::uint8_t { kFloat, kHalf };

struct PlanValue {
  std::int64_t elements = 0;  // per batch item, at the compiled shape
  ValueSpace space = ValueSpace::kFloat;
  int def = 0;       // step defining the value (input staging: step 0)
  int last_use = 0;  // last step reading or updating it (closed interval)
  std::int64_t offset = 0;  // elements into its space's arena
  bool external = false;    // the network output: caller's buffer, not arena
};

// The arithmetic a conv step runs. kFp32: fp32 GEMM. kFp16: binary16
// operands, fp32 accumulation. kS8: u8 x s8 GEMM that quantizes its fp32
// input in the A-pack with the calibrated per-layer scale.
enum class StepKernel : std::uint8_t { kFp32, kFp16, kS8 };

// One executor step. The op's input/skip/output fields are rewritten to
// PlanValue indices (kInputValue still means the network input, which lives
// in the caller's tensor or, when input_half_value() is set, in that value).
struct PlanStep {
  PlanOp op;
  StepKernel kernel = StepKernel::kFp32;  // conv steps only
  int stage = kNoValue;  // binary16 copy of an fp32 input for a kFp16 kernel
  int widen = kNoValue;  // fp32 copy of a binary16 skip added to an fp32 output
  bool round_output = false;  // fp32 output rounded once through binary16
  std::vector<int> temps;  // shuffle-chain intermediates, in chain order
};

// Exact per-LR-pixel arena coefficients of a compiled route.
struct PlanFootprint {
  std::int64_t float_per_pixel = 0;  // fp32 carrier elements per LR pixel
  std::int64_t half_per_pixel = 0;   // binary16 elements per LR pixel
  std::int64_t bytes(std::int64_t lr_pixels) const {
    return lr_pixels * (float_per_pixel * static_cast<std::int64_t>(sizeof(float)) +
                        half_per_pixel * 2);
  }
};

class ExecutionPlan {
 public:
  // Compiles for `precision` (int8/hybrid state must already be present, as
  // set_precision enforces; fp16 kernels read the network's fp16 weights).
  static ExecutionPlan compile(const SesrInference& net, InferencePrecision precision,
                               std::int64_t lr_h, std::int64_t lr_w);

  // The same steps over a layout where every value gets its own arena slot:
  // nothing is shared, so comparing it with the packed plan isolates buffer
  // placement from arithmetic.
  ExecutionPlan unshared() const;

  const std::vector<PlanStep>& steps() const { return steps_; }
  const std::vector<PlanValue>& values() const { return values_; }
  std::int64_t lr_h() const { return lr_h_; }
  std::int64_t lr_w() const { return lr_w_; }
  InferencePrecision precision() const { return precision_; }

  // Arena sizes per batch item at the compiled shape.
  std::int64_t float_arena_elements() const { return float_arena_elements_; }
  std::int64_t half_arena_elements() const { return half_arena_elements_; }
  std::int64_t peak_activation_bytes() const {
    return float_arena_elements_ * static_cast<std::int64_t>(sizeof(float)) +
           half_arena_elements_ * 2;
  }

  // The binary16 value the network input is rounded into before the first
  // step, or kNoValue when steps read the caller's fp32 input in place.
  int input_half_value() const { return input_half_value_; }

  // Per-pixel coefficients; exact because every value size and offset is a
  // multiple of the LR pixel count (throws if that invariant ever breaks).
  PlanFootprint footprint() const;

 private:
  std::vector<PlanStep> steps_;
  std::vector<PlanValue> values_;
  std::int64_t float_arena_elements_ = 0;
  std::int64_t half_arena_elements_ = 0;
  std::int64_t lr_h_ = 0;
  std::int64_t lr_w_ = 0;
  InferencePrecision precision_ = InferencePrecision::kFp32;
  int input_half_value_ = kNoValue;
};

}  // namespace sesr::core::plan
