// Single-threaded SGEMM used by the im2col convolution path.
//
// Row-major throughout: C[m x n] (+)= A[m x k] * B[k x n]. The implementation
// is a register-tiled, cache-blocked kernel: A and B are packed into
// contiguous MR-row / NR-column panels and multiplied by a 6x16 micro-kernel
// whose accumulators live in registers (dispatched to an AVX2+FMA build of the
// kernel at runtime when the CPU supports it). Threading happens *above* this
// layer — the convolution stripes its row space and calls gemm per stripe —
// so every call here is deterministic and allocation-free (packing buffers
// come from the per-thread scratch arena).
//
// `gemm_zero_skip` keeps the old branchy zero-skipping kernel. It only pays
// off when A is mostly zeros, which in this codebase means one thing: the
// padded identity probes of Algorithm 1 (collapse). Everything else should
// use the dense kernels.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace sesr::nn {

// Which micro-kernel build the dense GEMM dispatches to. kAuto picks the best
// the CPU supports (the default, chosen at startup); the explicit values exist
// so the numerical audit (src/check) can sweep the scalar and AVX2 kernels as
// separate optimized-vs-reference pairs on the same machine.
enum class GemmIsa { kAuto, kGeneric, kAvx2 };

// Force the micro-kernel dispatch; returns false (leaving the dispatch
// unchanged) when the requested ISA is not supported by this CPU. Only call
// between kernel invocations — not while another thread is inside a GEMM.
bool set_gemm_isa(GemmIsa isa);

// True when the AVX2+FMA micro-kernel is available on this CPU.
bool gemm_avx2_supported();

// The micro-kernel build the dispatch currently selects: kGeneric or kAvx2,
// never kAuto. Kernels outside this file that must reproduce the GEMM's
// arithmetic bit for bit (the direct conv tiles) pick their build from it.
GemmIsa active_gemm_isa();

// k-block of the fp32 GEMM: k is summed in order in blocks of this size, the
// first block stored (with the bias) and later blocks added to C. Part of the
// output's bit pattern, so kernels that must match the GEMM share it.
inline constexpr std::int64_t kGemmKc = 256;

// Optional activation fused into the GEMM write-back. The micro-kernel
// applies it on the *last* k-block's store only (bias rides on the first
// block's store), so the fused result is bit-identical to running the plain
// GEMM and then a separate elementwise activation pass over C — minus the
// extra full-tensor read/write. kPRelu reads one slope per output column
// (i.e. per conv output channel when C is the im2col output).
struct Epilogue {
  enum class Act { kNone, kRelu, kPRelu };
  Act act = Act::kNone;
  const float* prelu_alpha = nullptr;  // n slopes; required iff act == kPRelu
};

// PReLU on one value: v > 0 ? v : alpha * v, bit for bit (NaN and -0.0
// included), written as a bit select over an unconditionally computed
// product. Under GCC's default -ftrapping-math the plain ternary keeps the
// multiply behind a scalar compare and branch (mispredicted on mixed-sign
// activations, and never vectorized); the select compiles to mul, compare and
// blend in every kernel build.
inline float prelu_select(float v, float alpha) {
  const float neg = alpha * v;
  const std::uint32_t keep = 0U - static_cast<std::uint32_t>(v > 0.0F);
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(v) & keep) |
                              (std::bit_cast<std::uint32_t>(neg) & ~keep));
}

// C = A * B. C must hold m*n elements; it is overwritten.
void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c, std::int64_t m,
          std::int64_t k, std::int64_t n);

// C = A * B + bias, bias broadcast over rows (bias holds n elements). This is
// the fused epilogue used by conv2d_bias: the bias add rides on the final
// store of the GEMM instead of a second pass over the output.
void gemm_bias(std::span<const float> a, std::span<const float> b, std::span<const float> bias,
               std::span<float> c, std::int64_t m, std::int64_t k, std::int64_t n);

// C = act(A * B + bias) with the activation applied in the micro-kernel's
// final store (see Epilogue). bias may be empty (no bias add).
void gemm_fused(std::span<const float> a, std::span<const float> b, std::span<const float> bias,
                std::span<float> c, std::int64_t m, std::int64_t k, std::int64_t n,
                const Epilogue& epilogue);

// C += A * B (accumulating variant used by gradient accumulation over a batch).
void gemm_accumulate(std::span<const float> a, std::span<const float> b, std::span<float> c,
                     std::int64_t m, std::int64_t k, std::int64_t n);

// C = A^T * B where A is [k x m] row-major (so A^T is [m x k]).
void gemm_at_b(std::span<const float> a, std::span<const float> b, std::span<float> c,
               std::int64_t m, std::int64_t k, std::int64_t n);

// C += A^T * B.
void gemm_at_b_accumulate(std::span<const float> a, std::span<const float> b, std::span<float> c,
                          std::int64_t m, std::int64_t k, std::int64_t n);

// C = A * B^T where B is [n x k] row-major (so B^T is [k x n]).
void gemm_a_bt(std::span<const float> a, std::span<const float> b, std::span<float> c,
               std::int64_t m, std::int64_t k, std::int64_t n);

// C = A * B with rows of A scanned once and zero entries skipped. Use only
// when A is overwhelmingly zero (Algorithm-1 identity probes); on dense data
// the branch makes it several times slower than gemm().
void gemm_zero_skip(std::span<const float> a, std::span<const float> b, std::span<float> c,
                    std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace sesr::nn
