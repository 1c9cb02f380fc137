#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "tensor/scratch.hpp"

namespace sesr::nn {

namespace {
void check_sizes(std::span<const float> a, std::span<const float> b, std::span<float> c,
                 std::int64_t m, std::int64_t k, std::int64_t n, bool a_transposed,
                 bool b_transposed) {
  const std::int64_t a_need = a_transposed ? k * m : m * k;
  const std::int64_t b_need = b_transposed ? n * k : k * n;
  if (m < 0 || k < 0 || n < 0 || static_cast<std::int64_t>(a.size()) < a_need ||
      static_cast<std::int64_t>(b.size()) < b_need || static_cast<std::int64_t>(c.size()) < m * n) {
    throw std::invalid_argument("gemm: buffer sizes inconsistent with m/k/n");
  }
}

// ---------------------------------------------------------------------------
// Register-tiled kernel: C tiles of MR x NR accumulate in registers while A/B
// stream from packed panels. Blocking constants (floats):
//   KC * NR panel of B  ~ 16 KiB  -> L1-resident across one A block
//   MC * KC panel of A  ~ 96 KiB  -> L2-resident across one B panel sweep
constexpr std::int64_t kMr = 6;
constexpr std::int64_t kNr = 16;
constexpr std::int64_t kKc = kGemmKc;
constexpr std::int64_t kMc = 96;  // multiple of kMr
constexpr std::int64_t kNc = 1024;

// Logical matrix element (r, c) of A/B is src[r * rs + c * cs]; the stride
// pair folds the transposed variants into one packing routine.
void pack_a_block(const float* a, std::int64_t rs, std::int64_t cs, std::int64_t i0,
                  std::int64_t mc, std::int64_t p0, std::int64_t kc, float* dst) {
  for (std::int64_t ii = 0; ii < mc; ii += kMr) {
    const std::int64_t ib = std::min(kMr, mc - ii);
    float* panel = dst + ii * kc;
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* src = a + (i0 + ii) * rs + (p0 + p) * cs;
      std::int64_t i = 0;
      for (; i < ib; ++i) panel[p * kMr + i] = src[i * rs];
      for (; i < kMr; ++i) panel[p * kMr + i] = 0.0F;  // pad so tiles are full
    }
  }
}

void pack_b_block(const float* b, std::int64_t rs, std::int64_t cs, std::int64_t p0,
                  std::int64_t kc, std::int64_t j0, std::int64_t nc, float* dst) {
  for (std::int64_t jj = 0; jj < nc; jj += kNr) {
    const std::int64_t jb = std::min(kNr, nc - jj);
    float* panel = dst + jj * kc;
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* src = b + (p0 + p) * rs + (j0 + jj) * cs;
      std::int64_t j = 0;
      for (; j < jb; ++j) panel[p * kNr + j] = src[j * cs];
      for (; j < kNr; ++j) panel[p * kNr + j] = 0.0F;
    }
  }
}

// The two tile bodies are inlined into each ISA-specific wrapper below so the
// compiler vectorizes them for that target. The full-tile body only ever
// indexes the accumulator array with compile-time constants — that is what
// lets the register allocator keep all 6x16 accumulators in vector registers;
// a single variable-index access would spill the array to the stack and
// cripple the inner loop (measured ~5x slower). The `omp simd` pragma (enabled
// by -fopenmp-simd, no runtime dependency) is load-bearing: without it GCC
// leaves the rank-1 update scalar even at -O3 with FMA available (measured
// ~1 GMAC/s plain vs ~39 GMAC/s with the pragma on this machine). Edge tiles
// take the variable epilogue and the spill, but they only run on the last
// row/column panel.
// `bias`, when non-null, is added on the store (only with accumulate==false).
// `epi`, when non-null, is the fused activation applied to the just-stored
// tile values; gemm_tiled only passes it on the last k-block, after the bias
// and all partial sums have landed, so the fused result matches a separate
// elementwise pass bit for bit. ReLU must stay the explicit `v > 0 ? v : 0`
// select (not alpha=0 PReLU, which would turn negatives into -0.0F). PReLU
// goes through prelu_select so it vectorizes instead of branching per element.
__attribute__((always_inline)) inline void apply_epilogue_rows(float* c, std::int64_t ldc,
                                                               std::int64_t mr, std::int64_t nr,
                                                               const Epilogue* epi) {
  if (epi == nullptr || epi->act == Epilogue::Act::kNone) return;
  if (epi->act == Epilogue::Act::kRelu) {
    for (std::int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
#pragma omp simd
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = crow[j] > 0.0F ? crow[j] : 0.0F;
    }
  } else {
    const float* alpha = epi->prelu_alpha;
    for (std::int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
#pragma omp simd
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = prelu_select(crow[j], alpha[j]);
    }
  }
}

__attribute__((always_inline)) inline void micro_tile_full(const float* ap, const float* bp,
                                                           std::int64_t kc, float* c,
                                                           std::int64_t ldc, bool accumulate,
                                                           const float* bias,
                                                           const Epilogue* epi) {
  float acc[kMr][kNr] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMr;
    const float* brow = bp + p * kNr;
    for (std::int64_t i = 0; i < kMr; ++i) {
      const float av = arow[i];
#pragma omp simd
      for (std::int64_t j = 0; j < kNr; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (std::int64_t i = 0; i < kMr; ++i) {
    float* crow = c + i * ldc;
    if (accumulate) {
#pragma omp simd
      for (std::int64_t j = 0; j < kNr; ++j) crow[j] += acc[i][j];
    } else if (bias != nullptr) {
#pragma omp simd
      for (std::int64_t j = 0; j < kNr; ++j) crow[j] = acc[i][j] + bias[j];
    } else {
#pragma omp simd
      for (std::int64_t j = 0; j < kNr; ++j) crow[j] = acc[i][j];
    }
  }
  apply_epilogue_rows(c, ldc, kMr, kNr, epi);
}

__attribute__((always_inline)) inline void micro_tile_edge(const float* ap, const float* bp,
                                                           std::int64_t kc, float* c,
                                                           std::int64_t ldc, std::int64_t mr,
                                                           std::int64_t nr, bool accumulate,
                                                           const float* bias,
                                                           const Epilogue* epi) {
  float acc[kMr][kNr] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMr;
    const float* brow = bp + p * kNr;
    for (std::int64_t i = 0; i < kMr; ++i) {
      const float av = arow[i];
#pragma omp simd
      for (std::int64_t j = 0; j < kNr; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (std::int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < nr; ++j) {
      if (accumulate) {
        crow[j] += acc[i][j];
      } else {
        crow[j] = acc[i][j] + (bias != nullptr ? bias[j] : 0.0F);
      }
    }
  }
  apply_epilogue_rows(c, ldc, mr, nr, epi);
}

__attribute__((always_inline)) inline void micro_kernel_body(
    const float* ap, const float* bp, std::int64_t kc, float* c, std::int64_t ldc,
    std::int64_t mr, std::int64_t nr, bool accumulate, const float* bias, const Epilogue* epi) {
  if (mr == kMr && nr == kNr) {
    micro_tile_full(ap, bp, kc, c, ldc, accumulate, bias, epi);
  } else {
    micro_tile_edge(ap, bp, kc, c, ldc, mr, nr, accumulate, bias, epi);
  }
}

using MicroKernelFn = void (*)(const float*, const float*, std::int64_t, float*, std::int64_t,
                               std::int64_t, std::int64_t, bool, const float*, const Epilogue*);

void micro_kernel_generic(const float* ap, const float* bp, std::int64_t kc, float* c,
                          std::int64_t ldc, std::int64_t mr, std::int64_t nr, bool accumulate,
                          const float* bias, const Epilogue* epi) {
  micro_kernel_body(ap, bp, kc, c, ldc, mr, nr, accumulate, bias, epi);
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(const float* ap, const float* bp,
                                                           std::int64_t kc, float* c,
                                                           std::int64_t ldc, std::int64_t mr,
                                                           std::int64_t nr, bool accumulate,
                                                           const float* bias,
                                                           const Epilogue* epi) {
  micro_kernel_body(ap, bp, kc, c, ldc, mr, nr, accumulate, bias, epi);
}
#endif

MicroKernelFn pick_micro_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return micro_kernel_avx2;
#endif
  return micro_kernel_generic;
}

// Atomic so the audit's set_gemm_isa() between sweeps is race-free against
// worker threads reading the dispatch inside gemm_tiled.
std::atomic<MicroKernelFn> g_micro_kernel{pick_micro_kernel()};

// Shared macro-kernel: packs panels and walks register tiles. Summation over k
// happens in kKc blocks in a fixed order, so results for a given (m, k, n) are
// bit-identical regardless of how callers partition the row space.
void gemm_tiled(const float* a, std::int64_t a_rs, std::int64_t a_cs, const float* b,
                std::int64_t b_rs, std::int64_t b_cs, const float* bias, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n, bool accumulate,
                const Epilogue* epi = nullptr) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) c[i * n + j] = bias != nullptr ? bias[j] : 0.0F;
        apply_epilogue_rows(c + i * n, n, 1, n, epi);
      }
    }
    return;
  }
  const MicroKernelFn micro_kernel = g_micro_kernel.load(std::memory_order_relaxed);
  const std::int64_t nc_max = std::min(n, kNc);
  const std::int64_t nc_round = (nc_max + kNr - 1) / kNr * kNr;
  const std::int64_t kc_max = std::min(k, kKc);
  float* bpack = scratch_floats(ScratchSlot::kGemmPackB,
                                static_cast<std::size_t>(nc_round * kc_max))
                     .data();
  float* apack =
      scratch_floats(ScratchSlot::kGemmPackA, static_cast<std::size_t>(kMc * kc_max)).data();
  for (std::int64_t j0 = 0; j0 < n; j0 += kNc) {
    const std::int64_t nc = std::min(kNc, n - j0);
    for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
      const std::int64_t kc = std::min(kKc, k - p0);
      const bool first_k = p0 == 0;
      const bool last_k = p0 + kKc >= k;
      const bool acc_block = accumulate || !first_k;
      const float* bias_block = (!acc_block && bias != nullptr) ? bias : nullptr;
      // Activation fires only once every k-partial has been summed into C.
      const Epilogue* epi_block = (last_k && epi != nullptr) ? epi : nullptr;
      pack_b_block(b, b_rs, b_cs, p0, kc, j0, nc, bpack);
      for (std::int64_t i0 = 0; i0 < m; i0 += kMc) {
        const std::int64_t mc = std::min(kMc, m - i0);
        pack_a_block(a, a_rs, a_cs, i0, mc, p0, kc, apack);
        for (std::int64_t jj = 0; jj < nc; jj += kNr) {
          const std::int64_t nr = std::min(kNr, nc - jj);
          // Bias and PReLU slopes are per output column: shift both to this
          // tile's column origin.
          Epilogue tile_epi;
          const Epilogue* tile_epi_ptr = nullptr;
          if (epi_block != nullptr && epi_block->act != Epilogue::Act::kNone) {
            tile_epi.act = epi_block->act;
            tile_epi.prelu_alpha = epi_block->prelu_alpha != nullptr
                                       ? epi_block->prelu_alpha + j0 + jj
                                       : nullptr;
            tile_epi_ptr = &tile_epi;
          }
          for (std::int64_t ii = 0; ii < mc; ii += kMr) {
            micro_kernel(apack + ii * kc, bpack + jj * kc, kc,
                           c + (i0 + ii) * n + (j0 + jj), n, std::min(kMr, mc - ii), nr,
                           acc_block,
                           bias_block != nullptr ? bias_block + j0 + jj : nullptr, tile_epi_ptr);
          }
        }
      }
    }
  }
}

}  // namespace

bool gemm_avx2_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

GemmIsa active_gemm_isa() {
  return g_micro_kernel.load(std::memory_order_relaxed) == micro_kernel_generic ? GemmIsa::kGeneric
                                                                                : GemmIsa::kAvx2;
}

bool set_gemm_isa(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAuto:
      g_micro_kernel.store(pick_micro_kernel(), std::memory_order_relaxed);
      return true;
    case GemmIsa::kGeneric:
      g_micro_kernel.store(micro_kernel_generic, std::memory_order_relaxed);
      return true;
    case GemmIsa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      if (gemm_avx2_supported()) {
        g_micro_kernel.store(micro_kernel_avx2, std::memory_order_relaxed);
        return true;
      }
#endif
      return false;
  }
  return false;
}

void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  check_sizes(a, b, c, m, k, n, false, false);
  gemm_tiled(a.data(), k, 1, b.data(), n, 1, nullptr, c.data(), m, k, n, false);
}

void gemm_bias(std::span<const float> a, std::span<const float> b, std::span<const float> bias,
               std::span<float> c, std::int64_t m, std::int64_t k, std::int64_t n) {
  check_sizes(a, b, c, m, k, n, false, false);
  if (static_cast<std::int64_t>(bias.size()) < n) {
    throw std::invalid_argument("gemm_bias: bias must hold n elements");
  }
  gemm_tiled(a.data(), k, 1, b.data(), n, 1, bias.data(), c.data(), m, k, n, false);
}

void gemm_fused(std::span<const float> a, std::span<const float> b, std::span<const float> bias,
                std::span<float> c, std::int64_t m, std::int64_t k, std::int64_t n,
                const Epilogue& epilogue) {
  check_sizes(a, b, c, m, k, n, false, false);
  if (!bias.empty() && static_cast<std::int64_t>(bias.size()) < n) {
    throw std::invalid_argument("gemm_fused: bias must hold n elements");
  }
  if (epilogue.act == Epilogue::Act::kPRelu && epilogue.prelu_alpha == nullptr) {
    throw std::invalid_argument("gemm_fused: kPRelu requires prelu_alpha");
  }
  gemm_tiled(a.data(), k, 1, b.data(), n, 1, bias.empty() ? nullptr : bias.data(), c.data(), m, k,
             n, false, &epilogue);
}

void gemm_accumulate(std::span<const float> a, std::span<const float> b, std::span<float> c,
                     std::int64_t m, std::int64_t k, std::int64_t n) {
  check_sizes(a, b, c, m, k, n, false, false);
  gemm_tiled(a.data(), k, 1, b.data(), n, 1, nullptr, c.data(), m, k, n, true);
}

void gemm_at_b(std::span<const float> a, std::span<const float> b, std::span<float> c,
               std::int64_t m, std::int64_t k, std::int64_t n) {
  check_sizes(a, b, c, m, k, n, true, false);
  // A is [k x m] row-major; logical A^T element (i, p) lives at a[p * m + i].
  gemm_tiled(a.data(), 1, m, b.data(), n, 1, nullptr, c.data(), m, k, n, false);
}

void gemm_at_b_accumulate(std::span<const float> a, std::span<const float> b, std::span<float> c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
  check_sizes(a, b, c, m, k, n, true, false);
  gemm_tiled(a.data(), 1, m, b.data(), n, 1, nullptr, c.data(), m, k, n, true);
}

void gemm_a_bt(std::span<const float> a, std::span<const float> b, std::span<float> c,
               std::int64_t m, std::int64_t k, std::int64_t n) {
  check_sizes(a, b, c, m, k, n, false, true);
  // B is [n x k] row-major; logical B^T element (p, j) lives at b[j * k + p].
  gemm_tiled(a.data(), k, 1, b.data(), 1, k, nullptr, c.data(), m, k, n, false);
}

void gemm_zero_skip(std::span<const float> a, std::span<const float> b, std::span<float> c,
                    std::int64_t m, std::int64_t k, std::int64_t n) {
  check_sizes(a, b, c, m, k, n, false, false);
  std::fill(c.begin(), c.begin() + static_cast<std::size_t>(m * n), 0.0F);
  constexpr std::int64_t kBlock = 64;  // fits comfortably in L1 for the j stripe
  for (std::int64_t j0 = 0; j0 < n; j0 += kBlock) {
    const std::int64_t j1 = std::min(j0 + kBlock, n);
    for (std::int64_t i = 0; i < m; ++i) {
      float* crow = c.data() + i * n;
      const float* arow = a.data() + i * k;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0F) continue;  // identity-probe inputs in Algorithm 1 are mostly zero
        const float* brow = b.data() + p * n;
        for (std::int64_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace sesr::nn
