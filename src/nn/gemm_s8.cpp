// Packed u8 x s8 GEMM micro-kernels for the int8 serving path. See
// gemm_s8.hpp for the layout and exactness contract; the structure mirrors
// gemm.cpp (pack panels, register-tiled micro-kernel, atomic ISA dispatch)
// with two differences: a single full-k sweep per micro-tile replaces the
// kKc k-blocking (int8 panels are small enough for L1 at SESR conv sizes),
// and each micro-kernel build consumes its own A-panel byte layout, so the
// dispatch hands out a {kernel, layout} descriptor instead of a bare
// function pointer.
//
// Accumulator wraparound: the raw offset-binary accumulator (sum of u8*s8
// plus the 128*colsum compensation term) may not fit int32 for extreme k even
// when the true s8*s8 product does. All accumulation therefore runs modulo
// 2^32 — uint32 in the scalar kernel, hardware-wrapping SIMD adds in the
// vector kernels — and the final int32 result is exact two's-complement
// whenever the true product fits, which the int64 reference in src/check
// validates (it throws on genuine int32 overflow instead of comparing).
#include "nn/gemm_s8.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "tensor/scratch.hpp"

// The VEX-encoded AVX-VNNI intrinsics (_mm256_dpbusd_avx_epi32) need gcc 11+
// or clang 14+; older compilers fall back to the AVX2 madd kernel.
#if (defined(__x86_64__) || defined(__i386__)) &&                                        \
    ((defined(__clang_major__) && __clang_major__ >= 14) ||                              \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 11))
#define SESR_INT8_VNNI 1
#else
#define SESR_INT8_VNNI 0
#endif

namespace sesr::nn {

namespace {

constexpr std::int64_t kMrS8 = 6;  // rows per micro-tile
constexpr std::int64_t kNrS8 = 8;  // columns per micro-tile (one __m256i of int32)
constexpr std::int64_t kMcS8 = 96; // rows per packed A block

// Per-tile write-back context. Exactly one of c / ci32 is set: c gets the
// fused dequant->bias->activation store, ci32 the raw compensated int32
// accumulators (audit path). Column-indexed pointers are pre-offset to the
// tile's first column.
struct S8TileCtx {
  const std::int32_t* colsum = nullptr;
  const float* scale = nullptr;
  const float* bias = nullptr;
  Epilogue::Act act = Epilogue::Act::kNone;
  const float* alpha = nullptr;
  float* c = nullptr;
  std::int32_t* ci32 = nullptr;
  std::int64_t ldc = 0;
  std::int64_t mr = 0;
  std::int64_t nr = 0;
};

// Packed A is plain row-major: each 6-row tile holds 6 consecutive rows of
// k4 = 4*kg bytes (k rounded up to the dot-4 group, tail padded with the
// quantized zero point). Packing a tile is then just one row-source write per
// row — no byte scatter — which matters because the pack runs once per A
// element while the kernels amortize it over n. `lda` (= k4) is the row
// stride inside a tile.
using S8MicroFn = void (*)(const std::uint8_t* ap, std::int64_t lda, const std::uint8_t* bp,
                           std::int64_t kg, const S8TileCtx& tile);

struct S8Kernel {
  S8MicroFn fn;
};

inline std::int32_t load_le_i32(const std::uint8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Offset removal + dequant + bias + activation for one micro-tile of wrapped
// accumulators. The uint32 -> int32 conversion is modular (C++20), so the
// result is the exact s8 x s8 accumulator whenever that fits int32. The fmaf
// keeps the dequant store single-rounded in every kernel build AND in the
// src/check reference regardless of -ffp-contract, so bit-equality between
// them is a property of the expression, not of compiler flags.
inline void s8_store_tile(const std::uint32_t acc[kMrS8][kNrS8], const S8TileCtx& t) {
  for (std::int64_t i = 0; i < t.mr; ++i) {
    if (t.ci32 != nullptr) {
      std::int32_t* out = t.ci32 + i * t.ldc;
      for (std::int64_t j = 0; j < t.nr; ++j) {
        out[j] = static_cast<std::int32_t>(acc[i][j] -
                                           static_cast<std::uint32_t>(t.colsum[j]) * 128U);
      }
      continue;
    }
    float* out = t.c + i * t.ldc;
    for (std::int64_t j = 0; j < t.nr; ++j) {
      const std::int32_t v = static_cast<std::int32_t>(
          acc[i][j] - static_cast<std::uint32_t>(t.colsum[j]) * 128U);
      float f = std::fmaf(static_cast<float>(v), t.scale[j],
                          t.bias != nullptr ? t.bias[j] : 0.0F);
      if (t.act == Epilogue::Act::kRelu) {
        f = f > 0.0F ? f : 0.0F;
      } else if (t.act == Epilogue::Act::kPRelu) {
        f = prelu_select(f, t.alpha[j]);
      }
      out[j] = f;
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)
// Vector write-back for full-width fp32 tiles (nr == 8, dequant path). Each
// lane computes exactly the scalar expression: vcvtdq2ps matches the scalar
// int->float cast (round-to-nearest), vfmadd matches the single-rounded fmaf,
// and-with-compare-mask matches `f > 0 ? f : 0` (false lanes become +0.0f,
// same as the scalar 0.0F arm, including for f = -0.0 and NaN), blendv
// matches the PReLU ternary. Partial tiles and the i32 audit path fall back
// to the scalar store.
__attribute__((target("avx2,fma"))) void s8_store_tile_avx2(
    const __m256i acc[kMrS8], const S8TileCtx& t) {
  const __m256i comp = _mm256_mullo_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t.colsum)), _mm256_set1_epi32(128));
  const __m256 scale = _mm256_loadu_ps(t.scale);
  const __m256 bias = t.bias != nullptr ? _mm256_loadu_ps(t.bias) : _mm256_setzero_ps();
  const __m256 zero = _mm256_setzero_ps();
  for (std::int64_t i = 0; i < t.mr; ++i) {
    const __m256 v = _mm256_cvtepi32_ps(_mm256_sub_epi32(acc[i], comp));
    __m256 f = _mm256_fmadd_ps(v, scale, bias);
    if (t.act == Epilogue::Act::kRelu) {
      f = _mm256_and_ps(f, _mm256_cmp_ps(f, zero, _CMP_GT_OQ));
    } else if (t.act == Epilogue::Act::kPRelu) {
      const __m256 neg = _mm256_mul_ps(_mm256_loadu_ps(t.alpha), f);
      f = _mm256_blendv_ps(neg, f, _mm256_cmp_ps(f, zero, _CMP_GT_OQ));
    }
    _mm256_storeu_ps(t.c + i * t.ldc, f);
  }
}

// Dispatches a vector-kernel tile store: vector write-back when the tile is
// full width on the fused float path, scalar otherwise.
__attribute__((target("avx2,fma"))) inline void s8_store_tile_vec(const __m256i vacc[kMrS8],
                                                                  const S8TileCtx& t) {
  if (t.nr == kNrS8 && t.ci32 == nullptr) {
    s8_store_tile_avx2(vacc, t);
    return;
  }
  alignas(32) std::uint32_t acc[kMrS8][kNrS8];
  for (std::int64_t i = 0; i < kMrS8; ++i) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc[i]), vacc[i]);
  }
  s8_store_tile(acc, t);
}
#endif  // x86

// Portable scalar kernel.
void s8_micro_generic(const std::uint8_t* ap, std::int64_t lda, const std::uint8_t* bp,
                      std::int64_t kg, const S8TileCtx& tile) {
  std::uint32_t acc[kMrS8][kNrS8] = {};
  for (std::int64_t g = 0; g < kg; ++g) {
    const std::uint8_t* b = bp + g * kNrS8 * 4;
    for (std::int64_t i = 0; i < kMrS8; ++i) {
      const std::uint8_t* a = ap + i * lda + g * 4;
      for (std::int64_t j = 0; j < kNrS8; ++j) {
        std::int32_t s = 0;
        for (int t = 0; t < 4; ++t) {
          s += static_cast<std::int32_t>(a[t]) *
               static_cast<std::int32_t>(static_cast<std::int8_t>(b[j * 4 + t]));
        }
        acc[i][j] += static_cast<std::uint32_t>(s);
      }
    }
  }
  s8_store_tile(acc, tile);
}

#if defined(__x86_64__) || defined(__i386__)

// AVX2 kernel. maddubs_epi16's intermediate s16 pair-sum saturates at
// 255*127*2 > 32767, so exactness forces the widening route instead: the
// B panel is split into even/odd k-positions as sign-extended s16 lanes
// (shift tricks, no extra tables), and each broadcast A dword (a0 a1 a2 a3)
// splits the same way in-register — mask the odd bytes for the (a0, a2) u16
// lanes, shift right 8 for (a1, a3). madd_epi16 then gives the exact int32
// pair-dot: u8 operands are 0..255 as s16, products <= 255*127 per lane,
// pair sums fit int32.
__attribute__((target("avx2,fma"))) void s8_micro_avx2(const std::uint8_t* ap, std::int64_t lda,
                                                   const std::uint8_t* bp, std::int64_t kg,
                                                   const S8TileCtx& tile) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  __m256i acc4 = _mm256_setzero_si256();
  __m256i acc5 = _mm256_setzero_si256();
  const __m256i lo_mask = _mm256_set1_epi16(0x00FF);
  for (std::int64_t g = 0; g < kg; ++g) {
    const __m256i braw = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + g * 32));
    const __m256i beven = _mm256_srai_epi16(_mm256_slli_epi16(braw, 8), 8);  // k-pos 0, 2
    const __m256i bodd = _mm256_srai_epi16(braw, 8);                         // k-pos 1, 3
    const std::uint8_t* a = ap + g * 4;
#define SESR_S8_ROW(accr, idx)                                                          \
  {                                                                                     \
    const __m256i araw = _mm256_set1_epi32(load_le_i32(a + (idx) * lda));               \
    const __m256i ae = _mm256_and_si256(araw, lo_mask);                                 \
    const __m256i ao = _mm256_srli_epi16(araw, 8);                                      \
    accr = _mm256_add_epi32(accr, _mm256_add_epi32(_mm256_madd_epi16(ae, beven),        \
                                                   _mm256_madd_epi16(ao, bodd)));       \
  }
    SESR_S8_ROW(acc0, 0)
    SESR_S8_ROW(acc1, 1)
    SESR_S8_ROW(acc2, 2)
    SESR_S8_ROW(acc3, 3)
    SESR_S8_ROW(acc4, 4)
    SESR_S8_ROW(acc5, 5)
#undef SESR_S8_ROW
  }
  const __m256i acc[kMrS8] = {acc0, acc1, acc2, acc3, acc4, acc5};
  s8_store_tile_vec(acc, tile);
}

#if SESR_INT8_VNNI
// AVX-VNNI kernel: one dpbusd per (row, 4-k group) replaces the broadcast +
// 2x madd + 2x add sequence. VPDPBUSD wraps (no saturation; that is the
// VPDPBUSDS variant), so it is exact under the same modular contract.
__attribute__((target("avx2,fma,avxvnni"))) void s8_micro_vnni(const std::uint8_t* ap,
                                                           std::int64_t lda,
                                                           const std::uint8_t* bp,
                                                           std::int64_t kg,
                                                           const S8TileCtx& tile) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  __m256i acc4 = _mm256_setzero_si256();
  __m256i acc5 = _mm256_setzero_si256();
  for (std::int64_t g = 0; g < kg; ++g) {
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + g * 32));
    const std::uint8_t* a = ap + g * 4;
    acc0 = _mm256_dpbusd_avx_epi32(acc0, _mm256_set1_epi32(load_le_i32(a + 0 * lda)), b);
    acc1 = _mm256_dpbusd_avx_epi32(acc1, _mm256_set1_epi32(load_le_i32(a + 1 * lda)), b);
    acc2 = _mm256_dpbusd_avx_epi32(acc2, _mm256_set1_epi32(load_le_i32(a + 2 * lda)), b);
    acc3 = _mm256_dpbusd_avx_epi32(acc3, _mm256_set1_epi32(load_le_i32(a + 3 * lda)), b);
    acc4 = _mm256_dpbusd_avx_epi32(acc4, _mm256_set1_epi32(load_le_i32(a + 4 * lda)), b);
    acc5 = _mm256_dpbusd_avx_epi32(acc5, _mm256_set1_epi32(load_le_i32(a + 5 * lda)), b);
  }
  const __m256i acc[kMrS8] = {acc0, acc1, acc2, acc3, acc4, acc5};
  s8_store_tile_vec(acc, tile);
}
#endif  // SESR_INT8_VNNI

// AVX-VNNI (VEX) is CPUID.(EAX=7, ECX=1):EAX[4]. Raw cpuid instead of
// __builtin_cpu_supports("avxvnni") because older clang rejects the feature
// string at compile time; AVX2 support (checked separately) implies the OS
// ymm-state support the instruction needs.
bool cpu_has_avxvnni() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (eax & (1U << 4)) != 0;
}
#endif  // x86

bool int8_simd_disabled() {
  static const bool disabled = [] {
    const char* env = std::getenv("SESR_DISABLE_INT8_SIMD");
    return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  }();
  return disabled;
}

constexpr S8Kernel kKernelGeneric{s8_micro_generic};
#if defined(__x86_64__) || defined(__i386__)
constexpr S8Kernel kKernelAvx2{s8_micro_avx2};
#if SESR_INT8_VNNI
constexpr S8Kernel kKernelVnni{s8_micro_vnni};
#endif
#endif

const S8Kernel* pick_s8_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  if (!int8_simd_disabled() && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
#if SESR_INT8_VNNI
    if (cpu_has_avxvnni()) return &kKernelVnni;
#endif
    return &kKernelAvx2;
  }
#endif
  return &kKernelGeneric;
}

// Atomic for the same reason as g_micro_kernel in gemm.cpp: the audit flips
// the dispatch between sweeps while pool workers may be reading it.
std::atomic<const S8Kernel*> g_s8_kernel{pick_s8_kernel()};

// Packs B columns [0, n) into ceil(n/8) panels of kg groups; each group holds
// 8 columns x 4 consecutive k values (the dot-4 unit every kernel consumes).
// Out-of-range k and columns pad with 0, which keeps both the accumulator and
// the column sums unchanged.
void pack_b_s8(const std::int8_t* b, std::int64_t k, std::int64_t n, std::int64_t kg,
               std::uint8_t* bp) {
  for (std::int64_t jt = 0; jt * kNrS8 < n; ++jt) {
    std::uint8_t* panel = bp + jt * kg * kNrS8 * 4;
    for (std::int64_t g = 0; g < kg; ++g) {
      for (std::int64_t j = 0; j < kNrS8; ++j) {
        const std::int64_t col = jt * kNrS8 + j;
        std::uint8_t* dst = panel + g * kNrS8 * 4 + j * 4;
        for (std::int64_t t = 0; t < 4; ++t) {
          const std::int64_t kk = g * 4 + t;
          dst[t] = (col < n && kk < k) ? static_cast<std::uint8_t>(b[kk * n + col])
                                       : static_cast<std::uint8_t>(0);
        }
      }
    }
  }
}

// Packs rows [i0, i0 + mc) generated by `src` into row-major 6-row tiles:
// tile row i occupies bytes [i * k4, i * k4 + k4). The row source writes
// straight into its destination row — packing costs exactly one pass over
// the A bytes. Padding (k tail, missing tile rows) is 128 — quantized zero —
// and only ever multiplies zero B padding, so any value would do; 128 keeps
// panels deterministic.
void pack_a_s8(S8RowSource src, const void* ctx, std::int64_t i0, std::int64_t mc,
               std::int64_t k, std::int64_t kg, std::uint8_t* ap) {
  const std::int64_t k4 = kg * 4;
  for (std::int64_t ii = 0; ii < mc; ii += kMrS8) {
    std::uint8_t* tile = ap + (ii / kMrS8) * kMrS8 * k4;
    for (std::int64_t i = 0; i < kMrS8; ++i) {
      std::uint8_t* row = tile + i * k4;
      if (ii + i < mc) {
        src(ctx, i0 + ii + i, 0, k, row);
        std::memset(row + k, 128, static_cast<std::size_t>(k4 - k));
      } else {
        std::memset(row, 128, static_cast<std::size_t>(k4));
      }
    }
  }
}

// Macro-kernel: packs all of B once (int8 weight panels are k*n bytes — L2
// resident for every SESR conv), then walks kMcS8-row A blocks; the inner
// tile loop keeps one B panel hot across all row tiles.
void gemm_s8_driver(S8RowSource src, const void* ctx, const std::int8_t* b,
                    const std::int32_t* colsum, float* c, std::int32_t* ci32, std::int64_t m,
                    std::int64_t k, std::int64_t n, const S8Epilogue* epi) {
  if (m <= 0 || n <= 0) return;
  const S8Kernel& kern = *g_s8_kernel.load(std::memory_order_relaxed);
  const std::int64_t kg = (k + 3) / 4;
  const std::int64_t n_tiles = (n + kNrS8 - 1) / kNrS8;
  const std::int64_t b_panel = kg * kNrS8 * 4;
  const std::int64_t k4 = kg * 4;
  const std::int64_t a_panel = kMrS8 * k4;
  std::span<std::uint8_t> bp =
      scratch_bytes(ScratchSlot::kS8PackB, static_cast<std::size_t>(n_tiles * b_panel));
  pack_b_s8(b, k, n, kg, bp.data());
  for (std::int64_t i0 = 0; i0 < m; i0 += kMcS8) {
    const std::int64_t mc = std::min(kMcS8, m - i0);
    const std::int64_t m_tiles = (mc + kMrS8 - 1) / kMrS8;
    std::span<std::uint8_t> ap =
        scratch_bytes(ScratchSlot::kS8PackA, static_cast<std::size_t>(m_tiles * a_panel));
    pack_a_s8(src, ctx, i0, mc, k, kg, ap.data());
    for (std::int64_t jt = 0; jt < n_tiles; ++jt) {
      const std::int64_t j0 = jt * kNrS8;
      for (std::int64_t it = 0; it < m_tiles; ++it) {
        const std::int64_t ii = it * kMrS8;
        S8TileCtx tile;
        tile.colsum = colsum + j0;
        tile.ldc = n;
        tile.mr = std::min(kMrS8, mc - ii);
        tile.nr = std::min(kNrS8, n - j0);
        if (ci32 != nullptr) {
          tile.ci32 = ci32 + (i0 + ii) * n + j0;
        } else {
          tile.c = c + (i0 + ii) * n + j0;
          tile.scale = epi->scale + j0;
          tile.bias = epi->bias != nullptr ? epi->bias + j0 : nullptr;
          tile.act = epi->act;
          tile.alpha = epi->prelu_alpha != nullptr ? epi->prelu_alpha + j0 : nullptr;
        }
        kern.fn(ap.data() + it * a_panel, k4, bp.data() + jt * b_panel, kg, tile);
      }
    }
  }
}

struct ContigS8 {
  const std::uint8_t* a;
  std::int64_t k;
};

void contig_s8_row(const void* ctx, std::int64_t row, std::int64_t p0, std::int64_t kc,
                   std::uint8_t* dst) {
  const auto* src = static_cast<const ContigS8*>(ctx);
  std::memcpy(dst, src->a + row * src->k + p0, static_cast<std::size_t>(kc));
}

void check_s8_sizes(std::size_t a_size, std::span<const std::int8_t> b,
                    std::span<const std::int32_t> colsum, std::size_t c_size, std::int64_t m,
                    std::int64_t k, std::int64_t n, bool has_a) {
  if (m < 0 || k < 0 || n < 0) throw std::invalid_argument("gemm_s8: negative dimension");
  if (has_a && a_size < static_cast<std::size_t>(m * k)) {
    throw std::invalid_argument("gemm_s8: A span too small");
  }
  if (b.size() < static_cast<std::size_t>(k * n)) {
    throw std::invalid_argument("gemm_s8: B span too small");
  }
  if (colsum.size() < static_cast<std::size_t>(n)) {
    throw std::invalid_argument("gemm_s8: colsum span too small");
  }
  if (c_size < static_cast<std::size_t>(m * n)) {
    throw std::invalid_argument("gemm_s8: C span too small");
  }
}

void check_s8_epilogue(const S8Epilogue& epi) {
  if (epi.scale == nullptr) throw std::invalid_argument("gemm_s8: epilogue.scale is required");
  if (epi.act == Epilogue::Act::kPRelu && epi.prelu_alpha == nullptr) {
    throw std::invalid_argument("gemm_s8: PReLU epilogue requires prelu_alpha");
  }
}

void quantize_u8_scalar(const float* src, std::uint8_t* dst, std::int64_t n, float inv) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(static_cast<std::int32_t>(quantize_value(src[i], inv)) +
                                       128);
  }
}

#if defined(__x86_64__) || defined(__i386__)
// Vectorized quantize_value + 128. Exactness is an expression-level mirror of
// the scalar form: clamp to [-127, 127] first, add copysign(0.5, r) (equal to
// the r >= 0 ternary for every non-NaN input including -0.0, where both sides
// round to 0), then truncate — cvttps is the C cast. Values land in [1, 255],
// so the signed i32->i16 and unsigned i16->u8 packs never saturate; the final
// 32-bit permute undoes the packs' 128-bit lane interleave.
__attribute__((target("avx2"))) void quantize_u8_avx2(const float* src, std::uint8_t* dst,
                                                      std::int64_t n, float inv) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vmax = _mm256_set1_ps(127.0F);
  const __m256 vmin = _mm256_set1_ps(-127.0F);
  const __m256 vhalf = _mm256_set1_ps(0.5F);
  const __m256 vsign = _mm256_set1_ps(-0.0F);
  const __m256i v128 = _mm256_set1_epi32(128);
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i q[4];
    for (int t = 0; t < 4; ++t) {
      __m256 r = _mm256_mul_ps(_mm256_loadu_ps(src + i + t * 8), vinv);
      r = _mm256_max_ps(_mm256_min_ps(r, vmax), vmin);
      const __m256 half = _mm256_or_ps(_mm256_and_ps(r, vsign), vhalf);
      q[t] = _mm256_add_epi32(_mm256_cvttps_epi32(_mm256_add_ps(r, half)), v128);
    }
    const __m256i p01 = _mm256_packs_epi32(q[0], q[1]);
    const __m256i p23 = _mm256_packs_epi32(q[2], q[3]);
    const __m256i packed = _mm256_permutevar8x32_epi32(_mm256_packus_epi16(p01, p23), perm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), packed);
  }
  quantize_u8_scalar(src + i, dst + i, n - i, inv);
}
#endif  // x86

}  // namespace

void quantize_u8_run(const float* src, std::uint8_t* dst, std::int64_t n, float inv_scale) {
#if defined(__x86_64__) || defined(__i386__)
  static const bool use_avx2 = !int8_simd_disabled() && __builtin_cpu_supports("avx2");
  if (use_avx2) {
    quantize_u8_avx2(src, dst, n, inv_scale);
    return;
  }
#endif
  quantize_u8_scalar(src, dst, n, inv_scale);
}

std::vector<std::int32_t> s8_column_sums(std::span<const std::int8_t> b, std::int64_t k,
                                         std::int64_t n) {
  if (b.size() < static_cast<std::size_t>(k * n)) {
    throw std::invalid_argument("s8_column_sums: B span too small");
  }
  std::vector<std::int32_t> sums(static_cast<std::size_t>(n), 0);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const std::int8_t* row = b.data() + kk * n;
    for (std::int64_t j = 0; j < n; ++j) sums[static_cast<std::size_t>(j)] += row[j];
  }
  return sums;
}

bool gemm_s8_avx2_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return !int8_simd_disabled() && __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool gemm_s8_vnni_supported() {
#if (defined(__x86_64__) || defined(__i386__)) && SESR_INT8_VNNI
  return !int8_simd_disabled() && __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("fma") && cpu_has_avxvnni();
#else
  return false;
#endif
}

bool set_gemm_s8_isa(GemmS8Isa isa) {
  switch (isa) {
    case GemmS8Isa::kAuto:
      g_s8_kernel.store(pick_s8_kernel(), std::memory_order_relaxed);
      return true;
    case GemmS8Isa::kGeneric:
      g_s8_kernel.store(&kKernelGeneric, std::memory_order_relaxed);
      return true;
    case GemmS8Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      if (gemm_s8_avx2_supported()) {
        g_s8_kernel.store(&kKernelAvx2, std::memory_order_relaxed);
        return true;
      }
#endif
      return false;
    case GemmS8Isa::kVnni:
#if (defined(__x86_64__) || defined(__i386__)) && SESR_INT8_VNNI
      if (gemm_s8_vnni_supported()) {
        g_s8_kernel.store(&kKernelVnni, std::memory_order_relaxed);
        return true;
      }
#endif
      return false;
  }
  return false;
}

void gemm_s8_rows(S8RowSource src, const void* ctx, std::span<const std::int8_t> b,
                  std::span<const std::int32_t> colsum, std::span<float> c, std::int64_t m,
                  std::int64_t k, std::int64_t n, const S8Epilogue& epilogue) {
  check_s8_sizes(0, b, colsum, c.size(), m, k, n, /*has_a=*/false);
  check_s8_epilogue(epilogue);
  gemm_s8_driver(src, ctx, b.data(), colsum.data(), c.data(), nullptr, m, k, n, &epilogue);
}

void gemm_s8(std::span<const std::uint8_t> a, std::span<const std::int8_t> b,
             std::span<const std::int32_t> colsum, std::span<float> c, std::int64_t m,
             std::int64_t k, std::int64_t n, const S8Epilogue& epilogue) {
  check_s8_sizes(a.size(), b, colsum, c.size(), m, k, n, /*has_a=*/true);
  check_s8_epilogue(epilogue);
  const ContigS8 src{a.data(), k};
  gemm_s8_driver(contig_s8_row, &src, b.data(), colsum.data(), c.data(), nullptr, m, k, n,
                 &epilogue);
}

void gemm_s8_i32(std::span<const std::uint8_t> a, std::span<const std::int8_t> b,
                 std::span<const std::int32_t> colsum, std::span<std::int32_t> c, std::int64_t m,
                 std::int64_t k, std::int64_t n) {
  check_s8_sizes(a.size(), b, colsum, c.size(), m, k, n, /*has_a=*/true);
  const ContigS8 src{a.data(), k};
  gemm_s8_driver(contig_s8_row, &src, b.data(), colsum.data(), nullptr, c.data(), m, k, n,
                 nullptr);
}

}  // namespace sesr::nn
