#include "nn/conv_direct.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "tensor/fp16.hpp"
#include "tensor/scratch.hpp"
#include "tensor/thread_pool.hpp"

namespace sesr::nn {

namespace {

constexpr std::int64_t kWideMr = 6;     // output pixels per wide tile (the GEMM's kMr)
constexpr std::int64_t kWideNr = 16;    // output channels per wide tile (the GEMM's kNr)
constexpr std::int64_t kNarrowMr = 16;  // output pixels per narrow tile (2 vectors of 8)
constexpr std::int64_t kNarrowNr = 4;   // output channels per narrow tile

// Output pixels per stripe, rounded up to whole output rows. Fixed by the
// shape, never by the worker count. No sum crosses a stripe, so the partition
// does not touch the bits; it bounds the staging buffer (a few hundred KiB at
// SESR widths, L2-resident) and gives N=1 frames their intra-image parallelism.
constexpr std::int64_t kStripePixels = 2048;

// How one k-block of a tile lands in C (see gemm_tiled).
struct BlockStore {
  bool first;          // store acc (+ bias) rather than add acc to C
  bool last;           // apply the activation to the finished sum
  const float* bias;   // at the tile's first column, or null
  Epilogue::Act act;
  const float* alpha;  // PReLU slopes at the tile's first column
};

// Turns n block sums `v` of one output row into the values to store: the
// first block adds the bias, later blocks add the partial already in C, and
// the last block applies the activation — the GEMM's expressions, so the bits
// match.
__attribute__((always_inline)) inline void finish_row(float* v, const float* crow, std::int64_t n,
                                                      const BlockStore& s) {
  if (!s.first) {
#pragma omp simd
    for (std::int64_t j = 0; j < n; ++j) v[j] = crow[j] + v[j];
  } else if (s.bias != nullptr) {
#pragma omp simd
    for (std::int64_t j = 0; j < n; ++j) v[j] = v[j] + s.bias[j];
  }
  if (!s.last) return;
  if (s.act == Epilogue::Act::kRelu) {
#pragma omp simd
    for (std::int64_t j = 0; j < n; ++j) v[j] = v[j] > 0.0F ? v[j] : 0.0F;
  } else if (s.act == Epilogue::Act::kPRelu) {
#pragma omp simd
    for (std::int64_t j = 0; j < n; ++j) v[j] = prelu_select(v[j], s.alpha[j]);
  }
}

// Wide tile: 6 pixels x 16 channels over kc k-steps. Pixel i's A value at k
// step p is a[i][off[p]]; B row p is b + p * ldb. As in the GEMM, full and
// edge tiles are separate instantiations: the full one indexes acc only with
// compile-time constants, which keeps it in registers through the k loop.
template <bool kFull>
__attribute__((always_inline)) inline void wide_tile(const float* const* a,
                                                     const std::int64_t* off, std::int64_t kc,
                                                     const float* b, std::int64_t ldb, float* c,
                                                     std::int64_t ldc, std::int64_t mr,
                                                     std::int64_t nr, const BlockStore& s) {
  float acc[kWideMr][kWideNr] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const std::int64_t o = off[p];
    const float* brow = b + p * ldb;
    for (std::int64_t i = 0; i < kWideMr; ++i) {
      const float av = a[i][o];
#pragma omp simd
      for (std::int64_t j = 0; j < kWideNr; ++j) acc[i][j] += av * brow[j];
    }
  }
  const std::int64_t rows = kFull ? kWideMr : mr;
  const std::int64_t cols = kFull ? kWideNr : nr;
  for (std::int64_t i = 0; i < rows; ++i) {
    float* crow = c + i * ldc;
    finish_row(acc[i], crow, cols, s);
#pragma omp simd
    for (std::int64_t j = 0; j < cols; ++j) crow[j] = acc[i][j];
  }
}

// Narrow tile: 16 consecutive pixels of one row on the vector lanes x 4
// channels. Pixel i's A value at k step p is a[off[p] + i]; B is a zero-padded
// [kc][4] panel. The eight accumulators are named vector values: written as
// omp-simd loops over a [4][16] array, GCC keeps them in memory through the k
// loop (or scalarizes it). `acc += a * b` contracts to an FMA exactly where
// the GEMM's does (the avx2,fma build), so the per-lane sums match it.
using Lanes = float __attribute__((vector_size(8 * sizeof(float))));
constexpr std::int64_t kLanes = 8;

__attribute__((always_inline)) inline void load_lanes(Lanes& v, const float* p) {
  std::memcpy(&v, p, sizeof(v));
}

__attribute__((always_inline)) inline void narrow_tile(const float* a, const std::int64_t* off,
                                                       std::int64_t kc, const float* b, float* c,
                                                       std::int64_t ldc, std::int64_t mr,
                                                       std::int64_t nr, const BlockStore& s) {
  Lanes lo0{}, lo1{}, lo2{}, lo3{}, hi0{}, hi1{}, hi2{}, hi3{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* arow = a + off[p];
    Lanes alo;
    Lanes ahi;
    load_lanes(alo, arow);
    load_lanes(ahi, arow + kLanes);
    const float* brow = b + p * kNarrowNr;
    lo0 += alo * brow[0];
    hi0 += ahi * brow[0];
    lo1 += alo * brow[1];
    hi1 += ahi * brow[1];
    lo2 += alo * brow[2];
    hi2 += ahi * brow[2];
    lo3 += alo * brow[3];
    hi3 += ahi * brow[3];
  }
  // Channel-major sums, then pixel-major stores.
  const Lanes sums[kNarrowNr][2] = {{lo0, hi0}, {lo1, hi1}, {lo2, hi2}, {lo3, hi3}};
  float t[kNarrowNr][kNarrowMr];
  std::memcpy(t, sums, sizeof(t));
  for (std::int64_t i = 0; i < mr; ++i) {
    float v[kNarrowNr];
    for (std::int64_t j = 0; j < kNarrowNr; ++j) v[j] = t[j][i];
    float* crow = c + i * ldc;
    finish_row(v, crow, nr, s);
    for (std::int64_t j = 0; j < nr; ++j) crow[j] = v[j];
  }
}

// One stripe of whole output rows, staged and ready.
struct Stripe {
  const float* stage;        // zero-padded input rows (layout per tile kind)
  std::int64_t row_pitch;    // floats between staged rows
  std::int64_t pixel_pitch;  // floats between staged pixels (wide: cin; narrow: 1)
  const std::int64_t* off;   // k -> offset of A(k) from a pixel's staged base
  std::int64_t k;
  const float* weight;       // B = HWIO weight, [k][out_c] row-major
  const float* panel;        // zero-padded B columns not read in place
  std::int64_t out_c;
  std::int64_t out_w;
  std::int64_t rows;
  const float* bias;
  const Epilogue* epi;
  float* out;                // the stripe's first output pixel
};

BlockStore block_store(const Stripe& s, std::int64_t p0, std::int64_t j0) {
  const bool has_act = s.epi != nullptr;
  return {p0 == 0, p0 + kGemmKc >= s.k, s.bias != nullptr ? s.bias + j0 : nullptr,
          has_act ? s.epi->act : Epilogue::Act::kNone,
          has_act && s.epi->prelu_alpha != nullptr ? s.epi->prelu_alpha + j0 : nullptr};
}

// Tiles run over the stripe's pixels in flat order, wrapping across output
// rows, so only the stripe's last tile is partial; its spare lanes re-read the
// last real pixel and are never stored.
__attribute__((always_inline)) inline void wide_stripe(const Stripe& s) {
  const std::int64_t pixels = s.rows * s.out_w;
  std::int64_t ly = 0;
  std::int64_t lx = 0;
  for (std::int64_t pix0 = 0; pix0 < pixels; pix0 += kWideMr) {
    const std::int64_t mr = std::min(kWideMr, pixels - pix0);
    const float* a[kWideMr];
    std::int64_t y = ly;
    std::int64_t x = lx;
    for (std::int64_t i = 0; i < kWideMr; ++i) {
      a[i] = s.stage + y * s.row_pitch + x * s.pixel_pitch;
      if (i + 1 < mr && ++x == s.out_w) {
        x = 0;
        ++y;
      }
    }
    for (lx += kWideMr; lx >= s.out_w; lx -= s.out_w) ++ly;
    float* c = s.out + pix0 * s.out_c;
    for (std::int64_t j0 = 0; j0 < s.out_c; j0 += kWideNr) {
      const std::int64_t nr = std::min(kWideNr, s.out_c - j0);
      const float* b = nr == kWideNr ? s.weight + j0 : s.panel;
      const std::int64_t ldb = nr == kWideNr ? s.out_c : kWideNr;
      for (std::int64_t p0 = 0; p0 < s.k; p0 += kGemmKc) {
        const std::int64_t kc = std::min(kGemmKc, s.k - p0);
        const BlockStore store = block_store(s, p0, j0);
        if (mr == kWideMr && nr == kWideNr) {
          wide_tile<true>(a, s.off + p0, kc, b + p0 * ldb, ldb, c + j0, s.out_c, mr, nr, store);
        } else {
          wide_tile<false>(a, s.off + p0, kc, b + p0 * ldb, ldb, c + j0, s.out_c, mr, nr, store);
        }
      }
    }
  }
}

// Narrow tiles never wrap: 16 pixels are one contiguous load per k step only
// within a staged row. A partial tile at a row's end computes spare lanes from
// whatever follows in the staging (the next row or the plane's zeroed slack)
// and never stores them.
__attribute__((always_inline)) inline void narrow_stripe(const Stripe& s) {
  for (std::int64_t ly = 0; ly < s.rows; ++ly) {
    for (std::int64_t x0 = 0; x0 < s.out_w; x0 += kNarrowMr) {
      const std::int64_t mr = std::min(kNarrowMr, s.out_w - x0);
      const float* a = s.stage + ly * s.row_pitch + x0;
      float* c = s.out + (ly * s.out_w + x0) * s.out_c;
      for (std::int64_t p0 = 0; p0 < s.k; p0 += kGemmKc) {
        narrow_tile(a, s.off + p0, std::min(kGemmKc, s.k - p0), s.panel + p0 * kNarrowNr, c,
                    s.out_c, mr, s.out_c, block_store(s, p0, 0));
      }
    }
  }
}

using StripeFn = void (*)(const Stripe&);

void wide_stripe_generic(const Stripe& s) { wide_stripe(s); }
void narrow_stripe_generic(const Stripe& s) { narrow_stripe(s); }

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2,fma"))) void wide_stripe_avx2(const Stripe& s) { wide_stripe(s); }
__attribute__((target("avx2,fma"))) void narrow_stripe_avx2(const Stripe& s) {
  narrow_stripe(s);
}
#endif

StripeFn pick_stripe_fn(bool narrow) {
#if defined(__x86_64__) || defined(__i386__)
  if (active_gemm_isa() == GemmIsa::kAvx2) return narrow ? narrow_stripe_avx2 : wide_stripe_avx2;
#endif
  return narrow ? narrow_stripe_generic : wide_stripe_generic;
}

// n input values as fp32: a copy, or the exact widening of binary16.
inline void widen(const float* src, float* dst, std::int64_t n) {
  std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(float));
}
inline void widen(const fp16::Half* src, float* dst, std::int64_t n) {
  fp16::convert_to_float(src, dst, n);
}

// An input row as fp32: the row itself, or its binary16 values widened into
// `buf` (n floats).
inline const float* fp32_row(const float* row, std::int64_t /*n*/, float* /*buf*/) { return row; }
inline const float* fp32_row(const fp16::Half* row, std::int64_t n, float* buf) {
  widen(row, buf, n);
  return buf;
}

// Staging: staged row sy holds input row y0 - pad_top + sy (all zeros when
// that row lies in the padding) as wp = in_w + kw - 1 pixels: pad_left zero
// pixels, the row, then zeros. The NHWC stage keeps pixels interleaved
// (wide tile); the planar stage gives each channel its own plane of `plane`
// floats, slack zeroed (narrow tile). Binary16 rows are widened as they are
// staged, so no fp32 copy of the whole input ever exists.
template <typename In>
void stage_rows_nhwc(const In* image, const ConvGeometry& g, std::int64_t y0,
                     std::int64_t staged_rows, float* dst) {
  const std::int64_t cin = g.channels;
  const std::int64_t pitch = (g.in_w + g.kw - 1) * cin;
  const std::int64_t left = g.pad_left * cin;
  const std::int64_t len = g.in_w * cin;
  for (std::int64_t sy = 0; sy < staged_rows; ++sy) {
    const std::int64_t iy = y0 - g.pad_top + sy;
    float* row = dst + sy * pitch;
    if (iy < 0 || iy >= g.in_h) {
      std::fill(row, row + pitch, 0.0F);
      continue;
    }
    std::fill(row, row + left, 0.0F);
    widen(image + iy * len, row + left, len);
    std::fill(row + left + len, row + pitch, 0.0F);
  }
}

// 4 pixels x 4 channels -> 4 channels x 4 pixels, in registers.
using Quad = float __attribute__((vector_size(4 * sizeof(float))));

inline void transpose4(Quad (&q)[4]) {
  const Quad lo01 = __builtin_shufflevector(q[0], q[1], 0, 4, 1, 5);
  const Quad lo23 = __builtin_shufflevector(q[2], q[3], 0, 4, 1, 5);
  const Quad hi01 = __builtin_shufflevector(q[0], q[1], 2, 6, 3, 7);
  const Quad hi23 = __builtin_shufflevector(q[2], q[3], 2, 6, 3, 7);
  q[0] = __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5);
  q[1] = __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7);
  q[2] = __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5);
  q[3] = __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7);
}

// `rowbuf` holds one widened binary16 input row (in_w * channels floats).
template <typename In>
void stage_rows_planar(const In* image, const ConvGeometry& g, std::int64_t y0,
                       std::int64_t staged_rows, std::int64_t plane, float* rowbuf, float* dst) {
  const std::int64_t cin = g.channels;
  const std::int64_t wp = g.in_w + g.kw - 1;
  for (std::int64_t sy = 0; sy < staged_rows; ++sy) {
    const std::int64_t iy = y0 - g.pad_top + sy;
    const bool inside = iy >= 0 && iy < g.in_h;
    for (std::int64_t c = 0; c < cin; ++c) {
      float* row = dst + c * plane + sy * wp;
      if (!inside) {
        std::fill(row, row + wp, 0.0F);
        continue;
      }
      std::fill(row, row + g.pad_left, 0.0F);
      std::fill(row + g.pad_left + g.in_w, row + wp, 0.0F);
    }
    if (!inside) continue;
    // The NHWC row is read once, 4 pixels x 4 channels at a time, and each
    // block is transposed in registers into 4 channel planes.
    const float* src = fp32_row(image + iy * g.in_w * cin, g.in_w * cin, rowbuf);
    float* base = dst + sy * wp + g.pad_left;
    const std::int64_t x4 = g.in_w / 4 * 4;
    const std::int64_t c4 = cin / 4 * 4;
    for (std::int64_t x = 0; x < x4; x += 4) {
      for (std::int64_t c = 0; c < c4; c += 4) {
        Quad q[4];
        for (std::int64_t i = 0; i < 4; ++i) {
          std::memcpy(&q[i], src + (x + i) * cin + c, sizeof(Quad));
        }
        transpose4(q);
        for (std::int64_t i = 0; i < 4; ++i) {
          std::memcpy(base + (c + i) * plane + x, &q[i], sizeof(Quad));
        }
      }
      for (std::int64_t c = c4; c < cin; ++c) {
        for (std::int64_t i = 0; i < 4; ++i) base[c * plane + x + i] = src[(x + i) * cin + c];
      }
    }
    for (std::int64_t x = x4; x < g.in_w; ++x) {
      for (std::int64_t c = 0; c < cin; ++c) base[c * plane + x] = src[x * cin + c];
    }
  }
  for (std::int64_t c = 0; c < cin; ++c) {
    std::fill(dst + c * plane + staged_rows * wp, dst + (c + 1) * plane, 0.0F);
  }
}

// Exactly one of `out` / `out_half` is non-null. Half outputs land in an fp32
// stripe buffer and are rounded to binary16 once, after the stripe's last
// k-block.
template <typename In>
void conv2d_direct_impl(const In* input, std::int64_t batch, const ConvGeometry& g,
                        const float* weight, std::int64_t out_c, const float* bias,
                        const Epilogue* epi, float* out, fp16::Half* out_half) {
  if (epi != nullptr && epi->act == Epilogue::Act::kPRelu && epi->prelu_alpha == nullptr) {
    throw std::invalid_argument("conv2d_direct: kPRelu requires prelu_alpha");
  }
  const std::int64_t k = g.cols();
  const std::int64_t cin = g.channels;
  const bool narrow = out_c <= kNarrowNr;
  const std::int64_t wp = g.in_w + g.kw - 1;
  const std::int64_t stripe_rows =
      std::min(g.out_h, (kStripePixels + g.out_w - 1) / g.out_w);
  const std::int64_t stripes = (g.out_h + stripe_rows - 1) / stripe_rows;
  const std::int64_t staged_rows_max = stripe_rows + g.kh - 1;
  // Narrow planes carry kNarrowMr floats of slack so a row-end tile's spare
  // lanes stay inside the buffer.
  const std::int64_t plane = staged_rows_max * wp + kNarrowMr;
  const std::int64_t stage_floats = narrow ? cin * plane : staged_rows_max * wp * cin;
  const std::int64_t panel_cols = narrow ? kNarrowNr : (out_c % kWideNr != 0 ? kWideNr : 0);
  const std::int64_t panel_j0 = narrow ? 0 : out_c / kWideNr * kWideNr;
  // Per-stripe buffer: staging, weight panel, then (binary16 only) the planar
  // stage's widened input row and the fp32 output stripe.
  const std::int64_t panel_floats = k * panel_cols;
  const std::int64_t row_floats =
      std::is_same_v<In, fp16::Half> && narrow ? g.in_w * cin : 0;
  const std::int64_t stripe_out = stripe_rows * g.out_w * out_c;
  const std::int64_t buf_floats =
      stage_floats + panel_floats + row_floats + (out_half != nullptr ? stripe_out : 0);

  // k -> offset of A(k) from a pixel's staged base, k = (ky * kw + kx) * cin + c
  // as in im2col. Built once per call by the calling thread; the stripes only
  // read it. Grow-only like the scratch arena (K entries, a few KiB), so
  // steady-state calls allocate nothing.
  thread_local std::vector<std::int64_t> offsets;
  if (offsets.size() < static_cast<std::size_t>(k)) offsets.resize(static_cast<std::size_t>(k));
  std::int64_t* off = offsets.data();
  for (std::int64_t ky = 0; ky < g.kh; ++ky) {
    for (std::int64_t kx = 0; kx < g.kw; ++kx) {
      for (std::int64_t c = 0; c < cin; ++c) {
        off[(ky * g.kw + kx) * cin + c] =
            narrow ? c * plane + ky * wp + kx : (ky * wp + kx) * cin + c;
      }
    }
  }

  const StripeFn run = pick_stripe_fn(narrow);
  const Shape in_shape(batch, g.in_h, g.in_w, cin);
  ThreadPool::global().parallel_for(0, batch * stripes, [&](std::int64_t idx) {
    const std::int64_t n = idx / stripes;
    const std::int64_t y0 = (idx % stripes) * stripe_rows;
    const std::int64_t rows = std::min(stripe_rows, g.out_h - y0);
    float* buf =
        scratch_floats(ScratchSlot::kConvStage, static_cast<std::size_t>(buf_floats)).data();
    float* panel = buf + stage_floats;
    float* rowbuf = panel + panel_floats;
    const In* image = input + in_shape.offset(n, 0, 0, 0);
    if (narrow) {
      stage_rows_planar(image, g, y0, rows + g.kh - 1, plane, rowbuf, buf);
    } else {
      stage_rows_nhwc(image, g, y0, rows + g.kh - 1, buf);
    }
    for (std::int64_t p = 0; p < k; ++p) {
      for (std::int64_t j = 0; j < panel_cols; ++j) {
        panel[p * panel_cols + j] =
            panel_j0 + j < out_c ? weight[p * out_c + panel_j0 + j] : 0.0F;
      }
    }
    const std::int64_t out_off = (n * g.rows() + y0 * g.out_w) * out_c;
    Stripe s;
    s.stage = buf;
    s.row_pitch = narrow ? wp : wp * cin;
    s.pixel_pitch = narrow ? 1 : cin;
    s.off = off;
    s.k = k;
    s.weight = weight;
    s.panel = panel;
    s.out_c = out_c;
    s.out_w = g.out_w;
    s.rows = rows;
    s.bias = bias;
    s.epi = epi;
    s.out = out_half != nullptr ? rowbuf + row_floats : out + out_off;
    run(s);
    if (out_half != nullptr) {
      fp16::convert_to_half(s.out, out_half + out_off, rows * g.out_w * out_c);
    }
  });
}

}  // namespace

void conv2d_direct(const float* input, std::int64_t batch, const ConvGeometry& g,
                   const float* weight, std::int64_t out_c, const float* bias, const Epilogue* epi,
                   float* out) {
  conv2d_direct_impl(input, batch, g, weight, out_c, bias, epi, out, nullptr);
}

void conv2d_direct(const fp16::Half* input, std::int64_t batch, const ConvGeometry& g,
                   const float* weight, std::int64_t out_c, const float* bias, const Epilogue* epi,
                   float* out, fp16::Half* out_half) {
  if ((out == nullptr) == (out_half == nullptr)) {
    throw std::invalid_argument("conv2d_direct: exactly one output must be given");
  }
  conv2d_direct_impl(input, batch, g, weight, out_c, bias, epi, out, out_half);
}

}  // namespace sesr::nn
