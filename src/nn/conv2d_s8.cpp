#include "nn/conv2d_s8.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/scratch.hpp"
#include "tensor/thread_pool.hpp"

namespace sesr::nn {

namespace {

// Offset-binary zero point: quantized 0 stored as u8 (0 + 128).
constexpr std::uint8_t kQuantZero = 128;

// Must match conv2d.cpp so int8 and fp32 layers stripe — and therefore
// parallelize — identically.
constexpr std::int64_t kStripePixels = 1024;

ConvGeometry conv_geometry_s8(const Shape& in_s, const Shape& w_s, Padding padding) {
  if (!w_s.valid()) {
    throw std::invalid_argument("conv2d_s8: invalid weight shape " + w_s.to_string());
  }
  if (in_s.c() != w_s.dim(2)) {
    throw std::invalid_argument("conv2d_s8: input channels " + std::to_string(in_s.c()) +
                                " != weight in_channels " + std::to_string(w_s.dim(2)));
  }
  const std::int64_t kh = w_s.dim(0);
  const std::int64_t kw = w_s.dim(1);
  if (padding == Padding::kSame) return same_geometry(in_s.h(), in_s.w(), in_s.c(), kh, kw, 1);
  return valid_geometry(in_s.h(), in_s.w(), in_s.c(), kh, kw);
}

// Implicit im2col source for the int8 GEMM, reading from the pre-quantized
// offset-binary u8 image (the conv entry point quantizes the whole activation
// tensor exactly once per layer via nn::quantize_u8_run — quantizing inside
// this row source instead would redo the same pixel kh*kw times and dominate
// the layer). Each kernel row of a slice is one contiguous memcpy run (the
// kx taps are adjacent in NHWC memory) with horizontal clamps; out-of-bounds
// taps emit the quantized zero point instead of 0.0f.
struct Im2colS8Source {
  const std::uint8_t* img;  // base of quantized batch image n
  const ConvGeometry* g;
  std::int64_t row0;        // first image-space im2col row of this stripe
};

void im2col_s8_row(const void* vctx, std::int64_t row, std::int64_t p0, std::int64_t kc,
                   std::uint8_t* dst) {
  const auto& s = *static_cast<const Im2colS8Source*>(vctx);
  const ConvGeometry& g = *s.g;
  const std::int64_t c = g.channels;
  const std::int64_t kwc = g.kw * c;
  const std::int64_t r = s.row0 + row;
  const std::int64_t oy = r / g.out_w;
  const std::int64_t ox = r % g.out_w;
  const std::int64_t iy0 = oy * g.stride - g.pad_top;
  const std::int64_t ix0 = ox * g.stride - g.pad_left;
  const std::int64_t lo = std::max<std::int64_t>(0, -ix0) * c;
  const std::int64_t hi = (std::min(g.kw, g.in_w - ix0)) * c;
  std::int64_t q = p0;
  const std::int64_t q_end = p0 + kc;
  std::int64_t ky = q / kwc;
  std::int64_t cell = q - ky * kwc;
  while (q < q_end) {
    const std::int64_t len = std::min(kwc - cell, q_end - q);
    const std::int64_t iy = iy0 + ky;
    if (iy < 0 || iy >= g.in_h || hi <= lo) {
      std::fill(dst, dst + len, kQuantZero);
    } else {
      const std::int64_t cut0 = std::clamp(lo, cell, cell + len);
      const std::int64_t cut1 = std::clamp(hi, cell, cell + len);
      std::fill(dst, dst + (cut0 - cell), kQuantZero);
      std::memcpy(dst + (cut0 - cell), s.img + (iy * g.in_w + ix0) * c + cut0,
                  static_cast<std::size_t>(cut1 - cut0));
      std::fill(dst + (cut1 - cell), dst + len, kQuantZero);
    }
    dst += len;
    q += len;
    ++ky;
    cell = 0;
  }
}

}  // namespace

S8ConvWeights quantize_conv_weights(const Tensor& weight) {
  if (!weight.shape().valid()) {
    throw std::invalid_argument("quantize_conv_weights: invalid weight shape " +
                                weight.shape().to_string());
  }
  const std::int64_t out_c = weight.shape().dim(3);
  const std::int64_t k = weight.numel() / out_c;  // kh * kw * in_c
  S8ConvWeights q;
  q.shape = weight.shape();
  q.values.resize(static_cast<std::size_t>(weight.numel()));
  q.scale.resize(static_cast<std::size_t>(out_c));
  const float* w = weight.raw();
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    float max_abs = 0.0F;
    for (std::int64_t i = 0; i < k; ++i) {
      max_abs = std::max(max_abs, std::fabs(w[i * out_c + oc]));
    }
    const float scale = max_abs > 0.0F ? max_abs / 127.0F : kDegenerateQuantScale;
    q.scale[static_cast<std::size_t>(oc)] = scale;
    const float inv = 1.0F / scale;
    for (std::int64_t i = 0; i < k; ++i) {
      q.values[static_cast<std::size_t>(i * out_c + oc)] = quantize_value(w[i * out_c + oc], inv);
    }
  }
  q.colsum = s8_column_sums({q.values.data(), q.values.size()}, k, out_c);
  return q;
}

void conv2d_s8_into(const float* input, const Shape& in_shape, float act_scale,
                    const S8ConvWeights& weight, const Tensor* bias, const Epilogue& epilogue,
                    Padding padding, float* out) {
  const ConvGeometry g = conv_geometry_s8(in_shape, weight.shape, padding);
  const std::int64_t out_c = weight.shape.dim(3);
  const std::int64_t batch = in_shape.n();
  const std::int64_t numel = in_shape.numel();
  if (bias != nullptr && bias->numel() != out_c) {
    throw std::invalid_argument("conv2d_s8: bias numel must equal out_channels");
  }
  if (!(act_scale > 0.0F)) {
    throw std::invalid_argument("conv2d_s8: activation scale must be positive");
  }
  if (epilogue.act == Epilogue::Act::kPRelu && epilogue.prelu_alpha == nullptr) {
    throw std::invalid_argument("conv2d_s8: PReLU epilogue requires prelu_alpha");
  }
  const Shape out_shape(batch, g.out_h, g.out_w, out_c);
  // Combined dequantization factor per output channel: one single-rounded
  // float product, mirrored exactly by the src/check reference. Scratch-backed
  // (as is qimg below) so a steady-state layer performs no allocation.
  std::span<float> dequant = scratch_floats(ScratchSlot::kS8Dequant,
                                            static_cast<std::size_t>(out_c));
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    dequant[static_cast<std::size_t>(oc)] = act_scale * weight.scale[static_cast<std::size_t>(oc)];
  }
  S8Epilogue epi;
  epi.scale = dequant.data();
  epi.bias = bias != nullptr ? bias->raw() : nullptr;
  epi.act = epilogue.act;
  epi.prelu_alpha = epilogue.prelu_alpha;
  const std::span<const std::int8_t> wspan{weight.values.data(), weight.values.size()};
  const std::span<const std::int32_t> cspan{weight.colsum.data(), weight.colsum.size()};
  const float inv_scale = 1.0F / act_scale;
  // Quantize the whole activation tensor once (elementwise, so chunk order is
  // irrelevant); the im2col row source then only copies bytes. Pool workers
  // read qimg but never touch the submitting thread's scratch slot, so the
  // span stays valid for both loops.
  std::span<std::uint8_t> qimg = scratch_bytes(ScratchSlot::kS8Quant,
                                               static_cast<std::size_t>(numel));
  constexpr std::int64_t kQuantChunk = 1 << 16;
  const std::int64_t chunks = (numel + kQuantChunk - 1) / kQuantChunk;
  ThreadPool::global().parallel_for(0, chunks, [&](std::int64_t ci) {
    const std::int64_t lo = ci * kQuantChunk;
    const std::int64_t hi = std::min(lo + kQuantChunk, numel);
    quantize_u8_run(input + lo, qimg.data() + lo, hi - lo, inv_scale);
  });
  const std::int64_t sc = (g.rows() + kStripePixels - 1) / kStripePixels;
  ThreadPool::global().parallel_for(0, batch * sc, [&](std::int64_t idx) {
    const std::int64_t n = idx / sc;
    const std::int64_t r0 = (idx % sc) * kStripePixels;
    const std::int64_t r1 = std::min(r0 + kStripePixels, g.rows());
    const std::int64_t rows = r1 - r0;
    std::span<float> dst(out + out_shape.offset(n, 0, 0, 0) + r0 * out_c,
                         static_cast<std::size_t>(rows * out_c));
    const Im2colS8Source src{qimg.data() + in_shape.offset(n, 0, 0, 0), &g, r0};
    gemm_s8_rows(im2col_s8_row, &src, wspan, cspan, dst, rows, g.cols(), out_c, epi);
  });
}

Tensor conv2d_s8(const Tensor& input, float act_scale, const S8ConvWeights& weight,
                 const Tensor* bias, const Epilogue& epilogue, Padding padding) {
  const ConvGeometry g = conv_geometry_s8(input.shape(), weight.shape, padding);
  Tensor out(input.shape().n(), g.out_h, g.out_w, weight.shape.dim(3));
  conv2d_s8_into(input.raw(), input.shape(), act_scale, weight, bias, epilogue, padding,
                 out.raw());
  return out;
}

}  // namespace sesr::nn
