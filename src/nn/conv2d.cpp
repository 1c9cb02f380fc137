#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/conv_direct.hpp"
#include "nn/gemm.hpp"
#include "nn/init.hpp"
#include "tensor/scratch.hpp"
#include "tensor/thread_pool.hpp"

namespace sesr::nn {

namespace {
void check_weight(const Shape& w) {
  if (!w.valid()) throw std::invalid_argument("conv2d: invalid weight shape " + w.to_string());
}

void check_channels(const Shape& input, const Shape& w) {
  if (input.c() != w.dim(2)) {
    throw std::invalid_argument("conv2d: input channels " + std::to_string(input.c()) +
                                " != weight in_channels " + std::to_string(w.dim(2)));
  }
}

ConvGeometry conv_geometry_shape(const Shape& s, const Shape& w, Padding padding,
                                 std::int64_t stride) {
  check_weight(w);
  check_channels(s, w);
  const std::int64_t kh = w.dim(0);
  const std::int64_t kw = w.dim(1);
  if (padding == Padding::kSame) return same_geometry(s.h(), s.w(), s.c(), kh, kw, stride);
  if (stride != 1) throw std::invalid_argument("conv2d: VALID padding supports stride 1 only");
  return valid_geometry(s.h(), s.w(), s.c(), kh, kw);
}

// Output pixels per parallel stripe. Fixed — never derived from the worker
// count — so stripe boundaries, and with them every floating-point reduction
// order in the backward passes, are identical for any SESR_NUM_THREADS.
constexpr std::int64_t kStripePixels = 1024;

std::int64_t stripes_per_image(std::int64_t rows) {
  return (rows + kStripePixels - 1) / kStripePixels;
}

// Stride-1 SAME windows larger than 1x1 (SESR's head, body and tail) run on
// the direct kernels; everything else lowers through im2col / GEMM.
bool takes_direct(const ConvGeometry& g, Padding padding) {
  return padding == Padding::kSame && g.stride == 1 && g.kh * g.kw > 1;
}

// Shared forward: 1x1 stride-1 convs are one GEMM over the NHWC activations,
// other stride-1 SAME convs take the direct kernels (nn/conv_direct.hpp), and
// the rest stripe the im2col row space across the pool with the optional bias
// fused into the GEMM store. `zero_skip` selects the branchy
// zero-skipping kernel kept for Algorithm-1 identity probes. Input, weight
// (HWIO, shape `w_shape`) and output are raw buffers (in_shape describes
// `input`; `out` must hold batch * out_h * out_w * out_c floats) so
// planner-owned arena slices and widened fp16 operands work the same as
// Tensor storage; the Tensor entry points below allocate and delegate.
void conv2d_impl(const float* input, const Shape& in_shape, const float* weight,
                 const Shape& w_shape, const float* bias, Padding padding, std::int64_t stride,
                 bool zero_skip, const Epilogue* epi, float* out) {
  const ConvGeometry g = conv_geometry_shape(in_shape, w_shape, padding, stride);
  const std::int64_t out_c = w_shape.dim(3);
  const std::int64_t batch = in_shape.n();
  const Shape out_shape(batch, g.out_h, g.out_w, out_c);
  ThreadPool& pool = ThreadPool::global();
  const std::span<const float> wspan(weight, static_cast<std::size_t>(w_shape.numel()));
  const std::span<const float> bspan =
      bias != nullptr ? std::span<const float>{bias, static_cast<std::size_t>(out_c)}
                      : std::span<const float>{};

  // 1x1 stride-1 fast path (dominant in expanded SESR linear blocks): im2col
  // is the identity, so the whole batch is a single [batch*H*W, C] x
  // [C, out_c] product straight off the NHWC activations — no lowering, no
  // copies, bias fused into the epilogue.
  if (!zero_skip && g.kh == 1 && g.kw == 1 && g.stride == 1) {
    const std::int64_t cin = g.channels;
    pool.parallel_for_chunks(
        0, batch * g.rows(), kStripePixels, [&](std::int64_t lo, std::int64_t hi) {
          const std::int64_t rows = hi - lo;
          std::span<const float> src(input + lo * cin, static_cast<std::size_t>(rows * cin));
          std::span<float> dst(out + lo * out_c, static_cast<std::size_t>(rows * out_c));
          if (epi != nullptr) {
            gemm_fused(src, wspan, bspan, dst, rows, cin, out_c, *epi);
          } else if (bias != nullptr) {
            gemm_bias(src, wspan, bspan, dst, rows, cin, out_c);
          } else {
            gemm(src, wspan, dst, rows, cin, out_c);
          }
        });
    return;
  }

  if (!zero_skip && takes_direct(g, padding)) {
    conv2d_direct(input, batch, g, weight, out_c, bias, epi, out);
    return;
  }

  // General path: one flat index space over (image, stripe) gives batch
  // parallelism and intra-image parallelism from the same loop, so N=1
  // deployment inference still uses the whole machine.
  const std::int64_t sc = stripes_per_image(g.rows());
  pool.parallel_for(0, batch * sc, [&](std::int64_t idx) {
    const std::int64_t n = idx / sc;
    const std::int64_t r0 = (idx % sc) * kStripePixels;
    const std::int64_t r1 = std::min(r0 + kStripePixels, g.rows());
    const std::int64_t rows = r1 - r0;
    std::span<float> cols =
        scratch_floats(ScratchSlot::kIm2col, static_cast<std::size_t>(rows * g.cols()));
    im2col_rows(input + in_shape.offset(n, 0, 0, 0), g, r0, r1, cols.data());
    std::span<float> dst(out + out_shape.offset(n, 0, 0, 0) + r0 * out_c,
                         static_cast<std::size_t>(rows * out_c));
    if (zero_skip) {
      gemm_zero_skip(cols, wspan, dst, rows, g.cols(), out_c);
      if (bias != nullptr) {
        for (std::int64_t i = 0; i < rows; ++i) {
          for (std::int64_t c = 0; c < out_c; ++c) dst[i * out_c + c] += bias[c];
        }
      }
    } else if (epi != nullptr) {
      gemm_fused(cols, wspan, bspan, dst, rows, g.cols(), out_c, *epi);
    } else if (bias != nullptr) {
      gemm_bias(cols, wspan, bspan, dst, rows, g.cols(), out_c);
    } else {
      gemm(cols, wspan, dst, rows, g.cols(), out_c);
    }
  });
}

// Allocating wrapper around the raw-pointer core.
Tensor conv2d_alloc(const Tensor& input, const Tensor& weight, const float* bias, Padding padding,
                    std::int64_t stride, bool zero_skip, const Epilogue* epi = nullptr) {
  const ConvGeometry g = conv_geometry_shape(input.shape(), weight.shape(), padding, stride);
  Tensor out(input.shape().n(), g.out_h, g.out_w, weight.shape().dim(3));
  conv2d_impl(input.raw(), input.shape(), weight.raw(), weight.shape(), bias, padding, stride,
              zero_skip, epi, out.raw());
  return out;
}

// Shared fp16-storage forward: fp32 arithmetic on exactly widened binary16
// operands. Exactly one of out_h / out_f receives the result: out_h gets it
// rounded to binary16 once, out_f the fp32 values. The weight is widened on
// the calling thread; direct geometries widen input rows as they stage them.
// The rest (1x1, VALID, strided: no plan step runs them) widen the whole
// input and run conv2d_impl's fp32 GEMM routes. Either way the bits equal
// conv2d_fused on the widened operands. Raw NHWC in/out (see conv2d_impl);
// the Tensor entry points allocate and delegate.
void conv2d_fp16_impl(const fp16::Half* input, const Shape& in_shape,
                      const fp16::HalfTensor& weight, const Tensor* bias, const Epilogue& epi,
                      Padding padding, std::int64_t stride, fp16::Half* out_h, float* out_f) {
  const ConvGeometry g = conv_geometry_shape(in_shape, weight.shape(), padding, stride);
  const std::int64_t out_c = weight.shape().dim(3);
  if (bias != nullptr && bias->numel() != out_c) {
    throw std::invalid_argument("conv2d_fp16: bias numel must equal out_channels");
  }
  const float* bias_ptr = bias != nullptr ? bias->raw() : nullptr;
  const bool direct = takes_direct(g, padding);
  const std::int64_t wn = weight.numel();
  const std::int64_t in_n = direct ? 0 : in_shape.numel();
  const std::int64_t out_n = direct || out_h == nullptr ? 0 : in_shape.n() * g.rows() * out_c;
  float* wide =
      scratch_floats(ScratchSlot::kF16Widen, static_cast<std::size_t>(wn + in_n + out_n)).data();
  fp16::convert_to_float(weight.raw(), wide, wn);
  if (direct) {
    conv2d_direct(input, in_shape.n(), g, wide, out_c, bias_ptr, &epi, out_f, out_h);
    return;
  }
  float* wide_in = wide + wn;
  fp16::convert_to_float(input, wide_in, in_n);
  float* dst = out_h != nullptr ? wide_in + in_n : out_f;
  conv2d_impl(wide_in, in_shape, wide, weight.shape(), bias_ptr, padding, stride,
              /*zero_skip=*/false, &epi, dst);
  if (out_h != nullptr) fp16::convert_to_half(dst, out_h, out_n);
}
}  // namespace

ConvGeometry conv_geometry(const Tensor& input, const Tensor& weight, Padding padding,
                           std::int64_t stride) {
  return conv_geometry_shape(input.shape(), weight.shape(), padding, stride);
}

Tensor conv2d(const Tensor& input, const Tensor& weight, Padding padding, std::int64_t stride) {
  return conv2d_alloc(input, weight, nullptr, padding, stride, /*zero_skip=*/false);
}

Tensor conv2d_zero_skip(const Tensor& input, const Tensor& weight, Padding padding,
                        std::int64_t stride) {
  return conv2d_alloc(input, weight, nullptr, padding, stride, /*zero_skip=*/true);
}

Tensor conv2d_bias(const Tensor& input, const Tensor& weight, const Tensor& bias, Padding padding,
                   std::int64_t stride) {
  const std::int64_t out_c = weight.shape().dim(3);
  if (bias.numel() != out_c) {
    throw std::invalid_argument("conv2d_bias: bias numel must equal out_channels");
  }
  return conv2d_alloc(input, weight, bias.raw(), padding, stride, /*zero_skip=*/false);
}

Tensor conv2d_fused(const Tensor& input, const Tensor& weight, const Tensor* bias,
                    const Epilogue& epilogue, Padding padding, std::int64_t stride) {
  const std::int64_t out_c = weight.shape().dim(3);
  if (bias != nullptr && bias->numel() != out_c) {
    throw std::invalid_argument("conv2d_fused: bias numel must equal out_channels");
  }
  return conv2d_alloc(input, weight, bias != nullptr ? bias->raw() : nullptr, padding, stride,
                      /*zero_skip=*/false, &epilogue);
}

void conv2d_into(const float* input, const Shape& in_shape, const Tensor& weight,
                 const Tensor* bias, const Epilogue* epilogue, Padding padding, float* out,
                 std::int64_t stride) {
  const std::int64_t out_c = weight.shape().dim(3);
  if (bias != nullptr && bias->numel() != out_c) {
    throw std::invalid_argument("conv2d_into: bias numel must equal out_channels");
  }
  conv2d_impl(input, in_shape, weight.raw(), weight.shape(),
              bias != nullptr ? bias->raw() : nullptr, padding, stride, /*zero_skip=*/false,
              epilogue, out);
}

fp16::HalfTensor conv2d_fp16(const fp16::HalfTensor& input, const fp16::HalfTensor& weight,
                             const Tensor* bias, const Epilogue& epilogue, Padding padding,
                             std::int64_t stride) {
  const ConvGeometry g = conv_geometry_shape(input.shape(), weight.shape(), padding, stride);
  fp16::HalfTensor out(input.shape().n(), g.out_h, g.out_w, weight.shape().dim(3));
  conv2d_fp16_impl(input.raw(), input.shape(), weight, bias, epilogue, padding, stride, out.raw(),
                   nullptr);
  return out;
}

Tensor conv2d_fp16_to_float(const fp16::HalfTensor& input, const fp16::HalfTensor& weight,
                            const Tensor* bias, const Epilogue& epilogue, Padding padding,
                            std::int64_t stride) {
  const ConvGeometry g = conv_geometry_shape(input.shape(), weight.shape(), padding, stride);
  Tensor out(input.shape().n(), g.out_h, g.out_w, weight.shape().dim(3));
  conv2d_fp16_impl(input.raw(), input.shape(), weight, bias, epilogue, padding, stride, nullptr,
                   out.raw());
  return out;
}

void conv2d_fp16_into(const fp16::Half* input, const Shape& in_shape,
                      const fp16::HalfTensor& weight, const Tensor* bias, const Epilogue& epilogue,
                      Padding padding, fp16::Half* out, std::int64_t stride) {
  conv2d_fp16_impl(input, in_shape, weight, bias, epilogue, padding, stride, out, nullptr);
}

void conv2d_fp16_to_float_into(const fp16::Half* input, const Shape& in_shape,
                               const fp16::HalfTensor& weight, const Tensor* bias,
                               const Epilogue& epilogue, Padding padding, float* out,
                               std::int64_t stride) {
  conv2d_fp16_impl(input, in_shape, weight, bias, epilogue, padding, stride, nullptr, out);
}

Tensor conv2d_backward_input(const Tensor& grad_output, const Tensor& weight,
                             const Shape& input_shape, Padding padding, std::int64_t stride) {
  check_weight(weight.shape());
  const std::int64_t out_c = weight.shape().dim(3);
  if (grad_output.shape().c() != out_c) {
    throw std::invalid_argument("conv2d_backward_input: grad_output channels mismatch");
  }
  Tensor probe(input_shape);  // only the shape is used
  const ConvGeometry g = conv_geometry(probe, weight, padding, stride);
  if (g.out_h != grad_output.shape().h() || g.out_w != grad_output.shape().w()) {
    throw std::invalid_argument("conv2d_backward_input: grad_output spatial dims mismatch");
  }
  Tensor grad_input(input_shape);
  ThreadPool& pool = ThreadPool::global();
  std::span<float> cols =
      scratch_floats(ScratchSlot::kConvCols, static_cast<std::size_t>(g.rows() * g.cols()));
  // Stripe the scatter over disjoint *input* row bands; each band receives
  // contributions in the same order as a serial col2im, so the result does not
  // depend on the thread count.
  const std::int64_t grain_y =
      std::max<std::int64_t>(1, kStripePixels / std::max<std::int64_t>(1, g.in_w));
  for (std::int64_t n = 0; n < input_shape.n(); ++n) {
    const float* go_base = grad_output.raw() + grad_output.shape().offset(n, 0, 0, 0);
    // cols = grad_out [rows x out_c] * weight^T [out_c x (kh*kw*cin)], striped
    // over output rows (disjoint writes).
    pool.parallel_for_chunks(0, g.rows(), kStripePixels, [&](std::int64_t lo, std::int64_t hi) {
      const std::int64_t rows = hi - lo;
      std::span<const float> go(go_base + lo * out_c, static_cast<std::size_t>(rows * out_c));
      std::span<float> dst(cols.data() + lo * g.cols(),
                           static_cast<std::size_t>(rows * g.cols()));
      gemm_a_bt(go, weight.data(), dst, rows, out_c, g.cols());
    });
    pool.parallel_for_chunks(0, g.in_h, grain_y, [&](std::int64_t y0, std::int64_t y1) {
      col2im_add_rows(cols.data(), g, grad_input, n, y0, y1);
    });
  }
  return grad_input;
}

namespace {
void backward_weight_impl(const Tensor& input, const Tensor& grad_output, Tensor& grad_weight,
                          float* grad_bias, Padding padding, std::int64_t stride) {
  check_weight(grad_weight.shape());
  check_channels(input.shape(), grad_weight.shape());
  const ConvGeometry g = conv_geometry(input, grad_weight, padding, stride);
  const std::int64_t out_c = grad_weight.shape().dim(3);
  if (grad_output.shape().h() != g.out_h || grad_output.shape().w() != g.out_w ||
      grad_output.shape().c() != out_c || grad_output.shape().n() != input.shape().n()) {
    throw std::invalid_argument("conv2d_backward_weight: grad_output shape mismatch");
  }
  const std::int64_t sc = stripes_per_image(g.rows());
  const std::int64_t total = input.shape().n() * sc;
  const std::int64_t wn = grad_weight.numel();
  // Per-stripe partial accumulators (weight grad + fused bias grad), reduced
  // below in fixed stripe order so the sum is bit-identical for any thread
  // count. The arena buffer is caller-owned; workers only write their slice.
  const std::int64_t slice = wn + (grad_bias != nullptr ? out_c : 0);
  std::span<float> partials =
      scratch_floats(ScratchSlot::kGradPartial, static_cast<std::size_t>(total * slice));
  std::fill(partials.begin(), partials.end(), 0.0F);
  ThreadPool::global().parallel_for(0, total, [&](std::int64_t idx) {
    const std::int64_t n = idx / sc;
    const std::int64_t r0 = (idx % sc) * kStripePixels;
    const std::int64_t r1 = std::min(r0 + kStripePixels, g.rows());
    const std::int64_t rows = r1 - r0;
    std::span<float> cols =
        scratch_floats(ScratchSlot::kIm2col, static_cast<std::size_t>(rows * g.cols()));
    im2col_rows(input, n, g, r0, r1, cols.data());
    std::span<const float> go(grad_output.raw() + grad_output.shape().offset(n, 0, 0, 0) +
                                  r0 * out_c,
                              static_cast<std::size_t>(rows * out_c));
    float* pw = partials.data() + idx * slice;
    // partial grad_w [(kh*kw*cin) x out_c] += cols^T * grad_out
    gemm_at_b_accumulate(cols, go, {pw, static_cast<std::size_t>(wn)}, g.cols(), rows, out_c);
    if (grad_bias != nullptr) {
      float* pb = pw + wn;
      for (std::int64_t i = 0; i < rows; ++i) {
        for (std::int64_t c = 0; c < out_c; ++c) pb[c] += go[i * out_c + c];
      }
    }
  });
  float* gw = grad_weight.raw();
  for (std::int64_t idx = 0; idx < total; ++idx) {
    const float* pw = partials.data() + idx * slice;
    for (std::int64_t i = 0; i < wn; ++i) gw[i] += pw[i];
    if (grad_bias != nullptr) {
      for (std::int64_t c = 0; c < out_c; ++c) grad_bias[c] += pw[wn + c];
    }
  }
}
}  // namespace

void conv2d_backward_weight(const Tensor& input, const Tensor& grad_output, Tensor& grad_weight,
                            Padding padding, std::int64_t stride) {
  backward_weight_impl(input, grad_output, grad_weight, nullptr, padding, stride);
}

void conv2d_backward_weight_bias(const Tensor& input, const Tensor& grad_output,
                                 Tensor& grad_weight, Tensor& grad_bias, Padding padding,
                                 std::int64_t stride) {
  if (grad_bias.numel() != grad_weight.shape().dim(3)) {
    throw std::invalid_argument("conv2d_backward_weight_bias: bias grad numel mismatch");
  }
  backward_weight_impl(input, grad_output, grad_weight, grad_bias.raw(), padding, stride);
}

Tensor conv2d_naive(const Tensor& input, const Tensor& weight, Padding padding,
                    std::int64_t stride) {
  const ConvGeometry g = conv_geometry(input, weight, padding, stride);
  const Shape& s = input.shape();
  const std::int64_t out_c = weight.shape().dim(3);
  Tensor out(s.n(), g.out_h, g.out_w, out_c);
  for (std::int64_t n = 0; n < s.n(); ++n) {
    for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
        for (std::int64_t oc = 0; oc < out_c; ++oc) {
          double acc = 0.0;
          for (std::int64_t ky = 0; ky < g.kh; ++ky) {
            const std::int64_t iy = oy * g.stride - g.pad_top + ky;
            if (iy < 0 || iy >= s.h()) continue;
            for (std::int64_t kx = 0; kx < g.kw; ++kx) {
              const std::int64_t ix = ox * g.stride - g.pad_left + kx;
              if (ix < 0 || ix >= s.w()) continue;
              for (std::int64_t ic = 0; ic < s.c(); ++ic) {
                acc += static_cast<double>(input(n, iy, ix, ic)) * weight(ky, kx, ic, oc);
              }
            }
          }
          out(n, oy, ox, oc) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

Conv2d::Conv2d(std::string name, std::int64_t kh, std::int64_t kw, std::int64_t in_c,
               std::int64_t out_c, Padding padding, bool with_bias, Rng& rng, std::int64_t stride)
    : name_(std::move(name)),
      padding_(padding),
      stride_(stride),
      weight_(name_ + ".weight", glorot_uniform_kernel(kh, kw, in_c, out_c, rng)) {
  if (with_bias) bias_.emplace(name_ + ".bias", Tensor(1, 1, 1, out_c));
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  if (training) cached_input_ = input;
  if (bias_) return conv2d_bias(input, weight_.value, bias_->value, padding_, stride_);
  return conv2d(input, weight_.value, padding_, stride_);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("Conv2d::backward called without forward(training=true)");
  }
  if (bias_) {
    // Bias grad rides on the same striped pass as the weight grad instead of a
    // second sweep over grad_output.
    conv2d_backward_weight_bias(cached_input_, grad_output, weight_.grad, bias_->grad, padding_,
                                stride_);
  } else {
    conv2d_backward_weight(cached_input_, grad_output, weight_.grad, padding_, stride_);
  }
  return conv2d_backward_input(grad_output, weight_.value, cached_input_.shape(), padding_,
                               stride_);
}

std::vector<Parameter*> Conv2d::parameters() {
  std::vector<Parameter*> out{&weight_};
  if (bias_) out.push_back(&*bias_);
  return out;
}

}  // namespace sesr::nn
