#include "nn_replay.hpp"

#include "nn/conv2d.hpp"
#include "nn/conv2d_s8.hpp"
#include "nn/depth_to_space.hpp"
#include "tensor/tensor_ops.hpp"

namespace perfbench {

namespace nn = sesr::nn;
namespace fp16 = sesr::fp16;
using sesr::Shape;

NnReplay::NnReplay(const SesrInference& net, std::int64_t h, std::int64_t w)
    : net_(net), h_(h), w_(w) {
  const auto pixels = static_cast<std::size_t>(h * w);
  const auto f = static_cast<std::size_t>(net.config().f);
  for (auto& buf : feat_) buf.resize(pixels * f);
  tail_.resize(pixels * static_cast<std::size_t>(net.config().output_channels()));
  x_float_.resize(pixels);
  for (auto& buf : half_) buf.resize(pixels * f);
}

bool NnReplay::conv_is_int8(std::size_t i) const {
  return net_.precision() == InferencePrecision::kInt8 ||
         (net_.precision() == InferencePrecision::kHybrid &&
          net_.hybrid_plan()[i] == sesr::core::LayerPrecision::kInt8);
}

double NnReplay::conv_macs(std::size_t i) const {
  const Shape& s = net_.convolutions()[i].weight.shape();
  return static_cast<double>(h_ * w_) * static_cast<double>(s.numel());
}

double NnReplay::conv_bytes(std::size_t i) const {
  const Shape& s = net_.convolutions()[i].weight.shape();
  const auto pixels = static_cast<double>(h_ * w_);
  const bool half = net_.precision() == InferencePrecision::kFp16;
  const bool last = i + 1 == net_.convolutions().size();
  const double act_in = half ? 2.0 : 4.0;
  const double act_out = half && !last ? 2.0 : 4.0;
  const double weight = conv_is_int8(i) ? 1.0 : (half ? 2.0 : 4.0);
  return pixels * static_cast<double>(s.dim(2)) * act_in +
         static_cast<double>(s.numel()) * weight + pixels * static_cast<double>(s.dim(3)) * act_out;
}

StepTimes NnReplay::run(const Tensor& input, Tensor& out, Tracer* tracer, std::int64_t parent,
                        std::uint64_t request) {
  const auto& convs = net_.convolutions();
  const std::size_t n = convs.size();
  const std::int64_t f = net_.config().f;
  const std::int64_t oc = net_.config().output_channels();
  const std::int64_t pixels = h_ * w_;
  const Shape in1(1, h_, w_, 1);
  const Shape inf(1, h_, w_, f);
  StepTimes times;
  times.conv_ms.assign(n, 0.0);

  auto timed = [&](const char* name, double& slot, auto&& fn) {
    const Clock::time_point a = Clock::now();
    fn();
    const Clock::time_point b = Clock::now();
    slot = ms_between(a, b);
    if (tracer != nullptr) tracer->record(name, a, b, parent, request);
  };
  auto name_of = [n](std::size_t i) {
    return i == 0 ? "nn.head" : (i + 1 == n ? "nn.tail" : "nn.body");
  };
  auto bias = [&convs](std::size_t i) { return convs[i].bias ? &*convs[i].bias : nullptr; };
  auto epilogue = [&](std::size_t i) {
    return i + 1 < n ? net_.activation_epilogue(i) : nn::Epilogue{};
  };
  const bool input_residual = net_.config().input_residual;

  if (net_.precision() == InferencePrecision::kFp16) {
    fp16::Half* x = half_[0].data();
    fp16::convert_to_half(input.raw(), x, pixels);
    fp16::Half* cur = half_[1].data();
    timed(name_of(0), times.conv_ms[0], [&] {
      nn::conv2d_fp16_into(x, in1, net_.fp16_weights()[0], bias(0), epilogue(0),
                           nn::Padding::kSame, cur);
    });
    for (std::size_t i = 1; i + 1 < n; ++i) {
      fp16::Half* next = cur == half_[2].data() ? half_[3].data() : half_[2].data();
      timed(name_of(i), times.conv_ms[i], [&] {
        nn::conv2d_fp16_into(cur, inf, net_.fp16_weights()[i], bias(i), epilogue(i),
                             nn::Padding::kSame, next);
      });
      cur = next;
    }
    fp16::add_inplace(cur, half_[1].data(), pixels * f);
    timed(name_of(n - 1), times.conv_ms[n - 1], [&] {
      nn::conv2d_fp16_to_float_into(cur, inf, net_.fp16_weights()[n - 1], bias(n - 1),
                                    nn::Epilogue{}, nn::Padding::kSame, tail_.data());
    });
    if (input_residual) {
      fp16::convert_to_float(x, x_float_.data(), pixels);
      sesr::core::add_input_residual(tail_.data(), x_float_.data(), pixels, oc);
    }
  } else {
    // fp32, int8 and hybrid all run on the fp32 carrier.
    const bool fp32 = net_.precision() == InferencePrecision::kFp32;
    auto run_conv = [&](std::size_t i, const float* in, const Shape& in_shape, float* dst) {
      if (fp32) {
        const nn::Epilogue epi = epilogue(i);
        timed(name_of(i), times.conv_ms[i], [&] {
          nn::conv2d_into(in, in_shape, convs[i].weight, bias(i), i + 1 < n ? &epi : nullptr,
                          nn::Padding::kSame, dst);
        });
      } else if (conv_is_int8(i)) {
        timed(name_of(i), times.conv_ms[i], [&] {
          nn::conv2d_s8_into(in, in_shape, net_.activation_scales()[i], net_.s8_weights()[i],
                             bias(i), epilogue(i), nn::Padding::kSame, dst);
        });
      } else {
        fp16::Half* stage = half_[0].data();
        fp16::convert_to_half(in, stage, in_shape.numel());
        timed(name_of(i), times.conv_ms[i], [&] {
          nn::conv2d_fp16_to_float_into(stage, in_shape, net_.fp16_weights()[i], bias(i),
                                        epilogue(i), nn::Padding::kSame, dst);
        });
        if (i + 1 < n) {
          const Shape& w = convs[i].weight.shape();
          fp16::round_through_half(dst, pixels * w.dim(3));
        }
      }
    };
    float* cur = feat_[0].data();
    run_conv(0, input.raw(), in1, cur);
    for (std::size_t i = 1; i + 1 < n; ++i) {
      float* next = cur == feat_[1].data() ? feat_[2].data() : feat_[1].data();
      run_conv(i, cur, inf, next);
      cur = next;
    }
    sesr::add_inplace(cur, feat_[0].data(), pixels * f);
    run_conv(n - 1, cur, inf, tail_.data());
    if (input_residual) sesr::core::add_input_residual(tail_.data(), input.raw(), pixels, oc);
  }
  timed("nn.d2s", times.d2s_ms, [&] {
    nn::depth_to_space_into(tail_.data(), Shape(1, h_, w_, oc), 2, out.raw());
  });
  return times;
}

}  // namespace perfbench
