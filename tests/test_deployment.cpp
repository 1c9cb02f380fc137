// Tests for the deployment extensions: functional tiled inference
// (Section 5.6 boundary correctness), line-buffer streaming, and int8
// post-training quantization through the serving kInt8 path (the NPU
// execution premise).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "core/streaming.hpp"
#include "core/tiled_inference.hpp"
#include "data/synthetic.hpp"
#include "metrics/psnr.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv2d_s8.hpp"
#include "nn/init.hpp"
#include "tensor/tensor_ops.hpp"

namespace sesr::core {
namespace {

SesrConfig tiny(std::int64_t scale = 2) {
  SesrConfig c;
  c.f = 6;
  c.m = 2;
  c.scale = scale;
  c.expand = 24;
  return c;
}

TEST(TiledInference, ReceptiveFieldRadius) {
  Rng rng(1);
  SesrNetwork net(sesr_m5(2), rng);
  SesrInference deployed(net);
  // Two 5x5 convs (radius 2 each) + five 3x3 convs (radius 1 each) = 9.
  EXPECT_EQ(receptive_field_radius(deployed), 9);
}

TEST(TiledInference, ExactWithFullHalo) {
  Rng rng(2);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  Rng irng(3);
  Tensor image = data::synthesize_image(data::ImageFamily::kUrban, 40, 56, irng);
  Tensor full = deployed.upscale(image);
  TilingOptions options;
  options.tile_h = 16;
  options.tile_w = 16;
  options.halo = -1;  // exact
  Tensor tiled = upscale_tiled(deployed, image, options);
  EXPECT_EQ(tiled.shape(), full.shape());
  EXPECT_LT(max_abs_diff(tiled, full), 1e-5F);
}

TEST(TiledInference, ExactWithUnevenTiles) {
  // Image dims not divisible by the tile size: edge tiles shrink.
  Rng rng(4);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  Rng irng(5);
  Tensor image = data::synthesize_image(data::ImageFamily::kNatural, 34, 46, irng);
  Tensor full = deployed.upscale(image);
  TilingOptions options;
  options.tile_h = 15;
  options.tile_w = 20;
  Tensor tiled = upscale_tiled(deployed, image, options);
  EXPECT_LT(max_abs_diff(tiled, full), 1e-5F);
}

TEST(TiledInference, ExactForX4) {
  Rng rng(6);
  SesrNetwork net(tiny(4), rng);
  SesrInference deployed(net);
  Rng irng(7);
  Tensor image = data::synthesize_image(data::ImageFamily::kObjects, 32, 32, irng);
  Tensor full = deployed.upscale(image);
  TilingOptions options;
  options.tile_h = 12;
  options.tile_w = 12;
  Tensor tiled = upscale_tiled(deployed, image, options);
  EXPECT_LT(max_abs_diff(tiled, full), 1e-5F);
}

TEST(TiledInference, TruncatedHaloDegradesGracefully) {
  Rng rng(8);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  Rng irng(9);
  Tensor image = data::synthesize_image(data::ImageFamily::kNatural, 32, 32, irng);
  Tensor full = deployed.upscale(image);
  TilingOptions options;
  options.tile_h = 16;
  options.tile_w = 16;
  options.halo = 1;  // smaller than the receptive field
  Tensor tiled = upscale_tiled(deployed, image, options);
  const float err = max_abs_diff(tiled, full);
  EXPECT_GT(err, 0.0F);          // not exact ...
  const double psnr = metrics::psnr(tiled, full);
  EXPECT_GT(psnr, 20.0);         // ... but close (seam artifacts only)
}

TEST(TiledInference, OverheadAccounting) {
  TilingOptions options;
  options.tile_h = 16;
  options.tile_w = 16;
  // halo 0: no overhead at all.
  EXPECT_DOUBLE_EQ(tiling_compute_overhead(64, 64, options, 0), 1.0);
  // halo 4 on 16x16 tiles: interior tiles are 24x24 -> up to 2.25x.
  const double overhead = tiling_compute_overhead(64, 64, options, 4);
  EXPECT_GT(overhead, 1.5);
  EXPECT_LT(overhead, 2.25 + 1e-9);
}

TEST(TiledInference, RejectsBadInputs) {
  Rng rng(10);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  Tensor batch(2, 16, 16, 1);
  EXPECT_THROW(upscale_tiled(deployed, batch, {}), std::invalid_argument);
  Tensor rgb(1, 16, 16, 3);
  EXPECT_THROW(upscale_tiled(deployed, rgb, {}), std::invalid_argument);
  TilingOptions bad;
  bad.tile_h = 0;
  Tensor ok(1, 16, 16, 1);
  EXPECT_THROW(upscale_tiled(deployed, ok, bad), std::invalid_argument);
}

// Streaming runs the full frame's kernels row by row, so it must match the
// planned fp32 forward bit for bit.
bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(Streaming, MatchesBatchInferenceX2) {
  Rng rng(51);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  StreamingUpscaler streamer(deployed);
  Rng irng(53);
  Tensor image = data::synthesize_image(data::ImageFamily::kNatural, 40, 48, irng);
  Tensor batch_out = deployed.upscale(image);
  Tensor stream_out = streamer.upscale(image);
  EXPECT_TRUE(bit_identical(stream_out, batch_out));
  EXPECT_GT(streamer.peak_buffered_rows(), 0);
}

TEST(Streaming, MatchesBatchInferenceX4) {
  Rng rng(55);
  SesrNetwork net(tiny(4), rng);
  SesrInference deployed(net);
  StreamingUpscaler streamer(deployed);
  Rng irng(57);
  Tensor image = data::synthesize_image(data::ImageFamily::kUrban, 32, 36, irng);
  EXPECT_TRUE(bit_identical(streamer.upscale(image), deployed.upscale(image)));
}

TEST(Streaming, MatchesHardwareVariant) {
  Rng rng(59);
  SesrNetwork net(hardware_variant(tiny(2)), rng);
  SesrInference deployed(net);
  StreamingUpscaler streamer(deployed);
  Rng irng(61);
  Tensor image = data::synthesize_image(data::ImageFamily::kLineArt, 36, 40, irng);
  EXPECT_TRUE(bit_identical(streamer.upscale(image), deployed.upscale(image)));
}

TEST(Streaming, MatchesOnFullSesrM5) {
  Rng rng(63);
  SesrNetwork net(sesr_m5(2), rng);
  SesrInference deployed(net);
  StreamingUpscaler streamer(deployed);
  Rng irng(65);
  Tensor image = data::synthesize_image(data::ImageFamily::kObjects, 32, 48, irng);
  EXPECT_TRUE(bit_identical(streamer.upscale(image), deployed.upscale(image)));
}

TEST(Streaming, PeakMemoryIndependentOfImageHeight) {
  // The whole point of line-buffer streaming: buffered bytes depend on width
  // and kernel rows, not on image height.
  Rng rng(67);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  StreamingUpscaler streamer(deployed);
  Rng irng(69);
  Tensor short_img = data::synthesize_image(data::ImageFamily::kNatural, 24, 32, irng);
  streamer.upscale(short_img);
  const std::int64_t peak_short = streamer.peak_buffered_bytes();
  Tensor tall_img = data::synthesize_image(data::ImageFamily::kNatural, 96, 32, irng);
  streamer.upscale(tall_img);
  const std::int64_t peak_tall = streamer.peak_buffered_bytes();
  EXPECT_LE(peak_tall, peak_short + peak_short / 4) << "memory grew with height";
  // And it is far below buffering the full feature maps (H * W * f * convs).
  const std::int64_t full_buffering = 96 * 32 * 6 * 4 * 4;
  EXPECT_LT(peak_tall, full_buffering / 2);
}

TEST(Streaming, RejectsBatchedOrColorInput) {
  Rng rng(71);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  StreamingUpscaler streamer(deployed);
  Tensor batch(2, 16, 16, 1);
  EXPECT_THROW(streamer.upscale(batch), std::invalid_argument);
  Tensor rgb(1, 16, 16, 3);
  EXPECT_THROW(streamer.upscale(rgb), std::invalid_argument);
}

TEST(Streaming, RejectsNonFp32Network) {
  // The line-buffer pipeline computes fp32 only; a reduced-precision network
  // must be refused, never silently upscaled at fp32.
  Rng rng(73);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  Rng irng(75);
  const Tensor image = data::synthesize_image(data::ImageFamily::kNatural, 16, 16, irng);
  deployed.calibrate_int8({image});
  deployed.set_hybrid_plan(
      std::vector<LayerPrecision>(deployed.convolutions().size(), LayerPrecision::kInt8));
  StreamingUpscaler streamer(deployed);
  for (const InferencePrecision precision :
       {InferencePrecision::kFp16, InferencePrecision::kInt8, InferencePrecision::kHybrid}) {
    deployed.set_precision(precision);
    EXPECT_THROW(streamer.upscale(image), std::invalid_argument)
        << "precision " << static_cast<int>(precision);
  }
  deployed.set_precision(InferencePrecision::kFp32);
  EXPECT_TRUE(bit_identical(streamer.upscale(image), deployed.upscale(image)));
}

// Dequantize per-channel s8 weights back to float (HWIO, channel fastest).
Tensor dequantize_weights(const nn::S8ConvWeights& q) {
  Tensor t(q.shape);
  const std::int64_t out_c = q.shape.dim(3);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.raw()[i] = static_cast<float>(q.values[static_cast<std::size_t>(i)]) *
                 q.scale[static_cast<std::size_t>(i % out_c)];
  }
  return t;
}

std::vector<Tensor> natural_frames(Rng& rng, int count) {
  std::vector<Tensor> frames;
  for (int i = 0; i < count; ++i) {
    frames.push_back(data::synthesize_image(data::ImageFamily::kNatural, 32, 32, rng));
  }
  return frames;
}

TEST(Quantize, SymmetricRoundTrip) {
  Rng rng(11);
  Tensor w(3, 3, 4, 3);
  w.fill_uniform(rng, -2.0F, 2.0F);
  const nn::S8ConvWeights q = nn::quantize_conv_weights(w);
  const Tensor back = dequantize_weights(q);
  EXPECT_EQ(back.shape(), w.shape());
  // Max error bounded by half of the coarsest channel's quantization step.
  const float step = *std::max_element(q.scale.begin(), q.scale.end());
  EXPECT_LT(max_abs_diff(w, back), step * 0.5F + 1e-7F);
}

TEST(Quantize, ZeroTensorHandled) {
  // Degenerate ranges use the repo-wide convention (scale 1/127), the same
  // floor calibrate_int8 applies to an all-zero activation range.
  const nn::S8ConvWeights q = nn::quantize_conv_weights(Tensor(3, 3, 2, 2));
  for (const float s : q.scale) EXPECT_EQ(s, nn::kDegenerateQuantScale);
  EXPECT_EQ(max_abs(dequantize_weights(q)), 0.0F);
}

TEST(Quantize, ZeroCalibrationImagesUseDegenerateScale) {
  // An all-zero calibration set must not produce zero (or mismatched)
  // activation scales: every layer falls back to kDegenerateQuantScale and
  // inference still runs.
  Rng rng(43);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  deployed.calibrate_int8({Tensor(1, 16, 16, 1)});  // zero-filled
  ASSERT_EQ(deployed.activation_scales().size(), deployed.convolutions().size());
  for (const float s : deployed.activation_scales()) {
    EXPECT_EQ(s, nn::kDegenerateQuantScale);
  }
  deployed.set_precision(InferencePrecision::kInt8);
  const Tensor out = deployed.upscale(Tensor(1, 12, 12, 1));
  EXPECT_EQ(out.shape(), Shape(1, 24, 24, 1));
  for (const float v : out.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Quantize, Int8ConvMatchesFloatWithinQuantNoise) {
  Rng rng(13);
  Tensor x(1, 8, 8, 4);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = nn::glorot_uniform_kernel(3, 3, 4, 6, rng);
  Tensor reference = nn::conv2d(x, w, nn::Padding::kSame);
  Tensor quantized = nn::conv2d_s8(x, max_abs(x) / 127.0F, nn::quantize_conv_weights(w),
                                   nullptr, nn::Epilogue{}, nn::Padding::kSame);
  EXPECT_EQ(quantized.shape(), reference.shape());
  // Error should be small relative to the signal.
  EXPECT_LT(max_abs_diff(reference, quantized), 0.05F * std::max(1.0F, max_abs(reference)));
}

TEST(Quantize, Int8NetworkStaysCloseToFloat) {
  Rng rng(17);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  Rng irng(19);
  deployed.calibrate_int8(natural_frames(irng, 2));
  Tensor image = data::synthesize_image(data::ImageFamily::kObjects, 32, 32, irng);
  const Tensor float_out = deployed.upscale(image);
  deployed.set_precision(InferencePrecision::kInt8);
  const Tensor int8_out = deployed.upscale(image);
  EXPECT_EQ(int8_out.shape(), float_out.shape());
  EXPECT_GT(metrics::psnr(int8_out, float_out), 35.0) << "int8 output strays too far from float";
}

TEST(Quantize, WorksOnHardwareVariant) {
  // ReLU + no input residual: the configuration that actually ships (Table 3).
  Rng rng(101);
  SesrNetwork net(hardware_variant(tiny(2)), rng);
  SesrInference deployed(net);
  Rng irng(103);
  deployed.calibrate_int8(natural_frames(irng, 1));
  Tensor image = data::synthesize_image(data::ImageFamily::kUrban, 32, 32, irng);
  const Tensor a = deployed.upscale(image);
  deployed.set_precision(InferencePrecision::kInt8);
  const Tensor b = deployed.upscale(image);
  EXPECT_EQ(b.shape(), a.shape());
  EXPECT_GT(metrics::psnr(b, a), 30.0);
}

TEST(Quantize, ConvRejectsChannelMismatch) {
  Rng rng(107);
  Tensor x(1, 4, 4, 3);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w = nn::glorot_uniform_kernel(3, 3, 2, 2, rng);
  EXPECT_THROW(nn::conv2d_s8(x, 1.0F / 127.0F, nn::quantize_conv_weights(w), nullptr,
                             nn::Epilogue{}, nn::Padding::kSame),
               std::invalid_argument);
}

TEST(Quantize, RequiresCalibration) {
  Rng rng(23);
  SesrNetwork net(tiny(2), rng);
  SesrInference deployed(net);
  EXPECT_THROW(deployed.calibrate_int8({}), std::invalid_argument);
  EXPECT_THROW(deployed.set_precision(InferencePrecision::kInt8), std::logic_error);
}

}  // namespace
}  // namespace sesr::core
