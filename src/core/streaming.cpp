#include "core/streaming.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "nn/conv_direct.hpp"
#include "nn/depth_to_space.hpp"
#include "tensor/tensor_ops.hpp"

namespace sesr::core {

const float* StreamingUpscaler::Stream::row(std::int64_t y) const {
  for (const auto& [index, data] : rows) {
    if (index == y) return data.data();
  }
  return nullptr;
}

void StreamingUpscaler::Stream::push(std::int64_t y, std::vector<float> data) {
  rows.emplace_back(y, std::move(data));
  next_row = y + 1;
}

void StreamingUpscaler::Stream::prune(std::int64_t min_needed_row) {
  while (!rows.empty() && rows.front().first < min_needed_row) rows.pop_front();
}

StreamingUpscaler::StreamingUpscaler(const SesrInference& network) : net_(network) {
  for (const CollapsedConv& conv : network.convolutions()) {
    radius_.push_back(conv.weight.shape().dim(0) / 2);
  }
}

Tensor StreamingUpscaler::upscale(const Tensor& input) {
  if (net_.precision() != InferencePrecision::kFp32) {
    throw std::invalid_argument("StreamingUpscaler: only kFp32 networks are supported");
  }
  const Shape& s = input.shape();
  if (s.n() != 1 || s.c() != 1) {
    throw std::invalid_argument("StreamingUpscaler: expects a (1, H, W, 1) Y image");
  }
  const std::int64_t height = s.h();
  const std::int64_t width = s.w();
  const auto& convs = net_.convolutions();
  const std::size_t n_convs = convs.size();
  const std::int64_t scale = net_.config().scale;
  const std::int64_t out_c = net_.config().output_channels();
  Tensor output(1, height * scale, width * scale, 1);

  // Streams: 0 = input, 1 = act0 output, 1+i = act_i output (i = 1..m),
  // n_convs = pre-shuffle tensor. Stream 1 doubles as the blue-skip source;
  // stream 0 doubles as the black-skip source.
  std::vector<Stream> streams(n_convs + 1);
  streams[0].channels = 1;
  for (std::size_t i = 1; i < n_convs; ++i) streams[i].channels = net_.config().f;
  streams[n_convs].channels = out_c;

  peak_rows_ = 0;
  peak_bytes_ = 0;
  std::int64_t shuffled = 0;  // pre-shuffle rows consumed by depth-to-space
  std::vector<float> window;  // one conv's kh input rows, reused across rows
  std::vector<float> shuffle_tmp(static_cast<std::size_t>(width * out_c));

  auto try_produce_conv = [&](std::size_t layer) -> bool {
    Stream& src = streams[layer];
    Stream& dst = streams[layer + 1];
    const std::int64_t y = dst.next_row;
    if (y >= height) return false;
    const std::int64_t r = radius_[layer];
    if (src.next_row < std::min(height, y + r + 1)) return false;  // inputs not ready
    const bool is_last = layer + 1 == n_convs;
    // The last conv consumes chain + blue skip; check the skip rows too.
    if (is_last && streams[1].next_row < std::min(height, y + r + 1)) return false;

    // Gather the kh input rows of output row y into the window (padding rows
    // read zeros); the last conv's input is the chain plus the blue skip.
    const CollapsedConv& conv = convs[layer];
    const Shape& ws = conv.weight.shape();
    const std::int64_t kh = ws.dim(0);
    const std::int64_t row_len = width * src.channels;
    window.resize(static_cast<std::size_t>(kh * row_len));
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      float* dst_row = window.data() + ky * row_len;
      const std::int64_t iy = y - r + ky;
      if (iy < 0 || iy >= height) {
        std::fill(dst_row, dst_row + row_len, 0.0F);
        continue;
      }
      const float* base = src.row(iy);
      if (base == nullptr) throw std::logic_error("StreamingUpscaler: source row pruned too early");
      std::copy(base, base + row_len, dst_row);
      if (is_last) {
        const float* skip = streams[1].row(iy);
        if (skip == nullptr) throw std::logic_error("StreamingUpscaler: skip row pruned too early");
        add_inplace(dst_row, skip, row_len);
      }
    }
    // One output row of the production SAME conv: the window is its whole
    // input (in_h = kh, no vertical padding left to add), and the horizontal
    // geometry is the full frame's.
    nn::ConvGeometry g = nn::same_geometry(1, width, src.channels, kh, ws.dim(1));
    g.in_h = kh;
    g.pad_top = 0;
    g.out_h = 1;
    const nn::Epilogue epi = is_last ? nn::Epilogue{} : net_.activation_epilogue(layer);
    std::vector<float> out(static_cast<std::size_t>(width * dst.channels));
    nn::conv2d_direct(window.data(), 1, g, conv.weight.raw(), dst.channels,
                      conv.bias ? conv.bias->raw() : nullptr, is_last ? nullptr : &epi,
                      out.data());
    if (is_last && net_.config().input_residual) {
      const float* in_row = streams[0].row(y);
      if (in_row == nullptr) throw std::logic_error("StreamingUpscaler: input row pruned too early");
      add_input_residual(out.data(), in_row, width, out_c);
    }
    dst.push(y, std::move(out));
    return true;
  };

  auto try_shuffle = [&]() -> bool {
    Stream& pre = streams[n_convs];
    if (shuffled >= height || pre.next_row <= shuffled) return false;
    const float* row = pre.row(shuffled);
    if (row == nullptr) throw std::logic_error("StreamingUpscaler: pre-shuffle row missing");
    // The row's depth-to-space writes HR rows shuffled*scale .. +scale-1,
    // contiguous in the output; x4 chains two r=2 shuffles through a temp.
    float* hr = output.raw() + shuffled * scale * width * scale;
    Shape shape(1, 1, width, out_c);
    const float* cur = row;
    for (std::int64_t left = scale; left > 1; left /= 2) {
      float* dst = left == 2 ? hr : shuffle_tmp.data();
      nn::depth_to_space_into(cur, shape, 2, dst);
      shape = Shape(1, shape.h() * 2, shape.w() * 2, shape.c() / 4);
      cur = dst;
    }
    ++shuffled;
    return true;
  };

  auto prune_and_measure = [&]() {
    // Stream 0 feeds conv 0 (radius r0) and, with the input residual, the
    // last conv's output rows (delay = pre-shuffle production).
    const std::int64_t need0_conv = streams[1].next_row - radius_[0];
    const std::int64_t need0_resid =
        net_.config().input_residual ? streams[n_convs].next_row : height;
    streams[0].prune(std::min(need0_conv, need0_resid));
    // Stream 1 feeds conv 1 and the blue skip at the last conv.
    if (n_convs > 2) {
      const std::int64_t need1_conv = streams[2].next_row - radius_[1];
      const std::int64_t need1_skip = streams[n_convs].next_row - radius_[n_convs - 1];
      streams[1].prune(std::min(need1_conv, need1_skip));
      for (std::size_t i = 2; i < n_convs; ++i) {
        streams[i].prune(streams[i + 1].next_row - radius_[i]);
      }
    }
    streams[n_convs].prune(shuffled);
    std::int64_t rows = 0;
    std::int64_t bytes = 0;
    for (const Stream& st : streams) {
      rows += static_cast<std::int64_t>(st.rows.size());
      bytes += static_cast<std::int64_t>(st.rows.size()) * width * st.channels *
               static_cast<std::int64_t>(sizeof(float));
    }
    peak_rows_ = std::max(peak_rows_, rows);
    peak_bytes_ = std::max(peak_bytes_, bytes);
  };

  // Drive: feed input rows, then advance every stage as far as possible.
  std::int64_t fed = 0;
  while (shuffled < height) {
    bool progress = false;
    if (fed < height) {
      std::vector<float> row(static_cast<std::size_t>(width));
      const float* src = input.raw() + s.offset(0, fed, 0, 0);
      std::copy(src, src + width, row.begin());
      streams[0].push(fed, std::move(row));
      ++fed;
      progress = true;
    }
    for (std::size_t layer = 0; layer < n_convs; ++layer) {
      while (try_produce_conv(layer)) progress = true;
    }
    while (try_shuffle()) progress = true;
    prune_and_measure();
    if (!progress) throw std::logic_error("StreamingUpscaler: pipeline stalled");
  }
  return output;
}

}  // namespace sesr::core
