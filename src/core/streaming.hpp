// Streaming (line-buffer) inference for the collapsed SESR network.
//
// This is the functional counterpart of the cascade fusion the NPU simulator
// prices (src/hw): the whole network advances row by row through per-layer
// line buffers, every intermediate row is computed exactly once, and peak
// memory is O(width * channels * kernel_rows) — INDEPENDENT of image height.
// It demonstrates, in running code, why the paper's narrow VGG-like collapsed
// network streams end-to-end while wide/residual-heavy nets need DRAM-sized
// buffers: the two long residuals are exactly the streams that must be
// retained across the pipeline delay, visible here as extra buffered rows.
//
// Every row runs on the production kernels: each conv output row is one
// nn::conv2d_direct call on a window of its kh input rows (bias and
// activation fused as in the planned forward), the long residuals use the
// plan's adds, and each pre-shuffle row goes through nn::depth_to_space_into.
// Each output element therefore sees the full-frame arithmetic, and the
// result is bit-identical to fp32 SesrInference::upscale (property-tested).
//
// It runs fp32 only and is a demonstration, not a serve mode: bounded-memory
// serving is the tiled path (core/tiled_inference.hpp), whose fixed arena
// does not grow with the frame.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/sesr_inference.hpp"
#include "tensor/tensor.hpp"

namespace sesr::core {

class StreamingUpscaler {
 public:
  explicit StreamingUpscaler(const SesrInference& network);

  // Upscale a (1, H, W, 1) Y image; bit-identical to network.upscale().
  // Throws std::invalid_argument unless the network is in kFp32 precision.
  Tensor upscale(const Tensor& input);

  // Instrumentation from the last upscale() call: peak rows simultaneously
  // buffered across all streams, and their fp32 storage bytes.
  std::int64_t peak_buffered_rows() const { return peak_rows_; }
  std::int64_t peak_buffered_bytes() const { return peak_bytes_; }

 private:
  struct Stream {
    std::int64_t channels = 0;
    std::int64_t next_row = 0;  // rows [0, next_row) have been produced
    std::deque<std::pair<std::int64_t, std::vector<float>>> rows;

    const float* row(std::int64_t y) const;  // nullptr if y outside [0, H)
    void push(std::int64_t y, std::vector<float> data);
    void prune(std::int64_t min_needed_row);
  };

  const SesrInference& net_;
  std::vector<std::int64_t> radius_;  // per conv layer
  std::int64_t peak_rows_ = 0;
  std::int64_t peak_bytes_ = 0;
};

}  // namespace sesr::core
