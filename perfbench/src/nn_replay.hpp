// Step-by-step replay of the collapsed forward through the nn kernels.
//
// The traced run cannot see inside SesrInference::upscale_into, so it replays
// the same dataflow one layer down: each conv through conv2d_into /
// conv2d_fp16_into / conv2d_fp16_to_float_into / conv2d_s8_into and the
// shuffle through depth_to_space_into, with the network's real weights, epilogues
// and activation scales, in the order the planned executor runs them. Each
// kernel call is timed; the residual adds and precision conversions between
// them are executor glue and stay untimed (they land in plan self time).
#pragma once

#include <vector>

#include "common.hpp"
#include "tensor/fp16.hpp"
#include "trace.hpp"

namespace perfbench {

struct StepTimes {
  std::vector<double> conv_ms;  // one per conv: head, m body convs, tail
  double d2s_ms = 0.0;
};

class NnReplay {
 public:
  // `net` carries the precision to replay; buffers are sized for (1, h, w, 1).
  NnReplay(const SesrInference& net, std::int64_t h, std::int64_t w);

  // Runs one forward into `out` (1, scale*h, scale*w, 1). With a tracer, every
  // kernel call becomes a span under `parent`.
  StepTimes run(const Tensor& input, Tensor& out, Tracer* tracer = nullptr,
                std::int64_t parent = Tracer::kNoParent, std::uint64_t request = 0);

  // Multiply-accumulates of conv `i` at this shape, and the bytes its
  // operands occupy (input, weights, output) at the replayed precision.
  double conv_macs(std::size_t i) const;
  double conv_bytes(std::size_t i) const;

 private:
  bool conv_is_int8(std::size_t i) const;

  const SesrInference& net_;
  std::int64_t h_;
  std::int64_t w_;
  std::vector<float> feat_[3];       // fp32 carrier: skip, ping, pong
  std::vector<float> tail_;          // pre-shuffle output
  std::vector<float> x_float_;       // fp16: widened rounded input
  std::vector<sesr::fp16::Half> half_[4];  // fp16: input, skip, ping, pong
};

}  // namespace perfbench
