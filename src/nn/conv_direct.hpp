// Direct (im2col-free) forward for stride-1 SAME convolutions.
//
// conv2d_impl (src/nn/conv2d.cpp) routes every stride-1 SAME conv with
// kh*kw > 1 here, and so do the fp16 conv entry points; strided, VALID,
// zero-skip and 1x1 convs keep the im2col / GEMM path. Instead of lowering a
// stripe into an im2col matrix and packing that into GEMM panels, each stripe
// of whole output rows copies its input rows once into a zero-padded staging
// buffer, and the register tiles read the A operand straight from it through
// a per-k offset table:
//  - wide tile (out_c > 4): 6 output pixels x 16 output channels. A is
//    broadcast from NHWC staging; B is the HWIO weight itself (already the
//    row-major [kh*kw*cin][out_c] GEMM operand), read in 16-column panels,
//    with a zero-padded copy of the last partial panel;
//  - narrow tile (out_c <= 4, the x2 tail): 16 output pixels on the vector
//    lanes x up to 4 broadcast weights. A is a contiguous load from
//    channel-planar staging.
// Every output element keeps gemm_tiled's arithmetic: k is summed in order in
// kGemmKc blocks, the first block is stored with the bias, later blocks are
// added to the stored value, and the activation is applied after the last
// block. The result is bit-identical to im2col_rows + gemm_fused under the
// same GemmIsa dispatch, for any thread count.
//
// fp16 storage is fp32 arithmetic on exactly widened binary16 operands: the
// staging copy widens binary16 input rows as it stages them, and a half
// output rounds each finished fp32 stripe once on store. So the fp16 forward
// is bit-identical to this fp32 forward on the widened input and weight.
#pragma once

#include <cstdint>

#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "tensor/fp16.hpp"

namespace sesr::nn {

// `input` holds `batch` NHWC images of g.in_h x g.in_w x g.channels. `g` must
// have stride 1 and be SAME horizontally (out_w == in_w, pad_left as
// same_geometry sets it); vertically any pad_top and out_h are allowed:
// output row oy reads input rows oy - pad_top .. oy - pad_top + kh - 1, and
// rows outside [0, in_h) read as zeros. So a window of input rows with
// pad_top / out_h chosen to match computes exactly the corresponding rows of
// the full-frame SAME conv (the streaming upscaler runs one output row per
// call this way). `weight` is HWIO [g.kh][g.kw][g.channels][out_c]; `bias`
// (out_c values) and `epi` may be null. `out` receives batch * g.rows() *
// out_c floats.
void conv2d_direct(const float* input, std::int64_t batch, const ConvGeometry& g,
                   const float* weight, std::int64_t out_c, const float* bias, const Epilogue* epi,
                   float* out);

// Binary16 input; the weight is already widened to fp32. Exactly one of
// `out` (fp32 result) and `out_half` (the result rounded to binary16) is
// non-null.
void conv2d_direct(const fp16::Half* input, std::int64_t batch, const ConvGeometry& g,
                   const float* weight, std::int64_t out_c, const float* bias, const Epilogue* epi,
                   float* out, fp16::Half* out_half);

}  // namespace sesr::nn
