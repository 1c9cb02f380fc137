// Minimal binary serialization for tensors and named-parameter checkpoints.
//
// Format ("SESR" magic, version 1, little-endian):
//   header:  char[4] "SESR" | u32 version | u64 entry_count
//   entry:   u64 name_len | name bytes | i64 dims[4] | f32 data[numel]
//
// Used by the examples to save a trained (expanded) model and reload either the
// expanded model or its collapsed deployment form.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "tensor/tensor.hpp"

namespace sesr {

// A named set of tensors, e.g. all parameters of a model keyed by layer path.
using TensorMap = std::map<std::string, Tensor>;

// Loading treats every length field as hostile: read_tensor and load_tensors
// throw std::runtime_error for a name or tensor larger than the bytes the
// (seekable) input still holds, before allocating anything for it.
void write_tensor(std::ostream& os, const Tensor& t);
Tensor read_tensor(std::istream& is);

void save_tensors(const std::string& path, const TensorMap& tensors);
TensorMap load_tensors(const std::string& path);

}  // namespace sesr
