#include "tensor/serialize.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace sesr {

namespace {
constexpr std::array<char, 4> kMagic{'S', 'E', 'S', 'R'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("serialize: truncated stream");
  return v;
}

// Bytes from the read position to the end of the stream; unbounded when the
// stream cannot seek.
std::uint64_t bytes_left(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return std::numeric_limits<std::uint64_t>::max();
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  return static_cast<std::uint64_t>(end - here);
}

// A tensor record that must fit in the `max_bytes` left in the input. Length
// fields are hostile: the dims are checked against that budget by division,
// so no product overflows and nothing is allocated for data the input cannot
// hold.
Tensor read_tensor_within(std::istream& is, std::uint64_t max_bytes) {
  std::array<std::int64_t, 4> dims{};
  for (auto& d : dims) d = read_pod<std::int64_t>(is);
  Shape shape(dims[0], dims[1], dims[2], dims[3]);
  if (!shape.valid()) throw std::runtime_error("serialize: invalid shape " + shape.to_string());
  constexpr std::uint64_t kDimsBytes = sizeof(dims);
  std::uint64_t elems_left = (max_bytes > kDimsBytes ? max_bytes - kDimsBytes : 0) / sizeof(float);
  for (const std::int64_t d : dims) {
    if (static_cast<std::uint64_t>(d) > elems_left) {
      throw std::runtime_error("serialize: tensor " + shape.to_string() +
                               " exceeds the remaining input");
    }
    elems_left /= static_cast<std::uint64_t>(d);
  }
  Tensor t(shape);
  is.read(reinterpret_cast<char*>(t.raw()),
          static_cast<std::streamsize>(t.numel() * static_cast<std::int64_t>(sizeof(float))));
  if (!is) throw std::runtime_error("serialize: truncated tensor data");
  return t;
}
}  // namespace

void write_tensor(std::ostream& os, const Tensor& t) {
  for (int i = 0; i < 4; ++i) write_pod(os, t.shape().dim(i));
  os.write(reinterpret_cast<const char*>(t.raw()),
           static_cast<std::streamsize>(t.numel() * static_cast<std::int64_t>(sizeof(float))));
  if (!os) throw std::runtime_error("serialize: write failed");
}

Tensor read_tensor(std::istream& is) { return read_tensor_within(is, bytes_left(is)); }

void save_tensors(const std::string& path, const TensorMap& tensors) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_tensors: cannot open " + path);
  os.write(kMagic.data(), kMagic.size());
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint64_t>(tensors.size()));
  for (const auto& [name, tensor] : tensors) {
    write_pod(os, static_cast<std::uint64_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_tensor(os, tensor);
  }
  if (!os) throw std::runtime_error("save_tensors: write failed for " + path);
}

TensorMap load_tensors(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_tensors: cannot open " + path);
  // Every length field is bounded by what the file still holds before
  // anything is allocated for it.
  const std::uint64_t file_size = bytes_left(is);
  const auto left = [&] { return file_size - static_cast<std::uint64_t>(is.tellg()); };
  std::array<char, 4> magic{};
  is.read(magic.data(), magic.size());
  if (!is || magic != kMagic) throw std::runtime_error("load_tensors: bad magic in " + path);
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kVersion) {
    throw std::runtime_error("load_tensors: unsupported version " + std::to_string(version));
  }
  const auto count = read_pod<std::uint64_t>(is);
  TensorMap out;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto name_len = read_pod<std::uint64_t>(is);
    if (name_len > left()) throw std::runtime_error("load_tensors: name longer than the file");
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    if (!is) throw std::runtime_error("load_tensors: truncated name");
    out.emplace(std::move(name), read_tensor_within(is, left()));
  }
  return out;
}

}  // namespace sesr
