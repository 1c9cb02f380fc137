#include "tensor/scratch.hpp"

#include <array>
#include <atomic>
#include <vector>

namespace sesr {

namespace {

constexpr std::size_t kSlots = static_cast<std::size_t>(ScratchSlot::kSlotCount);

// Monotone trim epoch: scratch_trim() bumps it, each thread catches up (and
// releases capacity) lazily at its next scratch request.
std::atomic<std::uint64_t> g_trim_epoch{0};

// One thread's buffers for every slot. Each buffer carries the trim epoch it
// has caught up to, and a stale buffer is released only when THAT buffer is
// requested again — never as a side effect of touching another slot — so the
// ownership contract ("a span is valid until the same slot is requested again
// on the same thread") survives a concurrent scratch_trim(): a kernel holding
// spans from several slots can keep using all of them until it re-enters.
struct ThreadScratch {
  std::array<std::vector<float>, kSlots> floats;
  std::array<std::vector<std::uint8_t>, kSlots> bytes;
  std::array<std::uint64_t, kSlots> float_epoch{};
  std::array<std::uint64_t, kSlots> byte_epoch{};

  template <typename Buf>
  static void catch_up_trim(Buf& buf, std::uint64_t& epoch) {
    const std::uint64_t now = g_trim_epoch.load(std::memory_order_relaxed);
    if (epoch == now) return;
    epoch = now;
    buf.clear();
    buf.shrink_to_fit();
  }
};

ThreadScratch& thread_scratch() {
  thread_local ThreadScratch scratch;
  return scratch;
}

}  // namespace

std::span<float> scratch_floats(ScratchSlot slot, std::size_t n) {
  ThreadScratch& ts = thread_scratch();
  const std::size_t i = static_cast<std::size_t>(slot);
  std::vector<float>& buf = ts.floats[i];
  ThreadScratch::catch_up_trim(buf, ts.float_epoch[i]);
  if (buf.size() < n) buf.resize(n);  // never shrinks between trims: capacity is retained
  return {buf.data(), n};
}

std::span<std::uint8_t> scratch_bytes(ScratchSlot slot, std::size_t n) {
  ThreadScratch& ts = thread_scratch();
  const std::size_t i = static_cast<std::size_t>(slot);
  std::vector<std::uint8_t>& buf = ts.bytes[i];
  ThreadScratch::catch_up_trim(buf, ts.byte_epoch[i]);
  if (buf.size() < n) buf.resize(n);
  return {buf.data(), n};
}

void scratch_trim() { g_trim_epoch.fetch_add(1, std::memory_order_relaxed); }

std::size_t scratch_thread_retained_bytes() {
  const ThreadScratch& ts = thread_scratch();
  std::size_t total = 0;
  for (const auto& b : ts.floats) total += b.capacity() * sizeof(float);
  for (const auto& b : ts.bytes) total += b.capacity();
  return total;
}

}  // namespace sesr
