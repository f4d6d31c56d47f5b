// Immutable, shareable byte payload for the simulated data plane.
//
// Messages and redundancy protocols slice, mirror and forward the same
// bytes many times per logical block.  Carrying them as std::vector means
// every hop pays an allocation plus a memcpy -- which dominates wall-clock
// in the large perf sweeps even though the *simulated* outcome depends only
// on payload sizes.  Payload fixes both:
//   * storage-backed payloads share one immutable buffer; slice() is O(1)
//     pointer math, so striping a chunk across disks and cloning a block to
//     its mirror copy no byte at all;
//   * a zero-run payload carries only a length (is_zeros()), representing
//     "n bytes, all zero" with no storage -- exactly what a disk with
//     store_data=false returns, so pure-timing sweeps never materialize the
//     gigabytes they move.
// Sizes are always exact (wire_bytes(), nblocks and every simulated cost
// derive from size()), which keeps results byte-identical to the vector
// representation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

namespace raidx::block {

class Payload {
 public:
  Payload() = default;

  /// Take ownership of `bytes` (one shared buffer, no copy).
  explicit Payload(std::vector<std::byte> bytes)
      : base_(std::make_shared<const std::vector<std::byte>>(
            std::move(bytes))),
        len_(base_->size()) {}

  /// A run of `n` zero bytes with no backing storage.
  static Payload zeros(std::size_t n) {
    Payload p;
    p.len_ = n;
    return p;
  }

  static Payload own(std::vector<std::byte> bytes) {
    return Payload(std::move(bytes));
  }

  /// Copy `bytes` into fresh shared storage.
  static Payload copy(std::span<const std::byte> bytes) {
    return Payload(std::vector<std::byte>(bytes.begin(), bytes.end()));
  }

  /// Like copy(), but all-zero input becomes a zero-run with no storage.
  /// Cache fills use it: a disk with store_data=false reads back zeros,
  /// and a zero-run holds them at no memory cost.
  static Payload copy_or_zeros(std::span<const std::byte> bytes) {
    return all_zero(bytes) ? zeros(bytes.size()) : copy(bytes);
  }

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  /// True when the payload has no backing storage: every byte reads as 0.
  bool is_zeros() const { return base_ == nullptr; }

  /// O(1) sub-range sharing the same storage (or the same zero-run).
  /// Zero-run slices stay canonical (offset 0, no storage): a zero-run
  /// has no buffer for the offset to index into, and carrying a stale
  /// nonzero offset invites any consumer that mixes is_zeros() checks
  /// with offset arithmetic -- the checksum plane does both -- to compute
  /// different answers for a sliced zero-run and its materialized bytes.
  Payload slice(std::size_t off, std::size_t len) const {
    assert(off + len <= len_);
    Payload p;
    p.base_ = base_;
    p.off_ = base_ != nullptr ? off_ + off : 0;
    p.len_ = len;
    return p;
  }

  /// Bytes of a storage-backed payload.  Only valid when !is_zeros();
  /// zero-runs have no storage to view.
  std::span<const std::byte> bytes() const {
    assert(!is_zeros());
    return std::span<const std::byte>(base_->data() + off_, len_);
  }

  /// Copy `out.size()` bytes starting at offset `from` into `out`
  /// (a memset for zero-runs).
  void copy_to(std::span<std::byte> out, std::size_t from = 0) const {
    assert(from + out.size() <= len_);
    if (is_zeros()) {
      std::fill(out.begin(), out.end(), std::byte{0});
    } else {
      std::copy_n(base_->data() + off_ + from, out.size(), out.begin());
    }
  }

  std::vector<std::byte> to_vector() const {
    std::vector<std::byte> v(len_);
    copy_to(v);
    return v;
  }

 private:
  /// True when every byte is 0.  ORs 64-bit words in fixed 256-byte steps
  /// (a loop the compiler vectorizes) and stops at the first nonzero step,
  /// so real data usually pays for one step.
  static bool all_zero(std::span<const std::byte> bytes) {
    constexpr std::size_t kStep = 256;
    const std::byte* p = bytes.data();
    std::size_t n = bytes.size();
    for (; n >= kStep; p += kStep, n -= kStep) {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < kStep; i += sizeof(std::uint64_t)) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, sizeof(w));
        acc |= w;
      }
      if (acc != 0) return false;
    }
    std::byte tail{0};
    for (std::size_t i = 0; i < n; ++i) tail |= p[i];
    return tail == std::byte{0};
  }

  std::shared_ptr<const std::vector<std::byte>> base_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

/// acc ^= src.  Zero-runs are no-ops (x ^ 0 == x).
inline void xor_into(std::span<std::byte> acc, const Payload& src) {
  assert(acc.size() == src.size());
  if (src.is_zeros()) return;
  const std::span<const std::byte> s = src.bytes();
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= s[i];
}

}  // namespace raidx::block
