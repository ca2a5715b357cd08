// Pooled, reference-counted packet buffers for the simulator datapath.
//
// Steady-state packet flow (encode → inject → impair → deliver) reuses a
// small working set of byte vectors instead of allocating one per packet:
// encode_into() fills a PacketBuf acquired from the fabric's BufferPool,
// every hop passes either the 8-byte handle (delivery lambdas, duplicate
// copies — a refcount bump, not a byte copy) or a borrowed PacketView
// (taps, filters, Endpoint::handle_packet), and the last handle to go out
// of scope returns the vector — capacity intact — to the pool's free list.
//
// Blocks come in two size classes, each with its own free list. acquire()
// takes the wire size the caller is about to encode: a packet of at most
// kSmallBlockBytes (SYN, SYN/ACK, RST, pure ACK, a short request) takes a
// small block of exactly that capacity, anything longer a large block
// grown to the longest packet it has carried. The tens of thousands of
// 40-byte segments a sweep holds in flight therefore never pin a block
// that once carried a 576-byte data segment.
//
// Ownership rules (see DESIGN.md §Performance):
//   * Refcounts are not atomic. A pool and all handles to its buffers
//     belong to one shard (one EventLoop); never pass a PacketBuf across
//     threads.
//   * bytes() is mutate-before-share: only the sole handle to a freshly
//     acquired buffer may write, before any copy of the handle exists.
//   * A PacketView borrows; it is valid only for the duration of the call
//     it is passed to. Receivers that keep packet bytes must copy them.
//   * Handles may outlive their pool (e.g. parked in a not-yet-fired
//     delivery event while the Network is torn down): the pool core is
//     orphaned and buffers are freed — not recycled — as the last handles
//     release them.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "netbase/wire.hpp"

namespace iwscan::net {

/// Read-only borrow of a packet's wire bytes.
using PacketView = std::span<const std::uint8_t>;

class BufferPool;

/// Capacity of a small block: a 40-byte TCP/IP header plus 24 bytes of
/// options or payload, which holds every control segment and the sweep's
/// handshake-ACK request.
inline constexpr std::size_t kSmallBlockBytes = 64;

namespace detail {

struct PoolCore;

struct PacketBlock {
  Bytes data;
  std::uint32_t refs = 0;
  PacketBlock* next_free = nullptr;
  PoolCore* core = nullptr;
};

// Heap-allocated so in-flight buffers can outlive the pool object: the
// pool's destructor marks the core closed and drops the free list; the
// last outstanding handle then frees its block and, once nothing remains
// outstanding, the core itself.
struct PoolCore {
  PacketBlock* small_free = nullptr;  // capacity <= kSmallBlockBytes
  PacketBlock* large_free = nullptr;  // capacity > kSmallBlockBytes
  std::size_t outstanding = 0;
  bool closed = false;
};

inline void release_block(PacketBlock* block) noexcept {
  if (--block->refs != 0) return;
  PoolCore* core = block->core;
  --core->outstanding;
  if (core->closed) {
    delete block;
    if (core->outstanding == 0) delete core;
    return;
  }
  block->data.clear();  // keeps capacity for the next acquire()
  PacketBlock*& head = block->data.capacity() <= kSmallBlockBytes ? core->small_free
                                                                   : core->large_free;
  block->next_free = head;
  head = block;
}

}  // namespace detail

/// Shared handle to one pooled packet buffer. Copying shares (refcount
/// bump); the buffer recycles when the last handle releases it.
class PacketBuf {
 public:
  PacketBuf() noexcept = default;
  PacketBuf(const PacketBuf& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  PacketBuf(PacketBuf&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  PacketBuf& operator=(const PacketBuf& other) noexcept {
    PacketBuf(other).swap(*this);
    return *this;
  }
  PacketBuf& operator=(PacketBuf&& other) noexcept {
    PacketBuf(std::move(other)).swap(*this);
    return *this;
  }
  ~PacketBuf() { reset(); }

  void swap(PacketBuf& other) noexcept { std::swap(block_, other.block_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return block_ != nullptr;
  }
  [[nodiscard]] PacketView view() const noexcept {
    return block_ != nullptr ? PacketView{block_->data} : PacketView{};
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return block_ != nullptr ? block_->data.size() : 0;
  }

  /// Mutable bytes for filling right after acquire(). Mutate-before-share:
  /// calling this once any other handle to the block exists breaks the
  /// stability readers of those handles rely on.
  [[nodiscard]] Bytes& bytes() noexcept { return block_->data; }

  /// Move the bytes out (bridge to owning net::Bytes consumers); copies
  /// when the block is shared. Leaves this handle null.
  [[nodiscard]] Bytes take_bytes() {
    if (block_ == nullptr) return {};
    Bytes out;
    if (block_->refs == 1) {
      out = std::move(block_->data);
    } else {
      out.assign(block_->data.begin(), block_->data.end());
    }
    reset();
    return out;
  }

  void reset() noexcept {
    if (block_ != nullptr) {
      detail::release_block(block_);
      block_ = nullptr;
    }
  }

 private:
  friend class BufferPool;
  explicit PacketBuf(detail::PacketBlock* block) noexcept : block_(block) {}

  detail::PacketBlock* block_ = nullptr;
};

/// Free lists of recycled packet buffers, one per size class. One pool per
/// Network (one per shard): single-threaded by construction, like the
/// EventLoop it feeds.
class BufferPool {
 public:
  BufferPool() : core_(new detail::PoolCore) {}
  ~BufferPool() {
    core_->closed = true;
    for (detail::PacketBlock* block : {core_->small_free, core_->large_free}) {
      while (block != nullptr) {
        delete std::exchange(block, block->next_free);
      }
    }
    if (core_->outstanding == 0) delete core_;
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// An empty buffer (uniquely held; fill via bytes() before sharing) that
  /// holds `bytes` without reallocating. A request of at most
  /// kSmallBlockBytes takes a small block; a larger one takes the most
  /// recently freed large block, grown to `bytes` if it is shorter.
  [[nodiscard]] PacketBuf acquire(std::size_t bytes) {
    const bool small = bytes <= kSmallBlockBytes;
    detail::PacketBlock* block = take(small ? core_->small_free : core_->large_free);
    const std::size_t capacity = small ? kSmallBlockBytes : bytes;
    if (block->data.capacity() < capacity) {
      // iwlint: allow(hot-path) -- sizes a fresh block, or grows a large one
      // to a longer packet; growth stops at the scan's largest packet
      block->data.reserve(capacity);
    }
    return PacketBuf{block};
  }

  /// Wrap an existing byte vector (compat path for callers that still
  /// build owned net::Bytes); its capacity joins the pool on release.
  [[nodiscard]] PacketBuf adopt(Bytes&& bytes) {
    detail::PacketBlock* block = take(bytes.capacity() <= kSmallBlockBytes
                                          ? core_->small_free
                                          : core_->large_free);
    block->data = std::move(bytes);
    return PacketBuf{block};
  }

  /// Buffers currently held by handles (diagnostics/tests).
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return core_->outstanding;
  }

 private:
  /// Pops the head of `free_list`, or makes a capacity-less block when it
  /// is empty; either way the block is counted outstanding with one ref.
  detail::PacketBlock* take(detail::PacketBlock*& free_list) {
    detail::PacketBlock* block = free_list;
    if (block != nullptr) {
      free_list = block->next_free;
    } else {
      // iwlint: allow(hot-path) -- pool-miss path: the free lists serve every
      // steady-state acquire; growth stops at the scan's high-water mark
      block = new detail::PacketBlock;
      block->core = core_;
    }
    block->refs = 1;
    ++core_->outstanding;
    return block;
  }

  detail::PoolCore* core_;
};

}  // namespace iwscan::net
