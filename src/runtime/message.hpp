#pragma once
// Messages and typed pack/unpack buffers for the HBSPlib-like runtime.
//
// The paper's HBSPlib sits on PVM, whose programs pack typed data into a
// send buffer and unpack on receipt. PackBuffer/UnpackBuffer reproduce that
// programming surface; Message is the delivered unit. A message carries an
// explicit `items` count for the cost model (the paper counts abstract
// packets — its experiments use 4-byte integers), decoupled from payload
// bytes.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace hbsp::rt {

/// A delivered message: available from the superstep after it was sent.
struct Message {
  int src_pid = -1;
  int tag = 0;
  std::size_t items = 0;  ///< model packets, for cost accounting
  std::vector<std::byte> payload;

  /// Appends the payload, reinterpreted as trivially-copyable T values, to
  /// `values` with one memcpy; throws std::length_error (leaving `values`
  /// untouched) if the payload size is not a multiple of sizeof(T).
  template <typename T>
  void append_to(std::vector<T>& values) const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (payload.size() % sizeof(T) != 0) {
      throw std::length_error{"Message: payload size mismatch"};
    }
    if (payload.empty()) return;
    const std::size_t old_size = values.size();
    values.resize(old_size + payload.size() / sizeof(T));
    std::memcpy(values.data() + old_size, payload.data(), payload.size());
  }

  /// The payload as a fresh vector of T values; throws like append_to.
  template <typename T>
  [[nodiscard]] std::vector<T> unpack_all() const {
    std::vector<T> values;
    append_to(values);
    return values;
  }
};

/// Append-only typed send buffer (PVM pvm_pk* style).
class PackBuffer {
 public:
  template <typename T>
  void pack(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* bytes = reinterpret_cast<const std::byte*>(&value);
    bytes_.insert(bytes_.end(), bytes, bytes + sizeof(T));
  }

  template <typename T>
  void pack_span(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* bytes = reinterpret_cast<const std::byte*>(values.data());
    bytes_.insert(bytes_.end(), bytes, bytes + values.size_bytes());
  }

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::byte> take() noexcept { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  void clear() noexcept { bytes_.clear(); }

 private:
  std::vector<std::byte> bytes_;
};

/// Recycles payload vectors between supersteps so a replay-style program
/// stops paying one allocation per message.
///
/// Hbsp::send takes ownership of its payload vector and recv_all hands the
/// delivered payloads back, so the natural lifecycle is: acquire() a buffer
/// per send, then recycle() everything recv_all returned once the superstep's
/// messages are consumed. acquire() zero-fills, so a recycled buffer is
/// indistinguishable from a fresh one.
///
/// NOT thread-safe by design: the runtime invokes the same Program from every
/// pid thread, so each invocation keeps its own pool as a local (per-thread)
/// variable. acquires()/reuses() let callers publish deterministic totals —
/// the per-pid counts are a pure function of the program, independent of
/// thread scheduling.
class BufferPool {
 public:
  /// A zero-filled buffer of `bytes` bytes, reusing pooled capacity when any
  /// is available.
  [[nodiscard]] std::vector<std::byte> acquire(std::size_t bytes) {
    ++acquires_;
    if (free_.empty()) return std::vector<std::byte>(bytes, std::byte{0});
    ++reuses_;
    std::vector<std::byte> buffer = std::move(free_.back());
    free_.pop_back();
    buffer.assign(bytes, std::byte{0});
    return buffer;
  }

  /// Returns one buffer's storage to the pool.
  void release(std::vector<std::byte>&& buffer) {
    free_.push_back(std::move(buffer));
  }

  /// Strips the payloads off delivered messages and pools their storage.
  void recycle(std::vector<Message>&& messages) {
    for (Message& message : messages) {
      free_.push_back(std::move(message.payload));
    }
  }

  [[nodiscard]] std::size_t pooled() const noexcept { return free_.size(); }
  [[nodiscard]] std::size_t acquires() const noexcept { return acquires_; }
  [[nodiscard]] std::size_t reuses() const noexcept { return reuses_; }

 private:
  std::vector<std::vector<std::byte>> free_;
  std::size_t acquires_ = 0;
  std::size_t reuses_ = 0;
};

/// Sequential typed reader over a message payload (PVM pvm_upk* style).
class UnpackBuffer {
 public:
  explicit UnpackBuffer(std::span<const std::byte> bytes) : bytes_(bytes) {}
  explicit UnpackBuffer(const Message& message) : bytes_(message.payload) {}

  template <typename T>
  [[nodiscard]] T unpack() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (offset_ + sizeof(T) > bytes_.size()) {
      throw std::out_of_range{"UnpackBuffer: read past end"};
    }
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> unpack_span(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (offset_ + count * sizeof(T) > bytes_.size()) {
      throw std::out_of_range{"UnpackBuffer: read past end"};
    }
    std::vector<T> values(count);
    if (count > 0) {
      std::memcpy(values.data(), bytes_.data() + offset_, count * sizeof(T));
    }
    offset_ += count * sizeof(T);
    return values;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - offset_;
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
};

}  // namespace hbsp::rt
