// Byte-level codec for checkpoint snapshots (DESIGN.md §13).
//
// Same wire idioms as trace/binary_io.h — LEB128 varints with a 10-byte
// overlong cap, doubles as raw little-endian IEEE bits, FNV-1a checksums —
// but factored into reusable ByteWriter/ByteReader pieces so every sink can
// serialize its merge-protocol state into a named section without touching
// file framing. Doubles round-trip as bit patterns, never through text:
// restoring a checkpoint must reproduce the parent sink state *exactly*,
// or the bit-identity guarantee of a resumed run is gone.
//
// All reader errors are positioned util::Status values ("truncated
// checkpoint: EOF mid-<field> at offset N") so a torn or tampered snapshot
// is always diagnosable, mirroring the binary trace reader.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace wildenergy::ckpt {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// One FNV-1a round: fold a byte into a running hash. Streaming readers and
/// writers (trace/binary_io.cpp) checksum as they go instead of buffering.
[[nodiscard]] constexpr std::uint64_t fnv1a_step(std::uint64_t hash, std::uint8_t byte) {
  return (hash ^ byte) * kFnvPrime;
}

/// FNV-1a over a byte range (same polynomial as the WETR trace format).
[[nodiscard]] std::uint64_t fnv1a(std::string_view data);

// --- Shared varint primitives -------------------------------------------
//
// One definition of the LEB128 wire idiom for every format in the repo
// (checkpoint snapshots, WETR trace streams, WESG trace segments). The
// encode/decode loops are templated over a byte callback so both buffered
// (ByteWriter/ByteReader) and streaming (istream) transports share the exact
// same overlong-rejection rules; the callers keep their own positioned
// diagnostics.

/// 10 7-bit groups cover 64 bits; an 11th continuation byte is always corrupt.
inline constexpr int kMaxVarintBytes = 10;

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Why a primitive varint decode failed: truncation is expected in the wild;
/// an overlong varint is always corruption. Callers map these onto their own
/// error surface (util::Status here, ReadFail in the trace reader).
enum class VarintFail : std::uint8_t { kOk = 0, kEof, kOverlong };

/// `put_byte` is invoked once per encoded byte, low groups first.
template <typename PutByte>
void encode_varint(std::uint64_t value, PutByte&& put_byte) {
  while (value >= 0x80) {
    put_byte(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  put_byte(static_cast<std::uint8_t>(value));
}

/// `get_byte` is `bool(std::uint8_t&)` returning false at end of input.
/// Bytes are consumed up to and including the offending one, so transports
/// that track offsets or running checksums stay positioned on failure.
template <typename GetByte>
[[nodiscard]] VarintFail decode_varint(std::uint64_t& value, GetByte&& get_byte) {
  value = 0;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    std::uint8_t byte = 0;
    if (!get_byte(byte)) return VarintFail::kEof;
    // The last byte may only contribute the top bit of the 64-bit value:
    // anything else (including a continuation bit) is an overlong varint.
    if (i == kMaxVarintBytes - 1 && byte > 1) return VarintFail::kOverlong;
    value |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) return VarintFail::kOk;
  }
  return VarintFail::kOverlong;
}

/// Bounded cursor over raw bytes [pos, end): the one in-memory decoder.
/// Hot loops (trace/segment.cpp replays every packet through it) call the
/// inline accessors directly and build a positioned status only when one
/// fails; ByteReader wraps it with field-named util::Status errors. A failed
/// read leaves the cursor where decode_varint stopped (varint) or unmoved
/// (u8/f64), so offset-reporting callers stay positioned.
class SpanCursor {
 public:
  SpanCursor(const char* begin, const char* end) : pos_(begin), end_(end) {}

  [[nodiscard]] VarintFail varint(std::uint64_t& value) {
    // One-byte fast path: most deltas, app ids and small counts.
    if (pos_ != end_ && static_cast<std::uint8_t>(*pos_) < 0x80) {
      value = static_cast<std::uint8_t>(*pos_++);
      return VarintFail::kOk;
    }
    return decode_varint(value, [this](std::uint8_t& byte) {
      if (pos_ == end_) return false;
      byte = static_cast<std::uint8_t>(*pos_++);
      return true;
    });
  }

  [[nodiscard]] bool u8(std::uint8_t& value) {
    if (pos_ == end_) return false;
    value = static_cast<std::uint8_t>(*pos_++);
    return true;
  }

  /// Raw little-endian IEEE-754 bits (ByteWriter::put_f64's encoding).
  [[nodiscard]] bool f64(double& value) {
    if (remaining() < 8) return false;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(pos_[i])) << (8 * i);
    }
    pos_ += 8;
    value = std::bit_cast<double>(bits);
    return true;
  }

  [[nodiscard]] const char* pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return static_cast<std::size_t>(end_ - pos_); }
  [[nodiscard]] bool at_end() const { return pos_ == end_; }

 private:
  const char* pos_;
  const char* end_;
};

/// Append-only byte buffer with the checkpoint wire primitives.
class ByteWriter {
 public:
  void put_u8(std::uint8_t value) { buf_.push_back(static_cast<char>(value)); }
  void put_varint(std::uint64_t value);
  /// Raw little-endian IEEE-754 bits: bit-exact round trip, NaN-safe.
  void put_f64(double value);
  /// varint length + raw bytes.
  void put_string(std::string_view text);
  void put_bytes(std::string_view raw) { buf_.append(raw); }

  /// Raw output window for hot encoders (trace/segment.cpp): grows the
  /// buffer by `max_bytes` and returns where to write; close_window(end)
  /// trims the buffer to the bytes actually written. Nothing may be put
  /// between the two calls.
  [[nodiscard]] char* open_window(std::size_t max_bytes) {
    const std::size_t base = buf_.size();
    buf_.resize(base + max_bytes);
    return buf_.data() + base;
  }
  void close_window(const char* end) {
    buf_.resize(static_cast<std::size_t>(end - buf_.data()));
  }

  void put_f64_span(std::span<const double> values);
  void put_u64_span(std::span<const std::uint64_t> values);
  void put_bool_vec(const std::vector<bool>& values);

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Cursor over a serialized snapshot. Every accessor names the field it is
/// decoding so failures carry both *what* was being read and *where*. The
/// primitive reads delegate to SpanCursor, so the tree has one decoder.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] util::StatusOr<std::uint8_t> get_u8(std::string_view field);
  [[nodiscard]] util::StatusOr<std::uint64_t> get_varint(std::string_view field);
  [[nodiscard]] util::StatusOr<double> get_f64(std::string_view field);
  [[nodiscard]] util::StatusOr<std::string> get_string(std::string_view field);
  [[nodiscard]] util::StatusOr<std::string_view> get_bytes(std::size_t count,
                                                           std::string_view field);

  util::Status get_f64_span(std::span<double> out, std::string_view field);
  /// Self-sized counterpart of put_f64_span: reads the count prefix too.
  [[nodiscard]] util::StatusOr<std::vector<double>> get_f64_vec(std::string_view field);
  util::Status get_u64_span(std::span<std::uint64_t> out, std::string_view field);
  util::Status get_bool_vec(std::vector<bool>& out, std::string_view field);

  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

 private:
  [[nodiscard]] util::Status truncated(std::string_view field) const;
  [[nodiscard]] SpanCursor cursor() const {
    return {data_.data() + pos_, data_.data() + data_.size()};
  }
  void advance_to(const SpanCursor& cursor) {
    pos_ = static_cast<std::size_t>(cursor.pos() - data_.data());
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace wildenergy::ckpt
