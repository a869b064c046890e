#ifndef VC_COMMON_BITIO_H_
#define VC_COMMON_BITIO_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace vc {

/// \brief MSB-first bit writer used by the codec entropy layer and the
/// container format.
///
/// Supports fixed-width fields, unsigned/signed Exp-Golomb codes (as in
/// H.264/HEVC), and byte alignment. The writer owns its output buffer.
///
/// Pending bits live in a 64-bit accumulator and drain to the byte buffer in
/// whole bytes; the hot methods are header-inline because the entropy layer
/// calls them on the order of 10⁸ times per encoded segment.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `bits` bits of `value`, MSB first. `bits` in [0, 64].
  void WriteBits(uint64_t value, int bits) {
    assert(bits >= 0 && bits <= 64);
    if (bits < 64) {
      assert((bits == 0 && value == 0) || (value >> bits) == 0);
    }
    if (bits > 56) {
      // Split so the accumulator shift below stays < 64 even with up to 7
      // pending bits.
      WriteBits(value >> 32, bits - 32);
      value &= 0xffffffffu;
      bits = 32;
    }
    acc_ = (acc_ << bits) | value;
    acc_bits_ += bits;
    while (acc_bits_ >= 8) {
      acc_bits_ -= 8;
      buffer_.push_back(static_cast<uint8_t>(acc_ >> acc_bits_));
    }
  }

  /// Appends a single bit.
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Appends an order-0 unsigned Exp-Golomb code for `value`.
  void WriteUE(uint64_t value) {
    // Exp-Golomb: value+1 has N significant bits; the code is N-1 zeros then
    // those N bits — i.e. value+1 written in a 2N-1 bit field.
    uint64_t v = value + 1;
    int bits = 64 - std::countl_zero(v);
    if (bits <= 32) {
      WriteBits(v, 2 * bits - 1);
    } else {
      WriteBits(0, bits - 1);
      WriteBits(v, bits);
    }
  }

  /// Appends a signed Exp-Golomb code (0, 1, -1, 2, -2, ... mapping).
  void WriteSE(int64_t value) {
    uint64_t mapped = value > 0 ? static_cast<uint64_t>(value) * 2 - 1
                                : static_cast<uint64_t>(-value) * 2;
    WriteUE(mapped);
  }

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte() {
    if (acc_bits_ > 0) {
      buffer_.push_back(static_cast<uint8_t>(acc_ << (8 - acc_bits_)));
      acc_bits_ = 0;
    }
    acc_ = 0;
  }

  /// Appends raw bytes; requires byte alignment.
  void WriteBytes(Slice bytes);

  /// Number of bits written so far.
  size_t bit_count() const { return buffer_.size() * 8 + acc_bits_; }

  /// Whether the stream is at a byte boundary.
  bool aligned() const { return acc_bits_ == 0; }

  /// Finalizes (byte-aligns) and returns the encoded bytes.
  std::vector<uint8_t> Finish();

  /// Read-only view of the bytes written so far (call after AlignToByte()).
  const std::vector<uint8_t>& buffer() const { return buffer_; }

 private:
  std::vector<uint8_t> buffer_;
  uint64_t acc_ = 0;  // pending bits in the low `acc_bits_` positions
  int acc_bits_ = 0;  // in [0, 7] between public calls
};

/// \brief MSB-first bit reader matching BitWriter.
///
/// All read methods return Status-checked results: reading past the end of
/// the underlying slice yields `OutOfRange` without UB, which the codec
/// surfaces as `Corruption`. Errors are *sticky*: once any read fails — past
/// the end or on a malformed code — every subsequent read fails too, so a
/// caller that checks status only at a coarser granularity can never consume
/// phantom data from a truncated stream.
class BitReader {
 public:
  explicit BitReader(Slice data) : data_(data) {}

  // The hot reads are header-inline: the entropy layer calls them once or
  // more per coded coefficient. Each fast path handles only the common case
  // — reader healthy, the whole field inside the stream, short enough for
  // one 64-bit window — and hands everything else, from the unchanged
  // position, to the out-of-line bit-serial path, which therefore defines
  // every failure status and position exactly.

  /// Reads `bits` bits (MSB-first) into `*value`. `bits` in [0, 64].
  Status ReadBits(int bits, uint64_t* value) {
    if (!failed_ && bits > 0 && bits <= kWindowBits &&
        static_cast<size_t>(bits) <= bits_remaining()) {
      *value = Window() >> (64 - bits);
      bit_pos_ += static_cast<size_t>(bits);
      return Status::OK();
    }
    return ReadBitsSlow(bits, value);
  }

  /// Reads a single bit.
  Status ReadBit(bool* bit) {
    if (!failed_ && bit_pos_ < data_.size() * 8) {
      *bit = ((data_[bit_pos_ / 8] >> (7 - bit_pos_ % 8)) & 1) != 0;
      ++bit_pos_;
      return Status::OK();
    }
    uint64_t v = 0;
    VC_RETURN_IF_ERROR(ReadBitsSlow(1, &v));
    *bit = v != 0;
    return Status::OK();
  }

  /// Reads an order-0 unsigned Exp-Golomb code.
  Status ReadUE(uint64_t* value) {
    // Count the zero prefix with one clz over the window: a code with z
    // leading zeros is 2z + 1 bits long, the low z + 1 of them being
    // value + 1.
    if (!failed_) {
      const uint64_t window = Window();
      const int zeros = std::countl_zero(window);
      const int length = 2 * zeros + 1;
      if (length <= kWindowBits &&
          static_cast<size_t>(length) <= bits_remaining()) {
        *value = (window >> (64 - length)) - 1;
        bit_pos_ += static_cast<size_t>(length);
        return Status::OK();
      }
    }
    return ReadUESlow(value);
  }

  /// Reads a signed Exp-Golomb code.
  Status ReadSE(int64_t* value) {
    uint64_t mapped;
    VC_RETURN_IF_ERROR(ReadUE(&mapped));
    if (mapped % 2 == 1) {
      *value = static_cast<int64_t>((mapped + 1) / 2);
    } else {
      *value = -static_cast<int64_t>(mapped / 2);
    }
    return Status::OK();
  }

  /// Returns the next `bits` bits (MSB-first) without consuming them,
  /// zero-padded past the end of the stream. Never fails and never moves the
  /// position — the caller that acts on peeked bits must consume them with
  /// SkipBits, which does bounds-check. `bits` in [0, 57] (the zero-padding
  /// shift must stay well-defined). Returns 0 once the reader has failed.
  uint64_t PeekBits(int bits) const {
    assert(bits >= 0 && bits <= kWindowBits);
    if (failed_ || bits == 0) return 0;
    return Window() >> (64 - bits);
  }

  /// Consumes `bits` bits previously examined with PeekBits. Consuming more
  /// bits than remain fails (stickily) — this is what catches a truncated
  /// stream whose zero padding happened to look like a valid code.
  Status SkipBits(int bits);

  /// Skips forward to the next byte boundary.
  void AlignToByte();

  /// Reads `count` raw bytes; requires byte alignment.
  Status ReadBytes(size_t count, std::vector<uint8_t>* out);

  /// Bits consumed so far.
  size_t bit_position() const { return bit_pos_; }

  /// Bits remaining.
  size_t bits_remaining() const { return data_.size() * 8 - bit_pos_; }

  bool aligned() const { return bit_pos_ % 8 == 0; }

  /// Whether a previous read failed (every further read will fail too).
  bool failed() const { return failed_; }

 private:
  /// Bits of Window() that are guaranteed to be stream bits (or zero
  /// padding): 64 minus the at most 7 already consumed in the first byte.
  static constexpr int kWindowBits = 57;

  /// The next stream bits, MSB-aligned, zero-padded past the end. Only the
  /// top kWindowBits are meaningful.
  uint64_t Window() const {
    const size_t byte_index = bit_pos_ / 8;
    const size_t available = data_.size() - byte_index;
    const uint8_t* p = data_.data() + byte_index;
    uint64_t word = 0;
    if (available >= 8) {
      // Big-endian load; compilers fuse it into one load and a byte swap.
      word = uint64_t{p[0]} << 56 | uint64_t{p[1]} << 48 |
             uint64_t{p[2]} << 40 | uint64_t{p[3]} << 32 |
             uint64_t{p[4]} << 24 | uint64_t{p[5]} << 16 |
             uint64_t{p[6]} << 8 | uint64_t{p[7]};
    } else {
      for (size_t i = 0; i < 8; ++i) {
        word = (word << 8) | (i < available ? p[i] : uint8_t{0});
      }
    }
    return word << (bit_pos_ % 8);
  }

  /// Bit-serial reference paths: every failure status comes from here.
  Status ReadBitsSlow(int bits, uint64_t* value);
  Status ReadUESlow(uint64_t* value);

  Status Fail(Status status) {
    failed_ = true;
    return status;
  }

  Slice data_;
  size_t bit_pos_ = 0;
  bool failed_ = false;
};

}  // namespace vc

#endif  // VC_COMMON_BITIO_H_
