#include "ckpt/codec.h"

namespace wildenergy::ckpt {

std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t hash = kFnvOffset;
  for (const char c : data) hash = fnv1a_step(hash, static_cast<std::uint8_t>(c));
  return hash;
}

void ByteWriter::put_varint(std::uint64_t value) {
  encode_varint(value, [this](std::uint8_t byte) { buf_.push_back(static_cast<char>(byte)); });
}

void ByteWriter::put_f64(double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<char>((bits >> shift) & 0xFF));
  }
}

void ByteWriter::put_string(std::string_view text) {
  put_varint(text.size());
  buf_.append(text);
}

void ByteWriter::put_f64_span(std::span<const double> values) {
  put_varint(values.size());
  for (const double v : values) put_f64(v);
}

void ByteWriter::put_u64_span(std::span<const std::uint64_t> values) {
  put_varint(values.size());
  for (const std::uint64_t v : values) put_varint(v);
}

void ByteWriter::put_bool_vec(const std::vector<bool>& values) {
  put_varint(values.size());
  for (std::size_t i = 0; i < values.size(); i += 8) {
    std::uint8_t packed = 0;
    for (std::size_t bit = 0; bit < 8 && i + bit < values.size(); ++bit) {
      if (values[i + bit]) packed |= static_cast<std::uint8_t>(1u << bit);
    }
    put_u8(packed);
  }
}

util::Status ByteReader::truncated(std::string_view field) const {
  return util::Status::data_loss("truncated checkpoint: EOF mid-" + std::string(field) +
                                 " at offset " + std::to_string(pos_));
}

util::StatusOr<std::uint8_t> ByteReader::get_u8(std::string_view field) {
  SpanCursor in = cursor();
  std::uint8_t value = 0;
  if (!in.u8(value)) return truncated(field);
  advance_to(in);
  return value;
}

util::StatusOr<std::uint64_t> ByteReader::get_varint(std::string_view field) {
  SpanCursor in = cursor();
  std::uint64_t value = 0;
  const VarintFail fail = in.varint(value);
  advance_to(in);
  switch (fail) {
    case VarintFail::kOk:
      return value;
    case VarintFail::kEof:
      return truncated(field);
    case VarintFail::kOverlong:
      break;
  }
  return util::Status::data_loss("corrupt checkpoint: overlong varint in " +
                                 std::string(field) + " at offset " +
                                 std::to_string(pos_ - 1));
}

util::StatusOr<double> ByteReader::get_f64(std::string_view field) {
  SpanCursor in = cursor();
  double value = 0.0;
  if (!in.f64(value)) return truncated(field);
  advance_to(in);
  return value;
}

util::StatusOr<std::string> ByteReader::get_string(std::string_view field) {
  auto len = get_varint(field);
  if (!len.ok()) return len.status();
  if (data_.size() - pos_ < *len) return truncated(field);
  std::string out(data_.substr(pos_, *len));
  pos_ += *len;
  return out;
}

util::StatusOr<std::string_view> ByteReader::get_bytes(std::size_t count,
                                                       std::string_view field) {
  if (data_.size() - pos_ < count) return truncated(field);
  std::string_view out = data_.substr(pos_, count);
  pos_ += count;
  return out;
}

util::Status ByteReader::get_f64_span(std::span<double> out, std::string_view field) {
  auto count = get_varint(field);
  if (!count.ok()) return count.status();
  if (*count != out.size()) {
    return util::Status::data_loss("corrupt checkpoint: " + std::string(field) + " holds " +
                                   std::to_string(*count) + " values, expected " +
                                   std::to_string(out.size()));
  }
  for (double& v : out) {
    auto value = get_f64(field);
    if (!value.ok()) return value.status();
    v = *value;
  }
  return util::Status::ok_status();
}

util::StatusOr<std::vector<double>> ByteReader::get_f64_vec(std::string_view field) {
  auto count = get_varint(field);
  if (!count.ok()) return count.status();
  if (*count > remaining() / 8) return truncated(field);
  std::vector<double> out(*count);
  for (double& v : out) {
    auto value = get_f64(field);
    if (!value.ok()) return value.status();
    v = *value;
  }
  return out;
}

util::Status ByteReader::get_u64_span(std::span<std::uint64_t> out, std::string_view field) {
  auto count = get_varint(field);
  if (!count.ok()) return count.status();
  if (*count != out.size()) {
    return util::Status::data_loss("corrupt checkpoint: " + std::string(field) + " holds " +
                                   std::to_string(*count) + " values, expected " +
                                   std::to_string(out.size()));
  }
  for (std::uint64_t& v : out) {
    auto value = get_varint(field);
    if (!value.ok()) return value.status();
    v = *value;
  }
  return util::Status::ok_status();
}

util::Status ByteReader::get_bool_vec(std::vector<bool>& out, std::string_view field) {
  auto count = get_varint(field);
  if (!count.ok()) return count.status();
  out.assign(*count, false);
  for (std::size_t i = 0; i < *count; i += 8) {
    auto packed = get_u8(field);
    if (!packed.ok()) return packed.status();
    for (std::size_t bit = 0; bit < 8 && i + bit < *count; ++bit) {
      out[i + bit] = (*packed >> bit) & 1;
    }
  }
  return util::Status::ok_status();
}

}  // namespace wildenergy::ckpt
