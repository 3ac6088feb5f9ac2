#include "trace/segment.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#define WILDENERGY_SEGMENT_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace wildenergy::trace {

namespace {

void put_u64le(ckpt::ByteWriter& w, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    w.put_u8(static_cast<std::uint8_t>(v >> shift));
  }
}

std::uint64_t read_u64le(std::string_view bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

std::uint8_t packet_flags(const PacketRecord& p) {
  return static_cast<std::uint8_t>(p.direction == radio::Direction::kUplink ? kPacketFlagUplink
                                                                             : 0) |
         static_cast<std::uint8_t>(p.interface == Interface::kWifi ? kPacketFlagWifi : 0) |
         static_cast<std::uint8_t>(static_cast<std::uint8_t>(p.state) << kPacketStateShift);
}

// Worst-case encoded sizes, which pre-size each chunk's output window:
// varints of a u64 take at most 10 bytes, of a u32 at most 5.
constexpr std::size_t kMaxPacketBytes = 10 + 5 + 10 + 10 + 1 + 8;
constexpr std::size_t kMaxTransitionBytes = 10 + 5 + 1 + 1;
constexpr std::size_t kMaxOrderRunBytes = 1 + 10;

void put_varint(char*& out, std::uint64_t value) {
  ckpt::encode_varint(value, [&out](std::uint8_t byte) { *out++ = static_cast<char>(byte); });
}

void put_f64(char*& out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 0; shift < 64; shift += 8) *out++ = static_cast<char>(bits >> shift);
}

/// Decodes one chunk's three column streams off the mapping. Every read
/// returns false on damage and records a positioned message; replay_chunk
/// turns that into the data_loss status, so the hot path builds no status.
class ChunkReader {
 public:
  ChunkReader(const char* file, const SegmentChunkInfo& chunk)
      : file_(file),
        user_(chunk.user),
        packets_(file + chunk.packets_offset, file + chunk.packets_offset + chunk.packets_len),
        transitions_(file + chunk.transitions_offset,
                     file + chunk.transitions_offset + chunk.transitions_len),
        order_(file + chunk.order_offset, file + chunk.order_offset + chunk.order_len) {}

  [[nodiscard]] bool run(EventKind& kind, std::uint64_t& length) {
    std::uint8_t raw = 0;
    if (!u8(order_, raw, "order kind") || !varint(order_, length, "order run")) return false;
    if (raw > static_cast<std::uint8_t>(EventKind::kTransition)) {
      return fail(order_, "bad order kind", std::to_string(raw).c_str());
    }
    kind = static_cast<EventKind>(raw);
    return true;
  }

  [[nodiscard]] bool read(PacketRecord& p) {
    std::uint64_t dt = 0;
    std::uint64_t app = 0;
    std::uint8_t flags = 0;
    if (!varint(packets_, dt, "packet dt") || !varint(packets_, app, "packet app") ||
        !varint(packets_, p.flow, "packet flow") || !varint(packets_, p.bytes, "packet bytes") ||
        !u8(packets_, flags, "packet flags")) {
      return false;
    }
    if ((flags & kPacketFlagsReserved) != 0) {
      return fail(packets_, "reserved packet flag bits set");
    }
    const auto state = static_cast<std::uint8_t>((flags & kPacketStateMask) >> kPacketStateShift);
    if (app > kNoApp || state >= kNumProcessStates) return fail(packets_, "bad packet fields");
    p.joules = 0.0;
    if ((flags & kPacketFlagJoules) != 0 && !f64(packets_, p.joules, "packet joules")) {
      return false;
    }
    pkt_time_ = advance(pkt_time_, dt);
    p.time.us = pkt_time_;
    p.user = user_;
    p.app = static_cast<AppId>(app);
    p.direction = (flags & kPacketFlagUplink) != 0 ? radio::Direction::kUplink
                                                    : radio::Direction::kDownlink;
    p.interface = (flags & kPacketFlagWifi) != 0 ? Interface::kWifi : Interface::kCellular;
    p.state = static_cast<ProcessState>(state);
    return true;
  }

  [[nodiscard]] bool read(StateTransition& t) {
    std::uint64_t dt = 0;
    std::uint64_t app = 0;
    std::uint8_t from = 0;
    std::uint8_t to = 0;
    if (!varint(transitions_, dt, "transition dt") ||
        !varint(transitions_, app, "transition app") ||
        !u8(transitions_, from, "transition from") || !u8(transitions_, to, "transition to")) {
      return false;
    }
    if (app > kNoApp || from >= kNumProcessStates || to >= kNumProcessStates) {
      return fail(transitions_, "bad transition fields");
    }
    tr_time_ = advance(tr_time_, dt);
    t.time.us = tr_time_;
    t.user = user_;
    t.app = static_cast<AppId>(app);
    t.from = static_cast<ProcessState>(from);
    t.to = static_cast<ProcessState>(to);
    return true;
  }

  [[nodiscard]] bool consumed() const {
    return packets_.at_end() && transitions_.at_end() && order_.at_end();
  }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  /// Chains a zigzag delta with wrapping arithmetic: damaged deltas decode
  /// to wrong times (caught by the checksum first), never to signed overflow.
  static std::int64_t advance(std::int64_t time, std::uint64_t delta) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(time) +
                                     static_cast<std::uint64_t>(ckpt::unzigzag(delta)));
  }

  bool varint(ckpt::SpanCursor& in, std::uint64_t& value, const char* field) {
    const ckpt::VarintFail why = in.varint(value);
    return why == ckpt::VarintFail::kOk ||
           fail(in, why == ckpt::VarintFail::kEof ? "truncated" : "overlong varint in", field);
  }
  bool u8(ckpt::SpanCursor& in, std::uint8_t& value, const char* field) {
    return in.u8(value) || fail(in, "truncated", field);
  }
  bool f64(ckpt::SpanCursor& in, double& value, const char* field) {
    return in.f64(value) || fail(in, "truncated", field);
  }
  /// Cold path: records "<what> <field> at offset N" and returns false.
  bool fail(const ckpt::SpanCursor& in, const char* what, const char* field = nullptr) {
    error_ = what;
    if (field != nullptr) error_ += std::string(" ") + field;
    error_ += " at offset " + std::to_string(in.pos() - file_);
    return false;
  }

  const char* file_;
  UserId user_;
  ckpt::SpanCursor packets_;
  ckpt::SpanCursor transitions_;
  ckpt::SpanCursor order_;
  std::int64_t pkt_time_ = 0;
  std::int64_t tr_time_ = 0;
  std::string error_;
};

void emit(TraceSink& sink, const PacketRecord& p) { sink.on_packet(p); }
void emit(TraceSink& sink, const StateTransition& t) { sink.on_transition(t); }

}  // namespace

// --- SegmentWriter ---------------------------------------------------------

SegmentWriter::SegmentWriter(const StudyMeta& meta) {
  body_.put_bytes({kSegmentMagic, sizeof kSegmentMagic});
  body_.put_u8(kSegmentVersion);
  body_.put_varint(meta.num_users);
  body_.put_varint(meta.num_apps);
  body_.put_varint(ckpt::zigzag(meta.study_begin.us));
  body_.put_varint(ckpt::zigzag(meta.study_end.us));
}

void SegmentWriter::add_chunk(const EventBatch& events, std::uint32_t seq, bool final_chunk) {
  // One pre-sized window over the body; the three streams are written
  // straight into it back to back and the window is trimmed at the end.
  char* const begin =
      body_.open_window(events.packets.size() * kMaxPacketBytes +
                        events.transitions.size() * kMaxTransitionBytes +
                        events.order.size() * kMaxOrderRunBytes);
  char* out = begin;

  std::int64_t pkt_time = 0;
  for (const PacketRecord& p : events.packets) {
    put_varint(out, ckpt::zigzag(p.time.us - pkt_time));
    pkt_time = p.time.us;
    put_varint(out, p.app);
    put_varint(out, p.flow);
    put_varint(out, p.bytes);
    // Attribution fills joules after capture, so they are almost always
    // +0.0: only another bit pattern (-0.0 and NaNs included) costs bytes.
    const bool joules = std::bit_cast<std::uint64_t>(p.joules) != 0;
    *out++ = static_cast<char>(packet_flags(p) | (joules ? kPacketFlagJoules : 0));
    if (joules) put_f64(out, p.joules);
  }
  char* const packets_end = out;

  std::int64_t tr_time = 0;
  for (const StateTransition& t : events.transitions) {
    put_varint(out, ckpt::zigzag(t.time.us - tr_time));
    tr_time = t.time.us;
    put_varint(out, t.app);
    *out++ = static_cast<char>(t.from);
    *out++ = static_cast<char>(t.to);
  }
  char* const transitions_end = out;

  std::uint64_t runs = 0;
  std::size_t oi = 0;
  const std::size_t n = events.order.size();
  while (oi < n) {
    const EventKind kind = events.order[oi];
    std::size_t run = 1;
    while (oi + run < n && events.order[oi + run] == kind) ++run;
    *out++ = static_cast<char>(kind);
    put_varint(out, run);
    ++runs;
    oi += run;
  }

  chunks_.push_back({events.user, seq, final_chunk, events.packets.size(),
                     events.transitions.size(), runs,
                     static_cast<std::size_t>(packets_end - begin),
                     static_cast<std::size_t>(transitions_end - packets_end),
                     static_cast<std::size_t>(out - transitions_end)});
  body_.close_window(out);
}

std::string SegmentWriter::finish() {
  const std::uint64_t index_offset = body_.size();
  body_.put_varint(chunks_.size());
  for (const PendingChunk& c : chunks_) {
    body_.put_varint(c.user);
    body_.put_varint(c.seq);
    body_.put_u8(c.final_chunk ? 1 : 0);
    body_.put_varint(c.packets);
    body_.put_varint(c.transitions);
    body_.put_varint(c.order_runs);
    body_.put_varint(c.packets_len);
    body_.put_varint(c.transitions_len);
    body_.put_varint(c.order_len);
  }
  put_u64le(body_, index_offset);
  const std::uint64_t checksum = ckpt::fnv1a(body_.bytes());
  put_u64le(body_, checksum);
  chunks_.clear();
  return body_.take();
}

// --- MappedSegment ---------------------------------------------------------

MappedSegment::~MappedSegment() {
#ifdef WILDENERGY_SEGMENT_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
}

util::Status MappedSegment::corrupt(const std::string& why) const {
  return util::Status::data_loss("segment " + path_ + ": " + why);
}

util::Status MappedSegment::open(const std::string& path) {
  path_ = path;
#ifdef WILDENERGY_SEGMENT_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st = {};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      void* mapped = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                            MAP_PRIVATE, fd, 0);
      if (mapped != MAP_FAILED) {
        map_ = mapped;
        data_ = static_cast<const char*>(mapped);
        size_ = static_cast<std::size_t>(st.st_size);
      }
    }
    ::close(fd);
  }
#endif
  if (data_ == nullptr) {
    // Buffered fallback: no mapping support (or an empty/unreadable file,
    // which the size checks below diagnose).
    std::ifstream is(path, std::ios::binary);
    if (!is) return corrupt("cannot open file");
    fallback_.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
    data_ = fallback_.data();
    size_ = fallback_.size();
  }
  return parse();
}

util::Status MappedSegment::parse() {
  constexpr std::size_t kHeader = sizeof kSegmentMagic + 1;
  constexpr std::size_t kFooter = 16;  // index offset + checksum
  if (size_ < kHeader + kFooter) {
    return corrupt("file too short (" + std::to_string(size_) + " bytes)");
  }
  const std::string_view all{data_, size_};

  // Trust nothing until the trailer checksum passes: every later parse
  // failure is then a logic-level inconsistency, not random bit damage.
  const std::uint64_t stored = read_u64le(all.substr(size_ - 8));
  const std::uint64_t computed = ckpt::fnv1a(all.substr(0, size_ - 8));
  if (stored != computed) return corrupt("checksum mismatch");

  if (std::memcmp(data_, kSegmentMagic, sizeof kSegmentMagic) != 0) return corrupt("bad magic");
  const auto version = static_cast<std::uint8_t>(data_[sizeof kSegmentMagic]);
  if (version != kSegmentVersion) {
    return corrupt("unsupported version " + std::to_string(version));
  }

  const std::uint64_t index_offset = read_u64le(all.substr(size_ - kFooter));
  if (index_offset < kHeader || index_offset > size_ - kFooter) {
    return corrupt("index offset " + std::to_string(index_offset) + " out of range");
  }

  ckpt::ByteReader meta_reader{all.substr(kHeader, index_offset - kHeader)};
  const auto users = meta_reader.get_varint("segment meta users");
  const auto apps = meta_reader.get_varint("segment meta apps");
  const auto begin = meta_reader.get_varint("segment meta begin");
  const auto end = meta_reader.get_varint("segment meta end");
  if (!users.ok()) return corrupt(users.status().message());
  if (!apps.ok()) return corrupt(apps.status().message());
  if (!begin.ok()) return corrupt(begin.status().message());
  if (!end.ok()) return corrupt(end.status().message());
  meta_.num_users = static_cast<std::uint32_t>(*users);
  meta_.num_apps = static_cast<std::uint32_t>(*apps);
  meta_.study_begin.us = ckpt::unzigzag(*begin);
  meta_.study_end.us = ckpt::unzigzag(*end);
  const std::size_t payload_start = kHeader + meta_reader.offset();

  ckpt::ByteReader index{all.substr(index_offset, size_ - kFooter - index_offset)};
  const auto count = index.get_varint("segment index count");
  if (!count.ok()) return corrupt(count.status().message());
  if (*count > index.remaining()) {
    // Each index entry is at least 9 bytes; a count beyond the remaining
    // index bytes is corrupt and must not drive a giant allocation.
    return corrupt("implausible chunk count " + std::to_string(*count));
  }
  chunks_.clear();
  chunks_.reserve(static_cast<std::size_t>(*count));
  std::size_t cursor = payload_start;
  for (std::uint64_t i = 0; i < *count; ++i) {
    SegmentChunkInfo chunk;
    const auto user = index.get_varint("chunk user");
    const auto seq = index.get_varint("chunk seq");
    const auto flags = index.get_u8("chunk flags");
    const auto packets = index.get_varint("chunk packets");
    const auto transitions = index.get_varint("chunk transitions");
    const auto runs = index.get_varint("chunk order runs");
    const auto packets_len = index.get_varint("chunk packets length");
    const auto transitions_len = index.get_varint("chunk transitions length");
    const auto order_len = index.get_varint("chunk order length");
    for (const util::Status& st :
         {user.status(), seq.status(), flags.status(), packets.status(), transitions.status(),
          runs.status(), packets_len.status(), transitions_len.status(), order_len.status()}) {
      if (!st.ok()) return corrupt(st.message());
    }
    if (*user > std::numeric_limits<UserId>::max() ||
        *seq > std::numeric_limits<std::uint32_t>::max()) {
      return corrupt("chunk " + std::to_string(i) + " user/seq out of range");
    }
    chunk.user = static_cast<UserId>(*user);
    chunk.seq = static_cast<std::uint32_t>(*seq);
    chunk.final_chunk = (*flags & 1) != 0;
    chunk.packets = *packets;
    chunk.transitions = *transitions;
    chunk.order_runs = *runs;
    // Lower-bound sanity on stream lengths: a packet encodes to >= 5
    // bytes (joules are omitted when +0.0), a transition to >= 4, an order
    // run to >= 2.
    const std::size_t span = size_ - kFooter;
    if (*packets_len > span || *transitions_len > span || *order_len > span ||
        chunk.packets * 5 > *packets_len || chunk.transitions * 4 > *transitions_len ||
        chunk.order_runs * 2 > *order_len) {
      return corrupt("chunk " + std::to_string(i) + " lengths inconsistent with counts");
    }
    chunk.packets_offset = cursor;
    chunk.packets_len = static_cast<std::size_t>(*packets_len);
    cursor += chunk.packets_len;
    chunk.transitions_offset = cursor;
    chunk.transitions_len = static_cast<std::size_t>(*transitions_len);
    cursor += chunk.transitions_len;
    chunk.order_offset = cursor;
    chunk.order_len = static_cast<std::size_t>(*order_len);
    cursor += chunk.order_len;
    if (cursor > index_offset) {
      return corrupt("chunk " + std::to_string(i) + " overruns the payload");
    }
    chunks_.push_back(chunk);
  }
  if (cursor != index_offset) {
    return corrupt("payload length disagrees with index (ends at " + std::to_string(cursor) +
                   ", index at " + std::to_string(index_offset) + ")");
  }
  if (!index.at_end()) {
    return corrupt("trailing bytes in index at offset " + std::to_string(index.offset()));
  }
  return util::Status::ok_status();
}

std::uint64_t MappedSegment::index_bytes() const {
  return sizeof(*this) + chunks_.capacity() * sizeof(SegmentChunkInfo) + path_.capacity() +
         fallback_.capacity();
}

util::Status MappedSegment::replay_chunk(const SegmentChunkInfo& chunk, TraceSink& sink,
                                         std::size_t batch_size) const {
  const auto in_file = [&](std::size_t off, std::size_t len) {
    return off <= size_ && len <= size_ - off;
  };
  if (!in_file(chunk.packets_offset, chunk.packets_len) ||
      !in_file(chunk.transitions_offset, chunk.transitions_len) ||
      !in_file(chunk.order_offset, chunk.order_len)) {
    return corrupt("chunk span out of file bounds");
  }
  const auto damaged = [&](const std::string& why) {
    return corrupt("user " + std::to_string(chunk.user) + " chunk " +
                   std::to_string(chunk.seq) + ": " + why);
  };

  ChunkReader in{data_, chunk};
  EventBatch scratch;
  scratch.user = chunk.user;
  if (batch_size > 0) {
    scratch.reserve(std::min<std::uint64_t>(batch_size, chunk.events()));
  }
  // Decodes `run` events of one kind: per record at batch_size 0, else
  // straight into the batch's column, delivering each batch as it fills.
  const auto replay_run = [&](auto& column, EventKind kind, std::uint64_t run) {
    if (batch_size == 0) {
      typename std::remove_reference_t<decltype(column)>::value_type record;
      for (std::uint64_t j = 0; j < run; ++j) {
        if (!in.read(record)) return false;
        emit(sink, record);
      }
      return true;
    }
    while (run > 0) {
      const std::uint64_t take = std::min<std::uint64_t>(run, batch_size - scratch.size());
      for (std::uint64_t j = 0; j < take; ++j) {
        if (!in.read(column.emplace_back())) return false;
      }
      scratch.order.insert(scratch.order.end(), take, kind);
      run -= take;
      if (scratch.size() == batch_size) {
        sink.on_batch(scratch);
        scratch.clear();
      }
    }
    return true;
  };

  std::uint64_t pk_seen = 0;
  std::uint64_t tr_seen = 0;
  for (std::uint64_t r = 0; r < chunk.order_runs; ++r) {
    EventKind kind = EventKind::kPacket;
    std::uint64_t run = 0;
    if (!in.run(kind, run)) return damaged(in.error());
    if (kind == EventKind::kPacket) {
      if (run > chunk.packets - pk_seen) return damaged("packet run overflows chunk");
      pk_seen += run;
      if (!replay_run(scratch.packets, kind, run)) return damaged(in.error());
    } else {
      if (run > chunk.transitions - tr_seen) return damaged("transition run overflows chunk");
      tr_seen += run;
      if (!replay_run(scratch.transitions, kind, run)) return damaged(in.error());
    }
  }
  if (pk_seen != chunk.packets || tr_seen != chunk.transitions) {
    return damaged("decoded event counts disagree with index");
  }
  if (!in.consumed()) return damaged("undecoded bytes left in chunk streams");
  if (!scratch.empty()) sink.on_batch(scratch);
  return util::Status::ok_status();
}

}  // namespace wildenergy::trace
