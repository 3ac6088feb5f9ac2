// WEAC per-user account files: the spilled half of the fold-and-release
// analysis plane (DESIGN.md §15).
//
// Under fold-and-release, sinks collapse each completed user's detail state
// into running aggregates and release the slab — but several consumers
// (what-if replays, per-user figures, persistence CDFs) still need the
// per-user detail rows. Those rows are spilled here: one *row group* per
// user, each holding named byte sections ("ledger", "persist", "case")
// encoded by the owning sink with ckpt/codec.h primitives. Groups land
// in stream order, so reading the files back in sequence replays every
// user's detail in exactly the order a fully resident run would have
// iterated them.
//
// File layout (all multi-byte integers are ckpt/codec.h primitives):
//
//   magic "WEAC" | u8 version
//   payload:      per row group, the section payloads back to back, in
//                 add_section order
//   index:        varint name_count, then each interned section name
//                 (varint length + bytes);
//                 varint group_count, then per group: varint user delta
//                 (chains from the previous group; the first is absolute —
//                 groups are in ascending user order), varint
//                 section_count, per section varint name_id + varint
//                 payload length (offsets reconstruct cumulatively)
//   footer:       u64 LE index offset, u64 LE FNV-1a over every preceding
//                 byte (including the index offset)
//
// Readers verify the trailer before trusting any field, and every parse
// failure is a positioned util::Status naming the file — a corrupted account
// file can never silently feed wrong detail rows to a figure
// (tests/account_plane_test.cpp corruption matrix).
//
// A run spills through AccountSpill, which rolls sealed files
// (accounts_%08u.weac, tmp-write + rename) when the pending writer crosses
// the flush threshold; AccountReader maps every sealed file in a directory
// back, in sequence order, for the cursor layer (energy/account_cursor.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/codec.h"
#include "trace/record.h"
#include "util/status.h"

namespace wildenergy::energy {

inline constexpr char kAccountMagic[4] = {'W', 'E', 'A', 'C'};
inline constexpr std::uint8_t kAccountVersion = 1;

/// Builds one account file in memory; row groups append in stream order.
class AccountFileWriter {
 public:
  AccountFileWriter();

  /// Open a row group for `user`. Groups must arrive in ascending user order
  /// (the engine folds in stream order, which is ascending user id).
  void begin_user(trace::UserId user);
  /// Append one named section to the open group; returns the payload bytes
  /// appended (the caller's spill accounting). Section names are interned —
  /// repeating a name across groups costs one index varint, not the string.
  std::size_t add_section(std::string_view name, std::string_view payload);
  void end_user();

  /// Payload bytes encoded so far (header included) — sizing for the flush
  /// policy.
  [[nodiscard]] std::size_t size() const { return body_.size(); }
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }

  /// Append index + footer and return the complete file bytes. The writer is
  /// spent afterwards.
  [[nodiscard]] std::string finish();

 private:
  struct PendingSection {
    std::uint32_t name_id;
    std::uint64_t len;
  };
  struct PendingGroup {
    trace::UserId user;
    std::vector<PendingSection> sections;
  };

  [[nodiscard]] std::uint32_t name_id(std::string_view name);

  ckpt::ByteWriter body_;
  std::vector<std::string> names_;
  std::vector<PendingGroup> groups_;
  bool in_user_ = false;
};

/// One section of a row group, as recorded in a file's index.
struct AccountSectionRef {
  std::uint32_t name_id = 0;
  std::size_t offset = 0;  ///< absolute file offset of the payload
  std::size_t len = 0;
};

/// One user's row group.
struct AccountUserRow {
  trace::UserId user = 0;
  std::vector<AccountSectionRef> sections;
};

/// An open, checksum-verified account file, mapped read-only when the
/// platform allows (buffered read otherwise).
class MappedAccountFile {
 public:
  MappedAccountFile() = default;
  ~MappedAccountFile();
  MappedAccountFile(const MappedAccountFile&) = delete;
  MappedAccountFile& operator=(const MappedAccountFile&) = delete;

  /// Open + verify `path`. Any framing, checksum, or index inconsistency is
  /// a positioned data_loss status naming the file.
  [[nodiscard]] util::Status open(const std::string& path);

  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }
  [[nodiscard]] const std::vector<AccountUserRow>& rows() const { return rows_; }
  [[nodiscard]] std::uint64_t file_bytes() const { return size_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Interned id of `name` in this file, or -1 when absent.
  [[nodiscard]] int find_name(std::string_view name) const;
  /// The payload bytes of one section (view into the mapping).
  [[nodiscard]] std::string_view payload(const AccountSectionRef& section) const {
    return {data_ + section.offset, section.len};
  }
  /// `row`'s section named `name_id`, or nullptr when the group lacks it.
  [[nodiscard]] const AccountSectionRef* find_section(const AccountUserRow& row,
                                                      int name_id) const;

 private:
  [[nodiscard]] util::Status parse();
  [[nodiscard]] util::Status corrupt(const std::string& why) const;

  std::string path_;
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_ = nullptr;   ///< munmap handle when the file is mapped
  std::string fallback_;  ///< file bytes when mmap is unavailable
  std::vector<std::string> names_;
  std::vector<AccountUserRow> rows_;
};

/// The run-side spill target sinks write through during fold_user. The
/// engine brackets each fold round (begin_user .. end_user); every opted-in
/// sink appends its named section in between. Sealed files roll when the
/// pending writer crosses the flush threshold, so resident spill state stays
/// bounded no matter how many users fold.
class AccountSpill {
 public:
  struct Options {
    /// Directory for sealed account files; created if missing.
    std::string dir;
    /// Soft budget for the account plane. The pending in-memory writer is
    /// sealed to disk whenever it crosses half this budget (a sane default
    /// applies when 0), so resident account bytes stay < budget while file
    /// count stays modest.
    std::uint64_t budget_bytes = 0;
  };

  explicit AccountSpill(Options options);

  /// Create the directory and remove stale account files from a previous
  /// run. Fresh-run entry point; resuming runs call resume() instead.
  [[nodiscard]] util::Status open_fresh();
  /// Keep the first `sealed_files` account files (the checkpoint recorded
  /// them durable), delete any later ones (sealed after the checkpoint — the
  /// re-run users will respill), and continue numbering after the kept
  /// prefix.
  [[nodiscard]] util::Status resume(std::uint64_t sealed_files);

  void begin_user(trace::UserId user);
  /// Returns the payload bytes appended — the calling sink's own spill
  /// accounting (each sink counts only its sections, so the plane's total is
  /// the sum over sinks without double counting).
  std::size_t add_section(std::string_view name, std::string_view payload);
  /// Close the user's row group; seals the pending writer into a file when
  /// it crossed the flush threshold. Failures latch into health().
  void end_user();
  /// Flush the pending writer (if it holds any groups) so every spilled row
  /// is durable. Call at end of run, and before checkpointing.
  [[nodiscard]] util::Status seal();

  [[nodiscard]] const std::string& dir() const { return options_.dir; }
  /// Bytes held by the pending (unsealed) writer.
  [[nodiscard]] std::uint64_t resident_bytes() const;
  /// Bytes sealed into account files on disk.
  [[nodiscard]] std::uint64_t spilled_bytes() const { return spilled_bytes_; }
  /// Sealed file count — the checkpoint counter that makes spills resumable.
  [[nodiscard]] std::uint64_t sealed_files() const { return sealed_files_; }
  /// Non-OK when a spill write failed: detail rows are incomplete and
  /// cursor-based consumers must not trust the directory.
  [[nodiscard]] util::Status health() const { return health_; }

 private:
  [[nodiscard]] util::Status flush_writer();

  Options options_;
  std::uint64_t flush_threshold_;
  std::unique_ptr<AccountFileWriter> writer_;
  std::uint64_t spilled_bytes_ = 0;
  std::uint64_t sealed_files_ = 0;
  util::Status health_;
};

/// Maps every sealed account file under a directory, in sequence order. The
/// global row order — file order, then group order within each file — is the
/// stream order the rows were folded in (ascending user id).
class AccountReader {
 public:
  /// Open + verify every accounts_*.weac under `dir` (positioned error on
  /// the first bad file). An empty or missing directory opens empty.
  [[nodiscard]] util::Status open(const std::string& dir);

  [[nodiscard]] std::size_t num_files() const { return files_.size(); }
  /// Total row groups (= folded users) across all files.
  [[nodiscard]] std::size_t num_rows() const;
  [[nodiscard]] std::uint64_t file_bytes() const;
  [[nodiscard]] const std::vector<std::unique_ptr<MappedAccountFile>>& files() const {
    return files_;
  }

  /// Stream cb(user, payload) for every row group that carries section
  /// `name`, in global row order.
  void for_each_section(
      std::string_view name,
      const std::function<void(trace::UserId, std::string_view)>& cb) const;

 private:
  std::vector<std::unique_ptr<MappedAccountFile>> files_;
};

/// accounts_00000042.weac for seq 42 (1-based).
[[nodiscard]] std::string account_file_name(std::uint64_t seq);

}  // namespace wildenergy::energy
