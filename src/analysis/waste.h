// Wasted background updates (§4.2 / §6).
//
// "There is often a tradeoff between ensuring updates are timely and
//  avoiding wasted background updates the user never looks at." ... "app
//  developers should ... tailor updates to reflect the frequency with which
//  useful, new data is provided."
//
// An update is counted as *useful* when the user foregrounds the app within
// `useful_window` after it (the freshly synced content had a chance to be
// seen), and *wasted* otherwise. Updates are background flows reconstructed
// with the same idle-gap assembler as Table 1.
//
// Data-plane layout (DESIGN.md §12): tracked apps resolve through a dense
// AppId->slot index, and the energy partials and pending-update queue are
// per app for the single live user (the stream is user-bracketed), so the
// packet path never hashes. A user's partials fold into per-app running sums
// when the user's bracket ends, so the sink's footprint does not grow with
// the population.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "ckpt/checkpointable.h"
#include "trace/flow_assembler.h"
#include "trace/shardable.h"
#include "trace/sink.h"

namespace wildenergy::analysis {

struct WasteResult {
  trace::AppId app = 0;
  std::uint64_t updates = 0;
  std::uint64_t wasted_updates = 0;
  double joules = 0.0;
  double wasted_joules = 0.0;

  [[nodiscard]] double wasted_update_fraction() const {
    return updates ? static_cast<double>(wasted_updates) / static_cast<double>(updates) : 0.0;
  }
  [[nodiscard]] double wasted_energy_fraction() const {
    return joules > 0 ? wasted_joules / joules : 0.0;
  }
};

class WastedUpdateAnalysis final : public trace::TraceSink,
                                   public trace::ShardableSink,
                                   public ckpt::CheckpointableSink {
 public:
  /// Track background updates of `apps`; an update is useful if the app is
  /// foregrounded within `useful_window` after the update completes.
  WastedUpdateAnalysis(std::vector<trace::AppId> apps, Duration useful_window = hours(12.0));

  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_user_begin(trace::UserId user) override;
  void on_packet(const trace::PacketRecord& packet) override;
  void on_transition(const trace::StateTransition& transition) override;
  void on_user_end(trace::UserId user) override;

  // ShardableSink: update counts and the running joule sums add, in stream
  // order (trace/shardable.h).
  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override;
  void merge_from(trace::TraceSink& shard) override;

  // CheckpointableSink: update counts plus the running joule sums (pending
  // queues and live partials drain at every user end, so none exist at a
  // checkpoint).
  void save_state(ckpt::ByteWriter& out) const override;
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& in) override;

  [[nodiscard]] WasteResult result(trace::AppId app) const;
  [[nodiscard]] const std::vector<trace::AppId>& tracked() const { return apps_; }

  /// Approximate resident footprint: the pending-update queues.
  [[nodiscard]] obs::MemoryUse memory_use() const override;

 private:
  struct PendingUpdate {
    TimePoint completed;
    double joules = 0.0;
  };
  /// Energy split of the live user; all of a user's updates settle within
  /// that user's stream, so the split is exact.
  struct UserPart {
    double joules = 0.0;
    double wasted_joules = 0.0;
  };
  struct PerApp {
    std::uint64_t updates = 0;
    std::uint64_t wasted_updates = 0;
    /// Current user's not-yet-settled updates (one user is live at a time).
    std::deque<PendingUpdate> pending;
    UserPart live;
    UserPart folded;  ///< running sums over folded users, in stream order
  };
  static constexpr std::uint32_t kUntracked = UINT32_MAX;
  static constexpr trace::UserId kNoUser = UINT32_MAX;

  /// Tracked slot for `app`, or nullptr when the app is not a study subject.
  PerApp* slot(trace::AppId app);
  /// Flush the current user's pending updates (never looked at: wasted) and
  /// fold its partials into the running sums.
  void fold_live();
  /// Fold the previous user and make `user` current.
  void switch_user(trace::UserId user);
  void on_flow(const trace::FlowRecord& flow);
  void expire(PerApp& pa, TimePoint now);
  void settle_on_foreground(trace::AppId app, TimePoint now);

  std::vector<trace::AppId> apps_;
  std::vector<std::uint32_t> tracked_index_;  ///< AppId -> per_app_ slot
  Duration useful_window_;
  trace::UserId cur_user_ = kNoUser;
  std::vector<PerApp> per_app_;  ///< one slot per tracked app, in apps_ order
  trace::FlowAssembler assembler_;
};

}  // namespace wildenergy::analysis
