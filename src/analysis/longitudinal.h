// Longitudinal trends (§3.1).
//
// "Background energy fluctuated by up to 60% from week to week throughout
//  the study. Examining specific apps, we did determine that some apps have
//  become more energy-efficient due to adjusting the inter-packet intervals
//  of background traffic."
//
// This sink accumulates weekly energy series (overall and per tracked app)
// and compares early-era vs late-era per-app efficiency, surfacing the
// behaviour evolutions Table 1 reports (Facebook 5 min -> 1 h, ...).
//
// Shardable (trace/shardable.h): the weekly series and era accumulators are
// cross-user double sums. The live user accumulates in its own week vector
// and era array, which fold into running sums when the user's stream ends
// and as shards merge — in stream order, so every thread count performs the
// exact same floating-point fold and outputs are bit-identical
// (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ckpt/checkpointable.h"
#include "trace/shardable.h"
#include "trace/sink.h"

namespace wildenergy::analysis {

struct WeeklySeries {
  std::vector<double> fg_joules;
  std::vector<double> bg_joules;

  [[nodiscard]] std::size_t weeks() const { return bg_joules.size(); }
  /// Largest relative week-over-week change of background energy, ignoring
  /// ramp-in/out weeks with negligible traffic.
  [[nodiscard]] double max_weekly_bg_fluctuation() const;
};

struct EraComparison {
  trace::AppId app = 0;
  double early_joules_per_day = 0.0;  ///< first third of the study
  double late_joules_per_day = 0.0;   ///< last third
  double early_uj_per_byte = 0.0;
  double late_uj_per_byte = 0.0;

  /// < 1 means the app became more energy-efficient per byte over the study.
  [[nodiscard]] double efficiency_ratio() const {
    return early_uj_per_byte > 0 ? late_uj_per_byte / early_uj_per_byte : 0.0;
  }
};

class LongitudinalAnalysis final : public trace::TraceSink,
                                   public trace::ShardableSink,
                                   public ckpt::CheckpointableSink {
 public:
  explicit LongitudinalAnalysis(std::vector<trace::AppId> tracked_apps = {});

  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_packet(const trace::PacketRecord& packet) override;
  void on_batch(const trace::EventBatch& batch) override;
  void on_user_end(trace::UserId user) override;

  // ShardableSink: the shard's week/era sums add to the running sums.
  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override;
  void merge_from(trace::TraceSink& shard) override;

  // CheckpointableSink: the running week/era sums (raw double bits).
  void save_state(ckpt::ByteWriter& out) const override;
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& in) override;

  /// Weekly fg/bg joules: the running sums plus the live user.
  [[nodiscard]] WeeklySeries overall() const;
  [[nodiscard]] EraComparison era_comparison(trace::AppId app) const;

  [[nodiscard]] obs::MemoryUse memory_use() const override;

 private:
  struct EraAccum {
    double early_joules = 0.0;
    double late_joules = 0.0;
    std::uint64_t early_bytes = 0;
    std::uint64_t late_bytes = 0;
  };

  /// Week and era sums of one user (the live part) or of every folded user.
  struct Part {
    std::vector<double> fg_weeks;
    std::vector<double> bg_weeks;
    std::vector<EraAccum> eras;  ///< one per tracked app, by tracked_index_

    void reset(std::size_t weeks, std::size_t apps);
    Part& operator+=(const Part& other);
  };

  static constexpr std::uint32_t kUntracked = UINT32_MAX;

  /// The live part, after folding the previous user when `user` differs.
  Part& live_part(trace::UserId user);
  /// Fold the live user into the running sums.
  void fold_live();

  trace::StudyMeta meta_;
  std::int64_t num_days_ = 0;
  std::size_t num_weeks_ = 1;
  std::vector<trace::AppId> tracked_;
  /// Dense app-id -> tracked slot map (kUntracked when not tracked).
  std::vector<std::uint32_t> tracked_index_;
  Part live_;
  trace::UserId live_user_ = 0;
  bool live_valid_ = false;  ///< live_ belongs to live_user_
  Part folded_;  ///< running sums over folded users, in stream order
};

}  // namespace wildenergy::analysis
