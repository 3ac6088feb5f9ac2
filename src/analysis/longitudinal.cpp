#include "analysis/longitudinal.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "trace/batch.h"

namespace wildenergy::analysis {

double WeeklySeries::max_weekly_bg_fluctuation() const {
  if (bg_joules.size() < 3) return 0.0;
  double peak = 0.0;
  for (double w : bg_joules) peak = std::max(peak, w);
  double worst = 0.0;
  // Skip the first and last week (partial weeks distort ratios).
  for (std::size_t w = 2; w + 1 < bg_joules.size(); ++w) {
    const double prev = bg_joules[w - 1];
    if (prev < 0.02 * peak) continue;  // ramp-in noise
    worst = std::max(worst, std::abs(bg_joules[w] - prev) / prev);
  }
  return worst;
}

LongitudinalAnalysis::LongitudinalAnalysis(std::vector<trace::AppId> tracked_apps)
    : tracked_(std::move(tracked_apps)) {
  for (std::size_t i = 0; i < tracked_.size(); ++i) {
    const trace::AppId app = tracked_[i];
    if (app >= tracked_index_.size()) tracked_index_.resize(app + 1, kUntracked);
    tracked_index_[app] = static_cast<std::uint32_t>(i);
  }
}

void LongitudinalAnalysis::Part::reset(std::size_t weeks, std::size_t apps) {
  fg_weeks.assign(weeks, 0.0);
  bg_weeks.assign(weeks, 0.0);
  eras.assign(apps, EraAccum{});
}

LongitudinalAnalysis::Part& LongitudinalAnalysis::Part::operator+=(const Part& other) {
  for (std::size_t w = 0; w < fg_weeks.size() && w < other.fg_weeks.size(); ++w) {
    fg_weeks[w] += other.fg_weeks[w];
    bg_weeks[w] += other.bg_weeks[w];
  }
  for (std::size_t i = 0; i < eras.size() && i < other.eras.size(); ++i) {
    eras[i].early_joules += other.eras[i].early_joules;
    eras[i].late_joules += other.eras[i].late_joules;
    eras[i].early_bytes += other.eras[i].early_bytes;
    eras[i].late_bytes += other.eras[i].late_bytes;
  }
  return *this;
}

void LongitudinalAnalysis::on_study_begin(const trace::StudyMeta& meta) {
  meta_ = meta;
  num_days_ = static_cast<std::int64_t>(std::ceil(meta.span().days()));
  num_weeks_ = std::max<std::size_t>(static_cast<std::size_t>((num_days_ + 6) / 7), 1);
  live_.reset(num_weeks_, tracked_.size());
  live_valid_ = false;
  folded_.reset(num_weeks_, tracked_.size());
}

LongitudinalAnalysis::Part& LongitudinalAnalysis::live_part(trace::UserId user) {
  if (!live_valid_ || live_user_ != user) {
    fold_live();
    live_user_ = user;
    live_valid_ = true;
  }
  return live_;
}

void LongitudinalAnalysis::fold_live() {
  if (!live_valid_) return;
  folded_ += live_;
  live_.reset(num_weeks_, tracked_.size());
  live_valid_ = false;
}

void LongitudinalAnalysis::on_packet(const trace::PacketRecord& p) {
  Part& part = live_part(p.user);

  const std::int64_t day = (p.time - meta_.study_begin).us / 86'400'000'000LL;
  const auto week = static_cast<std::size_t>(
      std::clamp<std::int64_t>(day / 7, 0, static_cast<std::int64_t>(num_weeks_) - 1));
  if (trace::is_foreground(p.state)) {
    part.fg_weeks[week] += p.joules;
  } else {
    part.bg_weeks[week] += p.joules;
  }

  if (p.app >= tracked_index_.size()) return;
  const std::uint32_t slot = tracked_index_[p.app];
  if (slot == kUntracked) return;
  EraAccum& era = part.eras[slot];
  if (day < num_days_ / 3) {
    era.early_joules += p.joules;
    era.early_bytes += p.bytes;
  } else if (day >= num_days_ - num_days_ / 3) {
    era.late_joules += p.joules;
    era.late_bytes += p.bytes;
  }
}

void LongitudinalAnalysis::on_batch(const trace::EventBatch& batch) {
  if (batch.packets.empty()) return;
  // Batches lie inside one user bracket: hoist the user partial, then run a
  // tight pass over the packet column (transitions are ignored).
  Part& part = live_part(batch.user);
  const std::int64_t begin_us = meta_.study_begin.us;
  const auto last_week = static_cast<std::int64_t>(num_weeks_) - 1;
  for (const auto& p : batch.packets) {
    const std::int64_t day = (p.time.us - begin_us) / 86'400'000'000LL;
    const auto week =
        static_cast<std::size_t>(std::clamp<std::int64_t>(day / 7, 0, last_week));
    (trace::is_foreground(p.state) ? part.fg_weeks : part.bg_weeks)[week] += p.joules;

    if (p.app >= tracked_index_.size()) continue;
    const std::uint32_t slot = tracked_index_[p.app];
    if (slot == kUntracked) continue;
    EraAccum& era = part.eras[slot];
    if (day < num_days_ / 3) {
      era.early_joules += p.joules;
      era.early_bytes += p.bytes;
    } else if (day >= num_days_ - num_days_ / 3) {
      era.late_joules += p.joules;
      era.late_bytes += p.bytes;
    }
  }
}

void LongitudinalAnalysis::on_user_end(trace::UserId /*user*/) { fold_live(); }

std::unique_ptr<trace::TraceSink> LongitudinalAnalysis::clone_shard() const {
  return std::make_unique<LongitudinalAnalysis>(tracked_);
}

void LongitudinalAnalysis::merge_from(trace::TraceSink& shard) {
  auto& other = dynamic_cast<LongitudinalAnalysis&>(shard);
  other.fold_live();  // a shard fed without its closing bracket
  // The shard held one user, so its running sums are that user's part.
  folded_ += other.folded_;
}

void LongitudinalAnalysis::save_state(ckpt::ByteWriter& out) const {
  out.put_f64_span(folded_.fg_weeks);
  out.put_f64_span(folded_.bg_weeks);
  out.put_varint(folded_.eras.size());
  for (const EraAccum& era : folded_.eras) {
    out.put_f64(era.early_joules);
    out.put_f64(era.late_joules);
    out.put_varint(era.early_bytes);
    out.put_varint(era.late_bytes);
  }
}

util::Status LongitudinalAnalysis::restore_state(ckpt::ByteReader& in) {
  live_.reset(num_weeks_, tracked_.size());
  live_valid_ = false;
  folded_.reset(num_weeks_, tracked_.size());
  auto status = in.get_f64_span(folded_.fg_weeks, "longitudinal.fg_weeks");
  if (!status.ok()) return status;
  status = in.get_f64_span(folded_.bg_weeks, "longitudinal.bg_weeks");
  if (!status.ok()) return status;
  auto num_eras = in.get_varint("longitudinal.eras");
  if (!num_eras.ok()) return num_eras.status();
  if (*num_eras != folded_.eras.size()) {
    return util::Status::data_loss("corrupt checkpoint: longitudinal tracks " +
                                   std::to_string(folded_.eras.size()) +
                                   " apps, snapshot holds " + std::to_string(*num_eras));
  }
  for (EraAccum& era : folded_.eras) {
    auto early_j = in.get_f64("longitudinal.era_early_joules");
    if (!early_j.ok()) return early_j.status();
    era.early_joules = *early_j;
    auto late_j = in.get_f64("longitudinal.era_late_joules");
    if (!late_j.ok()) return late_j.status();
    era.late_joules = *late_j;
    auto early_b = in.get_varint("longitudinal.era_early_bytes");
    if (!early_b.ok()) return early_b.status();
    era.early_bytes = *early_b;
    auto late_b = in.get_varint("longitudinal.era_late_bytes");
    if (!late_b.ok()) return late_b.status();
    era.late_bytes = *late_b;
  }
  return util::Status::ok_status();
}

WeeklySeries LongitudinalAnalysis::overall() const {
  Part sums = folded_;
  if (live_valid_) sums += live_;
  return {std::move(sums.fg_weeks), std::move(sums.bg_weeks)};
}

EraComparison LongitudinalAnalysis::era_comparison(trace::AppId app) const {
  EraComparison out;
  out.app = app;
  if (num_days_ < 3) return out;
  if (app >= tracked_index_.size() || tracked_index_[app] == kUntracked) return out;
  const std::uint32_t slot = tracked_index_[app];
  EraAccum era = folded_.eras[slot];
  if (live_valid_) {
    const EraAccum& live = live_.eras[slot];
    era.early_joules += live.early_joules;
    era.late_joules += live.late_joules;
    era.early_bytes += live.early_bytes;
    era.late_bytes += live.late_bytes;
  }
  const double era_days = static_cast<double>(num_days_) / 3.0;
  out.early_joules_per_day = era.early_joules / era_days;
  out.late_joules_per_day = era.late_joules / era_days;
  if (era.early_bytes > 0) {
    out.early_uj_per_byte = era.early_joules / static_cast<double>(era.early_bytes) * 1e6;
  }
  if (era.late_bytes > 0) {
    out.late_uj_per_byte = era.late_joules / static_cast<double>(era.late_bytes) * 1e6;
  }
  return out;
}

obs::MemoryUse LongitudinalAnalysis::memory_use() const {
  const auto part_bytes = [](const Part& part) -> std::uint64_t {
    return (part.fg_weeks.capacity() + part.bg_weeks.capacity()) * sizeof(double) +
           part.eras.capacity() * sizeof(EraAccum);
  };
  return {.resident_bytes = part_bytes(live_) + part_bytes(folded_), .spilled_bytes = 0};
}

}  // namespace wildenergy::analysis
