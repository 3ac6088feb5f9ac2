#include "analysis/waste.h"

#include <algorithm>
#include <string>

namespace wildenergy::analysis {

WastedUpdateAnalysis::WastedUpdateAnalysis(std::vector<trace::AppId> apps, Duration useful_window)
    : apps_(std::move(apps)),
      useful_window_(useful_window),
      assembler_([this](const trace::FlowRecord& flow) { on_flow(flow); }) {
  trace::AppId max_app = 0;
  for (trace::AppId app : apps_) max_app = std::max(max_app, app);
  tracked_index_.assign(apps_.empty() ? 0 : max_app + 1, kUntracked);
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    tracked_index_[apps_[i]] = static_cast<std::uint32_t>(i);
  }
}

void WastedUpdateAnalysis::on_study_begin(const trace::StudyMeta& meta) {
  cur_user_ = kNoUser;
  per_app_.assign(apps_.size(), PerApp{});
  assembler_.on_study_begin(meta);
}

WastedUpdateAnalysis::PerApp* WastedUpdateAnalysis::slot(trace::AppId app) {
  if (app >= tracked_index_.size()) return nullptr;
  const std::uint32_t index = tracked_index_[app];
  if (index == kUntracked || index >= per_app_.size()) return nullptr;
  return &per_app_[index];
}

void WastedUpdateAnalysis::fold_live() {
  for (PerApp& pa : per_app_) {
    for (const PendingUpdate& update : pa.pending) {
      ++pa.wasted_updates;
      pa.live.wasted_joules += update.joules;
    }
    pa.pending.clear();
    pa.folded.joules += pa.live.joules;
    pa.folded.wasted_joules += pa.live.wasted_joules;
    pa.live = UserPart{};
  }
}

void WastedUpdateAnalysis::switch_user(trace::UserId user) {
  fold_live();
  cur_user_ = user;
}

void WastedUpdateAnalysis::on_user_begin(trace::UserId user) {
  switch_user(user);
  assembler_.on_user_begin(user);
}

void WastedUpdateAnalysis::on_packet(const trace::PacketRecord& packet) {
  PerApp* pa = slot(packet.app);
  if (pa == nullptr) return;
  if (packet.user != cur_user_) switch_user(packet.user);
  if (trace::is_foreground(packet.state)) {
    // Foreground traffic itself proves the user is looking: settle pending.
    settle_on_foreground(packet.app, packet.time);
    return;
  }
  expire(*pa, packet.time);
  assembler_.on_packet(packet);
}

void WastedUpdateAnalysis::on_transition(const trace::StateTransition& transition) {
  if (slot(transition.app) == nullptr) return;
  if (transition.user != cur_user_) switch_user(transition.user);
  if (transition.is_bg_to_fg()) {
    settle_on_foreground(transition.app, transition.time);
  }
}

void WastedUpdateAnalysis::on_user_end(trace::UserId user) {
  assembler_.on_user_end(user);
  // Remaining pending updates were never followed by use: wasted.
  fold_live();
  cur_user_ = kNoUser;
}

void WastedUpdateAnalysis::on_flow(const trace::FlowRecord& flow) {
  PerApp* pa = slot(flow.app);
  if (pa == nullptr) return;
  pa->updates += 1;
  pa->live.joules += flow.joules;
  pa->pending.push_back({flow.last_packet, flow.joules});
}

void WastedUpdateAnalysis::expire(PerApp& pa, TimePoint now) {
  while (!pa.pending.empty() && now - pa.pending.front().completed > useful_window_) {
    ++pa.wasted_updates;
    pa.live.wasted_joules += pa.pending.front().joules;
    pa.pending.pop_front();
  }
}

void WastedUpdateAnalysis::settle_on_foreground(trace::AppId app, TimePoint now) {
  assembler_.flush_idle(now);  // surface logically-complete updates first
  PerApp& pa = *slot(app);
  expire(pa, now);     // anything older than the window is still wasted
  pa.pending.clear();  // remaining updates were fresh when the user looked
}

std::unique_ptr<trace::TraceSink> WastedUpdateAnalysis::clone_shard() const {
  return std::make_unique<WastedUpdateAnalysis>(apps_, useful_window_);
}

void WastedUpdateAnalysis::merge_from(trace::TraceSink& shard) {
  auto& other = dynamic_cast<WastedUpdateAnalysis&>(shard);
  other.fold_live();  // a shard fed without its closing bracket
  for (std::size_t i = 0; i < per_app_.size(); ++i) {
    PerApp& mine = per_app_[i];
    const PerApp& theirs = other.per_app_[i];
    mine.updates += theirs.updates;
    mine.wasted_updates += theirs.wasted_updates;
    // The shard held one user, so its running sums are that user's split.
    mine.folded.joules += theirs.folded.joules;
    mine.folded.wasted_joules += theirs.folded.wasted_joules;
  }
}

void WastedUpdateAnalysis::save_state(ckpt::ByteWriter& out) const {
  out.put_varint(per_app_.size());
  for (const PerApp& pa : per_app_) {
    out.put_varint(pa.updates);
    out.put_varint(pa.wasted_updates);
    out.put_f64(pa.folded.joules);
    out.put_f64(pa.folded.wasted_joules);
  }
}

util::Status WastedUpdateAnalysis::restore_state(ckpt::ByteReader& in) {
  auto num_apps = in.get_varint("waste.apps");
  if (!num_apps.ok()) return num_apps.status();
  if (*num_apps != per_app_.size()) {
    return util::Status::data_loss("corrupt checkpoint: waste tracks " +
                                   std::to_string(per_app_.size()) + " apps, snapshot holds " +
                                   std::to_string(*num_apps));
  }
  for (PerApp& pa : per_app_) {
    pa = PerApp{};
    auto updates = in.get_varint("waste.updates");
    if (!updates.ok()) return updates.status();
    pa.updates = *updates;
    auto wasted = in.get_varint("waste.wasted_updates");
    if (!wasted.ok()) return wasted.status();
    pa.wasted_updates = *wasted;
    auto joules = in.get_f64("waste.joules");
    if (!joules.ok()) return joules.status();
    pa.folded.joules = *joules;
    auto wasted_joules = in.get_f64("waste.wasted_joules");
    if (!wasted_joules.ok()) return wasted_joules.status();
    pa.folded.wasted_joules = *wasted_joules;
  }
  return util::Status::ok_status();
}

WasteResult WastedUpdateAnalysis::result(trace::AppId app) const {
  WasteResult out;
  out.app = app;
  if (app >= tracked_index_.size() || tracked_index_[app] == kUntracked ||
      tracked_index_[app] >= per_app_.size()) {
    return out;
  }
  const PerApp& pa = per_app_[tracked_index_[app]];
  out.updates = pa.updates;
  out.wasted_updates = pa.wasted_updates;
  out.joules = pa.folded.joules + pa.live.joules;
  out.wasted_joules = pa.folded.wasted_joules + pa.live.wasted_joules;
  return out;
}

obs::MemoryUse WastedUpdateAnalysis::memory_use() const {
  std::uint64_t total = tracked_index_.capacity() * sizeof(std::uint32_t);
  for (const PerApp& pa : per_app_) total += pa.pending.size() * sizeof(PendingUpdate);
  return {.resident_bytes = total, .spilled_bytes = 0};
}

}  // namespace wildenergy::analysis
