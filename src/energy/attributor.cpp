#include "energy/attributor.h"

#include <cassert>
#include <utility>

#include "radio/burst_machine.h"

namespace wildenergy::energy {

void AttributionCounters::merge_from(const AttributionCounters& other) {
  packets += other.packets;
  transitions += other.transitions;
  users += other.users;
  tail_attributions += other.tail_attributions;
  proportional_splits += other.proportional_splits;
  promotion_segments += other.promotion_segments;
  transfer_segments += other.transfer_segments;
  tail_segments += other.tail_segments;
  drx_segments += other.drx_segments;
  idle_segments += other.idle_segments;
}

EnergyAttributor::UserEnergy& EnergyAttributor::UserEnergy::operator+=(const UserEnergy& other) {
  device += other.device;
  attributed += other.attributed;
  baseline += other.baseline;
  tail += other.tail;
  promotion += other.promotion;
  transfer += other.transfer;
  return *this;
}

EnergyAttributor::EnergyAttributor(RadioModelFactory factory, trace::TraceSink* downstream,
                                   TailPolicy policy)
    : factory_(std::move(factory)),
      downstream_(downstream),
      policy_(policy),
      segment_sink_([this](const radio::EnergySegment& s) { handle_segment(s); }),
      run_sink_([this](std::size_t i, const radio::EnergySegment& s) { on_run_segment(i, s); }) {
  assert(factory_);
  assert(downstream_ != nullptr);
}

std::unique_ptr<EnergyAttributor> EnergyAttributor::clone_shard(
    trace::TraceSink* downstream) const {
  return std::make_unique<EnergyAttributor>(factory_, downstream, policy_);
}

void EnergyAttributor::on_study_begin(const trace::StudyMeta& meta) {
  meta_ = meta;
  folded_ = UserEnergy{};
  live_ = UserEnergy{};
  counters_ = {};
  downstream_->on_study_begin(meta);
}

void EnergyAttributor::on_user_begin(trace::UserId user) {
  fold_user(user);  // a previous user left open by a bracket-less stream
  ++counters_.users;
  model_ = factory_();
  burst_ = dynamic_cast<radio::BurstMachine*>(model_.get());
  window_.clear();
  held_transitions_.clear();
  pending_tail_ = 0.0;
  current_joules_ = 0.0;
  downstream_->on_user_begin(user);
}

void EnergyAttributor::handle_segment(const radio::EnergySegment& segment) {
  live_.device += segment.joules;
  switch (segment.kind) {
    case radio::SegmentKind::kIdle:
      ++counters_.idle_segments;
      live_.baseline += segment.joules;
      flush_pending();  // the radio went idle: the active window is over
      break;
    case radio::SegmentKind::kTail:
      ++counters_.tail_segments;
      counters_.drx_segments += segment.drx ? 1 : 0;
      live_.tail += segment.joules;
      live_.attributed += segment.joules;
      assert(!window_.empty());
      if (policy_ == TailPolicy::kLastPacket) {
        ++counters_.tail_attributions;
        window_.back().joules += segment.joules;
      } else {
        pending_tail_ += segment.joules;
      }
      break;
    case radio::SegmentKind::kPromotion:
      ++counters_.promotion_segments;
      live_.promotion += segment.joules;
      live_.attributed += segment.joules;
      current_joules_ += segment.joules;
      break;
    case radio::SegmentKind::kTransfer:
      ++counters_.transfer_segments;
      live_.transfer += segment.joules;
      live_.attributed += segment.joules;
      current_joules_ += segment.joules;
      break;
  }
}

void EnergyAttributor::flush_pending() {
  if (window_.empty() && held_transitions_.empty()) return;

  if (policy_ == TailPolicy::kProportional && pending_tail_ > 0.0 && !window_.empty()) {
    ++counters_.proportional_splits;
    counters_.tail_attributions += window_.size();  // each packet gets a tail share
    double total_bytes = 0.0;
    for (const auto& p : window_) total_bytes += static_cast<double>(p.bytes);
    for (auto& p : window_) {
      const double share = total_bytes > 0.0
                               ? static_cast<double>(p.bytes) / total_bytes
                               : 1.0 / static_cast<double>(window_.size());
      p.joules += pending_tail_ * share;
    }
  }
  pending_tail_ = 0.0;

  // Merge packets and held transitions back into time order.
  while (!window_.empty() || !held_transitions_.empty()) {
    const bool take_packet =
        !window_.empty() &&
        (held_transitions_.empty() || window_.front().time <= held_transitions_.front().time);
    if (take_packet) {
      emit_packet(window_.front());
      window_.pop_front();
    } else {
      emit_transition(held_transitions_.front());
      held_transitions_.pop_front();
    }
  }
}

void EnergyAttributor::emit_packet(const trace::PacketRecord& packet) {
  if (batching_) {
    out_.add(packet);
  } else {
    downstream_->on_packet(packet);
  }
}

void EnergyAttributor::emit_transition(const trace::StateTransition& transition) {
  if (batching_) {
    out_.add(transition);
  } else {
    downstream_->on_transition(transition);
  }
}

void EnergyAttributor::finalize_packet(const trace::PacketRecord& packet) {
  // Under the paper's rule a packet's tail attribution is settled as soon as
  // the next packet arrives, so the previous window can drain now. Under the
  // proportional rule the window stays open until the radio reaches idle.
  if (policy_ == TailPolicy::kLastPacket) flush_pending();

  trace::PacketRecord annotated = packet;
  annotated.joules = current_joules_;
  window_.push_back(annotated);
  current_joules_ = 0.0;
}

void EnergyAttributor::on_packet(const trace::PacketRecord& packet) {
  ++counters_.packets;
  model_->on_transfer({packet.time, packet.bytes, packet.direction}, segment_sink_);
  finalize_packet(packet);
}

void EnergyAttributor::on_run_segment(std::size_t index, const radio::EnergySegment& segment) {
  // Segments of run event `index` must see exactly the state the per-record
  // path would have: every earlier packet of the run already finalized (its
  // gap segments all carry indices < `index`, so they have been handled).
  while (run_finalized_ < index) finalize_packet(run_packets_[run_finalized_++]);
  handle_segment(segment);
}

void EnergyAttributor::on_batch(const trace::EventBatch& batch) {
  batching_ = true;
  out_.clear();
  out_.reserve(batch.order.size());
  out_.user = batch.user;

  std::size_t pi = 0;
  std::size_t ti = 0;
  std::size_t run_begin = 0;  // index into batch.packets of the current run
  run_events_.clear();
  const auto flush_run = [&] {
    if (run_events_.empty()) return;
    counters_.packets += run_events_.size();
    run_packets_ = batch.packets.data() + run_begin;
    run_finalized_ = 0;
    if (burst_ != nullptr) {
      // Statically-dispatched run: the segment chain inlines end to end.
      burst_->transfers(run_events_.data(), run_events_.size(),
                        [this](std::size_t i, const radio::EnergySegment& s) {
                          on_run_segment(i, s);
                        });
    } else {
      model_->on_transfers(run_events_.data(), run_events_.size(), run_sink_);
    }
    while (run_finalized_ < run_events_.size()) {
      finalize_packet(run_packets_[run_finalized_++]);
    }
    run_packets_ = nullptr;
    run_events_.clear();
  };

  for (const trace::EventKind kind : batch.order) {
    if (kind == trace::EventKind::kPacket) {
      const trace::PacketRecord& p = batch.packets[pi];
      if (run_events_.empty()) run_begin = pi;
      run_events_.push_back({p.time, p.bytes, p.direction});
      ++pi;
    } else {
      flush_run();
      const trace::StateTransition& t = batch.transitions[ti++];
      ++counters_.transitions;
      if (window_.empty()) {
        emit_transition(t);
      } else {
        held_transitions_.push_back(t);
      }
    }
  }
  flush_run();

  batching_ = false;
  if (!out_.empty()) downstream_->on_batch(out_);
}

void EnergyAttributor::on_transition(const trace::StateTransition& transition) {
  ++counters_.transitions;
  if (window_.empty()) {
    emit_transition(transition);
  } else {
    held_transitions_.push_back(transition);
  }
}

void EnergyAttributor::on_user_end(trace::UserId user) {
  if (model_) {
    model_->finish(meta_.study_end, segment_sink_);
  }
  flush_pending();
  fold_user(user);
  downstream_->on_user_end(user);
}

void EnergyAttributor::on_study_end() { downstream_->on_study_end(); }

void EnergyAttributor::fold_user(trace::UserId /*user*/) {
  folded_ += live_;
  live_ = UserEnergy{};
}

void EnergyAttributor::save_state(ckpt::ByteWriter& out) const {
  for (const double v : {folded_.device, folded_.attributed, folded_.baseline, folded_.tail,
                         folded_.promotion, folded_.transfer}) {
    out.put_f64(v);
  }
  const std::uint64_t counters[] = {
      counters_.packets,         counters_.transitions,        counters_.users,
      counters_.tail_attributions, counters_.proportional_splits, counters_.promotion_segments,
      counters_.transfer_segments, counters_.tail_segments,      counters_.drx_segments,
      counters_.idle_segments,
  };
  out.put_u64_span(counters);
}

util::Status EnergyAttributor::restore_state(ckpt::ByteReader& in) {
  live_ = UserEnergy{};
  for (double* field : {&folded_.device, &folded_.attributed, &folded_.baseline, &folded_.tail,
                        &folded_.promotion, &folded_.transfer}) {
    auto v = in.get_f64("attributor.energy");
    if (!v.ok()) return v.status();
    *field = *v;
  }
  std::uint64_t counters[10] = {};
  if (util::Status status = in.get_u64_span(counters, "attributor.counters"); !status.ok()) {
    return status;
  }
  counters_.packets = counters[0];
  counters_.transitions = counters[1];
  counters_.users = counters[2];
  counters_.tail_attributions = counters[3];
  counters_.proportional_splits = counters[4];
  counters_.promotion_segments = counters[5];
  counters_.transfer_segments = counters[6];
  counters_.tail_segments = counters[7];
  counters_.drx_segments = counters[8];
  counters_.idle_segments = counters[9];
  return util::Status::ok_status();
}

void EnergyAttributor::merge_from(const EnergyAttributor& shard) {
  counters_.merge_from(shard.counters_);
  // The shard held one user: its running sums are that user's partials
  // exactly (0.0 + x == x), and a still-live user adds after them.
  folded_ += shard.folded_;
  folded_ += shard.live_;
}

}  // namespace wildenergy::energy
