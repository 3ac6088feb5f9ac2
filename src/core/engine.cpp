#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <deque>
#include <exception>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpointable.h"
#include "fault/plan.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace_writer.h"
#include "trace/batch.h"
#include "trace/instrumented_sink.h"
#include "trace/interface_filter.h"
#include "trace/shardable.h"
#include "trace/store_backend.h"
#include "util/thread_pool.h"

namespace wildenergy::core {

std::size_t shard_window(unsigned workers) {
  return workers <= 1 ? 1 : std::size_t{4} * workers;
}

namespace internal {
namespace {

/// Shardability adapter for custom sinks that do not implement
/// trace::ShardableSink. The parent forwards the study brackets to the
/// wrapped sink; each clone captures its one user's annotated stream; and
/// merge_from replays the capture into the wrapped sink. Merges arrive in
/// stream order, so the wrapped sink sees exactly the surviving-user stream a
/// single pass would have fed it. Counted in RunStats::serial_fallback_sinks.
class CollectSpliceSink final : public trace::TraceSink, public trace::ShardableSink {
 public:
  /// Parent mode wraps `target` (non-owning). Clones capture instead.
  explicit CollectSpliceSink(trace::TraceSink* target) : target_(target) {}

  void on_study_begin(const trace::StudyMeta& meta) override {
    if (target_ != nullptr) target_->on_study_begin(meta);
  }
  void on_study_end() override {
    if (target_ != nullptr) target_->on_study_end();
  }
  void on_user_begin(trace::UserId user) override {
    assert(!have_user_);  // one user per clone
    have_user_ = true;
    user_ = user;
  }
  void on_packet(const trace::PacketRecord& p) override { events_.add(p); }
  void on_transition(const trace::StateTransition& t) override { events_.add(t); }
  void on_batch(const trace::EventBatch& batch) override {
    events_.packets.insert(events_.packets.end(), batch.packets.begin(), batch.packets.end());
    events_.transitions.insert(events_.transitions.end(), batch.transitions.begin(),
                               batch.transitions.end());
    events_.order.insert(events_.order.end(), batch.order.begin(), batch.order.end());
  }

  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override {
    return std::make_unique<CollectSpliceSink>(nullptr);
  }
  void merge_from(trace::TraceSink& shard) override {
    auto& other = dynamic_cast<CollectSpliceSink&>(shard);
    if (!other.have_user_) return;
    target_->on_user_begin(other.user_);
    trace::replay(other.events_, *target_);
    target_->on_user_end(other.user_);
    other.events_.clear();
    other.have_user_ = false;
  }

  [[nodiscard]] obs::MemoryUse memory_use() const override {
    return {.resident_bytes = events_.packets.capacity() * sizeof(trace::PacketRecord) +
                              events_.transitions.capacity() * sizeof(trace::StateTransition) +
                              events_.order.capacity() * sizeof(trace::EventKind),
            .spilled_bytes = 0};
  }

 private:
  trace::TraceSink* target_;  ///< null in capture clones
  bool have_user_ = false;
  trace::UserId user_ = 0;
  trace::EventBatch events_;
};

/// One shard's private sink chain plus its scheduling record. Heap-allocated
/// because the filter and attributor hold pointers into it.
struct ShardChain {
  std::size_t walk = 0;
  trace::UserId user = 0;
  obs::MetricsRegistry registry;  ///< shard-local radio counters
  trace::TraceMulticast fanout;
  std::vector<std::unique_ptr<trace::TraceSink>> clones;  ///< parallel to the walk's sinks
  std::unique_ptr<energy::EnergyAttributor> attributor;
  std::unique_ptr<trace::TraceSink> policy;
  std::unique_ptr<trace::InterfaceFilter> filter;
  std::unique_ptr<trace::TraceSink> fault;  ///< FaultPlan decorator, if any
  trace::TraceSink* entry = nullptr;
  // Stage profiling: every stage wrapped on a shard-local PhaseStack.
  // `stages` lists the wrappers in display order (filter, policy, attribute,
  // then the sinks), the same shape for every shard of a walk.
  obs::PhaseStack phase_stack;
  std::vector<std::unique_ptr<trace::InstrumentedSink>> wrappers;
  std::vector<trace::InstrumentedSink*> stages;
  unsigned worker = 0;
  unsigned attempts = 0;
  double wall_ms = 0.0;
  std::int64_t span_start_us = 0;
  util::Status error;         ///< non-OK while the latest attempt has failed
  std::exception_ptr thrown;  ///< kFailFast failure, rethrown at merge
};

using Build = std::function<std::unique_ptr<ShardChain>(std::size_t)>;
using Run = std::function<void(ShardChain&, unsigned)>;
using Settle = std::function<util::Status(std::unique_ptr<ShardChain>)>;

/// The scheduler: shards 0..count-1 are built and settled on the calling
/// thread in index order, and run on `workers` pool threads that pull the
/// next built shard as soon as they finish one. At most shard_window(workers)
/// shards are built but unsettled. One worker runs every shard inline.
util::Status run_window(std::size_t count, unsigned workers, const Build& build, const Run& run,
                        const Settle& settle) {
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      std::unique_ptr<ShardChain> shard = build(i);
      run(*shard, 0);
      if (util::Status st = settle(std::move(shard)); !st.ok()) return st;
    }
    return util::Status::ok_status();
  }
  const std::size_t window = shard_window(workers);
  struct Slot {
    std::unique_ptr<ShardChain> shard;
    bool done = false;
  };
  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::vector<Slot> slots(window);
  std::deque<std::size_t> ready;  ///< built shards no worker has taken yet
  bool stop = false;
  const std::function<void(std::size_t, unsigned)> pull = [&](std::size_t, unsigned worker) {
    std::unique_lock<std::mutex> lock{mu};
    for (;;) {
      work_cv.wait(lock, [&] { return stop || !ready.empty(); });
      if (stop) return;
      Slot& slot = slots[ready.front() % window];
      ready.pop_front();
      lock.unlock();
      try {
        run(*slot.shard, worker);
      } catch (...) {
        slot.shard->thrown = std::current_exception();
      }
      lock.lock();
      slot.done = true;
      done_cv.notify_one();
    }
  };
  util::ThreadPool pool{workers};
  pool.start(workers, pull);  // one pull loop per worker
  // Stops and drains the pull loops before the slots go, also when a merge
  // throws.
  struct Drain {
    std::mutex& mu;
    std::condition_variable& work_cv;
    bool& stop;
    util::ThreadPool& pool;
    ~Drain() {
      {
        const std::lock_guard<std::mutex> lock{mu};
        stop = true;
      }
      work_cv.notify_all();
      pool.wait();
    }
  } drain{mu, work_cv, stop, pool};
  std::size_t built = 0;
  for (std::size_t next = 0; next < count; ++next) {
    for (; built < count && built < next + window; ++built) {
      std::unique_ptr<ShardChain> shard = build(built);
      {
        const std::lock_guard<std::mutex> lock{mu};
        slots[built % window] = {std::move(shard), false};
        ready.push_back(built);
      }
      work_cv.notify_one();
    }
    std::unique_ptr<ShardChain> shard;
    {
      std::unique_lock<std::mutex> lock{mu};
      Slot& slot = slots[next % window];
      done_cv.wait(lock, [&] { return slot.done; });
      shard = std::move(slot.shard);
    }
    if (shard->thrown) std::rethrow_exception(shard->thrown);
    if (util::Status st = settle(std::move(shard)); !st.ok()) return st;
  }
  return util::Status::ok_status();
}

/// A finished scenario's summary, persisted in its "s<i>.stats" snapshot
/// section: the counters a resumed run cannot recompute without replaying.
std::string encode_walk_stats(const Walk& walk) {
  ckpt::ByteWriter out;
  out.put_string(walk.name);
  const obs::RunStats& s = *walk.stats;
  for (const std::uint64_t v :
       {s.users, s.packets, s.transitions, s.bytes, s.off_interface_packets,
        s.off_interface_bytes}) {
    out.put_varint(v);
  }
  out.put_f64(s.joules);
  for (const std::uint64_t v :
       {s.tail_attributions, s.proportional_splits, s.promotion_segments, s.transfer_segments,
        s.tail_segments, s.drx_segments, s.idle_segments, s.radio_bursts, s.radio_bursts_queued,
        s.radio_promotions, s.radio_repromotions, s.shard_retries, s.serial_fallback_sinks}) {
    out.put_varint(v);
  }
  out.put_u64_span(s.failed_users);
  return out.take();
}

util::Status decode_walk_stats(std::string_view bytes, const Walk& walk) {
  ckpt::ByteReader in{bytes};
  auto name = in.get_string("scenario.name");
  if (!name.ok()) return name.status();
  if (*name != walk.name) {
    return util::Status::failed_precondition("checkpointed scenario '" + *name +
                                             "' does not match registered scenario '" +
                                             walk.name + "' — the scenario list changed");
  }
  obs::RunStats& s = *walk.stats;
  for (std::uint64_t* field : {&s.users, &s.packets, &s.transitions, &s.bytes,
                               &s.off_interface_packets, &s.off_interface_bytes}) {
    auto v = in.get_varint("scenario.totals");
    if (!v.ok()) return v.status();
    *field = *v;
  }
  auto joules = in.get_f64("scenario.joules");
  if (!joules.ok()) return joules.status();
  s.joules = *joules;
  for (std::uint64_t* field :
       {&s.tail_attributions, &s.proportional_splits, &s.promotion_segments,
        &s.transfer_segments, &s.tail_segments, &s.drx_segments, &s.idle_segments,
        &s.radio_bursts, &s.radio_bursts_queued, &s.radio_promotions, &s.radio_repromotions,
        &s.shard_retries, &s.serial_fallback_sinks}) {
    auto v = in.get_varint("scenario.counters");
    if (!v.ok()) return v.status();
    *field = *v;
  }
  // put_u64_span wire format: varint count, then varint values.
  auto failed = in.get_varint("scenario.failed_users");
  if (!failed.ok()) return failed.status();
  if (*failed > in.remaining()) return util::Status::data_loss("truncated scenario stats");
  s.failed_users.resize(*failed);
  for (std::uint64_t& u : s.failed_users) {
    auto v = in.get_varint("scenario.failed_users");
    if (!v.ok()) return v.status();
    u = *v;
  }
  if (!in.at_end()) {
    return util::Status::data_loss("trailing bytes in scenario stats section for '" +
                                   walk.name + "'");
  }
  return util::Status::ok_status();
}

std::string save_section(const ckpt::CheckpointableSink& sink) {
  ckpt::ByteWriter out;
  sink.save_state(out);
  return out.take();
}

util::Status restore_section(const ckpt::Snapshot& snapshot, const std::string& name,
                             ckpt::CheckpointableSink& sink) {
  const std::string* payload = snapshot.section(name);
  if (payload == nullptr) {
    return util::Status::failed_precondition(
        "checkpoint holds no section '" + name +
        "' — it was taken under a different sink or scenario set");
  }
  ckpt::ByteReader in{*payload};
  if (util::Status st = sink.restore_state(in); !st.ok()) {
    return {st.code(), "section '" + name + "': " + st.message()};
  }
  if (!in.at_end()) {
    return util::Status::data_loss("section '" + name + "': " + std::to_string(in.remaining()) +
                                   " trailing bytes");
  }
  return util::Status::ok_status();
}

constexpr const char* kRadioCounters[] = {"radio.bursts", "radio.bursts_queued",
                                          "radio.promotions", "radio.repromotions"};

/// One walk's run-time state next to its caller-owned Walk.
struct WalkRun {
  Walk* walk = nullptr;
  std::vector<std::unique_ptr<CollectSpliceSink>> adapters;
  std::vector<trace::ShardableSink*> shardable;  ///< parallel to walk->sinks
  std::vector<trace::TraceSink*> parents;        ///< the same objects, as sinks
  std::vector<trace::UserId> completed;  ///< merged users, this run and resumed; sorted
  std::vector<trace::UserId> skip;       ///< sorted: users a checkpoint covers
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t radio[std::size(kRadioCounters)] = {};
  std::vector<obs::StageStats> stages;  ///< merged shards' profiles, folded
  double source_ms = 0.0;               ///< merged shards' unprofiled time
  std::size_t since_checkpoint = 0;
};

class Engine {
 public:
  Engine(trace::TraceSource& source, std::vector<Walk>& walks, const EngineOptions& options,
         obs::RunStats& run)
      : source_(source),
        options_(options),
        run_(run),
        timed_(options.collect_stage_stats || options.trace_writer != nullptr),
        // Scripted shard faults need a re-runnable shard; forward-only
        // streams run without them.
        fault_plan_(source.supports_user_access() ? options.fault_plan : nullptr) {
    runs_.resize(walks.size());
    for (std::size_t i = 0; i < walks.size(); ++i) runs_[i].walk = &walks[i];
  }

  /// Arm the spills, open every walk's study bracket, and fold a resumed
  /// checkpoint back in.
  util::Status begin(const trace::StudyMeta& meta, std::uint64_t users) {
    meta_ = meta;
    users_ = users;
    for (WalkRun& wr : runs_) {
      Walk& w = *wr.walk;
      for (const auto& [name, sink] : w.sinks) {
        if (!options_.checkpoint_dir.empty() && ckpt::as_checkpointable(sink) == nullptr) {
          return util::Status::failed_precondition(
              (w.name.empty() ? "" : "scenario '" + w.name + "' ") + "sink '" + name +
              "' does not implement ckpt::CheckpointableSink; checkpointing would lose its "
              "state — drop the sink or implement save_state/restore_state");
        }
        if (auto* s = trace::as_shardable(sink)) {
          wr.shardable.push_back(s);
          wr.parents.push_back(sink);
        } else {
          wr.adapters.push_back(std::make_unique<CollectSpliceSink>(sink));
          wr.shardable.push_back(wr.adapters.back().get());
          wr.parents.push_back(wr.adapters.back().get());
        }
      }
      w.stats->serial_fallback_sinks = wr.adapters.size();
      // Re-armed on every run: nullptr disarms sinks an earlier run armed.
      for (auto* s : wr.shardable) s->set_account_spill(w.spill);
    }

    std::optional<ckpt::Snapshot> resumed;
    std::size_t done = 0;
    if (!options_.checkpoint_dir.empty()) {
      writer_ = std::make_unique<ckpt::CheckpointWriter>(
          options_.checkpoint_dir, ckpt::CheckpointWriterOptions{.fault_plan = options_.fault_plan});
      if (options_.resume) {
        auto loaded = ckpt::CheckpointReader::load_latest(options_.checkpoint_dir);
        if (!loaded.ok()) return loaded.status();
        if (util::Status st = ckpt::check_snapshot_meta(loaded->snapshot, meta); !st.ok()) {
          return st;
        }
        run_.recovered_from_seq = loaded->recovered_from_seq;
        writer_->set_next_seq(loaded->seq + 1);
        resumed = std::move(loaded->snapshot);
        done = resumed->counter("scenarios_done");
        if (done > runs_.size()) {
          return util::Status::failed_precondition(
              "checkpoint covers " + std::to_string(done) + " finished scenarios but only " +
              std::to_string(runs_.size()) + " are registered — the scenario list changed");
        }
      }
    }

    for (std::size_t j = 0; j < runs_.size(); ++j) {
      WalkRun& wr = runs_[j];
      Walk& w = *wr.walk;
      const std::string prefix = "s" + std::to_string(j) + ".";
      const std::string* in_progress =
          resumed && j == done ? resumed->section(prefix + "scenario") : nullptr;
      const bool restore = resumed && (j < done || in_progress != nullptr);
      if (w.spill != nullptr) {
        // A restored walk keeps the account files its checkpoint vouched
        // for; later files hold users the resume re-runs.
        util::Status st = restore
                              ? w.spill->resume(resumed->counter(prefix + "account_sealed_files"))
                              : w.spill->open_fresh();
        if (!st.ok()) return st;
      }
      w.attributor->on_study_begin(meta);
      for (auto* parent : wr.parents) parent->on_study_begin(meta);
      if (!restore) continue;
      if (j < done) {
        if (const std::string* blob = resumed->section(prefix + "stats"); blob == nullptr) {
          return util::Status::failed_precondition("checkpoint holds no section '" + prefix +
                                                   "stats' — sweep shape changed");
        } else if (util::Status st = decode_walk_stats(*blob, w); !st.ok()) {
          return {st.code(), "restoring scenario '" + w.name + "': " + st.message()};
        }
      } else {
        if (*in_progress != w.name) {
          return util::Status::failed_precondition(
              "checkpointed in-progress scenario '" + *in_progress +
              "' does not match registered scenario '" + w.name +
              "' — the scenario list changed");
        }
        if (util::Status st = restore_section(*resumed, prefix + "attributor", *w.attributor);
            !st.ok()) {
          return st;
        }
        wr.completed = resumed->completed_users;
        std::sort(wr.completed.begin(), wr.completed.end());
        w.stats->shard_retries = resumed->counter("shard_retries");
        w.stats->failed_users.assign(resumed->failed_users.begin(), resumed->failed_users.end());
        wr.dropped_packets = resumed->counter("off_interface_packets");
        wr.dropped_bytes = resumed->counter("off_interface_bytes");
        for (std::size_t c = 0; c < std::size(kRadioCounters); ++c) {
          wr.radio[c] = resumed->counter(kRadioCounters[c]);
        }
        wr.skip = wr.completed;
        wr.skip.insert(wr.skip.end(), resumed->failed_users.begin(), resumed->failed_users.end());
        std::sort(wr.skip.begin(), wr.skip.end());
      }
      for (const auto& [name, sink] : w.sinks) {
        if (util::Status st =
                restore_section(*resumed, prefix + name, *ckpt::as_checkpointable(sink));
            !st.ok()) {
          return st;
        }
      }
      if (j < done) {
        for (auto* parent : wr.parents) parent->on_study_end();
      }
      run_.resumed_users += j < done ? w.stats->users : wr.skip.size();
    }
    current_ = done;
    return util::Status::ok_status();
  }

  [[nodiscard]] std::size_t first_walk() const { return current_; }
  /// The refusal of a user whose bracket a forward-only stream opens again
  /// after the walk merged it: merging the second bracket would overwrite the
  /// first in the ledger.
  [[nodiscard]] util::Status reopened(std::size_t walk, trace::UserId user) const {
    const std::string& name = runs_[walk].walk->name;
    return util::Status::data_loss((name.empty() ? "" : "scenario '" + name + "': ") + "user " +
                                   std::to_string(user) +
                                   " appears in a second bracket after its first was merged");
  }
  [[nodiscard]] bool skip(std::size_t walk, trace::UserId user) const {
    const auto& skip = runs_[walk].skip;
    return std::binary_search(skip.begin(), skip.end(), user);
  }
  void set_plan(std::size_t total_shards, unsigned workers) {
    total_shards_ = total_shards;
    workers_ = workers;
  }
  [[nodiscard]] obs::TraceWriter* trace_writer() const { return options_.trace_writer; }

  /// A fresh chain for `user` of `walk`: clones of the walk's parents behind
  /// a cloned attributor, the policy, the interface filter, and — when a
  /// fault plan covers the user — the fault decorator. Building is also how
  /// a failed shard retries: a fresh chain has no partial state.
  std::unique_ptr<ShardChain> build(std::size_t walk, trace::UserId user) {
    const WalkRun& wr = runs_[walk];
    const Walk& w = *wr.walk;
    auto shard = std::make_unique<ShardChain>();
    shard->walk = walk;
    shard->user = user;
    // Stages in display order: filter, policy (if any), attribute, sinks.
    const std::size_t head = w.policy ? 3 : 2;
    if (timed_) shard->stages.resize(head + wr.shardable.size());
    // One worker runs shards one after another, so each stage can also lay
    // a per-user span on its own trace track (tid 2 + display index).
    obs::TraceWriter* spans = workers_ == 1 ? options_.trace_writer : nullptr;
    ShardChain* raw = shard.get();
    const auto wrap = [&](std::string name, trace::TraceSink* sink,
                          std::size_t display) -> trace::TraceSink* {
      if (!timed_) return sink;
      raw->wrappers.push_back(std::make_unique<trace::InstrumentedSink>(
          std::move(name), sink, &raw->phase_stack, spans, 2 + static_cast<int>(display)));
      raw->stages[display] = raw->wrappers.back().get();
      return raw->wrappers.back().get();
    };
    for (std::size_t i = 0; i < wr.shardable.size(); ++i) {
      shard->clones.push_back(wr.shardable[i]->clone_shard());
      shard->fanout.add(wrap(w.sinks[i].first, shard->clones.back().get(), head + i));
    }
    shard->attributor = w.attributor->clone_shard(&shard->fanout);
    trace::TraceSink* chain = wrap("attribute", shard->attributor.get(), head - 1);
    if (w.policy) {
      shard->policy = w.policy(chain);
      chain = wrap("policy", shard->policy.get(), 1);
    }
    shard->filter = std::make_unique<trace::InterfaceFilter>(chain, w.interface);
    shard->entry = wrap("filter", shard->filter.get(), 0);
    if (fault_plan_ != nullptr) {
      // One attempt counted per build, so a retry re-arms or disarms the
      // fault deterministically.
      shard->fault = fault_plan_->wrap(user, shard->entry);
      if (shard->fault != nullptr) shard->entry = shard->fault.get();
    }
    return shard;
  }

  /// Run one attempt of `shard` from a random-access source (any thread).
  void run(ShardChain& shard, unsigned worker) {
    // The radio model built in on_user_begin resolves its counters here.
    const obs::ScopedMetricsRegistry scoped{&shard.registry};
    shard.worker = worker;
    ++shard.attempts;
    shard.span_start_us = options_.trace_writer != nullptr ? options_.trace_writer->now_us() : 0;
    const obs::Stopwatch watch;
    if (options_.failure_policy == FailurePolicy::kRetryThenSkip) {
      try {
        shard.error = source_.emit_user(shard.user, *shard.entry, options_.batch_size);
      } catch (const std::exception& e) {
        shard.error = util::Status::aborted(e.what());
      }
    } else {
      const util::Status st = source_.emit_user(shard.user, *shard.entry, options_.batch_size);
      if (!st.ok()) throw std::runtime_error(st.to_string());
    }
    shard.wall_ms = watch.elapsed_ms();
  }

  /// The merge point, on the calling thread in stream order: retry, merge,
  /// fold, progress, checkpoint.
  util::Status settle(std::unique_ptr<ShardChain> shard) {
    while (current_ < shard->walk) {
      if (util::Status st = close_walk(); !st.ok()) return st;
    }
    WalkRun& wr = runs_[shard->walk];
    Walk& w = *wr.walk;
    obs::RunStats& stats = *w.stats;
    const std::size_t walk = shard->walk;
    const trace::UserId user = shard->user;
    if (std::binary_search(wr.completed.begin(), wr.completed.end(), user)) {
      return reopened(walk, user);
    }
    if (options_.failure_policy == FailurePolicy::kRetryThenSkip) {
      for (unsigned retry = 0; !shard->error.ok() && retry < options_.max_shard_retries;
           ++retry) {
        const unsigned worker = shard->worker;
        const unsigned attempts = shard->attempts;
        shard.reset();  // never two chains of one shard alive
        shard = build(walk, user);
        shard->attempts = attempts;
        ++stats.shard_retries;
        run(*shard, worker);
      }
      if (!shard->error.ok()) stats.failed_users.push_back(user);
    }

    obs::ShardRunStats row;
    row.user = user;
    row.worker = shard->worker;
    row.wall_ms = shard->wall_ms;
    row.attempts = std::max(1u, shard->attempts);
    row.skipped = !shard->error.ok();
    row.status = shard->error;
    if (!row.skipped) {
      // Read before the merge moves the clone's state into the parent.
      const auto& ledger = dynamic_cast<const energy::EnergyLedger&>(*shard->clones[0]);
      row.packets = ledger.total_packets();
      row.bytes = ledger.total_bytes();
      row.joules = ledger.total_joules();
      if (timed_) {
        if (wr.stages.empty()) wr.stages.resize(shard->stages.size());
        double accounted_ms = 0.0;
        for (std::size_t i = 0; i < shard->stages.size(); ++i) {
          const obs::StageStats stage = shard->stages[i]->stats();
          accounted_ms += stage.self_ms;
          wr.stages[i].merge_from(stage);
        }
        wr.source_ms += std::max(0.0, shard->wall_ms - accounted_ms);
      }
      // Merging folds the user into the parents' running sums; fold_user
      // then spills and releases the detail rows of the sinks that keep
      // them, when an account spill is armed.
      w.attributor->merge_from(*shard->attributor);
      for (std::size_t i = 0; i < wr.shardable.size(); ++i) {
        wr.shardable[i]->merge_from(*shard->clones[i]);
      }
      if (w.spill != nullptr) w.spill->begin_user(user);
      for (auto* s : wr.shardable) s->fold_user(user);
      if (w.spill != nullptr) w.spill->end_user();
      wr.dropped_packets += shard->filter->dropped_packets();
      wr.dropped_bytes += shard->filter->dropped_bytes();
      for (std::size_t c = 0; c < std::size(kRadioCounters); ++c) {
        wr.radio[c] += shard->registry.counter_value(kRadioCounters[c]);
      }
      obs::MetricsRegistry::global().merge_from(shard->registry);
      // Kept sorted for the duplicate check; streams arrive ascending, so
      // this is an append.
      wr.completed.insert(std::upper_bound(wr.completed.begin(), wr.completed.end(), user),
                          user);
    }
    if (obs::TraceWriter* writer = options_.trace_writer; writer != nullptr) {
      writer->add_complete("user " + std::to_string(user), "shard", shard->span_start_us,
                           static_cast<std::int64_t>(row.wall_ms * 1e3),
                           1 + static_cast<int>(row.worker));
    }
    stats.shards.push_back(std::move(row));
    shard.reset();
    if (options_.progress) {
      options_.progress(SweepProgress{++progress_done_, total_shards_, current_, user});
    }
    if (writer_ != nullptr &&
        ++wr.since_checkpoint >= std::max<std::size_t>(1, options_.checkpoint_every_users)) {
      write_snapshot(false);
    }
    return util::Status::ok_status();
  }

  /// Close every walk not yet closed, then fill the run-level stats.
  util::Status finish(unsigned workers, double wall_ms) {
    while (current_ < runs_.size()) {
      if (util::Status st = close_walk(); !st.ok()) return st;
    }
    const auto* store = dynamic_cast<const trace::StoreBackend*>(&source_);
    for (WalkRun& wr : runs_) {
      obs::RunStats& s = *wr.walk->stats;
      s.num_threads = workers;
      s.timed = timed_;
      if (timed_) {
        // The source row is the time no stage claimed: the wall remainder
        // when one worker ran a single walk, else each shard's remainder.
        obs::StageStats source_row;
        source_row.name = options_.source_stage;
        source_row.self_ms = wr.source_ms;
        if (workers == 1 && runs_.size() == 1) {
          double accounted_ms = 0.0;
          for (const auto& stage : wr.stages) accounted_ms += stage.self_ms;
          source_row.self_ms = std::max(0.0, wall_ms - accounted_ms);
        }
        source_row.packets = s.packets + s.off_interface_packets;
        source_row.transitions = s.transitions;
        source_row.bytes = s.bytes + s.off_interface_bytes;
        s.stages.push_back(std::move(source_row));
        for (auto& stage : wr.stages) s.stages.push_back(std::move(stage));
      }
      s.memory.ledger = wr.walk->ledger->memory_use();
      for (std::size_t i = 1; i < wr.walk->sinks.size(); ++i) {
        s.memory.analyses += wr.walk->sinks[i].second->memory_use();
      }
      if (store != nullptr) s.memory.store = store->memory_use();
      s.memory.peak_rss_bytes = obs::peak_rss_bytes();
    }
    run_.num_threads = workers;
    run_.wall_ms = wall_ms;
    if (writer_ != nullptr) {
      run_.checkpoints_written = writer_->checkpoints_written();
      run_.checkpoint_bytes = writer_->bytes_written();
      run_.checkpoint_write_failures = writer_->write_failures();
    }
    return util::Status::ok_status();
  }

 private:
  /// End the current walk: final checkpoint of its tail, study bracket,
  /// totals, account seal — then a boundary checkpoint when a walk follows.
  util::Status close_walk() {
    WalkRun& wr = runs_[current_];
    Walk& w = *wr.walk;
    if (writer_ != nullptr && wr.since_checkpoint > 0) write_snapshot(false);
    for (auto* parent : wr.parents) parent->on_study_end();
    obs::RunStats& s = *w.stats;
    s.users = users_;
    s.packets = w.ledger->total_packets();
    s.bytes = w.ledger->total_bytes();
    s.joules = w.ledger->total_joules();
    s.off_interface_packets = wr.dropped_packets;
    s.off_interface_bytes = wr.dropped_bytes;
    const energy::AttributionCounters& ac = w.attributor->counters();
    s.transitions = ac.transitions;
    s.tail_attributions = ac.tail_attributions;
    s.proportional_splits = ac.proportional_splits;
    s.promotion_segments = ac.promotion_segments;
    s.transfer_segments = ac.transfer_segments;
    s.tail_segments = ac.tail_segments;
    s.drx_segments = ac.drx_segments;
    s.idle_segments = ac.idle_segments;
    s.radio_bursts = wr.radio[0];
    s.radio_bursts_queued = wr.radio[1];
    s.radio_promotions = wr.radio[2];
    s.radio_repromotions = wr.radio[3];
    if (w.spill != nullptr) {
      // Resident is read before the final seal: the bounded pending-writer
      // footprint the run held, not the post-seal zero.
      s.memory.accounts.resident_bytes = w.spill->resident_bytes();
      if (util::Status st = w.spill->seal(); !st.ok()) return st;
      if (util::Status st = w.spill->health(); !st.ok()) return st;
      s.memory.accounts.spilled_bytes = w.spill->spilled_bytes();
    }
    ++current_;
    if (writer_ != nullptr && current_ < runs_.size()) write_snapshot(true);
    return util::Status::ok_status();
  }

  /// Snapshot every closed walk's final state and, unless at a walk
  /// boundary, the current walk's partials and progress. A failed write is
  /// counted and the run continues; an injected hard stop throws from here.
  void write_snapshot(bool boundary) {
    ckpt::Snapshot snapshot;
    snapshot.meta = meta_;
    snapshot.set_counter("scenarios_done", current_);
    const std::size_t end = std::min(runs_.size(), current_ + (boundary ? 0 : 1));
    for (std::size_t j = 0; j < end; ++j) {
      WalkRun& wr = runs_[j];
      const Walk& w = *wr.walk;
      const std::string prefix = "s" + std::to_string(j) + ".";
      if (w.spill != nullptr) {
        // Seal before recording the count: a resume keeps exactly the files
        // the snapshot vouches for. Failures latch into health().
        if (j == current_) (void)w.spill->seal();
        snapshot.set_counter(prefix + "account_sealed_files", w.spill->sealed_files());
      }
      for (const auto& [name, sink] : w.sinks) {
        snapshot.add_section(prefix + name, save_section(*ckpt::as_checkpointable(sink)));
      }
      if (j < current_) {
        snapshot.add_section(prefix + "stats", encode_walk_stats(w));
        continue;
      }
      wr.since_checkpoint = 0;
      snapshot.add_section(prefix + "scenario", w.name);
      snapshot.add_section(prefix + "attributor", save_section(*w.attributor));
      snapshot.completed_users = wr.completed;
      snapshot.failed_users.assign(w.stats->failed_users.begin(), w.stats->failed_users.end());
      snapshot.set_counter("shard_retries", w.stats->shard_retries);
      snapshot.set_counter("off_interface_packets", wr.dropped_packets);
      snapshot.set_counter("off_interface_bytes", wr.dropped_bytes);
      for (std::size_t c = 0; c < std::size(kRadioCounters); ++c) {
        snapshot.set_counter(kRadioCounters[c], wr.radio[c]);
      }
    }
    (void)writer_->write(snapshot);
  }

  trace::TraceSource& source_;
  const EngineOptions& options_;
  obs::RunStats& run_;
  const bool timed_;
  fault::FaultPlan* fault_plan_;
  std::vector<WalkRun> runs_;
  trace::StudyMeta meta_;
  std::uint64_t users_ = 0;
  std::unique_ptr<ckpt::CheckpointWriter> writer_;
  std::size_t current_ = 0;  ///< the walk being merged; earlier ones are closed
  std::size_t progress_done_ = 0;
  std::size_t total_shards_ = 0;
  unsigned workers_ = 1;
};

/// Drives the shard lifecycle from a forward-only stream: each user bracket
/// runs inline through its own chain and merges as it closes, so memory
/// stays at one user. Retries and scripted shard faults need a re-runnable
/// shard and do not apply.
class InlineDriver final : public trace::TraceSink {
 public:
  explicit InlineDriver(Engine& engine) : engine_(engine) {}

  void on_study_begin(const trace::StudyMeta& meta) override {
    meta_ = meta;
    status_ = engine_.begin(meta, meta.num_users);
  }
  void on_user_begin(trace::UserId user) override {
    if (!status_.ok()) return;
    if (engine_.skip(0, user)) {
      // A resumed checkpoint covers the user's bracket once; another one is
      // a reopened user like any other.
      if (std::binary_search(skipped_.begin(), skipped_.end(), user)) {
        status_ = engine_.reopened(0, user);
      } else {
        skipped_.insert(std::upper_bound(skipped_.begin(), skipped_.end(), user), user);
      }
      return;
    }
    shard_ = engine_.build(0, user);
    scope_.emplace(&shard_->registry);
    shard_->attempts = 1;
    obs::TraceWriter* writer = engine_.trace_writer();
    shard_->span_start_us = writer != nullptr ? writer->now_us() : 0;
    watch_.restart();
    shard_->entry->on_study_begin(meta_);
    shard_->entry->on_user_begin(user);
  }
  void on_packet(const trace::PacketRecord& packet) override {
    if (shard_) shard_->entry->on_packet(packet);
  }
  void on_transition(const trace::StateTransition& t) override {
    if (shard_) shard_->entry->on_transition(t);
  }
  void on_batch(const trace::EventBatch& batch) override {
    if (shard_) shard_->entry->on_batch(batch);
  }
  void on_user_end(trace::UserId user) override {
    if (!shard_) return;
    shard_->entry->on_user_end(user);
    shard_->entry->on_study_end();
    shard_->wall_ms = watch_.elapsed_ms();
    scope_.reset();
    status_ = engine_.settle(std::move(shard_));
  }

  [[nodiscard]] const util::Status& status() const { return status_; }

 private:
  Engine& engine_;
  trace::StudyMeta meta_;
  util::Status status_;
  std::unique_ptr<ShardChain> shard_;
  std::vector<trace::UserId> skipped_;  ///< sorted: checkpointed users seen
  std::optional<obs::ScopedMetricsRegistry> scope_;
  obs::Stopwatch watch_;
};

}  // namespace

util::Status run_walks(trace::TraceSource& source, std::vector<Walk>& walks,
                       const EngineOptions& options, obs::RunStats& run) {
  Engine engine{source, walks, options, run};
  obs::TraceWriter* writer = options.trace_writer;
  const std::int64_t run_start_us = writer != nullptr ? writer->now_us() : 0;
  const obs::Stopwatch total;
  unsigned workers = 1;
  if (source.supports_user_access()) {
    const std::vector<trace::UserId> user_ids = source.users();
    if (util::Status st = engine.begin(source.meta(), user_ids.size()); !st.ok()) return st;
    struct Key {
      std::size_t walk;
      trace::UserId user;
    };
    std::vector<Key> keys;
    for (std::size_t w = engine.first_walk(); w < walks.size(); ++w) {
      for (const trace::UserId user : user_ids) {
        if (!engine.skip(w, user)) keys.push_back({w, user});
      }
    }
    workers = static_cast<unsigned>(
        std::clamp<std::size_t>(keys.size(), 1, std::max(1u, options.num_threads)));
    engine.set_plan(keys.size(), workers);
    const util::Status st = run_window(
        keys.size(), workers,
        [&](std::size_t i) { return engine.build(keys[i].walk, keys[i].user); },
        [&](ShardChain& shard, unsigned worker) { engine.run(shard, worker); },
        [&](std::unique_ptr<ShardChain> shard) { return engine.settle(std::move(shard)); });
    if (!st.ok()) return st;
  } else {
    InlineDriver driver{engine};
    if (util::Status st = source.emit(driver, options.batch_size); !st.ok()) return st;
    if (!driver.status().ok()) return driver.status();
  }
  if (util::Status st = engine.finish(workers, total.elapsed_ms()); !st.ok()) return st;
  if (writer != nullptr) {
    writer->set_track_name(0, "pipeline");
    for (unsigned w = 0; w < workers; ++w) {
      writer->set_track_name(1 + static_cast<int>(w), "worker " + std::to_string(w));
    }
    if (workers == 1 && !walks.empty()) {
      const std::vector<obs::StageStats>& stages = walks[0].stats->stages;
      for (std::size_t i = 1; i < stages.size(); ++i) {  // [0] is the source row
        writer->set_track_name(1 + static_cast<int>(i), stages[i].name);
      }
    }
    writer->add_complete("run", "pipeline", run_start_us,
                         static_cast<std::int64_t>(run.wall_ms * 1e3), 0);
  }
  return util::Status::ok_status();
}

}  // namespace internal
}  // namespace wildenergy::core
