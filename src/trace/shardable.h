// Shard/merge protocol of the execution engine (core/engine.h), which runs
// every StudyPipeline and SweepEngine.
//
// Every analysis consumes independent per-user streams, so the engine runs
// one shard per user — if the sinks can be cloned and merged. A sink opts
// in by also deriving from ShardableSink:
//
//   - clone_shard() returns a fresh, empty sink of the same type and
//     configuration. The engine sends each clone a full study bracket
//     (on_study_begin .. on_study_end) containing exactly one user. A clone
//     must hold only that user's state: the engine keeps a window of clones
//     alive, and their footprint must not grow with StudyMeta::num_users.
//   - The engine opens the parent with on_study_begin(meta) before the first
//     merge, calls parent.merge_from(shard) once per shard in stream order
//     (ascending user id) as shards complete, then parent.fold_user(user),
//     and finally calls on_study_end().
//
// Determinism contract: for any thread count, merged results must be
// bit-identical to one pass over the whole study. Integer aggregates merge by
// addition. Cross-user double aggregates are NOT associative under addition,
// so sinks fold them in stream order as users merge: a sink keeps running
// sums plus at most one live user, folds the live user into the sums when
// its bracket ends (or the next user's begins), and merge_from adds a
// one-user shard's sums, which are that user's partials exactly. Serial and
// sharded runs then perform the same additions in the same order. (The
// ledger keeps its per-user rows resident unless spilled, so it folds its
// totals over them at query time, in user-id order, which is the stream
// order of the engine's walks.) Sample
// collections (util::Distribution) merge by appending, which reproduces the
// serial user-major insertion order. Order-preserving collectors
// (TraceCollector) merge by splicing shard streams in the same order, which
// is the serial stream order.
//
// Every sink in the default analysis set implements this interface. A
// custom sink that does not is wrapped in a collect-splice adapter
// (core/engine.cpp), which captures each user's annotated stream in its
// shard and replays the captures into the wrapped sink in user-id order at
// merge time.
#pragma once

#include <memory>

#include "trace/record.h"

namespace wildenergy::energy {
class AccountSpill;  // energy/account_file.h
}

namespace wildenergy::trace {

class TraceSink;

class ShardableSink {
 public:
  virtual ~ShardableSink() = default;

  /// A fresh sink of the same type/configuration, ready to consume one
  /// user's bracketed stream on a worker thread. It holds only that user.
  [[nodiscard]] virtual std::unique_ptr<TraceSink> clone_shard() const = 0;

  /// Fold a completed shard — this sink's clone_shard() output or any sink of
  /// the same type fed one user's bracket — into this sink. Called on one
  /// thread, in stream order.
  virtual void merge_from(TraceSink& shard) = 0;

  /// Fold-and-release hook (DESIGN.md §15): `user`'s shard has just merged
  /// into this sink. Called on every merge, in stream order. Sinks that keep
  /// per-user detail rows (the ledger, persistence, the case-study gap
  /// samples) spill them through the armed account spill and free them;
  /// with no spill armed, or without detail rows, it does nothing.
  virtual void fold_user(UserId /*user*/) {}

  /// Arm (non-null) or disarm (null) the account spill the sink writes its
  /// detail rows through during fold_user. The engine calls this on every
  /// run, before the study bracket opens, so a sink armed by an earlier run
  /// is always reset. Sinks without detail rows leave the no-op default.
  virtual void set_account_spill(energy::AccountSpill* /*spill*/) {}
};

/// The sink's shard interface, or nullptr if it opted out. (Template so this
/// header needs only a forward declaration of TraceSink — sink.h includes us
/// for TraceCollector.)
template <class Sink>
[[nodiscard]] ShardableSink* as_shardable(Sink* sink) {
  return dynamic_cast<ShardableSink*>(sink);
}

}  // namespace wildenergy::trace
