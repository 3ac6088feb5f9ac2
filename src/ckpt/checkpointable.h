// Checkpointable sinks: the persistence face of the ShardableSink protocol.
//
// A ShardableSink (trace/shardable.h) already keeps its cross-user state as
// running sums folded in stream order (plus, in the ledger and persistence
// sinks, per-user detail rows) — exactly the state a resumed process needs
// to rebuild. CheckpointableSink adds the two dual operations:
// save_state() serializes that merge-protocol state into a ByteWriter, and
// restore_state() rebuilds it *bit-exactly* from a ByteReader (doubles travel
// as raw IEEE bits, insertion orders are preserved), so a killed-and-resumed
// run folds the same partials in the same order as an uninterrupted one.
//
// Contract: checkpoints are taken at user boundaries only, after merge. Every
// built-in sink resets its per-user transient state on on_user_end/user
// switch, so save_state() never has to serialize mid-user scratch — only the
// running sums, detail rows and study-wide counters.
#pragma once

#include "ckpt/codec.h"
#include "util/status.h"

namespace wildenergy::ckpt {

class CheckpointableSink {
 public:
  virtual ~CheckpointableSink() = default;

  /// Serialize the cross-user merge state. Must be callable on a parent sink
  /// between user merges (i.e. at the engine's merge point).
  virtual void save_state(ByteWriter& out) const = 0;

  /// Rebuild the state written by save_state(). Called after on_study_begin
  /// reset the sink for the resumed run; errors are positioned data-loss
  /// statuses (the caller falls back to an older checkpoint or aborts).
  [[nodiscard]] virtual util::Status restore_state(ByteReader& in) = 0;
};

/// Downcast helper mirroring trace::as_shardable.
template <typename Sink>
[[nodiscard]] CheckpointableSink* as_checkpointable(Sink* sink) {
  return dynamic_cast<CheckpointableSink*>(sink);
}

}  // namespace wildenergy::ckpt
