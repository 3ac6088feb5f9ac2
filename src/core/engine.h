// Internal: the one execution engine behind StudyPipeline::run() and
// SweepEngine::run() (DESIGN.md §7, "Execution engine").
//
// A run is a walk over shards in stream order. A shard is one user of one
// walk: a StudyPipeline run is a single walk, a sweep is one walk per
// scenario, walked scenario-major. Each shard gets a private sink chain —
// clones of the walk's parent sinks behind a cloned attributor, the optional
// policy filter and the interface filter — and is merged back into the
// parents in stream order, which keeps every output bit-identical at any
// thread count (trace/shardable.h).
//
// The calling thread builds chains, merges, and runs the merge-point hooks:
// retry-then-skip, fold-and-release, a checkpoint every N merged users, and
// progress. Workers only run shards. At most shard_window(workers) shards are
// built but not merged, so memory stays bounded by the window rather than
// the population. With one worker every shard runs inline on the calling
// thread. Forward-only sources drive the same shard lifecycle from the
// calling thread, one user bracket at a time.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/sweep.h"
#include "energy/account_file.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "obs/run_stats.h"
#include "trace/trace_source.h"
#include "util/status.h"

namespace wildenergy::core::internal {

/// One walk: the parents every shard of it clones and merges into.
struct Walk {
  std::string name;  ///< scenario name; guards a resumed sweep's scenario list
  PolicyFactory policy;  ///< may be empty (no policy stage)
  trace::Interface interface = trace::Interface::kCellular;
  energy::EnergyAttributor* attributor = nullptr;  ///< parent; shards attribute on clones
  energy::EnergyLedger* ledger = nullptr;
  /// Ledger first, then the analyses in registration order.
  std::vector<std::pair<std::string, trace::TraceSink*>> sinks;
  energy::AccountSpill* spill = nullptr;  ///< fold-and-release target, or null
  obs::RunStats* stats = nullptr;         ///< this walk's results
};

struct EngineOptions {
  unsigned num_threads = 1;
  FailurePolicy failure_policy = FailurePolicy::kFailFast;
  unsigned max_shard_retries = 2;
  fault::FaultPlan* fault_plan = nullptr;
  std::size_t batch_size = trace::kDefaultBatchSize;
  bool collect_stage_stats = false;
  obs::TraceWriter* trace_writer = nullptr;
  std::string checkpoint_dir;  ///< empty: no checkpoints
  std::size_t checkpoint_every_users = 4;
  bool resume = false;
  std::function<void(const SweepProgress&)> progress{};  ///< sweeps only
  /// Name of the stage row holding source time ("generate" or "replay").
  std::string source_stage;
};

/// Run every walk over `source`, filling each walk's stats. `run` receives
/// the run-level facts: wall time, worker count, checkpoint counters,
/// resumed users and the recovered checkpoint sequence. Under
/// FailurePolicy::kFailFast a shard failure propagates as an exception.
util::Status run_walks(trace::TraceSource& source, std::vector<Walk>& walks,
                       const EngineOptions& options, obs::RunStats& run);

}  // namespace wildenergy::core::internal
