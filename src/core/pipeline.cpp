#include "core/pipeline.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "radio/burst_machine.h"

namespace wildenergy::core {

namespace {
energy::RadioModelFactory resolve_factory(PipelineOptions& options) {
  if (!options.radio_factory) options.radio_factory = radio::make_lte_model;
  return options.radio_factory;
}
}  // namespace

StudyPipeline::StudyPipeline(trace::TraceSource* source, PipelineOptions options)
    : source_(source),
      attributor_(resolve_factory(options), &downstream_, options.tail_policy),
      options_(std::move(options)) {}

void StudyPipeline::add_analysis(trace::TraceSink* sink) {
  add_analysis("analysis " + std::to_string(analyses_.size()), sink);
}

void StudyPipeline::add_analysis(std::string name, trace::TraceSink* sink) {
  analyses_.emplace_back(std::move(name), sink);
}

void StudyPipeline::set_policy(PolicyFactory factory) { policy_factory_ = std::move(factory); }

util::StatusOr<obs::RunStats> StudyPipeline::run() {
  stats_ = {};
  off_interface_bytes_ = 0;  // repeated run() must not report a stale count
  if (options_.resume && options_.checkpoint_dir.empty()) {
    return util::Status::invalid_argument(
        "resume requested without a checkpoint directory (set checkpoint_dir)");
  }
  if (options_.account_dir.empty() && options_.account_budget_bytes != 0) {
    return util::Status::invalid_argument(
        "account budget requires an account directory (set account_dir)");
  }
  account_spill_.reset();
  if (!options_.account_dir.empty()) {
    account_spill_ = std::make_unique<energy::AccountSpill>(energy::AccountSpill::Options{
        .dir = options_.account_dir, .budget_bytes = options_.account_budget_bytes});
  }

  // The pipeline is a one-walk run of the engine (core/engine.h).
  std::vector<internal::Walk> walks(1);
  internal::Walk& walk = walks[0];
  walk.policy = policy_factory_;
  walk.interface = options_.interface;
  walk.attributor = &attributor_;
  walk.ledger = &ledger_;
  walk.sinks.emplace_back("ledger", &ledger_);
  walk.sinks.insert(walk.sinks.end(), analyses_.begin(), analyses_.end());
  walk.spill = account_spill_.get();
  walk.stats = &stats_;
  const internal::EngineOptions engine{.num_threads = options_.num_threads,
                                       .failure_policy = options_.failure_policy,
                                       .max_shard_retries = options_.max_shard_retries,
                                       .fault_plan = options_.fault_plan,
                                       .batch_size = options_.batch_size,
                                       .collect_stage_stats = options_.collect_stage_stats,
                                       .trace_writer = options_.trace_writer,
                                       .checkpoint_dir = options_.checkpoint_dir,
                                       .checkpoint_every_users = options_.checkpoint_every_users,
                                       .resume = options_.resume,
                                       .source_stage = "generate"};
  if (util::Status st = internal::run_walks(*source_, walks, engine, stats_); !st.ok()) return st;
  off_interface_bytes_ = stats_.off_interface_bytes;

  // Memory accounting mirrored into mem.* gauges for the --metrics dump.
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("mem.ledger_bytes").set(static_cast<double>(stats_.memory.ledger.resident_bytes));
  reg.gauge("mem.analyses_bytes").set(static_cast<double>(stats_.memory.analyses.resident_bytes));
  reg.gauge("mem.store_bytes").set(static_cast<double>(stats_.memory.store.resident_bytes));
  reg.gauge("mem.store_spilled_bytes")
      .set(static_cast<double>(stats_.memory.store.spilled_bytes));
  reg.gauge("mem.accounts_bytes")
      .set(static_cast<double>(stats_.memory.accounts.resident_bytes));
  reg.gauge("mem.accounts_spilled_bytes")
      .set(static_cast<double>(stats_.memory.accounts.spilled_bytes));
  reg.gauge("mem.peak_rss_bytes").set(static_cast<double>(stats_.memory.peak_rss_bytes));
  return stats_;
}

}  // namespace wildenergy::core
