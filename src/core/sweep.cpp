#include "core/sweep.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "obs/memory.h"
#include "obs/stopwatch.h"
#include "radio/burst_machine.h"
#include "trace/spilling_store.h"

namespace wildenergy::core {

namespace {

void add_to_aggregate(obs::RunStats& aggregate, const ScenarioResult& res) {
  aggregate.packets += res.stats.packets;
  aggregate.transitions += res.stats.transitions;
  aggregate.bytes += res.stats.bytes;
  aggregate.joules += res.stats.joules;
  aggregate.off_interface_packets += res.stats.off_interface_packets;
  aggregate.off_interface_bytes += res.stats.off_interface_bytes;
  aggregate.shard_retries += res.stats.shard_retries;
  aggregate.serial_fallback_sinks += res.stats.serial_fallback_sinks;
  aggregate.radio_bursts += res.stats.radio_bursts;
  aggregate.radio_bursts_queued += res.stats.radio_bursts_queued;
  aggregate.radio_promotions += res.stats.radio_promotions;
  aggregate.radio_repromotions += res.stats.radio_repromotions;
  aggregate.memory.ledger += res.stats.memory.ledger;
  aggregate.memory.analyses += res.stats.memory.analyses;
  aggregate.memory.accounts += res.stats.memory.accounts;
}

}  // namespace

SweepEngine::SweepEngine(trace::TraceSource* base, SweepOptions options)
    : base_(base), options_(std::move(options)) {
  if (options_.store_dir.empty()) {
    owned_store_ = std::make_unique<trace::TraceStore>();
  } else {
    trace::SpillOptions spill;
    spill.dir = options_.store_dir;
    spill.budget_bytes = options_.store_budget_bytes;
    spill.resume = options_.resume;
    owned_store_ = std::make_unique<trace::SpillingTraceStore>(std::move(spill));
  }
  store_ = owned_store_.get();
}

SweepEngine::SweepEngine(trace::StoreBackend* store, SweepOptions options)
    : store_(store), options_(std::move(options)) {}

void SweepEngine::add_scenario(Scenario scenario) {
  scenarios_.push_back(std::move(scenario));
}

const ScenarioResult* SweepEngine::result(std::string_view name) const {
  for (const auto& r : results_) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

util::Status SweepEngine::ensure_captured() {
  if (!store_->empty()) return util::Status::ok_status();  // simulate once
  if (base_ == nullptr) {
    return util::Status::failed_precondition(
        "sweep store is empty and no base source was given");
  }
  return store_->capture(*base_, options_.batch_size);
}

util::StatusOr<obs::RunStats> SweepEngine::run() {
  if (options_.resume && options_.checkpoint_dir.empty() && options_.store_dir.empty()) {
    return util::Status::invalid_argument(
        "resume requested without a checkpoint or store directory (set checkpoint_dir or "
        "store_dir)");
  }
  if (options_.account_dir.empty() && options_.account_budget_bytes != 0) {
    return util::Status::invalid_argument(
        "account budget requires an account directory (set account_dir)");
  }
  obs::Stopwatch total;
  if (const util::Status captured = ensure_captured(); !captured.ok()) return captured;

  // Results are rebuilt per run. Their ledgers are the parents the shards
  // merge into, so the vector must not reallocate: size it up front.
  const std::size_t num_scenarios = scenarios_.size();
  results_.clear();
  results_.resize(num_scenarios);
  account_spills_.clear();
  // Per-scenario parent attributors only fold attribution counters; they
  // never stream, so they share one empty downstream.
  trace::TraceMulticast no_downstream;
  std::vector<std::unique_ptr<energy::EnergyAttributor>> attributors;
  std::vector<internal::Walk> walks(num_scenarios);
  for (std::size_t si = 0; si < num_scenarios; ++si) {
    const Scenario& scenario = scenarios_[si];
    ScenarioResult& res = results_[si];
    res.name = scenario.name;
    attributors.push_back(std::make_unique<energy::EnergyAttributor>(
        scenario.radio_factory ? scenario.radio_factory : radio::make_lte_model, &no_downstream,
        scenario.tail_policy));
    internal::Walk& walk = walks[si];
    walk.name = scenario.name;
    walk.policy = scenario.policy;
    walk.interface = scenario.interface;
    walk.attributor = attributors.back().get();
    walk.ledger = &res.ledger;
    walk.sinks.emplace_back("ledger", &res.ledger);
    walk.sinks.insert(walk.sinks.end(), scenario.analyses.begin(), scenario.analyses.end());
    walk.stats = &res.stats;
    if (!options_.account_dir.empty()) {
      // One spill per scenario, under an index-named subdirectory (scenario
      // names are user strings, not filesystem-safe).
      account_spills_.push_back(std::make_unique<energy::AccountSpill>(energy::AccountSpill::Options{
          .dir = options_.account_dir + "/s" + std::to_string(si),
          .budget_bytes = options_.account_budget_bytes}));
      walk.spill = account_spills_.back().get();
    }
  }

  const internal::EngineOptions engine{
      .num_threads = options_.num_threads,
      .failure_policy = options_.failure_policy,
      .max_shard_retries = options_.max_shard_retries,
      .fault_plan = options_.fault_plan,
      .batch_size = options_.batch_size,
      .collect_stage_stats = options_.collect_stage_stats,
      .checkpoint_dir = options_.checkpoint_dir,
      .checkpoint_every_users = options_.checkpoint_every_users,
      .resume = options_.resume && !options_.checkpoint_dir.empty(),
      .progress = options_.progress,
      .source_stage = "replay"};
  obs::RunStats aggregate;
  if (util::Status st = internal::run_walks(*store_, walks, engine, aggregate); !st.ok()) return st;
  for (const ScenarioResult& res : results_) add_to_aggregate(aggregate, res);
  aggregate.users = store_->users().size();
  aggregate.wall_ms = total.elapsed_ms();
  aggregate.memory.store = store_->memory_use();
  aggregate.memory.peak_rss_bytes = obs::peak_rss_bytes();
  return aggregate;
}

}  // namespace wildenergy::core
