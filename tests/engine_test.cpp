// Execution engine (core/engine.h, DESIGN.md §7): memory is bounded by the
// shard window, never by the population.
//
//   - A shard clone of every built-in per-user sink holds only its own
//     user's state: its footprint is the same whether the study header
//     announces ten users or a hundred thousand, and merge_from places the
//     user at its global id.
//   - The attributor, waste, longitudinal and case-study parents keep only
//     running sums after a merge, so they do not grow with the population
//     either.
//   - However many users a run walks, no more than shard_window(workers)
//     clones are alive at once — for the pipeline and the sweep, at every
//     thread count, with and without checkpointing.
//   - A forward-only stream that brackets a user twice is refused, never
//     merged over the first bracket.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/case_studies.h"
#include "analysis/longitudinal.h"
#include "analysis/waste.h"
#include "ckpt/checkpointable.h"
#include "core/pipeline.h"
#include "core/policy.h"
#include "core/sweep.h"
#include "energy/account_file.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "radio/burst_machine.h"
#include "sim/generator.h"
#include "sim/population.h"
#include "trace/csv_io.h"
#include "trace/shardable.h"
#include "trace/sink.h"
#include "util/status.h"

namespace wildenergy {
namespace {

namespace fs = std::filesystem;

constexpr trace::UserId kUser = 7;

/// Take user kUser of a population of `num_users` through one shard of the
/// attributor, ledger, waste, longitudinal and case-study sinks. Returns each
/// clone's resident bytes after the user's stream, then merges the shard
/// back, checks the user landed at its global id, and appends the resident
/// bytes of the attributor, waste, longitudinal and case-study parents.
std::vector<std::uint64_t> clone_footprints(std::uint32_t num_users) {
  sim::PopulationConfig population;
  population.num_users = num_users;
  population.num_days = 2;
  const sim::StudyGenerator generator{population.study()};
  const trace::StudyMeta meta = generator.meta();

  const std::vector<trace::AppId> tracked{0, 1, 2, 3, 4};
  energy::EnergyLedger ledger;
  analysis::WastedUpdateAnalysis waste{tracked};
  analysis::LongitudinalAnalysis longitudinal{tracked};
  analysis::CaseStudyAnalysis cases{tracked};
  const std::vector<trace::TraceSink*> parents{&ledger, &waste, &longitudinal, &cases};
  trace::TraceMulticast no_downstream;
  energy::EnergyAttributor attributor{radio::make_lte_model, &no_downstream};
  attributor.on_study_begin(meta);
  for (auto* parent : parents) parent->on_study_begin(meta);

  trace::TraceMulticast fanout;
  std::vector<std::unique_ptr<trace::TraceSink>> clones;
  for (auto* parent : parents) {
    clones.push_back(trace::as_shardable(parent)->clone_shard());
    fanout.add(clones.back().get());
  }
  const std::unique_ptr<energy::EnergyAttributor> shard = attributor.clone_shard(&fanout);
  generator.run_user(kUser, *shard);
  std::vector<std::uint64_t> bytes{shard->memory_use().resident_bytes};
  for (const auto& clone : clones) bytes.push_back(clone->memory_use().resident_bytes);

  const double shard_joules = dynamic_cast<energy::EnergyLedger&>(*clones[0]).total_joules();
  attributor.merge_from(*shard);
  for (std::size_t i = 0; i < parents.size(); ++i) {
    trace::as_shardable(parents[i])->merge_from(*clones[i]);
  }
  for (auto* parent : parents) parent->on_study_end();
  EXPECT_GT(shard_joules, 0.0);
  EXPECT_EQ(ledger.users(), std::vector<trace::UserId>{kUser});
  EXPECT_EQ(ledger.total_joules(), shard_joules);
  EXPECT_EQ(attributor.counters().users, 1u);
  EXPECT_GT(attributor.device_joules(), 0.0);
  bytes.push_back(attributor.memory_use().resident_bytes);
  for (std::size_t i = 1; i < parents.size(); ++i) {
    bytes.push_back(parents[i]->memory_use().resident_bytes);
  }
  return bytes;
}

TEST(ShardClones, FootprintIsIndependentOfThePopulation) {
  const std::vector<std::uint64_t> small = clone_footprints(10);
  const std::vector<std::uint64_t> large = clone_footprints(100'000);
  const char* names[] = {"attributor",        "ledger",
                         "waste",             "longitudinal",
                         "case_studies",      "attributor parent",
                         "waste parent",      "longitudinal parent",
                         "case_studies parent"};
  ASSERT_EQ(small.size(), std::size(names));
  ASSERT_EQ(large.size(), std::size(names));
  for (std::size_t i = 0; i < small.size(); ++i) EXPECT_EQ(small[i], large[i]) << names[i];
}

/// Resident bytes of a fold-mode ledger announced `num_users` users: right
/// after on_study_begin, and after the last user's shard has merged and
/// folded, as the engine folds a spilling run.
std::pair<std::uint64_t, std::uint64_t> fold_ledger_footprints(std::uint32_t num_users) {
  sim::PopulationConfig population;
  population.num_users = num_users;
  population.num_days = 2;
  const sim::StudyGenerator generator{population.study()};
  const fs::path dir = fs::temp_directory_path() / "wildenergy_engine_fold_ledger";
  fs::remove_all(dir);
  energy::AccountSpill spill{{.dir = dir.string()}};
  EXPECT_TRUE(spill.open_fresh().ok());

  energy::EnergyLedger ledger;
  ledger.set_account_spill(&spill);
  ledger.on_study_begin(generator.meta());
  const std::uint64_t announced = ledger.memory_use().resident_bytes;

  const trace::UserId last = num_users - 1;
  const std::unique_ptr<trace::TraceSink> shard = ledger.clone_shard();
  generator.run_user(last, *shard);
  ledger.merge_from(*shard);
  spill.begin_user(last);
  ledger.fold_user(last);
  spill.end_user();
  EXPECT_EQ(ledger.users(), std::vector<trace::UserId>{last});
  EXPECT_EQ(ledger.num_accounts(), 0u);
  EXPECT_GT(ledger.total_packets(), 0u);
  const std::uint64_t folded = ledger.memory_use().resident_bytes;
  ledger.on_study_end();
  fs::remove_all(dir);
  return {announced, folded};
}

// A spilling ledger frees every slab at its fold, so neither announcing a
// million users nor folding the millionth may leave a slot per user behind.
TEST(ShardClones, FoldLedgerFootprintIsIndependentOfThePopulation) {
  const auto [small_announced, small_folded] = fold_ledger_footprints(10);
  const auto [large_announced, large_folded] = fold_ledger_footprints(1'000'000);
  EXPECT_EQ(small_announced, large_announced);
  EXPECT_EQ(small_folded, large_folded);
}

/// Counts the clones of itself alive at once.
struct CloneCount {
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  std::atomic<int> made{0};
};

class CountingSink final : public trace::TraceSink,
                           public trace::ShardableSink,
                           public ckpt::CheckpointableSink {
 public:
  explicit CountingSink(CloneCount* count, bool clone = false) : count_(count), clone_(clone) {
    if (!clone_) return;
    ++count_->made;
    const int live = ++count_->live;
    int peak = count_->peak.load();
    while (live > peak && !count_->peak.compare_exchange_weak(peak, live)) {
    }
  }
  ~CountingSink() override {
    if (clone_) --count_->live;
  }
  CountingSink(const CountingSink&) = delete;
  CountingSink& operator=(const CountingSink&) = delete;

  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override {
    return std::make_unique<CountingSink>(count_, true);
  }
  void merge_from(trace::TraceSink& /*shard*/) override {}
  void save_state(ckpt::ByteWriter& /*out*/) const override {}
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& /*in*/) override {
    return util::Status::ok_status();
  }

 private:
  CloneCount* count_;
  bool clone_;
};

TEST(ShardWindow, LiveClonesNeverExceedTheWindow) {
  sim::PopulationConfig population;
  population.num_users = 200;
  population.num_days = 1;
  const sim::StudyConfig cfg = population.study();
  for (const bool checkpointing : {false, true}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (checkpointing ? " checkpointing" : ""));
      const fs::path dir = fs::temp_directory_path() / "wildenergy_engine_window";
      fs::remove_all(dir);
      const std::string checkpoint_dir = checkpointing ? dir.string() : "";
      {
        CloneCount count;
        CountingSink sink{&count};
        sim::StudyGenerator generator{cfg};
        core::PipelineOptions options;
        options.num_threads = threads;
        options.checkpoint_dir = checkpoint_dir;
        options.checkpoint_every_users = 16;
        core::StudyPipeline pipeline{&generator, options};
        pipeline.add_analysis("counting", &sink);
        ASSERT_TRUE(pipeline.run().ok());
        EXPECT_EQ(count.made.load(), 200);
        EXPECT_EQ(count.live.load(), 0);
        EXPECT_LE(count.peak.load(), static_cast<int>(core::shard_window(threads)));
      }
      fs::remove_all(dir);
      {
        CloneCount count;
        CountingSink baseline{&count};
        CountingSink doze{&count};
        sim::StudyGenerator generator{cfg};
        core::SweepOptions options;
        options.num_threads = threads;
        options.checkpoint_dir = checkpoint_dir;
        options.checkpoint_every_users = 16;
        core::SweepEngine sweep{&generator, options};
        core::Scenario baseline_scenario;
        baseline_scenario.name = "baseline";
        baseline_scenario.analyses = {{"counting", &baseline}};
        sweep.add_scenario(std::move(baseline_scenario));
        core::Scenario doze_scenario;
        doze_scenario.name = "doze";
        doze_scenario.policy = [](trace::TraceSink* d) {
          return std::make_unique<core::DozeLikePolicy>(d);
        };
        doze_scenario.analyses = {{"counting", &doze}};
        sweep.add_scenario(std::move(doze_scenario));
        ASSERT_TRUE(sweep.run().ok());
        EXPECT_EQ(count.made.load(), 400);
        EXPECT_EQ(count.live.load(), 0);
        EXPECT_LE(count.peak.load(), static_cast<int>(core::shard_window(threads)));
      }
      fs::remove_all(dir);
    }
  }
}

/// A CSV stream whose user brackets run 1, 0, 1: five cellular packets per
/// bracket, 15 in all, for two real (user, app) accounts.
std::string csv_with_user_reopened() {
  trace::StudyMeta meta;
  meta.num_users = 2;
  meta.num_apps = 4;
  meta.study_end = kEpoch + days(1.0);
  std::ostringstream csv;
  trace::CsvTraceWriter writer{csv};
  writer.on_study_begin(meta);
  for (const trace::UserId user : {1u, 0u, 1u}) {
    writer.on_user_begin(user);
    for (int i = 0; i < 5; ++i) {
      trace::PacketRecord p;
      p.time = kEpoch + sec(600.0 * i + (user == 1 ? 0.0 : 30.0));
      p.user = user;
      p.app = 2;
      p.bytes = 1500;
      writer.on_packet(p);
    }
    writer.on_user_end(user);
  }
  writer.on_study_end();
  return csv.str();
}

TEST(DuplicateUsers, ForwardOnlyStreamThatReopensAUserIsRefused) {
  const std::string csv = csv_with_user_reopened();
  {
    // Fed straight to a ledger, nothing is lost: the bracket order is legal
    // for a plain sink.
    std::istringstream in{csv};
    trace::CsvTraceSource source{in};
    energy::EnergyLedger ledger;
    ASSERT_TRUE(source.emit(ledger, /*batch_size=*/0).ok());
    EXPECT_EQ(ledger.total_packets(), 15u);
    EXPECT_EQ(ledger.num_accounts(), 2u);
  }
  const fs::path dir = fs::temp_directory_path() / "wildenergy_engine_reopened";
  for (const unsigned threads : {1u, 4u}) {
    // The refused run leaves checkpoints covering users 1 and 0; resuming
    // from them must refuse the reopened bracket too, not skip it.
    fs::remove_all(dir);
    for (const bool resume : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + (resume ? " resumed" : ""));
      std::istringstream in{csv};
      trace::CsvTraceSource source{in};
      core::PipelineOptions options;
      options.num_threads = threads;
      options.checkpoint_dir = dir.string();
      options.checkpoint_every_users = 1;
      options.resume = resume;
      core::StudyPipeline pipeline{&source, options};
      const auto stats = pipeline.run();
      ASSERT_FALSE(stats.ok());
      EXPECT_EQ(stats.status().code(), util::StatusCode::kDataLoss);
      EXPECT_NE(stats.status().message().find("user 1 appears in a second bracket"),
                std::string::npos)
          << stats.status().to_string();
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wildenergy
