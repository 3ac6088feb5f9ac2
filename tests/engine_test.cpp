// Execution engine (core/engine.h, DESIGN.md §7): memory is bounded by the
// shard window, never by the population.
//
//   - A shard clone of every built-in per-user sink holds only its own
//     user's state: its footprint is the same whether the study header
//     announces ten users or a hundred thousand, and merge_from places the
//     user at its global id.
//   - However many users a run walks, no more than shard_window(workers)
//     clones are alive at once — for the pipeline and the sweep, at every
//     thread count, with and without checkpointing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/case_studies.h"
#include "analysis/longitudinal.h"
#include "analysis/waste.h"
#include "ckpt/checkpointable.h"
#include "core/pipeline.h"
#include "core/policy.h"
#include "core/sweep.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "radio/burst_machine.h"
#include "sim/generator.h"
#include "sim/population.h"
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
/// back and checks the user landed at its global id.
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
  return bytes;
}

TEST(ShardClones, FootprintIsIndependentOfThePopulation) {
  const std::vector<std::uint64_t> small = clone_footprints(10);
  const std::vector<std::uint64_t> large = clone_footprints(100'000);
  const char* names[] = {"attributor", "ledger", "waste", "longitudinal", "case_studies"};
  ASSERT_EQ(small.size(), std::size(names));
  ASSERT_EQ(large.size(), std::size(names));
  for (std::size_t i = 0; i < small.size(); ++i) EXPECT_EQ(small[i], large[i]) << names[i];
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
        core::StudyPipeline pipeline{&generator, {.num_threads = threads,
                                                  .checkpoint_dir = checkpoint_dir,
                                                  .checkpoint_every_users = 16}};
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
        core::SweepEngine sweep{&generator, {.num_threads = threads,
                                             .checkpoint_dir = checkpoint_dir,
                                             .checkpoint_every_users = 16}};
        sweep.add_scenario({.name = "baseline", .analyses = {{"counting", &baseline}}});
        sweep.add_scenario({.name = "doze",
                            .policy = [](trace::TraceSink* d) {
                              return std::make_unique<core::DozeLikePolicy>(d);
                            },
                            .analyses = {{"counting", &doze}}});
        ASSERT_TRUE(sweep.run().ok());
        EXPECT_EQ(count.made.load(), 400);
        EXPECT_EQ(count.live.load(), 0);
        EXPECT_LE(count.peak.load(), static_cast<int>(core::shard_window(threads)));
      }
      fs::remove_all(dir);
    }
  }
}

}  // namespace
}  // namespace wildenergy
