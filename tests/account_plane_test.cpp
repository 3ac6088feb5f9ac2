// Bounded-memory analysis plane (DESIGN.md §15): fold-and-release runs must
// be indistinguishable from fully resident ones everywhere except memory.
//
//   - AccountCursor conformance: the cursor yields a byte-identical account
//     sequence over a spilled run and a resident run, at multiple
//     populations and thread counts, and cursor-based consumers (what-if,
//     top-consumer figures, persistence CDFs) agree exactly.
//   - Corruption matrix: every fault/injector.h damage kind applied to a
//     sealed WEAC account file yields a positioned util::Status naming the
//     file — never a silent wrong detail row.
//   - Kill-and-recover: a fold-and-release run — pipeline or sweep — killed
//     by an injected checkpoint fault and resumed is bit-identical to an
//     uninterrupted resident run at every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/figures.h"
#include "analysis/persistence.h"
#include "analysis/whatif.h"
#include "core/pipeline.h"
#include "core/policy.h"
#include "core/sweep.h"
#include "energy/account_cursor.h"
#include "energy/account_file.h"
#include "energy/ledger.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "sim/generator.h"
#include "sim/study_config.h"
#include "util/status.h"
#include "util/time.h"

namespace wildenergy {
namespace {

namespace fs = std::filesystem;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("wildenergy_account_plane_" + name);
  fs::remove_all(dir);
  return dir;
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Materialize the full cursor sequence (spilled prefix + resident tail).
std::vector<energy::AppUserAccount> collect_cursor(const energy::EnergyLedger& ledger) {
  std::vector<energy::AppUserAccount> out;
  energy::AccountCursor cursor{ledger};
  while (const energy::AppUserAccount* acc = cursor.next()) out.push_back(*acc);
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().to_string();
  return out;
}

void expect_identical_sequences(const std::vector<energy::AppUserAccount>& a,
                                const std::vector<energy::AppUserAccount>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    ASSERT_EQ(a[i].user, b[i].user);
    ASSERT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].packets, b[i].packets);
    EXPECT_EQ(a[i].joules, b[i].joules);
    for (std::size_t s = 0; s < a[i].state_joules.size(); ++s) {
      EXPECT_EQ(a[i].state_joules[s], b[i].state_joules[s]);
    }
    ASSERT_EQ(a[i].days.size(), b[i].days.size());
    for (std::size_t d = 0; d < a[i].days.size(); ++d) {
      EXPECT_EQ(a[i].days[d].fg_joules, b[i].days[d].fg_joules);
      EXPECT_EQ(a[i].days[d].bg_joules, b[i].days[d].bg_joules);
      EXPECT_EQ(a[i].days[d].fg_bytes, b[i].days[d].fg_bytes);
      EXPECT_EQ(a[i].days[d].bg_bytes, b[i].days[d].bg_bytes);
    }
  }
}

// ------------------------------------------------------ cursor conformance

TEST(AccountCursor, SpilledSequenceBitIdenticalToResidentAcrossPopulations) {
  for (const std::uint32_t population : {5u, 50u}) {
    SCOPED_TRACE("population=" + std::to_string(population));
    sim::StudyConfig cfg = sim::small_study(/*seed=*/31);
    cfg.num_users = population;
    cfg.num_days = 20;

    // Reference: the classic fully resident lifecycle.
    sim::StudyGenerator resident_gen{cfg};
    core::StudyPipeline resident{&resident_gen};
    analysis::PersistenceAnalysis resident_persist;
    resident.add_analysis("persistence", &resident_persist);
    ASSERT_TRUE(resident.run().ok());
    const auto reference = collect_cursor(resident.ledger());
    ASSERT_EQ(reference.size(), resident.ledger().accounts().size());

    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const fs::path dir =
          scratch_dir("conform_p" + std::to_string(population) + "_t" + std::to_string(threads));
      core::PipelineOptions options;
      options.num_threads = threads;
      options.account_dir = dir.string();
      options.account_budget_bytes = 32 * 1024;  // small: forces several sealed files
      sim::StudyGenerator spilled_gen{cfg};
      core::StudyPipeline spilled{&spilled_gen, options};
      analysis::PersistenceAnalysis spilled_persist;
      spilled.add_analysis("persistence", &spilled_persist);
      const auto stats = spilled.run();
      ASSERT_TRUE(stats.ok()) << stats.status().to_string();

      // The fold actually released the slabs and spilled real bytes.
      EXPECT_EQ(spilled.ledger().num_accounts(), 0u);
      EXPECT_EQ(spilled.ledger().total_accounts(), reference.size());
      ASSERT_NE(spilled.ledger().account_spill(), nullptr);
      EXPECT_GT(spilled.ledger().account_spill()->spilled_bytes(), 0u);
      EXPECT_GE(spilled.ledger().account_spill()->sealed_files(), population >= 50 ? 2u : 1u);
      EXPECT_GT(stats->memory.accounts.spilled_bytes, 0u);

      // The cursor replays the exact resident sequence...
      expect_identical_sequences(reference, collect_cursor(spilled.ledger()));

      // ...aggregates agree to the bit...
      EXPECT_EQ(resident.ledger().total_joules(), spilled.ledger().total_joules());
      EXPECT_EQ(resident.ledger().total_bytes(), spilled.ledger().total_bytes());
      EXPECT_EQ(resident.ledger().total_packets(), spilled.ledger().total_packets());

      // ...and so do cursor-based consumers and fold-opted analyses.
      for (const int idle_days : {1, 3, 7}) {
        util::Status whatif_status;
        const auto resident_overall =
            analysis::whatif_overall(resident.ledger(), idle_days);
        const auto spilled_overall =
            analysis::whatif_overall(spilled.ledger(), idle_days, &whatif_status);
        ASSERT_TRUE(whatif_status.ok()) << whatif_status.to_string();
        EXPECT_EQ(resident_overall.pct_saved(), spilled_overall.pct_saved());
      }
      const auto resident_top = analysis::top_consumers_by_energy(resident.ledger(), 8);
      const auto spilled_top = analysis::top_consumers_by_energy(spilled.ledger(), 8);
      ASSERT_EQ(resident_top.size(), spilled_top.size());
      for (std::size_t i = 0; i < resident_top.size(); ++i) {
        EXPECT_EQ(resident_top[i].app, spilled_top[i].app);
        EXPECT_EQ(resident_top[i].joules, spilled_top[i].joules);
        EXPECT_EQ(resident_top[i].bytes, spilled_top[i].bytes);
      }
      for (const trace::AppId app : resident_persist.tracked_apps()) {
        const auto ra = resident_persist.durations(app).sorted_samples();
        const auto sa = spilled_persist.durations(app).sorted_samples();
        ASSERT_TRUE(spilled_persist.hydrate_status().ok())
            << spilled_persist.hydrate_status().to_string();
        ASSERT_EQ(ra.size(), sa.size());
        for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], sa[i]);
      }
      fs::remove_all(dir);
    }
  }
}

TEST(AccountCursor, CorruptSpillDirectorySurfacesThroughStatusNeverSilently) {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/31);
  cfg.num_users = 5;
  cfg.num_days = 20;
  const fs::path dir = scratch_dir("cursor_corrupt");
  core::PipelineOptions options;
  options.account_dir = dir.string();
  options.account_budget_bytes = 8 * 1024;
  sim::StudyGenerator generator{cfg};
  core::StudyPipeline pipeline{&generator, options};
  ASSERT_TRUE(pipeline.run().ok());

  // Flip one payload byte in the first sealed file.
  const fs::path victim = dir / energy::account_file_name(1);
  ASSERT_TRUE(fs::exists(victim));
  {
    std::ifstream in{victim, std::ios::binary};
    std::string bytes{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    in.close();
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    write_file(victim, bytes);
  }

  energy::AccountCursor cursor{pipeline.ledger()};
  EXPECT_EQ(cursor.next(), nullptr);
  ASSERT_FALSE(cursor.status().ok());
  EXPECT_EQ(cursor.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(cursor.status().message().find(energy::account_file_name(1)), std::string::npos)
      << "status does not name the damaged file: " << cursor.status().message();
  fs::remove_all(dir);
}

// ------------------------------------------------------- corruption matrix

/// A hand-built clean account file with a few multi-section row groups.
std::string build_clean_account_file() {
  energy::AccountFileWriter writer;
  for (const trace::UserId user : {0u, 2u, 5u}) {
    writer.begin_user(user);
    (void)writer.add_section("ledger", "ledger-payload-for-user-" + std::to_string(user));
    (void)writer.add_section("persist", std::string(64, static_cast<char>('a' + user)));
    writer.end_user();
  }
  return writer.finish();
}

TEST(AccountFileCorruption, EveryDamageKindIsDetectedNeverSilent) {
  const fs::path dir = scratch_dir("corruption");
  fs::create_directories(dir);
  const std::string clean = build_clean_account_file();
  const fs::path file = dir / energy::account_file_name(1);
  write_file(file, clean);
  {
    energy::MappedAccountFile mapped;
    ASSERT_TRUE(mapped.open(file.string()).ok());
    ASSERT_EQ(mapped.rows().size(), 3u);
  }

  for (const fault::CorruptionKind kind :
       {fault::CorruptionKind::kBitFlip, fault::CorruptionKind::kTruncate,
        fault::CorruptionKind::kDuplicateSpan, fault::CorruptionKind::kSwapSpans}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto damaged = fault::apply_corruption(clean, {kind, seed});
      ASSERT_TRUE(damaged.ok());
      write_file(file, *damaged);

      energy::MappedAccountFile mapped;
      const util::Status opened = mapped.open(file.string());
      if (*damaged == clean) {
        // Degenerate corruption (e.g. swapping identical spans): the bytes
        // did not change, so the file must still open and replay.
        ASSERT_TRUE(opened.ok())
            << fault::to_string(kind) << " seed " << seed << ": " << opened.to_string();
        EXPECT_EQ(mapped.rows().size(), 3u);
      } else {
        ASSERT_FALSE(opened.ok())
            << fault::to_string(kind) << " seed " << seed << ": damage went undetected";
        EXPECT_EQ(opened.code(), util::StatusCode::kDataLoss);
        EXPECT_NE(opened.message().find(energy::account_file_name(1)), std::string::npos)
            << "status does not name the damaged file: " << opened.message();
      }
    }
  }
  fs::remove_all(dir);
}

// -------------------------------------------------------- kill and recover

// FaultPlan owns a mutex, so it cannot be returned by value — arm in place.
void arm_hard_stop(fault::FaultPlan& plan, std::uint64_t nth) {
  plan.add_checkpoint_fault(
      fault::parse_checkpoint_fault_spec("nth=" + std::to_string(nth) + ",kind=hard-stop")
          .value());
}

TEST(KillRecoverAccountPlane, ResumedFoldRunBitIdenticalAtEveryThreadCount) {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/23);
  cfg.num_days = 30;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Reference: fully resident, uninterrupted, no checkpointing at all.
    sim::StudyGenerator reference_gen{cfg};
    core::PipelineOptions reference_options;
    reference_options.num_threads = threads;
    core::StudyPipeline reference{&reference_gen, reference_options};
    analysis::PersistenceAnalysis reference_persist;
    reference.add_analysis("persistence", &reference_persist);
    ASSERT_TRUE(reference.run().ok());
    const auto reference_rows = collect_cursor(reference.ledger());

    const fs::path ckpt_dir = scratch_dir("kill_ckpt_t" + std::to_string(threads));
    const fs::path account_dir = scratch_dir("kill_accounts_t" + std::to_string(threads));
    // Kill: per-user checkpoints over a fold run, hard stop after the third.
    fault::FaultPlan plan;
    arm_hard_stop(plan, 3);
    {
      core::PipelineOptions options;
      options.num_threads = threads;
      options.checkpoint_dir = ckpt_dir.string();
      options.checkpoint_every_users = 1;
      options.fault_plan = &plan;
      options.account_dir = account_dir.string();
      options.account_budget_bytes = 8 * 1024;
      sim::StudyGenerator killed_gen{cfg};
      core::StudyPipeline killed{&killed_gen, options};
      analysis::PersistenceAnalysis killed_persist;
      killed.add_analysis("persistence", &killed_persist);
      EXPECT_THROW((void)killed.run(), fault::ShardFault);
    }

    // Recover: fresh process state, fresh sinks, same directories.
    core::PipelineOptions options;
    options.num_threads = threads;
    options.checkpoint_dir = ckpt_dir.string();
    options.resume = true;
    options.account_dir = account_dir.string();
    options.account_budget_bytes = 8 * 1024;
    sim::StudyGenerator resumed_gen{cfg};
    core::StudyPipeline resumed{&resumed_gen, options};
    analysis::PersistenceAnalysis resumed_persist;
    resumed.add_analysis("persistence", &resumed_persist);
    const auto stats = resumed.run();
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    EXPECT_EQ(stats->resumed_users, 3u);

    EXPECT_EQ(reference.ledger().total_joules(), resumed.ledger().total_joules());
    EXPECT_EQ(reference.ledger().total_bytes(), resumed.ledger().total_bytes());
    EXPECT_EQ(reference.attributor().attributed_joules(),
              resumed.attributor().attributed_joules());
    EXPECT_EQ(resumed.ledger().num_accounts(), 0u);
    expect_identical_sequences(reference_rows, collect_cursor(resumed.ledger()));
    for (const trace::AppId app : reference_persist.tracked_apps()) {
      const auto ra = reference_persist.durations(app).sorted_samples();
      const auto sa = resumed_persist.durations(app).sorted_samples();
      ASSERT_TRUE(resumed_persist.hydrate_status().ok())
          << resumed_persist.hydrate_status().to_string();
      ASSERT_EQ(ra.size(), sa.size());
      for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], sa[i]);
    }
    fs::remove_all(ckpt_dir);
    fs::remove_all(account_dir);
  }
}

/// Two scenarios, each with its own persistence sink, on `sweep`.
void add_fold_scenarios(core::SweepEngine& sweep, analysis::PersistenceAnalysis (&persist)[2]) {
  core::Scenario baseline;
  baseline.name = "baseline";
  baseline.analyses.emplace_back("persistence", &persist[0]);
  sweep.add_scenario(std::move(baseline));
  core::Scenario kill3d;
  kill3d.name = "kill-3d";
  kill3d.policy = [](trace::TraceSink* d) {
    return std::make_unique<core::KillAfterIdlePolicy>(d, days(3.0));
  };
  kill3d.analyses.emplace_back("persistence", &persist[1]);
  sweep.add_scenario(std::move(kill3d));
}

TEST(KillRecoverAccountPlane, ResumedFoldSweepBitIdenticalAtEveryThreadCount) {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/23);
  cfg.num_days = 30;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Reference: fully resident, uninterrupted, no checkpointing at all.
    sim::StudyGenerator reference_gen{cfg};
    core::SweepOptions reference_options;
    reference_options.num_threads = threads;
    core::SweepEngine reference{&reference_gen, reference_options};
    analysis::PersistenceAnalysis reference_persist[2];
    add_fold_scenarios(reference, reference_persist);
    ASSERT_TRUE(reference.run().ok());

    const fs::path ckpt_dir = scratch_dir("sweep_ckpt_t" + std::to_string(threads));
    const fs::path account_dir = scratch_dir("sweep_accounts_t" + std::to_string(threads));
    // Kill inside the second scenario: per-user checkpoints give the first
    // one six writes plus a boundary write, so write 9 follows its 2nd user.
    fault::FaultPlan plan;
    arm_hard_stop(plan, 9);
    core::SweepOptions options;
    options.num_threads = threads;
    options.checkpoint_dir = ckpt_dir.string();
    options.checkpoint_every_users = 1;
    options.account_dir = account_dir.string();
    options.account_budget_bytes = 8 * 1024;
    {
      options.fault_plan = &plan;
      sim::StudyGenerator killed_gen{cfg};
      core::SweepEngine killed{&killed_gen, options};
      analysis::PersistenceAnalysis killed_persist[2];
      add_fold_scenarios(killed, killed_persist);
      EXPECT_THROW((void)killed.run(), fault::ShardFault);
    }

    // Recover: fresh process state, fresh sinks, same directories.
    options.fault_plan = nullptr;
    options.resume = true;
    sim::StudyGenerator resumed_gen{cfg};
    core::SweepEngine resumed{&resumed_gen, options};
    analysis::PersistenceAnalysis resumed_persist[2];
    add_fold_scenarios(resumed, resumed_persist);
    const auto stats = resumed.run();
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    EXPECT_EQ(stats->resumed_users, static_cast<std::uint64_t>(cfg.num_users) + 2);

    for (std::size_t i = 0; i < 2; ++i) {
      const core::ScenarioResult& want = reference.results()[i];
      const core::ScenarioResult& got = resumed.results()[i];
      SCOPED_TRACE("scenario " + want.name);
      EXPECT_EQ(want.ledger.total_joules(), got.ledger.total_joules());
      EXPECT_EQ(want.ledger.total_bytes(), got.ledger.total_bytes());
      EXPECT_EQ(got.ledger.num_accounts(), 0u);  // every detail row spilled
      expect_identical_sequences(collect_cursor(want.ledger), collect_cursor(got.ledger));
      for (const trace::AppId app : reference_persist[i].tracked_apps()) {
        const auto ra = reference_persist[i].durations(app).sorted_samples();
        const auto sa = resumed_persist[i].durations(app).sorted_samples();
        ASSERT_TRUE(resumed_persist[i].hydrate_status().ok())
            << resumed_persist[i].hydrate_status().to_string();
        ASSERT_EQ(ra.size(), sa.size());
        for (std::size_t k = 0; k < ra.size(); ++k) EXPECT_EQ(ra[k], sa[k]);
      }
    }
    fs::remove_all(ckpt_dir);
    fs::remove_all(account_dir);
  }
}

}  // namespace
}  // namespace wildenergy
