// wildbench: one run of one benchmark workload, in its own process.
//
//   wildbench --workload <name> --seed <n> --tmp <dir> [--budget <s>]
//             [--trace 0|1] [--scale <x>] [--trace-out <file>] [--inject-fault]
//
// Builds the workload's inputs from the seed (set-up), repeats the timed
// region (the engine's run() plus the result queries a user reads
// afterwards) until --budget seconds have passed since the process started,
// checks the outputs after every repetition, and prints one JSON object as
// its last stdout line.
// perfbench/run.py starts this binary repeatedly, each time in a fresh
// process, and reduces the records to the benchmark's metrics; see
// perfbench/README.md for the workloads and the metric table.
//
// With --trace 1 the benchmark also records spans around its own calls into
// the library's public API — the program itself carries no extra
// instrumentation — and runs layer drills: each public entry point alone on a
// slice of the workload's input. The spans are written as Chrome-trace JSON
// through obs::TraceWriter.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "analysis/case_studies.h"
#include "analysis/figures.h"
#include "analysis/longitudinal.h"
#include "analysis/persistence.h"
#include "analysis/time_since_fg.h"
#include "analysis/waste.h"
#include "ckpt/checkpoint.h"
#include "core/pipeline.h"
#include "core/policy.h"
#include "core/report.h"
#include "energy/account_cursor.h"
#include "energy/account_file.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "fault/plan.h"
#include "obs/memory.h"
#include "obs/trace_writer.h"
#include "radio/burst_machine.h"
#include "sim/generator.h"
#include "sim/population.h"
#include "trace/batch.h"
#include "trace/csv_io.h"
#include "trace/interface_filter.h"
#include "trace/spilling_store.h"
#include "trace/trace_store.h"

namespace {

using namespace wildenergy;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// Workload sizes at --scale 1 (run.py's default). Chosen so one process
// finishes in a few seconds on a 4-core host; see README.md.
constexpr std::uint32_t kPanelUsers = 40;
constexpr double kPanelDays = 30.0;
constexpr double kFleetUsers = 1000.0;
constexpr std::int64_t kFleetDays = 7;
constexpr std::uint64_t kFleetStoreBudget = 32ull << 20;
constexpr int kPanelLiveSetups = 25;

/// Worker threads of the sharded engine: min(2, nproc). The benchmark runs
/// on shared hosts, where more threads than the cores left free by other
/// tenants time the scheduler rather than the engine.
unsigned engine_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- tracing ------------------------------------------------------------------

/// In-memory span store for the traced run. Spans go to an obs::TraceWriter
/// (written at exit); user spans are also kept here for the per-user metrics.
class Tracer {
 public:
  struct UserSpan {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

  void span(const std::string& name, const char* category, std::int64_t start_ns,
            std::int64_t end_ns) {
    writer_.add_complete(name, category, start_ns / 1000, (end_ns - start_ns) / 1000, tid());
  }

  /// Time spent inside the engine's chain. Capped: a long run delivers
  /// hundreds of thousands of batches, and the cap keeps the trace small.
  void downstream_span(std::int64_t start_ns, std::int64_t end_ns) {
    if (downstream_spans_.fetch_add(1, std::memory_order_relaxed) < kMaxDownstreamSpans) {
      span("downstream", "engine", start_ns, end_ns);
    }
  }

  void user_span(trace::UserId user, std::int64_t start_ns, std::int64_t end_ns) {
    span("user " + std::to_string(user), "user", start_ns, end_ns);
    const std::lock_guard lock{mu_};
    users_.push_back({start_ns, end_ns});
  }

  [[nodiscard]] std::vector<UserSpan> user_spans() const {
    const std::lock_guard lock{mu_};
    return users_;
  }

  bool write(const std::string& path) const { return writer_.write_file(path); }

 private:
  static constexpr std::uint64_t kMaxDownstreamSpans = 50'000;

  /// Small per-thread track id, named on first use.
  int tid() {
    thread_local int id = 0;
    if (id == 0) {
      id = next_tid_.fetch_add(1);
      writer_.set_track_name(id, id == 1 ? "main" : "thread " + std::to_string(id));
    }
    return id;
  }

  Clock::time_point epoch_ = Clock::now();
  obs::TraceWriter writer_;
  std::atomic<int> next_tid_{1};
  std::atomic<std::uint64_t> downstream_spans_{0};
  mutable std::mutex mu_;
  std::vector<UserSpan> users_;
};

/// Forwarding sink that times every callback into `down`. With a tracer it
/// also records downstream spans and, when `user_spans` is set, one span
/// per user bracket.
class TimingSink final : public trace::TraceSink {
 public:
  TimingSink(trace::TraceSink* down, Tracer* tracer = nullptr, bool user_spans = false)
      : down_(down), tracer_(tracer), user_spans_(user_spans) {}

  void on_study_begin(const trace::StudyMeta& meta) override {
    timed([&] { down_->on_study_begin(meta); });
  }
  void on_user_begin(trace::UserId user) override {
    user_start_ns_ = now_ns();
    timed([&] { down_->on_user_begin(user); });
  }
  void on_packet(const trace::PacketRecord& packet) override {
    ++packets_;
    timed([&] { down_->on_packet(packet); });
  }
  void on_transition(const trace::StateTransition& transition) override {
    timed([&] { down_->on_transition(transition); });
  }
  void on_user_end(trace::UserId user) override {
    timed([&] { down_->on_user_end(user); });
    if (tracer_ != nullptr && user_spans_) tracer_->user_span(user, user_start_ns_, now_ns());
  }
  void on_study_end() override {
    timed([&] { down_->on_study_end(); });
  }
  void on_batch(const trace::EventBatch& batch) override {
    packets_ += batch.packets.size();
    timed([&] { down_->on_batch(batch); }, /*span=*/true);
  }

  [[nodiscard]] std::int64_t downstream_ns() const { return downstream_ns_; }
  [[nodiscard]] std::uint64_t packets() const { return packets_; }

 private:
  /// Tracer time when tracing (so spans line up), else the raw clock.
  [[nodiscard]] std::int64_t now_ns() const {
    if (tracer_ != nullptr) return tracer_->now_ns();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
        .count();
  }
  template <class F>
  void timed(F&& call, bool span = false) {
    const std::int64_t start = now_ns();
    call();
    const std::int64_t end = now_ns();
    downstream_ns_ += end - start;
    if (span && tracer_ != nullptr) tracer_->downstream_span(start, end);
  }

  trace::TraceSink* down_;
  Tracer* tracer_;
  bool user_spans_;
  std::int64_t user_start_ns_ = 0;
  std::int64_t downstream_ns_ = 0;
  std::uint64_t packets_ = 0;
};

/// The source handed to the engine in a traced run. Forwards every call to
/// `inner` and interposes a TimingSink in front of the engine's entry sink,
/// so source self time is emit time minus downstream time. It is a
/// StoreBackend so the engine still sees a wrapped store as one; the store
/// half forwards to `store` when one is wrapped.
class TracedSource final : public trace::StoreBackend {
 public:
  TracedSource(trace::TraceSource& inner, trace::StoreBackend* store, Tracer& tracer,
               bool user_spans)
      : inner_(inner), store_(store), tracer_(tracer), user_spans_(user_spans) {}

  util::Status emit(trace::TraceSink& sink, std::size_t batch_size) override {
    TimingSink timing{&sink, &tracer_, user_spans_};
    const std::int64_t start = tracer_.now_ns();
    util::Status status = inner_.emit(timing, batch_size);
    const std::int64_t end = tracer_.now_ns();
    tracer_.span("source.emit", "source", start, end);
    account(end - start, timing);
    return status;
  }
  util::Status emit_user(trace::UserId user, trace::TraceSink& sink,
                         std::size_t batch_size) override {
    TimingSink timing{&sink, &tracer_, false};
    const std::int64_t start = tracer_.now_ns();
    util::Status status = inner_.emit_user(user, timing, batch_size);
    const std::int64_t end = tracer_.now_ns();
    if (user_spans_) tracer_.user_span(user, start, end);
    account(end - start, timing);
    return status;
  }
  [[nodiscard]] trace::StudyMeta meta() const override { return inner_.meta(); }
  [[nodiscard]] bool supports_user_access() const override {
    return inner_.supports_user_access();
  }
  [[nodiscard]] std::vector<trace::UserId> users() const override { return inner_.users(); }

  [[nodiscard]] bool empty() const override { return store_ != nullptr && store_->empty(); }
  [[nodiscard]] std::size_t num_users() const override {
    return store_ != nullptr ? store_->num_users() : inner_.meta().num_users;
  }
  [[nodiscard]] std::uint64_t event_count() const override {
    return store_ != nullptr ? store_->event_count() : 0;
  }
  [[nodiscard]] obs::MemoryUse memory_use() const override {
    return store_ != nullptr ? store_->memory_use() : obs::MemoryUse{};
  }
  void clear() override {
    if (store_ != nullptr) store_->clear();
  }
  [[nodiscard]] std::uint64_t spilled_bytes() const override {
    return store_ != nullptr ? store_->spilled_bytes() : 0;
  }
  [[nodiscard]] std::size_t num_segments() const override {
    return store_ != nullptr ? store_->num_segments() : 0;
  }
  [[nodiscard]] util::Status health() const override {
    return store_ != nullptr ? store_->health() : util::Status::ok_status();
  }

  /// Source self time: emit wall time not spent downstream (all threads).
  [[nodiscard]] double self_s() const {
    const std::lock_guard lock{mu_};
    return static_cast<double>(emit_ns_ - downstream_ns_) / 1e9;
  }
  [[nodiscard]] std::uint64_t packets() const {
    const std::lock_guard lock{mu_};
    return packets_;
  }

 private:
  void account(std::int64_t emit_ns, const TimingSink& timing) {
    const std::lock_guard lock{mu_};
    emit_ns_ += emit_ns;
    downstream_ns_ += timing.downstream_ns();
    packets_ += timing.packets();
  }

  trace::TraceSource& inner_;
  trace::StoreBackend* store_;
  Tracer& tracer_;
  bool user_spans_;
  mutable std::mutex mu_;
  std::int64_t emit_ns_ = 0;
  std::int64_t downstream_ns_ = 0;
  std::uint64_t packets_ = 0;
};

/// Discards everything, batches included (the base class would replay them).
class NullSink final : public trace::TraceSink {
 public:
  void on_batch(const trace::EventBatch& /*batch*/) override {}
};

/// Joins per-user emit_user() streams, each bracketed by its own study, into
/// one study bracket; finish() closes it.
class JoinStudiesSink final : public trace::TraceSink {
 public:
  explicit JoinStudiesSink(trace::TraceSink* down) : down_(down) {}

  void on_study_begin(const trace::StudyMeta& meta) override {
    if (!open_) down_->on_study_begin(meta);
    open_ = true;
  }
  void on_user_begin(trace::UserId user) override { down_->on_user_begin(user); }
  void on_packet(const trace::PacketRecord& packet) override { down_->on_packet(packet); }
  void on_transition(const trace::StateTransition& t) override { down_->on_transition(t); }
  void on_user_end(trace::UserId user) override { down_->on_user_end(user); }
  void on_study_end() override {}
  void on_batch(const trace::EventBatch& batch) override { down_->on_batch(batch); }
  void finish() {
    if (open_) down_->on_study_end();
    open_ = false;
  }

 private:
  trace::TraceSink* down_;
  bool open_ = false;
};

// -- checks -------------------------------------------------------------------

/// Output checks. They test invariants and paper-shape orderings, never
/// exact generator values, so a versioned generator change needs no edit.
struct Checks {
  int run = 0;
  std::vector<std::string> failed;

  void expect(bool ok, const std::string& name) {
    ++run;
    if (!ok) failed.push_back(name);
  }
};

bool close_rel(double a, double b, double rel = 1e-9) {
  return std::abs(a - b) <= rel * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Paper-shape orderings from EXPERIMENTS.md that hold at any seed:
/// background states dominate network energy (Fig. 3), and the top energy
/// consumers are not the top data consumers (Fig. 2).
void check_paper_shape(const energy::EnergyLedger& ledger, Checks& checks) {
  checks.expect(analysis::overall_state_breakdown(ledger).background_fraction() > 0.5,
                "fig3.background_majority");
  std::set<trace::AppId> by_data;
  for (const auto& e : analysis::top_consumers_by_data(ledger)) by_data.insert(e.app);
  std::set<trace::AppId> by_energy;
  for (const auto& e : analysis::top_consumers_by_energy(ledger)) by_energy.insert(e.app);
  checks.expect(!by_data.empty() && by_data != by_energy, "fig2.energy_ne_data_top10");
}

// -- the analysis set ---------------------------------------------------------

std::vector<trace::AppId> find_apps(const appmodel::AppCatalog& catalog,
                                    std::initializer_list<const char*> names) {
  std::vector<trace::AppId> ids;
  for (const char* name : names) {
    const trace::AppId id = catalog.find(name);
    if (id != trace::kNoApp) ids.push_back(id);
  }
  return ids;
}

/// Table 1 rows and the §3.1 evolving apps (the apps bench/ tracks).
std::vector<trace::AppId> case_study_apps(const appmodel::AppCatalog& catalog) {
  return find_apps(catalog, {"Weibo", "Twitter", "Facebook", "Plus", "Samsung Push",
                             "Urbanairship", "Maps", "GMail", "Go Weather widget", "Go Weather",
                             "Accuweather", "Accuweather widget", "Spotify", "Pandora",
                             "Pocketcasts", "Podcastaddict"});
}
std::vector<trace::AppId> evolving_apps(const appmodel::AppCatalog& catalog) {
  return find_apps(catalog, {"Facebook", "Pandora", "Go Weather", "Maps", "GMail", "Spotify",
                             "Weibo", "Twitter"});
}

/// The five analyses of the paper, in the order the drills report them.
struct AnalysisSet {
  explicit AnalysisSet(const appmodel::AppCatalog& catalog)
      : waste(evolving_apps(catalog)),
        cases(case_study_apps(catalog)),
        longitudinal(evolving_apps(catalog)) {}

  [[nodiscard]] std::vector<std::pair<std::string, trace::TraceSink*>> sinks() {
    return {{"persistence", &persistence},
            {"time_since_fg", &tsf},
            {"waste", &waste},
            {"case_studies", &cases},
            {"longitudinal", &longitudinal}};
  }

  analysis::PersistenceAnalysis persistence;
  analysis::TimeSinceForegroundAnalysis tsf;
  analysis::WastedUpdateAnalysis waste;
  analysis::CaseStudyAnalysis cases;
  analysis::LongitudinalAnalysis longitudinal;
};

// -- options and results ------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  double scale = 1.0;
  std::string tmp;
  std::string trace_out;
  bool inject_fault = false;
  /// Keep repeating the timed region until this many seconds have passed
  /// since the process started (at least kMinReps times).
  double budget_s = 0.0;
};

struct Result {
  double setup_s = 0.0;
  std::vector<double> run_s;  ///< one per untraced repetition
  double traced_run_s = 0.0;
  std::uint64_t packets = 0;    ///< attributed packets of one repetition
  std::uint64_t user_runs = 0;  ///< users attempted, all repetitions
  std::uint64_t failed_user_runs = 0;
  unsigned threads = 1;  ///< worker threads the engine used
  Checks checks;
  std::map<std::string, double> layers;
};

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 200;

/// Pins the calling thread, and the engine workers it starts, to CPUs of
/// the process's affinity mask that change from one repetition to the next.
/// On a shared host one core can run slower than the others for many
/// seconds; rotating makes every run sample every core.
class CpuRotation {
 public:
  explicit CpuRotation(unsigned width) : width_(width) {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Repetition `rep` runs on `width` consecutive allowed CPUs from the
  /// rep-th on (all of them if there are no more than `width`).
  void pin(std::size_t rep) const {
    if (cpus_.size() <= width_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned i = 0; i < width_; ++i) CPU_SET(cpus_[(rep + i) % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  unsigned width_;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Runs the timed region untraced until the budget is spent, each time on
/// other CPUs (`threads` of them), then once more traced, unpinned, when a
/// tracer is given. `once(tracer)` returns its run_s.
template <class Once>
void repeat(const Options& o, Clock::time_point process_start, Tracer* tracer, Result& r,
            unsigned threads, Once&& once) {
  {
    const CpuRotation rotation{threads};
    while (r.run_s.size() < kMaxReps &&
           (r.run_s.size() < kMinReps || seconds_since(process_start) < o.budget_s)) {
      rotation.pin(r.run_s.size());
      r.run_s.push_back(once(nullptr));
    }
  }
  if (tracer != nullptr) r.traced_run_s = once(tracer);
}

std::int64_t scaled_days(double days, double scale) {
  return std::max<std::int64_t>(1, std::llround(days * scale));
}

sim::StudyConfig panel_config(const Options& o) {
  sim::StudyConfig cfg;
  cfg.seed = o.seed;
  cfg.num_users = kPanelUsers;
  cfg.num_days = scaled_days(kPanelDays, o.scale);
  return cfg;
}

sim::StudyConfig fleet_config(const Options& o) {
  sim::PopulationConfig population;
  population.seed = o.seed;
  population.num_users =
      static_cast<std::uint32_t>(std::max(20.0, std::round(kFleetUsers * o.scale)));
  population.num_days = kFleetDays;
  return population.study();
}

/// The generator config behind each workload's input.
sim::StudyConfig workload_config(const Options& o) {
  if (o.workload == "fleet_fold") return fleet_config(o);
  return panel_config(o);
}

void arm_fault(const Options& o, fault::FaultPlan& plan) {
  // User 1 fails on every attempt, so the retry policy skips it.
  if (o.inject_fault) plan.add({.user = 1, .nth_callback = 1, .fail_attempts = 1000});
}

double mpkt_per_s(std::uint64_t packets, double seconds) {
  return seconds > 0.0 ? static_cast<double>(packets) / seconds / 1e6 : 0.0;
}
double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Per-user span metrics: p50/p99 user time, worker busy share, and the run
/// wall time covered by no user span (merge, fold, seal, final checkpoint).
void user_span_metrics(const Tracer& tracer, std::int64_t run_start_ns, std::int64_t run_end_ns,
                       unsigned threads, Result& r) {
  std::vector<Tracer::UserSpan> spans = tracer.user_spans();
  std::vector<double> ms;
  double busy_ns = 0.0;
  for (const auto& s : spans) {
    ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    busy_ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  std::sort(ms.begin(), ms.end());
  const auto pct = [&](double q) {
    if (ms.empty()) return 0.0;
    const auto index = static_cast<std::size_t>(q * static_cast<double>(ms.size()));
    return ms[std::min(ms.size() - 1, index)];
  };
  std::sort(spans.begin(), spans.end(),
            [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; });
  std::int64_t covered = 0;
  std::int64_t cursor = run_start_ns;
  for (const auto& s : spans) {
    const std::int64_t begin = std::max(cursor, s.start_ns);
    const std::int64_t end = std::min(run_end_ns, s.end_ns);
    if (end > begin) covered += end - begin;
    cursor = std::max(cursor, s.end_ns);
  }
  const double wall_ns = static_cast<double>(run_end_ns - run_start_ns);
  r.layers["core.user_ms_p50"] = pct(0.5);
  r.layers["core.user_ms_p99"] = pct(0.99);
  r.layers["core.worker_busy_share"] = wall_ns > 0 ? busy_ns / (threads * wall_ns) : 0.0;
  r.layers["core.serial_tail_s"] = (wall_ns - static_cast<double>(covered)) / 1e9;
}

void stats_counters(const obs::RunStats& stats, Result& r) {
  r.layers["radio.promotions"] = static_cast<double>(stats.radio_promotions);
  r.layers["radio.tail_segments"] = static_cast<double>(stats.tail_segments);
}

// -- layer drills -------------------------------------------------------------

/// Each public entry point alone on a slice of the workload's input: the
/// first users of `source`, up to about kDrillEvents events. Fills every
/// layer metric; the workload overrides the ones its real run measures.
class Drills {
 public:
  Drills(trace::TraceSource& source, const appmodel::AppCatalog& catalog, Tracer& tracer,
         const std::string& dir)
      : source_(source), catalog_(catalog), tracer_(tracer), dir_(dir) {}

  void run(Result& r) {
    capture_slice(r);
    replay(r);
    segment_replay(r);
    csv_read(r);
    policies(r);
    attribution_and_analyses(r);
    merge_and_clone(r);
    fold_and_cursor(r);
  }

  using Checkpointables = std::vector<std::pair<std::string, const ckpt::CheckpointableSink*>>;

  /// Write one snapshot of `sinks` (what a checkpoint holds) several times.
  void checkpoint(const Checkpointables& sinks, const trace::StudyMeta& meta,
                  std::size_t completed_users, Result& r) {
    ckpt::CheckpointWriter writer{dir_ + "/ckpt"};
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      const std::int64_t start = tracer_.now_ns();
      ckpt::Snapshot snapshot;
      snapshot.meta = meta;
      for (std::size_t u = 0; u < completed_users; ++u) {
        snapshot.completed_users.push_back(static_cast<trace::UserId>(u));
      }
      for (const auto& [name, sink] : sinks) {
        ckpt::ByteWriter out;
        sink->save_state(out);
        snapshot.add_section(name, out.take());
      }
      const util::Status st = writer.write(snapshot);
      const std::int64_t end = tracer_.now_ns();
      tracer_.span("drill.ckpt.write", "drill", start, end);
      if (!st.ok()) throw std::runtime_error("checkpoint drill: " + st.to_string());
      ms.push_back(static_cast<double>(end - start) / 1e6);
    }
    std::sort(ms.begin(), ms.end());
    r.layers["ckpt.write_ms"] = ms[ms.size() / 2];
    r.layers["ckpt.bytes"] = static_cast<double>(writer.bytes_written()) /
                             static_cast<double>(writer.checkpoints_written());
    r.layers["ckpt.checkpoints"] = static_cast<double>(writer.checkpoints_written());
  }

  /// Snapshot of the drill chain's final state (the attribution drill).
  void checkpoint_drill_chain(Result& r) {
    Checkpointables sinks{{"attributor", attributor_.get()}, {"ledger", ledger_.get()}};
    for (const auto& [name, sink] : analyses_->sinks()) {
      sinks.emplace_back(name, ckpt::as_checkpointable(sink));
    }
    checkpoint(sinks, slice_.meta(), users_.size(), r);
  }

 private:
  static constexpr std::uint64_t kDrillEvents = 1'500'000;

  template <class F>
  double timed(const char* name, F&& body) {
    const std::int64_t start = tracer_.now_ns();
    body();
    const std::int64_t end = tracer_.now_ns();
    tracer_.span(name, "drill", start, end);
    return ns_to_s(end - start);
  }

  [[nodiscard]] double us_per_user(std::int64_t ns) const {
    return static_cast<double>(ns) / 1e3 /
           static_cast<double>(std::max<std::size_t>(1, users_.size()));
  }

  static void require(const util::Status& st, const char* what) {
    if (!st.ok()) throw std::runtime_error(std::string(what) + ": " + st.to_string());
  }

  void capture_slice(Result& r) {
    const double s = timed("drill.trace.capture", [&] {
      JoinStudiesSink join{&slice_};
      for (const trace::UserId user : source_.users()) {
        require(source_.emit_user(user, join, trace::kDefaultBatchSize), "slice capture");
        users_.push_back(user);
        if (slice_.event_count() >= kDrillEvents) break;
      }
      join.finish();
    });
    r.layers["trace.capture_s"] = s;
  }

  void replay(Result& r) {
    NullSink null;
    TimingSink timing{&null};
    const double s = timed("drill.trace.replay", [&] {
      require(slice_.emit(timing, trace::kDefaultBatchSize), "replay drill");
    });
    r.layers["trace.replay_mpkt_s"] =
        mpkt_per_s(timing.packets(), s - ns_to_s(timing.downstream_ns()));
  }

  void segment_replay(Result& r) {
    trace::SpillOptions spill;
    spill.dir = dir_ + "/wesg";
    trace::SpillingTraceStore store{spill};
    require(store.capture(slice_), "segment drill capture");
    NullSink null;
    TimingSink timing{&null};
    const double s = timed("drill.trace.segment_replay", [&] {
      require(store.emit(timing, trace::kDefaultBatchSize), "segment drill");
    });
    r.layers["trace.segment_replay_mpkt_s"] =
        mpkt_per_s(timing.packets(), s - ns_to_s(timing.downstream_ns()));
    r.layers["trace.store_spilled_mb"] = static_cast<double>(store.spilled_bytes()) / 1e6;
  }

  void csv_read(Result& r) {
    std::ostringstream os;
    trace::CsvTraceWriter writer{os};
    require(slice_.emit(writer, trace::kDefaultBatchSize), "csv drill export");
    std::istringstream is{std::move(os).str()};
    trace::CsvTraceSource csv{is};
    NullSink null;
    TimingSink timing{&null};
    const double s = timed("drill.trace.csv_read", [&] {
      require(csv.emit(timing, trace::kDefaultBatchSize), "csv drill");
    });
    const double self = s - ns_to_s(timing.downstream_ns());
    r.layers["trace.csv_read_mpkt_s"] = mpkt_per_s(timing.packets(), self);
    r.layers["trace.csv_read_self_s"] = self;
  }

  void policies(Result& r) {
    // Each policy alone, in front of a null sink: its time is the whole
    // downstream time its TimingSink measures.
    const auto run_policy = [&](const char* name, trace::TraceSink& policy) {
      TimingSink timing{&policy};
      timed(name, [&] { require(slice_.emit(timing, trace::kDefaultBatchSize), name); });
      return mpkt_per_s(timing.packets(), ns_to_s(timing.downstream_ns()));
    };
    NullSink null;
    core::KillAfterIdlePolicy kill{&null, days(3.0)};
    r.layers["core.policy_kill_mpkt_s"] = run_policy("drill.core.policy_kill", kill);
    core::DozeLikePolicy doze{&null};
    r.layers["core.policy_doze_mpkt_s"] = run_policy("drill.core.policy_doze", doze);
  }

  /// replay -> filter -> attributor -> {ledger, the five analyses}, with a
  /// TimingSink in front of each layer; self time = own span - children.
  void attribution_and_analyses(Result& r) {
    ledger_ = std::make_unique<energy::EnergyLedger>();
    analyses_ = std::make_unique<AnalysisSet>(catalog_);
    std::vector<std::unique_ptr<TimingSink>> sink_timers;
    trace::TraceMulticast fan;
    sink_timers.push_back(std::make_unique<TimingSink>(ledger_.get()));
    fan.add(sink_timers.back().get());
    for (const auto& [name, sink] : analyses_->sinks()) {
      sink_timers.push_back(std::make_unique<TimingSink>(sink));
      fan.add(sink_timers.back().get());
    }
    attributor_ = std::make_unique<energy::EnergyAttributor>(radio::make_lte_model, &fan);
    TimingSink attribute_timing{attributor_.get()};
    trace::InterfaceFilter filter{&attribute_timing, trace::Interface::kCellular};
    TimingSink filter_timing{&filter};
    timed("drill.energy.attribute", [&] {
      require(slice_.emit(filter_timing, trace::kDefaultBatchSize), "attribution drill");
    });
    std::int64_t sinks_ns = 0;
    for (const auto& t : sink_timers) sinks_ns += t->downstream_ns();
    r.layers["trace.filter_mpkt_s"] =
        mpkt_per_s(filter_timing.packets(),
                   ns_to_s(filter_timing.downstream_ns() - attribute_timing.downstream_ns()));
    r.layers["energy.attribute_mpkt_s"] = mpkt_per_s(
        attribute_timing.packets(), ns_to_s(attribute_timing.downstream_ns() - sinks_ns));
    r.layers["energy.ledger_mpkt_s"] =
        mpkt_per_s(sink_timers[0]->packets(), ns_to_s(sink_timers[0]->downstream_ns()));
    const char* names[] = {"analysis.persistence_mpkt_s", "analysis.time_since_fg_mpkt_s",
                           "analysis.waste_mpkt_s", "analysis.case_studies_mpkt_s",
                           "analysis.longitudinal_mpkt_s"};
    for (std::size_t i = 0; i < std::size(names); ++i) {
      r.layers[names[i]] = mpkt_per_s(sink_timers[i + 1]->packets(),
                                      ns_to_s(sink_timers[i + 1]->downstream_ns()));
    }
  }

  /// The shard protocol by hand: per user, clone every shardable sink, feed
  /// the clone the user's attributed stream, and time merge_from into the
  /// parents. shard_clone_kb is one fresh clone set after on_study_begin.
  void merge_and_clone(Result& r) {
    // The clone size depends on the population the study header announces,
    // which is the full source's, not the slice's.
    const trace::StudyMeta meta = source_.meta();
    energy::EnergyLedger ledger;
    AnalysisSet parents{catalog_};
    std::vector<std::pair<std::string, trace::TraceSink*>> sinks{{"ledger", &ledger}};
    for (const auto& entry : parents.sinks()) sinks.push_back(entry);
    NullSink null;
    energy::EnergyAttributor parent_attributor{radio::make_lte_model, &null};
    parent_attributor.on_study_begin(meta);
    for (const auto& [name, sink] : sinks) sink->on_study_begin(meta);

    std::uint64_t clone_bytes = 0;
    for (const auto& [name, sink] : sinks) {
      const std::unique_ptr<trace::TraceSink> clone = trace::as_shardable(sink)->clone_shard();
      clone->on_study_begin(meta);
      clone_bytes += clone->memory_use().resident_bytes;
    }
    r.layers["core.shard_clone_kb"] = static_cast<double>(clone_bytes) / 1024.0;

    std::int64_t merge_ns = 0;
    for (const trace::UserId user : users_) {
      std::vector<std::unique_ptr<trace::TraceSink>> clones;
      trace::TraceMulticast fan;
      for (const auto& [name, sink] : sinks) {
        clones.push_back(trace::as_shardable(sink)->clone_shard());
        fan.add(clones.back().get());
      }
      energy::EnergyAttributor attributor{radio::make_lte_model, &fan};
      trace::InterfaceFilter filter{&attributor, trace::Interface::kCellular};
      require(slice_.emit_user(user, filter, trace::kDefaultBatchSize), "merge drill");
      const std::int64_t start = tracer_.now_ns();
      parent_attributor.merge_from(attributor);
      for (std::size_t i = 0; i < sinks.size(); ++i) {
        trace::as_shardable(sinks[i].second)->merge_from(*clones[i]);
      }
      const std::int64_t end = tracer_.now_ns();
      tracer_.span("drill.core.merge", "drill", start, end);
      merge_ns += end - start;
    }
    r.layers["core.merge_us_per_user"] = us_per_user(merge_ns);
  }

  /// Fold-and-release by hand (what the engine's fold round does after each
  /// user), then read every spilled row back through AccountCursor.
  void fold_and_cursor(Result& r) {
    energy::AccountSpill spill{{.dir = dir_ + "/weac", .budget_bytes = 0}};
    require(spill.open_fresh(), "fold drill");
    energy::EnergyLedger ledger;
    AnalysisSet set{catalog_};
    trace::TraceMulticast fan;
    fan.add(&ledger);
    for (const auto& [name, sink] : set.sinks()) fan.add(sink);
    energy::EnergyAttributor attributor{radio::make_lte_model, &fan};
    attributor.set_account_spill(&spill);
    ledger.set_account_spill(&spill);
    for (const auto& [name, sink] : set.sinks()) {
      trace::as_shardable(sink)->set_account_spill(&spill);
    }
    trace::InterfaceFilter filter{&attributor, trace::Interface::kCellular};

    /// Forwards the stream; after each user's bracket closes, folds it.
    class FoldTimer final : public trace::TraceSink {
     public:
      FoldTimer(trace::TraceSink* down, std::function<void(trace::UserId)> fold)
          : down_(down), fold_(std::move(fold)) {}
      void on_study_begin(const trace::StudyMeta& meta) override { down_->on_study_begin(meta); }
      void on_user_begin(trace::UserId user) override { down_->on_user_begin(user); }
      void on_packet(const trace::PacketRecord& p) override { down_->on_packet(p); }
      void on_transition(const trace::StateTransition& t) override { down_->on_transition(t); }
      void on_user_end(trace::UserId user) override {
        down_->on_user_end(user);
        fold_(user);
      }
      void on_study_end() override { down_->on_study_end(); }
      void on_batch(const trace::EventBatch& batch) override { down_->on_batch(batch); }

     private:
      trace::TraceSink* down_;
      std::function<void(trace::UserId)> fold_;
    };
    std::int64_t fold_ns = 0;
    FoldTimer entry{&filter, [&](trace::UserId user) {
                      const std::int64_t start = tracer_.now_ns();
                      spill.begin_user(user);
                      attributor.fold_user(user);
                      ledger.fold_user(user);
                      for (const auto& [name, sink] : set.sinks()) {
                        trace::as_shardable(sink)->fold_user(user);
                      }
                      spill.end_user();
                      const std::int64_t end = tracer_.now_ns();
                      tracer_.span("drill.energy.fold", "drill", start, end);
                      fold_ns += end - start;
                    }};
    require(slice_.emit(entry, trace::kDefaultBatchSize), "fold drill");
    require(spill.seal(), "fold drill seal");
    r.layers["energy.fold_us_per_user"] = us_per_user(fold_ns);
    r.layers["energy.account_spilled_mb"] = static_cast<double>(spill.spilled_bytes()) / 1e6;

    std::uint64_t rows = 0;
    const double s = timed("drill.energy.cursor", [&] {
      energy::AccountCursor cursor{ledger};
      while (cursor.next() != nullptr) ++rows;
      require(cursor.status(), "cursor drill");
    });
    r.layers["energy.cursor_rows_per_s"] = s > 0 ? static_cast<double>(rows) / s : 0.0;
  }

  trace::TraceSource& source_;
  const appmodel::AppCatalog& catalog_;
  Tracer& tracer_;
  std::string dir_;
  trace::TraceStore slice_;
  std::vector<trace::UserId> users_;
  // The attribution drill's chain, kept for the checkpoint drill.
  std::unique_ptr<energy::EnergyLedger> ledger_;
  std::unique_ptr<AnalysisSet> analyses_;
  std::unique_ptr<energy::EnergyAttributor> attributor_;
};

// -- workloads ----------------------------------------------------------------
//
// Each workload builds its inputs (set-up, timed as setup_s), then repeats
// the timed region: the engine's run() plus the queries a user reads after
// it. Checks run after every repetition.

/// Conservation: the energy the attributor handed out is what the ledger
/// booked.
void check_conservation(const core::StudyPipeline& pipeline, Checks& checks) {
  checks.expect(close_rel(pipeline.attributor().attributed_joules(),
                          pipeline.ledger().total_joules()),
                "energy.conservation");
}

void record_run(const obs::RunStats& stats, Result& r) {
  r.threads = stats.num_threads;
  r.packets = stats.packets;
  r.user_runs += stats.users;
  r.failed_user_runs += stats.failed_users.size();
}

/// Span bookkeeping of one traced repetition.
struct RunSpans {
  Tracer* tracer;
  std::int64_t run_start = 0;
  std::int64_t query_start = 0;

  explicit RunSpans(Tracer* t) : tracer(t), run_start(t ? t->now_ns() : 0) {}
  void query() {
    if (tracer != nullptr) query_start = tracer->now_ns();
  }
  /// Closes the run and query spans and derives the per-user metrics.
  void finish(unsigned threads, Result& r) const {
    if (tracer == nullptr) return;
    const std::int64_t end = tracer->now_ns();
    tracer->span("workload.run", "workload", run_start, end);
    tracer->span("workload.query", "workload", query_start, end);
    user_span_metrics(*tracer, run_start, query_start, threads, r);
  }
};

/// Source-side generator metrics from a traced emit.
void generator_layers(const TracedSource& traced, Result& r) {
  r.layers["sim.generate_self_s"] = traced.self_s();
  r.layers["sim.generate_mpkt_s"] = mpkt_per_s(traced.packets(), traced.self_s());
}

/// `source`, or a traced wrapper of it owned by `holder` when tracing.
template <class Source>
Source* maybe_traced(Source& source, trace::StoreBackend* store, Tracer* tracer, bool user_spans,
                     std::unique_ptr<TracedSource>& holder) {
  if (tracer == nullptr) return &source;
  holder = std::make_unique<TracedSource>(source, store, *tracer, user_spans);
  return holder.get();
}

/// panel_live: the 40-user panel generated live into a serial pipeline with
/// the paper's five analyses — the single-threaded baseline, where the
/// generator does most of the work.
Result panel_live(const Options& o, Clock::time_point process_start, Tracer* tracer) {
  Result r;
  // The set-up takes about a millisecond, so one sample of it is noise: it
  // is repeated and setup_s is the median.
  std::optional<sim::StudyGenerator> built;
  std::optional<AnalysisSet> built_set;
  std::vector<double> setup_s;
  for (int i = 0; i < kPanelLiveSetups; ++i) {
    built_set.reset();
    const auto setup_start = Clock::now();
    built.emplace(workload_config(o));
    built_set.emplace(built->catalog());
    setup_s.push_back(seconds_since(setup_start));
  }
  std::sort(setup_s.begin(), setup_s.end());
  r.setup_s = setup_s[setup_s.size() / 2];
  sim::StudyGenerator& generator = *built;
  AnalysisSet& set = *built_set;

  fault::FaultPlan plan;
  arm_fault(o, plan);
  repeat(o, process_start, tracer, r, 1, [&](Tracer* t) {
    std::unique_ptr<TracedSource> traced;
    core::PipelineOptions options;
    if (o.inject_fault) {
      options.failure_policy = core::FailurePolicy::kRetryThenSkip;
      options.fault_plan = &plan;
    }
    core::StudyPipeline pipeline{
        maybe_traced<trace::TraceSource>(generator, nullptr, t, true, traced), options};
    for (const auto& [name, sink] : set.sinks()) pipeline.add_analysis(name, sink);

    RunSpans spans{t};
    const auto start = Clock::now();
    const auto stats = pipeline.run();
    if (!stats.ok()) throw std::runtime_error("run: " + stats.status().to_string());
    spans.query();
    const core::Report report =
        core::Report::build(pipeline.ledger(), generator.catalog(), &set.persistence);
    const double frontloaded = set.tsf.fraction_of_apps_frontloaded();
    const std::vector<double> spikes = set.tsf.spike_offsets_seconds();
    double case_joules = 0.0;
    for (const trace::AppId app : set.cases.tracked()) {
      case_joules += set.cases.result(app).joules_total;
    }
    const std::size_t weeks = set.longitudinal.overall().weeks();
    const double run_s = seconds_since(start);
    spans.finish(stats->num_threads, r);

    record_run(*stats, r);
    check_conservation(pipeline, r.checks);
    check_paper_shape(pipeline.ledger(), r.checks);
    r.checks.expect(report.account_status.ok() && !report.apps.empty(), "report.built");
    r.checks.expect(frontloaded > 0.0 && frontloaded <= 1.0, "fig6.frontloaded_share_in_range");
    // Fig. 6: far more background traffic right after the transition than
    // at any later time.
    const Histogram& h = set.tsf.bytes_histogram();
    double later_max = 0.0;
    for (std::size_t i = 2; i < h.bins(); ++i) later_max = std::max(later_max, h.bin_mass(i));
    r.checks.expect(h.bin_mass(0) > later_max, "fig6.first_bin_dominates");
    r.checks.expect(case_joules > 0.0 && weeks > 0 && !spikes.empty(), "analyses.nonempty");
    if (t != nullptr) {
      generator_layers(*traced, r);
      stats_counters(*stats, r);
    }
    return run_s;
  });
  return r;
}

/// fleet_fold: a many-user, one-week fleet captured into a spilling store
/// under a 32 MiB budget, run sharded with fold-and-release: per-user costs
/// (shard clone, merge, fold, account writes, cursor reads) dominate.
Result fleet_fold(const Options& o, Clock::time_point process_start, Tracer* tracer) {
  Result r;
  const auto setup_start = Clock::now();
  sim::StudyGenerator generator{workload_config(o)};
  trace::SpillOptions spill;
  spill.dir = o.tmp + "/wesg";
  spill.budget_bytes = kFleetStoreBudget;
  trace::SpillingTraceStore store{spill};
  std::unique_ptr<TracedSource> traced_gen;
  trace::TraceSource* capture_source =
      maybe_traced<trace::TraceSource>(generator, nullptr, tracer, false, traced_gen);
  const util::Status captured = store.capture(*capture_source);
  if (!captured.ok()) throw std::runtime_error("capture: " + captured.to_string());
  AnalysisSet set{generator.catalog()};
  r.setup_s = seconds_since(setup_start);
  if (tracer != nullptr) {
    r.layers["trace.capture_s"] = r.setup_s;
    r.layers["trace.store_spilled_mb"] = static_cast<double>(store.spilled_bytes()) / 1e6;
    generator_layers(*traced_gen, r);
  }

  fault::FaultPlan plan;
  arm_fault(o, plan);
  repeat(o, process_start, tracer, r, engine_threads(), [&](Tracer* t) {
    std::unique_ptr<TracedSource> traced;
    core::PipelineOptions options;
    options.num_threads = engine_threads();
    options.account_dir = o.tmp + "/weac";
    if (o.inject_fault) {
      options.failure_policy = core::FailurePolicy::kRetryThenSkip;
      options.fault_plan = &plan;
    }
    core::StudyPipeline pipeline{maybe_traced<trace::TraceSource>(store, &store, t, true, traced),
                                 options};
    pipeline.add_analysis("persistence", &set.persistence);
    pipeline.add_analysis("time_since_fg", &set.tsf);
    pipeline.add_analysis("waste", &set.waste);

    RunSpans spans{t};
    const auto start = Clock::now();
    const auto stats = pipeline.run();
    if (!stats.ok()) throw std::runtime_error("run: " + stats.status().to_string());
    spans.query();
    const auto cursor_start = Clock::now();
    std::uint64_t rows = 0;
    std::uint64_t cursor_bytes = 0;
    std::uint64_t cursor_packets = 0;
    double cursor_joules = 0.0;
    energy::AccountCursor cursor{pipeline.ledger()};
    while (const energy::AppUserAccount* acc = cursor.next()) {
      ++rows;
      cursor_bytes += acc->bytes;
      cursor_packets += acc->packets;
      cursor_joules += acc->joules;
    }
    const double cursor_s = seconds_since(cursor_start);
    const core::Report report =
        core::Report::build(pipeline.ledger(), generator.catalog(), &set.persistence);
    const double run_s = seconds_since(start);
    spans.finish(stats->num_threads, r);

    record_run(*stats, r);
    const energy::EnergyLedger& ledger = pipeline.ledger();
    check_conservation(pipeline, r.checks);
    r.checks.expect(cursor.status().ok(), "cursor.status");
    r.checks.expect(
        cursor_bytes == ledger.total_bytes() && cursor_packets == ledger.total_packets(),
        "cursor.totals_equal_aggregates");
    r.checks.expect(close_rel(cursor_joules, ledger.total_joules()),
                    "cursor.joules_equal_aggregates");
    r.checks.expect(rows == ledger.total_accounts(), "cursor.rows_equal_accounts");
    r.checks.expect(report.account_status.ok() && !report.apps.empty(), "report.built");
    if (t != nullptr) {
      const energy::AccountSpill* account_spill = ledger.account_spill();
      r.layers["energy.account_spilled_mb"] =
          account_spill ? static_cast<double>(account_spill->spilled_bytes()) / 1e6 : 0.0;
      r.layers["energy.cursor_rows_per_s"] =
          cursor_s > 0 ? static_cast<double>(rows) / cursor_s : 0.0;
      stats_counters(*stats, r);
    }
    return run_s;
  });
  return r;
}

// -- main ---------------------------------------------------------------------

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "wildbench: " << message
            << "\nusage: wildbench --workload panel_live|fleet_fold"
               " --seed N --tmp DIR [--budget S] [--trace 0|1] [--scale X]"
               " [--trace-out FILE] [--inject-fault]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-fault") {
      o.inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") o.workload = value;
      else if (flag == "--seed") o.seed = std::stoull(value);
      else if (flag == "--trace") o.trace = std::stoi(value) != 0;
      else if (flag == "--scale") o.scale = std::stod(value);
      else if (flag == "--tmp") o.tmp = value;
      else if (flag == "--budget") o.budget_s = std::stod(value);
      else if (flag == "--trace-out") o.trace_out = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.tmp.empty()) usage("--tmp is required");
  if (!(o.scale > 0.0)) usage("--scale must be positive");
  return o;
}

void print_json(const Options& o, const Result& r) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
      << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"scale\":" << o.scale
      << ",\"threads\":" << r.threads << ",\"setup_s\":" << r.setup_s << ",\"run_s\":[";
  for (std::size_t i = 0; i < r.run_s.size(); ++i) out << (i ? "," : "") << r.run_s[i];
  out << "],\"traced_run_s\":" << r.traced_run_s << ",\"packets\":" << r.packets
      << ",\"peak_rss_mb\":" << static_cast<double>(obs::peak_rss_bytes()) / 1e6
      << ",\"user_runs\":" << r.user_runs << ",\"failed_user_runs\":" << r.failed_user_runs
      << ",\"checks_run\":" << r.checks.run << ",\"checks_failed\":[";
  for (std::size_t i = 0; i < r.checks.failed.size(); ++i) {
    out << (i ? "," : "") << '"' << r.checks.failed[i] << '"';
  }
  out << "],\"build\":{\"compiler\":\"" << WILDBENCH_COMPILER << "\",\"build_type\":\""
      << WILDBENCH_BUILD_TYPE << "\",\"ndebug\":"
#ifdef NDEBUG
      << "true"
#else
      << "false"
#endif
      << "},\"layers\":{";
  bool first = true;
  for (const auto& [name, value] : r.layers) {
    out << (first ? "" : ",") << '"' << name << "\":" << value;
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const auto process_start = Clock::now();
  using Workload = Result (*)(const Options&, Clock::time_point, Tracer*);
  const std::map<std::string, Workload> workloads{{"panel_live", panel_live},
                                                  {"fleet_fold", fleet_fold}};
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) usage("unknown workload " + o.workload);
  std::error_code ec;
  fs::create_directories(o.tmp, ec);
  if (ec) usage("cannot create --tmp " + o.tmp + ": " + ec.message());

  int code = 0;
  try {
    std::unique_ptr<Tracer> tracer;
    if (o.trace) tracer = std::make_unique<Tracer>();
    Result r = it->second(o, process_start, tracer.get());
    if (tracer != nullptr) {
      // Drills fill every layer metric the workload's own run did not.
      Result drilled;
      const std::int64_t start = tracer->now_ns();
      {
        sim::StudyGenerator generator{workload_config(o)};
        Drills drills{generator, generator.catalog(), *tracer, o.tmp + "/drill"};
        drills.run(drilled);
        drills.checkpoint_drill_chain(drilled);
      }
      tracer->span("drills", "workload", start, tracer->now_ns());
      for (const auto& [name, value] : drilled.layers) r.layers.emplace(name, value);
      if (!o.trace_out.empty() && !tracer->write(o.trace_out)) {
        throw std::runtime_error("cannot write --trace-out " + o.trace_out);
      }
    }
    print_json(o, r);
  } catch (const std::exception& e) {
    std::cerr << "wildbench: " << o.workload << " failed: " << e.what() << "\n";
    code = 1;
  }
  fs::remove_all(o.tmp, ec);
  return code;
}
