// Tests for the selftest subsystem: invariant oracles (including the
// deliberately-broken-accounting detector validation), probe-mode
// shrinking, fault injection, torn-artifact handling, the replay differ,
// and harness determinism. Plus the mid-round watchdog-abort regression.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/campaign.h"
#include "core/minimize.h"
#include "core/seeds.h"
#include "core/workdir.h"
#include "kernel/errno.h"
#include "kernel/syscalls.h"
#include "run/run.h"
#include "selftest/faultinject.h"
#include "selftest/harness.h"
#include "selftest/invariants.h"
#include "selftest/replay.h"

namespace torpedo {
namespace {

namespace fs = std::filesystem;

fs::path temp_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

core::CampaignConfig tiny_config(std::uint64_t seed) {
  core::CampaignConfig config;
  config.num_executors = 2;
  config.round_duration = 40 * kMillisecond;
  config.batches = 1;
  config.num_seeds = 4;
  config.seed = seed;
  config.max_confirmations = 4;
  config.fuzzer.cycle_out_rounds = 3;
  config.kernel.host.num_cores = 8;
  config.kernel.host.num_kworkers = 4;
  return config;
}

// --- invariant checker --------------------------------------------------------

TEST(InvariantChecker, CleanCampaignHasNoViolations) {
  core::Campaign campaign(tiny_config(11));
  selftest::InvariantChecker checker(campaign.kernel());
  checker.install();
  campaign.load_default_seeds();
  campaign.run_one_batch();
  checker.check_now();
  checker.uninstall();
  EXPECT_GT(checker.checks_run(), 0u);
  EXPECT_TRUE(checker.violations().empty())
      << selftest::invariant_violations_to_json(checker.violations());
  EXPECT_EQ(checker.first_violation_tick(), -1);
}

// Acceptance gate: a deliberately broken accounting mutation (the test-only
// skip-charging switch) must be caught by the conservation invariant.
TEST(InvariantChecker, CatchesDeliberatelyBrokenCharging) {
  core::Campaign campaign(tiny_config(12));
  campaign.kernel().host().set_skip_cgroup_charging_for_selftest(true);
  selftest::InvariantChecker checker(campaign.kernel());
  checker.install();
  campaign.load_default_seeds();
  campaign.run_one_batch();
  checker.uninstall();
  ASSERT_FALSE(checker.violations().empty());
  bool saw_charge = false;
  for (const selftest::InvariantViolation& v : checker.violations())
    if (v.invariant == "charge-conservation") saw_charge = true;
  EXPECT_TRUE(saw_charge);
  EXPECT_GT(checker.first_violation_tick(), 0);
}

// Probe mode runs exactly one check at the requested tick and throws
// ProbeStop — the shrinker's bisection primitive.
TEST(InvariantChecker, ProbeModeStopsAtRequestedTick) {
  const core::CampaignConfig config = tiny_config(13);
  core::Campaign campaign(config);
  campaign.kernel().host().set_skip_cgroup_charging_for_selftest(true);
  const Nanos probe_at = campaign.kernel().host().now() + 30 * kMillisecond;
  selftest::InvariantConfig icfg;
  icfg.probe_at_ns = probe_at;
  selftest::InvariantChecker checker(campaign.kernel(), icfg);
  checker.install();
  campaign.load_default_seeds();
  bool stopped = false;
  try {
    campaign.run_one_batch();
  } catch (const selftest::ProbeStop& stop) {
    stopped = true;
    EXPECT_GE(stop.tick_ns, probe_at);
    EXPECT_TRUE(stop.violated);  // charging is broken from warm-up's end
  }
  checker.uninstall();
  EXPECT_TRUE(stopped);
  EXPECT_EQ(checker.checks_run(), 1u);
}

TEST(InvariantChecker, CatchesCpusetEscape) {
  kernel::KernelConfig cfg;
  cfg.host.num_cores = 8;
  kernel::SimKernel kernel(cfg);
  sim::Host& host = kernel.host();
  cgroup::Cgroup& jail = host.cgroups().create(host.cgroups().root(), "jail");
  jail.set_cpuset(cgroup::CpuSet::of({0, 1}));
  // Explicit affinity outside the cgroup's cpuset: the one way a runnable
  // task can sit on a core its group does not own.
  sim::Task& task = host.spawn({.name = "escapee",
                                .group = &jail,
                                .affinity = cgroup::CpuSet::single(5)});
  task.push(sim::Segment::user(10 * kMillisecond));
  host.run_for(kMillisecond);
  selftest::InvariantChecker checker(kernel);
  checker.check_now();
  bool saw_escape = false;
  for (const selftest::InvariantViolation& v : checker.violations())
    if (v.invariant == "cpuset-containment" && v.subject == "/jail")
      saw_escape = true;
  EXPECT_TRUE(saw_escape)
      << selftest::invariant_violations_to_json(checker.violations());
}

// --- fault injection ----------------------------------------------------------

TEST(FaultInjector, PlansAreSeedDeterministic) {
  const selftest::FaultPlan a = selftest::FaultPlan::random(99);
  const selftest::FaultPlan b = selftest::FaultPlan::random(99);
  EXPECT_EQ(a.to_json().to_string(), b.to_json().to_string());
  const selftest::FaultPlan c = selftest::FaultPlan::random(100);
  EXPECT_NE(a.to_json().to_string(), c.to_json().to_string());
}

TEST(FaultInjector, ForcedErrnoReachesEveryCall) {
  core::Campaign campaign(tiny_config(14));
  selftest::FaultPlan plan;
  plan.syscall_error_pct = 1.0;  // every syscall fails...
  plan.error_errno = kernel::EIO_;
  selftest::FaultInjector injector(plan);
  injector.install(campaign.kernel());
  core::SingleRunner runner(campaign.observer(), campaign.cpu_oracle());
  runner.violations(*core::named_seed("appendix-a1-prog0"));
  injector.uninstall(campaign.kernel());
  const exec::RunStats& stats = runner.last_round().stats[0];
  ASSERT_FALSE(stats.last_iteration.empty());
  for (const exec::CallRecord& call : stats.last_iteration) {
    EXPECT_EQ(call.err, kernel::EIO_);
    EXPECT_EQ(call.ret, -kernel::EIO_);
  }
  EXPECT_GT(injector.stats().errors_injected, 0u);
}

TEST(FaultInjector, CampaignSurvivesFaultStorm) {
  core::Campaign campaign(tiny_config(15));
  selftest::FaultPlan plan;
  plan.syscall_error_pct = 0.25;
  plan.error_errno = kernel::EINTR_;
  plan.drop_wakeup_pct = 0.5;
  plan.irq_burst_pct = 0.02;
  selftest::FaultInjector injector(plan);
  injector.install(campaign.kernel());
  campaign.load_default_seeds();
  campaign.run_one_batch();
  const core::CampaignReport report = campaign.finalize();
  injector.uninstall(campaign.kernel());
  EXPECT_GT(report.rounds, 0);
  EXPECT_GT(injector.stats().errors_injected, 0u);
}

TEST(TruncateFile, TornArtifactsAreRejectedNotFatal) {
  const fs::path dir = temp_dir("torpedo-torn");
  core::Campaign campaign(tiny_config(16));
  campaign.load_default_seeds();
  campaign.run_one_batch();
  core::save_corpus(dir / "corpus.txt", campaign.corpus());
  ASSERT_GT(fs::file_size(dir / "corpus.txt"), 0u);
  const std::uintmax_t kept = selftest::truncate_file(dir / "corpus.txt", 0.5);
  EXPECT_EQ(kept, fs::file_size(dir / "corpus.txt"));
  feedback::Corpus loaded;
  (void)core::load_corpus(dir / "corpus.txt", loaded);  // must not throw
  EXPECT_LE(loaded.size(), campaign.corpus().size());
}

// --- replay -------------------------------------------------------------------

// Records a mini campaign (manifest-capturable config only) through the
// `torpedo run --workdir` path.
void record_workdir(const fs::path& dir, std::uint64_t seed, int shards = 1) {
  core::CampaignManifest manifest;
  manifest.batches = 1;
  manifest.num_executors = 2;
  manifest.round_duration = 40 * kMillisecond;
  manifest.num_seeds = 4;
  manifest.seed = seed;
  run::RunOptions options;
  options.config = manifest.to_config();
  options.shards = shards;
  options.workdir = dir;
  ASSERT_EQ(run::run_campaign(options).error, "");
}

TEST(Replay, RecordedWorkdirReplaysByteIdentical) {
  const fs::path dir = temp_dir("torpedo-replay-ok");
  record_workdir(dir, 21);
  selftest::ReplayOptions options;
  options.workdir = dir;
  const selftest::ReplayResult result = selftest::replay_workdir(options);
  EXPECT_TRUE(result.ran) << result.error;
  EXPECT_TRUE(result.identical);
  // report, corpus, syscall profile, timeseries, mutation efficacy and
  // clusters, plus one per violation bundle.
  EXPECT_GE(result.artifacts_compared, 6);
  EXPECT_TRUE(result.diffs.empty());
}

// The multi-part branch of the replay: a 2-shard workdir regenerates
// through ShardedCampaign and must match byte for byte.
TEST(Replay, ShardedWorkdirReplaysByteIdentical) {
  const fs::path dir = temp_dir("torpedo-replay-shards");
  record_workdir(dir, 23, 2);
  ASSERT_TRUE(fs::exists(dir / "heartbeat.shard-1.json"));
  selftest::ReplayOptions options;
  options.workdir = dir;
  const selftest::ReplayResult result = selftest::replay_workdir(options);
  EXPECT_TRUE(result.ran) << result.error;
  EXPECT_TRUE(result.identical);
  EXPECT_GE(result.artifacts_compared, 6);
  for (const selftest::ReplayDiff& diff : result.diffs)
    ADD_FAILURE() << diff.artifact << " " << diff.path << ": "
                  << diff.original << " != " << diff.replayed;
}

TEST(Replay, DetectsTamperedArtifact) {
  const fs::path dir = temp_dir("torpedo-replay-tamper");
  record_workdir(dir, 22);
  {
    std::ofstream out(dir / "report.txt", std::ios::app);
    out << "tampered line\n";
  }
  selftest::ReplayOptions options;
  options.workdir = dir;
  options.keep_scratch = true;
  const selftest::ReplayResult result = selftest::replay_workdir(options);
  ASSERT_TRUE(result.ran) << result.error;
  EXPECT_FALSE(result.identical);
  ASSERT_FALSE(result.diffs.empty());
  EXPECT_EQ(result.diffs[0].artifact, "report.txt");
}

TEST(Replay, MissingManifestFailsCleanly) {
  const fs::path dir = temp_dir("torpedo-replay-nomanifest");
  selftest::ReplayOptions options;
  options.workdir = dir;
  const selftest::ReplayResult result = selftest::replay_workdir(options);
  EXPECT_FALSE(result.ran);
  EXPECT_NE(result.error.find("campaign.json"), std::string::npos);
}

TEST(DiffJson, NamesTheExactDivergedField) {
  std::vector<selftest::ReplayDiff> diffs;
  selftest::diff_json("t", "", R"({"a":1,"nested":{"x":2,"y":"s"}})",
                      R"({"a":1,"nested":{"x":3,"y":"s"}})", diffs);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].path, "nested.x");
  EXPECT_EQ(diffs[0].original, "2");
  EXPECT_EQ(diffs[0].replayed, "3");
}

// --- harness ------------------------------------------------------------------

TEST(SelftestHarness, SameSeedSameReport) {
  selftest::SelftestOptions options;
  options.trials = 2;
  options.seed = 77;
  options.scratch = temp_dir("torpedo-selftest-a");
  const selftest::SelftestResult a = selftest::run_selftest(options);
  options.scratch = temp_dir("torpedo-selftest-b");
  const selftest::SelftestResult b = selftest::run_selftest(options);
  EXPECT_TRUE(a.passed) << a.report_json;
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_GT(a.trials_run, 0);
}

// --- watchdog abort -----------------------------------------------------------

// Regression: the abort flag used to be honored only at round boundaries,
// so an executor mid-round (e.g. spinning through an injected infinite-
// EINTR storm) kept the wall-clock-stalled batch alive for the rest of its
// round. The supplier now checks the flag at every iteration boundary and
// retires the round immediately.
TEST(WatchdogAbort, RetiresExecutorMidRound) {
  core::Campaign campaign(tiny_config(31));
  selftest::FaultPlan plan;
  plan.syscall_error_pct = 1.0;  // every call spins on EINTR
  plan.error_errno = kernel::EINTR_;
  selftest::FaultInjector injector(plan);
  injector.install(campaign.kernel());

  std::atomic<bool> abort_flag{false};
  exec::Executor& executor = campaign.executor(0);
  executor.set_abort_flag(&abort_flag);
  sim::Host& host = campaign.kernel().host();
  // A round long enough that only the abort flag can end it early.
  const Nanos stop = host.now() + 30 * kSecond;
  executor.prime(*core::named_seed("appendix-a1-prog0"), stop);
  executor.start();
  host.run_for(50 * kMillisecond);
  ASSERT_FALSE(executor.idle());

  abort_flag.store(true, std::memory_order_relaxed);
  host.run_for(50 * kMillisecond);
  EXPECT_TRUE(executor.idle());  // retired ~30s before the round deadline
  injector.uninstall(campaign.kernel());
}

}  // namespace
}  // namespace torpedo
