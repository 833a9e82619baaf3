// Tests for the Torpedo core: seed corpus, the batch state machine, the
// Algorithm-3 minimizer, the cause classifier, and campaign plumbing.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "core/campaign.h"
#include "core/classify.h"
#include "core/fuzzer.h"
#include "core/minimize.h"
#include "core/provenance.h"
#include "core/seeds.h"
#include "core/workdir.h"
#include "kernel/signals.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"

namespace torpedo::core {
namespace {

// A fast campaign configuration for unit tests: short rounds, quick
// cycle-out.
CampaignConfig fast_config(runtime::RuntimeKind rt = runtime::RuntimeKind::kRunc) {
  CampaignConfig cfg;
  cfg.runtime = rt;
  cfg.round_duration = kSecond;
  cfg.fuzzer.cycle_out_rounds = 3;
  cfg.num_seeds = 6;
  cfg.batches = 2;
  return cfg;
}

// --- seeds -----------------------------------------------------------------------

class NamedSeedTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NamedSeedTest, IsValidAndNonEmpty) {
  auto seed = named_seed(GetParam());
  ASSERT_TRUE(seed.has_value());
  EXPECT_FALSE(seed->empty());
  EXPECT_TRUE(seed->valid());
}

INSTANTIATE_TEST_SUITE_P(All, NamedSeedTest,
                         ::testing::ValuesIn(named_seed_names()));

TEST(Seeds, UnknownNameIsNullopt) {
  EXPECT_FALSE(named_seed("no-such-seed").has_value());
}

TEST(Seeds, MoonshineCorpusSizeAndDeterminism) {
  const auto a = moonshine_seeds(200);
  EXPECT_EQ(a.size(), 200u);
  const auto b = moonshine_seeds(200);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].hash(), b[i].hash()) << i;
  for (const prog::Program& p : a) EXPECT_TRUE(p.valid());
}

TEST(Seeds, KnownVulnSeedsComeFirst) {
  const auto seeds = moonshine_seeds(10);
  // The first entries are the hand-distilled recreations (§4.1), in the
  // named order, with the gVisor crash seed excluded.
  EXPECT_EQ(seeds[0].hash(), named_seed("appendix-a1-prog0")->hash());
  EXPECT_EQ(seeds[3].hash(), named_seed("sync")->hash());
  for (const prog::Program& p : seeds)
    EXPECT_NE(p.hash(), named_seed("gvisor-open-crash")->hash());
}

TEST(Seeds, GeneratedTailIsInterfaceCoherent) {
  const auto seeds = moonshine_seeds(60);
  // Generated seeds (past the named ones) must serialize/parse cleanly.
  for (std::size_t i = 20; i < seeds.size(); ++i) {
    auto parsed = prog::Program::parse(seeds[i].serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, seeds[i]);
  }
}

// --- fuzzer ------------------------------------------------------------------------

TEST(Fuzzer, AddSeedFiltersDenylist) {
  Campaign campaign(fast_config());
  auto p = prog::Program::parse("pause()\n");
  ASSERT_TRUE(p.has_value());
  // 'pause' isn't denylisted yet, so the seed goes in whole.
  campaign.fuzzer().add_seed(*p);
  EXPECT_EQ(campaign.fuzzer().pending(), 1u);
}

TEST(Fuzzer, RunBatchProducesRoundsAndCorpus) {
  Campaign campaign(fast_config());
  campaign.load_seeds({*named_seed("appendix-a1-prog0"),
                       *named_seed("appendix-a1-prog1"),
                       *named_seed("appendix-a1-prog2")});
  const BatchResult result = campaign.run_one_batch();
  EXPECT_GT(result.rounds, 3);  // candidate + triage + baseline + mutate...
  EXPECT_GT(result.baseline_score, 0);
  EXPECT_GE(result.best_score, result.baseline_score);
  EXPECT_EQ(result.final_programs.size(), 3u);
  EXPECT_EQ(campaign.corpus().size(), 3u);
  EXPECT_EQ(campaign.observer().log().size(),
            static_cast<std::size_t>(result.rounds));
}

// Scheduler work per execution is deterministic, so it is gated exactly.
// sim.slices counts run_task_slice calls plus coalesced runs of segments;
// the per-segment scheduler this replaced made 2501229 slices on this batch,
// 8.44 per execution: one per on-CPU segment.
TEST(Fuzzer, SchedulerSlicesPerExecutionAreExact) {
  telemetry::Registry& metrics = telemetry::global();
  const std::uint64_t slices0 = metrics.counter("sim.slices").value();
  const std::uint64_t execs0 = metrics.counter("exec.executions").value();
  Campaign campaign(fast_config());
  campaign.load_seeds({*named_seed("appendix-a1-prog0"),
                       *named_seed("appendix-a1-prog1"),
                       *named_seed("appendix-a1-prog2")});
  campaign.run_one_batch();
  const std::uint64_t slices = metrics.counter("sim.slices").value() - slices0;
  const std::uint64_t execs =
      metrics.counter("exec.executions").value() - execs0;
  EXPECT_EQ(execs, 296369u);
  EXPECT_EQ(slices, 799516u);  // 2.70 per execution
  // The budget: at most 3 slices per execution.
  EXPECT_LE(static_cast<double>(slices), 3.0 * static_cast<double>(execs));
}

TEST(Fuzzer, CycleOutBoundsRounds) {
  CampaignConfig cfg = fast_config();
  cfg.fuzzer.cycle_out_rounds = 2;
  Campaign campaign(cfg);
  campaign.load_seeds({*named_seed("kcmp-pair"), *named_seed("kcmp-pair"),
                       *named_seed("kcmp-pair")});
  const BatchResult result = campaign.run_one_batch();
  // candidate + triage + baseline + (mutate [+ confirm]) per attempt; with
  // cycle_out=2 and few improvements, this stays small.
  EXPECT_LE(result.rounds, 3 + 2 * (2 + 2 * result.improvements + 4));
}

TEST(Fuzzer, GeneratesWhenQueueEmpty) {
  Campaign campaign(fast_config());
  EXPECT_EQ(campaign.fuzzer().pending(), 0u);
  const BatchResult result = campaign.run_one_batch();  // generated programs
  EXPECT_EQ(result.final_programs.size(), 3u);
}

// A deterministic oracle for scripting the batch loop: returns queued
// scores in call order (base, mutate, confirm, ...), clamping to the last.
class ScriptedOracle : public oracle::Oracle {
 public:
  explicit ScriptedOracle(std::vector<double> scores)
      : scores_(std::move(scores)) {}
  std::string_view name() const override { return "scripted"; }
  double score(const observer::Observation&) const override {
    return scores_[std::min(next_++, scores_.size() - 1)];
  }
  std::vector<oracle::Violation> flag(
      const observer::Observation&) const override {
    return {};
  }

 private:
  std::vector<double> scores_;
  mutable std::size_t next_ = 0;
};

// Regression: when the batch ends on a *rejected* shuffle-confirm round, the
// observer log's tail holds rotated stats for rejected mutants. Retiring the
// batch from log().back() gave each program a different program's coverage
// signal; the fuzzer must retire from the last current-aligned round.
TEST(Fuzzer, ShuffleConfirmRejectionRetiresAlignedRound) {
  Campaign campaign(fast_config());

  // base=10, mutate=20 (a significant improvement), confirm=5 (confirmation
  // fails) -> exactly one rejected confirm, then cycle-out.
  ScriptedOracle oracle({10, 20, 5});
  FuzzerConfig fcfg;
  fcfg.verify_triage = false;
  fcfg.use_coverage = false;
  fcfg.confirm_shuffle = true;
  fcfg.use_resource_score = true;
  fcfg.cycle_out_rounds = 1;
  fcfg.auto_denylist = false;
  prog::Generator generator{Rng(42)};
  prog::Mutator mutator(generator);
  feedback::Corpus corpus;
  TorpedoFuzzer fuzzer(campaign.observer(), oracle, generator, mutator,
                       corpus, fcfg);
  fuzzer.add_seed(*named_seed("sync"));
  fuzzer.add_seed(*named_seed("kcmp-pair"));
  fuzzer.add_seed(*named_seed("audit-oob"));

  const BatchResult result = fuzzer.run_batch();
  const auto& log = campaign.observer().log();

  // Scenario shape: candidate + baseline + mutate + rejected confirm, and
  // the trailing confirm round really is rotated out of batch order.
  ASSERT_EQ(result.rounds, 4);
  ASSERT_EQ(result.rejected_confirms, 1);
  EXPECT_NE(log.back().programs, result.final_programs);

  // The retiring round's executor order matches the final programs...
  ASSERT_GE(result.corpus_signal_round, 0);
  ASSERT_LT(static_cast<std::size_t>(result.corpus_signal_round), log.size());
  const observer::RoundResult& aligned = log[result.corpus_signal_round];
  EXPECT_EQ(aligned.programs, result.final_programs);

  // ...and each corpus entry carries that round's per-slot signal, not the
  // rotated stats of the confirm round.
  ASSERT_EQ(corpus.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(corpus.entry(i).program, result.final_programs[i]) << i;
    EXPECT_EQ(corpus.entry(i).signal.elements(),
              aligned.stats[i].signal.elements())
        << i;
  }
}

TEST(Fuzzer, AutoDenylistsBlockingCalls) {
  Campaign campaign(fast_config());
  auto pause_prog = prog::Program::parse("pause()\n");
  campaign.load_seeds({*pause_prog, *named_seed("kcmp-pair"),
                       *named_seed("appendix-a1-prog2")});
  campaign.run_one_batch();
  const auto& denylist = campaign.fuzzer().denylist();
  EXPECT_NE(std::find(denylist.begin(), denylist.end(), "pause"),
            denylist.end());
}

// --- minimizer ---------------------------------------------------------------------

TEST(Minimize, SameViolationsComparesHeuristicSets) {
  using oracle::Violation;
  const std::vector<Violation> a = {{"h1", "cpu0", 1, 2}, {"h2", "cpu1", 3, 4}};
  const std::vector<Violation> b = {{"h2", "cpu5", 9, 9}, {"h1", "cpu7", 0, 0}};
  const std::vector<Violation> c = {{"h1", "cpu0", 1, 2}};
  EXPECT_TRUE(same_violations(a, b));  // subjects may move between cores
  EXPECT_FALSE(same_violations(a, c));
  EXPECT_TRUE(same_violations({}, {}));
}

TEST(Minimize, StripsJunkAroundSync) {
  Campaign campaign(fast_config());
  SingleRunner runner(campaign.observer(), campaign.io_oracle());
  // sync padded with unrelated calls.
  auto padded = prog::Program::parse(
      "getpid()\n"
      "mmap(0x7f0000000000, 0x1000, 0x3, 0x32, 0xffffffffffffffff, 0x0)\n"
      "sync()\n"
      "uname('')\n");
  ASSERT_TRUE(padded.has_value());
  const prog::Program minimized = minimize(*padded, runner);
  ASSERT_EQ(minimized.size(), 1u);
  EXPECT_EQ(minimized.calls()[0].desc->name, "sync");
}

TEST(Minimize, RecordsRemovalHistory) {
  Campaign campaign(fast_config());
  SingleRunner runner(campaign.observer(), campaign.io_oracle());
  auto padded = prog::Program::parse(
      "getpid()\n"
      "sync()\n"
      "uname('')\n");
  ASSERT_TRUE(padded.has_value());
  std::vector<MinimizeStep> history;
  const prog::Program minimized = minimize(*padded, runner, &history);
  ASSERT_EQ(minimized.size(), 1u);
  // One trial per removal attempt, each naming the call it tried to drop.
  ASSERT_EQ(history.size(), 3u);
  std::size_t kept = 0;
  for (const MinimizeStep& step : history) {
    EXPECT_FALSE(step.call_name.empty());
    // sync is load-bearing: its removal trial must have been rolled back.
    if (step.call_name == "sync") EXPECT_FALSE(step.kept_removal);
    if (step.kept_removal) ++kept;
  }
  // getpid and uname were both dropped.
  EXPECT_EQ(kept, 2u);
  EXPECT_EQ(history.back().size_after, minimized.size());
}

TEST(Minimize, PreservesResourceChains) {
  Campaign campaign(fast_config());
  SingleRunner runner(campaign.observer(), campaign.cpu_oracle());
  // fallocate needs its creat to produce the fd; minimization must keep it.
  const prog::Program minimized =
      minimize(*named_seed("fallocate-sigxfsz"), runner);
  ASSERT_EQ(minimized.size(), 2u);
  EXPECT_EQ(minimized.calls()[0].desc->name, "creat");
  EXPECT_EQ(minimized.calls()[1].desc->name, "fallocate");
}

TEST(Minimize, NoViolationsReturnsOriginal) {
  Campaign campaign(fast_config());
  SingleRunner runner(campaign.observer(), campaign.cpu_oracle());
  const prog::Program original = *named_seed("kcmp-pair");
  const prog::Program minimized = minimize(original, runner);
  EXPECT_EQ(minimized, original);
}

// --- classifier --------------------------------------------------------------------

TEST(Classifier, ClassifiesByDominantTracePattern) {
  kernel::KernelConfig kcfg;
  kernel::SimKernel kernel(kcfg);
  CauseClassifier classifier(kernel);
  exec::RunStats stats;

  auto fill = [&](kernel::TraceKind kind, int n) {
    kernel.trace().clear();
    for (int i = 0; i < n; ++i)
      kernel.trace().record({.time = 100 + i, .kind = kind, .pid = 1});
  };

  fill(kernel::TraceKind::kModprobe, 50);
  EXPECT_EQ(classifier.classify(0, 1000, stats), "repeated kernel modprobe");

  fill(kernel::TraceKind::kCoredump, 50);
  stats.last_fatal_signal = kernel::SIGXFSZ_;
  EXPECT_EQ(classifier.classify(0, 1000, stats), "coredump via SIGXFSZ");
  stats.last_fatal_signal = kernel::SIGSEGV_;
  EXPECT_EQ(classifier.classify(0, 1000, stats), "coredump via SIGSEGV");

  fill(kernel::TraceKind::kIoFlush, 50);
  EXPECT_EQ(classifier.classify(0, 1000, stats),
            "triggering IO buffer flushes");

  fill(kernel::TraceKind::kAudit, 500);
  EXPECT_EQ(classifier.classify(0, 1000, stats),
            "audit daemon workload (kauditd/journald)");

  kernel.trace().clear();
  EXPECT_EQ(classifier.classify(0, 1000, stats),
            "unclassified kernel interaction");
}

TEST(Classifier, WindowRespected) {
  kernel::KernelConfig kcfg;
  kernel::SimKernel kernel(kcfg);
  CauseClassifier classifier(kernel);
  for (int i = 0; i < 50; ++i)
    kernel.trace().record(
        {.time = 5000 + i, .kind = kernel::TraceKind::kModprobe, .pid = 1});
  exec::RunStats stats;
  EXPECT_EQ(classifier.classify(0, 1000, stats),
            "unclassified kernel interaction");
  EXPECT_EQ(classifier.classify(5000, 6000, stats),
            "repeated kernel modprobe");
}

TEST(Classifier, NewCausePolicy) {
  EXPECT_TRUE(CauseClassifier::is_new_cause("repeated kernel modprobe"));
  EXPECT_FALSE(CauseClassifier::is_new_cause("coredump via SIGXFSZ"));
  EXPECT_FALSE(CauseClassifier::is_new_cause("triggering IO buffer flushes"));
}

TEST(Classifier, SummarizeSymptomsDedups) {
  using oracle::Violation;
  const std::vector<Violation> v = {{"a", "x", 0, 0},
                                    {"b", "y", 0, 0},
                                    {"a", "z", 0, 0}};
  EXPECT_EQ(summarize_symptoms(v), "a; b");
}

TEST(Finding, SyscallListJoins) {
  Finding f;
  f.syscalls = {"sync", "fsync"};
  EXPECT_EQ(f.syscall_list(), "sync, fsync");
}

// --- workdir persistence --------------------------------------------------------------

class WorkdirTest : public ::testing::Test {
 protected:
  WorkdirTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("torpedo-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  ~WorkdirTest() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(WorkdirTest, SeedFilesRoundTrip) {
  const std::vector<prog::Program> seeds = {
      *named_seed("sync"), *named_seed("audit-oob"),
      *named_seed("appendix-a1-prog1")};
  EXPECT_EQ(write_seed_files(dir_, seeds), 3u);
  std::vector<std::string> errors;
  const auto loaded = load_seed_files(dir_, &errors);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_TRUE(errors.empty());
  for (std::size_t i = 0; i < seeds.size(); ++i)
    EXPECT_EQ(loaded[i], seeds[i]) << i;
}

TEST_F(WorkdirTest, LoadSkipsBrokenSeedFiles) {
  write_seed_files(dir_, {*named_seed("sync")});
  std::ofstream bad(dir_ / "seed-999.prog");
  bad << "florble(0x1)\n";
  bad.close();
  std::vector<std::string> errors;
  const auto loaded = load_seed_files(dir_, &errors);
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_EQ(errors.size(), 1u);
}

TEST_F(WorkdirTest, MissingDirectoryIsEmpty) {
  EXPECT_TRUE(load_seed_files(dir_ / "nope").empty());
}

TEST_F(WorkdirTest, CorpusRoundTrip) {
  feedback::Corpus corpus;
  feedback::SignalSet sig;
  sig.add(1);
  corpus.add(*named_seed("sync"), sig, 21.5);
  corpus.add(*named_seed("audit-oob"), sig, 33.25);
  const auto file = dir_ / "corpus.txt";
  save_corpus(file, corpus);

  feedback::Corpus restored;
  EXPECT_EQ(load_corpus(file, restored), 2u);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored.entry(0).program, *named_seed("sync"));
  EXPECT_DOUBLE_EQ(restored.entry(0).best_score, 21.5);
  EXPECT_DOUBLE_EQ(restored.entry(1).best_score, 33.25);
  // Loading again dedups by content.
  EXPECT_EQ(load_corpus(file, restored), 0u);
  EXPECT_EQ(restored.size(), 2u);
}

TEST_F(WorkdirTest, ReportIsWritten) {
  CampaignReport report;
  Finding f;
  f.program = *named_seed("sync");
  f.serialized = f.program.serialize();
  f.syscalls = {"sync"};
  f.cause = "triggering IO buffer flushes";
  f.violations = {{"nonfuzz-core-iowait-high", "cpu6", 0.07, 0.02}};
  report.findings.push_back(std::move(f));
  const auto file = dir_ / "report.txt";
  save_report(file, report);
  std::ifstream in(file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("triggering IO buffer flushes"),
            std::string::npos);
  EXPECT_NE(buffer.str().find("sync()"), std::string::npos);
  // Violations are written as structured JSON, one object per line.
  const std::string text = buffer.str();
  const auto pos = text.find("violation: ");
  ASSERT_NE(pos, std::string::npos);
  const std::string line =
      text.substr(pos + 11, text.find('\n', pos) - pos - 11);
  const auto parsed = telemetry::parse_json_object(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->at("heuristic").text, "nonfuzz-core-iowait-high");
  EXPECT_EQ(parsed->at("subject").text, "cpu6");
}

TEST_F(WorkdirTest, ViolationBundlesRoundTrip) {
  CampaignReport report;
  Finding f;
  f.program = *named_seed("sync");
  f.serialized = f.program.serialize();
  f.syscalls = {"sync"};
  f.cause = "triggering IO buffer flushes";
  report.findings.push_back(std::move(f));

  Provenance p;
  p.finding_index = 0;
  p.original_serialized = "getpid()\nsync()\n";
  p.minimized_serialized = "sync()\n";
  p.program_hash = 0xDEADBEEFCAFE1234ULL;
  p.source_round = 7;
  p.confirm_rounds = 3;
  p.oracle_score = 6.96;
  p.cause = "triggering IO buffer flushes";
  p.symptoms = "nonfuzz-core-iowait-high";
  p.syscalls = "sync";
  p.final_violations = {{"nonfuzz-core-iowait-high", "cpu6", 0.04, 0.02}};
  p.observation.round = 7;
  p.observation.window_start = 1000;
  p.observation.window_end = 6000;
  observer::CoreUsage core;
  core.core = 0;
  core.jiffies[static_cast<int>(sim::CpuCategory::kUser)] = 40;
  core.jiffies[static_cast<int>(sim::CpuCategory::kIdle)] = 60;
  p.observation.cores.push_back(core);
  p.observation.processes.push_back({42, "kworker/u8:1", "/", 12.5});
  p.trace_events.push_back(
      {2000, kernel::TraceKind::kIoFlush, 42, "sync bytes=1024"});
  p.minimize_history.push_back({0, "getpid", true, 1});
  report.provenance.push_back(std::move(p));

  EXPECT_EQ(write_violation_bundles(dir_, report), 1u);
  const auto bundle_dir = dir_ / "violations" / "000";
  for (const char* name :
       {"bundle.json", "report.md", "program.prog", "original.prog"})
    EXPECT_TRUE(std::filesystem::exists(bundle_dir / name)) << name;

  std::ifstream in(bundle_dir / "bundle.json");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto bundle = telemetry::parse_json_object(buffer.str());
  ASSERT_TRUE(bundle.has_value());
  EXPECT_EQ(bundle->at("program_hash").text, "deadbeefcafe1234");
  EXPECT_EQ(bundle->at("syscalls").text, "sync");
  EXPECT_EQ(bundle->at("heuristics").text, "nonfuzz-core-iowait-high");
  EXPECT_EQ(bundle->at("source_round").integer, 7);
  EXPECT_EQ(bundle->at("program").text, "sync()\n");

  // Nested evidence comes back as raw JSON that itself parses.
  const auto obs = telemetry::parse_json_object(bundle->at("observation").text);
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->at("window_start_ns").integer, 1000);
  const auto cores =
      telemetry::parse_json_array_of_objects(obs->at("cores").text);
  ASSERT_TRUE(cores.has_value());
  ASSERT_EQ(cores->size(), 1u);
  EXPECT_DOUBLE_EQ((*cores)[0].at("busy_percent").number, 40.0);

  const auto events =
      telemetry::parse_json_array_of_objects(bundle->at("kernel_trace").text);
  ASSERT_TRUE(events.has_value());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].at("kind").text, "io_flush");
  EXPECT_EQ((*events)[0].at("time_ns").integer, 2000);

  const auto history = telemetry::parse_json_array_of_objects(
      bundle->at("minimize_history").text);
  ASSERT_TRUE(history.has_value());
  ASSERT_EQ(history->size(), 1u);
  EXPECT_EQ((*history)[0].at("call").text, "getpid");

  // The human-readable companion tells the same story.
  std::ifstream md_in(bundle_dir / "report.md");
  std::stringstream md;
  md << md_in.rdbuf();
  EXPECT_NE(md.str().find("triggering IO buffer flushes"), std::string::npos);
  EXPECT_NE(md.str().find("io_flush"), std::string::npos);
}

// --- campaign ----------------------------------------------------------------------

TEST(CampaignTest, ConfigDrivesExecutorLayout) {
  CampaignConfig cfg = fast_config();
  cfg.num_executors = 2;
  Campaign campaign(cfg);
  EXPECT_EQ(campaign.observer().executor_count(), 2u);
  EXPECT_EQ(campaign.executor(0).container().spec().cpuset_cpus, "0");
  EXPECT_EQ(campaign.executor(1).container().spec().cpuset_cpus, "1");
  EXPECT_DOUBLE_EQ(campaign.executor(0).container().spec().cpus, 1.0);
}

TEST(CampaignTest, ExecutorCoreMapReflectsPinning) {
  CampaignConfig cfg = fast_config();
  Campaign pinned(cfg);
  const auto map = pinned.executor_core_map();
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(map.at(0), 0u);
  EXPECT_EQ(map.at(1), 1u);
  EXPECT_EQ(map.at(2), 2u);

  // Unpinned executors share the whole host cpuset: no core identifies an
  // executor, so the map must be empty.
  cfg.pin_executors = false;
  Campaign unpinned(cfg);
  EXPECT_TRUE(unpinned.executor_core_map().empty());
}

// Regression: finalize() used to map a fuzz-core-utilization-low violation
// on cpuN to executor N unconditionally — wrong whenever executors are not
// pinned 1:1 to cores 0..N-1.
TEST(CampaignTest, AttributionFollowsActualCpusets) {
  using oracle::Violation;
  const std::vector<Violation> low = {
      {"fuzz-core-utilization-low", "cpu5", 10.0, 80.0}};

  // Executors pinned off the identity layout: cpu4->slot0, cpu5->slot1, ...
  const std::unordered_map<int, std::size_t> shifted = {{4, 0}, {5, 1}, {6, 2}};
  EXPECT_EQ(implicated_slots(low, 3, shifted),
            (std::vector<bool>{false, true, false}));

  // Unpinned (empty map): per-core attribution is guesswork, so the whole
  // batch is implicated. The old code would have indexed slot 5.
  EXPECT_EQ(implicated_slots(low, 3, {}),
            (std::vector<bool>{true, true, true}));

  // Violations on non-executor subjects always implicate the whole batch.
  const std::vector<Violation> host_wide = {
      {"nonfuzz-core-iowait-high", "cpu7", 0.5, 0.1}};
  EXPECT_EQ(implicated_slots(host_wide, 3, shifted),
            (std::vector<bool>{true, true, true}));

  // So does a low core nobody is pinned to.
  const std::vector<Violation> stray = {
      {"fuzz-core-utilization-low", "cpu0", 10.0, 80.0}};
  EXPECT_EQ(implicated_slots(stray, 3, shifted),
            (std::vector<bool>{true, true, true}));

  // No violations -> nobody implicated.
  EXPECT_EQ(implicated_slots({}, 3, shifted),
            (std::vector<bool>{false, false, false}));
}

// Regression for the incremental flag scan: bounding the observer's round
// log must not change what a campaign reports, because every round's
// evidence is extracted by the scan hook before prune_log() can drop it.
TEST(CampaignTest, LogRetentionDoesNotChangeReport) {
  CampaignConfig cfg = fast_config();
  cfg.batches = 1;
  const std::vector<prog::Program> seeds = {*named_seed("sync"),
                                            *named_seed("kcmp-pair"),
                                            *named_seed("appendix-a1-prog2")};

  Campaign unlimited(cfg);
  unlimited.load_seeds(seeds);
  unlimited.run_one_batch();
  const CampaignReport a = unlimited.finalize();

  cfg.observer.max_log_rounds = 1;  // prune as aggressively as possible
  Campaign bounded(cfg);
  bounded.load_seeds(seeds);
  bounded.run_one_batch();
  // The bound is enforced between batches.
  EXPECT_EQ(bounded.observer().log().size(), 1u);
  const CampaignReport b = bounded.finalize();

  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.suspects, b.suspects);
  EXPECT_EQ(a.crash_suspects, b.crash_suspects);
  EXPECT_EQ(a.confirmations_run, b.confirmations_run);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].serialized, b.findings[i].serialized) << i;
    EXPECT_EQ(a.findings[i].cause, b.findings[i].cause) << i;
    EXPECT_EQ(a.findings[i].source_round, b.findings[i].source_round) << i;
  }
}

TEST(CampaignTest, RunCFindsSyncFinding) {
  CampaignConfig cfg = fast_config();
  cfg.batches = 1;
  Campaign campaign(cfg);
  campaign.load_seeds({*named_seed("sync"), *named_seed("kcmp-pair"),
                       *named_seed("appendix-a1-prog2")});
  campaign.run_one_batch();
  const CampaignReport report = campaign.finalize();
  ASSERT_FALSE(report.findings.empty());
  bool found_sync = false;
  for (const Finding& f : report.findings)
    if (f.cause == "triggering IO buffer flushes") found_sync = true;
  EXPECT_TRUE(found_sync);
  EXPECT_GT(report.rounds, 0);
  EXPECT_GT(report.executions, 0u);
  EXPECT_GT(report.suspects, 0);
  EXPECT_GT(report.confirmations_run, 0);
}

TEST(CampaignTest, ProvenanceCapturedPerFinding) {
  CampaignConfig cfg = fast_config();
  cfg.batches = 1;
  Campaign campaign(cfg);
  campaign.load_seeds({*named_seed("sync"), *named_seed("kcmp-pair"),
                       *named_seed("appendix-a1-prog2")});
  campaign.run_one_batch();
  const CampaignReport report = campaign.finalize();
  ASSERT_FALSE(report.findings.empty());

  // Every finding carries a full evidence record, and every record points
  // back at the finding it agrees with.
  EXPECT_EQ(report.provenance.size(), report.findings.size());
  for (const Provenance& p : report.provenance) {
    ASSERT_GE(p.finding_index, 0);
    ASSERT_LT(static_cast<std::size_t>(p.finding_index),
              report.findings.size());
    const Finding& f = report.findings[static_cast<std::size_t>(p.finding_index)];
    EXPECT_EQ(p.cause, f.cause);
    EXPECT_EQ(p.syscalls, f.syscall_list());
    EXPECT_EQ(p.minimized_serialized, f.serialized);
    EXPECT_FALSE(p.original_serialized.empty());
    EXPECT_FALSE(p.final_violations.empty());
    EXPECT_GE(p.source_round, 0);
    EXPECT_GT(p.confirm_rounds, 0);
    // The captured observation is the finding's confirmation window, with
    // the per-core evidence intact.
    EXPECT_FALSE(p.observation.cores.empty());
    EXPECT_GT(p.observation.window_end, p.observation.window_start);
  }

  // The sync finding's cause came from KernelTrace io_flush events; its
  // bundle must carry that window.
  bool sync_has_trace = false;
  for (const Provenance& p : report.provenance)
    if (p.cause == "triggering IO buffer flushes" && !p.trace_events.empty())
      sync_has_trace = true;
  EXPECT_TRUE(sync_has_trace);
}

TEST(CampaignTest, GvisorFindsOpenCrash) {
  CampaignConfig cfg = fast_config(runtime::RuntimeKind::kGvisor);
  cfg.batches = 1;
  Campaign campaign(cfg);
  campaign.load_seeds({*named_seed("gvisor-open-crash"),
                       *named_seed("gvisor-prog1"),
                       *named_seed("gvisor-prog2")});
  campaign.run_one_batch();
  const CampaignReport report = campaign.finalize();
  ASSERT_FALSE(report.crashes.empty());
  EXPECT_NE(report.crashes[0].message.find("sentry panic"),
            std::string::npos);
  EXPECT_TRUE(report.crashes[0].reproduced);
}

TEST(CampaignTest, FindingsDedupAcrossMutants) {
  CampaignConfig cfg = fast_config();
  cfg.batches = 1;
  Campaign campaign(cfg);
  // Two sync-containing seeds; the report should carry one sync row per
  // distinct (syscalls, cause) pair, not one per mutant.
  campaign.load_seeds({*named_seed("sync"), *named_seed("sync"),
                       *named_seed("kcmp-pair")});
  campaign.run_one_batch();
  const CampaignReport report = campaign.finalize();
  int sync_rows = 0;
  for (const Finding& f : report.findings)
    if (f.syscall_list() == "sync") ++sync_rows;
  EXPECT_LE(sync_rows, 1);
}

}  // namespace
}  // namespace torpedo::core
