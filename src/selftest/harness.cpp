#include "selftest/harness.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/workdir.h"
#include "run/run.h"
#include "runtime/runtime.h"
#include "selftest/faultinject.h"
#include "selftest/invariants.h"
#include "selftest/replay.h"
#include "telemetry/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace torpedo::selftest {

namespace fs = std::filesystem;

namespace {

// One failed trial, with enough context to re-run it standalone.
struct TrialFailure {
  std::string pillar;
  int trial = -1;
  std::uint64_t seed = 0;
  std::string detail;
  // Shrunk first-violation tick for invariant failures; -1 otherwise.
  Nanos first_violation_ns = -1;
  std::string violations_json;  // "[]" when not an invariant failure

  telemetry::JsonDict to_json() const {
    telemetry::JsonDict d;
    d.set("pillar", pillar)
        .set("trial", trial)
        .set("seed", static_cast<std::int64_t>(seed))
        .set("detail", detail)
        .set("first_violation_ns", first_violation_ns)
        .set_raw("violations", violations_json);
    return d;
  }
};

// Small, fast campaign whose shape still exercises scheduler, cgroups,
// throttling, and the full post-processing pipeline.
core::CampaignConfig mini_config(Rng& rng) {
  core::CampaignConfig config;
  config.num_executors = 1 + static_cast<int>(rng.below(2));
  config.round_duration =
      (20 + static_cast<Nanos>(rng.below(41))) * kMillisecond;
  config.batches = 1;
  config.num_seeds = 3 + rng.below(4);
  config.seed = rng.next();
  config.max_confirmations = 4;
  config.fuzzer.cycle_out_rounds = 3;
  // 8 cores: the smallest host that still leaves the default service
  // daemons their cores 6-7 beside the pinned executor cpusets.
  config.kernel.host.num_cores = 8;
  config.kernel.host.num_kworkers = 4;
  return config;
}

// Re-runs the exact trial deterministically with a single-check probe at
// `probe_ns`. Returns the tick the probe actually ran at (quantum-aligned,
// >= probe_ns) and whether it violated; nullopt when the campaign retired
// before the probe fired.
struct ProbeOutcome {
  Nanos tick_ns = -1;
  bool violated = false;
};
std::optional<ProbeOutcome> probe_trial(const core::CampaignConfig& config,
                                        Nanos probe_ns, bool skip_charging) {
  core::Campaign campaign(config);
  if (skip_charging)
    campaign.kernel().host().set_skip_cgroup_charging_for_selftest(true);
  InvariantConfig icfg;
  icfg.probe_at_ns = probe_ns;
  InvariantChecker checker(campaign.kernel(), icfg);
  checker.install();
  campaign.load_default_seeds();
  try {
    campaign.run_one_batch();
  } catch (const ProbeStop& stop) {
    checker.uninstall();
    return ProbeOutcome{.tick_ns = stop.tick_ns, .violated = stop.violated};
  }
  checker.uninstall();
  return std::nullopt;
}

// Bisects the first tick in (lo, hi] where the trial's invariants break,
// by re-running the identical deterministic trial with probes. `hi` must be
// a tick where a check violated.
struct ShrinkResult {
  Nanos first_bad_ns = -1;
  int probes = 0;
};
ShrinkResult shrink_first_violation(const core::CampaignConfig& config,
                                    bool skip_charging, Nanos lo, Nanos hi) {
  ShrinkResult result;
  const Nanos quantum = config.kernel.host.quantum;
  while (hi - lo > quantum && result.probes < 48) {
    const Nanos mid = lo + (hi - lo) / 2;
    ++result.probes;
    const auto outcome = probe_trial(config, mid, skip_charging);
    if (!outcome) {
      // Campaign retired before the probe: nothing to observe past mid.
      lo = mid;
      continue;
    }
    if (outcome->violated)
      hi = outcome->tick_ns;
    else
      lo = outcome->tick_ns > mid ? outcome->tick_ns : mid;
  }
  result.first_bad_ns = hi;
  return result;
}

struct InvariantPillar {
  int trials = 0;
  int failed = 0;
  std::uint64_t checks_run = 0;
};

void run_invariant_trial(std::uint64_t seed, int index, bool break_charging,
                         InvariantPillar& pillar,
                         std::vector<TrialFailure>& failures) {
  Rng rng(seed);
  const core::CampaignConfig config = mini_config(rng);
  ++pillar.trials;

  core::Campaign campaign(config);
  if (break_charging)
    campaign.kernel().host().set_skip_cgroup_charging_for_selftest(true);
  const Nanos install_ns = campaign.kernel().host().now();
  InvariantChecker checker(campaign.kernel());
  checker.install();
  campaign.load_default_seeds();
  std::string error;
  try {
    campaign.run_one_batch();
    checker.check_now();
  } catch (const std::exception& e) {
    error = e.what();
  }
  checker.uninstall();
  pillar.checks_run += checker.checks_run();

  const bool violated = !checker.violations().empty();
  // A detector-validation trial *must* violate; a normal trial must not.
  const bool trial_failed =
      !error.empty() || (break_charging ? !violated : violated);
  if (!trial_failed) return;
  ++pillar.failed;

  TrialFailure failure;
  failure.pillar = break_charging ? "detector-validation" : "invariants";
  failure.trial = index;
  failure.seed = seed;
  failure.violations_json = invariant_violations_to_json(checker.violations());
  if (!error.empty()) {
    failure.detail = "trial raised: " + error;
  } else if (break_charging) {
    failure.detail =
        "broken cgroup charging went undetected by charge-conservation";
  } else {
    const ShrinkResult shrunk = shrink_first_violation(
        config, false, install_ns, checker.first_violation_tick());
    failure.first_violation_ns = shrunk.first_bad_ns;
    failure.detail = format(
        "%zu invariant violation(s); first broken tick shrunk to %lld ns "
        "(%d probes)",
        checker.violations().size(),
        static_cast<long long>(shrunk.first_bad_ns), shrunk.probes);
  }
  failures.push_back(std::move(failure));
}

// Detector validation: break the accounting on purpose, demand that the
// charge-conservation oracle catches it, and shrink the detection to its
// first tick. Reported separately because *failing to fail* is the bug.
struct DetectorValidation {
  bool ran = false;
  bool detected = false;
  std::string invariant;
  Nanos first_violation_ns = -1;
  Nanos shrunk_ns = -1;
  int probes = 0;
};

DetectorValidation run_detector_validation(std::uint64_t seed,
                                           std::vector<TrialFailure>& failures) {
  DetectorValidation v;
  v.ran = true;
  Rng rng(seed);
  const core::CampaignConfig config = mini_config(rng);

  core::Campaign campaign(config);
  campaign.kernel().host().set_skip_cgroup_charging_for_selftest(true);
  const Nanos install_ns = campaign.kernel().host().now();
  InvariantConfig icfg;
  icfg.check_every_ticks = 4;
  InvariantChecker checker(campaign.kernel(), icfg);
  checker.install();
  campaign.load_default_seeds();
  try {
    campaign.run_one_batch();
    checker.check_now();
  } catch (const std::exception&) {
  }
  checker.uninstall();

  for (const InvariantViolation& violation : checker.violations()) {
    if (violation.invariant == "charge-conservation") {
      v.detected = true;
      v.invariant = violation.invariant;
      break;
    }
  }
  v.first_violation_ns = checker.first_violation_tick();
  if (v.detected) {
    const ShrinkResult shrunk = shrink_first_violation(
        config, true, install_ns, checker.first_violation_tick());
    v.shrunk_ns = shrunk.first_bad_ns;
    v.probes = shrunk.probes;
  } else {
    failures.push_back({.pillar = "detector-validation",
                        .trial = 0,
                        .seed = seed,
                        .detail = "deliberately broken cgroup charging was "
                                  "not caught by charge-conservation",
                        .violations_json = invariant_violations_to_json(
                            checker.violations())});
  }
  return v;
}

struct FaultPillar {
  int trials = 0;
  int failed = 0;
  std::uint64_t syscalls_seen = 0;
  std::uint64_t errors_injected = 0;
  std::uint64_t wakeups_dropped = 0;
  std::uint64_t irq_bursts = 0;
  int artifact_checks = 0;
};

void run_fault_trial(std::uint64_t seed, int index, const fs::path& dir,
                     FaultPillar& pillar, std::vector<TrialFailure>& failures) {
  Rng rng(seed);
  const core::CampaignConfig config = mini_config(rng);
  const FaultPlan plan = FaultPlan::random(rng.next());
  ++pillar.trials;

  auto fail = [&](std::string detail) {
    ++pillar.failed;
    failures.push_back({.pillar = "faults",
                        .trial = index,
                        .seed = seed,
                        .detail = std::move(detail),
                        .violations_json = "[]"});
  };

  // The artifacts written under duress are the full `torpedo run` set.
  run::RunOptions run_options;
  run_options.config = config;
  run_options.workdir = dir;
  run::Instruments instruments(run_options);
  core::Campaign campaign(config);
  instruments.attach(0, campaign);
  FaultInjector injector(plan);
  injector.install(campaign.kernel());
  core::CampaignReport report;
  try {
    // Graceful degradation: under injected errno storms, dropped wakeups,
    // and IRQ bursts the campaign must still retire and post-process.
    campaign.load_default_seeds();
    campaign.run_one_batch();
    report = campaign.finalize();
  } catch (const std::exception& e) {
    injector.uninstall(campaign.kernel());
    fail(std::string("campaign under faults raised: ") + e.what());
    return;
  }
  injector.uninstall(campaign.kernel());
  pillar.syscalls_seen += injector.stats().syscalls_seen;
  pillar.errors_injected += injector.stats().errors_injected;
  pillar.wakeups_dropped += injector.stats().wakeups_dropped;
  pillar.irq_bursts += injector.stats().irq_bursts;

  // Artifact robustness: the artifacts written under duress must parse, and
  // torn (truncated) copies of them must be rejected cleanly, not crash.
  instruments.detach(0, campaign);
  instruments.write_workdir(
      campaign.corpus(), report,
      triage::cluster_report(report, runtime::runtime_name(config.runtime)));
  ++pillar.artifact_checks;

  std::ifstream in(dir / "report.txt");
  std::string header;
  std::getline(in, header);
  if (header != "# TORPEDO campaign report") {
    fail("report.txt written under faults has a corrupt header: " + header);
    return;
  }
  {
    feedback::Corpus loaded;
    const std::size_t entries = core::load_corpus(dir / "corpus.txt", loaded);
    if (campaign.corpus().size() != entries) {
      fail(format("corpus round-trip lost entries under faults: %zu -> %zu",
                  campaign.corpus().size(), entries));
      return;
    }
  }
  try {
    const double keep = 0.1 + 0.8 * rng.uniform();
    truncate_file(dir / "corpus.txt", keep);
    feedback::Corpus truncated;
    (void)core::load_corpus(dir / "corpus.txt", truncated);
    const fs::path bundle = dir / "violations" / "000" / "bundle.json";
    if (fs::exists(bundle)) {
      std::ifstream bundle_in(bundle);
      std::stringstream buffer;
      buffer << bundle_in.rdbuf();
      if (!telemetry::parse_json_object(trim(buffer.str()))) {
        fail("intact bundle.json failed to parse");
        return;
      }
      truncate_file(bundle, keep);
      std::ifstream torn_in(bundle);
      std::stringstream torn;
      torn << torn_in.rdbuf();
      // A torn bundle must parse to nullopt or a smaller object — never
      // crash or hang. parse_json_object is iterative, so this is the
      // regression hook for stack-depth and truncation handling.
      (void)telemetry::parse_json_object(trim(torn.str()));
    }
  } catch (const std::exception& e) {
    fail(std::string("torn-artifact handling raised: ") + e.what());
  }
}

struct ReplayPillar {
  int trials = 0;
  int failed = 0;
  int artifacts_compared = 0;
};

void run_replay_trial(std::uint64_t seed, int index, const fs::path& dir,
                      ReplayPillar& pillar,
                      std::vector<TrialFailure>& failures) {
  Rng rng(seed);
  // Replay reconstructs the config from the manifest alone, so the recorded
  // trial may only vary manifest-capturable fields.
  core::CampaignManifest manifest;
  manifest.batches = 1;
  manifest.num_executors = 1 + static_cast<int>(rng.below(2));
  manifest.round_duration =
      (20 + static_cast<Nanos>(rng.below(41))) * kMillisecond;
  manifest.num_seeds = 3 + rng.below(4);
  manifest.seed = rng.next();
  ++pillar.trials;

  auto fail = [&](std::string detail) {
    ++pillar.failed;
    failures.push_back({.pillar = "replay",
                        .trial = index,
                        .seed = seed,
                        .detail = std::move(detail),
                        .violations_json = "[]"});
  };

  // Record: run once through the `torpedo run --workdir` path, manifest
  // included.
  run::RunOptions record;
  record.config = manifest.to_config();
  record.workdir = dir;
  const run::RunResult recorded = run::run_campaign(record);
  if (!recorded.error.empty()) {
    fail("recording campaign failed: " + recorded.error);
    return;
  }

  ReplayOptions options;
  options.workdir = dir;
  options.max_execution_diffs = 2;
  const ReplayResult result = replay_workdir(options);
  pillar.artifacts_compared += result.artifacts_compared;
  if (!result.ran) {
    fail("replay did not run: " + result.error);
    return;
  }
  if (!result.identical) {
    std::string detail =
        format("replay diverged in %zu place(s):", result.diffs.size());
    for (std::size_t i = 0; i < result.diffs.size() && i < 3; ++i) {
      const ReplayDiff& diff = result.diffs[i];
      detail += format(" [%s %s: %s != %s]", diff.artifact.c_str(),
                       diff.path.c_str(), diff.original.c_str(),
                       diff.replayed.c_str());
    }
    fail(std::move(detail));
  }
}

}  // namespace

SelftestResult run_selftest(const SelftestOptions& options) {
  SelftestResult result;
  const fs::path scratch = options.scratch.empty()
                               ? fs::temp_directory_path() / "torpedo-selftest"
                               : options.scratch;
  std::error_code ec;
  fs::remove_all(scratch, ec);
  fs::create_directories(scratch);

  const int trials = options.trials > 0 ? options.trials : 1;
  std::vector<TrialFailure> failures;
  InvariantPillar invariants;
  DetectorValidation detector;
  FaultPillar faults;
  ReplayPillar replay;

  // Distinct seed streams per pillar so adding trials to one pillar never
  // perturbs another.
  if (options.run_invariants) {
    for (int i = 0; i < trials; ++i) {
      if (options.verbose) std::fprintf(stderr, "selftest: invariants %d\n", i);
      run_invariant_trial(mix_seed(options.seed, 0x1000 + i), i, false,
                          invariants, failures);
    }
    detector = run_detector_validation(mix_seed(options.seed, 0x2000), failures);
  }
  if (options.run_faults) {
    for (int i = 0; i < trials; ++i) {
      if (options.verbose) std::fprintf(stderr, "selftest: faults %d\n", i);
      run_fault_trial(mix_seed(options.seed, 0x3000 + i), i,
                      scratch / format("fault-%03d", i), faults, failures);
    }
  }
  if (options.run_replay) {
    const int replay_trials = trials / 12 > 0 ? trials / 12 : 1;
    for (int i = 0; i < replay_trials; ++i) {
      if (options.verbose) std::fprintf(stderr, "selftest: replay %d\n", i);
      run_replay_trial(mix_seed(options.seed, 0x4000 + i), i,
                       scratch / format("replay-%03d", i), replay, failures);
    }
  }

  result.trials_run = invariants.trials + (detector.ran ? 1 : 0) +
                      faults.trials + replay.trials;
  result.trials_failed = static_cast<int>(failures.size());
  result.passed = failures.empty() &&
                  (!options.run_invariants || detector.detected);

  telemetry::JsonDict invariants_json;
  invariants_json.set("trials", invariants.trials)
      .set("failed", invariants.failed)
      .set("checks_run", static_cast<std::int64_t>(invariants.checks_run));
  telemetry::JsonDict detector_json;
  detector_json.set("ran", detector.ran)
      .set("detected", detector.detected)
      .set("invariant", detector.invariant)
      .set("first_violation_ns", detector.first_violation_ns)
      .set("shrunk_first_bad_ns", detector.shrunk_ns)
      .set("shrink_probes", detector.probes);
  telemetry::JsonDict faults_json;
  faults_json.set("trials", faults.trials)
      .set("failed", faults.failed)
      .set("syscalls_seen", static_cast<std::int64_t>(faults.syscalls_seen))
      .set("errors_injected",
           static_cast<std::int64_t>(faults.errors_injected))
      .set("wakeups_dropped",
           static_cast<std::int64_t>(faults.wakeups_dropped))
      .set("irq_bursts", static_cast<std::int64_t>(faults.irq_bursts))
      .set("artifact_checks", faults.artifact_checks);
  telemetry::JsonDict replay_json;
  replay_json.set("trials", replay.trials)
      .set("failed", replay.failed)
      .set("artifacts_compared", replay.artifacts_compared);

  std::string failures_json = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) failures_json += ",";
    failures_json += failures[i].to_json().to_string();
  }
  failures_json += "]";

  telemetry::JsonDict report;
  report.set("seed", static_cast<std::int64_t>(options.seed))
      .set("trials", trials)
      .set("passed", result.passed)
      .set("trials_run", result.trials_run)
      .set("trials_failed", result.trials_failed)
      .set_raw("invariants", invariants_json.to_string())
      .set_raw("detector_validation", detector_json.to_string())
      .set_raw("faults", faults_json.to_string())
      .set_raw("replay", replay_json.to_string())
      .set_raw("failures", failures_json);
  result.report_json = report.to_string() + "\n";

  if (!options.keep_scratch && result.passed) fs::remove_all(scratch, ec);
  return result;
}

}  // namespace torpedo::selftest
