// torpedo — command-line driver for the TORPEDO framework.
//
// Subcommands mirror the paper's workflow:
//
//   torpedo run   — a full fuzzing campaign (syz-manager equivalent):
//                   seeds in, batches of mutate/confirm rounds, then the
//                   flag/minimize/classify pipeline; artifacts land in a
//                   workdir.
//   torpedo exec  — manual execution of one serialized program ("a tool
//                   packaged with SYZKALLER that allows manual execution of
//                   programs in intermediate representation", §4.1): one
//                   observed round plus oracle verdicts.
//   torpedo seeds — materialize the Moonshine-like seed corpus as .prog
//                   files for inspection or editing.
//   torpedo report — offline triage: rebuild a campaign summary from a
//                   workdir's violation bundles, metrics.json, trace.jsonl
//                   and chrome-trace spans, without re-running anything.
//   torpedo stats — campaign introspection: ASCII signal-growth curves from
//                   timeseries.jsonl, the per-operator mutation-efficacy
//                   table, lineage-depth histograms from corpus.txt, and
//                   each finding's ancestry chain.
//   torpedo diff  — cross-campaign triage diff: match clusters across two
//                   workdirs, report new/fixed/persisting findings plus
//                   throughput and mutation-efficacy deltas, and exit
//                   nonzero on regression so CI can gate on it.
//   torpedo selftest — the framework testing itself: randomized invariant
//                   trials against the simulated substrate, fault-injection
//                   campaigns, and deterministic replay of recorded
//                   workdirs (`--replay WORKDIR`).
//
// Argument handling is table-driven: every subcommand declares its flags in
// one SubcommandSpec, which feeds the parser, the per-subcommand --help
// text, and the unknown-flag error path alike.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/campaign.h"
#include "core/seeds.h"
#include "core/workdir.h"
#include "fleet/coordinator.h"
#include "fleet/manifest.h"
#include "fleet/worker.h"
#include "run/run.h"
#include "selftest/harness.h"
#include "selftest/replay.h"
#include "triage/cluster.h"
#include "triage/diff.h"
#include "telemetry/json.h"
#include "kernel/errno.h"
#include "kernel/syscalls.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/table.h"

using namespace torpedo;

namespace {

// One flag of one subcommand: drives parsing, --help, and error text.
struct FlagSpec {
  const char* name;        // long name, without the leading --
  bool is_switch;          // true: takes no value
  const char* value_name;  // "N", "DIR", ... (nullptr for switches)
  const char* help;
  // Parsed but omitted from --help: internal plumbing flags (the fleet
  // coordinator's worker-mode handshake), not user surface.
  bool hidden = false;
};

struct SubcommandSpec {
  const char* name;
  const char* positional;  // positional-argument summary ("" if none)
  const char* brief;
  std::vector<FlagSpec> flags;
};

const std::vector<SubcommandSpec>& subcommands() {
  static const std::vector<SubcommandSpec> kSpecs = {
      {"run", "",
       "full fuzzing campaign: seeds in, mutate/confirm batches, then the "
       "flag/minimize/classify/triage pipeline",
       {
           {"runtime", false, "NAME", "runc|crun|runsc|kata (default runc)"},
           {"batches", false, "N", "fuzzing batches to run"},
           {"executors", false, "N", "parallel executors per round"},
           {"round-seconds", false, "S", "observer round duration"},
           {"num-seeds", false, "N", "seed programs to generate"},
           {"seeds-dir", false, "DIR", "load .prog seed files from DIR"},
           {"workdir", false, "DIR", "write campaign artifacts to DIR"},
           {"seed", false, "N", "campaign RNG seed"},
           {"v", true, nullptr, "verbose logging"},
           {"trace", false, "FILE", "round-by-round JSONL trace"},
           {"metrics", false, "FILE", "final telemetry counters as JSON"},
           {"chrome-trace", false, "FILE", "phase spans as a Chrome trace"},
           {"monitor-port", false, "N",
            "serve live /metrics, /status, /findings, /clusters"},
           {"watchdog-seconds", false, "S", "stall-detector budget"},
           {"watchdog-abort", true, nullptr, "abort the batch on stall"},
           {"shards", false, "N", "parallel campaign shards"},
           {"no-corpus-sync", true, nullptr, "isolate shard corpora"},
           {"snapshot-exec", true, nullptr, "snapshot fast path (default)"},
           {"no-snapshot-exec", true, nullptr, "cold boot per program"},
           // Fleet worker mode: set by the coordinator's fork/exec, never by
           // hand. The worker re-derives its exact config from the fleet
           // manifest, so no campaign flag round-trips lossily through the
           // command line.
           {"fleet-socket", false, "PATH", "coordinator socket", true},
           {"fleet-worker", false, "K", "worker index", true},
           {"fleet-manifest", false, "FILE", "fleet manifest", true},
       }},
      {"fleet", "",
       "distributed campaign: coordinator + N worker processes trading "
       "corpus over a socket; merged workdir",
       {
           {"workers", false, "N", "worker processes (default 2)"},
           {"manifest", false, "FILE",
            "experiment-matrix manifest (overrides the flags below)"},
           {"workdir", false, "DIR", "merged workdir (required)"},
           {"max-restarts", false, "N",
            "restarts per crashed worker (default 2)"},
           {"monitor-port", false, "N",
            "coordinator /metrics aggregation + /fleet status"},
           {"worker-monitor", true, nullptr,
            "give each worker an ephemeral /metrics port"},
           {"stall-seconds", false, "S",
            "heartbeat age marking a worker stalled (default 60)"},
           {"runtime", false, "NAME", "runc|crun|runsc|kata (default runc)"},
           {"batches", false, "N", "fuzzing batches per worker"},
           {"executors", false, "N", "parallel executors per round"},
           {"round-seconds", false, "S", "observer round duration"},
           {"num-seeds", false, "N", "seed programs to generate"},
           {"seeds-dir", false, "DIR", "load .prog seed files from DIR"},
           {"seed", false, "N", "base RNG seed (worker k gets a mix)"},
           {"snapshot-exec", true, nullptr, "snapshot fast path (default)"},
           {"no-snapshot-exec", true, nullptr, "cold boot per program"},
           {"v", true, nullptr, "verbose logging"},
       }},
      {"exec", "FILE.prog",
       "manual execution of one serialized program: one observed round plus "
       "oracle verdicts",
       {
           {"runtime", false, "NAME", "runc|crun|runsc|kata (default runc)"},
           {"round-seconds", false, "S", "observer round duration"},
           {"executors", false, "N", "parallel executors"},
           {"seed", false, "N", "RNG seed"},
           {"snapshot-exec", true, nullptr, "snapshot fast path (default)"},
           {"no-snapshot-exec", true, nullptr, "cold boot per program"},
       }},
      {"seeds", "",
       "materialize the Moonshine-like seed corpus as .prog files",
       {
           {"out", false, "DIR", "output directory (default seeds)"},
           {"count", false, "N", "seeds to write (default 200)"},
       }},
      {"report", "WORKDIR",
       "offline triage: findings, clusters, lineage and metrics from a "
       "recorded workdir",
       {
           {"json", true, nullptr, "machine-readable output"},
       }},
      {"stats", "WORKDIR",
       "campaign introspection: growth curves, efficacy, lineage, clusters",
       {}},
      {"diff", "WORKDIR_A WORKDIR_B",
       "cross-campaign diff: new/fixed/persisting clusters plus throughput "
       "and efficacy deltas; exits 2 on regression",
       {
           {"json", true, nullptr, "machine-readable output"},
           {"similarity", false, "X",
            "cluster match threshold (default 0.60)"},
           {"severity-regression", false, "X",
            "severity rise counting as regression (default 5)"},
           {"max-throughput-drop", false, "PCT",
            "also gate on throughput drops beyond PCT"},
       }},
      {"selftest", "",
       "the framework testing itself: invariant trials, fault injection, "
       "workdir replay",
       {
           {"trials", false, "N", "randomized trials per pillar"},
           {"seed", false, "N", "trial RNG seed"},
           {"scratch", false, "DIR", "scratch directory"},
           {"keep-scratch", true, nullptr, "keep scratch on success"},
           {"report", false, "FILE", "JSON report path"},
           {"json", true, nullptr, "print the JSON report"},
           {"v", true, nullptr, "verbose logging"},
           {"only", false, "PILLAR", "invariants|faults|replay"},
           {"replay", false, "WORKDIR",
            "replay one recorded workdir and diff every artifact"},
       }},
  };
  return kSpecs;
}

int usage(FILE* out = stderr) {
  std::fputs("usage: torpedo <command> [flags] [args]\n\ncommands:\n", out);
  for (const SubcommandSpec& spec : subcommands())
    std::fprintf(out, "  %-9s %-21s %s\n", spec.name, spec.positional,
                 spec.brief);
  std::fputs("\nrun 'torpedo <command> --help' for that command's flags\n",
             out);
  return out == stderr ? 2 : 0;
}

int subcommand_help(const SubcommandSpec& spec) {
  std::printf("usage: torpedo %s%s%s%s\n\n%s\n", spec.name,
              spec.flags.empty() ? "" : " [flags]",
              *spec.positional ? " " : "", spec.positional, spec.brief);
  if (!spec.flags.empty()) {
    std::printf("\nflags:\n");
    for (const FlagSpec& flag : spec.flags) {
      if (flag.hidden) continue;
      std::string left = std::string("--") + flag.name;
      if (!flag.is_switch && flag.value_name != nullptr)
        left += std::string(" ") + flag.value_name;
      std::printf("  %-26s %s\n", left.c_str(), flag.help);
    }
  }
  return 0;
}

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;
  bool help = false;

  std::optional<std::string> get(const std::string& name) const {
    for (const auto& [k, v] : options)
      if (k == name) return v;
    return std::nullopt;
  }
  bool has(const std::string& name) const { return get(name).has_value(); }
  long num(const std::string& name, long fallback) const {
    auto v = get(name);
    return v ? std::atol(v->c_str()) : fallback;
  }
  double fnum(const std::string& name, double fallback) const {
    auto v = get(name);
    return v ? std::atof(v->c_str()) : fallback;
  }
};

// Parses against the subcommand's spec: switches take no value, unknown
// flags share one error path, --help/-h anywhere prints the command's help.
std::optional<Args> parse_args(int argc, char** argv,
                               const SubcommandSpec& spec) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!starts_with(arg, "--") && !(arg.size() == 2 && arg[0] == '-')) {
      args.positional.push_back(arg);
      continue;
    }
    const std::string name = arg.substr(arg[1] == '-' ? 2 : 1);
    if (name == "help" || name == "h") {
      args.help = true;
      continue;
    }
    const FlagSpec* flag = nullptr;
    for (const FlagSpec& f : spec.flags)
      if (name == f.name) {
        flag = &f;
        break;
      }
    if (flag == nullptr) {
      std::fprintf(
          stderr,
          "unknown flag --%s for 'torpedo %s' (see 'torpedo %s --help')\n",
          name.c_str(), spec.name, spec.name);
      return std::nullopt;
    }
    if (flag->is_switch) {
      args.options.emplace_back(name, "1");
    } else if (i + 1 < argc) {
      args.options.emplace_back(name, argv[++i]);
    } else {
      std::fprintf(stderr, "missing value for --%s (torpedo %s)\n",
                   name.c_str(), spec.name);
      return std::nullopt;
    }
  }
  return args;
}

std::optional<core::CampaignConfig> campaign_config(const Args& args) {
  core::CampaignConfig config;
  if (auto rt = args.get("runtime")) {
    auto kind = runtime::runtime_from_name(*rt);
    if (!kind) {
      std::fprintf(stderr, "unknown runtime: %s\n", rt->c_str());
      return std::nullopt;
    }
    config.runtime = *kind;
  }
  config.batches = static_cast<int>(args.num("batches", config.batches));
  config.num_executors =
      static_cast<int>(args.num("executors", config.num_executors));
  config.round_duration = seconds(static_cast<double>(
      args.num("round-seconds", 5)));
  config.num_seeds = static_cast<std::size_t>(
      args.num("num-seeds", static_cast<long>(config.num_seeds)));
  config.seed = static_cast<std::uint64_t>(args.num("seed", 0x7095ED0));
  // Default on; --no-snapshot-exec selects the cold boot-per-program path
  // (same artifacts byte for byte, just slower).
  if (args.has("no-snapshot-exec")) config.snapshot_exec = false;
  return config;
}

// `torpedo run --fleet-socket ...`: this process is one worker of a fleet
// coordinator's campaign. Everything about the campaign comes from the fleet
// manifest (the coordinator wrote it next to the merged workdir), so the
// worker runs the exact config the coordinator's replay will re-derive.
int cmd_run_fleet_worker(const Args& args, const std::string& socket_path) {
  const auto manifest_path = args.get("fleet-manifest");
  const auto workdir = args.get("workdir");
  if (!manifest_path || !workdir || !args.has("fleet-worker")) {
    std::fprintf(stderr, "--fleet-socket requires --fleet-worker, "
                 "--fleet-manifest and --workdir\n");
    return 2;
  }
  auto manifest = fleet::load_manifest(*manifest_path);
  if (!manifest) {
    std::fprintf(stderr, "cannot load fleet manifest %s\n",
                 manifest_path->c_str());
    return 1;
  }
  const int worker = static_cast<int>(args.num("fleet-worker", 0));
  if (worker < 0 || worker >= manifest->workers) {
    std::fprintf(stderr, "worker index %d out of range (fleet of %d)\n",
                 worker, manifest->workers);
    return 2;
  }
  fleet::WorkerOptions options;
  options.worker_id = worker;
  options.socket_path = socket_path;
  options.config = manifest->worker_config(worker);
  options.workdir = *workdir;
  options.seeds_dir = manifest->defaults.seeds_dir;
  options.cpuset = manifest->worker_cpuset(worker);
  if (args.has("monitor-port"))
    options.monitor_port = static_cast<int>(args.num("monitor-port", 0));
  options.verbose = args.has("v");
  return fleet::worker_main(options);
}

int cmd_run(const Args& args) {
  if (args.has("v")) set_log_level(LogLevel::kInfo);
  if (auto socket_path = args.get("fleet-socket"))
    return cmd_run_fleet_worker(args, *socket_path);
  auto config = campaign_config(args);
  if (!config) return 2;

  run::RunOptions options;
  options.config = *config;
  options.shards = static_cast<int>(args.num("shards", 1));
  if (options.shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }
  options.corpus_sync = !args.has("no-corpus-sync");
  options.seeds_dir = args.get("seeds-dir").value_or("");
  options.workdir = args.get("workdir").value_or("");
  options.trace = args.get("trace").value_or("");
  options.metrics = args.get("metrics").value_or("");
  options.chrome_trace = args.get("chrome-trace").value_or("");
  if (args.has("monitor-port"))
    options.monitor_port = static_cast<int>(args.num("monitor-port", 0));
  options.watchdog_seconds = args.num("watchdog-seconds", 0);
  options.watchdog_abort = args.has("watchdog-abort");
  const bool sharded = options.shards > 1;

  run::RunProgress progress;
  progress.seeds_loaded = [&](std::size_t n,
                              const std::vector<std::string>& errors) {
    for (const std::string& e : errors)
      std::fprintf(stderr, "warning: %s\n", e.c_str());
    std::printf("loaded %zu seeds from %s\n", n, options.seeds_dir.c_str());
  };
  progress.monitor_started = [&](int port) {
    std::printf("monitor: http://127.0.0.1:%d/metrics (and /status, "
                "/healthz, /findings, /clusters%s)\n",
                port,
                sharded ? "; per-shard series under {shard=\"k\"}" : "");
  };
  progress.batch_done = [](int b, const core::BatchResult& batch) {
    std::printf("batch %2d: rounds=%2d score %.1f -> %.1f (+%d confirmed)%s\n",
                b, batch.rounds, batch.baseline_score, batch.best_score,
                batch.improvements, batch.saw_crash ? " [crash]" : "");
  };

  std::printf("fuzzing: runtime=%s executors=%d T=%llds batches=%d",
              std::string(runtime::runtime_name(config->runtime)).c_str(),
              config->num_executors,
              static_cast<long long>(config->round_duration / kSecond),
              config->batches);
  if (sharded)
    std::printf(" shards=%d sync=%s", options.shards,
                options.corpus_sync ? "on" : "off");
  std::printf("\n");

  const run::RunResult result = run::run_campaign(options, progress);
  if (!result.error.empty()) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
    return 1;
  }
  const core::CampaignReport& report = result.report;

  for (std::size_t s = 0; s < result.shard_reports.size(); ++s) {
    const core::CampaignReport& r = result.shard_reports[s];
    std::printf("shard %zu: rounds=%d executions=%llu findings=%zu "
                "crashes=%zu\n",
                s, r.rounds, static_cast<unsigned long long>(r.executions),
                r.findings.size(), r.crashes.size());
  }
  if (sharded)
    std::printf("hub: epochs=%llu published=%llu unique=%llu merged=%llu "
                "pulled=%llu denylist=%llu\n",
                static_cast<unsigned long long>(result.hub.epochs),
                static_cast<unsigned long long>(result.hub.published),
                static_cast<unsigned long long>(result.hub.unique),
                static_cast<unsigned long long>(result.hub.merged),
                static_cast<unsigned long long>(result.hub.pulled),
                static_cast<unsigned long long>(result.hub.denylist_size));

  std::printf("\n%zu findings, %zu crashes over %d rounds (%llu executions)\n",
              report.findings.size(), report.crashes.size(), report.rounds,
              static_cast<unsigned long long>(report.executions));
  const auto shard_tag = [sharded](int shard) {
    return sharded ? format("[shard %d] ", shard) : std::string();
  };
  for (const core::Finding& f : report.findings)
    std::printf("  %s[%s] %s%s\n", shard_tag(f.shard).c_str(),
                f.syscall_list().c_str(), f.cause.c_str(),
                f.is_new ? " (NEW)" : "");
  for (const core::CrashFinding& c : report.crashes)
    std::printf("  CRASH: %s%s\n", shard_tag(c.shard).c_str(),
                c.message.c_str());
  if (!result.clusters.clusters.empty())
    std::printf("%s", triage::cluster_table(result.clusters).c_str());

  if (!options.workdir.empty())
    std::printf("workdir written: %s (corpus.txt, report.txt, "
                "clusters.json, syscall_profile.json, timeseries.jsonl, "
                "mutation_efficacy.json, campaign.json, %zu violation "
                "bundle%s)\n",
                options.workdir.string().c_str(), result.bundles,
                result.bundles == 1 ? "" : "s");
  if (!options.metrics.empty())
    std::printf("metrics written: %s\n", options.metrics.c_str());
  if (!options.trace.empty()) {
    if (sharded)
      std::printf("traces written: %s (%d shard files, %llu records)\n",
                  run::part_file(options.trace, 0, options.shards).c_str(),
                  options.shards,
                  static_cast<unsigned long long>(result.trace_records));
    else
      std::printf("trace written: %s (%llu records)\n",
                  options.trace.c_str(),
                  static_cast<unsigned long long>(result.trace_records));
  }
  if (!options.chrome_trace.empty()) {
    if (sharded)
      std::printf("chrome trace written: %s (%zu spans across %d shard "
                  "lanes; per-shard files %s...)\n",
                  options.chrome_trace.c_str(), result.spans, options.shards,
                  run::part_file(options.chrome_trace, 0, options.shards)
                      .c_str());
    else
      std::printf("chrome trace written: %s (%zu spans; open in Perfetto or "
                  "chrome://tracing)\n",
                  options.chrome_trace.c_str(), result.spans);
  }
  return 0;
}

int cmd_exec(const Args& args) {
  if (args.positional.size() != 1) return usage();
  std::ifstream in(args.positional[0]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", args.positional[0].c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto program = prog::Program::parse(buffer.str());
  if (!program || program->empty()) {
    std::fprintf(stderr, "parse error in %s\n", args.positional[0].c_str());
    return 1;
  }

  auto config = campaign_config(args);
  if (!config) return 2;
  core::Campaign campaign(*config);
  core::SingleRunner runner(campaign.observer(), campaign.cpu_oracle());
  const auto cpu_violations = runner.violations(*program);
  const observer::RoundResult& rr = runner.last_round();

  std::printf("program:\n%s\n", program->serialize().c_str());
  const exec::RunStats& stats = rr.stats[0];
  std::printf("executions: %llu, avg %.1f us, fatal signals %llu%s\n",
              static_cast<unsigned long long>(stats.executions),
              static_cast<double>(stats.avg_execution_time) / 1000.0,
              static_cast<unsigned long long>(stats.fatal_signals),
              stats.crashed ? " [CONTAINER CRASHED]" : "");
  if (stats.crashed) std::printf("crash: %s\n", stats.crash_message.c_str());
  for (const exec::CallRecord& call : stats.last_iteration)
    std::printf("  %s -> %lld (%s)\n",
                std::string(kernel::sysno_name(call.nr)).c_str(),
                static_cast<long long>(call.ret),
                std::string(kernel::errno_name(call.err)).c_str());

  std::printf("oracle score: %.2f%%\n",
              campaign.cpu_oracle().score(rr.observation));
  for (const auto& v : cpu_violations)
    std::printf("CPU violation: %s\n", v.to_string().c_str());
  for (const auto& v : campaign.io_oracle().flag(rr.observation))
    std::printf("IO violation: %s\n", v.to_string().c_str());
  core::CauseClassifier classifier(campaign.kernel());
  std::printf("trace classification: %s\n",
              classifier
                  .classify(rr.observation.window_start,
                            rr.observation.window_end, stats)
                  .c_str());
  return 0;
}

// --- torpedo report ---------------------------------------------------------

using JsonObject = std::map<std::string, telemetry::JsonValue>;

std::optional<std::string> slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string str_field(const JsonObject& obj, const std::string& key) {
  auto it = obj.find(key);
  return it == obj.end() ? std::string() : it->second.text;
}

double num_field(const JsonObject& obj, const std::string& key) {
  auto it = obj.find(key);
  if (it == obj.end()) return 0;
  const telemetry::JsonValue& v = it->second;
  return v.is_integer ? static_cast<double>(v.integer) : v.number;
}

// Renders a vector of rendered JSON objects as a JSON array.
std::string json_array(const std::vector<std::string>& rendered) {
  std::string out = "[";
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    if (i) out += ",";
    out += rendered[i];
  }
  return out + "]";
}

// Findings table + dedup from violations/NNN/bundle.json. In json mode the
// same rows land under out["findings"] / out["by_heuristic"] instead of
// stdout.
void report_bundles(const std::filesystem::path& workdir, bool json,
                    telemetry::JsonDict& out) {
  namespace fs = std::filesystem;
  std::vector<fs::path> bundle_files;
  const fs::path violations = workdir / "violations";
  if (fs::exists(violations))
    for (const auto& entry : fs::directory_iterator(violations))
      if (fs::exists(entry.path() / "bundle.json"))
        bundle_files.push_back(entry.path() / "bundle.json");
  std::sort(bundle_files.begin(), bundle_files.end());

  TextTable table({"bundle", "syscalls", "heuristics", "cause", "round",
                   "score"});
  std::vector<std::string> finding_objects;
  std::map<std::string, int> by_heuristic;
  std::set<std::string> signatures;
  int duplicates = 0;
  for (const fs::path& file : bundle_files) {
    const auto text = slurp(file);
    const auto obj = text ? telemetry::parse_json_object(*text) : std::nullopt;
    if (!obj) {
      std::fprintf(stderr, "warning: unparseable bundle %s\n",
                   file.string().c_str());
      continue;
    }
    // Dedup by program signature: two bundles minimizing to the same program
    // are one finding.
    const std::string hash = str_field(*obj, "program_hash");
    if (!hash.empty() && !signatures.insert(hash).second) {
      ++duplicates;
      continue;
    }
    const std::string heuristics = str_field(*obj, "heuristics");
    for (const auto h : split(heuristics, ','))
      if (!trim(h).empty()) by_heuristic[std::string(trim(h))]++;
    table.add_row({format("%03d", static_cast<int>(num_field(*obj, "bundle"))),
                   str_field(*obj, "syscalls"), heuristics,
                   str_field(*obj, "cause"),
                   format("%d", static_cast<int>(
                                    num_field(*obj, "source_round"))),
                   format("%.2f", num_field(*obj, "oracle_score"))});
    finding_objects.push_back(
        telemetry::JsonDict{}
            .set("bundle", static_cast<std::int64_t>(num_field(*obj, "bundle")))
            .set("syscalls", str_field(*obj, "syscalls"))
            .set("heuristics", heuristics)
            .set("cause", str_field(*obj, "cause"))
            .set("source_round",
                 static_cast<std::int64_t>(num_field(*obj, "source_round")))
            .set("oracle_score", num_field(*obj, "oracle_score"))
            .to_string());
  }

  telemetry::JsonDict heuristic_counts;
  for (const auto& [heuristic, n] : by_heuristic)
    heuristic_counts.set(heuristic, n);
  out.set_raw("findings", json_array(finding_objects))
      .set("duplicate_bundles", duplicates)
      .set_raw("by_heuristic", heuristic_counts.to_string());
  if (json) return;

  std::printf("findings: %zu confirmed bundle%s", table.num_rows(),
              table.num_rows() == 1 ? "" : "s");
  if (duplicates)
    std::printf(" (+%d duplicate%s by program signature)", duplicates,
                duplicates == 1 ? "" : "s");
  std::printf("\n");
  if (table.num_rows()) std::printf("\n%s\n", table.to_string().c_str());
  if (!by_heuristic.empty()) {
    TextTable counts({"heuristic", "findings"});
    for (const auto& [heuristic, n] : by_heuristic)
      counts.add_row({heuristic, format("%d", n)});
    std::printf("by heuristic:\n\n%s\n", counts.to_string().c_str());
  }
}

// Campaign totals from metrics.json (written by `run --metrics`).
void report_metrics(const std::filesystem::path& workdir, bool json,
                    telemetry::JsonDict& out) {
  const auto text = slurp(workdir / "metrics.json");
  if (!text) return;
  const auto obj = telemetry::parse_json_object(*text);
  if (!obj) return;
  auto counters_it = obj->find("counters");
  const auto counters =
      counters_it != obj->end()
          ? telemetry::parse_json_object(counters_it->second.text)
          : std::nullopt;
  if (json) {
    telemetry::JsonDict metrics;
    metrics.set("sim_ns",
                static_cast<std::int64_t>(num_field(*obj, "sim_ns")));
    if (counters_it != obj->end() && counters)
      metrics.set_raw("counters", counters_it->second.text);
    out.set_raw("metrics", metrics.to_string());
    return;
  }
  std::printf("metrics.json: sim end %.3f s",
              num_field(*obj, "sim_ns") / 1e9);
  if (counters) {
    for (const char* key :
         {"exec.executions", "fuzzer.batches", "fuzzer.mutations_accepted",
          "oracle.flags", "exec.container_crashes"}) {
      auto it = counters->find(key);
      if (it != counters->end())
        std::printf(", %s=%lld", key,
                    static_cast<long long>(num_field(*counters, key)));
    }
  }
  std::printf("\n");
}

// Round-by-round record counts from trace.jsonl (written by `run --trace`).
void report_round_trace(const std::filesystem::path& workdir, bool json,
                        telemetry::JsonDict& out) {
  std::ifstream in(workdir / "trace.jsonl");
  if (!in) return;
  std::map<std::string, int> by_event;
  std::string line;
  std::size_t records = 0;
  while (std::getline(in, line)) {
    if (trim(line).empty()) continue;
    ++records;
    if (auto obj = telemetry::parse_json_object(line))
      by_event[str_field(*obj, "event")]++;
  }
  if (json) {
    telemetry::JsonDict events;
    for (const auto& [event, n] : by_event) events.set(event, n);
    out.set("trace_records", static_cast<std::uint64_t>(records))
        .set_raw("trace_events", events.to_string());
    return;
  }
  std::printf("trace.jsonl: %zu records (", records);
  bool first = true;
  for (const auto& [event, n] : by_event) {
    std::printf("%s%s=%d", first ? "" : ", ", event.c_str(), n);
    first = false;
  }
  std::printf(")\n");
}

// Per-phase time breakdown from the chrome-trace span file, aggregated by
// span name across both clocks.
void report_spans(const std::filesystem::path& workdir, bool json,
                  telemetry::JsonDict& out) {
  const auto text = slurp(workdir / "trace.json");
  if (!text) return;
  const auto events = telemetry::parse_json_array_of_objects(*text);
  if (!events) {
    std::fprintf(stderr, "warning: unparseable chrome trace %s\n",
                 (workdir / "trace.json").string().c_str());
    return;
  }
  struct Phase {
    int count = 0;
    double sim_us = 0;
    double wall_ns = 0;
  };
  std::map<std::string, Phase> phases;
  for (const JsonObject& event : *events) {
    Phase& phase = phases[str_field(event, "name")];
    phase.count++;
    phase.sim_us += num_field(event, "dur");
    auto args_it = event.find("args");
    if (args_it == event.end()) continue;
    if (auto a = telemetry::parse_json_object(args_it->second.text))
      phase.wall_ns +=
          num_field(*a, "wall_end_ns") - num_field(*a, "wall_begin_ns");
  }

  std::vector<std::pair<std::string, Phase>> sorted(phases.begin(),
                                                    phases.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.sim_us > b.second.sim_us;
  });
  if (json) {
    std::vector<std::string> phase_objects;
    for (const auto& [name, phase] : sorted)
      phase_objects.push_back(telemetry::JsonDict{}
                                  .set("phase", name)
                                  .set("spans", phase.count)
                                  .set("sim_us", phase.sim_us)
                                  .set("wall_ns", phase.wall_ns)
                                  .to_string());
    out.set("span_count", static_cast<std::uint64_t>(events->size()))
        .set_raw("phases", json_array(phase_objects));
    return;
  }
  TextTable table({"phase", "spans", "sim ms", "wall ms"});
  for (const auto& [name, phase] : sorted)
    table.add_row({name, format("%d", phase.count),
                   format("%.1f", phase.sim_us / 1e3),
                   format("%.2f", phase.wall_ns / 1e6)});
  std::printf("phase breakdown (%zu spans; nested phases overlap their "
              "parents):\n\n%s\n",
              events->size(), table.to_string().c_str());
}

// Per-syscall attribution table from syscall_profile.json (written by
// `run --workdir`): which syscalls executed, contributed signal, and were
// implicated by the flag scan.
void report_syscall_profile(const std::filesystem::path& workdir, bool json,
                            telemetry::JsonDict& out) {
  const auto text = slurp(workdir / "syscall_profile.json");
  if (!text) return;
  const auto obj = telemetry::parse_json_object(*text);
  if (!obj) {
    std::fprintf(stderr, "warning: unparseable %s\n",
                 (workdir / "syscall_profile.json").string().c_str());
    return;
  }
  auto rows_it = obj->find("syscalls");
  const auto rows = rows_it != obj->end()
                        ? telemetry::parse_json_array_of_objects(
                              rows_it->second.text)
                        : std::nullopt;
  if (!rows) return;
  if (json) {
    out.set_raw("syscall_profile", rows_it->second.text);
    return;
  }
  std::vector<const JsonObject*> sorted;
  for (const JsonObject& row : *rows) sorted.push_back(&row);
  std::sort(sorted.begin(), sorted.end(),
            [](const JsonObject* a, const JsonObject* b) {
              return num_field(*a, "executions") > num_field(*b, "executions");
            });
  TextTable table({"syscall", "nr", "executions", "signal", "implications"});
  for (const JsonObject* row : sorted)
    table.add_row(
        {str_field(*row, "name"),
         format("%d", static_cast<int>(num_field(*row, "nr"))),
         format("%lld",
                static_cast<long long>(num_field(*row, "executions"))),
         format("%lld",
                static_cast<long long>(num_field(*row, "signal_new"))),
         format("%lld",
                static_cast<long long>(num_field(*row, "implications")))});
  std::printf("syscall attribution (%zu syscalls):\n\n%s\n", sorted.size(),
              table.to_string().c_str());
}

// Ancestry chains from the `lineage` arrays in violation bundles: per
// finding, the suspect first, then each splice donor back to a root. In json
// mode the per-bundle chain lengths land under out["lineage_depth"].
void report_lineage(const std::filesystem::path& workdir, bool json,
                    telemetry::JsonDict& out) {
  namespace fs = std::filesystem;
  std::vector<fs::path> bundle_files;
  const fs::path violations = workdir / "violations";
  if (fs::exists(violations))
    for (const auto& entry : fs::directory_iterator(violations))
      if (fs::exists(entry.path() / "bundle.json"))
        bundle_files.push_back(entry.path() / "bundle.json");
  std::sort(bundle_files.begin(), bundle_files.end());

  std::vector<std::string> depth_objects;
  bool printed_header = false;
  for (const fs::path& file : bundle_files) {
    const auto text = slurp(file);
    const auto obj = text ? telemetry::parse_json_object(*text) : std::nullopt;
    if (!obj) continue;
    auto lineage_it = obj->find("lineage");
    if (lineage_it == obj->end()) continue;
    const auto links =
        telemetry::parse_json_array_of_objects(trim(lineage_it->second.text));
    if (!links || links->empty()) continue;
    const int bundle = static_cast<int>(num_field(*obj, "bundle"));
    depth_objects.push_back(
        telemetry::JsonDict{}
            .set("bundle", bundle)
            .set("depth", static_cast<std::int64_t>(links->size()))
            .to_string());
    if (json) continue;
    if (!printed_header) {
      std::printf("ancestry (suspect first, oldest splice donor last):\n");
      printed_header = true;
    }
    std::string chain;
    for (const JsonObject& link : *links) {
      if (!chain.empty()) chain += " <- ";
      chain += str_field(link, "hash");
      chain += format("(%s r%d)", str_field(link, "op").c_str(),
                      static_cast<int>(num_field(link, "round")));
    }
    std::printf("  bundle %03d: %s\n", bundle, chain.c_str());
  }
  if (json)
    out.set_raw("lineage_depth", json_array(depth_objects));
  else if (printed_header)
    std::printf("\n");
}

// Per-operator efficacy table from mutation_efficacy.json (written by
// `run --workdir`): which mutation operators earn their keep.
void report_efficacy(const std::filesystem::path& workdir, bool json,
                     telemetry::JsonDict& out) {
  const auto text = slurp(workdir / "mutation_efficacy.json");
  if (!text) return;
  const auto obj = telemetry::parse_json_object(*text);
  if (!obj) {
    std::fprintf(stderr, "warning: unparseable %s\n",
                 (workdir / "mutation_efficacy.json").string().c_str());
    return;
  }
  auto ops_it = obj->find("ops");
  const auto rows = ops_it != obj->end()
                        ? telemetry::parse_json_array_of_objects(
                              trim(ops_it->second.text))
                        : std::nullopt;
  if (!rows) return;
  if (json) {
    out.set_raw("mutation_efficacy", ops_it->second.text);
    return;
  }
  TextTable table({"operator", "attempts", "accepted", "executions",
                   "novel signal", "violations", "inserts"});
  for (const JsonObject& row : *rows)
    table.add_row(
        {str_field(row, "op"),
         format("%lld", static_cast<long long>(num_field(row, "attempts"))),
         format("%lld", static_cast<long long>(num_field(row, "accepted"))),
         format("%lld",
                static_cast<long long>(num_field(row, "executions"))),
         format("%lld",
                static_cast<long long>(num_field(row, "novel_signal"))),
         format("%lld",
                static_cast<long long>(num_field(row, "violations"))),
         format("%lld",
                static_cast<long long>(num_field(row, "corpus_inserts")))});
  std::printf("mutation efficacy (%zu operators):\n\n%s\n", rows->size(),
              table.to_string().c_str());
}

// Severity-ranked cluster table from clusters.json, recomputed from the
// violation bundles when the file is absent. In json mode the rendered
// clusters land under out["clusters"] plus a flat bundle -> cluster
// assignment list (what a dashboard joins against the findings array).
void report_clusters(const std::filesystem::path& workdir, bool json,
                     telemetry::JsonDict& out) {
  const auto tri = triage::triage_workdir(workdir);
  if (!tri) return;
  if (json) {
    out.set_raw("clusters", triage::clusters_to_json_array(*tri));
    std::vector<std::string> assignments;
    for (const triage::Cluster& c : tri->clusters)
      for (const triage::ClusterMember& m : c.members)
        assignments.push_back(telemetry::JsonDict{}
                                  .set("bundle", m.features.bundle)
                                  .set("cluster", c.id)
                                  .set("severity", c.severity)
                                  .set("similarity", m.similarity)
                                  .to_string());
    out.set_raw("cluster_assignments", json_array(assignments));
    return;
  }
  std::printf("%s", triage::cluster_table(*tri).c_str());
}

int cmd_report(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const bool json = args.has("json");
  const std::filesystem::path workdir(args.positional[0]);
  if (!std::filesystem::exists(workdir)) {
    std::fprintf(stderr, "no such workdir: %s\n", workdir.string().c_str());
    return 1;
  }
  telemetry::JsonDict out;
  out.set("workdir", workdir.string());
  if (!json) std::printf("torpedo report: %s\n\n", workdir.string().c_str());
  report_bundles(workdir, json, out);
  report_clusters(workdir, json, out);
  if (!json) std::printf("\n");
  report_lineage(workdir, json, out);
  report_metrics(workdir, json, out);
  report_round_trace(workdir, json, out);
  if (!json) std::printf("\n");
  report_spans(workdir, json, out);
  report_syscall_profile(workdir, json, out);
  report_efficacy(workdir, json, out);
  if (json) std::printf("%s\n", out.to_string().c_str());
  return 0;
}

// --- torpedo stats ----------------------------------------------------------

// Scales `values` into a one-line ASCII curve of `width` columns using a
// ten-level density ramp. Deterministic: pure function of the sample values.
std::string ascii_curve(const std::vector<double>& values, std::size_t width) {
  static const char kRamp[] = " .:-=+*#%@";
  if (values.empty()) return "";
  double max = 0;
  for (double v : values) max = std::max(max, v);
  if (width > values.size()) width = values.size();
  std::string curve;
  for (std::size_t col = 0; col < width; ++col) {
    // Last value in this column's bucket: growth curves are cumulative, so
    // the bucket's end is the honest summary.
    const std::size_t i = (col + 1) * values.size() / width - 1;
    const double v = values[i];
    const std::size_t level =
        max <= 0 ? 0
                 : std::min<std::size_t>(9, static_cast<std::size_t>(
                                                v / max * 9.0 + 0.5));
    curve += kRamp[level];
  }
  return curve;
}

// `torpedo stats WORKDIR`: growth curves from timeseries.jsonl, the
// mutation-efficacy table, lineage-depth histogram from corpus.txt headers,
// and each finding's ancestry chain.
int cmd_stats(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const std::filesystem::path workdir(args.positional[0]);
  if (!std::filesystem::exists(workdir)) {
    std::fprintf(stderr, "no such workdir: %s\n", workdir.string().c_str());
    return 1;
  }
  std::printf("torpedo stats: %s\n\n", workdir.string().c_str());

  // --- signal-growth curves, one block per shard ---
  std::map<int, std::vector<JsonObject>> by_shard;
  {
    std::ifstream in(workdir / "timeseries.jsonl");
    std::string line;
    while (in && std::getline(in, line)) {
      if (trim(line).empty()) continue;
      if (auto obj = telemetry::parse_json_object(line)) {
        const int shard = obj->count("shard")
                              ? static_cast<int>(num_field(*obj, "shard"))
                              : -1;
        by_shard[shard].push_back(std::move(*obj));
      }
    }
  }
  if (by_shard.empty()) {
    std::printf("no timeseries.jsonl (record one with `torpedo run "
                "--workdir DIR`)\n\n");
  }
  for (const auto& [shard, samples] : by_shard) {
    std::vector<double> signals, corpus;
    for (const JsonObject& s : samples) {
      signals.push_back(num_field(s, "distinct_signals"));
      corpus.push_back(num_field(s, "corpus_size"));
    }
    const JsonObject& last = samples.back();
    const double sim_s = num_field(last, "sim_ns") / 1e9;
    const double execs = num_field(last, "executions");
    if (shard < 0)
      std::printf("campaign (%zu samples):\n", samples.size());
    else
      std::printf("shard %d (%zu samples):\n", shard, samples.size());
    std::printf("  distinct signals |%s| %lld\n",
                ascii_curve(signals, 60).c_str(),
                static_cast<long long>(signals.back()));
    std::printf("  corpus size      |%s| %lld\n",
                ascii_curve(corpus, 60).c_str(),
                static_cast<long long>(corpus.back()));
    std::printf("  rounds=%d executions=%lld violations=%lld sim=%.1fs "
                "(%.0f exec/sim-s)\n\n",
                static_cast<int>(num_field(last, "round")),
                static_cast<long long>(execs),
                static_cast<long long>(num_field(last, "violations")), sim_s,
                sim_s > 0 ? execs / sim_s : 0.0);
  }

  // --- violation clusters, severity-ranked ---
  telemetry::JsonDict scratch_out;
  report_clusters(workdir, /*json=*/false, scratch_out);
  std::printf("\n");

  // --- mutation efficacy ---
  report_efficacy(workdir, /*json=*/false, scratch_out);

  // --- lineage depth histogram from corpus.txt headers ---
  {
    std::map<unsigned long long, unsigned long long> parent_of;
    std::ifstream in(workdir / "corpus.txt");
    std::string line;
    while (in && std::getline(in, line)) {
      if (!starts_with(line, "# score=")) continue;
      unsigned long long hash = 0, parent = 0;
      for (const auto field : split_ws(line)) {
        if (starts_with(field, "hash="))
          hash = std::strtoull(std::string(field.substr(5)).c_str(), nullptr,
                               16);
        else if (starts_with(field, "parent="))
          parent = std::strtoull(std::string(field.substr(7)).c_str(),
                                 nullptr, 16);
      }
      if (hash != 0) parent_of[hash] = parent;
    }
    if (!parent_of.empty()) {
      std::map<int, int> histogram;
      for (const auto& [hash, parent] : parent_of) {
        int depth = 0;
        unsigned long long cursor = parent;
        while (cursor != 0 && depth < 64) {
          auto it = parent_of.find(cursor);
          if (it == parent_of.end()) break;
          ++depth;
          cursor = it->second;
        }
        histogram[depth]++;
      }
      TextTable table({"depth", "entries", ""});
      int max_count = 0;
      for (const auto& [depth, n] : histogram)
        max_count = std::max(max_count, n);
      for (const auto& [depth, n] : histogram)
        table.add_row({format("%d", depth), format("%d", n),
                       std::string(static_cast<std::size_t>(
                                       max_count > 0 ? n * 40 / max_count : 0),
                                   '#')});
      std::printf("corpus lineage depth (%zu entries):\n\n%s\n",
                  parent_of.size(), table.to_string().c_str());
    }
  }

  // --- ancestry per finding ---
  report_lineage(workdir, /*json=*/false, scratch_out);
  return 0;
}

// --- torpedo diff -----------------------------------------------------------

// `torpedo diff WD_A WD_B`: cross-campaign triage diff. Exit codes: 0 clean,
// 1 error (a workdir could not be triaged), 2 regression — so CI can gate a
// change on "no new violation clusters, no severity jumps".
int cmd_diff(const Args& args) {
  if (args.positional.size() != 2) return usage();
  triage::DiffOptions options;
  options.match_threshold =
      args.fnum("similarity", options.match_threshold);
  options.severity_regression =
      args.fnum("severity-regression", options.severity_regression);
  options.max_throughput_drop_pct =
      args.fnum("max-throughput-drop", options.max_throughput_drop_pct);
  const std::filesystem::path a(args.positional[0]);
  const std::filesystem::path b(args.positional[1]);
  const triage::DiffResult result = triage::diff_workdirs(a, b, options);

  if (args.has("json")) {
    std::printf("%s\n", result.to_json().to_string().c_str());
    return result.ran ? (result.regression ? 2 : 0) : 1;
  }
  if (!result.ran) {
    std::fprintf(stderr, "diff failed: %s\n", result.error.c_str());
    return 1;
  }

  std::printf("torpedo diff: %s -> %s\n\n", a.string().c_str(),
              b.string().c_str());
  std::printf("clusters: %zu persisting, %zu fixed, %zu new\n",
              result.persisting.size(), result.fixed.size(),
              result.added.size());
  if (!result.persisting.empty()) {
    TextTable table({"A", "B", "match", "severity A", "severity B", "delta",
                     "label"});
    for (const triage::MatchedCluster& m : result.persisting)
      table.add_row({format("%d", m.id_a), format("%d", m.id_b),
                     format("%.2f", m.similarity),
                     format("%.1f", m.severity_a),
                     format("%.1f", m.severity_b),
                     format("%+.1f", m.severity_b - m.severity_a), m.label});
    std::printf("\n%s\n", table.to_string().c_str());
  }
  for (const triage::UnmatchedCluster& c : result.fixed)
    std::printf("  FIXED: cluster %d (severity %.1f, size %zu) %s\n", c.id,
                c.severity, c.size, c.label.c_str());
  for (const triage::UnmatchedCluster& c : result.added)
    std::printf("  NEW:   cluster %d (severity %.1f, size %zu) %s\n", c.id,
                c.severity, c.size, c.label.c_str());

  if (result.have_throughput) {
    const double delta_pct =
        result.execs_per_sim_sec_a > 0
            ? 100.0 *
                  (result.execs_per_sim_sec_b - result.execs_per_sim_sec_a) /
                  result.execs_per_sim_sec_a
            : 0.0;
    std::printf("\nthroughput: %.0f -> %.0f exec/sim-s (%+.1f%%)\n",
                result.execs_per_sim_sec_a, result.execs_per_sim_sec_b,
                delta_pct);
  }
  if (!result.efficacy.empty()) {
    TextTable table({"operator", "accept A", "accept B", "novel A",
                     "novel B"});
    for (const triage::EfficacyDelta& e : result.efficacy)
      table.add_row(
          {e.op, format("%.1f%%", 100.0 * e.accept_rate_a),
           format("%.1f%%", 100.0 * e.accept_rate_b),
           format("%llu", static_cast<unsigned long long>(e.novel_a)),
           format("%llu", static_cast<unsigned long long>(e.novel_b))});
    std::printf("\nmutation efficacy deltas:\n\n%s\n",
                table.to_string().c_str());
  }

  if (result.regression) {
    std::printf("\nREGRESSION:\n");
    for (const std::string& reason : result.regression_reasons)
      std::printf("  %s\n", reason.c_str());
    return 2;
  }
  std::printf("\nno regression\n");
  return 0;
}

// --- torpedo selftest -------------------------------------------------------

// `--replay WORKDIR`: re-execute one recorded campaign and diff artifacts.
int cmd_selftest_replay(const Args& args, const std::string& workdir) {
  selftest::ReplayOptions options;
  options.workdir = workdir;
  if (auto scratch = args.get("scratch")) options.scratch = *scratch;
  options.keep_scratch = true;  // the user will want to inspect the diff
  const selftest::ReplayResult result = selftest::replay_workdir(options);
  if (args.has("json")) {
    std::printf("%s\n", result.to_json().to_string().c_str());
    return result.identical ? 0 : 1;
  }
  if (!result.ran) {
    std::fprintf(stderr, "replay failed: %s\n", result.error.c_str());
    return 1;
  }
  if (result.identical) {
    std::printf("replay identical: %d artifact%s regenerated byte-for-byte\n",
                result.artifacts_compared,
                result.artifacts_compared == 1 ? "" : "s");
    return 0;
  }
  std::printf("replay DIVERGED: %zu difference%s across %d artifacts\n",
              result.diffs.size(), result.diffs.size() == 1 ? "" : "s",
              result.artifacts_compared);
  for (const selftest::ReplayDiff& diff : result.diffs)
    std::printf("  %s %s: recorded %s, replayed %s\n", diff.artifact.c_str(),
                diff.path.c_str(), diff.original.c_str(),
                diff.replayed.c_str());
  return 1;
}

int cmd_selftest(const Args& args) {
  if (auto workdir = args.get("replay")) {
    return cmd_selftest_replay(args, *workdir);
  }
  if (!args.positional.empty()) return usage();

  selftest::SelftestOptions options;
  options.trials = static_cast<int>(args.num("trials", options.trials));
  options.seed = static_cast<std::uint64_t>(
      args.num("seed", static_cast<long>(options.seed)));
  if (auto scratch = args.get("scratch")) options.scratch = *scratch;
  options.keep_scratch = args.has("keep-scratch");
  options.verbose = args.has("v");
  if (auto only = args.get("only")) {
    options.run_invariants = *only == "invariants";
    options.run_faults = *only == "faults";
    options.run_replay = *only == "replay";
    if (!options.run_invariants && !options.run_faults &&
        !options.run_replay) {
      std::fprintf(stderr, "unknown pillar: %s\n", only->c_str());
      return 2;
    }
  }

  const selftest::SelftestResult result = selftest::run_selftest(options);

  const std::string report_path =
      args.get("report").value_or("selftest_report.json");
  {
    std::ofstream out(report_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open report file %s\n",
                   report_path.c_str());
      return 1;
    }
    out << result.report_json;
  }

  if (args.has("json")) {
    std::fputs(result.report_json.c_str(), stdout);
  } else {
    std::printf("selftest: %d trial%s, %d failed -> %s\n", result.trials_run,
                result.trials_run == 1 ? "" : "s", result.trials_failed,
                result.passed ? "PASS" : "FAIL");
    std::printf("report written: %s\n", report_path.c_str());
  }
  return result.passed ? 0 : 1;
}

// `torpedo fleet`: the coordinator process. Builds the experiment-matrix
// manifest (from --manifest or the campaign flags), spawns N `torpedo run
// --fleet-socket ...` workers, drives the socket epoch barrier, restarts
// crashed workers, and writes the merged workdir from their reports.
int cmd_fleet(const Args& args) {
  if (args.has("v")) set_log_level(LogLevel::kInfo);
  const auto workdir = args.get("workdir");
  if (!workdir) {
    std::fprintf(stderr, "torpedo fleet requires --workdir DIR\n");
    return 2;
  }

  fleet::Manifest manifest;
  if (auto file = args.get("manifest")) {
    auto loaded = fleet::load_manifest(*file);
    if (!loaded) {
      std::fprintf(stderr, "cannot load fleet manifest %s\n", file->c_str());
      return 1;
    }
    manifest = std::move(*loaded);
    if (args.has("workers"))
      manifest.workers = static_cast<int>(args.num("workers", 2));
  } else {
    auto config = campaign_config(args);
    if (!config) return 2;
    manifest.workers = static_cast<int>(args.num("workers", 2));
    manifest.defaults = core::CampaignManifest::from_config(*config);
    if (auto seeds_dir = args.get("seeds-dir"))
      manifest.defaults.seeds_dir = *seeds_dir;
  }
  if (args.has("max-restarts"))
    manifest.max_restarts = static_cast<int>(args.num("max-restarts", 2));
  if (manifest.workers < 1) {
    std::fprintf(stderr, "--workers must be >= 1\n");
    return 2;
  }

  fleet::FleetConfig config;
  config.manifest = std::move(manifest);
  config.workdir = *workdir;
  {
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (n <= 0) {
      std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
      return 1;
    }
    self[n] = '\0';
    config.worker_binary = self;
  }
  if (args.has("worker-monitor")) config.worker_monitor_port = 0;
  if (args.has("monitor-port"))
    config.coordinator_monitor_port =
        static_cast<int>(args.num("monitor-port", 0));
  if (args.has("stall-seconds"))
    config.stall_budget_wall_ns = static_cast<Nanos>(
        args.num("stall-seconds", 60)) * kSecond;
  config.verbose = args.has("v");

  std::printf("fleet: %d workers x %d batches, runtime=%s, max-restarts=%d, "
              "workdir=%s\n",
              config.manifest.workers, config.manifest.defaults.batches,
              config.manifest.defaults.runtime.c_str(),
              config.manifest.max_restarts, workdir->c_str());

  fleet::Coordinator coordinator(std::move(config));
  const fleet::Coordinator::Result result = coordinator.run();

  for (const fleet::WorkerStatus& st : coordinator.workers())
    std::printf("worker %d: %s rounds=%d executions=%llu corpus=%llu "
                "findings=%llu crashes=%llu restarts=%d\n",
                st.id, std::string(fleet::worker_state_name(st.state)).c_str(),
                st.rounds, static_cast<unsigned long long>(st.executions),
                static_cast<unsigned long long>(st.corpus),
                static_cast<unsigned long long>(st.findings),
                static_cast<unsigned long long>(st.crashes), st.restarts);
  const feedback::CorpusLedger::Stats& hub = coordinator.ledger().stats();
  std::printf("hub: epochs=%llu published=%llu unique=%llu merged=%llu "
              "pulled=%llu denylist=%zu\n",
              static_cast<unsigned long long>(hub.epochs),
              static_cast<unsigned long long>(hub.published),
              static_cast<unsigned long long>(hub.unique),
              static_cast<unsigned long long>(hub.merged),
              static_cast<unsigned long long>(hub.pulled),
              hub.denylist_size);
  std::printf("fleet %s: %d/%d workers completed, %d restart%s, "
              "%llu executions, merge %.1f ms\n",
              result.ok ? "done" : "FAILED", result.completed,
              result.completed + result.failed, result.restarts,
              result.restarts == 1 ? "" : "s",
              static_cast<unsigned long long>(result.executions),
              static_cast<double>(result.merge_wall_ns) / 1e6);
  std::printf("merged workdir: %s (fleet_status.json, fleet.json, and the "
              "standard campaign artifacts)\n", workdir->c_str());
  return result.ok ? 0 : 1;
}

int cmd_seeds(const Args& args) {
  const std::string out = args.get("out").value_or("seeds");
  const std::size_t count =
      static_cast<std::size_t>(args.num("count", 200));
  const auto seeds = core::moonshine_seeds(count);
  const std::size_t written = core::write_seed_files(out, seeds);
  std::printf("wrote %zu seed files to %s\n", written, out.c_str());
  return written == count ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h")
    return usage(stdout);
  const SubcommandSpec* spec = nullptr;
  for (const SubcommandSpec& s : subcommands())
    if (command == s.name) {
      spec = &s;
      break;
    }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
    return usage();
  }
  auto args = parse_args(argc, argv, *spec);
  if (!args) return 2;
  if (args->help) return subcommand_help(*spec);
  if (command == "run") return cmd_run(*args);
  if (command == "fleet") return cmd_fleet(*args);
  if (command == "exec") return cmd_exec(*args);
  if (command == "seeds") return cmd_seeds(*args);
  if (command == "report") return cmd_report(*args);
  if (command == "stats") return cmd_stats(*args);
  if (command == "diff") return cmd_diff(*args);
  return cmd_selftest(*args);
}
