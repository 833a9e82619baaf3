// Campaign benchmark: runs one workload's fixed-size campaign over and
// over for a time budget and prints one JSON result line.
//
//   campaign_bench --workload seq_quota|shards2_runsc|fleet2 --seed N
//                    --seconds S --trace 0|1 --torpedo PATH
//                    --digest-file FILE [--spans-out FILE]
//
// Every campaign is one closed-loop operation driven from this process with
// the config `torpedo run` / `torpedo fleet` users get (5 s rounds,
// cycle_out_rounds 15, 40 seeds, 3 pinned executors, snapshot-exec on, the
// default campaign seed) at one batch. The workload seed generates the
// Moonshine-like seed corpus handed to the library. Artifacts are written to
// a workdir under the current directory as `torpedo run --workdir` writes
// them, and each campaign's report digest must equal the first one recorded
// for this (workload, seed).
//
// --trace 0 reports the end-to-end metrics: medians over the campaigns, with
// timings scaled to a reference host speed (see host_speed()).
// --trace 1 alternates untraced and traced campaigns: the traced ones install
// span tracers and give the per-layer counters, timings and self times; the
// pairs give the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/campaign.h"
#include "core/seeds.h"
#include "core/sharded.h"
#include "core/workdir.h"
#include "feedback/mutation_efficacy.h"
#include "feedback/syscall_profile.h"
#include "fleet/coordinator.h"
#include "fleet/manifest.h"
#include "kernel/syscalls.h"
#include "telemetry/json.h"
#include "telemetry/monitor.h"
#include "telemetry/span.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeseries.h"
#include "triage/cluster.h"
#include "util/rng.h"

using namespace torpedo;
namespace fs = std::filesystem;

namespace {

// ---- workload definitions ---------------------------------------------------

constexpr int kBatches = 1;
constexpr int kParts = 2;  // shards2_runsc shards, fleet2 workers
// Corpus seed for workload seed n: mix_seed(default corpus seed, n), so
// seed 0 hands the library exactly the corpus `torpedo run` generates.
constexpr std::uint64_t kCorpusSeedBase = 0x5EED;

enum class Workload { kSeqQuota, kShards2Runsc, kFleet2 };

std::optional<Workload> workload_from_name(std::string_view name) {
  if (name == "seq_quota") return Workload::kSeqQuota;
  if (name == "shards2_runsc") return Workload::kShards2Runsc;
  if (name == "fleet2") return Workload::kFleet2;
  return std::nullopt;
}

// The campaign seed stays the `torpedo run` default: it steers the whole
// search, and campaigns of different campaign seeds differ several-fold in
// length, executions and findings (see README.md).
core::CampaignConfig workload_config(Workload w) {
  core::CampaignConfig config;  // the `torpedo run` defaults
  config.batches = kBatches;
  if (w == Workload::kSeqQuota) config.cpus_per_container = 0.5;
  if (w == Workload::kShards2Runsc)
    config.runtime = runtime::RuntimeKind::kGvisor;
  return config;
}

std::vector<prog::Program> workload_seeds(const core::CampaignConfig& config,
                                          std::uint64_t seed) {
  return core::moonshine_seeds(config.num_seeds,
                               mix_seed(kCorpusSeedBase, seed));
}

// ---- measurement helpers ----------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

// User + system CPU seconds of this process and its reaped children.
double cpu_now_s() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return tv_s(self.ru_utime) + tv_s(self.ru_stime) +
         tv_s(children.ru_utime) + tv_s(children.ru_stime);
}

// The larger of this process's and any reaped child's max RSS, in MB.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- host-speed reference ---------------------------------------------------
//
// The shared host this benchmark runs on changes speed by tens of percent
// from one minute to the next, and CPU time swings with wall time, so raw
// medians of one run cannot resolve a 25% regression (README.md has the
// figures). Before every campaign the benchmark therefore times a fixed
// reference workload five times, with nothing else of its own running, and
// reports timings at the reference speed: measured x (kProbeReferenceS /
// median probe time). The probe uses no library code, so no change to
// torpedo can move it; its 1 MB working set feels the same cache and memory
// contention the campaign does.

// Median probe time on the host the benchmark was defined on.
constexpr double kProbeReferenceS = 0.030;

// One probe: sort a fixed random buffer and hash into a fixed table.
double probe_once_s() {
  static std::vector<std::uint32_t> buf(1 << 18);
  static std::vector<std::uint32_t> table(1 << 16);
  const double t0 = now_s();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (auto& e : buf) e = static_cast<std::uint32_t>(next());
  std::sort(buf.begin(), buf.end());
  std::fill(table.begin(), table.end(), 0);
  std::uint64_t acc = 0;
  for (int i = 0; i < (1 << 20); ++i) {
    const auto k = static_cast<std::uint32_t>(next() & 0xFFFF);
    table[k] += 1;
    acc += (k & 1) ? table[(k * 7) & 0xFFFF] : buf[k];
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  return now_s() - t0;
}

// Reference-speed seconds per measured second, right now.
double host_speed() {
  std::vector<double> probes;
  for (int i = 0; i < 5; ++i) probes.push_back(probe_once_s());
  return kProbeReferenceS / median(probes);
}

std::optional<std::string> read_file(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// FNV-1a over the deterministic artifacts of a workdir.
std::uint64_t workdir_digest(const fs::path& dir) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* name : {"report.txt", "corpus.txt", "clusters.json"}) {
    const std::string text = read_file(dir / name).value_or("<missing>");
    for (const char c : std::string(name) + '\0' + text) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Before/after view of the process-global telemetry registry.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> hist_sums;
  std::map<std::string, std::array<std::uint64_t, telemetry::Histogram::kBuckets>>
      hist_buckets;

  static RegistrySnapshot take() {
    RegistrySnapshot s;
    const telemetry::Registry& reg = telemetry::global();
    for (const char* name :
         {"sim.quanta", "sim.scheduler_picks", "sim.segments_finished",
          "sim.wakeups", "observer.rounds", "exec.fatal_signal_respawns",
          "exec.container_crashes", "exec.container_restarts"}) {
      const telemetry::Counter* c = reg.find_counter(name);
      s.counters[name] = c ? c->value() : 0;
    }
    for (const char* name : {"sim.run_until_wall_us", "observer.round_wall_us",
                             "observer.snapshot_wall_us"}) {
      const telemetry::Histogram* h = reg.find_histogram(name);
      s.hist_sums[name] = h ? h->sum() : 0;
      s.hist_buckets[name] =
          h ? h->buckets()
            : std::array<std::uint64_t, telemetry::Histogram::kBuckets>{};
    }
    return s;
  }
};

// Percentile over the buckets recorded between two snapshots, as the upper
// bound of the bucket that holds it (Histogram::percentile's rule).
double delta_percentile(const RegistrySnapshot& a, const RegistrySnapshot& b,
                        const std::string& name, double p) {
  const auto& before = a.hist_buckets.at(name);
  const auto& after = b.hist_buckets.at(name);
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < before.size(); ++k) total += after[k] - before[k];
  if (total == 0) return 0;
  const double target = p / 100.0 * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t k = 0; k < before.size(); ++k) {
    cumulative += after[k] - before[k];
    if (cumulative > 0 && static_cast<double>(cumulative) >= target)
      return k == 0 ? 0.0 : static_cast<double>((std::uint64_t{1} << k) - 1);
  }
  return 0;
}

// Installs a span tracer for the calling thread for one scope.
struct ThreadSpans {
  explicit ThreadSpans(telemetry::SpanTracer* tracer) {
    telemetry::set_thread_spans(tracer);
  }
  ~ThreadSpans() { telemetry::set_thread_spans(nullptr); }
  ThreadSpans(const ThreadSpans&) = delete;
  ThreadSpans& operator=(const ThreadSpans&) = delete;
};

// The always-on introspection `torpedo run` installs for every campaign.
struct Introspection {
  feedback::SyscallProfile profile;
  feedback::MutationEfficacy efficacy;
  Introspection() {
    feedback::set_syscall_profile(&profile);
    feedback::set_mutation_efficacy(&efficacy);
  }
  ~Introspection() {
    feedback::set_syscall_profile(nullptr);
    feedback::set_mutation_efficacy(nullptr);
  }
  Introspection(const Introspection&) = delete;
  Introspection& operator=(const Introspection&) = delete;

  std::uint64_t syscalls() const {
    std::uint64_t n = 0;
    for (const auto& row : profile.rows()) n += row.executions;
    return n;
  }
};

void sim_clock(telemetry::SpanTracer& tracer, core::Campaign& campaign) {
  tracer.set_sim_clock(
      [](void* ctx) { return static_cast<sim::Host*>(ctx)->now(); },
      &campaign.kernel().host());
}

// ---- one campaign -----------------------------------------------------------

struct Sample {
  std::string error;  // non-empty: the campaign failed its output check
  double campaign_s = 0;
  double setup_s = 0;
  double cpu_s = 0;
  std::uint64_t executions = 0;
  std::uint64_t findings = 0;
  std::uint64_t digest = 0;
  // Reference-speed seconds per measured second (host_speed()).
  double speed = 1;
  // Deterministic per-layer counters.
  std::map<std::string, double> exact;
  // Per-layer wall timings the benchmark takes itself.
  std::map<std::string, double> timing;
  // Spans, one list per tracer (traced campaigns only).
  std::vector<std::vector<telemetry::Span>> spans;
};

struct Context {
  Workload workload;
  std::uint64_t seed = 0;
  std::string torpedo;  // built CLI, the fleet's worker binary
  fs::path dir;         // this campaign's workdir (relative)
};

// Counters every in-process workload derives from the registry, the
// introspection probes and the cgroup stats.
void in_process_counters(Sample& s, const RegistrySnapshot& a,
                         const RegistrySnapshot& b, const Introspection& intro,
                         std::uint64_t periods, std::uint64_t throttled) {
  auto d = [&](const char* name) {
    return static_cast<double>(b.counters.at(name) - a.counters.at(name));
  };
  const double execs = static_cast<double>(s.executions);
  s.exact["sim.quanta_per_exec"] = ratio(d("sim.quanta"), execs);
  s.exact["sim.picks_per_exec"] = ratio(d("sim.scheduler_picks"), execs);
  s.exact["sim.segments_per_exec"] = ratio(d("sim.segments_finished"), execs);
  s.exact["sim.wakeups_per_exec"] = ratio(d("sim.wakeups"), execs);
  s.exact["cgroup.periods_per_exec"] =
      ratio(static_cast<double>(periods), execs);
  s.exact["cgroup.throttled_per_exec"] =
      ratio(static_cast<double>(throttled), execs);
  s.exact["kernel.syscalls_per_exec"] =
      ratio(static_cast<double>(intro.syscalls()), execs);
  s.exact["runtime.container_crashes"] = d("exec.container_crashes");
  s.exact["runtime.container_restarts"] = d("exec.container_restarts");
  s.exact["exec.fatal_respawns_per_exec"] =
      ratio(d("exec.fatal_signal_respawns"), execs);
  s.exact["observer.rounds"] = d("observer.rounds");
  auto hist_s = [&](const char* name) {
    return static_cast<double>(b.hist_sums.at(name) - a.hist_sums.at(name)) /
           1e6;
  };
  s.timing["sim.run_until_s"] = hist_s("sim.run_until_wall_us");
  s.timing["observer.round_s"] = hist_s("observer.round_wall_us");
  s.timing["observer.snapshot_s"] = hist_s("observer.snapshot_wall_us");
  s.timing["observer.round_p50_ms"] =
      delta_percentile(a, b, "observer.round_wall_us", 50) / 1e3;
  s.timing["observer.round_p99_ms"] =
      delta_percentile(a, b, "observer.round_wall_us", 99) / 1e3;
  std::uint64_t tried = 0, accepted = 0;
  for (const auto& row : intro.efficacy.rows()) {
    tried += row.attempts;
    accepted += row.accepted;
  }
  s.exact["prog.mutations_per_exec"] =
      ratio(static_cast<double>(tried), execs);
  s.exact["prog.accept_ratio"] = ratio(static_cast<double>(accepted),
                                       static_cast<double>(tried));
}

void report_counters(Sample& s, const core::CampaignReport& report) {
  s.executions = report.executions;
  s.findings = report.findings.size() + report.crashes.size();
  s.exact["exec.executions"] = static_cast<double>(report.executions);
  s.exact["core.suspects"] = report.suspects;
  s.exact["core.confirmations"] = report.confirmations_run;
  s.exact["core.confirm_yield"] =
      ratio(static_cast<double>(report.findings.size()),
            report.confirmations_run);
}

// Sums nr_periods / nr_throttled over a campaign's container cgroups.
void cgroup_totals(core::Campaign& campaign, std::uint64_t& periods,
                   std::uint64_t& throttled) {
  for (int i = 0; i < campaign.config().num_executors; ++i) {
    const cgroup::CpuController& cpu = campaign.executor(
        static_cast<std::size_t>(i)).container().group().cpu();
    periods += cpu.nr_periods;
    throttled += cpu.nr_throttled;
  }
}

// `torpedo run --workdir` artifacts for a finished in-process campaign.
void write_artifacts(const fs::path& dir, const feedback::Corpus& corpus,
                     const core::CampaignReport& report,
                     const triage::TriageResult& tri,
                     const Introspection& intro,
                     std::span<const telemetry::TimeSeriesRecorder* const>
                         recorders,
                     const core::CampaignManifest& manifest) {
  core::save_corpus(dir / "corpus.txt", corpus);
  core::save_report(dir / "report.txt", report);
  triage::save_clusters(dir / "clusters.json", tri);
  core::write_violation_bundles(dir, report);
  {
    std::ofstream out(dir / "syscall_profile.json", std::ios::trunc);
    out << intro.profile.to_json(&kernel::sysno_name) << "\n";
  }
  core::save_timeseries(dir / "timeseries.jsonl", recorders);
  core::save_mutation_efficacy(dir / "mutation_efficacy.json", intro.efficacy);
  core::save_campaign_manifest(dir / "campaign.json", manifest);
}

Sample run_seq_quota(const Context& ctx) {
  Sample s;
  const core::CampaignConfig config = workload_config(ctx.workload);
  telemetry::SpanTracer* tracer = telemetry::spans();
  Introspection intro;
  const RegistrySnapshot before = RegistrySnapshot::take();
  const double cpu0 = cpu_now_s();
  const double t0 = now_s();
  std::unique_ptr<core::Campaign> campaign;
  core::CampaignReport report;
  triage::TriageResult tri;
  telemetry::TimeSeriesRecorder timeseries;
  telemetry::LiveStatus status;
  telemetry::HeartbeatWriter heartbeat(ctx.dir / "heartbeat.json");
  {
    telemetry::ScopedSpan root("bench.campaign");
    std::vector<prog::Program> seeds;
    {
      telemetry::ScopedSpan span("bench.seed_gen");
      seeds = workload_seeds(config, ctx.seed);
    }
    const double t_seeds = now_s();
    {
      telemetry::ScopedSpan span("bench.stack_build");
      campaign = std::make_unique<core::Campaign>(config);
    }
    const double t_stack = now_s();
    if (tracer) sim_clock(*tracer, *campaign);
    campaign->set_timeseries(&timeseries);
    campaign->set_live_status(&status);
    campaign->set_heartbeat(&heartbeat);
    {
      telemetry::ScopedSpan span("bench.load_seeds");
      campaign->load_seeds(std::move(seeds));
    }
    s.setup_s = now_s() - t0;
    for (int b = 0; b < config.batches; ++b) {
      telemetry::ScopedSpan span("bench.batch");
      campaign->run_one_batch();
    }
    {
      telemetry::ScopedSpan span("bench.finalize");
      report = campaign->finalize();
    }
    const double t_tri = now_s();
    {
      telemetry::ScopedSpan span("bench.triage");
      tri = triage::cluster_report(report,
                                   runtime::runtime_name(config.runtime));
    }
    const double t_art = now_s();
    {
      telemetry::ScopedSpan span("bench.artifacts");
      const telemetry::TimeSeriesRecorder* recorders[] = {&timeseries};
      write_artifacts(ctx.dir, campaign->corpus(), report, tri, intro,
                      recorders, core::CampaignManifest::from_config(config));
    }
    s.campaign_s = now_s() - t0;
    s.timing["core.seed_gen_s"] = t_seeds - t0;
    s.timing["core.stack_build_s"] = t_stack - t_seeds;
    s.timing["triage.cluster_s"] = t_art - t_tri;
  }
  s.cpu_s = cpu_now_s() - cpu0;
  report_counters(s, report);
  std::uint64_t periods = 0, throttled = 0;
  cgroup_totals(*campaign, periods, throttled);
  in_process_counters(s, before, RegistrySnapshot::take(), intro, periods,
                      throttled);
  if (tracer) s.spans.push_back(tracer->spans());
  return s;
}

Sample run_shards2_runsc(const Context& ctx, bool traced) {
  Sample s;
  const core::CampaignConfig config = workload_config(ctx.workload);
  Introspection intro;
  core::ShardedConfig sharded_config;
  sharded_config.base = config;
  sharded_config.shards = kParts;
  sharded_config.corpus_sync = true;

  // Per-shard slots, wired on the shard threads like `torpedo run --shards`.
  std::deque<telemetry::LiveStatus> statuses(kParts);
  std::deque<telemetry::TimeSeriesRecorder> timeseries;
  std::deque<telemetry::HeartbeatWriter> heartbeats;
  std::deque<telemetry::SpanTracer> tracers(kParts);
  for (int k = 0; k < kParts; ++k) {
    telemetry::TimeSeriesRecorder::Config ts_config;
    ts_config.shard = k;
    timeseries.emplace_back(ts_config);
    heartbeats.emplace_back(ctx.dir /
                            ("heartbeat.shard-" + std::to_string(k) + ".json"));
  }
  std::vector<double> ready_at(kParts, 0);
  std::vector<std::uint64_t> periods(kParts, 0), throttled(kParts, 0);

  const RegistrySnapshot before = RegistrySnapshot::take();
  const double cpu0 = cpu_now_s();
  const double t0 = now_s();
  core::CampaignReport report;
  triage::TriageResult tri;
  std::optional<core::ShardedCampaign> sharded;
  {
    telemetry::ScopedSpan root("bench.campaign");
    std::vector<prog::Program> seeds;
    {
      telemetry::ScopedSpan span("bench.seed_gen");
      seeds = workload_seeds(config, ctx.seed);
    }
    s.timing["core.seed_gen_s"] = now_s() - t0;
    const double t_run = now_s();
    sharded.emplace(sharded_config);
    sharded->set_seeds(std::move(seeds));
    sharded->set_shard_start_hook([&](int shard, core::Campaign& campaign) {
      const auto k = static_cast<std::size_t>(shard);
      campaign.set_live_status(&statuses[k]);
      campaign.set_timeseries(&timeseries[k]);
      campaign.set_heartbeat(&heartbeats[k]);
      if (traced) {
        sim_clock(tracers[k], campaign);
        telemetry::set_thread_spans(&tracers[k]);
      }
      ready_at[k] = now_s();
    });
    sharded->set_shard_finish_hook([&](int shard, core::Campaign& campaign) {
      const auto k = static_cast<std::size_t>(shard);
      statuses[k].set_done();
      cgroup_totals(campaign, periods[k], throttled[k]);
      if (traced) telemetry::set_thread_spans(nullptr);
    });
    try {
      telemetry::ScopedSpan span("bench.sharded_run");
      report = sharded->run();
    } catch (const std::exception& e) {
      s.error = e.what();
      return s;
    }
    const double t_tri = now_s();
    {
      telemetry::ScopedSpan span("bench.triage");
      tri = triage::cluster_report(report,
                                   runtime::runtime_name(config.runtime));
    }
    const double t_art = now_s();
    {
      telemetry::ScopedSpan span("bench.artifacts");
      std::vector<const telemetry::TimeSeriesRecorder*> recorders;
      for (const auto& r : timeseries) recorders.push_back(&r);
      core::CampaignManifest manifest =
          core::CampaignManifest::from_config(config);
      manifest.shards = kParts;
      manifest.corpus_sync = true;
      write_artifacts(ctx.dir, sharded->merged_corpus(), report, tri, intro,
                      recorders, manifest);
    }
    s.campaign_s = now_s() - t0;
    s.setup_s = *std::max_element(ready_at.begin(), ready_at.end()) - t0;
    s.timing["core.stack_build_s"] =
        *std::max_element(ready_at.begin(), ready_at.end()) - t_run;
    s.timing["triage.cluster_s"] = t_art - t_tri;
  }
  s.cpu_s = cpu_now_s() - cpu0;
  report_counters(s, report);
  std::uint64_t p = 0, t = 0;
  for (int k = 0; k < kParts; ++k) {
    p += periods[static_cast<std::size_t>(k)];
    t += throttled[static_cast<std::size_t>(k)];
  }
  in_process_counters(s, before, RegistrySnapshot::take(), intro, p, t);
  const feedback::CorpusHub::Stats hub = sharded->hub().stats();
  s.exact["feedback.hub_epochs"] = static_cast<double>(hub.epochs);
  s.exact["feedback.hub_published"] = static_cast<double>(hub.published);
  s.exact["feedback.hub_unique"] = static_cast<double>(hub.unique);
  s.exact["feedback.hub_pulled"] = static_cast<double>(hub.pulled);
  s.exact["feedback.hub_unique_ratio"] =
      ratio(static_cast<double>(hub.unique), static_cast<double>(hub.published));
  if (traced) {
    if (const telemetry::SpanTracer* main = telemetry::spans())
      s.spans.push_back(main->spans());
    for (const auto& tracer : tracers) s.spans.push_back(tracer.spans());
  }
  return s;
}

// Sums a key over the rows of one of the merged workdir's JSON tables.
std::uint64_t sum_rows(const fs::path& file, const char* array_key,
                       const char* field) {
  const auto text = read_file(file);
  if (!text) return 0;
  const auto doc = telemetry::parse_json_object(*text);
  if (!doc) return 0;
  const auto it = doc->find(array_key);
  if (it == doc->end()) return 0;
  const auto rows = telemetry::parse_json_array_of_objects(it->second.text);
  if (!rows) return 0;
  std::uint64_t total = 0;
  for (const auto& row : *rows)
    if (auto f = row.find(field); f != row.end())
      total += static_cast<std::uint64_t>(f->second.integer);
  return total;
}

// Finding and crash blocks of a saved report.
std::uint64_t count_findings(const fs::path& report_file) {
  std::istringstream in(read_file(report_file).value_or(""));
  std::uint64_t n = 0;
  for (std::string line; std::getline(in, line);)
    if (line.rfind("== finding:", 0) == 0 || line.rfind("== crash ==", 0) == 0)
      ++n;
  return n;
}

Sample run_fleet2(const Context& ctx) {
  Sample s;
  const core::CampaignConfig config = workload_config(ctx.workload);
  const fs::path seeds_dir = ctx.dir / "seeds";
  const fs::path workdir = ctx.dir / "fleet";

  const double cpu0 = cpu_now_s();
  const double t0 = now_s();
  fleet::Coordinator::Result result;
  std::optional<fleet::Coordinator> coordinator;
  std::atomic<double> ready_at{0};
  {
    telemetry::ScopedSpan root("bench.campaign");
    {
      telemetry::ScopedSpan span("bench.seed_gen");
      core::write_seed_files(seeds_dir, workload_seeds(config, ctx.seed));
    }
    s.timing["core.seed_gen_s"] = now_s() - t0;
    fleet::FleetConfig fleet_config;
    fleet_config.manifest.workers = kParts;
    fleet_config.manifest.defaults = core::CampaignManifest::from_config(config);
    fleet_config.manifest.defaults.seeds_dir = seeds_dir.string();
    fleet_config.workdir = workdir;
    fleet_config.worker_binary = ctx.torpedo;
    coordinator.emplace(std::move(fleet_config));

    // A worker is up once it has connected, built its stack, loaded the
    // seeds and stamped the heartbeat of its first round. The watcher stops
    // and is joined when the coordinator returns or throws.
    std::jthread watcher([&](std::stop_token stop) {
      std::vector<bool> seen(kParts, false);
      int up = 0;
      while (!stop.stop_requested()) {
        for (int k = 0; k < kParts; ++k) {
          std::error_code ec;
          if (!seen[static_cast<std::size_t>(k)] &&
              fs::exists(workdir / "workers" / std::to_string(k) /
                             "heartbeat.json",
                         ec)) {
            seen[static_cast<std::size_t>(k)] = true;
            ++up;
          }
        }
        if (up == kParts) {
          ready_at = now_s();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    {
      telemetry::ScopedSpan span("bench.coordinator");
      result = coordinator->run();
    }
    watcher.request_stop();
    watcher.join();
    s.campaign_s = now_s() - t0;
  }
  s.cpu_s = cpu_now_s() - cpu0;
  if (ready_at.load() > 0) s.setup_s = ready_at.load() - t0;

  if (!result.ok) s.error = "fleet result not ok";
  if (result.restarts != 0) s.error = "fleet restarted a worker";
  if (s.setup_s <= 0) s.error = "no worker heartbeat seen";
  s.executions = result.executions;
  s.findings = count_findings(workdir / "report.txt");
  const double execs = static_cast<double>(s.executions);
  std::uint64_t rounds = 0;
  for (const fleet::WorkerStatus& st : coordinator->workers())
    rounds += static_cast<std::uint64_t>(st.rounds);
  s.exact["exec.executions"] = execs;
  s.exact["observer.rounds"] = static_cast<double>(rounds);
  s.exact["kernel.syscalls_per_exec"] = ratio(
      static_cast<double>(
          sum_rows(workdir / "syscall_profile.json", "syscalls", "executions")),
      execs);
  const auto tried = static_cast<double>(
      sum_rows(workdir / "mutation_efficacy.json", "ops", "attempts"));
  const auto accepted = static_cast<double>(
      sum_rows(workdir / "mutation_efficacy.json", "ops", "accepted"));
  s.exact["prog.mutations_per_exec"] = ratio(tried, execs);
  s.exact["prog.accept_ratio"] = ratio(accepted, tried);
  const feedback::CorpusLedger::Stats& hub = coordinator->ledger().stats();
  s.exact["feedback.hub_epochs"] = static_cast<double>(hub.epochs);
  s.exact["feedback.hub_published"] = static_cast<double>(hub.published);
  s.exact["feedback.hub_unique"] = static_cast<double>(hub.unique);
  s.exact["feedback.hub_pulled"] = static_cast<double>(hub.pulled);
  s.exact["feedback.hub_unique_ratio"] =
      ratio(static_cast<double>(hub.unique), static_cast<double>(hub.published));
  s.exact["fleet.restarts"] = result.restarts;
  s.timing["fleet.merge_s"] = static_cast<double>(result.merge_wall_ns) / 1e9;
  if (const telemetry::SpanTracer* tracer = telemetry::spans())
    s.spans.push_back(tracer->spans());
  return s;
}

Sample run_campaign(const Context& ctx, bool traced) {
  std::error_code ec;
  fs::remove_all(ctx.dir, ec);
  fs::create_directories(ctx.dir, ec);
  telemetry::SpanTracer main_tracer;
  Sample s;
  {
    ThreadSpans spans(traced ? &main_tracer : nullptr);
    try {
      switch (ctx.workload) {
        case Workload::kSeqQuota:
          s = run_seq_quota(ctx);
          break;
        case Workload::kShards2Runsc:
          s = run_shards2_runsc(ctx, traced);
          break;
        case Workload::kFleet2:
          s = run_fleet2(ctx);
          break;
      }
    } catch (const std::exception& e) {
      s.error = e.what();
    }
  }
  if (s.error.empty()) {
    const fs::path artifacts =
        ctx.workload == Workload::kFleet2 ? ctx.dir / "fleet" : ctx.dir;
    s.digest = workdir_digest(artifacts);
    if (s.executions == 0) s.error = "no executions";
  }
  fs::remove_all(ctx.dir, ec);
  return s;
}

// ---- spans: self time per layer --------------------------------------------

// The src/ module a span's self time is charged to.
std::string layer_of(std::string_view name) {
  auto starts = [&](std::string_view p) { return name.rfind(p, 0) == 0; };
  if (name == "oracle.flag") return "oracle";
  if (name == "round.measure") return "sim";
  if (name == "exec") return "exec";
  if (starts("round")) return "observer";
  if (name == "bench.triage") return "triage";
  if (name == "bench.coordinator") return "fleet";
  // The benchmark's own root, and its wait for the shard threads (whose work
  // is in the shard tracers).
  if (name == "bench.campaign" || name == "bench.sharded_run") return "bench";
  return "core";  // campaign.*, fuzz.*, finalize.*, confirm.*, minimize, bench.*
}

// Self time per layer (a span's wall duration minus the part its direct
// children cover) and total wall time per span name. Span ids and parents
// are per tracer, so each tracer's list is resolved on its own.
struct SpanTotals {
  std::map<std::string, double> self_by_layer;
  std::map<std::string, double> wall_by_name;
  std::vector<double> batch_s;  // each campaign.batch span
  std::uint64_t spans = 0;
};

SpanTotals span_totals(const std::vector<std::vector<telemetry::Span>>& groups) {
  SpanTotals t;
  for (const auto& spans : groups) {
    std::unordered_map<std::uint64_t, Nanos> child_wall;
    for (const telemetry::Span& sp : spans)
      if (sp.parent != 0) child_wall[sp.parent] += sp.wall_duration();
    for (const telemetry::Span& sp : spans) {
      const Nanos self =
          std::max<Nanos>(0, sp.wall_duration() - child_wall[sp.id]);
      t.self_by_layer[layer_of(sp.name)] += static_cast<double>(self) / 1e9;
      const double wall = static_cast<double>(sp.wall_duration()) / 1e9;
      t.wall_by_name[sp.name] += wall;
      if (sp.name == "campaign.batch") t.batch_s.push_back(wall);
      ++t.spans;
    }
  }
  return t;
}

// Every per-layer metric, in output order, with its unit. A metric a
// workload does not load reads 0 (see perfbench/README.md).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"sim.quanta_per_exec", "1/exec"},
    {"sim.picks_per_exec", "1/exec"},
    {"sim.segments_per_exec", "1/exec"},
    {"sim.wakeups_per_exec", "1/exec"},
    {"sim.run_until_s", "s"},
    {"sim.self_s", "s"},
    {"cgroup.periods_per_exec", "1/exec"},
    {"cgroup.throttled_per_exec", "1/exec"},
    {"kernel.syscalls_per_exec", "1/exec"},
    {"runtime.container_crashes", "count"},
    {"runtime.container_restarts", "count"},
    {"exec.executions", "count"},
    {"exec.fatal_respawns_per_exec", "1/exec"},
    {"observer.rounds", "count"},
    {"observer.round_s", "s"},
    {"observer.round_p50_ms", "ms"},
    {"observer.round_p99_ms", "ms"},
    {"observer.snapshot_s", "s"},
    {"observer.self_s", "s"},
    {"oracle.flag_s", "s"},
    {"oracle.self_s", "s"},
    {"prog.mutations_per_exec", "1/exec"},
    {"prog.accept_ratio", "ratio"},
    {"core.stack_build_s", "s"},
    {"core.seed_gen_s", "s"},
    {"core.batch_median_s", "s"},
    {"core.batch_max_s", "s"},
    {"core.finalize_s", "s"},
    {"core.confirm_s", "s"},
    {"core.minimize_s", "s"},
    {"core.suspects", "count"},
    {"core.confirmations", "count"},
    {"core.confirm_yield", "ratio"},
    {"core.self_s", "s"},
    {"feedback.hub_epochs", "count"},
    {"feedback.hub_published", "count"},
    {"feedback.hub_unique", "count"},
    {"feedback.hub_pulled", "count"},
    {"feedback.hub_unique_ratio", "ratio"},
    {"feedback.barrier_idle_share", "ratio"},
    {"triage.cluster_s", "s"},
    {"fleet.merge_s", "s"},
    {"fleet.restarts", "count"},
    {"telemetry.spans", "count"},
    {"telemetry.trace_overhead_pct", "%"},
};

// "name":{"value":...,"unit":"..."} with every digit of the value.
std::string metric_json(const char* name, double value, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                name, value, unit);
  return buf;
}

// Per-layer numbers of a traced run: exact counters from the traced
// campaigns (identical in every campaign of the run, or the run fails),
// timings as medians over the traced campaigns.
std::map<std::string, double> layer_metrics(Workload workload,
                                            const std::vector<Sample>& untraced,
                                            const std::vector<Sample>& traced) {
  std::map<std::string, double> m = traced.front().exact;
  std::map<std::string, std::vector<double>> samples;
  for (const Sample& s : traced) {
    for (const auto& [name, v] : s.timing) samples[name].push_back(v);
    const SpanTotals t = span_totals(s.spans);
    for (const char* layer : {"sim", "observer", "oracle", "core"}) {
      const auto it = t.self_by_layer.find(layer);
      samples[std::string(layer) + ".self_s"].push_back(
          it == t.self_by_layer.end() ? 0 : it->second);
    }
    auto wall = [&](const char* name) {
      const auto it = t.wall_by_name.find(name);
      return it == t.wall_by_name.end() ? 0.0 : it->second;
    };
    samples["oracle.flag_s"].push_back(wall("oracle.flag"));
    samples["core.finalize_s"].push_back(wall("campaign.finalize"));
    samples["core.confirm_s"].push_back(wall("finalize.confirm"));
    samples["core.minimize_s"].push_back(wall("minimize"));
    if (!t.batch_s.empty()) {
      samples["core.batch_median_s"].push_back(median(t.batch_s));
      samples["core.batch_max_s"].push_back(
          *std::max_element(t.batch_s.begin(), t.batch_s.end()));
    }
    m["telemetry.spans"] = static_cast<double>(t.spans);
  }
  for (const auto& [name, v] : samples) m[name] = median(v);

  std::vector<double> plain_s, traced_s, idle;
  for (const Sample& s : untraced) {
    plain_s.push_back(s.campaign_s * s.speed);
    idle.push_back(1 - s.cpu_s / (kParts * s.campaign_s));
  }
  for (const Sample& s : traced) traced_s.push_back(s.campaign_s * s.speed);
  m["telemetry.trace_overhead_pct"] =
      (median(traced_s) / median(plain_s) - 1) * 100;
  if (workload != Workload::kSeqQuota)
    m["feedback.barrier_idle_share"] = median(idle);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    args[argv[i] + 2] = argv[i + 1];
  }
  const auto workload = workload_from_name(args["workload"]);
  if (!workload || !args.count("seed") || !args.count("seconds") ||
      !args.count("torpedo") || !args.count("digest-file")) {
    std::fputs("usage: campaign_bench --workload W --seed N --seconds S "
               "--trace 0|1 --torpedo PATH --digest-file FILE "
               "[--spans-out FILE]\n",
               stderr);
    return 2;
  }
  const bool trace = args["trace"] == "1";
  const double budget_s = std::strtod(args["seconds"].c_str(), nullptr);
  Context ctx;
  ctx.workload = *workload;
  ctx.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  ctx.torpedo = args["torpedo"];
  ctx.dir = "campaign-" + std::to_string(::getpid());

  // The reference digest is the first one ever recorded for this
  // (workload, seed); every later campaign must reproduce it.
  const fs::path digest_file = args["digest-file"];
  std::optional<std::uint64_t> reference;
  if (const auto text = read_file(digest_file))
    reference = std::strtoull(text->c_str(), nullptr, 16);

  // At least three campaigns (two untraced/traced pairs when tracing), so
  // the two-worker fleet's ~18 s campaigns still give a median; more while
  // the next one is expected to end inside the budget.
  const std::size_t min_campaigns = trace ? 4 : 3;
  std::vector<Sample> untraced, traced;
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, double> counters;  // first campaign's exact counters
  probe_once_s();  // faults in the probe's buffers before the first timing
  const double start = now_s();
  for (;;) {
    const bool traced_now = trace && attempted % 2 == 1;
    const double speed = host_speed();
    Sample s = run_campaign(ctx, traced_now);
    s.speed = speed;
    ++attempted;
    if (s.error.empty()) {
      if (!reference) {
        reference = s.digest;
        fs::create_directories(digest_file.parent_path());
        std::ofstream(digest_file) << std::hex << s.digest << "\n";
      }
      if (s.digest != *reference) s.error = "report digest differs";
    }
    if (s.error.empty()) {
      if (counters.empty()) counters = s.exact;
      if (s.exact != counters) s.error = "per-layer counters differ";
    }
    std::fprintf(stderr,
                 "campaign %llu%s: %.3f s, setup %.4f s, cpu %.3f s, "
                 "speed %.4f, %llu executions, %llu findings, "
                 "digest %016llx%s%s\n",
                 static_cast<unsigned long long>(attempted),
                 traced_now ? " (traced)" : "", s.campaign_s, s.setup_s,
                 s.cpu_s, s.speed,
                 static_cast<unsigned long long>(s.executions),
                 static_cast<unsigned long long>(s.findings),
                 static_cast<unsigned long long>(s.digest),
                 s.error.empty() ? "" : " FAILED: ", s.error.c_str());
    if (!s.error.empty()) {
      ++failed;
    } else {
      (traced_now ? traced : untraced).push_back(std::move(s));
    }
    const double elapsed = now_s() - start;
    const double per_campaign = elapsed / static_cast<double>(attempted);
    if (attempted >= min_campaigns && elapsed + per_campaign > budget_s) break;
  }

  std::string metrics;
  auto add = [&](const char* name, double value, const char* unit) {
    if (!metrics.empty()) metrics += ",";
    metrics += metric_json(name, value, unit);
  };
  if (!trace) {
    std::vector<double> campaign_s, execs_per_s, setup_s, cpu_s, findings;
    for (const Sample& s : untraced) {
      campaign_s.push_back(s.campaign_s * s.speed);
      execs_per_s.push_back(static_cast<double>(s.executions) /
                            (s.campaign_s * s.speed));
      setup_s.push_back(s.setup_s * s.speed);
      cpu_s.push_back(s.cpu_s * s.speed);
      findings.push_back(static_cast<double>(s.findings));
    }
    add("campaign_s", median(campaign_s), "s");
    add("execs_per_s", median(execs_per_s), "1/s");
    add("setup_s", median(setup_s), "s");
    add("cpu_s", median(cpu_s), "s");
    add("peak_rss_mb", peak_rss_mb(), "MB");
    add("findings", median(findings), "count");
  } else {
    std::map<std::string, double> m;
    if (!traced.empty() && !untraced.empty())
      m = layer_metrics(*workload, untraced, traced);
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = m.find(name);
      add(name, it == m.end() ? 0.0 : it->second, unit);
    }
    if (args.count("spans-out") && !traced.empty()) {
      // The last traced campaign's spans, one JSON object per line.
      const fs::path out_file = args["spans-out"];
      fs::create_directories(out_file.parent_path());
      std::ofstream out(out_file, std::ios::trunc);
      const Sample& last = traced.back();
      for (std::size_t g = 0; g < last.spans.size(); ++g)
        for (const telemetry::Span& sp : last.spans[g])
          out << telemetry::JsonDict{}
                     .set("tracer", static_cast<std::uint64_t>(g))
                     .set("id", sp.id)
                     .set("parent", sp.parent)
                     .set("name", sp.name)
                     .set("layer", layer_of(sp.name))
                     .set("wall_begin_ns", sp.wall_begin_ns)
                     .set("wall_end_ns", sp.wall_end_ns)
                     .set("sim_begin_ns", sp.sim_begin_ns)
                     .set("sim_end_ns", sp.sim_end_ns)
                     .to_string()
              << "\n";
    }
  }
  const bool correct = failed == 0 && !untraced.empty() &&
                       (!trace || !traced.empty());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
