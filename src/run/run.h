// The campaign run path: one instrument wiring and one workdir writer.
//
// Every way of running a campaign — `torpedo run` with one part or
// `--shards N` parts, a fleet worker process, the selftest replay and the
// determinism goldens — goes through this module:
//
//   * ProbeScope installs the always-on probes (per-syscall attribution,
//     per-operator mutation efficacy) and restores the previous ones.
//   * Instruments owns every part's instruments (LiveStatus, signal-growth
//     recorder, heartbeat, watchdog, JSONL trace sink, span tracer) plus
//     the live monitor, and wires a part into its Campaign with attach() —
//     called on the calling thread for a one-part run and as
//     ShardedCampaign's start hook for a multi-part one.
//   * write_workdir() is the only writer of the workdir artifact set that
//     `torpedo report`, `stats`, `diff` and `selftest --replay` read. A
//     run writes it through Instruments::write_workdir(); the fleet
//     coordinator calls it with its workers' folded results.
//   * run_campaign() ties them together.
//
// A one-part run stays on plain Campaign, chosen by the shard count: a
// ShardedCampaign with one shard stamps `shard 0` into corpus lineage,
// report.txt and provenance, so its artifacts are not the sequential ones.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/workdir.h"
#include "feedback/corpus_hub.h"
#include "feedback/mutation_efficacy.h"
#include "feedback/syscall_profile.h"
#include "telemetry/monitor.h"
#include "telemetry/span.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"
#include "triage/cluster.h"

namespace torpedo::run {

// Installs a fresh syscall profile and mutation-efficacy table as the
// process-wide probes for this object's lifetime, then puts back whatever
// was installed before.
class ProbeScope {
 public:
  ProbeScope();
  ~ProbeScope();
  ProbeScope(const ProbeScope&) = delete;
  ProbeScope& operator=(const ProbeScope&) = delete;

  feedback::SyscallProfile profile;
  feedback::MutationEfficacy efficacy;

 private:
  feedback::SyscallProfile* previous_profile_;
  feedback::MutationEfficacy* previous_efficacy_;
};

// One campaign run, as `torpedo run`'s flags describe it.
struct RunOptions {
  core::CampaignConfig config;
  int shards = 1;            // > 1: a ShardedCampaign, one part per shard
  bool corpus_sync = true;   // shards trade corpus entries through the hub
  std::string seeds_dir;     // "" = default Moonshine-like corpus
  std::filesystem::path workdir;  // "" = no heartbeat and no artifacts
  std::string trace;         // JSONL round trace ("" = off)
  std::string metrics;       // final telemetry counters as JSON ("" = off)
  std::string chrome_trace;  // phase spans as a Chrome trace ("" = off)
  int monitor_port = -1;     // < 0 = off; 0 = ephemeral port
  long watchdog_seconds = 0; // stall budget; 0 = no watchdog
  bool watchdog_abort = false;
};

// Per-part file naming: a one-part run writes `path` itself; part k of a
// multi-part run writes "foo.shard-k.ext" next to it.
std::string part_file(const std::string& path, int part, int parts);

// The only writer of the workdir artifact set: corpus.txt, report.txt,
// clusters.json, the violation bundles, syscall_profile.json,
// timeseries.jsonl (shard-major in span order), mutation_efficacy.json and
// campaign.json (the manifest `selftest --replay` re-runs from), under
// `dir`. Returns the number of violation bundles.
std::size_t write_workdir(const std::filesystem::path& dir,
                          const feedback::Corpus& corpus,
                          const core::CampaignReport& report,
                          const triage::TriageResult& clusters,
                          const feedback::SyscallProfile& profile,
                          const feedback::MutationEfficacy& efficacy,
                          std::span<const telemetry::SampleSeries> timeseries,
                          const core::CampaignManifest& manifest);

// The instruments of one run: the probes, one slot per part, and the live
// monitor that serves them.
class Instruments {
 public:
  // Builds options.shards parts. `shard` is the shard a one-part run's
  // time series is stamped with (a fleet worker passes its worker id);
  // part k of a multi-part run is always shard k.
  explicit Instruments(const RunOptions& options, int shard = -1);
  ~Instruments();

  Instruments(const Instruments&) = delete;
  Instruments& operator=(const Instruments&) = delete;

  // Non-empty when an output file could not be opened.
  const std::string& error() const { return error_; }

  // Wires part `part`'s instruments into `campaign`. Must run on the
  // thread that runs the campaign: the part's span tracer is installed
  // for that thread only.
  void attach(int part, core::Campaign& campaign);
  // After finalize(), on the same thread: marks the part done (its
  // watchdog stops counting quiet as a stall), uninstalls its tracer and
  // records its final sim time for metrics.json.
  void detach(int part, core::Campaign& campaign);

  // Starts the monitor if the run asked for one (a watchdog implies one)
  // and stamps its bound port into every heartbeat. False if it could not
  // bind; the run then goes on without a monitor.
  bool start_monitor();
  // The bound port, or -1 when no monitor is running.
  int monitor_port() const;
  // Serves the clustered findings on /findings and /clusters, then stops
  // the monitor.
  void finish(const triage::TriageResult& clusters);

  // write_workdir() into options.workdir with this run's probes, every
  // part's time series and the run's manifest.
  std::size_t write_workdir(const feedback::Corpus& corpus,
                            const core::CampaignReport& report,
                            const triage::TriageResult& clusters) const;

  const ProbeScope& probes() const { return probes_; }
  const telemetry::TimeSeriesRecorder& timeseries(int part) const {
    return parts_[static_cast<std::size_t>(part)].timeseries;
  }

  std::uint64_t trace_records() const;
  Nanos sim_end_ns() const { return sim_end_ns_.load(); }

  // Writes the Chrome trace (plus one file per part when there are several
  // parts); returns the span count, or an error message in `error`.
  std::size_t write_chrome_trace(const std::string& path,
                                 std::string* error) const;

 private:
  struct Part {
    explicit Part(int shard);
    telemetry::LiveStatus status;
    telemetry::TimeSeriesRecorder timeseries;
    std::optional<telemetry::HeartbeatWriter> heartbeat;
    std::optional<telemetry::Watchdog> watchdog;
    std::optional<telemetry::TraceSink> trace;
    std::optional<telemetry::SpanTracer> tracer;
  };

  RunOptions options_;
  ProbeScope probes_;
  std::deque<Part> parts_;  // deque: the monitor holds pointers into it
  triage::LiveTriage live_triage_;
  int requested_port_ = -1;
  std::atomic<Nanos> sim_end_ns_{0};
  std::string error_;
  // Last: stopped and destroyed before the parts it reads.
  std::optional<telemetry::MonitorServer> monitor_;
};

// Live progress for a caller that reports while the run goes (the CLI's
// stdout). Every member is optional and runs on the calling thread.
struct RunProgress {
  std::function<void(std::size_t seeds,
                     const std::vector<std::string>& errors)>
      seeds_loaded;
  std::function<void(int port)> monitor_started;
  // One-part runs only: shards run their batches on their own threads.
  std::function<void(int batch, const core::BatchResult& result)> batch_done;
};

struct RunResult {
  // Non-empty: the run failed; a one-line message for stderr.
  std::string error;
  core::CampaignReport report;  // merged across shards
  triage::TriageResult clusters;
  std::vector<core::CampaignReport> shard_reports;  // multi-part runs only
  feedback::CorpusHub::Stats hub;                   // multi-part runs only
  std::size_t bundles = 0;  // violation bundles written to the workdir
  std::uint64_t trace_records = 0;
  std::size_t spans = 0;  // spans written to the Chrome trace
};

// Runs the whole campaign: instruments, seeds, batches, finalize, triage,
// then the workdir and the metrics/trace outputs the options name.
RunResult run_campaign(const RunOptions& options,
                       const RunProgress& progress = {});

}  // namespace torpedo::run
