#include "run/run.h"

#include <algorithm>
#include <exception>
#include <fstream>
#include <memory>

#include "core/provenance.h"
#include "core/sharded.h"
#include "core/workdir.h"
#include "kernel/syscalls.h"
#include "sim/host.h"
#include "util/strings.h"

namespace torpedo::run {

namespace fs = std::filesystem;

namespace {

// Output files may point into a not-yet-created workdir.
void ensure_parent(const std::string& path) {
  const fs::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(p.parent_path(), ec);
  }
}

}  // namespace

ProbeScope::ProbeScope()
    : previous_profile_(feedback::syscall_profile()),
      previous_efficacy_(feedback::mutation_efficacy()) {
  feedback::set_syscall_profile(&profile);
  feedback::set_mutation_efficacy(&efficacy);
}

ProbeScope::~ProbeScope() {
  feedback::set_syscall_profile(previous_profile_);
  feedback::set_mutation_efficacy(previous_efficacy_);
}

std::string part_file(const std::string& path, int part, int parts) {
  if (parts == 1) return path;
  const fs::path p(path);
  fs::path out = p.parent_path() / p.stem();
  out += ".shard-" + std::to_string(part);
  out += p.extension();
  return out.string();
}

// --- workdir writer -----------------------------------------------------------

std::size_t write_workdir(const fs::path& dir, const feedback::Corpus& corpus,
                          const core::CampaignReport& report,
                          const triage::TriageResult& clusters,
                          const feedback::SyscallProfile& profile,
                          const feedback::MutationEfficacy& efficacy,
                          std::span<const telemetry::SampleSeries> timeseries,
                          const core::CampaignManifest& manifest) {
  core::save_corpus(dir / "corpus.txt", corpus);
  core::save_report(dir / "report.txt", report);
  triage::save_clusters(dir / "clusters.json", clusters);
  const std::size_t bundles = core::write_violation_bundles(dir, report);
  {
    std::ofstream out(dir / "syscall_profile.json", std::ios::trunc);
    if (out) out << profile.to_json(&kernel::sysno_name) << "\n";
  }
  core::save_timeseries(dir / "timeseries.jsonl", timeseries);
  core::save_mutation_efficacy(dir / "mutation_efficacy.json", efficacy);
  core::save_campaign_manifest(dir / "campaign.json", manifest);
  return bundles;
}

// --- Instruments --------------------------------------------------------------

Instruments::Part::Part(int shard)
    : timeseries(telemetry::TimeSeriesRecorder::Config{.shard = shard}) {}

Instruments::Instruments(const RunOptions& options, int shard)
    : options_(options) {
  const int parts = options.shards;
  for (int k = 0; k < parts; ++k) {
    Part& part = parts_.emplace_back(parts == 1 ? shard : k);
    if (!options.workdir.empty())
      part.heartbeat.emplace(
          options.workdir /
          part_file("heartbeat.json", k, parts));
    if (options.watchdog_seconds > 0) {
      telemetry::Watchdog::Config config;
      config.stall_budget_wall_ns =
          static_cast<Nanos>(options.watchdog_seconds) * kSecond;
      config.abort_on_stall = options.watchdog_abort;
      part.watchdog.emplace(config);
    }
    // The watchdog names the open span stack of the part it watches, so it
    // implies a tracer even without a Chrome trace.
    if (!options.chrome_trace.empty() || part.watchdog) {
      part.tracer.emplace();
      if (part.watchdog) part.watchdog->set_spans(&*part.tracer);
    }
    if (!options.trace.empty()) {
      const std::string path = part_file(options.trace, k, parts);
      ensure_parent(path);
      part.trace.emplace(path);
      if (!part.trace->ok() && error_.empty())
        error_ = "cannot open trace file " + path;
    }
  }
  // The watchdog samples progress on the monitor thread, so a watchdog
  // without a monitor port still starts the server on an ephemeral port.
  requested_port_ = options.monitor_port >= 0 ? options.monitor_port
                    : options.watchdog_seconds > 0 ? 0
                                                   : -1;
}

Instruments::~Instruments() {
  if (monitor_) monitor_->stop();
  // A one-part run that threw before detach() left its tracer installed on
  // this thread.
  for (Part& part : parts_)
    if (part.tracer && telemetry::spans() == &*part.tracer)
      telemetry::set_thread_spans(nullptr);
}

void Instruments::attach(int part, core::Campaign& campaign) {
  Part& p = parts_[static_cast<std::size_t>(part)];
  campaign.set_live_status(&p.status);
  campaign.set_timeseries(&p.timeseries);
  if (p.heartbeat) campaign.set_heartbeat(&*p.heartbeat);
  if (p.watchdog) campaign.set_watchdog(&*p.watchdog);
  if (p.trace) campaign.set_trace_sink(&*p.trace);
  if (p.tracer) {
    p.tracer->set_sim_clock(
        [](void* ctx) { return static_cast<sim::Host*>(ctx)->now(); },
        &campaign.kernel().host());
    telemetry::set_thread_spans(&*p.tracer);
  }
}

void Instruments::detach(int part, core::Campaign& campaign) {
  Part& p = parts_[static_cast<std::size_t>(part)];
  p.status.set_done();
  if (p.tracer) telemetry::set_thread_spans(nullptr);
  const Nanos sim = campaign.kernel().host().now();
  Nanos cur = sim_end_ns_.load(std::memory_order_relaxed);
  while (sim > cur && !sim_end_ns_.compare_exchange_weak(
                          cur, sim, std::memory_order_relaxed)) {
  }
}

bool Instruments::start_monitor() {
  if (requested_port_ < 0) return true;
  telemetry::MonitorServer::Config config;
  config.port = requested_port_;
  monitor_.emplace(config);
  if (parts_.size() == 1) {
    monitor_->set_status(&parts_[0].status);
    if (parts_[0].watchdog) monitor_->set_watchdog(&*parts_[0].watchdog);
  } else {
    for (std::size_t k = 0; k < parts_.size(); ++k)
      monitor_->add_shard(static_cast<int>(k), &parts_[k].status,
                          parts_[k].watchdog ? &*parts_[k].watchdog : nullptr);
  }
  monitor_->set_extra_metrics([this] {
    return probes_.profile.to_prometheus(&kernel::sysno_name) +
           probes_.efficacy.to_prometheus() + live_triage_.to_prometheus();
  });
  // /findings and /clusters serve empty arrays until finish() installs the
  // clustered result.
  for (const char* endpoint : {"/findings", "/clusters"})
    monitor_->add_json_endpoint(endpoint, [this](std::string_view path) {
      return live_triage_.handle(path);
    });
  if (!monitor_->start()) {
    monitor_.reset();
    return false;
  }
  // An ephemeral port is only known now; every heartbeat stamp carries it
  // so external tooling (the fleet coordinator) can find the endpoint.
  for (Part& part : parts_)
    if (part.heartbeat) part.heartbeat->set_monitor_port(monitor_->port());
  return true;
}

int Instruments::monitor_port() const {
  return monitor_ ? monitor_->port() : -1;
}

void Instruments::finish(const triage::TriageResult& clusters) {
  live_triage_.install(clusters);
  if (monitor_) monitor_->stop();
}

std::size_t Instruments::write_workdir(
    const feedback::Corpus& corpus, const core::CampaignReport& report,
    const triage::TriageResult& clusters) const {
  std::vector<telemetry::SampleSeries> timeseries;
  for (const Part& part : parts_)
    timeseries.push_back(part.timeseries.series());
  core::CampaignManifest manifest =
      core::CampaignManifest::from_config(options_.config);
  manifest.seeds_dir = options_.seeds_dir;
  if (parts_.size() > 1) {
    manifest.shards = options_.shards;
    manifest.corpus_sync = options_.corpus_sync;
  }
  return run::write_workdir(options_.workdir, corpus, report, clusters,
                            probes_.profile, probes_.efficacy, timeseries,
                            manifest);
}

std::uint64_t Instruments::trace_records() const {
  std::uint64_t records = 0;
  for (const Part& part : parts_)
    if (part.trace) records += part.trace->records();
  return records;
}

std::size_t Instruments::write_chrome_trace(const std::string& path,
                                            std::string* error) const {
  ensure_parent(path);
  auto open = [error](const std::string& file, std::ofstream& out) {
    out.open(file, std::ios::trunc);
    if (!out) *error = "cannot open chrome trace file " + file;
    return static_cast<bool>(out);
  };
  if (parts_.size() == 1) {
    std::ofstream out;
    if (!open(path, out)) return 0;
    parts_[0].tracer->write_chrome_trace(out);
    return parts_[0].tracer->spans().size();
  }
  // One file per part (its own spans, pid = shard) plus the merged trace at
  // `path` with every shard in its own process lane.
  const int parts = static_cast<int>(parts_.size());
  std::size_t spans = 0;
  std::vector<std::pair<int, const telemetry::SpanTracer*>> lanes;
  for (int k = 0; k < parts; ++k) {
    const telemetry::SpanTracer& tracer =
        *parts_[static_cast<std::size_t>(k)].tracer;
    std::ofstream out;
    if (!open(part_file(path, k, parts), out)) return 0;
    tracer.write_chrome_trace(out, k);
    spans += tracer.spans().size();
    lanes.emplace_back(k, &tracer);
  }
  std::ofstream out;
  if (!open(path, out)) return 0;
  telemetry::write_merged_chrome_trace(out, lanes);
  return spans;
}

// --- run_campaign -------------------------------------------------------------

RunResult run_campaign(const RunOptions& options,
                       const RunProgress& progress) {
  RunResult result;
  Instruments instruments(options);
  if (!instruments.error().empty()) {
    result.error = instruments.error();
    return result;
  }

  std::optional<std::vector<prog::Program>> seeds;
  if (!options.seeds_dir.empty()) {
    std::vector<std::string> errors;
    seeds = core::load_seed_files(options.seeds_dir, &errors);
    if (progress.seeds_loaded) progress.seeds_loaded(seeds->size(), errors);
  }

  if (!instruments.start_monitor()) {
    result.error = format("cannot bind monitor to 127.0.0.1:%d",
                          std::max(options.monitor_port, 0));
    return result;
  }
  if (instruments.monitor_port() >= 0 && progress.monitor_started)
    progress.monitor_started(instruments.monitor_port());

  // The stack outlives the run for the corpus write below.
  std::unique_ptr<core::Campaign> campaign;
  std::unique_ptr<core::ShardedCampaign> sharded;
  try {
    if (options.shards > 1) {
      sharded = std::make_unique<core::ShardedCampaign>(core::ShardedConfig{
          .base = options.config,
          .shards = options.shards,
          .corpus_sync = options.corpus_sync});
      sharded->set_shard_start_hook([&](int shard, core::Campaign& c) {
        instruments.attach(shard, c);
      });
      sharded->set_shard_finish_hook([&](int shard, core::Campaign& c) {
        instruments.detach(shard, c);
      });
      if (seeds) sharded->set_seeds(std::move(*seeds));
      result.report = sharded->run();
      result.shard_reports = sharded->shard_reports();
      result.hub = sharded->hub().stats();
    } else {
      campaign = std::make_unique<core::Campaign>(options.config);
      instruments.attach(0, *campaign);
      if (seeds)
        campaign->load_seeds(std::move(*seeds));
      else
        campaign->load_default_seeds();
      for (int b = 0; b < options.config.batches; ++b) {
        const core::BatchResult batch = campaign->run_one_batch();
        if (progress.batch_done) progress.batch_done(b, batch);
      }
      result.report = campaign->finalize();
      instruments.detach(0, *campaign);
    }
  } catch (const std::exception& e) {
    result.error = std::string("error: ") + e.what();
    return result;
  }

  // Cluster while the provenance records are still in memory; the same
  // result feeds the live endpoints, the caller and clusters.json. The
  // sort-by-hash pass inside makes it independent of shard interleaving.
  result.clusters = triage::cluster_report(
      result.report, runtime::runtime_name(options.config.runtime));
  instruments.finish(result.clusters);

  if (!options.workdir.empty())
    result.bundles = instruments.write_workdir(
        sharded ? sharded->merged_corpus() : campaign->corpus(), result.report,
        result.clusters);

  if (!options.metrics.empty()) {
    ensure_parent(options.metrics);
    std::ofstream out(options.metrics, std::ios::trunc);
    if (!out) {
      result.error = "cannot open metrics file " + options.metrics;
      return result;
    }
    out << telemetry::global().to_json(instruments.sim_end_ns()) << "\n";
  }
  result.trace_records = instruments.trace_records();
  if (!options.chrome_trace.empty())
    result.spans =
        instruments.write_chrome_trace(options.chrome_trace, &result.error);
  return result;
}

}  // namespace torpedo::run
