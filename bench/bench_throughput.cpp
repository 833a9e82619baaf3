// Throughput bench: how fast the whole stack turns the crank.
//
// Runs a stock campaign (paper §4.2 defaults, scaled down) and measures the
// host-side cost of the simulation: observed rounds per wall second,
// simulated executions per wall second, and wall milliseconds per batch.
// The campaign runs several times — plain, with the span tracer, with the
// live monitor serving /metrics under a once-per-second scraper, and with
// post-campaign triage clustering — so every observability layer's overhead
// is measured by the same harness that would catch any other regression.
// The introspection overhead, which CI gates, is the median over five
// interleaved plain/introspected pairs.
// Results land in BENCH_throughput.json so CI and the telemetry layer's
// consumers can chart regressions.
//
//   bench_throughput [--quick] [--out FILE.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "feedback/mutation_efficacy.h"
#include "telemetry/json.h"
#include "telemetry/monitor.h"
#include "telemetry/span.h"
#include "runtime/runtime.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeseries.h"
#include "triage/cluster.h"

using namespace torpedo;

namespace {

constexpr int kIntrospectionPairs = 5;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v[i]);
    out += buf;
  }
  return out + "]";
}

struct Result {
  int batches = 0;
  int rounds = 0;
  std::uint64_t executions = 0;
  double wall_ms = 0;
  std::size_t spans = 0;
  int triage_findings = 0;  // findings the triage pass clustered

  double rounds_per_sec() const {
    return wall_ms > 0 ? rounds / (wall_ms / 1000.0) : 0;
  }
  double execs_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(executions) / (wall_ms / 1000.0)
                       : 0;
  }
  double wall_ms_per_batch() const {
    return batches > 0 ? wall_ms / batches : 0;
  }
};

Result run_campaign(int batches, bool with_tracer, bool with_monitor,
                    bool snapshot_exec = true,
                    bool with_introspection = false,
                    double* triage_ms = nullptr) {
  core::CampaignConfig config;
  config.batches = batches;
  config.round_duration = 2 * kSecond;
  config.fuzzer.cycle_out_rounds = 4;
  config.snapshot_exec = snapshot_exec;
  core::Campaign campaign(config);
  campaign.load_default_seeds();

  // Introspection-on: the per-operator efficacy probes fire in the mutate
  // loop and the time-series recorder samples every observer round — the
  // exact wiring `torpedo run` always enables.
  feedback::MutationEfficacy efficacy;
  telemetry::TimeSeriesRecorder timeseries;
  if (with_introspection) {
    feedback::set_mutation_efficacy(&efficacy);
    campaign.set_timeseries(&timeseries);
  }

  telemetry::SpanTracer tracer;
  if (with_tracer) {
    tracer.set_sim_clock(
        [](void* ctx) { return static_cast<sim::Host*>(ctx)->now(); },
        &campaign.kernel().host());
    telemetry::set_spans(&tracer);
  }

  // Monitor-on: the embedded server runs and an external scraper hits
  // /metrics once per second, the cadence a real Prometheus would use.
  telemetry::LiveStatus status;
  telemetry::MonitorServer monitor;
  std::thread scraper;
  std::atomic<bool> stop_scraper{false};
  if (with_monitor) {
    campaign.set_live_status(&status);
    monitor.set_status(&status);
    if (monitor.start()) {
      scraper = std::thread([&stop_scraper, port = monitor.port()] {
        while (!stop_scraper.load(std::memory_order_acquire)) {
          (void)telemetry::http_get(port, "/metrics");
          for (int i = 0; i < 10 && !stop_scraper.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      });
    }
  }

  Result result;
  const auto start = std::chrono::steady_clock::now();
  for (int b = 0; b < batches; ++b) {
    const core::BatchResult batch = campaign.run_one_batch();
    result.rounds += batch.rounds;
    result.batches++;
  }
  const auto end = std::chrono::steady_clock::now();
  // Triage-on: finalize the campaign (minimize + provenance, the same work
  // every `torpedo run` does) and time only the clustering pass on top.
  if (triage_ms != nullptr) {
    const core::CampaignReport report = campaign.finalize();
    const auto triage_start = std::chrono::steady_clock::now();
    const triage::TriageResult tri = triage::cluster_report(
        report, runtime::runtime_name(config.runtime));
    const auto triage_end = std::chrono::steady_clock::now();
    *triage_ms = std::chrono::duration<double, std::milli>(triage_end -
                                                           triage_start)
                     .count();
    result.triage_findings = tri.findings;
  }
  telemetry::set_spans(nullptr);
  feedback::set_mutation_efficacy(nullptr);
  if (scraper.joinable()) {
    stop_scraper.store(true, std::memory_order_release);
    scraper.join();
  }
  monitor.stop();
  result.executions = campaign.fuzzer().total_executions();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  result.spans = tracer.spans().size();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int batches = 4;
  std::string out_path = "BENCH_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      batches = 1;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--batches") == 0 && i + 1 < argc) {
      batches = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_throughput [--quick] [--batches N] "
                   "[--out FILE.json]\n");
      return 2;
    }
  }

  bench::print_header("Throughput", "host-side cost of the fuzzing loop");

  // Untimed warmup batch so the first measured run isn't charged for process
  // cold-start (allocator arenas, page faults, CPU frequency ramp) that the
  // later runs in this process never pay.
  (void)run_campaign(1, /*with_tracer=*/false, /*with_monitor=*/false);

  // The plain run is snapshot-exec on (the default); the cold run re-executes
  // the same campaign (byte-identical results) without any gated fast path.
  const Result r =
      run_campaign(batches, /*with_tracer=*/false, /*with_monitor=*/false);
  const Result cold =
      run_campaign(batches, /*with_tracer=*/false, /*with_monitor=*/false,
                   /*snapshot_exec=*/false);
  const Result traced =
      run_campaign(batches, /*with_tracer=*/true, /*with_monitor=*/false);
  const Result monitored =
      run_campaign(batches, /*with_tracer=*/false, /*with_monitor=*/true);
  // The introspection gate bounds a difference of a few percent, below one
  // sample's run-to-run noise, so it is judged on the median of interleaved
  // plain/introspected pairs. The order alternates so drift in host speed
  // during the series favours neither side.
  std::vector<double> introspection_pcts;
  Result introspected;
  for (int pair = 0; pair < kIntrospectionPairs; ++pair) {
    const auto plain_run = [&] {
      return run_campaign(batches, /*with_tracer=*/false,
                          /*with_monitor=*/false);
    };
    const auto introspected_run = [&] {
      return run_campaign(batches, /*with_tracer=*/false,
                          /*with_monitor=*/false, /*snapshot_exec=*/true,
                          /*with_introspection=*/true);
    };
    Result plain;
    if (pair % 2 == 0) {
      plain = plain_run();
      introspected = introspected_run();
    } else {
      introspected = introspected_run();
      plain = plain_run();
    }
    introspection_pcts.push_back(
        plain.wall_ms > 0
            ? 100.0 * (introspected.wall_ms - plain.wall_ms) / plain.wall_ms
            : 0);
  }
  double triage_ms = 0;
  const Result triaged =
      run_campaign(batches, /*with_tracer=*/false, /*with_monitor=*/false,
                   /*snapshot_exec=*/true, /*with_introspection=*/false,
                   &triage_ms);
  const double overhead_pct =
      r.wall_ms > 0 ? 100.0 * (traced.wall_ms - r.wall_ms) / r.wall_ms : 0;
  const double monitor_overhead_pct =
      r.wall_ms > 0 ? 100.0 * (monitored.wall_ms - r.wall_ms) / r.wall_ms : 0;
  const double introspection_overhead_pct = median(introspection_pcts);
  // Triage runs once after the campaign, so its honest overhead is the
  // clustering wall time relative to the campaign wall time — not a
  // campaign-vs-campaign delta, which would drown in run-to-run noise.
  const double triage_overhead_pct =
      triaged.wall_ms > 0 ? 100.0 * triage_ms / triaged.wall_ms : 0;
  const double snapshot_speedup =
      r.execs_per_sec() > 0 ? cold.execs_per_sec() > 0
                                  ? r.execs_per_sec() / cold.execs_per_sec()
                                  : 0
                            : 0;

  std::printf(
      "%d batches, %d rounds, %llu executions in %.1f ms\n"
      "  %.2f rounds/sec, %.0f execs/sec, %.1f ms/batch\n"
      "with span tracer: %.1f ms (%zu spans, %+.1f%% wall overhead)\n"
      "with live monitor (1 Hz scrape): %.1f ms (%+.1f%% wall overhead)\n",
      r.batches, r.rounds, static_cast<unsigned long long>(r.executions),
      r.wall_ms, r.rounds_per_sec(), r.execs_per_sec(), r.wall_ms_per_batch(),
      traced.wall_ms, traced.spans, overhead_pct, monitored.wall_ms,
      monitor_overhead_pct);
  std::printf(
      "without --snapshot-exec (cold boot per program): %.1f ms, "
      "%.0f execs/sec (snapshot speedup %.2fx)\n",
      cold.wall_ms, cold.execs_per_sec(), snapshot_speedup);
  std::printf(
      "with introspection (efficacy + time series): %+.1f%% wall overhead "
      "(median of %d interleaved pairs; last pair %.1f ms)\n",
      introspection_overhead_pct, kIntrospectionPairs, introspected.wall_ms);
  std::printf(
      "with triage clustering after finalize: %.2f ms for %d findings "
      "(%+.2f%% of campaign wall)\n",
      triage_ms, triaged.triage_findings, triage_overhead_pct);

  telemetry::JsonDict json;
  json.set("bench", "throughput")
      .set("batches", r.batches)
      .set("rounds", r.rounds)
      .set("executions", r.executions)
      .set("wall_ms", r.wall_ms)
      .set("rounds_per_sec", r.rounds_per_sec())
      .set("execs_per_sec", r.execs_per_sec())
      .set("wall_ms_per_batch", r.wall_ms_per_batch())
      .set("tracer_wall_ms", traced.wall_ms)
      .set("tracer_spans", static_cast<std::uint64_t>(traced.spans))
      .set("tracer_overhead_pct", overhead_pct)
      .set("monitor_wall_ms", monitored.wall_ms)
      .set("monitor_overhead_pct", monitor_overhead_pct)
      .set("snapshot_on_execs_per_sec", r.execs_per_sec())
      .set("snapshot_off_wall_ms", cold.wall_ms)
      .set("snapshot_off_execs_per_sec", cold.execs_per_sec())
      .set("snapshot_speedup", snapshot_speedup)
      .set("introspection_wall_ms", introspected.wall_ms)
      .set("introspection_overhead_pct", introspection_overhead_pct)
      .set("introspection_pairs", kIntrospectionPairs)
      .set_raw("introspection_overhead_pct_samples",
               json_array(introspection_pcts))
      .set("triage_wall_ms", triage_ms)
      .set("triage_findings", triaged.triage_findings)
      .set("triage_overhead_pct", triage_overhead_pct);

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << json.to_string() << "\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
