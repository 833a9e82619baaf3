// Tests for the live campaign monitor: Prometheus exposition format, the
// /status JSON contract, heartbeat stamping, watchdog stall detection (fake
// clock), the embedded HTTP server, and the per-syscall profiler.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "core/campaign.h"
#include "feedback/syscall_profile.h"
#include "kernel/syscalls.h"
#include "telemetry/json.h"
#include "telemetry/monitor.h"
#include "telemetry/span.h"
#include "telemetry/telemetry.h"

using namespace torpedo;
using namespace torpedo::telemetry;

namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double num(const std::map<std::string, JsonValue>& obj, const char* key) {
  auto it = obj.find(key);
  if (it == obj.end()) return -1;
  return it->second.is_integer ? static_cast<double>(it->second.integer)
                               : it->second.number;
}

// --- Prometheus exposition ----------------------------------------------------

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(prometheus_name("exec.executions"), "exec_executions");
  EXPECT_EQ(prometheus_name("a-b c:d_e9"), "a_b_c:d_e9");
}

TEST(Prometheus, CounterAndGaugeExposition) {
  Registry reg;
  reg.counter("exec.executions").inc(42);
  reg.gauge("fuzzer.denylist_size").set(3.5);
  const std::string text = reg.to_prometheus();

  EXPECT_NE(text.find("# HELP torpedo_exec_executions_total"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE torpedo_exec_executions_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("torpedo_exec_executions_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE torpedo_fuzzer_denylist_size gauge"),
            std::string::npos);
  EXPECT_NE(text.find("torpedo_fuzzer_denylist_size 3.5\n"),
            std::string::npos);
}

TEST(Prometheus, HistogramExposition) {
  Registry reg;
  Histogram& h = reg.histogram("observer.round_wall_us");
  h.record(0);
  h.record(1);
  h.record(3);
  h.record(100);
  const std::string text = reg.to_prometheus();
  const std::string base = "torpedo_observer_round_wall_us";

  EXPECT_NE(text.find("# TYPE " + base + " histogram"), std::string::npos);
  // Cumulative buckets with inclusive upper edges: le="0" holds the value 0,
  // le="1" adds the value 1, le="3" adds the value 3.
  EXPECT_NE(text.find(base + "_bucket{le=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find(base + "_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find(base + "_bucket{le=\"3\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find(base + "_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find(base + "_sum 104\n"), std::string::npos);
  EXPECT_NE(text.find(base + "_count 4\n"), std::string::npos);
  // Percentile estimates ride as companion gauges.
  EXPECT_NE(text.find(base + "_p50"), std::string::npos);
  EXPECT_NE(text.find(base + "_p90"), std::string::npos);
  EXPECT_NE(text.find(base + "_p99"), std::string::npos);
}

// Concurrent scrapes while a writer hammers the instruments: relaxed
// atomics must keep every observed value torn-free and monotone.
TEST(Prometheus, ConcurrentScrapeIsSafe) {
  Registry reg;
  Counter& c = reg.counter("exec.executions");
  Histogram& h = reg.histogram("latency");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      c.inc();
      h.record(i++ % 1000);
    }
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const std::string text = reg.to_prometheus();
    EXPECT_NE(text.find("torpedo_exec_executions_total"), std::string::npos);
    const std::uint64_t now = c.value();
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

// --- LiveStatus ---------------------------------------------------------------

TEST(LiveStatusTest, StatusJsonRoundTrip) {
  LiveStatus status;
  status.begin_campaign(8, 3);
  status.on_batch(2);
  status.on_round(17, 5 * kSecond, 1234,
                  {{"fuzz0", 400, false}, {"fuzz1", 500, false},
                   {"fuzz2", 334, true}});
  status.on_findings(5, 1);

  const auto obj = parse_json_object(status.to_json().to_string());
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(num(*obj, "batch"), 2);
  EXPECT_EQ(num(*obj, "batches_total"), 8);
  EXPECT_EQ(num(*obj, "round"), 17);
  EXPECT_EQ(num(*obj, "rounds_completed"), 1);
  EXPECT_EQ(num(*obj, "executions"), 1234);
  EXPECT_EQ(num(*obj, "sim_ns"), 5e9);
  EXPECT_EQ(num(*obj, "findings"), 5);
  EXPECT_EQ(num(*obj, "crashes"), 1);
  EXPECT_EQ(status.executions(), 1234u);

  // The executors array round-trips with per-executor state.
  auto it = obj->find("executors");
  ASSERT_NE(it, obj->end());
  const auto executors = parse_json_array_of_objects(it->second.text);
  ASSERT_TRUE(executors.has_value());
  ASSERT_EQ(executors->size(), 3u);
  EXPECT_EQ((*executors)[2].at("name").text, "fuzz2");
  EXPECT_EQ(num((*executors)[2], "executions"), 334);
  EXPECT_TRUE((*executors)[2].at("crashed").boolean);
}

TEST(LiveStatusTest, ExecsPerSecFromSamples) {
  LiveStatus status;
  status.begin_campaign(1, 1);
  EXPECT_EQ(status.execs_per_sec(), 0.0);  // no samples yet
  status.on_round(0, kSecond, 1000, {});
  EXPECT_EQ(status.execs_per_sec(), 0.0);  // one sample: no rate yet
  status.on_round(1, 2 * kSecond, 3000, {});
  // Two wall samples microseconds apart: the rate is huge but finite and
  // non-negative.
  EXPECT_GE(status.execs_per_sec(), 0.0);
}

// --- HeartbeatWriter ----------------------------------------------------------

TEST(HeartbeatTest, StampWritesParseableJson) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "torpedo_hb_test" /
      "heartbeat.json";
  std::filesystem::remove_all(path.parent_path());
  HeartbeatWriter hb(path);

  hb.stamp(5 * kSecond, 0, 3, 1000);
  hb.stamp(10 * kSecond, 1, 7, 2500);
  EXPECT_EQ(hb.stamps(), 2u);

  const auto obj = parse_json_object(slurp(path));
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(num(*obj, "sim_ns"), 10e9);
  EXPECT_EQ(num(*obj, "batch"), 1);
  EXPECT_EQ(num(*obj, "round"), 7);
  EXPECT_EQ(num(*obj, "executions"), 2500);
  EXPECT_EQ(num(*obj, "stamps"), 2);
  // The atomic tmp+rename leaves no partial file behind.
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  std::filesystem::remove_all(path.parent_path());
}

TEST(HeartbeatTest, CampaignStampsAtRoundBoundaries) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "torpedo_hb_campaign" /
      "heartbeat.json";
  std::filesystem::remove_all(path.parent_path());

  core::CampaignConfig cfg;
  cfg.round_duration = kSecond;
  cfg.fuzzer.cycle_out_rounds = 2;
  cfg.num_seeds = 3;
  cfg.batches = 1;
  core::Campaign campaign(cfg);

  LiveStatus status;
  HeartbeatWriter hb(path);
  campaign.set_live_status(&status);
  campaign.set_heartbeat(&hb);

  campaign.load_default_seeds();
  const core::BatchResult result = campaign.run_one_batch();

  // One stamp per observed round.
  EXPECT_EQ(hb.stamps(), static_cast<std::uint64_t>(result.rounds));
  const auto obj = parse_json_object(slurp(path));
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(num(*obj, "batch"), 0);
  EXPECT_GT(num(*obj, "executions"), 0);

  // LiveStatus tracked the same campaign.
  EXPECT_GT(status.executions(), 0u);
  const auto st = parse_json_object(status.to_json().to_string());
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(num(*st, "batch"), 0);
  EXPECT_EQ(num(*st, "rounds_completed"), result.rounds);
  std::filesystem::remove_all(path.parent_path());
}

// --- Watchdog -----------------------------------------------------------------

struct FakeClock {
  Nanos now = 0;
  static Nanos read(void* ctx) { return static_cast<FakeClock*>(ctx)->now; }
};

TEST(WatchdogTest, DetectsStallWithFakeClock) {
  Registry reg;
  FakeClock clock;
  Watchdog::Config cfg;
  cfg.stall_budget_wall_ns = 10 * kSecond;
  Watchdog dog(cfg, &reg);
  dog.set_clock(&FakeClock::read, &clock);

  EXPECT_FALSE(dog.poll(100));  // primes
  clock.now = 5 * kSecond;
  EXPECT_FALSE(dog.poll(100));  // within budget
  clock.now = 11 * kSecond;
  EXPECT_TRUE(dog.poll(100));  // newly stalled
  EXPECT_TRUE(dog.stalled());
  EXPECT_EQ(dog.stalls(), 1u);
  EXPECT_EQ(reg.counter("campaign.stalls").value(), 1u);
  clock.now = 20 * kSecond;
  EXPECT_FALSE(dog.poll(100));  // one trip per stall

  // Progress re-arms.
  clock.now = 21 * kSecond;
  EXPECT_FALSE(dog.poll(200));
  EXPECT_FALSE(dog.stalled());
  clock.now = 40 * kSecond;
  EXPECT_TRUE(dog.poll(200));  // second stall
  EXPECT_EQ(dog.stalls(), 2u);
}

TEST(WatchdogTest, ProgressResetsBudget) {
  Registry reg;
  FakeClock clock;
  Watchdog::Config cfg;
  cfg.stall_budget_wall_ns = 10 * kSecond;
  Watchdog dog(cfg, &reg);
  dog.set_clock(&FakeClock::read, &clock);

  std::uint64_t executions = 0;
  for (int tick = 0; tick < 100; ++tick) {
    clock.now += kSecond;
    EXPECT_FALSE(dog.poll(++executions));  // steady progress: never stalls
  }
  EXPECT_EQ(dog.stalls(), 0u);
}

TEST(WatchdogTest, CapturesOpenSpanStackAndRaisesAbort) {
  Registry reg;
  FakeClock clock;
  Watchdog::Config cfg;
  cfg.stall_budget_wall_ns = kSecond;
  cfg.abort_on_stall = true;
  Watchdog dog(cfg, &reg);
  dog.set_clock(&FakeClock::read, &clock);

  SpanTracer tracer;
  dog.set_spans(&tracer);
  const std::uint64_t outer = tracer.begin("campaign.batch");
  const std::uint64_t inner = tracer.begin("fuzz.mutate");

  EXPECT_FALSE(dog.poll(1));
  clock.now = 2 * kSecond;
  EXPECT_TRUE(dog.poll(1));
  EXPECT_EQ(dog.last_stall_spans(),
            (std::vector<std::string>{"campaign.batch", "fuzz.mutate"}));
  EXPECT_TRUE(dog.abort_flag().load());
  dog.clear_abort();
  EXPECT_FALSE(dog.abort_flag().load());

  tracer.end(inner);
  tracer.end(outer);
}

// A shard's tracer is installed for the shard's own thread only, while the
// watchdog polls on the monitor thread: the stall must still name the
// phase the shard is stuck in.
TEST(WatchdogTest, NamesSpansOfATracerInstalledOnAnotherThread) {
  Registry reg;
  FakeClock clock;
  Watchdog::Config cfg;
  cfg.stall_budget_wall_ns = kSecond;
  Watchdog dog(cfg, &reg);
  dog.set_clock(&FakeClock::read, &clock);
  SpanTracer tracer;
  dog.set_spans(&tracer);

  std::promise<void> opened;
  std::promise<void> release;
  std::thread shard([&tracer, &opened, done = release.get_future()] {
    set_thread_spans(&tracer);
    {
      const ScopedSpan batch("campaign.batch");
      const ScopedSpan round("round.measure");
      opened.set_value();
      done.wait();
    }
    set_thread_spans(nullptr);
  });
  opened.get_future().wait();
  EXPECT_EQ(spans(), nullptr);  // invisible from this thread

  EXPECT_FALSE(dog.poll(1));
  clock.now = 2 * kSecond;
  EXPECT_TRUE(dog.poll(1));
  EXPECT_EQ(dog.last_stall_spans(),
            (std::vector<std::string>{"campaign.batch", "round.measure"}));
  release.set_value();
  shard.join();
}

// --- MonitorServer ------------------------------------------------------------

TEST(MonitorServerTest, HandleRoutes) {
  MonitorServer server;
  EXPECT_EQ(server.handle("GET", "/healthz").code, 200);
  EXPECT_EQ(server.handle("GET", "/healthz").body, "ok\n");
  EXPECT_EQ(server.handle("GET", "/metrics").code, 200);
  EXPECT_EQ(server.handle("GET", "/metrics").content_type,
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(server.handle("GET", "/status").code, 200);
  EXPECT_EQ(server.handle("GET", "/status").content_type,
            "application/json");
  EXPECT_EQ(server.handle("GET", "/nope").code, 404);
  EXPECT_EQ(server.handle("POST", "/metrics").code, 405);
}

TEST(MonitorServerTest, ErrorBodiesAreStructuredJson) {
  MonitorServer server;
  const MonitorServer::Response missing = server.handle("GET", "/nope");
  EXPECT_EQ(missing.code, 404);
  EXPECT_EQ(missing.content_type, "application/json");
  const auto missing_obj = parse_json_object(missing.body);
  ASSERT_TRUE(missing_obj.has_value()) << missing.body;
  EXPECT_EQ(missing_obj->at("error").text, "not found");
  EXPECT_EQ(missing_obj->at("path").text, "/nope");

  const MonitorServer::Response bad = server.handle("POST", "/metrics");
  EXPECT_EQ(bad.code, 405);
  EXPECT_EQ(bad.content_type, "application/json");
  const auto bad_obj = parse_json_object(bad.body);
  ASSERT_TRUE(bad_obj.has_value()) << bad.body;
  EXPECT_EQ(bad_obj->at("error").text, "method not allowed");
  EXPECT_EQ(bad_obj->at("method").text, "POST");
}

TEST(MonitorServerTest, JsonEndpointsRouteByPrefix) {
  MonitorServer server;
  server.add_json_endpoint(
      "/things", [](std::string_view path) -> std::optional<std::string> {
        if (path == "/things") return std::string("{\"all\":true}");
        if (path == "/things/7") return std::string("{\"id\":7}");
        return std::nullopt;
      });

  const MonitorServer::Response all = server.handle("GET", "/things");
  EXPECT_EQ(all.code, 200);
  EXPECT_EQ(all.content_type, "application/json");
  EXPECT_EQ(all.body, "{\"all\":true}\n");
  EXPECT_EQ(server.handle("GET", "/things/7").body, "{\"id\":7}\n");

  // A handler returning nullopt is a structured 404, and a prefix match
  // requires a path-segment boundary ("/thingsies" is not "/things/...").
  const MonitorServer::Response gone = server.handle("GET", "/things/8");
  EXPECT_EQ(gone.code, 404);
  const auto gone_obj = parse_json_object(gone.body);
  ASSERT_TRUE(gone_obj.has_value()) << gone.body;
  EXPECT_EQ(gone_obj->at("error").text, "not found");
  EXPECT_EQ(server.handle("GET", "/thingsies").code, 404);
}

TEST(MonitorServerTest, MetricsSynthesizesCampaignSeries) {
  Registry reg;
  reg.counter("exec.executions").inc(7);
  LiveStatus status;
  status.begin_campaign(4, 2);
  status.on_batch(1);
  status.on_round(9, kSecond, 555, {});
  MonitorServer::Config cfg;
  cfg.registry = &reg;
  MonitorServer server(cfg);
  server.set_status(&status);
  server.set_extra_metrics([] { return std::string("extra_metric 1\n"); });

  const std::string text = server.metrics_text();
  EXPECT_NE(text.find("torpedo_exec_executions_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("torpedo_executions_total 555\n"), std::string::npos);
  EXPECT_NE(text.find("torpedo_batch 1\n"), std::string::npos);
  EXPECT_NE(text.find("torpedo_round 9\n"), std::string::npos);
  EXPECT_NE(text.find("torpedo_rounds_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("torpedo_up 1\n"), std::string::npos);
  EXPECT_NE(text.find("extra_metric 1\n"), std::string::npos);
}

TEST(MonitorServerTest, ServesOverLoopback) {
  Registry reg;
  reg.counter("exec.executions").inc(3);
  LiveStatus status;
  status.begin_campaign(1, 1);
  status.on_round(0, kSecond, 123, {{"fuzz0", 123, false}});

  MonitorServer::Config cfg;
  cfg.registry = &reg;
  cfg.port = 0;  // ephemeral
  MonitorServer server(cfg);
  server.set_status(&status);
  ASSERT_TRUE(server.start());
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("torpedo_executions_total 123"), std::string::npos);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string st = http_get(server.port(), "/status");
  const std::size_t body_at = st.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const auto obj = parse_json_object(
      std::string_view(st).substr(body_at + 4));
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(num(*obj, "executions"), 123);

  EXPECT_GE(server.requests(), 3u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(MonitorServerTest, WatchdogRidesTheServingLoop) {
  Registry reg;
  // No execution progress ever, tiny budget: the loop's watchdog tick must
  // trip the stall without any HTTP traffic.
  Watchdog::Config wd_cfg;
  wd_cfg.stall_budget_wall_ns = 20 * kMillisecond;
  Watchdog dog(wd_cfg, &reg);

  MonitorServer::Config cfg;
  cfg.registry = &reg;
  cfg.poll_interval_ns = 10 * kMillisecond;
  MonitorServer server(cfg);
  server.set_watchdog(&dog);
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 200 && dog.stalls() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.stop();
  EXPECT_GE(dog.stalls(), 1u);
  EXPECT_NE(server.metrics_text().find("torpedo_watchdog_stalled 1\n"),
            std::string::npos);
}

// --- SyscallProfile -----------------------------------------------------------

TEST(SyscallProfileTest, RowsAndRendering) {
  feedback::SyscallProfile profile;
  profile.record_execution(0);   // read
  profile.record_execution(0);
  profile.record_execution(1);   // write
  profile.record_novel_signal(0, 5);
  profile.record_implication(1);
  profile.record_execution(-3);     // dropped
  profile.record_execution(99999);  // dropped

  const auto rows = profile.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].nr, 0);
  EXPECT_EQ(rows[0].executions, 2u);
  EXPECT_EQ(rows[0].signal_new, 5u);
  EXPECT_EQ(rows[1].nr, 1);
  EXPECT_EQ(rows[1].implications, 1u);

  const auto obj = parse_json_object(profile.to_json(&kernel::sysno_name));
  ASSERT_TRUE(obj.has_value());
  const auto parsed =
      parse_json_array_of_objects(obj->at("syscalls").text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].at("name").text, "read");
  EXPECT_EQ(num((*parsed)[0], "executions"), 2);

  const std::string prom = profile.to_prometheus(&kernel::sysno_name);
  EXPECT_NE(prom.find("torpedo_syscall_executions_total{syscall=\"read\","
                      "nr=\"0\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("torpedo_syscall_signal_total{syscall=\"read\","
                      "nr=\"0\"} 5\n"),
            std::string::npos);
  EXPECT_NE(prom.find("torpedo_syscall_implications_total{syscall=\"write\","
                      "nr=\"1\"} 1\n"),
            std::string::npos);

  profile.reset();
  EXPECT_TRUE(profile.rows().empty());
}

TEST(SyscallProfileTest, CampaignPopulatesProfile) {
  feedback::SyscallProfile profile;
  feedback::set_syscall_profile(&profile);

  core::CampaignConfig cfg;
  cfg.round_duration = kSecond;
  cfg.fuzzer.cycle_out_rounds = 2;
  cfg.num_seeds = 3;
  cfg.batches = 1;
  core::Campaign campaign(cfg);
  campaign.load_default_seeds();
  campaign.run_one_batch();
  (void)campaign.finalize();
  feedback::set_syscall_profile(nullptr);

  const auto rows = profile.rows();
  ASSERT_FALSE(rows.empty());
  std::uint64_t executions = 0;
  for (const auto& row : rows) executions += row.executions;
  EXPECT_GT(executions, 0u);
}

}  // namespace
