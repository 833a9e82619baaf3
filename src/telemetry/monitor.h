// Live campaign monitor: the in-flight half of the observability stack.
//
// Everything before this layer was post-hoc — metrics.json, trace.jsonl and
// the span file are autopsies, readable only after the campaign exits. A
// long-running fuzzer is operated like a service: watched live for
// execs/sec, stalls, and crash rates. This header provides the four pieces
// of that operation:
//
//   * MonitorServer  — a dependency-free embedded HTTP server (blocking
//     poll() loop on one background thread) serving GET /metrics in
//     Prometheus text exposition format, GET /status as JSON, and
//     GET /healthz. Enabled via `torpedo run --monitor-port N`.
//   * LiveStatus     — a thread-safe snapshot of the running campaign
//     (batch, round, per-executor state, execs/sec over a sliding window),
//     updated by the campaign thread at round boundaries and read by the
//     monitor thread per scrape.
//   * HeartbeatWriter — stamps workdir/heartbeat.json (sim/wall ns, batch,
//     round, executions) at round boundaries, atomically (tmp + rename), so
//     an external operator can `cat` liveness without HTTP.
//   * Watchdog       — detects stalls: no execution progress for a
//     configurable wall-time budget. On a stall it increments the
//     `campaign.stalls` counter (exposed as torpedo_campaign_stalls_total),
//     logs the open span stack (which phase the campaign thread is stuck
//     in), and optionally raises an abort flag the fuzzing loop honors at
//     the next round boundary.
//
// Threading: the campaign simulation stays single-threaded. The monitor
// thread only touches relaxed atomics (telemetry counters), mutex-guarded
// snapshots (LiveStatus, Registry exports, the span tracer's open stack),
// and its own sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "util/time.h"

namespace torpedo::telemetry {

class SpanTracer;

// --- LiveStatus ---------------------------------------------------------------

// Campaign state shared across the campaign and monitor threads. The
// campaign thread calls the on_*() mutators (round-boundary granularity);
// any thread may call to_json()/executions()/execs_per_sec().
class LiveStatus {
 public:
  struct ExecutorState {
    std::string name;
    std::uint64_t executions = 0;  // in the last completed round
    bool crashed = false;
  };

  void begin_campaign(int total_batches, std::size_t executors);
  void on_batch(int batch);
  void on_round(int round, Nanos sim_ns, std::uint64_t total_executions,
                std::vector<ExecutorState> executors);
  void on_findings(std::uint64_t findings, std::uint64_t crashes);
  // Signal-growth / plateau state from the timeseries recorder, surfaced in
  // /status so an operator can see a stuck search without reading files.
  void on_signal_growth(int rounds_since_growth, std::uint64_t plateaus,
                        bool in_plateau);
  // Marks this campaign finished: sharded runs flag completed shards so the
  // per-shard watchdog stops treating "no new executions" as a stall.
  void set_done() { done_.store(true, std::memory_order_release); }
  bool done() const { return done_.load(std::memory_order_acquire); }

  std::uint64_t executions() const {
    return executions_.load(std::memory_order_relaxed);
  }
  // Cheap scalar snapshot for aggregation (per-shard /metrics series).
  struct Totals {
    int batch = -1;
    int round = -1;
    int rounds_completed = 0;
    std::uint64_t executions = 0;
    std::uint64_t findings = 0;
    std::uint64_t crashes = 0;
    bool done = false;
  };
  Totals totals() const;
  // Executions per wall second over the trailing window (default 10 s),
  // computed from round-boundary samples.
  double execs_per_sec(Nanos window_ns = 10 * kSecond) const;

  // {"batch":..,"round":..,"executions":..,"execs_per_sec":..,
  //  "executors":[{"name":..,"executions":..,"crashed":..},...],...}
  JsonDict to_json() const;

 private:
  mutable std::mutex mu_;
  int total_batches_ = 0;
  std::size_t executor_count_ = 0;
  int batch_ = -1;
  int round_ = -1;
  int rounds_completed_ = 0;
  Nanos sim_ns_ = 0;
  Nanos last_round_wall_ns_ = 0;
  std::uint64_t findings_ = 0;
  std::uint64_t crashes_ = 0;
  int rounds_since_growth_ = 0;
  std::uint64_t plateaus_ = 0;
  bool in_plateau_ = false;
  std::vector<ExecutorState> executors_;
  // (wall_ns, total executions) samples for the sliding-window rate.
  std::deque<std::pair<Nanos, std::uint64_t>> samples_;
  std::atomic<std::uint64_t> executions_{0};
  std::atomic<bool> done_{false};
};

// --- HeartbeatWriter ----------------------------------------------------------

// Stamps a single-object JSON heartbeat file. Writes are atomic (tmp file +
// rename) so a reader never observes a torn heartbeat.
class HeartbeatWriter {
 public:
  explicit HeartbeatWriter(std::filesystem::path path);

  // One stamp: {"sim_ns":..,"wall_ns":..,"batch":..,"round":..,
  // "executions":..,"stamps":..[,"monitor_port":..]}.
  void stamp(Nanos sim_ns, int batch, int round, std::uint64_t executions);

  // Records the actual bound monitor port (set after MonitorServer::start()
  // resolves an ephemeral --monitor-port 0). Stamped into every subsequent
  // heartbeat so an external reader — the fleet coordinator, an operator —
  // can discover where this process's /metrics lives without guessing.
  void set_monitor_port(int port) { monitor_port_ = port; }
  int monitor_port() const { return monitor_port_; }

  const std::filesystem::path& path() const { return path_; }
  std::uint64_t stamps() const { return stamps_; }

 private:
  std::filesystem::path path_;
  std::uint64_t stamps_ = 0;
  int monitor_port_ = -1;  // < 0: no monitor, field omitted
};

// --- Watchdog -----------------------------------------------------------------

class Watchdog {
 public:
  struct Config {
    // Wall time without execution progress before the campaign counts as
    // stalled.
    Nanos stall_budget_wall_ns = 30 * kSecond;
    // Raise the abort flag on stall; the fuzzing loop checks it at round
    // boundaries and retires the batch cleanly.
    bool abort_on_stall = false;
  };

  Watchdog();  // default Config, global registry
  explicit Watchdog(Config config, Registry* registry = &global());

  // Wall-clock injection for tests (defaults to steady_now_ns).
  using NowFn = Nanos (*)(void*);
  void set_clock(NowFn fn, void* ctx) {
    now_fn_ = fn;
    now_ctx_ = ctx;
  }

  // The tracer whose open span stack a stall logs: the one the watched
  // campaign's thread records into (it may be installed for that thread
  // only, so the monitor thread cannot find it through spans()). Set before
  // polling starts; nullptr logs no stack.
  void set_spans(const SpanTracer* tracer) { spans_ = tracer; }

  // Samples progress; the monitor thread calls this every loop tick with the
  // current total execution count. Returns true when this call *newly*
  // detected a stall (one trip per stall; recovery re-arms).
  bool poll(std::uint64_t executions);

  bool stalled() const;
  std::uint64_t stalls() const;
  // The open span stack captured at the last stall, outermost first.
  std::vector<std::string> last_stall_spans() const;

  // Set on stall when config.abort_on_stall; cleared by the owner.
  const std::atomic<bool>& abort_flag() const { return abort_; }
  void clear_abort() { abort_.store(false, std::memory_order_relaxed); }

 private:
  Nanos now() const;

  Config config_;
  Counter* ctr_stalls_ = nullptr;
  NowFn now_fn_ = nullptr;
  void* now_ctx_ = nullptr;
  const SpanTracer* spans_ = nullptr;
  std::atomic<bool> abort_{false};

  mutable std::mutex mu_;
  bool primed_ = false;
  bool stalled_ = false;
  Nanos last_progress_ns_ = 0;
  std::uint64_t last_executions_ = 0;
  std::uint64_t stall_count_ = 0;
  std::vector<std::string> last_stall_spans_;
};

// --- MonitorServer ------------------------------------------------------------

class MonitorServer {
 public:
  struct Config {
    int port = 0;                          // 0 = pick an ephemeral port
    std::string bind_address = "127.0.0.1";
    Registry* registry = &global();
    // Loop tick: watchdog poll cadence and stop() latency bound.
    Nanos poll_interval_ns = 200 * kMillisecond;
  };

  MonitorServer();  // default Config
  explicit MonitorServer(Config config);
  ~MonitorServer();  // stop() + join

  MonitorServer(const MonitorServer&) = delete;
  MonitorServer& operator=(const MonitorServer&) = delete;

  // Wiring; call before start() (the monitor thread reads these unguarded).
  void set_status(LiveStatus* status) { status_ = status; }
  void set_watchdog(Watchdog* watchdog) { watchdog_ = watchdog; }
  // Registers one shard of a sharded campaign. /metrics grows
  // torpedo_shard_* series labeled {shard="k"}, /status grows a "shards"
  // array, and when no campaign-wide LiveStatus is installed the unlabeled
  // totals are synthesized by summing the shards. The watchdog (optional) is
  // polled against this shard's execution count each loop tick, and muted
  // once the shard reports done.
  void add_shard(int shard, LiveStatus* status, Watchdog* watchdog = nullptr);
  // Extra exposition text appended to /metrics (e.g. the per-syscall
  // attribution series, which need a name table this layer can't see).
  // Must be thread-safe: runs on the monitor thread.
  using ExtraMetricsFn = std::function<std::string()>;
  void set_extra_metrics(ExtraMetricsFn fn) { extra_ = std::move(fn); }
  // Registers a JSON endpoint under `prefix`: GET requests for `prefix`
  // itself or any `prefix/...` subpath are routed to the handler, which
  // returns the JSON body or nullopt (-> structured 404). Handlers must be
  // thread-safe (they run on the monitor thread) and installed before
  // start(). First matching prefix wins.
  using JsonEndpointFn =
      std::function<std::optional<std::string>(std::string_view path)>;
  void add_json_endpoint(std::string prefix, JsonEndpointFn handler) {
    endpoints_.emplace_back(std::move(prefix), std::move(handler));
  }

  // Binds, listens, and spawns the serving thread. False on bind failure.
  bool start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  int port() const { return port_; }  // actual port once start() succeeded
  std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

  // The endpoint contract, testable without sockets.
  struct Response {
    int code = 200;
    std::string content_type;
    std::string body;
  };
  Response handle(std::string_view method, std::string_view path) const;
  // Full /metrics payload: registry exposition + campaign status series
  // (torpedo_executions_total, torpedo_execs_per_second, ...) + extra.
  std::string metrics_text() const;
  std::string status_json() const;

 private:
  void loop();
  void serve_client(int fd);

  struct ShardSlot {
    int shard = 0;
    LiveStatus* status = nullptr;
    Watchdog* watchdog = nullptr;
  };

  Config config_;
  LiveStatus* status_ = nullptr;
  Watchdog* watchdog_ = nullptr;
  std::vector<ShardSlot> shards_;
  ExtraMetricsFn extra_;
  std::vector<std::pair<std::string, JsonEndpointFn>> endpoints_;
  Counter* exec_counter_ = nullptr;  // watchdog progress source
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::thread thread_;
};

// Minimal loopback HTTP GET (tests and benches scrape the monitor with it).
// Returns the full response (status line + headers + body), or "" on error.
std::string http_get(int port, std::string_view path,
                     std::string_view host = "127.0.0.1");

}  // namespace torpedo::telemetry
