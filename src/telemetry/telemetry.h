// Campaign telemetry: a lightweight registry of named counters, gauges, and
// latency histograms.
//
// The paper's whole contribution is a measurement-driven feedback loop, so
// the reproduction instruments its own hot path the way a production fuzzer
// would (execs/sec and feedback-acceptance rates are the standard health
// signals of a kernel fuzzer). Probes hold direct Counter*/Histogram*
// pointers resolved once at construction — the hot loop never does a name
// lookup. Exports are dual-stamped: `sim_ns` (virtual host time) and
// `wall_ns` (real time), so a trace can be correlated against both clocks.
//
// Threading model: many writers, many readers. Sharded campaigns
// (`core/sharded.h`) run K campaign stacks concurrently against the same
// process-global registry, and the live monitor (`telemetry/monitor.h`)
// scrapes from a background thread. Instrument values are relaxed
// std::atomics updated with fetch_add (a single lock-free RMW — `lock xadd`
// on x86 — correct under any number of concurrent shards). Even a relaxed
// RMW bounces its cache line between shard threads, so per-event probes on
// the execution path (scheduler slices and segments, executor iterations,
// crashes and respawns) tally in plain thread-local fields and inc() the
// shared counter in batches: once per Host::run_until() or once per round.
// A live scrape of those counters is at most one batch stale. Registry name
// lookup takes a mutex, but probes resolve pointers once, so the hot loop
// never touches it.
//
// Instruments registered here are process-global by default (see global());
// consumers that need per-run numbers snapshot values before/after and take
// deltas, or use their own Registry instance.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "telemetry/json.h"
#include "util/time.h"

namespace torpedo::telemetry {

// Wall-clock nanoseconds since the Unix epoch (for stamping artifacts).
Nanos wall_now_ns();
// Monotonic nanoseconds (for measuring durations).
Nanos steady_now_ns();

class Counter {
 public:
  // Multi-writer safe: concurrent shards share process-global counters, so
  // increments must be a single RMW, not load+store. Hot-path callers batch
  // their increments (see the threading note above).
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

// Log2-bucketed histogram for latencies and sizes: O(1) record, ~2x relative
// error on percentile estimates, no allocation. Multi-writer like Counter
// (fetch_add for count/sum/buckets, CAS loops for min/max); a concurrent
// reader may see a value recorded in count_ before it lands in sum_ or a
// bucket — each field is individually coherent, which is all a monitoring
// scrape needs.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const {
    return count() ? min_.load(std::memory_order_relaxed) : 0;
  }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t c = count();
    return c ? static_cast<double>(sum()) / static_cast<double>(c) : 0.0;
  }
  // Upper bound of the bucket holding the p-th percentile (p in [0, 100]),
  // clamped to the observed max.
  std::uint64_t percentile(double p) const;
  // Snapshot of the bucket counts (copy: the live array is atomic).
  std::array<std::uint64_t, kBuckets> buckets() const;

  // Renders {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,...}.
  JsonDict to_json() const;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{0};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

// Name-keyed instrument registry. References returned by counter()/gauge()/
// histogram() stay valid for the registry's lifetime (node-based storage).
// Lookup/registration and whole-registry exports are mutex-guarded so the
// monitor thread can scrape while the campaign thread registers
// late-arriving instruments (e.g. finalize-pass counters).
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // nullptr when the instrument was never registered.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  // Direct map access for single-threaded consumers (tests, post-run
  // exports). Not safe against concurrent registration — the monitor thread
  // uses to_json()/to_prometheus() instead.
  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  // Full dump, dual-stamped; instrument names sort deterministically.
  std::string to_json(Nanos sim_ns) const;

  // Prometheus text exposition (version 0.0.4): every counter as
  // `<prefix><name>_total`, every gauge as `<prefix><name>`, every histogram
  // as `_bucket{le=...}`/`_sum`/`_count` plus `_p50`/`_p90`/`_p99` gauges.
  // Dots and other illegal characters in instrument names become '_'.
  std::string to_prometheus(std::string_view prefix = "torpedo_") const;

  // Drops every instrument. Existing Counter*/Histogram* pointers dangle:
  // only call between campaigns, never while probes are live.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// Sanitizes an instrument name for Prometheus: [a-zA-Z0-9_:] pass through,
// everything else becomes '_'.
std::string prometheus_name(std::string_view name);

// The process-wide registry every built-in probe defaults to.
Registry& global();

// Records wall-clock microseconds into a histogram on scope exit.
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Histogram& histogram)
      : histogram_(histogram), start_(steady_now_ns()) {}
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;
  ~ScopedTimerUs() {
    histogram_.record(
        static_cast<std::uint64_t>((steady_now_ns() - start_) / 1000));
  }

 private:
  Histogram& histogram_;
  Nanos start_;
};

}  // namespace torpedo::telemetry
