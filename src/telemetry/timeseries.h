// Signal-growth time series: a compact per-round recorder with a plateau
// detector.
//
// Counters and spans answer "what is the campaign doing right now"; this
// recorder answers "how is the search progressing" — one sample per
// observer round (cumulative executions, corpus size, distinct coverage
// signals, violations flagged) kept in a bounded, deterministic ring and
// flushed to workdir/timeseries.jsonl at finalize. Samples are stamped with
// sim-time only, so the artifact is byte-deterministic for a fixed (seed,
// config) and survives the selftest replay differ and the snapshot on/off
// tree diff.
//
// Retention is stride doubling, not a sliding window: the recorder keeps
// every stride-th sample, and when the retained count reaches capacity it
// drops every other retained sample and doubles the stride. A run of any
// length therefore keeps <= capacity points that still span the whole
// campaign (a sliding window would forget the early growth phase, which is
// the interesting part of a growth curve). The kept-set depends only on the
// sequence of record() calls — deterministic by construction.
//
// The plateau detector watches distinct_signals: when it has not grown for
// `plateau_rounds` consecutive samples the recorder enters a plateau (one
// `campaign.plateaus` increment per entry, surfaced in /status); any growth
// exits it. Single-threaded — each shard owns its recorder; merged output
// is shard-major (all of shard 0's samples, then shard 1's, ...).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "util/time.h"

namespace torpedo::telemetry {

// One per-round observation. All totals are cumulative campaign-to-date
// values (the growth curve is the point, not per-round deltas).
struct RoundSample {
  int round = 0;
  Nanos sim_ns = 0;
  std::uint64_t executions = 0;
  std::uint64_t corpus_size = 0;
  std::uint64_t distinct_signals = 0;
  std::uint64_t violations = 0;
};

// One part's retained samples and the shard its lines are stamped with
// (-1: unstamped). A view: the samples live in a recorder, or in the
// report a fleet worker sent the coordinator.
struct SampleSeries {
  int shard = -1;
  std::span<const RoundSample> samples;
};

// Writes the samples as JSONL, one object per line:
//   {"round":..,"sim_ns":..,"executions":..,"corpus_size":..,
//    "distinct_signals":..,"violations":..[,"shard":..]}
void write_samples_jsonl(std::ostream& out, const SampleSeries& series);

class TimeSeriesRecorder {
 public:
  struct Config {
    std::size_t capacity = 4096;  // max retained samples (power of two best)
    int plateau_rounds = 32;      // samples without signal growth => plateau
    int shard = -1;               // stamped into flushed lines when >= 0
  };

  TimeSeriesRecorder();  // default Config
  explicit TimeSeriesRecorder(Config config);

  // Feeds one round's totals. Returns true exactly when this sample makes
  // the series enter a plateau (callers bump campaign.plateaus on true).
  bool record(const RoundSample& sample);

  // Writes the retained samples with write_samples_jsonl.
  void flush_jsonl(std::ostream& out) const;

  const std::vector<RoundSample>& samples() const { return samples_; }
  SampleSeries series() const { return {config_.shard, samples_}; }
  std::size_t size() const { return samples_.size(); }
  // Current retention stride: 1 until the first compaction, then doubles.
  std::uint64_t stride() const { return stride_; }

  int shard() const { return config_.shard; }
  std::uint64_t plateaus() const { return plateaus_; }
  int rounds_since_growth() const { return rounds_since_growth_; }
  bool in_plateau() const { return in_plateau_; }

 private:
  Config config_;
  std::vector<RoundSample> samples_;
  std::uint64_t stride_ = 1;
  std::uint64_t seq_ = 0;  // record() calls so far

  std::uint64_t last_distinct_ = 0;
  int rounds_since_growth_ = 0;
  bool in_plateau_ = false;
  std::uint64_t plateaus_ = 0;
};

}  // namespace torpedo::telemetry
