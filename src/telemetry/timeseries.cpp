#include "telemetry/timeseries.h"

#include <ostream>

#include "telemetry/json.h"

namespace torpedo::telemetry {

TimeSeriesRecorder::TimeSeriesRecorder() : TimeSeriesRecorder(Config{}) {}

TimeSeriesRecorder::TimeSeriesRecorder(Config config) : config_(config) {
  if (config_.capacity < 2) config_.capacity = 2;
  if (config_.plateau_rounds < 1) config_.plateau_rounds = 1;
  samples_.reserve(config_.capacity);
}

bool TimeSeriesRecorder::record(const RoundSample& sample) {
  // Retention: keep every stride-th call; compact by dropping every other
  // retained sample (odd positions) once full, doubling the stride.
  if (seq_ % stride_ == 0) {
    if (samples_.size() == config_.capacity) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < samples_.size(); i += 2)
        samples_[kept++] = samples_[i];
      samples_.resize(kept);
      stride_ *= 2;
    }
    if (seq_ % stride_ == 0) samples_.push_back(sample);
  }
  ++seq_;

  // Plateau detection on distinct-signal growth.
  bool entered = false;
  if (sample.distinct_signals > last_distinct_) {
    last_distinct_ = sample.distinct_signals;
    rounds_since_growth_ = 0;
    in_plateau_ = false;
  } else {
    ++rounds_since_growth_;
    if (!in_plateau_ && rounds_since_growth_ >= config_.plateau_rounds) {
      in_plateau_ = true;
      ++plateaus_;
      entered = true;
    }
  }
  return entered;
}

void write_samples_jsonl(std::ostream& out, const SampleSeries& series) {
  for (const RoundSample& s : series.samples) {
    JsonDict d;
    d.set("round", s.round)
        .set("sim_ns", static_cast<std::int64_t>(s.sim_ns))
        .set("executions", s.executions)
        .set("corpus_size", s.corpus_size)
        .set("distinct_signals", s.distinct_signals)
        .set("violations", s.violations);
    if (series.shard >= 0) d.set("shard", series.shard);
    out << d.to_string() << "\n";
  }
}

void TimeSeriesRecorder::flush_jsonl(std::ostream& out) const {
  write_samples_jsonl(out, series());
}

}  // namespace torpedo::telemetry
