// Per-mutation-operator efficacy profiler.
//
// The kernel-fuzzing literature treats mutation-energy assignment as one of
// the levers that separates fuzzers, but the aggregate counters
// (fuzzer.mutations_tried / _accepted) cannot say *which* operator earns its
// keep. This profiler keeps one row per origin operator (seed, generate,
// splice, insert_call, remove_call, mutate_arg) with six columns:
//
//   attempts        operator applications inside mutation bursts (batch
//                   origins count one "attempt" per program drafted)
//   accepted        applications inside bursts the score loop accepted
//   executions      simulated program executions attributed to programs this
//                   operator produced — summed over operators this equals
//                   the fuzzer's total_executions() exactly
//   novel_signal    coverage-signal elements the operator's programs
//                   contributed at corpus retirement
//   violations      oracle flag-scan violations in rounds attributed to the
//                   operator's programs
//   corpus_inserts  programs the operator produced that entered the corpus
//
// Threading matches SyscallProfile: any number of shard threads write
// concurrently (relaxed fetch_add per cell); readers are relaxed. Installed
// process-wide with set_mutation_efficacy(); every probe site is a pointer
// check when disabled. All totals are deterministic for a fixed (seed,
// config) because they are sums of per-shard deterministic contributions.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "feedback/corpus.h"

namespace torpedo::feedback {

class MutationEfficacy {
 public:
  struct Row {
    OriginOp op = OriginOp::kSeed;
    std::uint64_t attempts = 0;
    std::uint64_t accepted = 0;
    std::uint64_t executions = 0;
    std::uint64_t novel_signal = 0;
    std::uint64_t violations = 0;
    std::uint64_t corpus_inserts = 0;
  };

  // Probes (campaign / shard threads).
  void record_attempt(OriginOp op) { bump(attempts_, op, 1); }
  void record_accept(OriginOp op) { bump(accepted_, op, 1); }
  void record_executions(OriginOp op, std::uint64_t n) {
    bump(executions_, op, n);
  }
  void record_novel_signal(OriginOp op, std::uint64_t novel) {
    bump(novel_signal_, op, novel);
  }
  void record_violation(OriginOp op) { bump(violations_, op, 1); }
  void record_corpus_insert(OriginOp op) { bump(corpus_inserts_, op, 1); }
  // Adds another table's row (the fleet coordinator sums its workers').
  void add(const Row& row) {
    bump(attempts_, row.op, row.attempts);
    bump(accepted_, row.op, row.accepted);
    bump(executions_, row.op, row.executions);
    bump(novel_signal_, row.op, row.novel_signal);
    bump(violations_, row.op, row.violations);
    bump(corpus_inserts_, row.op, row.corpus_inserts);
  }

  // All six rows in fixed operator order (stable output shape).
  std::vector<Row> rows() const;

  // {"ops":[{"op":"seed","attempts":..,"accepted":..,"executions":..,
  //   "novel_signal":..,"violations":..,"corpus_inserts":..},...]}
  std::string to_json() const;
  // Prometheus exposition: torpedo_mutation_attempts_total,
  // torpedo_mutation_accepted_total, torpedo_mutation_executions_total,
  // torpedo_mutation_novel_signal_total, torpedo_mutation_violations_total,
  // torpedo_mutation_corpus_inserts_total, each with {op="<name>"} labels.
  std::string to_prometheus() const;

  void reset();

 private:
  using Cells = std::array<std::atomic<std::uint64_t>, kNumOriginOps>;

  static void bump(Cells& cells, OriginOp op, std::uint64_t n) {
    const auto i = static_cast<std::size_t>(op);
    if (i >= kNumOriginOps || n == 0) return;
    cells[i].fetch_add(n, std::memory_order_relaxed);
  }

  Cells attempts_{};
  Cells accepted_{};
  Cells executions_{};
  Cells novel_signal_{};
  Cells violations_{};
  Cells corpus_inserts_{};
};

// The process-wide profiler probes default to; nullptr == disabled.
MutationEfficacy* mutation_efficacy();
void set_mutation_efficacy(MutationEfficacy* efficacy);

}  // namespace torpedo::feedback
