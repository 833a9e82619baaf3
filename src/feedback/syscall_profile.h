// Per-syscall attribution profiler.
//
// The feedback loop knows three things about each syscall number that the
// aggregate counters throw away: how often it actually executed, how much
// out-of-band coverage signal it contributed (novel fallback-signal elements
// at candidate triage, §3.5's program-level gate), and how often it appeared
// in a program the oracle flag scan implicated (§3.6.1). This profiler keeps
// all three as per-sysno counters so a live scrape (or the post-run report)
// can answer "which syscalls is this campaign actually learning from?".
//
// Threading matches the telemetry instruments: any number of shard threads
// may write concurrently (relaxed fetch_add per cell); the monitor thread
// reads relaxed for /metrics. The executor does not write per call: it
// tallies call executions in plain executor-local counters and flushes them
// with record_execution(nr, n) once per round, so shard threads touch the
// shared cells once per sysno per round and a live scrape is at most one
// round stale. The profiler is installed process-wide with
// set_syscall_profile(); every probe site is a pointer check when disabled,
// so campaigns that don't ask for the profile pay nothing.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace torpedo::feedback {

class SyscallProfile {
 public:
  // Covers every real Linux syscall number (x86-64 tops out well below 512).
  static constexpr int kMaxSysno = 512;

  struct Row {
    int nr = 0;
    std::uint64_t executions = 0;    // individual call executions
    std::uint64_t signal_new = 0;    // novel signal elements at triage
    std::uint64_t implications = 0;  // appearances in flag-implicated programs
  };

  // Probes (campaign thread). Out-of-range nrs are dropped, not clamped.
  // `n` > 1 flushes a caller's local tally in one bump.
  void record_execution(int nr, std::uint64_t n = 1) {
    bump(executions_, nr, n);
  }
  void record_novel_signal(int nr, std::uint64_t novel) {
    bump(signal_, nr, novel);
  }
  void record_implication(int nr) { bump(implications_, nr, 1); }
  // Adds another profile's row (the fleet coordinator sums its workers').
  void add(const Row& row) {
    bump(executions_, row.nr, row.executions);
    bump(signal_, row.nr, row.signal_new);
    bump(implications_, row.nr, row.implications);
  }

  // Rows with any non-zero column, ascending by syscall number.
  std::vector<Row> rows() const;

  // Rendering takes a name table as a function so this layer stays below
  // kernel/ in the dependency graph (callers pass kernel::sysno_name).
  using NameFn = std::string_view (*)(int);

  // {"syscalls":[{"nr":..,"name":..,"executions":..,"signal_new":..,
  //   "implications":..},...]}
  std::string to_json(NameFn name) const;
  // Prometheus exposition: torpedo_syscall_executions_total,
  // torpedo_syscall_signal_total, torpedo_syscall_implications_total, each
  // with {syscall="<name>",nr="<nr>"} labels.
  std::string to_prometheus(NameFn name) const;

  void reset();

 private:
  using Cells = std::array<std::atomic<std::uint64_t>, kMaxSysno>;

  // Multi-writer: concurrent shard threads bump shared cells, so each bump
  // is a single relaxed RMW (per round per sysno on the execution path).
  static void bump(Cells& cells, int nr, std::uint64_t n) {
    if (nr < 0 || nr >= kMaxSysno || n == 0) return;
    cells[static_cast<std::size_t>(nr)].fetch_add(n,
                                                  std::memory_order_relaxed);
  }

  Cells executions_{};
  Cells signal_{};
  Cells implications_{};
};

// The process-wide profile probes default to; nullptr == profiling disabled.
SyscallProfile* syscall_profile();
void set_syscall_profile(SyscallProfile* profile);

}  // namespace torpedo::feedback
