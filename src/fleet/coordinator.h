// The fleet coordinator: a multi-process campaign manager.
//
// `torpedo fleet` scales the sharded campaign out of one address space: N
// worker processes (fleet/worker.h), each a full sequential campaign stack,
// exchange corpus entries and denylist learning through this coordinator
// over a Unix-domain socket. The coordinator owns the same CorpusLedger
// state machine CorpusHub wraps in-process, so the merged corpus after any
// epoch is the same pure function of what each worker published — the fleet
// merge is schedule-independent exactly like the sharded one.
//
// Process lifecycle (the syz-manager / FlashFuzz expmanager role):
//   * spawn     fork/exec of `worker_binary` (production), or fork + direct
//               worker_main() call when worker_binary is empty (tests, the
//               selftest replay — no binary path needed).
//   * monitor   one poll() loop over the listen socket and every worker
//               connection (the MonitorServer pattern — no threads, no
//               third-party deps), plus heartbeat files for liveness and
//               /metrics discovery. Worker states: not-started, running,
//               stalled (heartbeat older than the stall budget), failed,
//               completed.
//   * restart   a worker that dies without its kDone frame is respawned up
//               to max_restarts times. Its ledger cursor rewinds to zero,
//               so the restart resumes from the last published corpus epoch
//               — the committed stream is the checkpoint.
//   * reap      waitpid() on loop ticks; after reading whatever the
//               process left on its socket, exit status and kDone decide
//               completed/failed.
//
// Each worker sends its finalized report, syscall-profile and
// mutation-efficacy rows and time-series samples in its kDone frame
// (core/report_wire.h). After every worker reaches a terminal state the
// coordinator folds the reports with core::merge_reports, clusters them,
// and writes the workdir through run::write_workdir — the sharded run's
// fold and writer, so a uniform fleet of N workers writes the same
// artifacts as `torpedo run --shards N`. workers/<k>/ keeps only the
// worker's heartbeat (and its log in exec mode).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

#include "core/report_wire.h"
#include "feedback/corpus_hub.h"
#include "fleet/frame.h"
#include "fleet/manifest.h"
#include "fleet/worker.h"
#include "util/time.h"

namespace torpedo::fleet {

enum class WorkerState {
  kNotStarted = 0,
  kRunning,
  kStalled,
  kFailed,
  kCompleted,
};
std::string_view worker_state_name(WorkerState state);

struct FleetConfig {
  Manifest manifest;
  // Merged workdir root; worker k's heartbeat lives in workdir/workers/<k>/.
  std::filesystem::path workdir;
  // Path of the torpedo binary to fork/exec per worker. Empty = fork mode:
  // the child calls worker_main() directly. Fork mode requires this process
  // to be single-threaded, so it forces coordinator_monitor_port = -1.
  std::string worker_binary;
  // Per-worker monitor: -1 = none, 0 = ephemeral (discovered via
  // heartbeat.json and aggregated into the coordinator's /metrics).
  int worker_monitor_port = -1;
  // Coordinator's own monitor (/metrics aggregation, /fleet status).
  int coordinator_monitor_port = -1;
  // A running worker whose heartbeat is older than this counts as stalled.
  Nanos stall_budget_wall_ns = 60 * kSecond;
  bool verbose = false;
  // Test hook, fork mode only: worker `test_crash_worker`'s FIRST launch
  // runs with crash_after_batch = test_crash_batch, exercising the
  // fail/restart path without signals.
  int test_crash_worker = -1;
  int test_crash_batch = 0;
};

struct WorkerStatus {
  int id = 0;
  WorkerState state = WorkerState::kNotStarted;
  pid_t pid = -1;
  int restarts = 0;
  bool done_frame = false;   // kDone received for the current process
  int monitor_port = -1;     // from heartbeat.json; -1 until discovered
  std::uint64_t executions = 0;
  std::int64_t heartbeat_wall_ns = 0;  // last heartbeat stamp (wall clock)
  // Final totals from the kDone frame's report.
  int batches = 0;
  int rounds = 0;
  std::uint64_t corpus = 0;
  std::uint64_t findings = 0;
  std::uint64_t crashes = 0;
  // Crash-recovery probe: wall ns from failure detection to the restarted
  // process's next publish (bench_fleet_scaling reports the max).
  Nanos recovery_wall_ns = 0;
};

class Coordinator {
 public:
  explicit Coordinator(FleetConfig config);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  struct Result {
    bool ok = false;      // every worker completed
    int completed = 0;
    int failed = 0;       // workers that exhausted max_restarts
    int restarts = 0;
    std::uint64_t executions = 0;  // summed worker totals
    Nanos merge_wall_ns = 0;       // fold + cluster + workdir write
    Nanos max_recovery_wall_ns = 0;
  };

  // Spawns every worker, runs the event loop to completion, writes the
  // merged workdir. Blocking; call once.
  Result run();

  // Snapshot for fleet_status.json, the /fleet endpoint, and tests.
  std::vector<WorkerStatus> workers() const;
  std::string fleet_status_json() const;

  const feedback::CorpusLedger& ledger() const { return *ledger_; }
  const std::filesystem::path& socket_path() const { return socket_path_; }

 private:
  struct Connection;

  bool setup_listener();
  WorkerOptions worker_options(int worker) const;
  bool spawn_worker(int worker);
  void accept_connections();
  void read_connection(Connection& conn);
  void handle_frame(Connection& conn, const Frame& frame);
  void worker_left(int worker);
  void flush_deltas();
  void reap_children();
  void scan_heartbeats();
  void write_fleet_status() const;
  bool all_terminal() const;
  void fail_worker(int worker);

  FleetConfig config_;
  std::filesystem::path socket_path_;
  std::unique_ptr<feedback::CorpusLedger> ledger_;
  int listen_fd_ = -1;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<bool> awaiting_delta_;  // published, owed a kDelta
  // Each worker's kDone body, kept for the merge; only the loop touches it.
  std::vector<core::DoneBody> done_;
  // Guards workers_: the coordinator monitor thread reads snapshots while
  // the loop mutates.
  mutable std::mutex mu_;
  std::vector<WorkerStatus> workers_;
  std::vector<Nanos> failure_detected_ns_;  // steady clock, 0 = none pending
  int total_restarts_ = 0;
  Nanos max_recovery_ns_ = 0;
};

}  // namespace torpedo::fleet
