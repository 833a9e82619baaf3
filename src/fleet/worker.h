// One fleet worker process: a full sequential campaign stack that trades
// corpus entries through the coordinator's socket instead of an in-process
// CorpusHub.
//
// worker_main() is the entire child process body. It is callable two ways:
//   * exec mode — `torpedo run --fleet-socket S --fleet-worker K ...`
//     (hidden flags) parses a CampaignConfig and calls it; this is what the
//     coordinator fork/execs in production.
//   * fork mode — tests and the selftest replay fork() and call it directly,
//     so fleet campaigns are exercisable without knowing a binary path.
//
// The batch loop mirrors ShardedCampaign::run_shard exactly: run a batch,
// publish the fresh corpus tail + denylist, block until the coordinator's
// delta arrives (the socket is this process's epoch barrier), fold the
// delta in. After finalize the worker writes no artifacts: its report,
// syscall-profile and mutation-efficacy rows and time-series samples go to
// the coordinator in the kDone frame (core/report_wire.h), and the
// coordinator writes the merged workdir as a sharded run would. The
// worker's own directory holds only its heartbeat (and, in exec mode, its
// log).
#pragma once

#include <filesystem>
#include <string>

#include "core/campaign.h"

namespace torpedo::fleet {

struct WorkerOptions {
  int worker_id = 0;
  // Coordinator's Unix-domain socket. The worker connects with a short
  // retry window (the coordinator binds before spawning, but a restarted
  // worker may race a busy coordinator loop).
  std::string socket_path;
  core::CampaignConfig config;
  std::filesystem::path workdir;  // per-worker directory: heartbeat.json
  std::string seeds_dir;          // "" = default Moonshine-like corpus
  // Host CPU affinity list ("0", "2,3", "0-2"); "" = unpinned.
  std::string cpuset;
  // Worker-local monitor: -1 = off, 0 = ephemeral port (recorded in
  // heartbeat.json via HeartbeatWriter::set_monitor_port), > 0 = fixed.
  int monitor_port = -1;
  bool verbose = false;
  // Test hook: _exit(77) right after publishing batch N (0-based), leaving
  // the socket mid-epoch — exercises the coordinator's crash/restart path
  // deterministically, no kill() needed. < 0 = never.
  int crash_after_batch = -1;
};

// Exit code 77 = the crash_after_batch hook fired.
inline constexpr int kWorkerCrashExit = 77;

// Runs the whole worker campaign; returns the process exit code (0 = done,
// campaign finalized and its kDone frame sent; nonzero = socket/config
// error).
int worker_main(const WorkerOptions& options);

// Parses "0,2-3"-style lists and applies sched_setaffinity. Returns false
// on parse failure or an empty resulting set (the affinity call itself
// failing is reported but non-fatal — cpuset is an optimization).
bool apply_cpuset(const std::string& cpuset);

}  // namespace torpedo::fleet
