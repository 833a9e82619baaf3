// The simulated host: cores, scheduler, kernel threads, and time.
//
// Host advances virtual time in fixed scheduling quanta. Within each quantum
// every core independently runs its highest-priority runnable task (CFS-style
// minimum-vruntime pick, weighted by cgroup cpu.shares) subject to cgroup CFS
// bandwidth throttling and cpuset affinity. Pending softirq work is drained
// at quantum boundaries in the context of the core (charged to the root
// cgroup — the paper's interrupt-accounting gap).
//
// Every nanosecond of simulated core time lands in exactly one CpuCategory of
// exactly one core, so `sum(categories) == wall time` is an invariant the
// test suite checks.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cgroup/cgroup.h"
#include "sim/block_device.h"
#include "sim/core_times.h"
#include "sim/task.h"
#include "sim/workqueue.h"
#include "util/rng.h"
#include "util/time.h"

namespace torpedo::telemetry {
class Registry;
class Counter;
class Histogram;
}  // namespace torpedo::telemetry

namespace torpedo::sim {

struct HostConfig {
  int num_cores = 12;
  Nanos quantum = kMillisecond;
  int num_kworkers = 8;
  std::uint64_t disk_bytes_per_second = 200ull << 20;
  std::uint64_t seed = 0x70717065646FULL;  // "torpedo"
  // Telemetry destination; nullptr selects telemetry::global().
  telemetry::Registry* metrics = nullptr;
};

// Snapshot of one task for the top(1)-style sampler.
struct TaskSample {
  TaskId id = 0;
  std::string name;
  TaskKind kind = TaskKind::kUser;
  std::string cgroup_path;
  Nanos cpu_time = 0;
  Nanos start_time = 0;
  Nanos end_time = -1;  // -1: still alive
  bool alive = false;
  // Core the task is (or was last) assigned to; the selftest
  // cpuset-containment invariant audits this against the cgroup's cpuset.
  int core = -1;
};

// Substrate fault taps for selftest fault-injection campaigns. Every hook
// defaults to "no fault"; the Host consults an installed hook at the named
// decision points.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  // Return true to swallow the kworker wakeup schedule_work() would send.
  // The work item stays queued until the next un-dropped wakeup — the
  // "lost wakeup" failure mode deferral-heavy workloads are sensitive to.
  virtual bool drop_kworker_wakeup(Nanos now) {
    (void)now;
    return false;
  }
};

class Host {
 public:
  explicit Host(HostConfig config = {});

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  Nanos now() const { return now_; }
  int num_cores() const { return config_.num_cores; }
  const HostConfig& config() const { return config_; }

  cgroup::Hierarchy& cgroups() { return cgroups_; }
  BlockDevice& disk() { return disk_; }
  Rng& rng() { return rng_; }

  // --- task management -----------------------------------------------------

  struct SpawnParams {
    std::string name;
    TaskKind kind = TaskKind::kUser;
    cgroup::Cgroup* group = nullptr;  // nullptr == root
    cgroup::CpuSet affinity;          // empty == cgroup's effective cpuset
    Supplier supplier;                // may be null (pure segment queue)
  };

  Task& spawn(SpawnParams params);

  // Wake a task blocked on kBlockWake (completing that segment) or blocked on
  // time (waking it early). No-op if runnable or dead.
  void wake(Task& task);

  // Terminate a task immediately (e.g. killed by a fatal signal).
  void kill(Task& task);

  Task* find_task(TaskId id);

  // --- kernel facilities ---------------------------------------------------

  // Defer work to a kworker (root cgroup). The vulnerability surface.
  void schedule_work(WorkItem item);

  // Raise `ns` of softirq work on a core; drained at quantum boundaries in
  // core context, charged to the root cgroup.
  void raise_softirq(int core, Nanos ns);
  // Hard IRQ time (outside any process context).
  void raise_irq(int core, Nanos ns);

  // --- simulation ----------------------------------------------------------

  void run_until(Nanos t);
  void run_for(Nanos d) { run_until(now_ + d); }

  // --- measurement surface -------------------------------------------------

  const CoreTimes& core_times(int core) const;
  CoreTimes aggregate_times() const;
  // With alive_only, dead-but-unreaped tasks (helper floods between reaps)
  // are skipped. The observer's diff only reports tasks alive at both window
  // edges, so alive-only snapshots are observationally identical and skip
  // copying two strings per dead helper.
  std::vector<TaskSample> sample_tasks(bool alive_only = false) const;

  // Read-only task walk; the selftest cpuset-containment invariant uses this
  // instead of sample_tasks() to avoid string copies on the audit path.
  void for_each_task(const std::function<void(const Task&)>& fn) const;

  // --- selftest hook points ------------------------------------------------

  // Invoked after every scheduling quantum, once all cores have advanced to
  // now(). Single slot; installing replaces the previous hook, nullptr
  // removes it. The selftest invariant checker and fault injector hang off
  // this — the unset hook costs one branch per quantum.
  void set_tick_hook(std::function<void(Host&)> hook) {
    tick_hook_ = std::move(hook);
  }

  // Fault-injection tap (selftest pillar 3). Caller keeps ownership and must
  // clear the hook before destroying it.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }

  // Deliberately skip Cgroup::consume_cpu charging. Test-only: validates
  // that the selftest charge-conservation invariant detects a broken
  // accounting path. Never set outside the selftest harness.
  void set_skip_cgroup_charging_for_selftest(bool skip) {
    skip_cgroup_charging_ = skip;
  }

  std::uint64_t tasks_spawned() const { return next_task_id_ - 1; }

  // Drop bookkeeping for dead tasks that ended before `before` (keeps long
  // campaigns lean; the top sampler only needs the current window).
  void reap_dead_tasks_before(Nanos before);

 private:
  struct Core {
    int id = 0;
    CoreTimes times;
    std::vector<Task*> tasks;  // all non-dead tasks assigned here
    Nanos pending_softirq = 0;
    Nanos pending_irq = 0;
    // Conservative lower bound on the earliest pending timed wake of any
    // task on this core; process_wakeups() skips its scan until it passes.
    // Stale-low values (after an early wake or a kill) only cost a spurious
    // scan, never a missed wakeup.
    Nanos next_timed_wake = kMaxNanos;
    // Bumped whenever a task on this core becomes runnable via wake();
    // the sole-runnable fast path uses it to prove eligibility on this
    // core is unchanged (wakes on other cores don't matter here).
    std::uint64_t wake_count = 0;
  };

  void simulate_core(Core& core, Nanos start, Nanos end);
  // Runs `task` at time t for at most `budget`; returns time consumed.
  Nanos run_task_slice(Core& core, Task& task, Nanos t, Nanos budget);
  // Drives the sole runnable `task` from t while a re-pick would provably
  // return it again; returns the time reached.
  Nanos run_sole(Core& core, Task& task, Nanos t, Nanos end,
                 Nanos next_throttle_end);
  // Charges on-CPU time to the core, the task and `group` (with bandwidth
  // accounting at `t`).
  void charge_cpu(Core& core, Task& task, cgroup::Cgroup& group, Nanos t,
                  Nanos user, Nanos sys);
  // Ensures the task has a current segment; may invoke the supplier or kill
  // the task. Returns false if the task can't run (blocked/dead/empty).
  bool ensure_segment(Task& task, Nanos t);
  // Minimum-vruntime eligible task (first in list order wins ties). Also
  // reports whether it was the only eligible task and the earliest throttle
  // expiry among runnable-but-throttled tasks — the sole-runnable fast path
  // in simulate_core needs both to prove a re-pick would be identical.
  Task* pick_runnable(Core& core, Nanos t, bool& sole,
                      Nanos& next_throttle_end);
  void process_wakeups(Core& core, Nanos t);
  int place_on_core(const Task& task);
  void account(Core& core, CpuCategory cat, Nanos ns);
  void finish_segment(Task& task);

  HostConfig config_;
  Nanos now_ = 0;
  cgroup::Hierarchy cgroups_;
  BlockDevice disk_;
  Rng rng_;

  std::vector<Core> cores_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::unordered_map<TaskId, Task*> index_;
  TaskId next_task_id_ = 1;
  std::size_t place_counter_ = 0;

  WorkQueue workqueue_;
  std::vector<Task*> kworkers_;
  // Parked workqueue completion closures; a marker segment's payload is the
  // ticket (Segment carries only a raw callback pointer + one word).
  std::unordered_map<std::uint64_t, std::function<void()>> work_callbacks_;
  std::uint64_t next_work_ticket_ = 1;

  std::function<void(Host&)> tick_hook_;
  FaultHook* fault_hook_ = nullptr;
  bool skip_cgroup_charging_ = false;

  // Hot-path event tallies, batched into the telemetry counters once per
  // run_until() instead of one atomic RMW per event (tens of millions of
  // segments per campaign batch). Readers between run_until() calls see
  // fully up-to-date values; a mid-run scrape sees values at most one
  // run_until() window stale.
  std::uint64_t n_quanta_ = 0;
  std::uint64_t n_picks_ = 0;
  std::uint64_t n_wakeups_ = 0;
  std::uint64_t n_segments_ = 0;
  // Scheduler work units: one per run_task_slice call plus one per coalesced
  // run of segments in run_sole.
  std::uint64_t n_slices_ = 0;
  void flush_tallies();

  // Telemetry probes, resolved once at construction (no lookups on the hot
  // path).
  telemetry::Counter* ctr_quanta_ = nullptr;
  telemetry::Counter* ctr_sched_picks_ = nullptr;
  telemetry::Counter* ctr_wakeups_ = nullptr;
  telemetry::Counter* ctr_segments_ = nullptr;
  telemetry::Counter* ctr_slices_ = nullptr;
  telemetry::Histogram* hist_run_until_wall_us_ = nullptr;
};

}  // namespace torpedo::sim
