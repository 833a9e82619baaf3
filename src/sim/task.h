// Simulated tasks (processes/threads).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cgroup/cgroup.h"
#include "sim/ring_queue.h"
#include "sim/segment.h"
#include "util/time.h"

namespace torpedo::sim {

using TaskId = std::uint64_t;

enum class TaskKind {
  kUser,     // container / host userspace process
  kKthread,  // long-lived kernel thread (kthreadd, ksoftirqd)
  kKworker,  // workqueue worker
  kDaemon,   // system daemon (journald, kauditd, dockerd, ...)
  kHelper,   // short-lived usermodehelper child (modprobe, core_pattern pipe)
};

enum class TaskState { kRunnable, kBlocked, kDead };

class Host;

// Supplies more segments when the task's queue drains. Return false to exit
// the task. The supplier may push segments, spawn tasks, and inspect
// Host::now(); it runs at the simulated instant the queue drained.
using Supplier = std::function<bool(Host&, class Task&)>;

class Task {
 public:
  Task(TaskId id, std::string name, TaskKind kind, cgroup::Cgroup* group,
       cgroup::CpuSet affinity, Nanos start_time)
      : id_(id),
        name_(std::move(name)),
        kind_(kind),
        cgroup_(group),
        affinity_(affinity),
        start_time_(start_time) {}

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  TaskId id() const { return id_; }
  const std::string& name() const { return name_; }
  TaskKind kind() const { return kind_; }
  cgroup::Cgroup* group() const { return cgroup_; }
  const cgroup::CpuSet& affinity() const { return affinity_; }

  TaskState state() const { return state_; }
  bool alive() const { return state_ != TaskState::kDead; }
  int core() const { return core_; }

  Nanos utime() const { return utime_; }
  Nanos stime() const { return stime_; }
  Nanos cpu_time() const { return utime_ + stime_; }
  Nanos start_time() const { return start_time_; }
  // CFS virtual runtime: on-CPU time scaled by 1/weight().
  double vruntime() const { return vruntime_; }
  Nanos end_time() const { return end_time_; }

  void push(Segment segment) { segments_.push_back(std::move(segment)); }
  void set_supplier(Supplier supplier) { supplier_ = std::move(supplier); }

  // Scheduler weight from cgroup cpu.shares (1024 == weight 1.0).
  double weight() const {
    return cgroup_ ? static_cast<double>(cgroup_->cpu().shares) / 1024.0 : 1.0;
  }

 private:
  friend class Host;

  // Scheduler-hot fields first: pick_runnable scans state_, throttle_until_
  // and vruntime_ across every task on a core, so they share the object's
  // first cache line instead of sitting behind the name string.
  TaskState state_ = TaskState::kRunnable;
  int core_ = -1;
  Nanos wake_time_ = 0;     // valid when blocked on kBlockUntil
  bool wake_on_time_ = false;
  bool io_wait_ = false;    // blocked waiting for IO
  Nanos throttle_until_ = 0;
  double vruntime_ = 0;

  TaskId id_;
  std::string name_;
  TaskKind kind_;
  cgroup::Cgroup* cgroup_;
  cgroup::CpuSet affinity_;

  Nanos utime_ = 0;
  Nanos stime_ = 0;
  Nanos start_time_ = 0;
  Nanos end_time_ = -1;

  RingQueue<Segment> segments_;
  Supplier supplier_;
};

}  // namespace torpedo::sim
