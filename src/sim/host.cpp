#include "sim/host.h"

#include <algorithm>
#include <limits>

#include "telemetry/telemetry.h"
#include "util/check.h"

namespace torpedo::sim {

namespace {
constexpr Nanos kForever = std::numeric_limits<Nanos>::max();
}

Host::Host(HostConfig config)
    : config_(config),
      cgroups_(config.num_cores),
      disk_(config.disk_bytes_per_second),
      rng_(config.seed) {
  TORPEDO_CHECK(config_.num_cores > 0 && config_.num_cores <= 64);
  TORPEDO_CHECK(config_.quantum > 0);
  telemetry::Registry& metrics =
      config_.metrics ? *config_.metrics : telemetry::global();
  ctr_quanta_ = &metrics.counter("sim.quanta");
  ctr_sched_picks_ = &metrics.counter("sim.scheduler_picks");
  ctr_wakeups_ = &metrics.counter("sim.wakeups");
  ctr_segments_ = &metrics.counter("sim.segments_finished");
  ctr_slices_ = &metrics.counter("sim.slices");
  hist_run_until_wall_us_ = &metrics.histogram("sim.run_until_wall_us");
  cores_.resize(static_cast<std::size_t>(config_.num_cores));
  for (int i = 0; i < config_.num_cores; ++i) cores_[static_cast<std::size_t>(i)].id = i;

  for (int i = 0; i < config_.num_kworkers; ++i) {
    Task& w = spawn({
        .name = "kworker/u:" + std::to_string(i),
        .kind = TaskKind::kKworker,
        .group = nullptr,
        .affinity = {},
        .supplier =
            [this](Host& host, Task& task) {
              if (workqueue_.empty()) {
                task.push(Segment::block_wake());
                return true;
              }
              WorkItem item = workqueue_.pop();
              if (item.system_time > 0)
                task.push(Segment::system(item.system_time));
              if (item.io_write_bytes > 0) {
                const Nanos done =
                    disk_.submit(host.now(), item.io_write_bytes);
                task.push(Segment::block_until(done, /*io_wait=*/true));
              }
              if (item.on_complete) {
                // Attach completion to the last queued segment. The closure
                // parks host-side; the marker carries the claim ticket.
                const std::uint64_t ticket = host.next_work_ticket_++;
                host.work_callbacks_[ticket] = std::move(item.on_complete);
                Segment marker = Segment::system(0);
                marker.on_complete = [](Host& h, std::uint64_t id) {
                  auto it = h.work_callbacks_.find(id);
                  std::function<void()> cb = std::move(it->second);
                  h.work_callbacks_.erase(it);
                  cb();
                };
                marker.payload = ticket;
                task.push(marker);
              }
              return true;
            },
    });
    kworkers_.push_back(&w);
  }
}

Task& Host::spawn(SpawnParams params) {
  cgroup::Cgroup* group = params.group ? params.group : &cgroups_.root();
  cgroup::CpuSet affinity = params.affinity.empty()
                                ? group->effective_cpuset()
                                : params.affinity;
  affinity = affinity.intersect(cgroup::CpuSet::all(config_.num_cores));
  TORPEDO_CHECK_MSG(!affinity.empty(), "task has no allowed cores");

  auto task = std::make_unique<Task>(next_task_id_++, std::move(params.name),
                                     params.kind, group, affinity, now_);
  task->set_supplier(std::move(params.supplier));
  Task* raw = task.get();
  tasks_.push_back(std::move(task));
  index_[raw->id()] = raw;

  const int core = place_on_core(*raw);
  raw->core_ = core;
  cores_[static_cast<std::size_t>(core)].tasks.push_back(raw);
  return *raw;
}

int Host::place_on_core(const Task& task) {
  int best = -1;
  std::vector<int> candidates;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (int c : task.affinity().cores()) {
    if (c >= config_.num_cores) continue;
    std::size_t load = 0;
    for (const Task* t : cores_[static_cast<std::size_t>(c)].tasks)
      if (t->state() == TaskState::kRunnable) ++load;
    if (load < best_load) {
      best_load = load;
      candidates.clear();
    }
    if (load == best_load) candidates.push_back(c);
  }
  TORPEDO_CHECK(!candidates.empty());
  best = candidates[place_counter_++ % candidates.size()];
  return best;
}

void Host::wake(Task& task) {
  if (task.state() != TaskState::kBlocked) return;
  ++n_wakeups_;
  task.state_ = TaskState::kRunnable;
  task.io_wait_ = false;
  task.wake_on_time_ = false;
  // The front segment is the one we were blocked on.
  if (!task.segments_.empty() &&
      (task.segments_.front().kind == SegmentKind::kBlockWake ||
       task.segments_.front().kind == SegmentKind::kBlockUntil)) {
    finish_segment(task);
  }
  // Migrate if the current core is no longer allowed.
  if (!task.affinity().contains(task.core_)) {
    auto& old_tasks = cores_[static_cast<std::size_t>(task.core_)].tasks;
    old_tasks.erase(std::find(old_tasks.begin(), old_tasks.end(), &task));
    const int core = place_on_core(task);
    task.core_ = core;
    cores_[static_cast<std::size_t>(core)].tasks.push_back(&task);
  }
  // Normalize vruntime so a long sleeper doesn't monopolize the core.
  double min_vr = std::numeric_limits<double>::max();
  for (const Task* t : cores_[static_cast<std::size_t>(task.core_)].tasks)
    if (t != &task && t->state() == TaskState::kRunnable)
      min_vr = std::min(min_vr, t->vruntime_);
  if (min_vr != std::numeric_limits<double>::max())
    task.vruntime_ = std::max(task.vruntime_, min_vr);
  cores_[static_cast<std::size_t>(task.core_)].wake_count++;
}

void Host::kill(Task& task) {
  if (task.state() == TaskState::kDead) return;
  task.state_ = TaskState::kDead;
  task.end_time_ = now_;
  task.segments_.clear();
  task.supplier_ = nullptr;
  auto& tasks = cores_[static_cast<std::size_t>(task.core_)].tasks;
  auto it = std::find(tasks.begin(), tasks.end(), &task);
  if (it != tasks.end()) tasks.erase(it);
}

Task* Host::find_task(TaskId id) {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : it->second;
}

void Host::schedule_work(WorkItem item) {
  workqueue_.push(std::move(item));
  // A dropped wakeup leaves the item queued; it drains when the next
  // schedule_work() wakeup lands or a kworker is already awake.
  if (fault_hook_ && fault_hook_->drop_kworker_wakeup(now_)) return;
  for (Task* w : kworkers_) {
    if (w->state() == TaskState::kBlocked) {
      wake(*w);
      break;
    }
  }
}

void Host::raise_softirq(int core, Nanos ns) {
  TORPEDO_CHECK(core >= 0 && core < config_.num_cores);
  TORPEDO_CHECK(ns >= 0);
  cores_[static_cast<std::size_t>(core)].pending_softirq += ns;
}

void Host::raise_irq(int core, Nanos ns) {
  TORPEDO_CHECK(core >= 0 && core < config_.num_cores);
  TORPEDO_CHECK(ns >= 0);
  cores_[static_cast<std::size_t>(core)].pending_irq += ns;
}

void Host::run_until(Nanos t) {
  TORPEDO_CHECK(t >= now_);
  const telemetry::ScopedTimerUs timer(*hist_run_until_wall_us_);
  const Nanos final_time = t;
  while (now_ < final_time) {
    const Nanos start = now_;
    const Nanos end = std::min(final_time, start + config_.quantum);
    ++n_quanta_;
    for (Core& core : cores_) simulate_core(core, start, end);
    now_ = end;
    if (tick_hook_) tick_hook_(*this);
  }
  flush_tallies();
}

void Host::flush_tallies() {
  if (n_quanta_) ctr_quanta_->inc(n_quanta_);
  if (n_picks_) ctr_sched_picks_->inc(n_picks_);
  if (n_wakeups_) ctr_wakeups_->inc(n_wakeups_);
  if (n_segments_) ctr_segments_->inc(n_segments_);
  if (n_slices_) ctr_slices_->inc(n_slices_);
  n_quanta_ = n_picks_ = n_wakeups_ = n_segments_ = n_slices_ = 0;
}

void Host::account(Core& core, CpuCategory cat, Nanos ns) {
  core.times[cat] += ns;
}

void Host::finish_segment(Task& task) {
  TORPEDO_CHECK(!task.segments_.empty());
  ++n_segments_;
  // Read the callback before popping: on_complete may push new segments.
  const Segment::Callback cb = task.segments_.front().on_complete;
  const std::uint64_t payload = task.segments_.front().payload;
  task.segments_.pop_front();
  if (cb) cb(*this, payload);
}

bool Host::ensure_segment(Task& task, Nanos t) {
  int guard = 0;
  while (task.segments_.empty()) {
    if (!task.supplier_) {
      now_ = t;
      kill(task);
      return false;
    }
    now_ = t;
    const bool keep_running = task.supplier_(*this, task);
    if (!keep_running) {
      kill(task);
      return false;
    }
    TORPEDO_CHECK_MSG(++guard < 64,
                      "supplier returned true without pushing segments");
  }
  return true;
}

Task* Host::pick_runnable(Core& core, Nanos t, bool& sole,
                          Nanos& next_throttle_end) {
  Task* best = nullptr;
  sole = true;
  next_throttle_end = kForever;
  for (Task* task : core.tasks) {
    if (task->state() != TaskState::kRunnable) continue;
    if (task->throttle_until_ > t) {
      next_throttle_end = std::min(next_throttle_end, task->throttle_until_);
      continue;
    }
    if (!best) {
      best = task;
    } else {
      sole = false;
      if (task->vruntime_ < best->vruntime_) best = task;
    }
  }
  if (best) ++n_picks_;
  return best;
}

void Host::process_wakeups(Core& core, Nanos t) {
  // The cached bound turns the per-iteration task scan into one comparison
  // for every scheduler step where no timer is due.
  if (t < core.next_timed_wake) return;
  // Index-based: waking a task may fire callbacks that spawn tasks here.
  for (std::size_t i = 0; i < core.tasks.size(); ++i) {
    Task* task = core.tasks[i];
    if (task->state() == TaskState::kBlocked && task->wake_on_time_ &&
        task->wake_time_ <= t) {
      now_ = t;
      wake(*task);
    }
  }
  // Tasks only enter timed-blocked state in run_task_slice (which refreshes
  // the bound), so recomputing from the survivors here is exact.
  Nanos next = kForever;
  for (const Task* task : core.tasks)
    if (task->state() == TaskState::kBlocked && task->wake_on_time_)
      next = std::min(next, task->wake_time_);
  core.next_timed_wake = next;
}

void Host::charge_cpu(Core& core, Task& task, cgroup::Cgroup& group, Nanos t,
                      Nanos user, Nanos sys) {
  if (user > 0) {
    account(core, CpuCategory::kUser, user);
    task.utime_ += user;
  }
  if (sys > 0) {
    account(core, CpuCategory::kSystem, sys);
    task.stime_ += sys;
  }
  if (!skip_cgroup_charging_) group.consume_cpu(t, user + sys);
}

Nanos Host::run_task_slice(Core& core, Task& task, Nanos t, Nanos budget) {
  ++n_slices_;
  if (!ensure_segment(task, t)) return 0;
  Segment& seg = task.segments_.front();

  switch (seg.kind) {
    case SegmentKind::kBlockUntil:
      if (seg.until <= t) {
        now_ = t;
        finish_segment(task);
        return 0;
      }
      task.state_ = TaskState::kBlocked;
      task.wake_on_time_ = true;
      task.wake_time_ = seg.until;
      task.io_wait_ = seg.io_wait;
      core.next_timed_wake = std::min(core.next_timed_wake, seg.until);
      return 0;
    case SegmentKind::kBlockWake:
      task.state_ = TaskState::kBlocked;
      task.wake_on_time_ = false;
      task.io_wait_ = false;
      return 0;
    case SegmentKind::kRunUser:
    case SegmentKind::kRunSystem:
      break;
  }

  if (seg.remaining == 0) {
    now_ = t;
    finish_segment(task);
    return 0;
  }

  cgroup::Cgroup* charge = seg.charge ? seg.charge : task.group();
  const Nanos want = std::min(budget, seg.remaining);
  const Nanos allowed = charge->cpu_runtime_available(t, want);
  if (allowed == 0) {
    task.throttle_until_ = charge->next_refill(t);
    TORPEDO_CHECK_MSG(task.throttle_until_ > t, "throttle must make progress");
    return 0;
  }

  const bool user = seg.kind == SegmentKind::kRunUser;
  charge_cpu(core, task, *charge, t, user ? allowed : 0, user ? 0 : allowed);
  task.vruntime_ += static_cast<double>(allowed) / task.weight();

  seg.remaining -= allowed;
  if (seg.remaining == 0) {
    now_ = t + allowed;
    finish_segment(task);
  }
  return allowed;
}

void Host::simulate_core(Core& core, Nanos start, Nanos end) {
  Nanos t = start;
  int zero_progress = 0;
  while (t < end) {
    now_ = t;
    process_wakeups(core, t);

    // Hard IRQs preempt everything and are not charged to any cgroup.
    if (core.pending_irq > 0) {
      const Nanos amt = std::min(core.pending_irq, end - t);
      account(core, CpuCategory::kIrq, amt);
      core.pending_irq -= amt;
      t += amt;
      continue;
    }
    // Softirqs run in the context of whatever is on the core; the time is
    // visible in the core's SOFTIRQ column and charged to the root cgroup,
    // never to the originating container.
    if (core.pending_softirq > 0) {
      const Nanos amt = std::min(core.pending_softirq, end - t);
      account(core, CpuCategory::kSoftirq, amt);
      cgroups_.root().charge_cpu(amt);
      core.pending_softirq -= amt;
      t += amt;
      continue;
    }

    bool sole = true;
    Nanos next_throttle_end = kForever;
    Task* task = pick_runnable(core, t, sole, next_throttle_end);
    if (!task) {
      // Nothing eligible: idle until the earliest timed wake (the cached
      // bound; a stale-low value only splits the idle span into two hops
      // with identical accounting) or throttle expiry, which pick_runnable
      // reported. Both are strictly > t after process_wakeups ran.
      const Nanos next = std::min(core.next_timed_wake, next_throttle_end);
      const Nanos idle_end = std::max(next, t + 1) > end ? end : std::max(next, t + 1);
      bool io = false;
      for (const Task* blocked : core.tasks) {
        if (blocked->state() == TaskState::kBlocked && blocked->io_wait_) {
          io = true;
          break;
        }
      }
      account(core, io ? CpuCategory::kIoWait : CpuCategory::kIdle,
              idle_end - t);
      t = idle_end;
      continue;
    }

    Nanos consumed = run_task_slice(core, *task, t, end - t);
    t += consumed;
    if (consumed == 0) {
      TORPEDO_CHECK_MSG(++zero_progress < 200000,
                        "scheduler made no progress");
      continue;
    }
    zero_progress = 0;

    // Sole-runnable fast path: keep driving the picked task through
    // consecutive segments while every step of the outer loop is provably a
    // no-op — no timer due (process_wakeups would early-return), no pending
    // irq/softirq, and a re-pick would return the same task because it is
    // still the only eligible one: nothing woke anywhere (global wakeup
    // counter), nothing joined this core (task-list size), no throttled
    // sibling became eligible, and the task itself is still runnable.
    if (sole) t = run_sole(core, *task, t, end, next_throttle_end);
  }
}

Nanos Host::run_sole(Core& core, Task& task, Nanos t, Nanos end,
                     Nanos next_throttle_end) {
  const std::uint64_t wake_mark = core.wake_count;
  const std::size_t ntasks = core.tasks.size();
  cgroup::Cgroup& group = *task.group();
  // Coalesced run: consecutive on-CPU segments that complete without side
  // effects (no callback, charged to the task's own group) and fit in the
  // quota/window headroom measured once at the run's start. Each would be a
  // full slice with allowed == remaining on the per-segment path, so the
  // run defers their charge and pays one account per category and one
  // consume_cpu at the end. The pending charge is flushed before anything
  // that could observe it runs: a slow slice (supplier, callbacks — syscall
  // handlers read /proc/stat and cgroup files) or the loop exit.
  //
  // Split points match the per-segment path: slow slices keep the budget
  // (end - t) and coalesced segments finish whole, and vruntime still
  // advances per segment. A run stops at the headroom, so only its last
  // segment can bring a group to its quota; consume_cpu counts one
  // nr_throttled per call that reaches it, as the per-segment calls did.
  Nanos run_start = t;
  Nanos run_user = 0;
  Nanos run_sys = 0;
  Nanos headroom = -1;  // < 0: not measured since the last flush
  auto flush = [&] {
    if (run_user + run_sys > 0) {
      ++n_slices_;
      charge_cpu(core, task, group, run_start, run_user, run_sys);
    }
    run_user = run_sys = 0;
    headroom = -1;
  };
  while (t < end && t < core.next_timed_wake && t < next_throttle_end &&
         task.state_ == TaskState::kRunnable && core.pending_irq == 0 &&
         core.pending_softirq == 0 && core.tasks.size() == ntasks &&
         core.wake_count == wake_mark) {
    if (!task.segments_.empty()) {
      const Segment& seg = task.segments_.front();
      const bool on_cpu = seg.kind == SegmentKind::kRunUser ||
                          seg.kind == SegmentKind::kRunSystem;
      if (on_cpu && seg.remaining > 0 && !seg.on_complete &&
          (!seg.charge || seg.charge == &group)) {
        if (headroom < 0) {
          // Bounded by end - t, so a segment inside the headroom also
          // finishes inside the quantum.
          headroom = group.cpu_runtime_available(t, end - t);
          run_start = t;
        }
        if (t - run_start + seg.remaining <= headroom) {
          // vruntime advances per segment: summing first would round
          // differently.
          task.vruntime_ += static_cast<double>(seg.remaining) / task.weight();
          (seg.kind == SegmentKind::kRunUser ? run_user : run_sys) +=
              seg.remaining;
          t += seg.remaining;
          ++n_segments_;
          task.segments_.pop_front();
          continue;
        }
      }
    }
    // The slow slice runs the first segment a supplier refill pushes without
    // re-checking the guards, exactly as the per-segment path does.
    flush();
    const Nanos consumed = run_task_slice(core, task, t, end - t);
    t += consumed;
    if (consumed == 0) break;  // throttled or killed: outer loop decides
  }
  flush();
  return t;
}

const CoreTimes& Host::core_times(int core) const {
  TORPEDO_CHECK(core >= 0 && core < config_.num_cores);
  return cores_[static_cast<std::size_t>(core)].times;
}

CoreTimes Host::aggregate_times() const {
  CoreTimes total;
  for (const Core& core : cores_) total += core.times;
  return total;
}

std::vector<TaskSample> Host::sample_tasks(bool alive_only) const {
  std::vector<TaskSample> out;
  out.reserve(tasks_.size());
  for (const auto& task : tasks_) {
    if (alive_only && !task->alive()) continue;
    TaskSample s;
    s.id = task->id();
    s.name = task->name();
    s.kind = task->kind();
    s.cgroup_path = task->group() ? task->group()->path() : "/";
    s.cpu_time = task->cpu_time();
    s.start_time = task->start_time();
    s.end_time = task->end_time();
    s.alive = task->alive();
    s.core = task->core_;
    out.push_back(std::move(s));
  }
  return out;
}

void Host::for_each_task(const std::function<void(const Task&)>& fn) const {
  for (const auto& task : tasks_) fn(*task);
}

void Host::reap_dead_tasks_before(Nanos before) {
  auto dead = [&](const std::unique_ptr<Task>& t) {
    return t->state() == TaskState::kDead && t->end_time() < before;
  };
  for (const auto& t : tasks_)
    if (dead(t)) index_.erase(t->id());
  tasks_.erase(std::remove_if(tasks_.begin(), tasks_.end(), dead),
               tasks_.end());
}

}  // namespace torpedo::sim
