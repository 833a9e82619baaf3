// Unit & property tests for the discrete-event host: scheduling, accounting
// conservation, cgroup throttling, kworkers, softirq, the block device, and
// the noise model.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "sim/block_device.h"
#include "sim/host.h"
#include "sim/noise.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace torpedo::sim {
namespace {

HostConfig small_host(int cores = 2) {
  HostConfig cfg;
  cfg.num_cores = cores;
  cfg.num_kworkers = 2;
  return cfg;
}

// Sum of all CpuCategory counters on a core must equal wall time: every
// nanosecond is accounted exactly once.
void expect_conservation(const Host& host) {
  for (int c = 0; c < host.num_cores(); ++c) {
    EXPECT_EQ(host.core_times(c).total(), host.now())
        << "core " << c << " leaks time";
  }
}

TEST(CoreTimes, Arithmetic) {
  CoreTimes a;
  a[CpuCategory::kUser] = 10;
  a[CpuCategory::kIdle] = 5;
  a[CpuCategory::kIoWait] = 3;
  EXPECT_EQ(a.total(), 18);
  EXPECT_EQ(a.busy(), 10);
  CoreTimes b = a;
  b += a;
  EXPECT_EQ(b.total(), 36);
  EXPECT_EQ((b - a).total(), 18);
}

TEST(Host, IdleHostAccountsIdle) {
  Host host(small_host());
  host.run_for(kSecond);
  EXPECT_EQ(host.now(), kSecond);
  for (int c = 0; c < 2; ++c)
    EXPECT_EQ(host.core_times(c)[CpuCategory::kIdle], kSecond);
  expect_conservation(host);
}

TEST(Host, SimpleTaskAccountsUserAndSystem) {
  Host host(small_host());
  Task& t = host.spawn({.name = "t", .kind = TaskKind::kUser});
  t.push(Segment::user(30 * kMillisecond));
  t.push(Segment::system(20 * kMillisecond));
  host.run_for(100 * kMillisecond);
  EXPECT_EQ(t.utime(), 30 * kMillisecond);
  EXPECT_EQ(t.stime(), 20 * kMillisecond);
  const CoreTimes agg = host.aggregate_times();
  EXPECT_EQ(agg[CpuCategory::kUser], 30 * kMillisecond);
  EXPECT_EQ(agg[CpuCategory::kSystem], 20 * kMillisecond);
  expect_conservation(host);
  // No supplier: the task exits when its queue drains.
  EXPECT_FALSE(t.alive());
  EXPECT_GE(t.end_time(), 50 * kMillisecond);
}

TEST(Host, SegmentCompletionCallbackFires) {
  Host host(small_host());
  bool fired = false;
  Task& t = host.spawn({.name = "t"});
  t.push(std::move(Segment::user(kMillisecond)
                       .then([](Host&, std::uint64_t flag) {
                         *reinterpret_cast<bool*>(flag) = true;
                       }, reinterpret_cast<std::uint64_t>(&fired))));
  host.run_for(10 * kMillisecond);
  EXPECT_TRUE(fired);
}

TEST(Host, TwoTasksShareCoreFairly) {
  HostConfig cfg = small_host(1);
  Host host(cfg);
  Task& a = host.spawn({.name = "a"});
  Task& b = host.spawn({.name = "b"});
  a.push(Segment::user(10 * kSecond));
  b.push(Segment::user(10 * kSecond));
  host.run_for(kSecond);
  const double ratio = static_cast<double>(a.cpu_time()) /
                       static_cast<double>(b.cpu_time());
  EXPECT_NEAR(ratio, 1.0, 0.05);
  expect_conservation(host);
}

TEST(Host, SharesWeightScheduling) {
  Host host(small_host(1));
  auto& cg = host.cgroups();
  cgroup::Cgroup& heavy = cg.create(cg.root(), "heavy");
  heavy.cpu().shares = 2048;
  cgroup::Cgroup& light = cg.create(cg.root(), "light");
  light.cpu().shares = 1024;
  Task& a = host.spawn({.name = "a", .group = &heavy});
  Task& b = host.spawn({.name = "b", .group = &light});
  a.push(Segment::user(10 * kSecond));
  b.push(Segment::user(10 * kSecond));
  host.run_for(kSecond);
  const double ratio = static_cast<double>(a.cpu_time()) /
                       static_cast<double>(b.cpu_time());
  EXPECT_NEAR(ratio, 2.0, 0.25);
}

TEST(Host, CpusetAffinityRespected) {
  Host host(small_host(4));
  Task& t = host.spawn({.name = "pinned",
                        .affinity = cgroup::CpuSet::single(2)});
  t.push(Segment::user(kSecond));
  host.run_for(500 * kMillisecond);
  EXPECT_EQ(t.core(), 2);
  EXPECT_GT(host.core_times(2)[CpuCategory::kUser], 0);
  EXPECT_EQ(host.core_times(0)[CpuCategory::kUser], 0);
}

TEST(Host, EmptyAffinityThrows) {
  Host host(small_host(2));
  // Affinity on cores the host doesn't have.
  EXPECT_THROW(host.spawn({.name = "bad",
                           .affinity = cgroup::CpuSet::single(63)}),
               CheckFailure);
}

TEST(Host, CgroupQuotaThrottles) {
  Host host(small_host(1));
  auto& cg = host.cgroups();
  cgroup::Cgroup& capped = cg.create(cg.root(), "capped");
  capped.cpu().quota = 25 * kMillisecond;  // 25% of one core
  Task& t = host.spawn({.name = "t", .group = &capped});
  t.push(Segment::user(10 * kSecond));
  host.run_for(2 * kSecond);
  const double used = static_cast<double>(t.cpu_time()) /
                      static_cast<double>(2 * kSecond);
  EXPECT_NEAR(used, 0.25, 0.02);
  EXPECT_GT(capped.cpu().nr_throttled, 0u);
  // Throttled time shows as idle, not charged anywhere.
  EXPECT_NEAR(static_cast<double>(
                  host.core_times(0)[CpuCategory::kIdle]),
              1.5 * kSecond, 0.1 * kSecond);
  expect_conservation(host);
}

TEST(Host, BlockUntilWakesOnTime) {
  Host host(small_host());
  Task& t = host.spawn({.name = "sleeper"});
  t.push(Segment::block_until(50 * kMillisecond));
  t.push(Segment::user(10 * kMillisecond));
  host.run_for(40 * kMillisecond);
  EXPECT_EQ(t.cpu_time(), 0);
  EXPECT_EQ(t.state(), TaskState::kBlocked);
  host.run_for(30 * kMillisecond);
  EXPECT_GT(t.cpu_time(), 0);
}

TEST(Host, BlockWakeNeedsExplicitWake) {
  Host host(small_host());
  Task& t = host.spawn({.name = "waiter"});
  t.push(Segment::block_wake());
  t.push(Segment::user(kMillisecond));
  host.run_for(100 * kMillisecond);
  EXPECT_EQ(t.state(), TaskState::kBlocked);
  host.wake(t);
  host.run_for(10 * kMillisecond);
  EXPECT_EQ(t.utime(), kMillisecond);
}

TEST(Host, EarlyWakeOfTimedBlock) {
  Host host(small_host());
  Task& t = host.spawn({.name = "t"});
  t.push(Segment::block_until(10 * kSecond));
  t.push(Segment::user(kMillisecond));
  host.run_for(5 * kMillisecond);
  host.wake(t);  // signal-style early wake
  host.run_for(5 * kMillisecond);
  EXPECT_EQ(t.utime(), kMillisecond);
}

TEST(Host, IoWaitAccounting) {
  Host host(small_host(1));
  Task& t = host.spawn({.name = "io"});
  t.push(Segment::block_until(100 * kMillisecond, /*io_wait=*/true));
  host.run_for(100 * kMillisecond);
  EXPECT_EQ(host.core_times(0)[CpuCategory::kIoWait], 100 * kMillisecond);
  EXPECT_EQ(host.core_times(0)[CpuCategory::kIdle], 0);
}

TEST(Host, KworkerExecutesDeferredWorkInRootCgroup) {
  Host host(small_host());
  auto& cg = host.cgroups();
  const Nanos before = cg.root().cpu().usage;
  bool completed = false;
  WorkItem item;
  item.name = "flush";
  item.system_time = 5 * kMillisecond;
  item.on_complete = [&] { completed = true; };
  host.schedule_work(std::move(item));
  host.run_for(50 * kMillisecond);
  EXPECT_TRUE(completed);
  EXPECT_GE(cg.root().cpu().usage - before, 5 * kMillisecond);
  // The work shows as system time on some core.
  EXPECT_GE(host.aggregate_times()[CpuCategory::kSystem], 5 * kMillisecond);
}

TEST(Host, KworkerWritebackOccupiesDisk) {
  Host host(small_host());
  WorkItem item;
  item.name = "writeback";
  item.system_time = kMillisecond;
  item.io_write_bytes = 10 << 20;
  host.schedule_work(std::move(item));
  host.run_for(10 * kMillisecond);
  EXPECT_GT(host.disk().total_bytes(), 0u);
}

TEST(Host, SoftirqChargedToCoreAndRoot) {
  Host host(small_host());
  const Nanos before = host.cgroups().root().cpu().usage;
  host.raise_softirq(1, 7 * kMillisecond);
  host.run_for(20 * kMillisecond);
  EXPECT_EQ(host.core_times(1)[CpuCategory::kSoftirq], 7 * kMillisecond);
  EXPECT_EQ(host.core_times(0)[CpuCategory::kSoftirq], 0);
  EXPECT_GE(host.cgroups().root().cpu().usage - before, 7 * kMillisecond);
  expect_conservation(host);
}

TEST(Host, SoftirqPreemptsRunningTask) {
  Host host(small_host(1));
  Task& t = host.spawn({.name = "victim"});
  t.push(Segment::user(kSecond));
  host.run_for(10 * kMillisecond);
  host.raise_softirq(0, 30 * kMillisecond);
  host.run_for(50 * kMillisecond);
  // The softirq time came out of the victim's runtime.
  EXPECT_EQ(host.core_times(0)[CpuCategory::kSoftirq], 30 * kMillisecond);
  EXPECT_EQ(t.cpu_time(), 30 * kMillisecond);
}

TEST(Host, IrqCounted) {
  Host host(small_host());
  host.raise_irq(0, kMillisecond);
  host.run_for(10 * kMillisecond);
  EXPECT_EQ(host.core_times(0)[CpuCategory::kIrq], kMillisecond);
}

TEST(Host, SupplierDrivesTask) {
  Host host(small_host());
  int supplies = 0;
  host.spawn({.name = "gen",
              .supplier = [&](Host&, Task& task) {
                if (++supplies > 3) return false;  // exit
                task.push(Segment::user(kMillisecond));
                return true;
              }});
  host.run_for(100 * kMillisecond);
  EXPECT_EQ(supplies, 4);
}

TEST(Host, SupplierMustMakeProgress) {
  Host host(small_host());
  host.spawn({.name = "bad", .supplier = [](Host&, Task&) { return true; }});
  EXPECT_THROW(host.run_for(10 * kMillisecond), CheckFailure);
}

TEST(Host, SpawnFromCallback) {
  Host host(small_host());
  Task& t = host.spawn({.name = "parent"});
  t.push(std::move(Segment::user(kMillisecond).then([](Host& h, std::uint64_t) {
    Task& child = h.spawn({.name = "child"});
    child.push(Segment::user(2 * kMillisecond));
  })));
  host.run_for(50 * kMillisecond);
  EXPECT_GE(host.aggregate_times()[CpuCategory::kUser], 3 * kMillisecond);
}

TEST(Host, KillRemovesTask) {
  Host host(small_host());
  Task& t = host.spawn({.name = "t"});
  t.push(Segment::user(kSecond));
  host.run_for(10 * kMillisecond);
  host.kill(t);
  EXPECT_FALSE(t.alive());
  const Nanos at_kill = t.cpu_time();
  host.run_for(10 * kMillisecond);
  EXPECT_EQ(t.cpu_time(), at_kill);
}

TEST(Host, FindTaskAndReap) {
  Host host(small_host());
  Task& t = host.spawn({.name = "t"});
  const TaskId id = t.id();
  t.push(Segment::user(kMillisecond));
  host.run_for(10 * kMillisecond);
  EXPECT_FALSE(t.alive());
  EXPECT_EQ(host.find_task(id), &t);
  host.reap_dead_tasks_before(host.now());
  EXPECT_EQ(host.find_task(id), nullptr);
}

TEST(Host, HelpersSpreadAcrossCores) {
  Host host(small_host(8));
  for (int i = 0; i < 8; ++i) {
    Task& h = host.spawn({.name = "helper", .kind = TaskKind::kHelper});
    h.push(Segment::user(kMillisecond));
  }
  std::set<int> cores;
  for (const TaskSample& s : host.sample_tasks())
    if (s.name == "helper") cores.insert(host.find_task(s.id)->core());
  EXPECT_GE(cores.size(), 4u);
}

TEST(Host, SampleTasksSnapshot) {
  Host host(small_host());
  Task& t = host.spawn({.name = "visible", .kind = TaskKind::kDaemon});
  t.push(Segment::user(kMillisecond));
  auto samples = host.sample_tasks();
  bool found = false;
  for (const TaskSample& s : samples)
    if (s.name == "visible") {
      found = true;
      EXPECT_TRUE(s.alive);
      EXPECT_EQ(s.cgroup_path, "/");
    }
  EXPECT_TRUE(found);
}

// Property: conservation holds across randomized task mixes.
class ConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationTest, TimeIsConserved) {
  HostConfig cfg;
  cfg.num_cores = 4;
  cfg.seed = GetParam();
  Host host(cfg);
  Rng rng(GetParam());
  for (int i = 0; i < 10; ++i) {
    Task& t = host.spawn({.name = "t" + std::to_string(i)});
    for (int s = 0; s < 5; ++s) {
      switch (rng.below(4)) {
        case 0: t.push(Segment::user(rng.range(1, 20) * kMillisecond)); break;
        case 1: t.push(Segment::system(rng.range(1, 20) * kMillisecond)); break;
        case 2:
          t.push(Segment::block_until(rng.range(1, 300) * kMillisecond,
                                      rng.chance(1, 2)));
          break;
        default:
          host.raise_softirq(static_cast<int>(rng.below(4)),
                             rng.range(1, 5) * kMillisecond);
          break;
      }
    }
  }
  host.run_for(rng.range(1, 3) * kSecond);
  for (int c = 0; c < 4; ++c)
    EXPECT_EQ(host.core_times(c).total(), host.now()) << "core " << c;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- BlockDevice -----------------------------------------------------------------

TEST(BlockDevice, TransferTime) {
  BlockDevice dev(100 << 20);  // 100 MB/s
  EXPECT_EQ(dev.transfer_time(100 << 20), kSecond);
  EXPECT_EQ(dev.transfer_time(0), 0);
}

TEST(BlockDevice, SubmitsSerialize) {
  BlockDevice dev(100 << 20);
  const Nanos first = dev.submit(0, 50 << 20);   // 0.5s
  const Nanos second = dev.submit(0, 50 << 20);  // queued behind
  EXPECT_EQ(first, kSecond / 2);
  EXPECT_EQ(second, kSecond);
  // A submit after the device went idle starts fresh.
  const Nanos third = dev.submit(2 * kSecond, 50 << 20);
  EXPECT_EQ(third, 2 * kSecond + kSecond / 2);
  EXPECT_EQ(dev.total_ios(), 3u);
}

TEST(BlockDevice, Occupy) {
  BlockDevice dev;
  EXPECT_EQ(dev.occupy(10, 100), 110);
  EXPECT_EQ(dev.occupy(10, 100), 210);  // serialized
  EXPECT_TRUE(dev.busy_at(150));
  EXPECT_FALSE(dev.busy_at(210));
}

// --- noise ----------------------------------------------------------------------

class NoiseLevelTest : public ::testing::TestWithParam<double> {};

TEST_P(NoiseLevelTest, MeanUtilizationWithinBand) {
  HostConfig cfg;
  cfg.num_cores = 4;
  Host host(cfg);
  NoiseConfig noise;
  noise.mean_utilization = GetParam();
  noise.spike_chance = 0;  // isolate the mean
  install_noise(host, noise);
  host.run_for(10 * kSecond);
  for (int c = 0; c < 4; ++c) {
    const double busy = static_cast<double>(host.core_times(c).busy()) /
                        static_cast<double>(host.now());
    EXPECT_NEAR(busy, GetParam(), GetParam() * 0.35 + 0.005) << "core " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, NoiseLevelTest,
                         ::testing::Values(0.02, 0.045, 0.10, 0.20));

TEST(Noise, Deterministic) {
  auto run = [] {
    Host host(small_host(2));
    install_noise(host, {});
    host.run_for(2 * kSecond);
    return host.aggregate_times().busy();
  };
  EXPECT_EQ(run(), run());
}

TEST(Noise, ZeroUtilizationStaysIdle) {
  Host host(small_host(2));
  NoiseConfig cfg;
  cfg.mean_utilization = 0;
  install_noise(host, cfg);
  host.run_for(kSecond);
  EXPECT_EQ(host.aggregate_times().busy(), 0);
}

// --- coalesced sole-runnable runs ---------------------------------------------
//
// The sole-runnable path charges runs of callback-free segments in one step.
// This workload mixes everything that must split a run — user and system
// time, root-charged segments, a callback that wakes a sibling, a supplier
// that defers work to a kworker on the same core, timed blocks, segments
// straddling a quantum end — under a binding CFS quota, and fingerprints the
// observable state at every quantum boundary. The expected values were
// recorded from the per-segment scheduler, which charged every segment
// separately.

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(Nanos v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

struct CoalesceRun {
  std::uint64_t boundaries = 0;  // digest of the state at every quantum end
  std::uint64_t wakes = 0;       // digest of the sibling/kworker run order
  std::size_t wake_events = 0;
  Nanos user = 0, system = 0, idle = 0;
  Nanos capped_usage = 0;
  std::uint64_t nr_periods = 0, nr_throttled = 0;
  Nanos task_utime = 0, task_stime = 0;
  double task_vruntime = 0;
  std::uint64_t slices = 0, segments = 0;
};

CoalesceRun run_coalesce_workload() {
  telemetry::Registry metrics;
  HostConfig cfg = small_host(1);
  cfg.metrics = &metrics;
  Host host(cfg);
  auto& cg = host.cgroups();
  cgroup::Cgroup& capped = cg.create(cg.root(), "capped");
  capped.cpu().quota = 30 * kMillisecond;  // 30% of one 100 ms period
  // A weight that is not a power of two makes every vruntime step round.
  capped.cpu().shares = 3000;
  cgroup::Cgroup& root = cg.root();

  // (who, when): 'S' the sibling's supplier ran, 'K' a kworker completed.
  std::vector<std::pair<char, Nanos>> log;

  Task& sibling = host.spawn({
      .name = "sibling",
      .group = &capped,
      .supplier =
          [&log](Host& h, Task& task) {
            log.emplace_back('S', h.now());
            task.push(Segment::user(4 * kMicrosecond));
            task.push(Segment::block_wake());
            return true;
          },
  });
  sibling.push(Segment::block_wake());

  std::uint64_t calls = 0;
  Task& task = host.spawn({
      .name = "fuzzer",
      .group = &capped,
      .supplier =
          [&](Host& h, Task& t) {
            const std::uint64_t k = calls++;
            t.push(Segment::user(7 * kMicrosecond));
            t.push(Segment::system(13 * kMicrosecond));
            t.push(Segment::user(5 * kMicrosecond, &root));
            t.push(Segment::system(11 * kMicrosecond));
            t.push(std::move(Segment::user(3 * kMicrosecond)
                                 .then(
                                     [](Host& hh, std::uint64_t s) {
                                       hh.wake(*reinterpret_cast<Task*>(s));
                                     },
                                     reinterpret_cast<std::uint64_t>(
                                         &sibling))));
            t.push(Segment::system(9 * kMicrosecond, &capped));
            // Odd lengths in one run: per-segment vruntime steps round
            // differently from one step over their sum.
            const Nanos burst[] = {1'001, 2'003, 3'007, 4'013, 5'021};
            for (std::size_t i = 0; i < std::size(burst); ++i)
              t.push(i % 2 ? Segment::system(burst[i])
                           : Segment::user(burst[i]));
            if (k % 5 == 0) {
              WorkItem item;
              item.name = "deferred";
              item.system_time = 20 * kMicrosecond;
              item.on_complete = [&log, &h] {
                log.emplace_back('K', h.now());
              };
              h.schedule_work(std::move(item));
            }
            if (k % 7 == 3) t.push(Segment::user(1300 * kMicrosecond));
            if (k % 4 == 1)
              t.push(Segment::block_until(h.now() + 50 * kMicrosecond));
            t.push(Segment::user(2 * kMicrosecond));
            return true;
          },
  });

  CoalesceRun out;
  Fnv boundaries;
  host.set_tick_hook([&](Host& h) {
    boundaries.add(h.now());
    for (int c = 0; c < kNumCpuCategories; ++c)
      boundaries.add(h.core_times(0)[static_cast<CpuCategory>(c)]);
    for (const cgroup::Cgroup* g : {&root, &capped}) {
      boundaries.add(g->cpu().usage);
      boundaries.add(g->cpu().nr_periods);
      boundaries.add(g->cpu().nr_throttled);
    }
    for (const Task* t : {&task, &sibling}) {
      boundaries.add(t->utime());
      boundaries.add(t->stime());
      boundaries.add(t->vruntime());
    }
    boundaries.add(static_cast<std::uint64_t>(log.size()));
  });
  host.run_for(350 * kMillisecond);
  host.set_tick_hook(nullptr);

  Fnv wakes;
  for (const auto& [who, when] : log) {
    wakes.add(static_cast<std::uint64_t>(who));
    wakes.add(when);
  }
  const CoreTimes& times = host.core_times(0);
  out.boundaries = boundaries.h;
  out.wakes = wakes.h;
  out.wake_events = log.size();
  out.user = times[CpuCategory::kUser];
  out.system = times[CpuCategory::kSystem];
  out.idle = times[CpuCategory::kIdle];
  out.capped_usage = capped.cpu().usage;
  out.nr_periods = capped.cpu().nr_periods;
  out.nr_throttled = capped.cpu().nr_throttled;
  out.task_utime = task.utime();
  out.task_stime = task.stime();
  out.task_vruntime = task.vruntime();
  out.slices = metrics.counter("sim.slices").value();
  out.segments = metrics.counter("sim.segments_finished").value();
  expect_conservation(host);
  return out;
}

TEST(CoalescedRuns, MatchPerSegmentSchedulerAtEveryQuantum) {
  const CoalesceRun r = run_coalesce_workload();
  // Core times, both groups' usage/nr_periods/nr_throttled and both tasks'
  // utime/stime/vruntime after every one of the 350 quanta.
  EXPECT_EQ(r.boundaries, 0xfee79949a69d2e2eULL);
  // Who ran the sibling's supplier or a kworker completion, and when.
  EXPECT_EQ(r.wakes, 0xdce68f372851917fULL);
  EXPECT_EQ(r.wake_events, 572u);
  EXPECT_EQ(r.user, 103672320);
  EXPECT_EQ(r.system, 20647680);
  EXPECT_EQ(r.idle, 225680000);
  EXPECT_EQ(r.capped_usage, 120000000);  // the quota binds in every window
  EXPECT_EQ(r.nr_periods, 3u);
  EXPECT_EQ(r.nr_throttled, 4u);
  EXPECT_EQ(r.task_utime, 101768320);
  EXPECT_EQ(r.task_stime, 18727680);
  EXPECT_EQ(r.task_vruntime, 41129301.333333232);  // bit-exact
  EXPECT_EQ(r.segments, 7187u);
  // Scheduler work: slices plus coalesced runs. This workload splits runs
  // on purpose, so it gates the count rather than the saving.
  EXPECT_EQ(r.slices, 5908u);
}

}  // namespace
}  // namespace torpedo::sim
