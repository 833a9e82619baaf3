// Snapshot/restore equivalence suite for the fork-server analogue.
//
// The contract under test: every gated fast path (pre-lowered program
// image, epoch fd-table restore, VFS lookup cache) must be byte-identical
// to the cold-boot path it replaces — same results, same errno, same
// artifacts — with only the wall-clock cost differing. Plus regression
// tests for the Algorithm 1 blocking-time accounting and the lazily
// derived per-round signal union.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/seeds.h"
#include "exec/executor.h"
#include "exec/snapshot.h"
#include "kernel/kernel.h"
#include "kernel/process.h"
#include "kernel/vfs.h"
#include "observer/observer.h"
#include "prog/program.h"
#include "run/run.h"
#include "runtime/engine.h"
#include "util/arena.h"

namespace torpedo {
namespace {

namespace fs = std::filesystem;

// --- arena -------------------------------------------------------------------------

TEST(Arena, AlignsAndSeparatesAllocations) {
  util::Arena arena(256);
  char* a = static_cast<char*>(arena.alloc(3, 1));
  double* d = static_cast<double*>(arena.alloc(sizeof(double), alignof(double)));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  // Writes through one allocation never alias the other.
  a[0] = 'x';
  *d = 1.5;
  EXPECT_EQ(a[0], 'x');
}

TEST(Arena, InternCopiesIntoStableStorage) {
  util::Arena arena;
  std::string src = "/containers/c0/data";
  const std::string_view view = arena.intern(src);
  src.assign(src.size(), '#');  // clobber the source
  EXPECT_EQ(view, "/containers/c0/data");
}

TEST(Arena, ResetRecyclesChunksInsteadOfFreeing) {
  util::Arena arena(1 << 10);
  for (int i = 0; i < 100; ++i) (void)arena.alloc(100, 8);
  const std::size_t chunks = arena.chunks();
  EXPECT_GT(chunks, 1u);
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  for (int i = 0; i < 100; ++i) (void)arena.alloc(100, 8);
  // The same allocation pattern refills the recycled chunks; no growth.
  EXPECT_EQ(arena.chunks(), chunks);
}

TEST(Arena, MakeArrayDefaultConstructs) {
  util::Arena arena;
  std::uint32_t* xs = arena.make_array<std::uint32_t>(64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(xs[i], 0u);
}

// --- program image -----------------------------------------------------------------

prog::Program parse_or_die(const std::string& text) {
  auto p = prog::Program::parse(text);
  if (!p.has_value()) {
    ADD_FAILURE() << "unparseable program:\n" << text;
    return prog::Program{};
  }
  return *p;
}

TEST(ProgramImage, MaterializePatchesOnlyResultSlots) {
  const prog::Program program = parse_or_die(
      "r0 = open('/tmp/snap', 0x42, 0x1a4)\n"
      "close(r0)\n"
      "nanosleep(0x3e8, '')\n");
  exec::ProgramImage image;
  image.build(program);
  ASSERT_TRUE(image.built());
  ASSERT_EQ(image.size(), 3u);
  EXPECT_EQ(image.dirty_slots(), 1u);  // close(r0) is the only result ref

  std::vector<std::int64_t> results = {7, 0, 0};
  const kernel::SysReq& close_req = image.materialize(1, results);
  EXPECT_EQ(close_req.val(0), 7u);
  results[0] = 12;
  EXPECT_EQ(image.materialize(1, results).val(0), 12u);

  // Non-result slots are immutable snapshot state across restores.
  const kernel::SysReq& open_req = image.materialize(0, results);
  EXPECT_EQ(open_req.str(0), "/tmp/snap");
  EXPECT_EQ(open_req.val(1), 0x42u);
  EXPECT_EQ(open_req.val(2), 0x1a4u);
}

TEST(ProgramImage, MissingResultRestoresAsMinusOne) {
  // A result ref whose producer never ran (crash/fatal break) reads -1,
  // exactly what cold lowering produces for an unset slot.
  const prog::Program program = parse_or_die(
      "r0 = open('/x', 0x0, 0x0)\n"
      "close(r0)\n");
  exec::ProgramImage image;
  image.build(program);
  const std::vector<std::int64_t> unset = {-1, -1};
  EXPECT_EQ(image.materialize(1, unset).val(0),
            static_cast<std::uint64_t>(std::int64_t{-1}));
}

TEST(ProgramImage, RebuildReusesStorage) {
  exec::ProgramImage image;
  const prog::Program program = parse_or_die(
      "r0 = open('/a', 0x0, 0x0)\n"
      "r1 = dup(r0)\n"
      "close(r1)\n"
      "close(r0)\n");
  image.build(program);
  EXPECT_EQ(image.dirty_slots(), 3u);
  image.clear();
  EXPECT_FALSE(image.built());
  image.build(program);  // re-prime: same image, recycled arena
  EXPECT_TRUE(image.built());
  EXPECT_EQ(image.dirty_slots(), 3u);
  std::vector<std::int64_t> results = {3, 4, 0, 0};
  EXPECT_EQ(image.materialize(1, results).val(0), 3u);
  EXPECT_EQ(image.materialize(2, results).val(0), 4u);
}

// --- epoch fd-table restore --------------------------------------------------------

kernel::FileDesc file_desc() {
  kernel::FileDesc d;
  d.kind = kernel::FdKind::kFile;
  return d;
}

// Runs the same descriptor-table workout against an epoch-restore table and
// a teardown-restore table; every observable (fd numbers, EMFILE, lookups,
// open counts) must match step for step.
TEST(EpochFdTable, IdenticalToTeardownRestore) {
  kernel::Process epoch(1, "epoch", nullptr, 0);
  kernel::Process cold(2, "cold", nullptr, 0);
  epoch.set_epoch_fd_restore(true);
  cold.set_epoch_fd_restore(false);

  for (int round = 0; round < 3; ++round) {
    // Same numbering from a fresh table: lowest free fd >= 3.
    for (int i = 0; i < 8; ++i) {
      const int a = epoch.install_fd(file_desc());
      const int b = cold.install_fd(file_desc());
      ASSERT_EQ(a, b);
      ASSERT_EQ(a, 3 + i);
    }
    // Closing frees the lowest slot for reuse in both modes.
    EXPECT_EQ(epoch.close_fd(5), cold.close_fd(5));
    EXPECT_EQ(epoch.install_fd(file_desc()), 5);
    EXPECT_EQ(cold.install_fd(file_desc()), 5);
    EXPECT_EQ(epoch.close_fd(99), cold.close_fd(99));  // same errno
    EXPECT_EQ(epoch.open_fd_count(), cold.open_fd_count());
    EXPECT_NE(epoch.fd(4), nullptr);
    EXPECT_NE(cold.fd(4), nullptr);

    // The per-iteration restore: everything dies, numbering restarts.
    epoch.close_all_fds();
    cold.close_all_fds();
    EXPECT_EQ(epoch.open_fd_count(), 0u);
    EXPECT_EQ(cold.open_fd_count(), 0u);
    EXPECT_EQ(epoch.fd(4), nullptr);
    EXPECT_EQ(cold.fd(4), nullptr);
  }
}

TEST(EpochFdTable, EmfileLimitHoldsInBothModes) {
  for (const bool use_epoch : {true, false}) {
    kernel::Process proc(1, "p", nullptr, 0);
    proc.set_epoch_fd_restore(use_epoch);
    proc.set_rlimit(kernel::RLIMIT_NOFILE_, 3);  // limit counts open fds
    EXPECT_EQ(proc.install_fd(file_desc()), 3);
    EXPECT_EQ(proc.install_fd(file_desc()), 4);
    EXPECT_EQ(proc.install_fd(file_desc()), 5);
    EXPECT_LT(proc.install_fd(file_desc()), 0) << "rlimit must cap the table";
    proc.close_all_fds();
    EXPECT_EQ(proc.install_fd(file_desc()), 3) << "restore resets the limit";
  }
}

// --- VFS lookup cache --------------------------------------------------------------

// Same structural mutations against a cached and an uncached VFS: every
// resolution must return the same inode-presence and errno at every step
// (a cached result is only valid while the generation stands still).
TEST(VfsLookupCache, MatchesColdResolutionAcrossMutations) {
  kernel::Vfs hot;
  kernel::Vfs cold;
  hot.set_lookup_cache(true);
  cold.set_lookup_cache(false);

  auto expect_same = [&](std::string_view path) {
    const kernel::LookupResult a = hot.lookup(path);
    const kernel::LookupResult b = cold.lookup(path);
    EXPECT_EQ(a.inode != nullptr, b.inode != nullptr) << path;
    EXPECT_EQ(a.error, b.error) << path;
  };

  expect_same("/etc/hostname");
  expect_same("/no/such/file");
  kernel::Inode* out = nullptr;
  EXPECT_EQ(hot.create("/data/log", 0644, &out), 0);
  EXPECT_EQ(cold.create("/data/log", 0644, &out), 0);
  expect_same("/data/log");
  expect_same("/data/log");  // cache-hit path
  EXPECT_EQ(hot.mkdir("/data/sub", 0755), cold.mkdir("/data/sub", 0755));
  expect_same("/data/sub");
  // Structural mutation bumps the generation; stale entries must not
  // survive it.
  EXPECT_EQ(hot.remove("/data/log"), cold.remove("/data/log"));
  expect_same("/data/log");
  EXPECT_EQ(hot.file_count(), cold.file_count());
  const std::uint64_t gen = hot.generation();
  (void)hot.lookup("/etc/hostname");  // pure lookups never dirty the table
  EXPECT_EQ(hot.generation(), gen);
}

// --- Algorithm 1 blocking-time accounting ------------------------------------------

TEST(BlockingCharge, MeasuresFromVirtualPosition) {
  // A block ending at t=30ms charged from a call 10ms into the iteration
  // costs 20ms — not the full 30 (that was the double-count bug).
  EXPECT_EQ(exec::blocking_charge(30 * kMillisecond, -1, 10 * kMillisecond),
            20 * kMillisecond);
  // A deadline already behind the virtual position charges nothing.
  EXPECT_EQ(exec::blocking_charge(30 * kMillisecond, -1, 45 * kMillisecond),
            0);
  // An explicit early-wake hint overrides the deadline arithmetic.
  EXPECT_EQ(exec::blocking_charge(30 * kMillisecond, 2 * kMillisecond,
                                  10 * kMillisecond),
            2 * kMillisecond);
}

struct ExecHarness {
  explicit ExecHarness(runtime::RuntimeKind rt, bool snapshot) {
    kernel::KernelConfig cfg;
    cfg.host.num_cores = 8;  // default service placement needs cores 0..6
    kernel = std::make_unique<kernel::SimKernel>(cfg);
    engine = std::make_unique<runtime::Engine>(*kernel);
    runtime::ContainerSpec spec;
    spec.name = "e0";
    spec.runtime = rt;
    spec.cpus = 1.0;
    spec.cpuset_cpus = "0";
    exec::ExecConfig ecfg;
    ecfg.snapshot_exec = snapshot;
    executor = std::make_unique<exec::Executor>(*engine, spec, ecfg);
    kernel->host().run_for(500 * kMillisecond);  // settle startup helpers
  }

  exec::RunStats run_round(const prog::Program& program, Nanos round) {
    const Nanos stop = kernel->host().now() + round;
    executor->prime(program, stop);
    executor->start();
    kernel->host().run_until(stop + 100 * kMillisecond);
    return executor->take_stats();
  }

  std::unique_ptr<kernel::SimKernel> kernel;
  std::unique_ptr<runtime::Engine> engine;
  std::unique_ptr<exec::Executor> executor;
};

TEST(BlockingCharge, BackToBackSleepsSingleCount) {
  // Two 30ms nanosleeps lowered at the same sim instant share one deadline:
  // the task really sleeps ~30ms per iteration. Double-counting the second
  // block would report ~60ms and halve the measured throughput.
  const prog::Program program = parse_or_die(
      "nanosleep(0x1c9c380, '')\n"
      "nanosleep(0x1c9c380, '')\n");
  ExecHarness h(runtime::RuntimeKind::kRunc, /*snapshot=*/true);
  const exec::RunStats stats = h.run_round(program, kSecond);
  ASSERT_GT(stats.executions, 10u);
  EXPECT_GE(stats.avg_execution_time, 30 * kMillisecond);
  EXPECT_LT(stats.avg_execution_time, 45 * kMillisecond)
      << "second block appears double-counted";
}

// --- run stats ---------------------------------------------------------------------

TEST(RunStats, SignalIsUnionOfCallSignal) {
  ExecHarness h(runtime::RuntimeKind::kRunc, /*snapshot=*/true);
  const exec::RunStats stats =
      h.run_round(*core::named_seed("appendix-a1-prog0"), 300 * kMillisecond);
  ASSERT_FALSE(stats.signal.empty());
  std::set<std::uint64_t> expected;
  for (const feedback::SmallSignalSet& cs : stats.call_signal)
    for (std::uint64_t e : cs.elements()) expected.insert(e);
  EXPECT_EQ(stats.signal.size(), expected.size());
  for (std::uint64_t e : expected) EXPECT_TRUE(stats.signal.contains(e));
}

// --- denylist re-filtering ---------------------------------------------------------

// Denylist entries learned mid-campaign (or adopted from another shard)
// must be applied to programs already sitting in the queue, not only to
// future seeds: a queued program that becomes empty is dropped.
TEST(Fuzzer, AdoptedDenylistRefiltersQueuedPrograms) {
  core::CampaignConfig config;
  config.num_executors = 2;
  config.round_duration = 50 * kMillisecond;
  config.kernel.host.num_cores = 8;
  core::Campaign campaign(config);
  campaign.fuzzer().add_seed(parse_or_die("pause()\n"));
  campaign.fuzzer().add_seed(parse_or_die(
      "pause()\n"
      "nanosleep(0x3e8, '')\n"));
  ASSERT_EQ(campaign.fuzzer().pending(), 2u);

  const std::string deny[] = {"pause"};
  campaign.fuzzer().adopt_denylist(deny);
  // The pure-pause program is now empty and must be dropped; the mixed one
  // survives with its nanosleep call.
  EXPECT_EQ(campaign.fuzzer().pending(), 1u);
}

// --- crash semantics under snapshot exec -------------------------------------------

// The gVisor injected panic (open flag combination) must crash the round
// identically in both execution modes: same iteration count, same message.
TEST(SnapshotExec, CrashRoundIsModeIdentical) {
  const prog::Program crasher = *core::named_seed("gvisor-open-crash");
  exec::RunStats on, off;
  {
    ExecHarness h(runtime::RuntimeKind::kGvisor, /*snapshot=*/true);
    on = h.run_round(crasher, kSecond);
  }
  {
    ExecHarness h(runtime::RuntimeKind::kGvisor, /*snapshot=*/false);
    off = h.run_round(crasher, kSecond);
  }
  EXPECT_TRUE(on.crashed);
  EXPECT_TRUE(off.crashed);
  EXPECT_EQ(on.executions, off.executions);
  EXPECT_EQ(on.crash_message, off.crash_message);
  EXPECT_FALSE(on.crash_message.empty());
}

// --- campaign-level byte identity --------------------------------------------------

core::CampaignConfig identity_config(bool snapshot) {
  core::CampaignConfig config;
  config.num_executors = 2;
  config.round_duration = 50 * kMillisecond;
  config.batches = 2;
  config.num_seeds = 6;
  config.seed = 0x5A5A;
  config.fuzzer.cycle_out_rounds = 3;
  config.kernel.host.num_cores = 8;
  config.kernel.host.num_kworkers = 4;
  config.snapshot_exec = snapshot;
  return config;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// One campaign through the `torpedo run --workdir` path, minus the two
// files that may differ by design: the wall-clock heartbeat(s) and the
// manifest, which records the snapshot_exec setting itself.
void run_workdir(const fs::path& dir, bool snapshot, int shards) {
  run::RunOptions options;
  options.config = identity_config(snapshot);
  options.shards = shards;
  options.workdir = dir;
  ASSERT_EQ(run::run_campaign(options).error, "");
  fs::remove(dir / "campaign.json");
  for (int k = 0; k < shards; ++k)
    fs::remove(dir / run::part_file("heartbeat.json", k, shards));
}

void expect_identical_trees(const fs::path& a, const fs::path& b) {
  std::vector<std::string> files_a, files_b;
  for (const auto& e : fs::recursive_directory_iterator(a))
    if (e.is_regular_file())
      files_a.push_back(fs::relative(e.path(), a).string());
  for (const auto& e : fs::recursive_directory_iterator(b))
    if (e.is_regular_file())
      files_b.push_back(fs::relative(e.path(), b).string());
  std::sort(files_a.begin(), files_a.end());
  std::sort(files_b.begin(), files_b.end());
  ASSERT_EQ(files_a, files_b);
  for (const std::string& rel : files_a)
    EXPECT_EQ(slurp(a / rel), slurp(b / rel)) << rel;
}

// The headline invariant: a campaign with --snapshot-exec produces the same
// bytes in every artifact as the cold-boot campaign it accelerates.
TEST(SnapshotExec, CampaignArtifactsMatchColdBoot) {
  const fs::path on = fresh_dir("torpedo-snap-on");
  const fs::path off = fresh_dir("torpedo-snap-off");
  run_workdir(on, true, 1);
  run_workdir(off, false, 1);
  EXPECT_FALSE(slurp(on / "report.txt").empty());
  expect_identical_trees(on, off);
}

TEST(SnapshotExec, ShardedCampaignArtifactsMatchColdBoot) {
  const fs::path on = fresh_dir("torpedo-snap-sh-on");
  const fs::path off = fresh_dir("torpedo-snap-sh-off");
  run_workdir(on, true, 2);
  run_workdir(off, false, 2);
  expect_identical_trees(on, off);
}

}  // namespace
}  // namespace torpedo
