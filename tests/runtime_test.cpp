// Unit tests for the container runtimes (runC/crun native, gVisor sandboxed,
// Kata virtualized) and the Docker-like Engine.
#include <gtest/gtest.h>

#include "kernel/errno.h"
#include "kernel/syscalls.h"
#include "runtime/engine.h"
#include "runtime/gvisor.h"
#include "runtime/kata.h"
#include "runtime/native.h"
#include "util/check.h"

namespace torpedo::runtime {
namespace {

using kernel::SysArg;
using kernel::SysReq;
using kernel::Sysno;

SysArg num(std::uint64_t v) { return SysArg::num(v); }
SysArg text(std::string s) { return SysArg::text(std::move(s)); }

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() {
    kernel::KernelConfig cfg;
    cfg.host.num_cores = 8;
    kernel_ = std::make_unique<kernel::SimKernel>(cfg);
    engine_ = std::make_unique<Engine>(*kernel_);
  }

  // A container whose entrypoint just idles.
  Container& idle_container(const ContainerSpec& spec) {
    return engine_->run(spec, [](sim::Host&, sim::Task& t) {
      t.push(sim::Segment::block_wake());
      return true;
    });
  }

  ExecOutcome run_call(Container& ctr, const SysReq& req,
                       bool collider = false) {
    ExecOutcome out;
    ctr.runtime().execute(*ctr.process(), req,
                          ExecContext{.collider = collider}, out);
    return out;
  }

  std::unique_ptr<kernel::SimKernel> kernel_;
  std::unique_ptr<Engine> engine_;
};

// --- name mapping ----------------------------------------------------------------

struct NameCase {
  const char* name;
  RuntimeKind kind;
};

// Print the name rather than the raw bytes so test names are stable.
void PrintTo(const NameCase& c, std::ostream* os) {
  *os << '"' << c.name << '"';
}

class RuntimeNameTest : public ::testing::TestWithParam<NameCase> {};

TEST_P(RuntimeNameTest, RoundTrips) {
  EXPECT_EQ(runtime_from_name(GetParam().name), GetParam().kind);
}

INSTANTIATE_TEST_SUITE_P(Names, RuntimeNameTest,
                         ::testing::Values(NameCase{"runc", RuntimeKind::kRunc},
                                           NameCase{"crun", RuntimeKind::kCrun},
                                           NameCase{"runsc",
                                                    RuntimeKind::kGvisor},
                                           NameCase{"gvisor",
                                                    RuntimeKind::kGvisor},
                                           NameCase{"kata",
                                                    RuntimeKind::kKata}));

TEST(RuntimeName, UnknownIsNullopt) {
  EXPECT_FALSE(runtime_from_name("docker").has_value());
}

// --- Engine ----------------------------------------------------------------------

TEST_F(RuntimeTest, RunTranslatesRestrictions) {
  ContainerSpec spec;
  spec.name = "web";
  spec.cpus = 1.5;
  spec.cpuset_cpus = "0-2";
  spec.memory_bytes = 64 << 20;
  Container& ctr = idle_container(spec);
  EXPECT_EQ(ctr.state(), ContainerState::kRunning);
  // --cpus 1.5 => quota of 1.5 periods.
  EXPECT_EQ(ctr.group().cpu().quota,
            static_cast<Nanos>(1.5 * static_cast<double>(
                                         ctr.group().cpu().period)));
  EXPECT_EQ(ctr.group().effective_cpuset().count(), 3);
  EXPECT_EQ(ctr.group().memory().limit_bytes, 64 << 20);
  EXPECT_NE(ctr.process(), nullptr);
  EXPECT_EQ(engine_->live_containers(), 1u);
}

TEST_F(RuntimeTest, UnrestrictedSpecLeavesDefaults) {
  Container& ctr = idle_container({});
  EXPECT_EQ(ctr.group().cpu().quota, cgroup::CpuController::kNoQuota);
  EXPECT_EQ(ctr.group().effective_cpuset().count(), 8);
}

TEST_F(RuntimeTest, InvalidCpusetThrows) {
  ContainerSpec spec;
  spec.cpuset_cpus = "9-5";
  EXPECT_THROW(idle_container(spec), CheckFailure);
}

TEST_F(RuntimeTest, StartupCostLandsInContainerCgroup) {
  Container& ctr = idle_container({});
  kernel_->host().run_for(200 * kMillisecond);
  // The runc:create helper burned its startup cost inside the container
  // cgroup.
  EXPECT_GT(ctr.group().cpu().usage, 10 * kMillisecond);
}

TEST_F(RuntimeTest, StopAndRemove) {
  Container& ctr = idle_container({});
  engine_->stop(ctr);
  EXPECT_EQ(ctr.state(), ContainerState::kStopped);
  EXPECT_EQ(ctr.process(), nullptr);
  EXPECT_EQ(engine_->live_containers(), 0u);
  engine_->remove(ctr);
  EXPECT_EQ(ctr.state(), ContainerState::kRemoved);
}

TEST_F(RuntimeTest, CrashAndRestart) {
  Container& ctr = idle_container({});
  engine_->mark_crashed(ctr, "sentry panic: test");
  EXPECT_EQ(ctr.state(), ContainerState::kCrashed);
  EXPECT_EQ(ctr.crash_message(), "sentry panic: test");
  EXPECT_EQ(engine_->crashes(), 1u);
  engine_->restart(ctr, [](sim::Host&, sim::Task& t) {
    t.push(sim::Segment::block_wake());
    return true;
  });
  EXPECT_EQ(ctr.state(), ContainerState::kRunning);
  EXPECT_EQ(ctr.restarts(), 1);
  EXPECT_NE(ctr.process(), nullptr);
}

TEST_F(RuntimeTest, StreamOutputRaisesLdiscSoftirq) {
  Container& ctr = idle_container({});
  engine_->stream_output(ctr, 1 << 20);
  kernel_->host().run_for(kSecond);
  EXPECT_GT(kernel_->host().core_times(
                engine_->config().ldisc_core)[sim::CpuCategory::kSoftirq],
            0);
}

TEST_F(RuntimeTest, RuntimeInstancesAreShared) {
  EXPECT_EQ(&engine_->runtime(RuntimeKind::kGvisor),
            &engine_->runtime(RuntimeKind::kGvisor));
  EXPECT_NE(&engine_->runtime(RuntimeKind::kRunc),
            &engine_->runtime(RuntimeKind::kGvisor));
}

// --- native runtimes ---------------------------------------------------------------

TEST_F(RuntimeTest, NativePassesThroughToHostKernel) {
  Container& ctr = idle_container({});
  const ExecOutcome out =
      run_call(ctr, {Sysno::kSocket, {num(4), num(3), num(9)}});
  EXPECT_EQ(out.res.err, kernel::EAFNOSUPPORT_);
  EXPECT_EQ(kernel_->modprobe_execs(), 1u);  // host effect reachable
  EXPECT_FALSE(out.runtime_crashed);
}

TEST_F(RuntimeTest, StartupCostsOrdered) {
  Runtime& runc = engine_->runtime(RuntimeKind::kRunc);
  Runtime& crun = engine_->runtime(RuntimeKind::kCrun);
  Runtime& gvisor = engine_->runtime(RuntimeKind::kGvisor);
  Runtime& kata = engine_->runtime(RuntimeKind::kKata);
  EXPECT_LT(crun.startup_cost(), runc.startup_cost());
  EXPECT_LT(runc.startup_cost(), gvisor.startup_cost());
  EXPECT_LT(gvisor.startup_cost(), kata.startup_cost());
}

// --- gVisor ---------------------------------------------------------------------

class GvisorTest : public RuntimeTest {
 protected:
  GvisorTest() {
    ContainerSpec spec;
    spec.runtime = RuntimeKind::kGvisor;
    ctr_ = &idle_container(spec);
  }
  Container* ctr_ = nullptr;
};

TEST_F(GvisorTest, PrepareProcessDisablesHostEffects) {
  EXPECT_FALSE(ctr_->process()->host_coredumps);
  EXPECT_FALSE(ctr_->process()->modprobe_on_missing);
  EXPECT_FALSE(ctr_->process()->host_audit);
}

struct CompatCase {
  int nr;
  bool supported;
};

// Print the syscall name rather than the raw bytes (which include padding)
// so test names are stable.
void PrintTo(const CompatCase& c, std::ostream* os) {
  *os << kernel::sysno_name(c.nr);
}

class GvisorCompatTest : public GvisorTest,
                         public ::testing::WithParamInterface<CompatCase> {};

TEST_P(GvisorCompatTest, CompatTable) {
  auto& gvisor = static_cast<GvisorRuntime&>(ctr_->runtime());
  EXPECT_EQ(gvisor.supports(GetParam().nr), GetParam().supported);
  if (!GetParam().supported) {
    const ExecOutcome out = run_call(*ctr_, {GetParam().nr, {}});
    EXPECT_EQ(out.res.err, kernel::ENOSYS_);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Surface, GvisorCompatTest,
    ::testing::Values(CompatCase{kernel::Sysno::kOpen, true},
                      CompatCase{kernel::Sysno::kRead, true},
                      CompatCase{kernel::Sysno::kSocket, true},
                      CompatCase{kernel::Sysno::kSync, true},
                      // The paper leans on these gaps: kcov ioctl, rseq, ...
                      CompatCase{kernel::Sysno::kIoctl, false},
                      CompatCase{kernel::Sysno::kRseq, false},
                      CompatCase{kernel::Sysno::kKcmp, false},
                      CompatCase{kernel::Sysno::kSetxattr, false},
                      CompatCase{kernel::Sysno::kInotifyInit, false},
                      CompatCase{kernel::Sysno::kMqOpen, false}));

TEST_F(GvisorTest, OpenPanicFlagPatternCrashes) {
  // §A.2.2: open('/lib/.../libc.so.6', 0x680002, 0x20) kills the container.
  const ExecOutcome out =
      run_call(*ctr_, {Sysno::kOpen, {text("/lib/x86_64-linux-gnu/libc.so.6"),
                                      num(0x680002), num(0x20)}});
  EXPECT_TRUE(out.runtime_crashed);
  EXPECT_NE(out.crash_message.find("0x680002"), std::string::npos);
}

class GvisorOpenFlagTest
    : public GvisorTest,
      public ::testing::WithParamInterface<std::pair<std::uint64_t, bool>> {};

TEST_P(GvisorOpenFlagTest, OnlyThePatternCrashes) {
  const auto [flags, crashes] = GetParam();
  const ExecOutcome out =
      run_call(*ctr_, {Sysno::kOpen,
                       {text("/etc/passwd"), num(flags), num(0)}});
  EXPECT_EQ(out.runtime_crashed, crashes) << std::hex << flags;
}

INSTANTIATE_TEST_SUITE_P(
    Flags, GvisorOpenFlagTest,
    ::testing::Values(std::pair<std::uint64_t, bool>{0x0, false},
                      std::pair<std::uint64_t, bool>{0x2, false},
                      std::pair<std::uint64_t, bool>{0x200000, false},
                      std::pair<std::uint64_t, bool>{0x400000, false},
                      std::pair<std::uint64_t, bool>{0x600000, true},
                      std::pair<std::uint64_t, bool>{0x680002, true},
                      std::pair<std::uint64_t, bool>{0x600001, true}));

TEST_F(GvisorTest, ColliderOpenRaceCrashesEventually) {
  int crashes = 0;
  for (int i = 0; i < 500; ++i) {
    const ExecOutcome out = run_call(
        *ctr_, {Sysno::kOpen, {text("/etc/passwd"), num(0), num(0)}},
        /*collider=*/true);
    if (out.runtime_crashed) ++crashes;
  }
  EXPECT_GT(crashes, 0);
  EXPECT_LT(crashes, 100);  // it's a race, not a certainty
}

TEST_F(GvisorTest, NoColliderNoRace) {
  for (int i = 0; i < 500; ++i) {
    const ExecOutcome out = run_call(
        *ctr_, {Sysno::kOpen, {text("/etc/passwd"), num(0), num(0)}});
    ASSERT_FALSE(out.runtime_crashed);
  }
}

TEST_F(GvisorTest, SyncHandledInSentry) {
  kernel_->vfs().dirty(8 << 20);
  const ExecOutcome out = run_call(*ctr_, {Sysno::kSync, {}});
  EXPECT_EQ(out.res.err, 0);
  EXPECT_EQ(out.res.block_until, 0);                  // no device wait
  EXPECT_EQ(kernel_->vfs().dirty_bytes(), 8u << 20);  // host cache untouched
  EXPECT_EQ(kernel_->trace().count(kernel::TraceKind::kIoFlush, 0,
                                   kernel_->host().now() + 1),
            0u);
}

TEST_F(GvisorTest, SocketNeverModprobes) {
  const ExecOutcome out =
      run_call(*ctr_, {Sysno::kSocket, {num(4), num(3), num(9)}});
  EXPECT_EQ(out.res.err, kernel::EAFNOSUPPORT_);
  EXPECT_EQ(kernel_->modprobe_execs(), 0u);
}

TEST_F(GvisorTest, FatalSignalDumpsInSandbox) {
  // open with mode triggering nothing; use kill(self, SIGSEGV) instead.
  const ExecOutcome out = run_call(
      *ctr_,
      {Sysno::kKill, {num(ctr_->process()->pid()), num(11)}});
  EXPECT_EQ(out.res.fatal_signal, 11);
  EXPECT_EQ(kernel_->coredumps(), 0u);  // no host usermodehelper
  // The sentry-side dump cost shows as user time in the container.
  EXPECT_GT(out.res.user_ns, 500 * kMicrosecond);
}

TEST_F(GvisorTest, CostTransformationShape) {
  ContainerSpec native_spec;
  Container& native = idle_container(native_spec);
  const SysReq req{Sysno::kGetpid, {}};
  // Average over many calls (jitter + stalls are randomized).
  Nanos gv_user = 0, gv_sys = 0, nat_user = 0, nat_sys = 0;
  for (int i = 0; i < 200; ++i) {
    const ExecOutcome g = run_call(*ctr_, req);
    gv_user += g.res.user_ns;
    gv_sys += g.res.sys_ns;
    const ExecOutcome n = run_call(native, req);
    nat_user += n.res.user_ns;
    nat_sys += n.res.sys_ns;
  }
  EXPECT_GT(gv_user, nat_user);  // sentry dispatch adds user time
  EXPECT_GT(gv_sys, 0);
}

// --- Kata -----------------------------------------------------------------------

TEST_F(RuntimeTest, KataSuppressesHostEffects) {
  ContainerSpec spec;
  spec.runtime = RuntimeKind::kKata;
  Container& ctr = idle_container(spec);
  EXPECT_FALSE(ctr.process()->host_coredumps);
  EXPECT_FALSE(ctr.process()->modprobe_on_missing);
  const ExecOutcome out =
      run_call(ctr, {Sysno::kSocket, {num(4), num(3), num(9)}});
  EXPECT_EQ(out.res.err, kernel::EAFNOSUPPORT_);
  EXPECT_EQ(kernel_->modprobe_execs(), 0u);
}

TEST_F(RuntimeTest, KataGuestWorkShowsAsVmmUserTime) {
  ContainerSpec spec;
  spec.runtime = RuntimeKind::kKata;
  Container& ctr = idle_container(spec);
  const ExecOutcome out =
      run_call(ctr, {Sysno::kOpen, {text("/etc/passwd"), num(0), num(0)}});
  EXPECT_EQ(out.res.err, 0);
  // Guest kernel time is accounted as VMM user time; host sys is just the
  // vm-exit.
  EXPECT_GT(out.res.user_ns, out.res.sys_ns);
  EXPECT_LT(out.res.sys_ns, 10 * kMicrosecond);
}

}  // namespace
}  // namespace torpedo::runtime
