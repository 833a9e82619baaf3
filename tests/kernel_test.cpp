// Unit tests for the simulated kernel: VFS, processes, every syscall family,
// the adversarial side-effect paths (coredump/usermodehelper, modprobe,
// sync/writeback, audit), procfs, and the trace.
#include <gtest/gtest.h>

#include "kernel/errno.h"
#include "kernel/kernel.h"
#include "kernel/procfs.h"
#include "kernel/signals.h"
#include "kernel/syscalls.h"

namespace torpedo::kernel {
namespace {

using sim::Segment;

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() {
    KernelConfig cfg;
    cfg.host.num_cores = 8;
    kernel_ = std::make_unique<SimKernel>(cfg);
    auto& hierarchy = kernel_->host().cgroups();
    group_ = &hierarchy.create(hierarchy.root(), "ctr");
    // The process task idles unless a test runs the host.
    task_ = &kernel_->host().spawn(
        {.name = "proc",
         .group = group_,
         .supplier = [](sim::Host&, sim::Task& t) {
           t.push(Segment::block_wake());
           return true;
         }});
    proc_ = &kernel_->create_process("proc", group_, task_->id());
  }

  SysResult call(int nr, std::vector<SysArg> args = {}) {
    return kernel_->do_syscall(*proc_, {nr, std::move(args)});
  }
  static SysArg num(std::uint64_t v) { return SysArg::num(v); }
  static SysArg text(std::string s) { return SysArg::text(std::move(s)); }

  int open_path(const std::string& path, std::uint64_t flags = 0) {
    const SysResult r = call(kOpen, {text(path), num(flags), num(0)});
    EXPECT_EQ(r.err, 0) << path;
    return static_cast<int>(r.ret);
  }

  std::unique_ptr<SimKernel> kernel_;
  cgroup::Cgroup* group_ = nullptr;
  sim::Task* task_ = nullptr;
  Process* proc_ = nullptr;
};

// --- process / fd table -----------------------------------------------------

TEST_F(KernelTest, FdTableAllocatesLowestFree) {
  const int a = open_path("/etc/passwd");
  const int b = open_path("/etc/passwd");
  EXPECT_EQ(a, 3);
  EXPECT_EQ(b, 4);
  EXPECT_EQ(call(kClose, {num(static_cast<std::uint64_t>(a))}).err, 0);
  EXPECT_EQ(open_path("/etc/passwd"), 3);  // reuses the hole
}

TEST_F(KernelTest, CloseBadFd) {
  EXPECT_EQ(call(kClose, {num(99)}).err, EBADF_);
}

TEST_F(KernelTest, NofileLimitGivesEmfile) {
  proc_->set_rlimit(RLIMIT_NOFILE_, 2);
  open_path("/etc/passwd");
  open_path("/etc/passwd");
  const SysResult r = call(kOpen, {text("/etc/passwd"), num(0), num(0)});
  EXPECT_EQ(r.err, EMFILE_);
}

TEST_F(KernelTest, ResetProcessClearsState) {
  open_path("/etc/passwd");
  call(kMmap, {num(0), num(4096), num(3), num(0x32), num(~0ULL), num(0)});
  call(kAlarm, {num(100)});
  EXPECT_GT(proc_->open_fd_count(), 0u);
  EXPECT_GT(proc_->mapped_bytes, 0u);
  kernel_->reset_process(*proc_);
  EXPECT_EQ(proc_->open_fd_count(), 0u);
  EXPECT_EQ(proc_->mapped_bytes, 0u);
  EXPECT_EQ(proc_->alarm_at, 0);
  EXPECT_EQ(group_->memory().usage_bytes, 0);
}

// --- VFS ----------------------------------------------------------------------

TEST(Vfs, NormalizePath) {
  EXPECT_EQ(normalize_path("a//b/"), "a/b");
  EXPECT_EQ(normalize_path("/a"), "/a");
  EXPECT_EQ(normalize_path("/"), "/");
  EXPECT_EQ(normalize_path(""), "");
}

TEST(Vfs, LookupAndCreate) {
  Vfs vfs;
  EXPECT_NE(vfs.lookup("/etc/passwd").inode, nullptr);
  EXPECT_EQ(vfs.lookup("/missing").error, ENOENT_);
  Inode* inode = nullptr;
  EXPECT_EQ(vfs.create("newfile", 0644, &inode), 0);
  ASSERT_NE(inode, nullptr);
  inode->size = 10;
  // creat() on an existing file truncates.
  Inode* again = nullptr;
  EXPECT_EQ(vfs.create("newfile", 0644, &again), 0);
  EXPECT_EQ(again, inode);
  EXPECT_EQ(inode->size, 0u);
}

TEST(Vfs, SelfLoopSymlinkEloop) {
  Vfs vfs;
  const LookupResult r = vfs.lookup("test_eloop");
  EXPECT_EQ(r.error, ELOOP_);
  EXPECT_GT(r.follows, 30);
}

TEST(Vfs, EloopThroughDirectoryComponents) {
  Vfs vfs;
  const LookupResult r =
      vfs.lookup("test_eloop/test_eloop/test_eloop/file");
  EXPECT_EQ(r.error, ELOOP_);
}

TEST(Vfs, MkdirAndRemove) {
  Vfs vfs;
  EXPECT_EQ(vfs.mkdir("d", 0755), 0);
  EXPECT_EQ(vfs.mkdir("d", 0755), EEXIST_);
  EXPECT_EQ(vfs.remove("d"), EISDIR_);
  vfs.create("d/f", 0644, nullptr);
  EXPECT_EQ(vfs.remove("d/f"), 0);
  EXPECT_EQ(vfs.remove("d/f"), ENOENT_);
}

TEST(Vfs, DirtyLedgerCapped) {
  Vfs vfs;
  vfs.dirty(Vfs::kMaxDirtyBytes * 3);
  EXPECT_EQ(vfs.dirty_bytes(), Vfs::kMaxDirtyBytes);
  EXPECT_EQ(vfs.consume_dirty(100), 100u);
  EXPECT_EQ(vfs.take_dirty(), Vfs::kMaxDirtyBytes - 100);
  EXPECT_EQ(vfs.dirty_bytes(), 0u);
}

// --- syscall name table ---------------------------------------------------------

TEST(Sysno, NamesRoundTrip) {
  const int nrs[] = {kRead,  kWrite, kOpen,   kSync,      kSocket,
                     kRseq,  kKcmp,  kCreat,  kFallocate, kRtSigreturn,
                     kSetuid, kGetxattr, kMqOpen, kSyncfs};
  for (int nr : nrs) {
    const auto name = sysno_name(nr);
    ASSERT_NE(name, "unknown") << nr;
    EXPECT_EQ(sysno_from_name(name), nr);
  }
  EXPECT_EQ(sysno_name(99999), "unknown");
  EXPECT_FALSE(sysno_from_name("frobnicate").has_value());
}

// --- file IO ---------------------------------------------------------------------

TEST_F(KernelTest, ReadWriteLseek) {
  const int fd = open_path("/etc/passwd");
  SysResult r =
      call(kRead, {num(static_cast<std::uint64_t>(fd)), text(""), num(100)});
  EXPECT_EQ(r.ret, 100);
  r = call(kLseek, {num(static_cast<std::uint64_t>(fd)), num(0), num(2)});
  EXPECT_EQ(r.ret, 1704);
  r = call(kRead, {num(static_cast<std::uint64_t>(fd)), text(""), num(100)});
  EXPECT_EQ(r.ret, 0);  // EOF
  r = call(kLseek, {num(static_cast<std::uint64_t>(fd)),
                    num(static_cast<std::uint64_t>(-5)), num(1)});
  EXPECT_EQ(r.ret, 1699);
  r = call(kLseek, {num(static_cast<std::uint64_t>(fd)),
                    num(static_cast<std::uint64_t>(-5000)), num(1)});
  EXPECT_EQ(r.err, EINVAL_);
  r = call(kLseek, {num(static_cast<std::uint64_t>(fd)), num(0), num(7)});
  EXPECT_EQ(r.err, EINVAL_);
}

TEST_F(KernelTest, WriteExtendsAndDirties) {
  const SysResult c = call(kCreat, {text("wfile"), num(0644)});
  const int fd = static_cast<int>(c.ret);
  const std::uint64_t dirty_before = kernel_->vfs().dirty_bytes();
  const SysResult w =
      call(kWrite, {num(static_cast<std::uint64_t>(fd)), text("x"), num(4096)});
  EXPECT_EQ(w.ret, 4096);
  EXPECT_EQ(kernel_->vfs().dirty_bytes() - dirty_before, 4096u);
  EXPECT_EQ(kernel_->vfs().lookup("wfile").inode->size, 4096u);
  // Buffered writes are never charged to blkio — the gap sync(2) exploits.
  EXPECT_EQ(group_->blkio().bytes_written, 0u);
}

TEST_F(KernelTest, ProcFileReadWrite) {
  const int fd = open_path("/proc/sys/fs/mqueue/msg_max", 0x2);
  SysResult r =
      call(kRead, {num(static_cast<std::uint64_t>(fd)), text(""), num(7)});
  EXPECT_EQ(r.ret, 3);  // "10\n"
  r = call(kWrite,
           {num(static_cast<std::uint64_t>(fd)), text("47530"), num(6)});
  EXPECT_EQ(r.ret, 6);
  EXPECT_EQ(
      kernel_->vfs().lookup("/proc/sys/fs/mqueue/msg_max").inode->contents,
      "47530");
}

TEST_F(KernelTest, OpenErrors) {
  EXPECT_EQ(call(kOpen, {text("/missing"), num(0), num(0)}).err, ENOENT_);
  EXPECT_EQ(call(kOpen, {text("test_eloop"), num(0), num(0)}).err, ELOOP_);
  EXPECT_EQ(call(kOpen, {text("newone"), num(0x40), num(0644)}).err, 0);
}

TEST_F(KernelTest, SocketFdsRejectFileOps) {
  const SysResult s = call(kSocket, {num(2), num(2), num(0)});
  ASSERT_EQ(s.err, 0);
  const std::uint64_t fd = static_cast<std::uint64_t>(s.ret);
  EXPECT_EQ(call(kLseek, {num(fd), num(0), num(0)}).err, ESPIPE_);
  EXPECT_EQ(call(kRead, {num(fd), text(""), num(10)}).err, ENOTCONN_);
}

TEST_F(KernelTest, DupPipeEtc) {
  const int fd = open_path("/etc/passwd");
  const SysResult d = call(kDup, {num(static_cast<std::uint64_t>(fd))});
  EXPECT_GT(d.ret, fd);
  EXPECT_EQ(call(kPipe, {text("")}).err, 0);
  EXPECT_GT(call(kEpollCreate1, {num(0)}).ret, 0);
  EXPECT_GT(call(kEventfd2, {num(0), num(0)}).ret, 0);
  EXPECT_GT(call(kMemfdCreate, {text("m"), num(0)}).ret, 0);
  EXPECT_GT(call(kMqOpen, {text("q"), num(0x40), num(0600), text("")}).ret, 0);
  EXPECT_EQ(call(kDup, {num(1234)}).err, EBADF_);
}

TEST_F(KernelTest, PathSyscalls) {
  EXPECT_EQ(call(kStat, {text("/etc/passwd"), text("")}).err, 0);
  EXPECT_EQ(call(kStat, {text("/nope"), text("")}).err, ENOENT_);
  EXPECT_EQ(call(kAccess, {text("testdir_1"), num(4)}).err, 0);
  EXPECT_EQ(call(kChmod, {text("testdir_1"), num(0x1ff)}).err, 0);
  EXPECT_EQ(kernel_->vfs().lookup("testdir_1").inode->mode, 0x1ffu);
  EXPECT_EQ(call(kMkdir, {text("newdir"), num(0700)}).err, 0);
  EXPECT_EQ(call(kMkdir, {text("newdir"), num(0700)}).err, EEXIST_);
  EXPECT_EQ(call(kUnlink, {text("/etc/passwd")}).err, 0);
  EXPECT_EQ(call(kStat, {text("/etc/passwd"), text("")}).err, ENOENT_);
}

TEST_F(KernelTest, RenameMovesFile) {
  call(kCreat, {text("src"), num(0644)});
  EXPECT_EQ(call(kRename, {text("src"), text("dst")}).err, 0);
  EXPECT_EQ(kernel_->vfs().lookup("src").error, ENOENT_);
  EXPECT_NE(kernel_->vfs().lookup("dst").inode, nullptr);
}

TEST_F(KernelTest, ReadlinkSemantics) {
  const SysResult loop = call(
      kReadlink, {text("test_eloop/test_eloop/test_eloop"), text(""), num(0)});
  EXPECT_EQ(loop.err, ELOOP_);
  const SysResult notlink =
      call(kReadlink, {text("/etc/passwd"), text(""), num(0)});
  EXPECT_EQ(notlink.err, EINVAL_);
  const SysResult missing = call(kReadlink, {text("/gone"), text(""), num(0)});
  EXPECT_EQ(missing.err, ENOENT_);
}

TEST_F(KernelTest, ReadlinkEloopCostsMore) {
  const SysResult cheap = call(kStat, {text("/etc/passwd"), text("")});
  const SysResult costly =
      call(kReadlink, {text("test_eloop/test_eloop"), text(""), num(0)});
  EXPECT_GT(costly.sys_ns, cheap.sys_ns + 30 * kMicrosecond);
}

// --- xattr -----------------------------------------------------------------------

TEST_F(KernelTest, XattrRoundTrip) {
  call(kCreat, {text("xfile"), num(0644)});
  EXPECT_EQ(call(kSetxattr, {text("xfile"), text("user.k"),
                             text("this is a test value"), num(0x15), num(0)})
                .err,
            0);
  SysResult r =
      call(kGetxattr, {text("xfile"), text("user.k"), text(""), num(0)});
  EXPECT_EQ(r.ret, 20);  // size-0 query returns the attribute size
  r = call(kGetxattr, {text("xfile"), text("user.k"), text(""), num(4)});
  EXPECT_EQ(r.err, ERANGE_);
  r = call(kGetxattr, {text("xfile"), text("user.k"), text(""), num(64)});
  EXPECT_EQ(r.ret, 20);
  r = call(kGetxattr, {text("xfile"), text("user.other"), text(""), num(0)});
  EXPECT_EQ(r.err, ENODATA_);
}

// --- size / rlimit (SIGXFSZ) --------------------------------------------------------

TEST_F(KernelTest, FallocateWithinLimit) {
  const int fd = static_cast<int>(call(kCreat, {text("big"), num(0644)}).ret);
  const SysResult r = call(kFallocate, {num(static_cast<std::uint64_t>(fd)),
                                        num(0), num(0), num(1 << 20)});
  EXPECT_EQ(r.err, 0);
  EXPECT_EQ(kernel_->vfs().lookup("big").inode->size, 1u << 20);
}

TEST_F(KernelTest, FallocateBeyondFsizeDeliversSigxfsz) {
  const int fd = static_cast<int>(call(kCreat, {text("big"), num(0644)}).ret);
  const std::uint64_t dumps_before = kernel_->coredumps();
  const SysResult r =
      call(kFallocate, {num(static_cast<std::uint64_t>(fd)), num(0), num(0),
                        num(0x4000000000000000ULL)});
  EXPECT_EQ(r.fatal_signal, SIGXFSZ_);
  EXPECT_EQ(kernel_->coredumps(), dumps_before + 1);
  EXPECT_GE(kernel_->trace().count(TraceKind::kCoredump, 0,
                                   kernel_->host().now() + 1),
            1u);
}

TEST_F(KernelTest, FallocateOverflowSaturates) {
  const int fd = static_cast<int>(call(kCreat, {text("big"), num(0644)}).ret);
  const SysResult r = call(kFallocate, {num(static_cast<std::uint64_t>(fd)),
                                        num(0), num(~0ULL - 5), num(100)});
  EXPECT_EQ(r.fatal_signal, SIGXFSZ_);
}

TEST_F(KernelTest, FallocateErrors) {
  EXPECT_EQ(call(kFallocate, {num(77), num(0), num(0), num(10)}).err, EBADF_);
  const int fd = static_cast<int>(call(kCreat, {text("f"), num(0644)}).ret);
  EXPECT_EQ(call(kFallocate,
                 {num(static_cast<std::uint64_t>(fd)), num(0), num(0), num(0)})
                .err,
            EINVAL_);
}

TEST_F(KernelTest, FtruncateBeyondFsize) {
  const int fd = static_cast<int>(call(kCreat, {text("t"), num(0644)}).ret);
  EXPECT_EQ(call(kFtruncate, {num(static_cast<std::uint64_t>(fd)),
                              num(0x7000000000000000ULL)})
                .fatal_signal,
            SIGXFSZ_);
}

TEST_F(KernelTest, WriteBeyondFsize) {
  proc_->set_rlimit(RLIMIT_FSIZE_, 1024);
  const int fd = static_cast<int>(call(kCreat, {text("w"), num(0644)}).ret);
  const SysResult r =
      call(kWrite, {num(static_cast<std::uint64_t>(fd)), text(""), num(4096)});
  EXPECT_EQ(r.fatal_signal, SIGXFSZ_);
  EXPECT_EQ(r.err, EFBIG_);
}

TEST_F(KernelTest, UnlimitedFsizeNeverSignals) {
  proc_->set_rlimit(RLIMIT_FSIZE_, kRlimInfinity);
  const int fd = static_cast<int>(call(kCreat, {text("nf"), num(0644)}).ret);
  const SysResult r =
      call(kFtruncate, {num(static_cast<std::uint64_t>(fd)), num(~0ULL)});
  EXPECT_EQ(r.fatal_signal, 0);
}

// --- signals ----------------------------------------------------------------------

TEST(Signals, CoredumpSetMatchesPaper) {
  // §4.3.2: "SIGABRT/SIGIOT, SIGBUS, SIGFPE, SIGILL, SIGSEGV, SIGQUIT,
  // SIGSYS/SIGUNUSED, SIGTRAP, SIGXCPU and SIGXFSZ by default".
  const int dumping[] = {SIGABRT_, SIGBUS_, SIGFPE_, SIGILL_,  SIGSEGV_,
                         SIGQUIT_, SIGSYS_, SIGTRAP_, SIGXCPU_, SIGXFSZ_};
  for (int sig : dumping) EXPECT_TRUE(signal_dumps_core(sig)) << sig;
  const int non_dumping[] = {SIGKILL_, SIGTERM_, SIGALRM_, SIGHUP_,
                             SIGINT_,  SIGPIPE_, SIGUSR1_};
  for (int sig : non_dumping) EXPECT_FALSE(signal_dumps_core(sig)) << sig;
}

TEST_F(KernelTest, RtSigreturnOutsideHandlerSegfaults) {
  const SysResult r = call(kRtSigreturn);
  EXPECT_EQ(r.fatal_signal, SIGSEGV_);
  EXPECT_EQ(kernel_->coredumps(), 1u);
}

TEST_F(KernelTest, RseqSemantics) {
  EXPECT_EQ(
      call(kRseq, {num(0x7f0000000000), num(32), num(0), num(0x53053053)}).err,
      0);
  EXPECT_EQ(call(kRseq, {num(0x7f0000000001), num(32), num(0), num(0)})
                .fatal_signal,
            SIGSEGV_);
  EXPECT_EQ(call(kRseq, {num(0x7f0000000000), num(64), num(0), num(0)})
                .fatal_signal,
            SIGSEGV_);
  const SysResult r =
      call(kRseq, {num(0x7f0000000000), num(32), num(7), num(0)});
  EXPECT_EQ(r.err, EINVAL_);
  EXPECT_EQ(r.fatal_signal, 0);
}

TEST_F(KernelTest, KillSelf) {
  const std::uint64_t self = proc_->pid();
  EXPECT_EQ(call(kKill, {num(self), num(0)}).err, 0);  // probe
  EXPECT_EQ(call(kKill, {num(self), num(SIGUSR1_)}).fatal_signal, 0);
  EXPECT_EQ(call(kKill, {num(self), num(SIGTERM_)}).fatal_signal, SIGTERM_);
  kernel_->reset_process(*proc_);
  EXPECT_EQ(call(kKill, {num(self), num(SIGSEGV_)}).fatal_signal, SIGSEGV_);
  EXPECT_GE(kernel_->coredumps(), 1u);
}

TEST_F(KernelTest, KillOtherPidIsNamespaced) {
  EXPECT_EQ(call(kKill, {num(0x1586), num(9)}).err, ESRCH_);
  EXPECT_EQ(call(kKill, {num(proc_->pid()), num(70)}).err, EINVAL_);
}

TEST_F(KernelTest, AlarmFiresAtNextSyscallAfterExpiry) {
  EXPECT_EQ(call(kAlarm, {num(1)}).err, 0);
  EXPECT_EQ(call(kGetpid).fatal_signal, 0);  // not yet
  kernel_->host().run_for(2 * kSecond);
  const SysResult r = call(kGetpid);
  EXPECT_EQ(r.fatal_signal, SIGALRM_);
  EXPECT_EQ(kernel_->coredumps(), 0u);  // SIGALRM terminates without a dump
}

TEST_F(KernelTest, AlarmZeroCancels) {
  call(kAlarm, {num(100)});
  const SysResult r = call(kAlarm, {num(0)});
  EXPECT_EQ(r.err, 0);
  EXPECT_GE(r.ret, 99);  // remaining seconds from the previous alarm
  kernel_->host().run_for(kSecond);
  EXPECT_EQ(call(kGetpid).fatal_signal, 0);
}

TEST_F(KernelTest, ExitIsFatalWithoutDump) {
  const SysResult r = call(kExit, {num(0)});
  EXPECT_NE(r.fatal_signal, 0);
  EXPECT_EQ(kernel_->coredumps(), 0u);
}

TEST_F(KernelTest, HostCoredumpsFlagSuppressesHelper) {
  proc_->host_coredumps = false;
  const SysResult r = call(kRtSigreturn);
  EXPECT_EQ(r.fatal_signal, SIGSEGV_);
  EXPECT_EQ(kernel_->coredumps(), 0u);
  EXPECT_EQ(kernel_->trace().count(TraceKind::kCoredump, 0,
                                   kernel_->host().now() + 1),
            0u);
}

TEST_F(KernelTest, CoredumpHelperRunsInRootCgroup) {
  const Nanos root_before = kernel_->host().cgroups().root().cpu().usage;
  const Nanos ctr_before = group_->cpu().usage;
  call(kRtSigreturn);
  kernel_->host().run_for(100 * kMillisecond);
  // The helper burned CPU charged to the root cgroup, not the container.
  EXPECT_GT(kernel_->host().cgroups().root().cpu().usage - root_before,
            2 * kMillisecond);
  EXPECT_EQ(group_->cpu().usage, ctr_before);
}

// --- sockets & modprobe ---------------------------------------------------------------

// gtest names these cases by the struct's raw bytes, so it must have no
// padding: with a trailing bool, three uninitialised bytes made the test IDs
// change from run to run. All-int fields keep every byte defined and the IDs
// stable.
struct SocketCase {
  int family;
  int type;
  int protocol;
  int want_err;
  int want_modprobe;  // 0 or 1
};
static_assert(sizeof(SocketCase) == 5 * sizeof(int));

class SocketTest : public KernelTest,
                   public ::testing::WithParamInterface<SocketCase> {};

TEST_P(SocketTest, FamilyTypeProtocolMatrix) {
  const SocketCase& c = GetParam();
  const std::uint64_t probes_before = kernel_->modprobe_execs();
  const SysResult r =
      call(kSocket, {num(static_cast<std::uint64_t>(c.family)),
                     num(static_cast<std::uint64_t>(c.type)),
                     num(static_cast<std::uint64_t>(c.protocol))});
  EXPECT_EQ(r.err, c.want_err);
  EXPECT_EQ(kernel_->modprobe_execs() - probes_before,
            c.want_modprobe ? 1u : 0u);
  if (c.want_err == 0) EXPECT_GE(r.ret, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SocketTest,
    ::testing::Values(
        // Loaded families succeed.
        SocketCase{1, 1, 0, 0, 0},  // unix stream
        SocketCase{2, 2, 17, 0, 0},  // inet udp
        SocketCase{10, 1, 6, 0, 0},  // inet6 tcp
        SocketCase{16, 3, 9, 0, 0},  // netlink audit (Table A.3!)
        SocketCase{17, 2, 0, 0, 0},  // packet
        // Valid-but-missing modules: modprobe fires, errno 97.
        SocketCase{3, 3, 9, EAFNOSUPPORT_, 1},  // AX25
        SocketCase{4, 3, 7, EAFNOSUPPORT_, 1},  // IPX (the A.1.3 pair)
        SocketCase{9, 2, 0, EAFNOSUPPORT_, 1},   // X25
        SocketCase{21, 1, 0, EAFNOSUPPORT_, 1},  // RDS
        SocketCase{44, 1, 0, EAFNOSUPPORT_, 1},
        // Invalid family: rejected before the module path, no modprobe.
        SocketCase{45, 1, 0, EAFNOSUPPORT_, 0},
        SocketCase{200, 1, 0, EAFNOSUPPORT_, 0},
        // Bad type on a loaded family: errno 94 + modprobe.
        SocketCase{2, 0, 0, ESOCKTNOSUPPORT_, 1},
        SocketCase{2, 7, 0, ESOCKTNOSUPPORT_, 1},
        // Bad protocol on a loaded family: errno 93 + modprobe.
        SocketCase{2, 2, 99, EPROTONOSUPPORT_, 1},
        SocketCase{16, 3, 23, EPROTONOSUPPORT_, 1},
        SocketCase{1, 1, 5, EPROTONOSUPPORT_, 1}));

TEST_F(KernelTest, ModprobeHasNoNegativeCache) {
  // "repeated requests for a socket will cause modprobe to be executed
  // again and again" (§4.3.3).
  for (int i = 1; i <= 5; ++i) {
    call(kSocket, {num(4), num(3), num(9)});
    EXPECT_EQ(kernel_->modprobe_execs(), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(kernel_->trace().count(TraceKind::kModprobe, 0,
                                   kernel_->host().now() + 1),
            5u);
}

TEST_F(KernelTest, ModprobeSuppressedForSandboxedRuntime) {
  proc_->modprobe_on_missing = false;
  const SysResult r = call(kSocket, {num(4), num(3), num(9)});
  EXPECT_EQ(r.err, EAFNOSUPPORT_);
  EXPECT_EQ(kernel_->modprobe_execs(), 0u);
  EXPECT_EQ(r.block_until, 0);
}

TEST_F(KernelTest, ModprobeHelperChargesRoot) {
  proc_->block_deadline = kernel_->host().now() + kSecond;
  const Nanos root_before = kernel_->host().cgroups().root().cpu().usage;
  const SysResult r = call(kSocket, {num(4), num(3), num(9)});
  EXPECT_GT(r.block_until, kernel_->host().now());
  EXPECT_GE(r.block_hint, 0);
  kernel_->host().run_for(500 * kMillisecond);
  EXPECT_GT(kernel_->host().cgroups().root().cpu().usage - root_before,
            kMillisecond);
}

TEST_F(KernelTest, SocketpairInstallsTwoFds) {
  const std::size_t before = proc_->open_fd_count();
  EXPECT_EQ(call(kSocketpair, {num(1), num(1), num(0), text("")}).err, 0);
  EXPECT_EQ(proc_->open_fd_count(), before + 2);
}

TEST_F(KernelTest, SendtoNetlinkAuditGeneratesAuditEvents) {
  const SysResult s = call(kSocket, {num(16), num(3), num(9)});
  ASSERT_EQ(s.err, 0);
  const std::uint64_t before = kernel_->services().audit_events();
  const SysResult r = call(kSendto, {num(static_cast<std::uint64_t>(s.ret)),
                                     text("testing audit system"), num(0x24),
                                     num(0), text(""), num(0xc)});
  EXPECT_EQ(r.ret, 0x24);
  EXPECT_EQ(kernel_->services().audit_events(), before + 1);
}

TEST_F(KernelTest, SendtoAuditGatedByHostAudit) {
  proc_->host_audit = false;
  const SysResult s = call(kSocket, {num(16), num(3), num(9)});
  call(kSendto, {num(static_cast<std::uint64_t>(s.ret)), text("x"), num(4),
                 num(0), text(""), num(0xc)});
  EXPECT_EQ(kernel_->services().audit_events(), 0u);
}

TEST_F(KernelTest, SendtoUdpRaisesNetSoftirq) {
  const SysResult s = call(kSocket, {num(2), num(2), num(17)});
  ASSERT_EQ(s.err, 0);
  call(kSendto, {num(static_cast<std::uint64_t>(s.ret)), text("p"), num(64),
                 num(0), text(""), num(16)});
  EXPECT_EQ(kernel_->trace().count(TraceKind::kNetSoftirq, 0,
                                   kernel_->host().now() + 1),
            1u);
}

TEST_F(KernelTest, SendtoStreamUnconnected) {
  const SysResult s = call(kSocket, {num(2), num(1), num(6)});
  EXPECT_EQ(call(kSendto, {num(static_cast<std::uint64_t>(s.ret)), text("p"),
                           num(4), num(0), text(""), num(16)})
                .err,
            ENOTCONN_);
}

// --- sync / writeback -------------------------------------------------------------

TEST_F(KernelTest, SyncFlushesDirtyAndBlocks) {
  kernel_->vfs().dirty(8 << 20);
  const SysResult r = call(kSync);
  EXPECT_EQ(r.err, 0);
  EXPECT_GT(r.block_until, kernel_->host().now());
  EXPECT_TRUE(r.block_io);
  EXPECT_EQ(kernel_->vfs().dirty_bytes(), 0u);
  EXPECT_EQ(kernel_->trace().count(TraceKind::kIoFlush, 0,
                                   kernel_->host().now() + 1),
            1u);
  EXPECT_TRUE(kernel_->host().disk().busy_at(kernel_->host().now()));
}

TEST_F(KernelTest, WritersStallDuringSyncFlush) {
  kernel_->vfs().dirty(32 << 20);
  call(kSync);
  const int fd = static_cast<int>(call(kCreat, {text("lw"), num(0644)}).ret);
  const SysResult w =
      call(kWrite, {num(static_cast<std::uint64_t>(fd)), text(""), num(512)});
  EXPECT_GT(w.block_until, kernel_->host().now());
  EXPECT_TRUE(w.block_io);
}

TEST_F(KernelTest, FsyncPartialFlush) {
  kernel_->vfs().dirty(8 << 20);
  const int fd = static_cast<int>(call(kCreat, {text("ff"), num(0644)}).ret);
  call(kFsync, {num(static_cast<std::uint64_t>(fd))});
  EXPECT_GE(kernel_->vfs().dirty_bytes(), 7u << 20);
  EXPECT_EQ(call(kFsync, {num(99)}).err, EBADF_);
}

TEST_F(KernelTest, SyncSchedulesKworkerWriteback) {
  kernel_->vfs().dirty(4 << 20);
  const Nanos root_before = kernel_->host().cgroups().root().cpu().usage;
  call(kSync);
  kernel_->host().run_for(kSecond);
  EXPECT_GT(kernel_->host().cgroups().root().cpu().usage, root_before);
}

// --- blocking calls -----------------------------------------------------------------

TEST_F(KernelTest, BlockingCallsCappedAtDeadline) {
  proc_->block_deadline = kernel_->host().now() + 100 * kMillisecond;
  SysResult r = call(kPause);
  EXPECT_EQ(r.block_until, proc_->block_deadline);
  r = call(kNanosleep,
           {num(static_cast<std::uint64_t>(kSecond) * 100), text("")});
  EXPECT_EQ(r.block_until, proc_->block_deadline);
  r = call(kNanosleep, {num(kMillisecond), text("")});
  EXPECT_EQ(r.block_until, kernel_->host().now() + kMillisecond);
  r = call(kPoll, {text(""), num(1), num(10)});
  EXPECT_EQ(r.block_until, kernel_->host().now() + 10 * kMillisecond);
  const SysResult sock = call(kSocket, {num(2), num(2), num(0)});
  r = call(kRecvfrom, {num(static_cast<std::uint64_t>(sock.ret)), text(""),
                       num(64), num(0), text(""), num(16)});
  EXPECT_EQ(r.err, EAGAIN_);
  EXPECT_EQ(r.block_until, proc_->block_deadline);
}

// --- memory -----------------------------------------------------------------------

TEST_F(KernelTest, MmapChargesMemoryCgroup) {
  group_->memory().limit_bytes = 1 << 20;
  SysResult r = call(kMmap, {num(0), num(512 << 10), num(3), num(0x32),
                             num(~0ULL), num(0)});
  EXPECT_EQ(r.err, 0);
  EXPECT_EQ(group_->memory().usage_bytes, 512 << 10);
  r = call(kMmap,
           {num(0), num(1 << 20), num(3), num(0x32), num(~0ULL), num(0)});
  EXPECT_EQ(r.err, ENOMEM_);
  EXPECT_EQ(group_->memory().failcnt, 1u);
  r = call(kMunmap, {num(0x7f0000000000), num(512 << 10)});
  EXPECT_EQ(r.err, 0);
  EXPECT_EQ(group_->memory().usage_bytes, 0);
}

TEST_F(KernelTest, MmapErrors) {
  EXPECT_EQ(
      call(kMmap, {num(0), num(0), num(3), num(0x32), num(~0ULL), num(0)}).err,
      EINVAL_);
  EXPECT_EQ(call(kMmap, {num(0), num(1ULL << 60), num(3), num(0x32),
                         num(~0ULL), num(0)})
                .err,
            ENOMEM_);
  EXPECT_EQ(call(kMunmap, {num(0), num(0)}).err, EINVAL_);
}

// --- misc process syscalls ------------------------------------------------------------

TEST_F(KernelTest, ProcessInfoCalls) {
  EXPECT_EQ(call(kGetpid).ret, static_cast<std::int64_t>(proc_->pid()));
  EXPECT_EQ(call(kGetuid).ret, 0);
  EXPECT_EQ(call(kSetuid, {num(0xfffe)}).err, 0);
  EXPECT_EQ(call(kGetuid).ret, 0xfffe);
  EXPECT_EQ(call(kUmask, {num(0777)}).ret, 022);
  EXPECT_EQ(call(kUname, {text("")}).err, 0);
  EXPECT_EQ(call(kSchedYield).err, 0);
}

TEST_F(KernelTest, SetuidAudits) {
  call(kSetuid, {num(0xfffe)});
  EXPECT_EQ(kernel_->services().audit_events(), 1u);
  proc_->host_audit = false;
  call(kSetuid, {num(0)});
  EXPECT_EQ(kernel_->services().audit_events(), 1u);
}

TEST_F(KernelTest, RlimitCalls) {
  EXPECT_EQ(call(kGetrlimit, {num(0x3e8), text("")}).err, EINVAL_);
  EXPECT_EQ(call(kGetrlimit, {num(1), text("")}).err, 0);
  EXPECT_EQ(call(kSetrlimit, {num(1), num(4096)}).err, 0);
  EXPECT_EQ(proc_->rlimit(RLIMIT_FSIZE_), 4096u);
}

TEST_F(KernelTest, KcmpSemantics) {
  EXPECT_EQ(call(kKcmp, {num(proc_->pid()), num(proc_->pid()), num(9), num(0),
                         num(0)})
                .err,
            EINVAL_);
  EXPECT_EQ(
      call(kKcmp, {num(0x1586), num(proc_->pid()), num(0), num(0), num(0)})
          .err,
      ESRCH_);
  EXPECT_EQ(call(kKcmp, {num(proc_->pid()), num(proc_->pid()), num(0), num(0),
                         num(0)})
                .err,
            0);
}

TEST_F(KernelTest, IoctlAlwaysEnotty) {
  const int fd = open_path("/etc/passwd");
  EXPECT_EQ(call(kIoctl, {num(static_cast<std::uint64_t>(fd)),
                          num(0x80087601), text("")})
                .err,
            ENOTTY_);
  EXPECT_EQ(call(kIoctl, {num(99), num(0), text("")}).err, EBADF_);
}

TEST_F(KernelTest, InotifyCalls) {
  const SysResult i = call(kInotifyInit);
  ASSERT_GT(i.ret, 0);
  EXPECT_EQ(call(kInotifyAddWatch, {num(static_cast<std::uint64_t>(i.ret)),
                                    text("testdir_1"), num(2)})
                .ret,
            1);
  const int fd = open_path("/etc/passwd");
  EXPECT_EQ(call(kInotifyAddWatch, {num(static_cast<std::uint64_t>(fd)),
                                    text("testdir_1"), num(2)})
                .err,
            EINVAL_);
}

TEST_F(KernelTest, UnknownSyscallEnosys) { EXPECT_EQ(call(9999).err, ENOSYS_); }

TEST_F(KernelTest, EveryCallCostsTime) {
  const SysResult r = call(kGetpid);
  EXPECT_GT(r.sys_ns, 0);
  EXPECT_GT(r.user_ns, 0);
}

// --- procfs -----------------------------------------------------------------------

TEST_F(KernelTest, ProcStatRenderParseRoundTrip) {
  kernel_->host().run_for(kSecond);
  const std::string text_out = render_proc_stat(kernel_->host());
  auto parsed = parse_proc_stat(text_out);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cores.size(), 8u);
  for (int cat = 0; cat < sim::kNumCpuCategories; ++cat) {
    std::int64_t sum = 0;
    for (const auto& row : parsed->cores)
      sum += row.jiffies[static_cast<std::size_t>(cat)];
    EXPECT_EQ(parsed->aggregate.jiffies[static_cast<std::size_t>(cat)], sum);
  }
  // Each category truncates to jiffies independently, so a core's total can
  // undershoot the elapsed jiffies by at most one per category — exactly
  // like the real /proc/stat.
  for (const auto& row : parsed->cores) {
    EXPECT_LE(row.total(), nanos_to_jiffies(kernel_->host().now()));
    EXPECT_GE(row.total(), nanos_to_jiffies(kernel_->host().now()) -
                               sim::kNumCpuCategories);
  }
}

TEST(ProcStat, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_proc_stat("").has_value());
  EXPECT_FALSE(parse_proc_stat("cpu 1 2 3").has_value());
  EXPECT_FALSE(parse_proc_stat("cpux 1 2 3 4 5 6 7 8 9 10").has_value());
}

TEST(ProcStat, ParseSkipsTrailerLines) {
  const std::string text_in =
      "cpu 1 2 3 4 5 6 7 8 9 10\ncpu0 1 2 3 4 5 6 7 8 9 10\nintr 0\nctxt 5\n";
  auto parsed = parse_proc_stat(text_in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->aggregate.total(), 55);
  EXPECT_EQ(parsed->cores[0].busy(), 55 - 4 - 5);
}

// --- services & trace ----------------------------------------------------------------

TEST_F(KernelTest, AuditRateLimiting) {
  for (int i = 0; i < 5000; ++i) kernel_->services().audit_event(1, "flood");
  EXPECT_LE(kernel_->services().audit_events(), 2001u);
  EXPECT_GT(kernel_->services().audit_suppressed(), 0u);
}

TEST_F(KernelTest, AuditWorkChargedToDaemonCgroups) {
  auto& services = kernel_->services();
  for (int i = 0; i < 100; ++i) services.audit_event(1, "e");
  kernel_->host().run_for(kSecond);
  auto* journald =
      kernel_->host().cgroups().find("/system.slice/systemd-journald");
  ASSERT_NE(journald, nullptr);
  EXPECT_GT(journald->cpu().usage, 0);
  EXPECT_EQ(group_->cpu().usage, 0);  // nothing lands on the caller
}

TEST_F(KernelTest, LdiscStreamRaisesSoftirq) {
  kernel_->services().ldisc_stream(3, 1 << 20, 42);
  kernel_->host().run_for(kSecond);
  EXPECT_GT(kernel_->host().core_times(3)[sim::CpuCategory::kSoftirq], 0);
  EXPECT_EQ(kernel_->trace().count(TraceKind::kLdiscFlush, 0,
                                   kernel_->host().now() + 1),
            1u);
}

TEST(KernelTrace, WindowAndCapacity) {
  KernelTrace trace(4);
  for (int i = 0; i < 6; ++i)
    trace.record({.time = i, .kind = TraceKind::kAudit, .pid = 1});
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.count(TraceKind::kAudit, 2, 6), 4u);
  EXPECT_EQ(trace.window(3, 5).size(), 2u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
}

// Regression for the binary-search window(): eviction at capacity pops the
// deque's front, so queries must stay correct against every survivor set,
// including boundaries that fall exactly on, between, and outside surviving
// timestamps.
TEST(KernelTrace, EvictionAtCapacityPreservesQueries) {
  KernelTrace trace(8);
  std::vector<TraceEvent> all;
  for (int i = 0; i < 50; ++i) {
    TraceEvent e{.time = i * 10,
                 .kind = i % 2 ? TraceKind::kAudit : TraceKind::kIoFlush,
                 .pid = static_cast<std::uint64_t>(i)};
    trace.record(e);
    all.push_back(e);
  }
  ASSERT_EQ(trace.size(), 8u);
  const std::vector<TraceEvent> survivors(all.end() - 8, all.end());

  for (Nanos from : {0, 415, 420, 425, 490, 500}) {
    for (Nanos to : {0, 415, 420, 445, 490, 491, 1000}) {
      std::size_t expected = 0;
      std::size_t expected_audit = 0;
      for (const TraceEvent& e : survivors) {
        if (e.time < from || e.time >= to) continue;
        ++expected;
        if (e.kind == TraceKind::kAudit) ++expected_audit;
      }
      const auto got = trace.window(from, to);
      EXPECT_EQ(got.size(), expected) << "[" << from << ", " << to << ")";
      EXPECT_EQ(trace.count(TraceKind::kAudit, from, to), expected_audit)
          << "[" << from << ", " << to << ")";
      // window() returns the events themselves, in time order.
      for (std::size_t i = 1; i < got.size(); ++i)
        EXPECT_LE(got[i - 1].time, got[i].time);
    }
  }
}

// A producer stamping with a cached (stale) clock must not break the sorted
// invariant the binary search depends on.
TEST(KernelTrace, StaleTimestampClampedToTail) {
  KernelTrace trace(8);
  trace.record({.time = 100, .kind = TraceKind::kAudit, .pid = 1});
  trace.record({.time = 50, .kind = TraceKind::kAudit, .pid = 2});
  const auto events = trace.window(0, 200);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].time, 100);  // clamped up to the tail stamp
  EXPECT_EQ(trace.window(0, 100).size(), 0u);
  EXPECT_EQ(trace.window(100, 101).size(), 2u);
}

}  // namespace
}  // namespace torpedo::kernel
