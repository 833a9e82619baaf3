// Unit tests for src/cgroup: cpusets, hierarchy, and the cpu/memory/blkio
// controllers (including CFS bandwidth windows).
#include <gtest/gtest.h>

#include "cgroup/cgroup.h"
#include "cgroup/cpuset.h"
#include "util/check.h"

namespace torpedo::cgroup {
namespace {

// --- CpuSet --------------------------------------------------------------------

struct CpusetParseCase {
  const char* spec;
  bool ok;
  int count;
};

// gtest would otherwise print the raw bytes (a string address and padding),
// which makes the discovered test names change from run to run.
void PrintTo(const CpusetParseCase& c, std::ostream* os) {
  *os << '"' << c.spec << '"';
}

class CpuSetParseTest : public ::testing::TestWithParam<CpusetParseCase> {};

TEST_P(CpuSetParseTest, Parses) {
  const auto& c = GetParam();
  auto set = CpuSet::parse(c.spec);
  EXPECT_EQ(set.has_value(), c.ok) << c.spec;
  if (set) EXPECT_EQ(set->count(), c.count) << c.spec;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CpuSetParseTest,
    ::testing::Values(CpusetParseCase{"0", true, 1},
                      CpusetParseCase{"0-2", true, 3},
                      CpusetParseCase{"0-2,7", true, 4},
                      CpusetParseCase{"63", true, 1},
                      CpusetParseCase{" 1 , 3-4 ", true, 3},
                      CpusetParseCase{"", false, 0},
                      CpusetParseCase{"5-2", false, 0},
                      CpusetParseCase{"64", false, 0},
                      CpusetParseCase{"0-64", false, 0},
                      CpusetParseCase{"a", false, 0},
                      CpusetParseCase{"1-", false, 0}));

class CpuSetRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CpuSetRoundTripTest, ToStringRoundTrips) {
  auto set = CpuSet::parse(GetParam());
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ(set->to_string(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Canonical, CpuSetRoundTripTest,
                         ::testing::Values("0", "0-2", "0-2,7", "1,3,5",
                                           "0-63", "5-8,10-12"));

TEST(CpuSet, BasicOps) {
  CpuSet s = CpuSet::of({1, 3});
  EXPECT_TRUE(s.contains(1));
  EXPECT_FALSE(s.contains(2));
  EXPECT_EQ(s.count(), 2);
  EXPECT_EQ(s.first(), 1);
  s.remove(1);
  EXPECT_EQ(s.first(), 3);
  s.remove(3);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.first(), -1);
}

TEST(CpuSet, All) {
  EXPECT_EQ(CpuSet::all(12).count(), 12);
  EXPECT_EQ(CpuSet::all(64).count(), 64);
  EXPECT_TRUE(CpuSet::all(0).empty());
}

TEST(CpuSet, Intersect) {
  const CpuSet a = CpuSet::of({0, 1, 2});
  const CpuSet b = CpuSet::of({1, 2, 3});
  EXPECT_EQ(a.intersect(b).cores(), (std::vector<int>{1, 2}));
}

TEST(CpuSet, OutOfRange) {
  CpuSet s;
  EXPECT_THROW(s.add(64), CheckFailure);
  EXPECT_THROW(s.add(-1), CheckFailure);
  EXPECT_FALSE(s.contains(64));
  EXPECT_FALSE(s.contains(-1));
}

// --- Hierarchy -------------------------------------------------------------------

TEST(Hierarchy, CreateFindRemove) {
  Hierarchy h(12);
  Cgroup& docker = h.create(h.root(), "docker");
  Cgroup& ctr = h.create(docker, "ctr-1");
  EXPECT_EQ(ctr.path(), "/docker/ctr-1");
  EXPECT_EQ(h.find("/docker/ctr-1"), &ctr);
  EXPECT_EQ(h.find("/docker"), &docker);
  EXPECT_EQ(h.find("/"), &h.root());
  EXPECT_EQ(h.find("/nope"), nullptr);
  EXPECT_EQ(h.find("docker"), nullptr);  // must be absolute
  h.remove(ctr);
  EXPECT_EQ(h.find("/docker/ctr-1"), nullptr);
}

TEST(Hierarchy, DuplicateNameThrows) {
  Hierarchy h(4);
  h.create(h.root(), "x");
  EXPECT_THROW(h.create(h.root(), "x"), CheckFailure);
}

TEST(Hierarchy, BadNamesThrow) {
  Hierarchy h(4);
  EXPECT_THROW(h.create(h.root(), ""), CheckFailure);
  EXPECT_THROW(h.create(h.root(), "a/b"), CheckFailure);
}

TEST(Hierarchy, RemoveRootOrNonEmptyThrows) {
  Hierarchy h(4);
  Cgroup& parent = h.create(h.root(), "p");
  h.create(parent, "c");
  EXPECT_THROW(h.remove(h.root()), CheckFailure);
  EXPECT_THROW(h.remove(parent), CheckFailure);
}

TEST(Hierarchy, EffectiveCpusetInherits) {
  Hierarchy h(12);
  Cgroup& parent = h.create(h.root(), "p");
  Cgroup& child = h.create(parent, "c");
  // Empty own set inherits.
  EXPECT_EQ(child.effective_cpuset().count(), 12);
  parent.set_cpuset(CpuSet::of({0, 1, 2}));
  EXPECT_EQ(child.effective_cpuset().count(), 3);
  child.set_cpuset(CpuSet::of({2, 3}));
  // Intersection with the ancestor.
  EXPECT_EQ(child.effective_cpuset().cores(), (std::vector<int>{2}));
}

TEST(Hierarchy, ChargePropagatesUp) {
  Hierarchy h(4);
  Cgroup& a = h.create(h.root(), "a");
  Cgroup& b = h.create(a, "b");
  b.charge_cpu(100);
  EXPECT_EQ(b.cpu().usage, 100);
  EXPECT_EQ(a.cpu().usage, 100);
  EXPECT_EQ(h.root().cpu().usage, 100);
  a.charge_cpu(50);
  EXPECT_EQ(b.cpu().usage, 100);
  EXPECT_EQ(h.root().cpu().usage, 150);
}

TEST(Hierarchy, UsageListing) {
  Hierarchy h(4);
  Cgroup& a = h.create(h.root(), "a");
  h.create(a, "b");
  a.charge_cpu(10);
  auto listing = h.cpu_usage_by_group();
  ASSERT_EQ(listing.size(), 3u);
  EXPECT_EQ(listing[0].first, "/");
  EXPECT_EQ(listing[1].first, "/a");
  EXPECT_EQ(listing[1].second, 10);
  EXPECT_EQ(listing[2].first, "/a/b");
}

// --- CFS bandwidth ---------------------------------------------------------------

TEST(CpuBandwidth, UnlimitedAlwaysAvailable) {
  Hierarchy h(4);
  Cgroup& g = h.create(h.root(), "g");
  EXPECT_EQ(g.cpu_runtime_available(0, 1000), 1000);
  g.consume_cpu(0, 1'000'000'000);
  EXPECT_EQ(g.cpu_runtime_available(0, 1000), 1000);
}

TEST(CpuBandwidth, QuotaExhaustsAndRefills) {
  Hierarchy h(4);
  Cgroup& g = h.create(h.root(), "g");
  g.cpu().quota = 50 * kMillisecond;  // 0.5 CPU per 100ms period
  EXPECT_EQ(g.cpu_runtime_available(0, 60 * kMillisecond),
            50 * kMillisecond);
  g.consume_cpu(0, 50 * kMillisecond);
  EXPECT_EQ(g.cpu_runtime_available(10 * kMillisecond, kMillisecond), 0);
  EXPECT_EQ(g.next_refill(10 * kMillisecond), 100 * kMillisecond);
  // After the window rolls, quota is fresh.
  EXPECT_EQ(g.cpu_runtime_available(100 * kMillisecond, kMillisecond),
            kMillisecond);
  EXPECT_GE(g.cpu().nr_throttled, 1u);
}

TEST(CpuBandwidth, NeverRunsPastWindowEnd) {
  Hierarchy h(4);
  Cgroup& g = h.create(h.root(), "g");
  g.cpu().quota = 80 * kMillisecond;
  // At t=90ms, only 10ms remain in the window even though quota is 80ms.
  EXPECT_EQ(g.cpu_runtime_available(90 * kMillisecond, 50 * kMillisecond),
            10 * kMillisecond);
}

TEST(CpuBandwidth, ChildBoundedByParent) {
  Hierarchy h(4);
  Cgroup& parent = h.create(h.root(), "p");
  Cgroup& child = h.create(parent, "c");
  parent.cpu().quota = 10 * kMillisecond;
  EXPECT_EQ(child.cpu_runtime_available(0, 50 * kMillisecond),
            10 * kMillisecond);
  child.consume_cpu(0, 10 * kMillisecond);
  EXPECT_EQ(child.cpu_runtime_available(kMillisecond, kMillisecond), 0);
}

TEST(CpuBandwidth, PeriodsCounted) {
  Hierarchy h(4);
  Cgroup& g = h.create(h.root(), "g");
  g.cpu().quota = 10 * kMillisecond;
  g.consume_cpu(0, kMillisecond);
  g.consume_cpu(350 * kMillisecond, kMillisecond);  // 3 periods later
  EXPECT_GE(g.cpu().nr_periods, 3u);
}

// --- memory ---------------------------------------------------------------------

TEST(Memory, ChargeWithinLimit) {
  Hierarchy h(4);
  Cgroup& g = h.create(h.root(), "g");
  g.memory().limit_bytes = 1000;
  EXPECT_TRUE(g.charge_memory(600));
  EXPECT_EQ(g.memory().usage_bytes, 600);
  EXPECT_FALSE(g.charge_memory(600));
  EXPECT_EQ(g.memory().failcnt, 1u);
  EXPECT_EQ(g.memory().usage_bytes, 600);  // failed charge doesn't apply
  g.uncharge_memory(600);
  EXPECT_EQ(g.memory().usage_bytes, 0);
  EXPECT_EQ(g.memory().max_usage_bytes, 600);
}

TEST(Memory, AncestorLimitApplies) {
  Hierarchy h(4);
  Cgroup& parent = h.create(h.root(), "p");
  Cgroup& child = h.create(parent, "c");
  parent.memory().limit_bytes = 100;
  EXPECT_FALSE(child.charge_memory(200));
  EXPECT_EQ(parent.memory().failcnt, 1u);
  EXPECT_TRUE(child.charge_memory(50));
  EXPECT_EQ(parent.memory().usage_bytes, 50);
}

TEST(Memory, UnchargeFloorsAtZero) {
  Hierarchy h(4);
  Cgroup& g = h.create(h.root(), "g");
  g.charge_memory(10);
  g.uncharge_memory(100);
  EXPECT_EQ(g.memory().usage_bytes, 0);
}

// --- blkio ----------------------------------------------------------------------

TEST(Blkio, CountersPropagate) {
  Hierarchy h(4);
  Cgroup& parent = h.create(h.root(), "p");
  Cgroup& child = h.create(parent, "c");
  child.charge_blkio_write(4096);
  child.charge_blkio_read(512);
  EXPECT_EQ(child.blkio().bytes_written, 4096u);
  EXPECT_EQ(parent.blkio().bytes_read, 512u);
  EXPECT_EQ(h.root().blkio().ios, 2u);
}

}  // namespace
}  // namespace torpedo::cgroup
