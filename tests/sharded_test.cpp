// Sharded campaign tests: shard seeding, the CorpusHub exchange protocol,
// monitor aggregation, and the determinism contract of the merged report.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/seeds.h"
#include "core/sharded.h"
#include "core/workdir.h"
#include "feedback/corpus_hub.h"
#include "feedback/syscall_profile.h"
#include "telemetry/monitor.h"
#include "telemetry/telemetry.h"
#include "util/time.h"

using namespace torpedo;
using namespace torpedo::core;

namespace {

CampaignConfig fast_config() {
  CampaignConfig cfg;
  cfg.round_duration = kSecond;
  cfg.fuzzer.cycle_out_rounds = 3;
  cfg.num_seeds = 6;
  cfg.batches = 2;
  return cfg;
}

feedback::CorpusEntry entry_for(const char* seed_name, double score) {
  feedback::CorpusEntry entry;
  entry.program = *named_seed(seed_name);
  entry.signal.add(entry.program.hash());
  entry.best_score = score;
  return entry;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- shard seeds -----------------------------------------------------------------

TEST(ShardSeed, ShardZeroReproducesTheBaseSeed) {
  EXPECT_EQ(ShardedCampaign::shard_seed(0x7095ED0, 0), 0x7095ED0u);
  EXPECT_EQ(ShardedCampaign::shard_seed(42, 0), 42u);
}

TEST(ShardSeed, ShardsGetDistinctWellMixedSeeds) {
  std::set<std::uint64_t> seeds;
  for (int s = 0; s < 8; ++s) seeds.insert(ShardedCampaign::shard_seed(1, s));
  EXPECT_EQ(seeds.size(), 8u);
  // Adjacent base seeds must not collide across shard streams either.
  for (int s = 1; s < 8; ++s)
    EXPECT_NE(ShardedCampaign::shard_seed(1, s),
              ShardedCampaign::shard_seed(2, s));
}

// --- CorpusHub -------------------------------------------------------------------

TEST(CorpusHub, SingleShardExchangeCommitsAndPullsNothing) {
  feedback::CorpusHub hub(1);
  auto delta = hub.exchange(0, {entry_for("sync", 1.0)}, {"pause"});
  EXPECT_TRUE(delta.entries.empty());  // own publications are never returned
  EXPECT_EQ(delta.denylist, std::vector<std::string>{"pause"});
  EXPECT_EQ(delta.epoch, 1u);
  const auto stats = hub.stats();
  EXPECT_EQ(stats.epochs, 1u);
  EXPECT_EQ(stats.published, 1u);
  EXPECT_EQ(stats.unique, 1u);
  EXPECT_EQ(stats.pulled, 0u);
}

TEST(CorpusHub, TwoShardsSwapEntriesAndMergeDenylists) {
  feedback::CorpusHub hub(2);
  feedback::CorpusHub::Delta d0, d1;
  std::thread t0([&] {
    d0 = hub.exchange(0, {entry_for("sync", 1.0)}, {"sync"});
  });
  std::thread t1([&] {
    d1 = hub.exchange(1, {entry_for("kcmp-pair", 2.0)}, {"pause"});
  });
  t0.join();
  t1.join();

  ASSERT_EQ(d0.entries.size(), 1u);
  EXPECT_EQ(d0.entries[0].program.hash(), named_seed("kcmp-pair")->hash());
  ASSERT_EQ(d1.entries.size(), 1u);
  EXPECT_EQ(d1.entries[0].program.hash(), named_seed("sync")->hash());
  // Both walk away with the same merged, sorted denylist.
  const std::vector<std::string> want{"pause", "sync"};
  EXPECT_EQ(d0.denylist, want);
  EXPECT_EQ(d1.denylist, want);
  EXPECT_EQ(hub.stats().pulled, 2u);
}

TEST(CorpusHub, DuplicateHashMergesSignalAndKeepsMaxScore) {
  feedback::CorpusHub hub(2);
  // Both shards publish the same program; shard 1's copy carries a second
  // signal element and a higher score.
  feedback::CorpusEntry a = entry_for("sync", 1.0);
  feedback::CorpusEntry b = entry_for("sync", 5.0);
  b.signal.add(0xFEEDu);
  feedback::CorpusHub::Delta d0, d1;
  std::thread t0([&] { d0 = hub.exchange(0, {std::move(a)}, {}); });
  std::thread t1([&] { d1 = hub.exchange(1, {std::move(b)}, {}); });
  t0.join();
  t1.join();

  // One committed entry; the duplicate merged into it, so neither shard
  // pulls a copy of a program it already has... except the merge happened
  // under shard 0's insert, so shard 1 pulls shard 0's (merged) entry.
  const auto stats = hub.stats();
  EXPECT_EQ(stats.unique, 1u);
  EXPECT_EQ(stats.merged, 1u);
  ASSERT_EQ(d1.entries.size(), 1u);
  EXPECT_EQ(d1.entries[0].best_score, 5.0);  // max of both publications
  EXPECT_TRUE(d1.entries[0].signal.contains(0xFEEDu));
  EXPECT_TRUE(d0.entries.empty());  // lower shard owns the insert
}

TEST(CorpusHub, LeaveShrinksTheBarrier) {
  feedback::CorpusHub hub(2);
  hub.leave(1);
  // Shard 0 must complete alone without blocking.
  auto delta = hub.exchange(0, {entry_for("sync", 1.0)}, {});
  EXPECT_EQ(delta.epoch, 1u);
  hub.leave(1);  // idempotent
  hub.leave(0);
}

TEST(CorpusHub, LeaveReleasesABlockedWaiter) {
  feedback::CorpusHub hub(2);
  feedback::CorpusHub::Delta d0;
  std::thread waiter([&] {
    d0 = hub.exchange(0, {entry_for("sync", 1.0)}, {"sync"});
  });
  // Let the waiter reach the barrier, then retire shard 1; its leave must
  // commit the epoch on the waiter's behalf.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  hub.leave(1);
  waiter.join();
  EXPECT_EQ(d0.epoch, 1u);
  EXPECT_EQ(d0.denylist, std::vector<std::string>{"sync"});
}

TEST(CorpusHub, CursorSkipsEntriesAlreadyPulled) {
  feedback::CorpusHub hub(2);
  feedback::CorpusHub::Delta d0a, d1a, d0b, d1b;
  {
    std::thread t0([&] { d0a = hub.exchange(0, {entry_for("sync", 1.0)}, {}); });
    std::thread t1([&] { d1a = hub.exchange(1, {}, {}); });
    t0.join();
    t1.join();
  }
  {
    std::thread t0([&] { d0b = hub.exchange(0, {}, {}); });
    std::thread t1([&] {
      d1b = hub.exchange(1, {entry_for("kcmp-pair", 2.0)}, {});
    });
    t0.join();
    t1.join();
  }
  EXPECT_EQ(d1a.entries.size(), 1u);  // pulled shard 0's entry in epoch 1
  EXPECT_TRUE(d1b.entries.empty());   // nothing new for shard 1 in epoch 2
  EXPECT_TRUE(d0a.entries.empty());
  ASSERT_EQ(d0b.entries.size(), 1u);  // shard 1's epoch-2 entry
  EXPECT_EQ(d0b.entries[0].program.hash(), named_seed("kcmp-pair")->hash());
}

// --- monitor aggregation ---------------------------------------------------------

TEST(MonitorSharded, MetricsAndStatusGrowPerShardSeries) {
  telemetry::LiveStatus s0, s1;
  s0.begin_campaign(2, 3);
  s1.begin_campaign(2, 3);
  s0.on_round(0, kSecond, 100, {});
  s1.on_round(0, kSecond, 250, {});
  s1.set_done();

  telemetry::Watchdog wd0;
  telemetry::MonitorServer monitor;
  monitor.add_shard(0, &s0, &wd0);
  monitor.add_shard(1, &s1);

  const std::string metrics = monitor.metrics_text();
  EXPECT_NE(metrics.find("torpedo_shards 2"), std::string::npos);
  EXPECT_NE(metrics.find("torpedo_shard_executions_total{shard=\"0\"} 100"),
            std::string::npos);
  EXPECT_NE(metrics.find("torpedo_shard_executions_total{shard=\"1\"} 250"),
            std::string::npos);
  EXPECT_NE(metrics.find("torpedo_shard_done{shard=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("torpedo_shard_watchdog_stalled{shard=\"0\"} 0"),
            std::string::npos);
  // No campaign-wide LiveStatus: unlabeled totals are synthesized sums.
  EXPECT_NE(metrics.find("torpedo_executions_total 350"), std::string::npos);

  const std::string status = monitor.status_json();
  EXPECT_NE(status.find("\"shard_count\":2"), std::string::npos);
  EXPECT_NE(status.find("\"shards\":["), std::string::npos);
  EXPECT_NE(status.find("\"executions\":350"), std::string::npos);
}

// --- sharded campaigns -----------------------------------------------------------

TEST(ShardedCampaignTest, SingleShardMatchesPlainCampaign) {
  ShardedConfig config;
  config.base = fast_config();
  config.base.batches = 1;
  config.shards = 1;
  ShardedCampaign fleet(config);
  const CampaignReport merged = fleet.run();

  Campaign plain(config.base);
  plain.load_default_seeds();
  for (int b = 0; b < config.base.batches; ++b) plain.run_one_batch();
  const CampaignReport report = plain.finalize();

  EXPECT_EQ(merged.rounds, report.rounds);
  EXPECT_EQ(merged.executions, report.executions);
  ASSERT_EQ(merged.findings.size(), report.findings.size());
  for (std::size_t i = 0; i < merged.findings.size(); ++i) {
    EXPECT_EQ(merged.findings[i].serialized, report.findings[i].serialized);
    EXPECT_EQ(merged.findings[i].cause, report.findings[i].cause);
  }
}

TEST(ShardedCampaignTest, TwoShardRunsAreByteDeterministic) {
  const auto run_once = [](const std::filesystem::path& report_file) {
    ShardedConfig config;
    config.base = fast_config();
    config.base.batches = 1;
    config.shards = 2;
    ShardedCampaign fleet(config);
    const CampaignReport merged = fleet.run();
    save_report(report_file, merged);
    return merged;
  };
  const auto dir = std::filesystem::temp_directory_path() / "torpedo-shard";
  std::filesystem::create_directories(dir);
  const CampaignReport a = run_once(dir / "a.txt");
  const CampaignReport b = run_once(dir / "b.txt");

  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  const std::string text_a = slurp(dir / "a.txt");
  EXPECT_FALSE(text_a.empty());
  EXPECT_EQ(text_a, slurp(dir / "b.txt"));
}

TEST(ShardedCampaignTest, MergedReportIsSortedAndRemapped) {
  ShardedConfig config;
  config.base = fast_config();
  config.base.batches = 1;
  config.shards = 3;
  ShardedCampaign fleet(config);
  const CampaignReport merged = fleet.run();

  ASSERT_EQ(fleet.shard_reports().size(), 3u);
  int rounds = 0;
  std::uint64_t executions = 0;
  for (const CampaignReport& r : fleet.shard_reports()) {
    rounds += r.rounds;
    executions += r.executions;
  }
  EXPECT_EQ(merged.rounds, rounds);
  EXPECT_EQ(merged.executions, executions);

  ASSERT_EQ(merged.provenance.size(), merged.findings.size());
  for (std::size_t i = 0; i < merged.findings.size(); ++i) {
    EXPECT_GE(merged.findings[i].shard, 0);
    EXPECT_LT(merged.findings[i].shard, 3);
    EXPECT_EQ(merged.provenance[i].finding_index, static_cast<int>(i));
    EXPECT_EQ(merged.provenance[i].shard, merged.findings[i].shard);
    if (i > 0)
      EXPECT_GE(merged.findings[i].shard, merged.findings[i - 1].shard);
  }
  EXPECT_TRUE(std::is_sorted(merged.denylist.begin(), merged.denylist.end()));
  EXPECT_EQ(merged.corpus_size, fleet.merged_corpus().size());
  EXPECT_GT(fleet.hub().stats().epochs, 0u);
}

TEST(ShardedCampaignTest, HooksRunPerShardAndSyncCanBeDisabled) {
  ShardedConfig config;
  config.base = fast_config();
  config.base.batches = 1;
  config.shards = 2;
  config.corpus_sync = false;
  ShardedCampaign fleet(config);

  std::mutex mu;
  std::set<int> started, finished;
  fleet.set_shard_start_hook([&](int shard, Campaign&) {
    std::lock_guard<std::mutex> lock(mu);
    started.insert(shard);
  });
  fleet.set_shard_finish_hook([&](int shard, Campaign&) {
    std::lock_guard<std::mutex> lock(mu);
    finished.insert(shard);
  });
  const CampaignReport merged = fleet.run();
  EXPECT_EQ(started, (std::set<int>{0, 1}));
  EXPECT_EQ(finished, (std::set<int>{0, 1}));
  EXPECT_GT(merged.rounds, 0);
  // Sync off: the hub saw only the final leave()s, never an exchange.
  EXPECT_EQ(fleet.hub().stats().epochs, 0u);
  EXPECT_EQ(fleet.hub().stats().published, 0u);
}

// Executors tally executions, crashes, respawns and per-sysno call counts
// locally and flush them once per round and on the crash path. Across two
// shard threads and crashed rounds nothing may be lost or counted twice: the
// registry delta must equal the executions of every observed round (the
// report's count plus finalize's confirmation rounds), and the profile must
// hold every call the per-call profiler counted before batching.
TEST(ShardedCampaignTest, ExecutorTalliesFlushExactlyAcrossShardsAndCrashes) {
  feedback::SyscallProfile profile;
  feedback::SyscallProfile* const previous = feedback::syscall_profile();
  feedback::set_syscall_profile(&profile);
  telemetry::Registry& metrics = telemetry::global();
  const std::uint64_t execs0 = metrics.counter("exec.executions").value();
  const std::uint64_t crashes0 =
      metrics.counter("exec.container_crashes").value();

  ShardedConfig config;
  config.base = fast_config();
  config.base.runtime = runtime::RuntimeKind::kGvisor;
  config.base.batches = 1;
  config.shards = 2;
  ShardedCampaign fleet(config);
  std::array<telemetry::LiveStatus, 2> status;
  fleet.set_shard_start_hook([&](int shard, Campaign& campaign) {
    campaign.set_live_status(&status[static_cast<std::size_t>(shard)]);
  });
  const CampaignReport merged = fleet.run();
  feedback::set_syscall_profile(previous);

  EXPECT_EQ(metrics.counter("exec.container_crashes").value() - crashes0,
            20u);
  EXPECT_FALSE(merged.crashes.empty());
  const std::uint64_t observed =
      status[0].executions() + status[1].executions();
  EXPECT_EQ(metrics.counter("exec.executions").value() - execs0, observed);
  EXPECT_EQ(merged.executions, 441565u);
  EXPECT_EQ(observed, 443916u);
  std::uint64_t calls = 0;
  for (const feedback::SyscallProfile::Row& row : profile.rows())
    calls += row.executions;
  EXPECT_EQ(calls, 1011674u);
}

}  // namespace
