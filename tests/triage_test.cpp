// Triage engine tests: feature extraction, weighted-Jaccard similarity,
// deterministic clustering, severity ordering, clusters.json round-tripping,
// the live /findings//clusters endpoints, and cross-campaign diffing
// (including the self-diff-is-empty property CI gates on).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/provenance.h"
#include "core/workdir.h"
#include "run/run.h"
#include "runtime/runtime.h"
#include "telemetry/json.h"
#include "triage/cluster.h"
#include "triage/diff.h"
#include "triage/features.h"

namespace torpedo {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

triage::FindingFeatures make_features(
    const std::string& hash, std::vector<std::string> heuristics,
    std::vector<std::pair<std::string, int>> syscalls, std::string cause,
    double escape = 2.0) {
  triage::FindingFeatures f;
  f.bundle = 0;
  f.program_hash = hash;
  f.source_round = 1;
  f.heuristics = std::move(heuristics);
  f.syscalls = std::move(syscalls);
  f.signals = {"sched_switch"};
  f.subjects = {"core0"};
  f.cause = std::move(cause);
  f.runtime = "runc";
  f.escape_magnitude = escape;
  f.minimized_calls = 2;
  f.confirm_rounds = 3;
  return f;
}

// --- feature extraction -------------------------------------------------------

TEST(Features, ViolationExcessIsDirectionAgnostic) {
  // Value above threshold and value below threshold both land at the same
  // ratio > 1; meeting the threshold exactly is ratio 1.
  EXPECT_DOUBLE_EQ(triage::violation_excess(2.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(triage::violation_excess(1.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(triage::violation_excess(3.0, 3.0), 1.0);
}

TEST(Features, ViolationExcessIsCapped) {
  EXPECT_DOUBLE_EQ(triage::violation_excess(1e6, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(triage::violation_excess(1.0, 1e6), 10.0);
}

TEST(Features, SyscallMultisetStripsResultPrefixAndCounts) {
  const auto ms = triage::syscall_multiset(
      "r0 = open(\"/tmp/a\", 0)\nftruncate(r0, 99)\nopen(\"/tmp/b\", 0)\n");
  ASSERT_EQ(ms.size(), 2u);
  // Sorted by name.
  EXPECT_EQ(ms[0].first, "ftruncate");
  EXPECT_EQ(ms[0].second, 1);
  EXPECT_EQ(ms[1].first, "open");
  EXPECT_EQ(ms[1].second, 2);
}

TEST(Features, MultisetJoinParseRoundTrips) {
  const std::vector<std::pair<std::string, int>> ms = {{"open", 2},
                                                       {"sync", 1}};
  EXPECT_EQ(triage::parse_multiset(triage::join_multiset(ms)), ms);
  const std::vector<std::string> facet = {"a", "b"};
  EXPECT_EQ(triage::parse_facet(triage::join_facet(facet)), facet);
}

// --- similarity ---------------------------------------------------------------

TEST(Similarity, IdenticalFeaturesScoreOne) {
  const auto f = make_features("aaaa", {"h1"}, {{"open", 1}}, "cause");
  EXPECT_DOUBLE_EQ(triage::weighted_jaccard(f, f), 1.0);
}

TEST(Similarity, DisjointFeaturesScoreZero) {
  auto a = make_features("aaaa", {"h1"}, {{"open", 1}}, "cause-a");
  auto b = make_features("bbbb", {"h2"}, {{"sync", 1}}, "cause-b");
  b.signals = {"softirq"};
  b.subjects = {"core1"};
  b.runtime = "runsc";
  EXPECT_DOUBLE_EQ(triage::weighted_jaccard(a, b), 0.0);
}

TEST(Similarity, IsSymmetric) {
  const auto a = make_features("aaaa", {"h1", "h2"}, {{"open", 2}}, "cause");
  const auto b = make_features("bbbb", {"h1"}, {{"open", 1}, {"sync", 1}},
                               "cause");
  EXPECT_DOUBLE_EQ(triage::weighted_jaccard(a, b),
                   triage::weighted_jaccard(b, a));
  EXPECT_GT(triage::weighted_jaccard(a, b), 0.0);
  EXPECT_LT(triage::weighted_jaccard(a, b), 1.0);
}

// --- clustering ---------------------------------------------------------------

TEST(Cluster, ExactHashDuplicatesCollapse) {
  const auto result = triage::ClusterEngine().cluster(
      {make_features("aaaa", {"h1"}, {{"open", 1}}, "c"),
       make_features("aaaa", {"h1"}, {{"open", 1}}, "c")});
  EXPECT_EQ(result.findings, 1);
  EXPECT_EQ(result.duplicates, 1);
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.clusters[0].members.size(), 1u);
}

TEST(Cluster, NearDuplicatesGroupAndDistinctFindingsSeparate) {
  auto near = make_features("bbbb", {"h1"}, {{"open", 1}}, "c");
  auto far = make_features("cccc", {"h9"}, {{"socket", 1}}, "other");
  far.signals = {"softirq"};
  far.subjects = {"core7"};
  const auto result = triage::ClusterEngine().cluster(
      {make_features("aaaa", {"h1"}, {{"open", 1}}, "c"), near, far});
  EXPECT_EQ(result.findings, 3);
  ASSERT_EQ(result.clusters.size(), 2u);
  const std::size_t sizes[] = {result.clusters[0].members.size(),
                               result.clusters[1].members.size()};
  EXPECT_EQ(std::max(sizes[0], sizes[1]), 2u);
  EXPECT_EQ(std::min(sizes[0], sizes[1]), 1u);
}

TEST(Cluster, InputOrderDoesNotChangeTheRenderedResult) {
  std::vector<triage::FindingFeatures> findings = {
      make_features("aaaa", {"h1"}, {{"open", 1}}, "c"),
      make_features("bbbb", {"h1"}, {{"open", 1}}, "c"),
      make_features("cccc", {"h9"}, {{"socket", 1}}, "other", 3.0),
      make_features("dddd", {"h2", "h3"}, {{"sync", 2}}, "io"),
  };
  const triage::ClusterEngine engine;
  const std::string golden = triage::clusters_to_json(engine.cluster(findings));
  std::reverse(findings.begin(), findings.end());
  EXPECT_EQ(triage::clusters_to_json(engine.cluster(findings)), golden);
  std::rotate(findings.begin(), findings.begin() + 1, findings.end());
  EXPECT_EQ(triage::clusters_to_json(engine.cluster(findings)), golden);
}

// --- severity -----------------------------------------------------------------

TEST(Severity, ScoreSpansZeroToHundred) {
  EXPECT_DOUBLE_EQ(triage::severity_score(0, 0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(triage::severity_score(1, 1, 1, 1), 100.0);
}

TEST(Severity, MonotonicInEachComponent) {
  const double base = triage::severity_score(0.5, 0.5, 0.5, 0.5);
  EXPECT_GT(triage::severity_score(0.9, 0.5, 0.5, 0.5), base);
  EXPECT_GT(triage::severity_score(0.5, 0.9, 0.5, 0.5), base);
  EXPECT_GT(triage::severity_score(0.5, 0.5, 0.9, 0.5), base);
  EXPECT_GT(triage::severity_score(0.5, 0.5, 0.5, 0.9), base);
}

TEST(Severity, HigherEscapeRanksFirst) {
  auto tame = make_features("aaaa", {"h1"}, {{"open", 1}}, "c", 1.0);
  auto wild = make_features("bbbb", {"h9"}, {{"socket", 1}}, "other", 4.0);
  wild.signals = {"softirq"};
  wild.subjects = {"core7"};
  const auto result = triage::ClusterEngine().cluster({tame, wild});
  ASSERT_EQ(result.clusters.size(), 2u);
  // Clusters come back severity-descending; the escape-4x finding leads.
  EXPECT_EQ(result.clusters[0].centroid.program_hash, "bbbb");
  EXPECT_GT(result.clusters[0].severity, result.clusters[1].severity);
  EXPECT_EQ(result.clusters[0].id, 0);
  EXPECT_EQ(result.clusters[1].id, 1);
}

TEST(Severity, BroaderSubjectSpreadRanksFirst) {
  auto narrow = make_features("aaaa", {"h1"}, {{"open", 1}}, "c");
  auto broad = make_features("bbbb", {"h9"}, {{"socket", 1}}, "other");
  broad.signals = {"softirq"};
  broad.subjects = {"core1", "core2", "core3", "core4"};
  const auto result = triage::ClusterEngine().cluster({narrow, broad});
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.clusters[0].centroid.program_hash, "bbbb");
}

// --- persistence --------------------------------------------------------------

TEST(Persistence, SaveLoadRoundTripsByteIdentically) {
  const auto result = triage::ClusterEngine().cluster(
      {make_features("aaaa", {"h1"}, {{"open", 1}}, "c"),
       make_features("bbbb", {"h1"}, {{"open", 1}}, "c"),
       make_features("cccc", {"h9"}, {{"socket", 1}}, "other", 3.0)});
  const fs::path dir = fresh_dir("torpedo-triage-roundtrip");
  triage::save_clusters(dir / "clusters.json", result);
  const auto loaded = triage::load_clusters(dir / "clusters.json");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->findings, result.findings);
  EXPECT_EQ(loaded->duplicates, result.duplicates);
  EXPECT_EQ(loaded->runtime, result.runtime);
  EXPECT_EQ(triage::clusters_to_json(*loaded),
            triage::clusters_to_json(result));
}

// --- in-process vs offline extraction -----------------------------------------

core::CampaignConfig small_config() {
  core::CampaignConfig config;
  config.num_executors = 2;
  config.round_duration = 50 * kMillisecond;
  config.batches = 2;
  config.num_seeds = 6;
  config.seed = 0xD0D0;
  config.max_confirmations = 6;
  config.fuzzer.cycle_out_rounds = 3;
  config.kernel.host.num_cores = 8;
  config.kernel.host.num_kworkers = 4;
  return config;
}

TEST(Pipeline, InProcessAndBundleExtractionAgree) {
  const fs::path dir = fresh_dir("torpedo-triage-pipeline");
  run::RunOptions options;
  options.config = small_config();
  options.workdir = dir;
  const run::RunResult result = run::run_campaign(options);
  ASSERT_EQ(result.error, "");
  ASSERT_FALSE(result.report.findings.empty());
  EXPECT_EQ(result.clusters.findings + result.clusters.duplicates,
            static_cast<int>(result.report.provenance.size()));

  // Re-reading the written bundles must reproduce the exact same clusters:
  // `torpedo report`/`torpedo diff` on a workdir see what `torpedo run` saw.
  // Without clusters.json, triage_workdir re-extracts from the bundles.
  fs::remove(dir / "clusters.json");
  const auto offline = triage::triage_workdir(dir);
  ASSERT_TRUE(offline.has_value());
  EXPECT_EQ(triage::clusters_to_json(*offline),
            triage::clusters_to_json(result.clusters));
}

// --- live endpoints -----------------------------------------------------------

using JsonObject = std::map<std::string, telemetry::JsonValue>;

double num_of(const JsonObject& obj, const std::string& key) {
  auto it = obj.find(key);
  if (it == obj.end()) return -1;
  return it->second.is_integer ? static_cast<double>(it->second.integer)
                               : it->second.number;
}

TEST(LiveTriage, ServesEmptyBeforeInstallAndFullAfter) {
  triage::LiveTriage live;
  auto before = live.handle("/findings");
  ASSERT_TRUE(before.has_value());
  auto obj = telemetry::parse_json_object(*before);
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ((*obj)["ready"].boolean, false);
  EXPECT_EQ(num_of(*obj, "count"), 0);

  live.install(triage::ClusterEngine().cluster(
      {make_features("aaaa", {"h1"}, {{"open", 1}}, "c"),
       make_features("bbbb", {"h1"}, {{"open", 1}}, "c")}));

  auto findings = live.handle("/findings");
  ASSERT_TRUE(findings.has_value());
  obj = telemetry::parse_json_object(*findings);
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ((*obj)["ready"].boolean, true);
  EXPECT_EQ(num_of(*obj, "count"), 2);

  auto clusters = live.handle("/clusters");
  ASSERT_TRUE(clusters.has_value());
  obj = telemetry::parse_json_object(*clusters);
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(num_of(*obj, "count"), 1);

  auto one = live.handle("/clusters/0");
  ASSERT_TRUE(one.has_value());
  obj = telemetry::parse_json_object(*one);
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(num_of(*obj, "size"), 2);

  EXPECT_FALSE(live.handle("/clusters/99").has_value());
  EXPECT_FALSE(live.handle("/clusters/bogus").has_value());
  EXPECT_FALSE(live.handle("/nope").has_value());
  EXPECT_NE(live.to_prometheus().find("torpedo_clusters 1"),
            std::string::npos);
}

// --- diff ---------------------------------------------------------------------

TEST(Diff, SelfDiffIsEmptyAndClean) {
  const auto result = triage::ClusterEngine().cluster(
      {make_features("aaaa", {"h1"}, {{"open", 1}}, "c"),
       make_features("bbbb", {"h9"}, {{"socket", 1}}, "other", 3.0)});
  const fs::path dir = fresh_dir("torpedo-diff-self");
  triage::save_clusters(dir / "clusters.json", result);
  const triage::DiffResult diff = triage::diff_workdirs(dir, dir);
  ASSERT_TRUE(diff.ran) << diff.error;
  EXPECT_EQ(diff.persisting.size(), result.clusters.size());
  EXPECT_TRUE(diff.fixed.empty());
  EXPECT_TRUE(diff.added.empty());
  EXPECT_FALSE(diff.regression);
  for (const triage::MatchedCluster& m : diff.persisting) {
    EXPECT_DOUBLE_EQ(m.similarity, 1.0);
    EXPECT_DOUBLE_EQ(m.severity_a, m.severity_b);
  }
}

TEST(Diff, NewClusterIsARegressionAndFixedIsNot) {
  const auto shared = make_features("aaaa", {"h1"}, {{"open", 1}}, "c");
  auto extra = make_features("bbbb", {"h9"}, {{"socket", 1}}, "other");
  extra.signals = {"softirq"};
  extra.subjects = {"core7"};
  const triage::ClusterEngine engine;
  const fs::path one = fresh_dir("torpedo-diff-one");
  const fs::path two = fresh_dir("torpedo-diff-two");
  triage::save_clusters(one / "clusters.json", engine.cluster({shared}));
  triage::save_clusters(two / "clusters.json",
                        engine.cluster({shared, extra}));

  const triage::DiffResult grew = triage::diff_workdirs(one, two);
  ASSERT_TRUE(grew.ran) << grew.error;
  EXPECT_EQ(grew.persisting.size(), 1u);
  EXPECT_EQ(grew.added.size(), 1u);
  EXPECT_TRUE(grew.regression);
  ASSERT_FALSE(grew.regression_reasons.empty());
  EXPECT_NE(grew.regression_reasons[0].find("new cluster"),
            std::string::npos);

  const triage::DiffResult shrank = triage::diff_workdirs(two, one);
  ASSERT_TRUE(shrank.ran) << shrank.error;
  EXPECT_EQ(shrank.fixed.size(), 1u);
  EXPECT_TRUE(shrank.added.empty());
  EXPECT_FALSE(shrank.regression);
}

TEST(Diff, SeverityJumpOnPersistingClusterIsARegression) {
  const triage::ClusterEngine engine;
  const fs::path mild = fresh_dir("torpedo-diff-mild");
  const fs::path severe = fresh_dir("torpedo-diff-severe");
  triage::save_clusters(
      mild / "clusters.json",
      engine.cluster({make_features("aaaa", {"h1"}, {{"open", 1}}, "c",
                                    1.0)}));
  triage::save_clusters(
      severe / "clusters.json",
      engine.cluster({make_features("aaaa", {"h1"}, {{"open", 1}}, "c",
                                    4.0)}));
  const triage::DiffResult diff = triage::diff_workdirs(mild, severe);
  ASSERT_TRUE(diff.ran) << diff.error;
  ASSERT_EQ(diff.persisting.size(), 1u);
  EXPECT_GT(diff.persisting[0].severity_b, diff.persisting[0].severity_a);
  EXPECT_TRUE(diff.regression);
  ASSERT_FALSE(diff.regression_reasons.empty());
  EXPECT_NE(diff.regression_reasons[0].find("severity rose"),
            std::string::npos);
}

TEST(Diff, MissingWorkdirIsAnErrorNotARegression) {
  const triage::DiffResult diff = triage::diff_workdirs(
      fs::path(::testing::TempDir()) / "torpedo-no-such-a",
      fs::path(::testing::TempDir()) / "torpedo-no-such-b");
  EXPECT_FALSE(diff.ran);
  EXPECT_FALSE(diff.error.empty());
  EXPECT_FALSE(diff.regression);
}

}  // namespace
}  // namespace torpedo
