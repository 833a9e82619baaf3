// Golden byte-determinism tests: two campaigns with identical configs must
// regenerate every workdir artifact byte-for-byte — report.txt, corpus.txt,
// violation bundles, clusters.json, syscall_profile.json, timeseries.jsonl,
// mutation_efficacy.json, campaign.json — for the sequential engine, the
// sharded engine and the fleet, plus the final heartbeats modulo their
// wall-clock stamp.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "fleet/coordinator.h"
#include "fleet/manifest.h"
#include "run/run.h"
#include "telemetry/json.h"

namespace torpedo {
namespace {

namespace fs = std::filesystem;

core::CampaignConfig golden_config() {
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

// One full campaign through the `torpedo run --workdir` path: the same
// instruments and the same workdir writer as the CLI.
void run_workdir(const fs::path& dir, int shards) {
  run::RunOptions options;
  options.config = golden_config();
  options.shards = shards;
  options.workdir = dir;
  EXPECT_EQ(run::run_campaign(options).error, "");
}

// Relative paths of every regular file under `dir`, sorted.
std::vector<std::string> file_list(const fs::path& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file())
      files.push_back(fs::relative(entry.path(), dir).string());
  std::sort(files.begin(), files.end());
  return files;
}

// Heartbeats are compared field-by-field minus wall_ns, the one
// intentionally non-deterministic stamp.
std::string heartbeat_minus_wall(const fs::path& file) {
  const auto obj = telemetry::parse_json_object(slurp(file));
  EXPECT_TRUE(obj.has_value()) << file;
  std::string out;
  for (const auto& [key, value] : *obj) {
    if (key == "wall_ns") continue;
    out += key + "=" + value.text +
           (value.is_integer ? std::to_string(value.integer) : "") + ";";
  }
  return out;
}

// Same file set, byte-identical contents — except the two wall-clock
// bearers: every heartbeat*.json is compared minus its wall_ns stamp, and a
// fleet's fleet_status.json (run timing snapshot) is skipped.
void expect_identical_trees(const fs::path& a, const fs::path& b) {
  const std::vector<std::string> files_a = file_list(a);
  ASSERT_EQ(files_a, file_list(b));
  for (const std::string& rel : files_a) {
    const fs::path file(rel);
    if (file.filename() == "fleet_status.json") continue;
    if (file.filename().string().starts_with("heartbeat") &&
        file.extension() == ".json") {
      EXPECT_EQ(heartbeat_minus_wall(a / rel), heartbeat_minus_wall(b / rel))
          << rel;
      continue;
    }
    EXPECT_EQ(slurp(a / rel), slurp(b / rel)) << rel;
  }
}

TEST(Determinism, SequentialCampaignIsByteIdentical) {
  const fs::path a = fresh_dir("torpedo-golden-seq-a");
  const fs::path b = fresh_dir("torpedo-golden-seq-b");
  run_workdir(a, 1);
  run_workdir(b, 1);
  EXPECT_FALSE(slurp(a / "report.txt").empty());
  expect_identical_trees(a, b);
}

TEST(Determinism, ShardedCampaignIsByteIdentical) {
  const fs::path a = fresh_dir("torpedo-golden-sh-a");
  const fs::path b = fresh_dir("torpedo-golden-sh-b");
  run_workdir(a, 2);
  run_workdir(b, 2);
  expect_identical_trees(a, b);
}

// The golden fleet: two workers of a campaign the manifest can express.
fleet::Manifest golden_fleet_manifest() {
  fleet::Manifest manifest;
  manifest.workers = 2;
  manifest.defaults.batches = 2;
  manifest.defaults.num_executors = 2;
  manifest.defaults.round_duration = 50 * kMillisecond;
  manifest.defaults.num_seeds = 6;
  manifest.defaults.seed = 0xD0D0;
  return manifest;
}

// One fork-mode fleet run: a coordinator plus two forked worker processes
// exchanging corpus entries over the Unix socket, merged into `dir`.
void run_fleet_workdir(const fs::path& dir) {
  fleet::FleetConfig config;
  config.manifest = golden_fleet_manifest();
  config.workdir = dir;  // empty worker_binary => fork mode
  fleet::Coordinator coordinator(std::move(config));
  ASSERT_TRUE(coordinator.run().ok);
}

TEST(Determinism, FleetCampaignIsByteIdentical) {
  const fs::path a = fresh_dir("torpedo-golden-fleet-a");
  const fs::path b = fresh_dir("torpedo-golden-fleet-b");
  run_fleet_workdir(a);
  run_fleet_workdir(b);

  EXPECT_FALSE(slurp(a / "report.txt").empty());
  expect_identical_trees(a, b);
}

// A fleet of N workers is `run --shards N` in N processes: worker k runs
// shard k's campaign and the coordinator folds and writes the reports the
// way the sharded run does, so the shared artifact set is byte-identical.
TEST(Determinism, FleetMatchesShardedRun) {
  const fs::path fleet_dir = fresh_dir("torpedo-golden-fleet-vs-shards-f");
  const fs::path shards_dir = fresh_dir("torpedo-golden-fleet-vs-shards-s");
  run_fleet_workdir(fleet_dir);
  const fleet::Manifest manifest = golden_fleet_manifest();
  run::RunOptions options;
  options.config = manifest.defaults.to_config();
  options.shards = manifest.workers;
  options.workdir = shards_dir;
  ASSERT_EQ(run::run_campaign(options).error, "");

  EXPECT_FALSE(slurp(shards_dir / "report.txt").empty());
  for (const char* name :
       {"report.txt", "corpus.txt", "clusters.json", "syscall_profile.json",
        "mutation_efficacy.json", "timeseries.jsonl"})
    EXPECT_EQ(slurp(fleet_dir / name), slurp(shards_dir / name)) << name;
  const std::vector<std::string> bundles = file_list(shards_dir / "violations");
  EXPECT_FALSE(bundles.empty());
  ASSERT_EQ(file_list(fleet_dir / "violations"), bundles);
  for (const std::string& rel : bundles)
    EXPECT_EQ(slurp(fleet_dir / "violations" / rel),
              slurp(shards_dir / "violations" / rel))
        << rel;
}

}  // namespace
}  // namespace torpedo
