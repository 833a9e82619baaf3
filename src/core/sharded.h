// Sharded parallel campaigns: K independent campaign stacks on K threads.
//
// The paper's throughput ceiling is round-serialized execution — every round
// is a synchronized measurement window, so one campaign can never use more
// than one host thread no matter how many cores exist (§3.4, §4.2). Kernel
// fuzzers buy their throughput back with fleet parallelism (syzbot, G-Fuzz):
// many independent instances that trade discoveries. ShardedCampaign is that
// fleet in-process: each shard owns a full stack (SimKernel, engine,
// executors, observer, oracles, fuzzer) seeded with mix_seed(base, shard),
// runs its batches on its own std::jthread, and trades corpus entries and
// denylist learning through a CorpusHub epoch barrier after every batch.
//
// Determinism: a fixed (seed, shards, batches) triple yields a byte-stable
// merged report across runs and thread schedules. Each shard is sequential
// and isolated; the only cross-shard channel is the hub, whose epoch
// protocol is schedule-independent (see corpus_hub.h); and the merge is a
// deterministic fold in shard order (findings stable-sorted by
// (shard, source_round), crashes deduplicated by message in shard order,
// denylist as a sorted union, corpus merged shard-major).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "feedback/corpus_hub.h"

namespace torpedo::core {

struct ShardedConfig {
  // Per-shard campaign template. `seed` is the base seed: shard k runs with
  // mix_seed(seed, k), so shard 0 of any fleet reproduces the unsharded
  // campaign exactly.
  CampaignConfig base;
  int shards = 1;
  // Cross-shard corpus sync through the hub (ablation: off = fully
  // independent shards that only merge at the end).
  bool corpus_sync = true;
};

// The deterministic fold of per-shard reports, element k being shard k's:
// every finding, provenance record and crash is stamped with its shard,
// findings are stable-sorted by (shard, source_round) with provenance
// re-indexed to match, crashes are deduplicated by message in shard order,
// the denylist is the sorted union and the counters are summed. The fleet
// coordinator folds its workers' reports with the same function. The
// caller sets corpus_size from whatever merged corpus it built.
CampaignReport merge_reports(std::vector<CampaignReport> reports);

class ShardedCampaign {
 public:
  explicit ShardedCampaign(ShardedConfig config);
  ~ShardedCampaign();

  ShardedCampaign(const ShardedCampaign&) = delete;
  ShardedCampaign& operator=(const ShardedCampaign&) = delete;

  // Shard k's campaign seed. shard_seed(base, 0) == base.
  static std::uint64_t shard_seed(std::uint64_t base, int shard);

  // Optional per-shard wiring (live status, heartbeat, watchdog, trace
  // sinks). Both hooks run on the shard's worker thread: `start` right after
  // the Campaign is constructed (before seeding), `finish` after finalize()
  // while the stack is still alive. Must be installed before run().
  using ShardHook = std::function<void(int shard, Campaign& campaign)>;
  void set_shard_start_hook(ShardHook hook) { start_hook_ = std::move(hook); }
  void set_shard_finish_hook(ShardHook hook) {
    finish_hook_ = std::move(hook);
  }

  // Seeds every shard with this set instead of the default corpus.
  void set_seeds(std::vector<prog::Program> seeds) {
    seeds_ = std::move(seeds);
  }

  // Runs all shards to completion and returns the deterministic merged
  // report. Throws if any shard died on an internal check; surviving shards
  // are joined first (the hub barrier shrinks, nobody deadlocks).
  CampaignReport run();

  // Valid after run().
  const std::vector<CampaignReport>& shard_reports() const {
    return shard_reports_;
  }
  const feedback::Corpus& merged_corpus() const { return merged_corpus_; }
  const feedback::CorpusHub& hub() const { return *hub_; }
  const ShardedConfig& config() const { return config_; }

 private:
  struct ShardResult {
    CampaignReport report;
    std::vector<feedback::CorpusEntry> corpus;  // shard-local final corpus
    std::string error;  // non-empty if the shard died
  };

  void run_shard(int shard, ShardResult& result);

  ShardedConfig config_;
  std::unique_ptr<feedback::CorpusHub> hub_;
  std::optional<std::vector<prog::Program>> seeds_;
  ShardHook start_hook_;
  ShardHook finish_hook_;
  std::vector<CampaignReport> shard_reports_;
  feedback::Corpus merged_corpus_;
};

}  // namespace torpedo::core
