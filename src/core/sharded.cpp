#include "core/sharded.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"
#include "util/rng.h"

namespace torpedo::core {

ShardedCampaign::ShardedCampaign(ShardedConfig config)
    : config_(std::move(config)) {
  TORPEDO_CHECK(config_.shards > 0);
  hub_ = std::make_unique<feedback::CorpusHub>(config_.shards);
}

ShardedCampaign::~ShardedCampaign() = default;

std::uint64_t ShardedCampaign::shard_seed(std::uint64_t base, int shard) {
  return mix_seed(base, static_cast<std::uint64_t>(shard));
}

void ShardedCampaign::run_shard(int shard, ShardResult& result) {
  try {
    CampaignConfig cfg = config_.base;
    cfg.seed = shard_seed(config_.base.seed, shard);
    Campaign campaign(cfg);
    // Entries born here carry this shard's index; entries pulled from a peer
    // keep the birth_shard they arrived with.
    campaign.corpus().set_shard(shard);
    if (start_hook_) start_hook_(shard, campaign);
    if (seeds_.has_value())
      campaign.load_seeds(*seeds_);
    else
      campaign.load_default_seeds();

    const bool sync = config_.corpus_sync && config_.shards > 1;
    // Corpus entries below this index have already been through the hub
    // (published by us, or pulled from a peer) — never re-publish them.
    std::size_t published = 0;
    for (int b = 0; b < cfg.batches; ++b) {
      const BatchResult batch = campaign.run_one_batch();
      TORPEDO_LOG(LogLevel::kInfo,
                  "shard %d batch %d: rounds=%d best=%.1f corpus=%zu", shard,
                  b, batch.rounds, batch.best_score, campaign.corpus().size());
      if (!sync) continue;
      std::vector<feedback::CorpusEntry> fresh;
      for (; published < campaign.corpus().size(); ++published)
        fresh.push_back(campaign.corpus().entry(published));
      feedback::CorpusHub::Delta delta = hub_->exchange(
          shard, std::move(fresh), campaign.fuzzer().denylist());
      for (feedback::CorpusEntry& e : delta.entries)
        campaign.corpus().add(std::move(e.program), e.signal, e.best_score,
                              e.lineage);
      published = campaign.corpus().size();
      campaign.fuzzer().adopt_denylist(delta.denylist);
    }

    result.report = campaign.finalize();
    result.corpus.reserve(campaign.corpus().size());
    for (std::size_t i = 0; i < campaign.corpus().size(); ++i)
      result.corpus.push_back(campaign.corpus().entry(i));
    if (finish_hook_) finish_hook_(shard, campaign);
  } catch (const std::exception& e) {
    result.error = e.what();
    TORPEDO_LOG(LogLevel::kError, "shard %d died: %s", shard, e.what());
  }
  // Always leave, success or death: the hub barrier must shrink so the
  // remaining shards never wait on a ghost.
  hub_->leave(shard);
}

CampaignReport merge_reports(std::vector<CampaignReport> reports) {
  // (finding, provenance) travel as a pair so the post-sort index remap
  // cannot tear them apart.
  struct Item {
    Finding finding;
    Provenance provenance;
  };
  std::vector<Item> items;
  CampaignReport merged;

  for (std::size_t s = 0; s < reports.size(); ++s) {
    CampaignReport& r = reports[s];
    const int shard = static_cast<int>(s);
    merged.batches += r.batches;
    merged.rounds += r.rounds;
    merged.executions += r.executions;
    merged.suspects += r.suspects;
    merged.crash_suspects += r.crash_suspects;
    merged.confirmations_run += r.confirmations_run;

    for (std::size_t i = 0; i < r.findings.size(); ++i) {
      Item item;
      item.finding = std::move(r.findings[i]);
      item.finding.shard = shard;
      // Per-shard finalize emits exactly one provenance per finding, in
      // finding order; pair defensively by finding_index anyway.
      for (Provenance& p : r.provenance) {
        if (p.finding_index == static_cast<int>(i)) {
          item.provenance = std::move(p);
          break;
        }
      }
      item.provenance.shard = shard;
      items.push_back(std::move(item));
    }

    for (CrashFinding& crash : r.crashes) {
      crash.shard = shard;
      // The paper reports distinct bugs; a crash two shards both hit is one
      // bug. Shard-order iteration makes the keeper deterministic.
      const bool duplicate =
          std::any_of(merged.crashes.begin(), merged.crashes.end(),
                      [&](const CrashFinding& c) {
                        return c.message == crash.message;
                      });
      if (!duplicate) merged.crashes.push_back(std::move(crash));
    }

    for (const std::string& name : r.denylist) {
      auto it = std::lower_bound(merged.denylist.begin(),
                                 merged.denylist.end(), name);
      if (it == merged.denylist.end() || *it != name)
        merged.denylist.insert(it, name);
    }
  }

  // Deterministic merged order: (shard, source_round), stable so a shard's
  // own tie order (the severity-interleaved confirmation order) survives.
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) {
                     if (a.finding.shard != b.finding.shard)
                       return a.finding.shard < b.finding.shard;
                     return a.finding.source_round < b.finding.source_round;
                   });
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].provenance.finding_index = static_cast<int>(i);
    merged.findings.push_back(std::move(items[i].finding));
    merged.provenance.push_back(std::move(items[i].provenance));
  }
  return merged;
}

CampaignReport ShardedCampaign::run() {
  std::vector<ShardResult> results(
      static_cast<std::size_t>(config_.shards));
  {
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<std::size_t>(config_.shards));
    for (int s = 0; s < config_.shards; ++s)
      workers.emplace_back(
          [this, s, &results] { run_shard(s, results[static_cast<std::size_t>(s)]); });
  }  // jthreads join here

  std::string errors;
  for (int s = 0; s < config_.shards; ++s) {
    const std::string& err = results[static_cast<std::size_t>(s)].error;
    if (err.empty()) continue;
    if (!errors.empty()) errors += "; ";
    errors += "shard " + std::to_string(s) + ": " + err;
  }
  if (!errors.empty())
    throw std::runtime_error("sharded campaign failed: " + errors);

  shard_reports_.clear();
  for (ShardResult& r : results) {
    shard_reports_.push_back(r.report);
    for (feedback::CorpusEntry& e : r.corpus)
      merged_corpus_.add(std::move(e.program), e.signal, e.best_score,
                         e.lineage);
  }
  CampaignReport merged = merge_reports(shard_reports_);
  merged.corpus_size = merged_corpus_.size();

  const feedback::CorpusHub::Stats hub_stats = hub_->stats();
  telemetry::Registry& metrics = telemetry::global();
  metrics.counter("hub.epochs").inc(hub_stats.epochs);
  metrics.counter("hub.published").inc(hub_stats.published);
  metrics.counter("hub.unique").inc(hub_stats.unique);
  metrics.counter("hub.merged").inc(hub_stats.merged);
  metrics.counter("hub.pulled").inc(hub_stats.pulled);
  metrics.gauge("campaign.shards").set(static_cast<double>(config_.shards));
  return merged;
}

}  // namespace torpedo::core
