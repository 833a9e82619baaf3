// Campaign workdir persistence.
//
// syz-manager keeps its corpus and crash reports in a working directory so
// campaigns can be stopped, inspected, and resumed; Torpedo inherits that
// workflow (§2.6.2, and §1.2's "Adding Seed Ingestion" contribution). This
// module serializes seed files, the corpus, and findings reports using the
// program text format, so artifacts are human-readable and diffable.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/classify.h"
#include "feedback/corpus.h"
#include "prog/program.h"
#include "telemetry/json.h"
#include "telemetry/timeseries.h"

namespace torpedo::feedback {
class MutationEfficacy;
}  // namespace torpedo::feedback

namespace torpedo::core {

// --- seed files ---------------------------------------------------------------

// Writes one program per file ("seed-NNN.prog") under `dir`.
// Returns the number written.
std::size_t write_seed_files(const std::filesystem::path& dir,
                             const std::vector<prog::Program>& seeds);

// Loads every "*.prog" file under `dir` (sorted by name). Files that fail to
// parse are skipped and reported in `errors` when non-null.
std::vector<prog::Program> load_seed_files(
    const std::filesystem::path& dir,
    std::vector<std::string>* errors = nullptr);

// --- corpus -------------------------------------------------------------------

// Serializes the corpus to a single text file: for each entry a header line
// ("# score=<best> signal=<n> hash=<hex> parent=<hex> op=<name> round=<r>",
// plus " shard=<s>" for sharded campaigns) followed by the program text and
// a blank line. The hash field makes each entry self-describing, so
// `torpedo stats` can build lineage-depth histograms without re-hashing.
void save_corpus(const std::filesystem::path& file,
                 const feedback::Corpus& corpus);

// Reads a corpus file back; entries that fail to parse are skipped. Scores
// and lineage round-trip (older headers without lineage fields load as
// roots); the coverage signal is re-learned by running the programs.
std::size_t load_corpus(const std::filesystem::path& file,
                        feedback::Corpus& corpus);

// --- introspection artifacts --------------------------------------------------

// Writes the signal-growth time series as JSONL, shard-major: all of the
// first recorder's retained samples, then the second's, ... (every run
// mode writes it through run::write_workdir, so the artifact has exactly
// one byte layout). Null recorders are skipped.
void save_timeseries(
    const std::filesystem::path& file,
    std::span<const telemetry::TimeSeriesRecorder* const> recorders);
// The same lines from sample views, shard-major in span order.
void save_timeseries(const std::filesystem::path& file,
                     std::span<const telemetry::SampleSeries> series);

// Writes the per-operator mutation-efficacy table as one JSON object.
void save_mutation_efficacy(const std::filesystem::path& file,
                            const feedback::MutationEfficacy& efficacy);

// --- findings -----------------------------------------------------------------

// Human-readable findings report (one block per finding + crash).
void save_report(const std::filesystem::path& file,
                 const CampaignReport& report);

// --- campaign manifest --------------------------------------------------------

// Everything `torpedo selftest --replay` needs to re-execute a recorded
// campaign: the (seed, config) pair that, on the deterministic substrate,
// regenerates every artifact byte-for-byte. Saved as workdir/campaign.json
// by `torpedo run --workdir`.
struct CampaignManifest {
  std::string runtime = "runc";
  int batches = 8;
  int num_executors = 3;
  Nanos round_duration = 5 * kSecond;
  std::size_t num_seeds = 40;
  std::uint64_t seed = 0x7095ED0;
  int shards = 1;         // 1 == sequential campaign
  bool corpus_sync = true;
  // Snapshot-exec fast path. Artifacts are byte-identical either way; the
  // replay differ regenerates with whatever the manifest recorded.
  bool snapshot_exec = true;
  std::string seeds_dir;  // empty == default Moonshine-like corpus
  // > 0 marks a fleet merged workdir: the campaign was N coordinator-driven
  // worker processes (fleet/coordinator.h) and replay must re-run the fleet
  // from workdir/fleet.json instead of one Campaign.
  int fleet_workers = 0;

  static CampaignManifest from_config(const CampaignConfig& config);
  // Manifest fields over campaign defaults. Fields the manifest doesn't
  // carry (cost model, oracle thresholds, ...) must match the recording
  // binary's defaults for the replay to be byte-exact.
  CampaignConfig to_config() const;
};

void save_campaign_manifest(const std::filesystem::path& file,
                            const CampaignManifest& manifest);
std::optional<CampaignManifest> load_campaign_manifest(
    const std::filesystem::path& file);

// The manifest as a JSON object / parsed back from one, without the file
// I/O — the fleet manifest (fleet/manifest.h) embeds the same object as its
// "defaults" field.
telemetry::JsonDict campaign_manifest_to_dict(const CampaignManifest& m);
std::optional<CampaignManifest> parse_campaign_manifest(std::string_view text);
// Lenient variant for hand-written documents (the fleet manifest's
// "defaults"): missing keys keep their CampaignManifest defaults; keys that
// are present must still have the right type. campaign.json stays on the
// strict parser — it is always machine-written complete, and a replay must
// not silently fill in defaults for a field the recording carried.
std::optional<CampaignManifest> parse_campaign_manifest_lenient(
    std::string_view text);

}  // namespace torpedo::core
