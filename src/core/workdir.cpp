#include "core/workdir.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "feedback/mutation_efficacy.h"
#include "telemetry/json.h"
#include "telemetry/timeseries.h"
#include "util/strings.h"

namespace torpedo::core {

namespace fs = std::filesystem;

std::size_t write_seed_files(const fs::path& dir,
                             const std::vector<prog::Program>& seeds) {
  fs::create_directories(dir);
  std::size_t written = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const fs::path file = dir / format("seed-%03zu.prog", i);
    std::ofstream out(file);
    if (!out) continue;
    out << seeds[i].serialize();
    ++written;
  }
  return written;
}

std::vector<prog::Program> load_seed_files(const fs::path& dir,
                                           std::vector<std::string>* errors) {
  std::vector<prog::Program> seeds;
  if (!fs::exists(dir)) return seeds;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file() && entry.path().extension() == ".prog")
      files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto program = prog::Program::parse(buffer.str());
    if (program && !program->empty()) {
      seeds.push_back(std::move(*program));
    } else if (errors) {
      errors->push_back(file.string() + ": parse error");
    }
  }
  return seeds;
}

void save_corpus(const fs::path& file, const feedback::Corpus& corpus) {
  if (file.has_parent_path()) fs::create_directories(file.parent_path());
  std::ofstream out(file);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const feedback::CorpusEntry& entry = corpus.entry(i);
    const feedback::Lineage& lin = entry.lineage;
    out << format("# score=%.4f signal=%zu hash=%016llx parent=%016llx "
                  "op=%s round=%d",
                  entry.best_score, entry.signal.size(),
                  static_cast<unsigned long long>(entry.program.hash()),
                  static_cast<unsigned long long>(lin.parent_hash),
                  std::string(feedback::origin_op_name(lin.op)).c_str(),
                  lin.birth_round);
    // The shard dimension exists only in sharded campaigns; unsharded
    // corpus files keep their historical shape.
    if (lin.birth_shard >= 0) out << format(" shard=%d", lin.birth_shard);
    out << "\n" << entry.program.serialize() << "\n";
  }
}

std::size_t load_corpus(const fs::path& file, feedback::Corpus& corpus) {
  std::ifstream in(file);
  if (!in) return 0;
  std::size_t loaded = 0;
  std::string line;
  double score = 0;
  feedback::Lineage lineage;
  std::string block;
  auto flush = [&] {
    if (block.empty()) return;
    auto program = prog::Program::parse(block);
    if (program && !program->empty()) {
      // Coverage signal is execution-derived; start empty and let the next
      // campaign re-learn it.
      if (corpus.add(std::move(*program), feedback::SignalSet{}, score,
                     lineage))
        ++loaded;
    }
    block.clear();
    score = 0;
    lineage = {};
  };
  while (std::getline(in, line)) {
    if (starts_with(line, "# score=")) {
      flush();
      const auto fields = split_ws(line);
      for (const auto field : fields) {
        if (starts_with(field, "score=")) {
          score = std::atof(std::string(field.substr(6)).c_str());
        } else if (starts_with(field, "parent=")) {
          lineage.parent_hash = std::strtoull(
              std::string(field.substr(7)).c_str(), nullptr, 16);
        } else if (starts_with(field, "op=")) {
          if (auto op = feedback::origin_op_from_name(field.substr(3)))
            lineage.op = *op;
        } else if (starts_with(field, "round=")) {
          lineage.birth_round =
              std::atoi(std::string(field.substr(6)).c_str());
        } else if (starts_with(field, "shard=")) {
          lineage.birth_shard =
              std::atoi(std::string(field.substr(6)).c_str());
        }
      }
      continue;
    }
    if (trim(line).empty()) {
      flush();
      continue;
    }
    block += std::string(line) + "\n";
  }
  flush();
  return loaded;
}

void save_timeseries(
    const fs::path& file,
    std::span<const telemetry::TimeSeriesRecorder* const> recorders) {
  if (file.has_parent_path()) fs::create_directories(file.parent_path());
  std::ofstream out(file);
  for (const telemetry::TimeSeriesRecorder* recorder : recorders)
    if (recorder != nullptr) recorder->flush_jsonl(out);
}

void save_timeseries(const fs::path& file,
                     std::span<const telemetry::SampleSeries> series) {
  if (file.has_parent_path()) fs::create_directories(file.parent_path());
  std::ofstream out(file);
  for (const telemetry::SampleSeries& s : series)
    telemetry::write_samples_jsonl(out, s);
}

void save_mutation_efficacy(const fs::path& file,
                            const feedback::MutationEfficacy& efficacy) {
  if (file.has_parent_path()) fs::create_directories(file.parent_path());
  std::ofstream out(file);
  out << efficacy.to_json() << "\n";
}

void save_report(const fs::path& file, const CampaignReport& report) {
  if (file.has_parent_path()) fs::create_directories(file.parent_path());
  std::ofstream out(file);
  out << format(
      "# TORPEDO campaign report\n# batches=%d rounds=%d executions=%llu "
      "corpus=%zu\n\n",
      report.batches, report.rounds,
      static_cast<unsigned long long>(report.executions), report.corpus_size);
  for (const Finding& f : report.findings) {
    out << "== finding: " << f.syscall_list() << " ==\n";
    out << "cause: " << f.cause << (f.is_new ? " (new)" : " (reconfirm)")
        << "\n";
    out << "symptoms: " << f.symptoms << "\n";
    // Shard provenance exists only for sharded campaigns; sequential reports
    // stay byte-identical.
    if (f.shard >= 0) out << format("shard: %d\n", f.shard);
    // One structured record per violation: grep-able by humans, parseable by
    // tooling without reverse-engineering the prose format.
    for (const oracle::Violation& v : f.violations)
      out << "violation: " << v.to_json().to_string() << "\n";
    out << f.serialized << "\n";
  }
  for (const CrashFinding& crash : report.crashes) {
    out << "== crash ==\n";
    out << "message: " << crash.message << "\n";
    out << "reproduced: " << (crash.reproduced ? "yes" : "no") << "\n";
    if (crash.shard >= 0) out << format("shard: %d\n", crash.shard);
    out << crash.serialized << "\n";
  }
}

CampaignManifest CampaignManifest::from_config(const CampaignConfig& config) {
  CampaignManifest m;
  m.runtime = std::string(runtime::runtime_name(config.runtime));
  m.batches = config.batches;
  m.num_executors = config.num_executors;
  m.round_duration = config.round_duration;
  m.num_seeds = config.num_seeds;
  m.seed = config.seed;
  m.snapshot_exec = config.snapshot_exec;
  return m;
}

CampaignConfig CampaignManifest::to_config() const {
  CampaignConfig config;
  if (auto kind = runtime::runtime_from_name(runtime)) config.runtime = *kind;
  config.batches = batches;
  config.num_executors = num_executors;
  config.round_duration = round_duration;
  config.num_seeds = num_seeds;
  config.seed = seed;
  config.snapshot_exec = snapshot_exec;
  return config;
}

telemetry::JsonDict campaign_manifest_to_dict(const CampaignManifest& m) {
  telemetry::JsonDict doc;
  doc.set("runtime", m.runtime)
      .set("batches", m.batches)
      .set("num_executors", m.num_executors)
      .set("round_duration_ns", m.round_duration)
      .set("num_seeds", static_cast<std::int64_t>(m.num_seeds))
      .set("seed", static_cast<std::int64_t>(m.seed))
      .set("shards", m.shards)
      .set("corpus_sync", m.corpus_sync)
      .set("snapshot_exec", m.snapshot_exec)
      .set("seeds_dir", m.seeds_dir);
  // Only fleet merged workdirs carry the marker; sequential and sharded
  // manifests keep their pre-fleet byte layout.
  if (m.fleet_workers > 0) doc.set("fleet_workers", m.fleet_workers);
  return doc;
}

void save_campaign_manifest(const fs::path& file,
                            const CampaignManifest& manifest) {
  if (file.has_parent_path()) fs::create_directories(file.parent_path());
  std::ofstream out(file);
  out << campaign_manifest_to_dict(manifest).to_string() << "\n";
}

namespace {

std::optional<CampaignManifest> parse_manifest_impl(std::string_view text,
                                                    bool require_all) {
  auto object = telemetry::parse_json_object(trim(text));
  if (!object) return std::nullopt;

  CampaignManifest m;
  auto num = [&](const char* key, auto& field) -> bool {
    auto it = object->find(key);
    if (it == object->end()) return !require_all;
    if (it->second.kind != telemetry::JsonValue::Kind::kNumber ||
        !it->second.is_integer)
      return false;
    field = static_cast<std::remove_reference_t<decltype(field)>>(
        it->second.integer);
    return true;
  };
  if (auto it = object->find("runtime");
      it != object->end() &&
      it->second.kind == telemetry::JsonValue::Kind::kString)
    m.runtime = it->second.text;
  if (!num("batches", m.batches) || !num("num_executors", m.num_executors) ||
      !num("round_duration_ns", m.round_duration) ||
      !num("num_seeds", m.num_seeds) || !num("seed", m.seed) ||
      !num("shards", m.shards))
    return std::nullopt;
  if (auto it = object->find("corpus_sync");
      it != object->end() &&
      it->second.kind == telemetry::JsonValue::Kind::kBool)
    m.corpus_sync = it->second.boolean;
  // Optional for manifests recorded before the snapshot-exec fast path
  // existed; those campaigns ran the equivalent of snapshot-exec on.
  if (auto it = object->find("snapshot_exec");
      it != object->end() &&
      it->second.kind == telemetry::JsonValue::Kind::kBool)
    m.snapshot_exec = it->second.boolean;
  if (auto it = object->find("seeds_dir");
      it != object->end() &&
      it->second.kind == telemetry::JsonValue::Kind::kString)
    m.seeds_dir = it->second.text;
  // Optional: absent in every pre-fleet manifest.
  if (auto it = object->find("fleet_workers");
      it != object->end() &&
      it->second.kind == telemetry::JsonValue::Kind::kNumber)
    m.fleet_workers = static_cast<int>(it->second.integer);
  return m;
}

}  // namespace

std::optional<CampaignManifest> parse_campaign_manifest(
    std::string_view text) {
  return parse_manifest_impl(text, /*require_all=*/true);
}

std::optional<CampaignManifest> parse_campaign_manifest_lenient(
    std::string_view text) {
  return parse_manifest_impl(text, /*require_all=*/false);
}

std::optional<CampaignManifest> load_campaign_manifest(const fs::path& file) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_campaign_manifest(buffer.str());
}

}  // namespace torpedo::core
