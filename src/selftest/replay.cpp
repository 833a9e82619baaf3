#include "selftest/replay.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/campaign.h"
#include "core/minimize.h"
#include "core/provenance.h"
#include "core/workdir.h"
#include "exec/executor.h"
#include "fleet/coordinator.h"
#include "fleet/manifest.h"
#include "prog/program.h"
#include "run/run.h"
#include "util/strings.h"

namespace torpedo::selftest {

namespace fs = std::filesystem;

namespace {

std::optional<std::string> slurp(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string clip(std::string_view s, std::size_t limit = 96) {
  if (s.size() <= limit) return std::string(s);
  return std::string(s.substr(0, limit)) + "...";
}

std::string render_value(const telemetry::JsonValue& v) {
  using Kind = telemetry::JsonValue::Kind;
  switch (v.kind) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return v.boolean ? "true" : "false";
    case Kind::kNumber:
      return v.is_integer ? std::to_string(v.integer)
                          : format("%.17g", v.number);
    case Kind::kString:
      return clip(v.text);
    case Kind::kRaw:
      return clip(v.text);
  }
  return "?";
}

// Byte-compare two files; on mismatch record the first differing line.
void diff_bytes(const std::string& artifact, const fs::path& original,
                const fs::path& replayed, std::vector<ReplayDiff>& out) {
  const auto a = slurp(original);
  const auto b = slurp(replayed);
  if (!a || !b) {
    if (a.has_value() != b.has_value())
      out.push_back({artifact, "(file)", a ? "present" : "missing",
                     b ? "present" : "missing"});
    return;
  }
  if (*a == *b) return;
  const auto lines_a = split(*a, '\n');
  const auto lines_b = split(*b, '\n');
  const std::size_t n = std::max(lines_a.size(), lines_b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view la = i < lines_a.size() ? lines_a[i] : "<eof>";
    const std::string_view lb = i < lines_b.size() ? lines_b[i] : "<eof>";
    if (la != lb) {
      out.push_back(
          {artifact, format("line %zu", i + 1), clip(la), clip(lb)});
      return;
    }
  }
  out.push_back({artifact, "(bytes)", format("%zu bytes", a->size()),
                 format("%zu bytes", b->size())});
}

// Sorted violations/NNN directories under `workdir`.
std::vector<fs::path> bundle_dirs(const fs::path& workdir) {
  std::vector<fs::path> dirs;
  const fs::path violations = workdir / "violations";
  if (!fs::exists(violations)) return dirs;
  for (const auto& entry : fs::directory_iterator(violations))
    if (entry.is_directory()) dirs.push_back(entry.path());
  std::sort(dirs.begin(), dirs.end());
  return dirs;
}

}  // namespace

telemetry::JsonDict ReplayDiff::to_json() const {
  telemetry::JsonDict d;
  d.set("artifact", artifact)
      .set("path", path)
      .set("original", original)
      .set("replayed", replayed);
  return d;
}

telemetry::JsonDict ReplayResult::to_json() const {
  std::string rendered = "[";
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    if (i > 0) rendered += ",";
    rendered += diffs[i].to_json().to_string();
  }
  rendered += "]";
  telemetry::JsonDict d;
  d.set("ran", ran)
      .set("identical", identical)
      .set("error", error)
      .set("artifacts_compared", artifacts_compared)
      .set("diff_count", static_cast<std::int64_t>(diffs.size()))
      .set_raw("diffs", rendered);
  return d;
}

void diff_json(const std::string& artifact, const std::string& prefix,
               const std::string& a, const std::string& b,
               std::vector<ReplayDiff>& out, std::size_t max_diffs) {
  if (out.size() >= max_diffs) return;
  const auto obj_a = telemetry::parse_json_object(trim(a));
  const auto obj_b = telemetry::parse_json_object(trim(b));
  if (!obj_a || !obj_b) {
    if (trim(a) != trim(b))
      out.push_back({artifact, prefix.empty() ? "(raw)" : prefix, clip(a),
                     clip(b)});
    return;
  }
  for (const auto& [key, va] : *obj_a) {
    if (out.size() >= max_diffs) return;
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    auto it = obj_b->find(key);
    if (it == obj_b->end()) {
      out.push_back({artifact, path, render_value(va), "<missing>"});
      continue;
    }
    const telemetry::JsonValue& vb = it->second;
    if (va.kind != vb.kind) {
      out.push_back({artifact, path, render_value(va), render_value(vb)});
      continue;
    }
    using Kind = telemetry::JsonValue::Kind;
    bool equal = true;
    switch (va.kind) {
      case Kind::kNull:
        break;
      case Kind::kBool:
        equal = va.boolean == vb.boolean;
        break;
      case Kind::kNumber:
        equal = va.is_integer == vb.is_integer &&
                (va.is_integer ? va.integer == vb.integer
                               : va.number == vb.number);
        break;
      case Kind::kString:
        equal = va.text == vb.text;
        break;
      case Kind::kRaw: {
        if (va.text == vb.text) break;
        // Nested object: recurse for a field-precise path. Arrays of
        // objects (trace windows, violations, top rows) diff element-wise.
        if (starts_with(trim(va.text), "{")) {
          diff_json(artifact, path, va.text, vb.text, out, max_diffs);
          break;
        }
        const auto arr_a = telemetry::parse_json_array_of_objects(trim(va.text));
        const auto arr_b = telemetry::parse_json_array_of_objects(trim(vb.text));
        if (arr_a && arr_b) {
          if (arr_a->size() != arr_b->size()) {
            out.push_back({artifact, path + ".length",
                           std::to_string(arr_a->size()),
                           std::to_string(arr_b->size())});
            break;
          }
          for (std::size_t i = 0; i < arr_a->size(); ++i) {
            if (out.size() >= max_diffs) return;
            // Re-render both elements through JsonDict? Elements are parsed
            // maps; compare field-by-field directly via a recursive call on
            // the raw slices is unavailable, so compare values in place.
            for (const auto& [ekey, eva] : (*arr_a)[i]) {
              const std::string epath =
                  path + format("[%zu].", i) + ekey;
              auto eit = (*arr_b)[i].find(ekey);
              if (eit == (*arr_b)[i].end()) {
                out.push_back(
                    {artifact, epath, render_value(eva), "<missing>"});
                continue;
              }
              if (render_value(eva) != render_value(eit->second))
                out.push_back({artifact, epath, render_value(eva),
                               render_value(eit->second)});
              if (out.size() >= max_diffs) return;
            }
          }
          break;
        }
        out.push_back({artifact, path, render_value(va), render_value(vb)});
        break;
      }
    }
    if (!equal)
      out.push_back({artifact, path, render_value(va), render_value(vb)});
  }
  for (const auto& [key, vb] : *obj_b) {
    if (out.size() >= max_diffs) return;
    if (obj_a->find(key) == obj_a->end()) {
      const std::string path = prefix.empty() ? key : prefix + "." + key;
      out.push_back({artifact, path, "<missing>", render_value(vb)});
    }
  }
}

namespace {

// Re-executes the recorded campaign and writes the artifact stack (the same
// files `torpedo run --workdir` writes) into `scratch`.
void regenerate(const core::CampaignManifest& manifest,
                const fs::path& workdir, const fs::path& scratch) {
  // Fleet merged workdir: re-run the whole fleet from the recorded
  // experiment matrix. Fork mode (empty worker_binary) keeps the replay
  // independent of any binary path; the coordinator's merge then writes the
  // same artifact stack into the scratch root.
  if (manifest.fleet_workers > 0) {
    auto fleet_manifest = fleet::load_manifest(workdir / "fleet.json");
    if (!fleet_manifest)
      throw std::runtime_error("fleet workdir without fleet.json: " +
                               workdir.string());
    fleet::FleetConfig fleet_config;
    fleet_config.manifest = std::move(*fleet_manifest);
    fleet_config.workdir = scratch;
    fleet::Coordinator coordinator(std::move(fleet_config));
    const fleet::Coordinator::Result fleet_result = coordinator.run();
    if (!fleet_result.ok)
      throw std::runtime_error(
          format("fleet replay incomplete: %d/%d workers completed",
                 fleet_result.completed,
                 fleet_result.completed + fleet_result.failed));
    return;
  }
  run::RunOptions options;
  options.config = manifest.to_config();
  options.shards = manifest.shards;
  options.corpus_sync = manifest.corpus_sync;
  options.seeds_dir = manifest.seeds_dir;
  options.workdir = scratch;
  const run::RunResult result = run::run_campaign(options);
  if (!result.error.empty()) throw std::runtime_error(result.error);
}

// Runs `program` once on a fresh campaign stack and returns the per-call
// records of the last iteration.
std::vector<exec::CallRecord> run_once(const core::CampaignConfig& config,
                                       const prog::Program& program) {
  core::Campaign campaign(config);
  core::SingleRunner runner(campaign.observer(), campaign.cpu_oracle());
  (void)runner.violations(program);
  return runner.last_round().stats[0].last_iteration;
}

// Syscall-returns diff: the same minimized program executed in two fresh
// stacks must produce identical per-call (nr, ret, errno) records.
void diff_execution(const std::string& artifact,
                    const core::CampaignConfig& config,
                    const prog::Program& program,
                    std::vector<ReplayDiff>& out) {
  const std::vector<exec::CallRecord> first = run_once(config, program);
  const std::vector<exec::CallRecord> second = run_once(config, program);
  if (first.size() != second.size()) {
    out.push_back({artifact, "calls.length", std::to_string(first.size()),
                   std::to_string(second.size())});
    return;
  }
  for (std::size_t i = 0; i < first.size(); ++i) {
    const exec::CallRecord& a = first[i];
    const exec::CallRecord& b = second[i];
    if (a.nr != b.nr || a.ret != b.ret || a.err != b.err) {
      out.push_back(
          {artifact, format("calls[%zu]", i),
           format("nr=%d ret=%lld err=%d", a.nr,
                  static_cast<long long>(a.ret), a.err),
           format("nr=%d ret=%lld err=%d", b.nr,
                  static_cast<long long>(b.ret), b.err)});
    }
  }
}

}  // namespace

ReplayResult replay_workdir(const ReplayOptions& options) {
  ReplayResult result;
  const auto manifest =
      core::load_campaign_manifest(options.workdir / "campaign.json");
  if (!manifest) {
    result.error = "no campaign.json manifest in " + options.workdir.string() +
                   " (record one with `torpedo run --workdir`)";
    return result;
  }

  const fs::path scratch =
      options.scratch.empty() ? options.workdir / "replay" : options.scratch;
  std::error_code ec;
  fs::remove_all(scratch, ec);
  fs::create_directories(scratch);

  try {
    regenerate(*manifest, options.workdir, scratch);
  } catch (const std::exception& e) {
    result.error = std::string("replay execution failed: ") + e.what();
    return result;
  }
  result.ran = true;

  diff_bytes("report.txt", options.workdir / "report.txt",
             scratch / "report.txt", result.diffs);
  diff_bytes("corpus.txt", options.workdir / "corpus.txt",
             scratch / "corpus.txt", result.diffs);
  result.artifacts_compared = 2;

  {
    const auto a = slurp(options.workdir / "syscall_profile.json");
    const auto b = slurp(scratch / "syscall_profile.json");
    if (a && b) {
      diff_json("syscall_profile.json", "", *a, *b, result.diffs);
      ++result.artifacts_compared;
    }
  }

  // Introspection artifacts: only compared when the recorded workdir has
  // them (workdirs recorded before campaign introspection existed don't).
  if (fs::exists(options.workdir / "timeseries.jsonl")) {
    diff_bytes("timeseries.jsonl", options.workdir / "timeseries.jsonl",
               scratch / "timeseries.jsonl", result.diffs);
    ++result.artifacts_compared;
  }
  {
    const auto a = slurp(options.workdir / "mutation_efficacy.json");
    const auto b = slurp(scratch / "mutation_efficacy.json");
    if (a && b) {
      diff_json("mutation_efficacy.json", "", *a, *b, result.diffs);
      ++result.artifacts_compared;
    }
  }
  // Triage clusters: compared when the recorded workdir has them (workdirs
  // recorded before the triage engine existed don't).
  if (fs::exists(options.workdir / "clusters.json")) {
    const auto a = slurp(options.workdir / "clusters.json");
    const auto b = slurp(scratch / "clusters.json");
    if (a && b) {
      diff_json("clusters.json", "", *a, *b, result.diffs);
      ++result.artifacts_compared;
    } else {
      result.diffs.push_back({"clusters.json", "(file)",
                              a ? "present" : "missing",
                              b ? "present" : "missing"});
    }
  }

  const std::vector<fs::path> original_bundles = bundle_dirs(options.workdir);
  const std::vector<fs::path> replayed_bundles = bundle_dirs(scratch);
  if (original_bundles.size() != replayed_bundles.size()) {
    result.diffs.push_back({"violations", "bundle_count",
                            std::to_string(original_bundles.size()),
                            std::to_string(replayed_bundles.size())});
  }
  const std::size_t bundles =
      std::min(original_bundles.size(), replayed_bundles.size());
  const core::CampaignConfig exec_config = manifest->to_config();
  int execution_diffs = 0;
  for (std::size_t i = 0; i < bundles; ++i) {
    const std::string name =
        "violations/" + original_bundles[i].filename().string();
    const auto a = slurp(original_bundles[i] / "bundle.json");
    const auto b = slurp(replayed_bundles[i] / "bundle.json");
    if (a && b) diff_json(name + "/bundle.json", "", *a, *b, result.diffs);
    diff_bytes(name + "/program.prog", original_bundles[i] / "program.prog",
               replayed_bundles[i] / "program.prog", result.diffs);
    ++result.artifacts_compared;

    if (execution_diffs < options.max_execution_diffs) {
      if (const auto text = slurp(original_bundles[i] / "program.prog")) {
        if (auto program = prog::Program::parse(*text);
            program && !program->empty()) {
          ++execution_diffs;
          diff_execution(name + "/program.prog", exec_config, *program,
                         result.diffs);
        }
      }
    }
  }

  result.identical = result.diffs.empty();
  if (!options.keep_scratch && result.identical) fs::remove_all(scratch, ec);
  return result;
}

}  // namespace torpedo::selftest
