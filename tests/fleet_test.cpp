// Fleet tests: the wire codec (round-trips and hostile-input paths), the
// kDone report codec, the frame transport, the CorpusLedger rejoin
// contract, the fleet manifest, metrics aggregation, and end-to-end
// fork-mode fleets — including the deterministic crash/restart path via
// the crash_after_batch hook.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/report_wire.h"
#include "core/seeds.h"
#include "feedback/corpus_hub.h"
#include "feedback/wire.h"
#include "fleet/coordinator.h"
#include "fleet/frame.h"
#include "fleet/manifest.h"
#include "fleet/worker.h"
#include "telemetry/aggregate.h"
#include "util/rng.h"
#include "util/time.h"

using namespace torpedo;
using namespace torpedo::fleet;

namespace {

namespace fs = std::filesystem;

feedback::CorpusEntry entry_for(const char* seed_name, double score) {
  feedback::CorpusEntry entry;
  entry.program = *core::named_seed(seed_name);
  entry.signal.add(entry.program.hash());
  entry.best_score = score;
  return entry;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
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

// --- wire codec ------------------------------------------------------------------

TEST(WireCodec, CorpusEntryRoundTripsAndReencodesIdentically) {
  feedback::CorpusEntry entry = entry_for("sync", 3.25);
  // Insert signal out of order; the codec must sort before writing.
  entry.signal.add(0xDEAD);
  entry.signal.add(0x0001);
  entry.lineage.parent_hash = 0xFEEDFACE;
  entry.lineage.op = feedback::OriginOp::kSplice;
  entry.lineage.birth_round = 7;
  entry.lineage.birth_shard = 1;

  feedback::WireWriter w;
  feedback::encode_corpus_entry(w, entry);
  const std::string bytes = w.take();

  feedback::WireReader r(bytes);
  auto decoded = feedback::decode_corpus_entry(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(decoded->program.hash(), entry.program.hash());
  EXPECT_EQ(decoded->best_score, 3.25);
  EXPECT_EQ(decoded->lineage.parent_hash, 0xFEEDFACEu);
  EXPECT_EQ(decoded->lineage.op, feedback::OriginOp::kSplice);
  EXPECT_EQ(decoded->lineage.birth_round, 7);
  EXPECT_EQ(decoded->lineage.birth_shard, 1);
  EXPECT_TRUE(decoded->signal.contains(0xDEAD));
  EXPECT_TRUE(decoded->signal.contains(0x0001));

  // Determinism contract: decode -> re-encode is byte-identical.
  feedback::WireWriter w2;
  feedback::encode_corpus_entry(w2, *decoded);
  EXPECT_EQ(w2.data(), bytes);
}

TEST(WireCodec, PublishBodyRoundTrips) {
  feedback::PublishBody body;
  body.entries = {entry_for("sync", 1.0), entry_for("kcmp-pair", 2.0)};
  body.denylist = {"pause", "sync"};
  const std::string payload = feedback::encode_publish(body);

  auto decoded = feedback::decode_publish(payload);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries[0].program.hash(), body.entries[0].program.hash());
  EXPECT_EQ(decoded->entries[1].program.hash(), body.entries[1].program.hash());
  EXPECT_EQ(decoded->denylist, body.denylist);
  // Empty body round-trips too.
  EXPECT_TRUE(feedback::decode_publish(feedback::encode_publish({})));
}

TEST(WireCodec, DeltaBodyRoundTrips) {
  feedback::DeltaBody body;
  body.epoch = 42;
  body.entries = {entry_for("sync", 1.5)};
  body.denylist = {"kcmp"};
  auto decoded = feedback::decode_delta(feedback::encode_delta(body));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->epoch, 42u);
  ASSERT_EQ(decoded->entries.size(), 1u);
  EXPECT_EQ(decoded->entries[0].best_score, 1.5);
  EXPECT_EQ(decoded->denylist, std::vector<std::string>{"kcmp"});
}

TEST(WireCodec, TruncatedPayloadIsRejectedAtEveryPrefix) {
  feedback::PublishBody body;
  body.entries = {entry_for("sync", 1.0)};
  body.denylist = {"pause"};
  const std::string payload = feedback::encode_publish(body);
  // A short read can stop anywhere; no prefix may decode (or crash).
  for (std::size_t n = 0; n < payload.size(); ++n)
    EXPECT_FALSE(feedback::decode_publish(payload.substr(0, n)).has_value())
        << "prefix of " << n << " bytes decoded";
}

TEST(WireCodec, TrailingBytesAreRejected) {
  const std::string payload = feedback::encode_publish({});
  EXPECT_TRUE(feedback::decode_publish(payload).has_value());
  EXPECT_FALSE(feedback::decode_publish(payload + "x").has_value());
}

TEST(WireCodec, UnknownOriginOpIsRejected) {
  feedback::WireWriter w;
  feedback::encode_corpus_entry(w, entry_for("sync", 1.0));
  std::string bytes = w.take();
  // The op byte sits right after the program string and score + parent hash.
  feedback::WireReader probe(bytes);
  const std::string text = probe.str();
  const std::size_t op_offset = 4 + text.size() + 8 + 8;
  ASSERT_LT(op_offset, bytes.size());
  bytes[op_offset] = char(0x7F);
  feedback::WireReader r(bytes);
  EXPECT_FALSE(feedback::decode_corpus_entry(r).has_value());
}

TEST(WireCodec, HostileListLengthDoesNotAllocate) {
  // A 4 GiB entry count must be rejected by the bounds check, not reserved.
  feedback::WireWriter w;
  w.u32(0xFFFFFFFFu);
  EXPECT_FALSE(feedback::decode_publish(w.data()).has_value());
}

TEST(WireCodec, ReaderShortReadFlipsOkAndStaysDown) {
  feedback::WireReader r(std::string_view("\x01\x02", 2));
  EXPECT_EQ(r.u8(), 1u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // only one byte left
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // stays down
  EXPECT_FALSE(r.at_end());
}

// --- kDone report codec ----------------------------------------------------------

// One finalized campaign with findings: every Provenance field the codec
// carries is populated (observation, trace window, minimize history,
// lineage). Built once; each test copies it.
const core::CampaignReport& finalized_report() {
  static const core::CampaignReport report = [] {
    core::CampaignConfig config;
    config.round_duration = kSecond;
    config.fuzzer.cycle_out_rounds = 3;
    config.batches = 1;
    core::Campaign campaign(config);
    campaign.load_seeds({*core::named_seed("sync"),
                         *core::named_seed("kcmp-pair"),
                         *core::named_seed("appendix-a1-prog2")});
    campaign.run_one_batch();
    return campaign.finalize();
  }();
  return report;
}

core::DoneBody done_body(core::CampaignReport report) {
  core::DoneBody body;
  body.report = std::move(report);
  body.syscalls = {{.nr = 0, .executions = 5, .signal_new = 1},
                   {.nr = 162, .executions = 9, .implications = 2}};
  body.ops = {{.op = feedback::OriginOp::kSplice, .attempts = 3, .accepted = 1,
               .executions = 40, .novel_signal = 2, .violations = 1,
               .corpus_inserts = 1}};
  body.timeseries = {{.round = 0, .sim_ns = 5, .executions = 10},
                     {.round = 1, .sim_ns = 9, .executions = 20,
                      .corpus_size = 3, .distinct_signals = 7,
                      .violations = 1}};
  return body;
}

// A small body for the byte-by-byte tests: one finding with its full
// provenance record (lists cut to two elements) and one crash.
core::DoneBody small_done_body() {
  core::CampaignReport report;
  const core::CampaignReport& full = finalized_report();
  report.findings.push_back(full.findings.at(0));
  core::Provenance p = full.provenance.at(0);
  auto cut = [](auto& list) {
    if (list.size() > 2) list.resize(2);
  };
  cut(p.trace_events);
  cut(p.minimize_history);
  cut(p.observation.cores);
  cut(p.observation.processes);
  cut(p.observation.containers);
  report.provenance.push_back(std::move(p));
  core::CrashFinding crash;
  crash.program = *core::named_seed("sync");
  crash.serialized = crash.program.serialize();
  crash.message = "sentry panic";
  crash.reproduced = true;
  report.crashes.push_back(std::move(crash));
  report.denylist = {"pause"};
  report.batches = 1;
  return done_body(std::move(report));
}

TEST(ReportCodec, FinalizedReportRoundTripsAndReencodesIdentically) {
  const core::CampaignReport& report = finalized_report();
  ASSERT_FALSE(report.findings.empty());
  ASSERT_EQ(report.provenance.size(), report.findings.size());
  bool traced = false, minimized = false, lineage = false;
  for (const core::Provenance& p : report.provenance) {
    traced = traced || !p.trace_events.empty();
    minimized = minimized || !p.minimize_history.empty();
    lineage = lineage || !p.lineage.empty();
  }
  ASSERT_TRUE(traced && minimized && lineage);

  const core::DoneBody body = done_body(report);
  const std::string bytes = core::encode_done(body);
  auto decoded = core::decode_done(bytes);
  ASSERT_TRUE(decoded.has_value());

  const core::CampaignReport& got = decoded->report;
  ASSERT_EQ(got.findings.size(), report.findings.size());
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    EXPECT_EQ(got.findings[i].serialized, report.findings[i].serialized);
    EXPECT_EQ(got.findings[i].program.hash(),
              report.findings[i].program.hash());
    EXPECT_EQ(got.findings[i].cause, report.findings[i].cause);
    EXPECT_EQ(got.findings[i].source_round, report.findings[i].source_round);
  }
  for (std::size_t i = 0; i < report.provenance.size(); ++i) {
    const core::Provenance& a = report.provenance[i];
    const core::Provenance& b = got.provenance[i];
    EXPECT_EQ(b.oracle_score, a.oracle_score);  // bit-exact double
    EXPECT_EQ(b.trace_events.size(), a.trace_events.size());
    EXPECT_EQ(b.minimize_history.size(), a.minimize_history.size());
    EXPECT_EQ(b.lineage.size(), a.lineage.size());
    EXPECT_EQ(b.observation.cores.size(), a.observation.cores.size());
    // The bundle renderer sees the same record.
    EXPECT_EQ(core::provenance_to_json(b, 0).to_string(),
              core::provenance_to_json(a, 0).to_string());
  }
  EXPECT_EQ(got.executions, report.executions);
  EXPECT_EQ(got.denylist, report.denylist);
  EXPECT_EQ(got.confirmations_run, report.confirmations_run);
  ASSERT_EQ(decoded->syscalls.size(), 2u);
  EXPECT_EQ(decoded->syscalls[1].nr, 162);
  EXPECT_EQ(decoded->syscalls[1].implications, 2u);
  ASSERT_EQ(decoded->ops.size(), 1u);
  EXPECT_EQ(decoded->ops[0].op, feedback::OriginOp::kSplice);
  EXPECT_EQ(decoded->ops[0].executions, 40u);
  ASSERT_EQ(decoded->timeseries.size(), 2u);
  EXPECT_EQ(decoded->timeseries[1].distinct_signals, 7u);

  // Determinism contract: decode -> re-encode is byte-identical.
  EXPECT_EQ(core::encode_done(*decoded), bytes);
}

TEST(ReportCodec, TruncatedDoneBodyIsRejectedAtEveryPrefix) {
  const std::string payload = core::encode_done(small_done_body());
  ASSERT_TRUE(core::decode_done(payload).has_value());
  for (std::size_t n = 0; n < payload.size(); ++n)
    EXPECT_FALSE(core::decode_done(payload.substr(0, n)).has_value())
        << "prefix of " << n << " bytes decoded";
}

TEST(ReportCodec, TrailingBytesAreRejected) {
  const std::string payload = core::encode_done(small_done_body());
  EXPECT_TRUE(core::decode_done(payload).has_value());
  EXPECT_FALSE(core::decode_done(payload + "x").has_value());
  EXPECT_TRUE(core::decode_done(core::encode_done({})).has_value());
}

TEST(ReportCodec, HostileListLengthDoesNotAllocate) {
  // A 4 GiB finding count, and an empty report followed by a 4 GiB
  // syscall-row count: both fail the bytes-left check before any reserve.
  feedback::WireWriter findings;
  findings.u32(0xFFFFFFFFu);
  EXPECT_FALSE(core::decode_done(findings.data()).has_value());

  // An empty body ends in three u32 list lengths: syscalls, ops, samples.
  std::string rows = core::encode_done({});
  rows.replace(rows.size() - 12, 4, "\xff\xff\xff\xff");
  EXPECT_FALSE(core::decode_done(rows).has_value());
}

TEST(ReportCodec, OutOfRangeEnumAndBoolBytesAreRejected) {
  core::DoneBody body;
  body.ops = {{.op = feedback::OriginOp::kSeed}};
  std::string payload = core::encode_done(body);
  // Empty report, empty syscall rows, then the op count and the op byte.
  const std::size_t op_offset = core::encode_done({}).size() - 12 + 4 + 4;
  ASSERT_LT(op_offset, payload.size());
  payload[op_offset] = char(feedback::kNumOriginOps);
  EXPECT_FALSE(core::decode_done(payload).has_value());

  body = {};
  body.syscalls = {{.nr = feedback::SyscallProfile::kMaxSysno}};
  EXPECT_FALSE(core::decode_done(core::encode_done(body)).has_value());

  // A crash's `reproduced` flag sits after the empty finding list, the
  // crash count and the crash's two strings; only 0 and 1 are bools.
  body = {};
  core::CrashFinding crash;
  crash.program = *core::named_seed("sync");
  crash.serialized = crash.program.serialize();
  crash.message = "m";
  body.report.crashes.push_back(crash);
  payload = core::encode_done(body);
  const std::size_t bool_offset =
      4 + 4 + 4 + crash.serialized.size() + 4 + crash.message.size();
  ASSERT_LT(bool_offset, payload.size());
  ASSERT_EQ(payload[bool_offset], 0);
  EXPECT_TRUE(core::decode_done(payload).has_value());
  payload[bool_offset] = 2;
  EXPECT_FALSE(core::decode_done(payload).has_value());
}

// --- frame transport -------------------------------------------------------------

TEST(FrameTransport, SendRecvOverSocketpairAndEofAfterClose) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(send_frame(fds[0], FrameType::kHello, "payload"));
  ASSERT_TRUE(send_frame(fds[0], FrameType::kDone, ""));

  Frame frame;
  ASSERT_TRUE(recv_frame(fds[1], &frame));
  EXPECT_EQ(frame.type, FrameType::kHello);
  EXPECT_EQ(frame.payload, "payload");
  ASSERT_TRUE(recv_frame(fds[1], &frame));
  EXPECT_EQ(frame.type, FrameType::kDone);
  EXPECT_TRUE(frame.payload.empty());

  close(fds[0]);
  EXPECT_FALSE(recv_frame(fds[1], &frame));  // EOF
  close(fds[1]);
}

TEST(FrameTransport, FrameBufferReassemblesByteByByte) {
  const std::string stream = encode_frame(FrameType::kHello, "hi") +
                             encode_frame(FrameType::kPublish,
                                          std::string(300, 'x'));
  FrameBuffer buf;
  std::vector<Frame> frames;
  Frame frame;
  for (char c : stream) {
    buf.append(&c, 1);
    while (buf.next(&frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[0].payload, "hi");
  EXPECT_EQ(frames[1].type, FrameType::kPublish);
  EXPECT_EQ(frames[1].payload, std::string(300, 'x'));
  EXPECT_FALSE(buf.error());
  EXPECT_EQ(buf.buffered(), 0u);
}

TEST(FrameTransport, OversizedLengthPrefixPoisonsTheBuffer) {
  const std::uint32_t length = kMaxFramePayload + 1;
  char header[5];
  for (int i = 0; i < 4; ++i)
    header[i] = static_cast<char>((length >> (8 * i)) & 0xff);
  header[4] = 1;
  FrameBuffer buf;
  buf.append(header, sizeof(header));
  Frame frame;
  EXPECT_FALSE(buf.next(&frame));
  EXPECT_TRUE(buf.error());
  // A poisoned buffer never yields again, even when valid bytes follow.
  const std::string good = encode_frame(FrameType::kHello, "x");
  buf.append(good.data(), good.size());
  EXPECT_FALSE(buf.next(&frame));
  EXPECT_TRUE(buf.error());
}

// --- ledger rejoin ---------------------------------------------------------------

TEST(CorpusLedgerTest, RejoinRewindsTheCursorToReplayCommittedStream) {
  feedback::CorpusLedger ledger(2);
  ledger.publish(0, {entry_for("sync", 1.0)}, {"sync"});
  ledger.publish(1, {entry_for("kcmp-pair", 2.0)}, {});
  ASSERT_TRUE(ledger.epoch_ready());
  ledger.commit_epoch();
  EXPECT_EQ(ledger.pull(0).entries.size(), 1u);
  EXPECT_EQ(ledger.pull(1).entries.size(), 1u);

  // Worker 1 dies: the barrier shrinks, worker 0 carries the next epoch.
  ledger.leave(1);
  EXPECT_TRUE(ledger.left(1));
  ledger.publish(0, {entry_for("readlink-eloop", 3.0)}, {});
  ASSERT_TRUE(ledger.epoch_ready());
  ledger.commit_epoch();

  // Restart: rejoin rewinds the cursor, so the first pull replays every
  // committed entry that did not originate from this worker — the ledger
  // itself is the checkpoint.
  ledger.rejoin(1);
  EXPECT_FALSE(ledger.left(1));
  EXPECT_EQ(ledger.active(), 2);
  const feedback::CorpusDelta replay = ledger.pull(1);
  ASSERT_EQ(replay.entries.size(), 2u);
  EXPECT_EQ(replay.entries[0].program.hash(),
            core::named_seed("sync")->hash());
  EXPECT_EQ(replay.entries[1].program.hash(),
            core::named_seed("readlink-eloop")->hash());
  EXPECT_EQ(replay.denylist, std::vector<std::string>{"sync"});

  // And the barrier needs both again.
  ledger.publish(1, {}, {});
  EXPECT_FALSE(ledger.epoch_ready());
  ledger.publish(0, {}, {});
  EXPECT_TRUE(ledger.epoch_ready());
}

// --- manifest --------------------------------------------------------------------

Manifest example_manifest() {
  Manifest m;
  m.workers = 3;
  m.max_restarts = 5;
  m.defaults.runtime = "runc";
  m.defaults.batches = 4;
  m.defaults.num_executors = 2;
  m.defaults.round_duration = 50 * kMillisecond;
  m.defaults.num_seeds = 6;
  m.defaults.seed = 0xBEEF;
  WorkerSpec s;
  s.worker = 1;
  s.runtime = "gvisor";
  s.seed = 99;
  s.batches = 2;
  s.cpus = 1.5;
  s.cpuset = "0-1";
  m.matrix.push_back(s);
  return m;
}

TEST(FleetManifest, JsonRoundTripPreservesMatrixOverrides) {
  const Manifest m = example_manifest();
  auto parsed = manifest_from_json(manifest_to_json(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->workers, 3);
  EXPECT_EQ(parsed->max_restarts, 5);
  EXPECT_EQ(parsed->defaults.batches, 4);
  EXPECT_EQ(parsed->defaults.seed, 0xBEEFu);
  ASSERT_EQ(parsed->matrix.size(), 1u);
  EXPECT_EQ(parsed->matrix[0].worker, 1);
  EXPECT_EQ(*parsed->matrix[0].runtime, "gvisor");
  EXPECT_EQ(*parsed->matrix[0].seed, 99u);
  EXPECT_EQ(*parsed->matrix[0].batches, 2);
  EXPECT_EQ(parsed->matrix[0].cpuset, "0-1");
  // Serialization is canonical: one more round trip is textually stable.
  EXPECT_EQ(manifest_to_json(*parsed), manifest_to_json(m));
}

TEST(FleetManifest, WorkerConfigAppliesDefaultsAndOverrides) {
  const Manifest m = example_manifest();
  // Worker 0: pure defaults with the mixed per-worker seed stream.
  const core::CampaignConfig c0 = m.worker_config(0);
  EXPECT_EQ(c0.batches, 4);
  EXPECT_EQ(c0.seed, mix_seed(0xBEEF, 0));
  EXPECT_EQ(m.worker_cpuset(0), "");
  // Worker 1: explicit seed, batch count, runtime, and cpuset.
  const core::CampaignConfig c1 = m.worker_config(1);
  EXPECT_EQ(c1.seed, 99u);
  EXPECT_EQ(c1.batches, 2);
  EXPECT_EQ(c1.runtime, runtime::RuntimeKind::kGvisor);
  EXPECT_EQ(c1.cpus_per_container, 1.5);
  EXPECT_EQ(m.worker_cpuset(1), "0-1");
  EXPECT_EQ(m.worker_runtime(1), "gvisor");
  EXPECT_EQ(m.worker_runtime(2), "runc");
}

TEST(FleetManifest, SaveLoadRoundTripsThroughAFile) {
  const fs::path dir = fresh_dir("fleet-manifest");
  const Manifest m = example_manifest();
  save_manifest(dir / "fleet.json", m);
  auto loaded = load_manifest(dir / "fleet.json");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(manifest_to_json(*loaded), manifest_to_json(m));
  EXPECT_FALSE(load_manifest(dir / "absent.json").has_value());
}

TEST(FleetManifest, RejectsMalformedDocuments) {
  EXPECT_FALSE(manifest_from_json("not json").has_value());
  EXPECT_FALSE(manifest_from_json("{}").has_value());  // workers required
  EXPECT_FALSE(manifest_from_json(R"({"workers":0})").has_value());
  // Matrix rows must name a worker inside [0, workers).
  EXPECT_FALSE(
      manifest_from_json(R"({"workers":2,"matrix":[{"worker":2}]})")
          .has_value());
  EXPECT_FALSE(
      manifest_from_json(R"({"workers":2,"matrix":[{"seed":1}]})").has_value());
  // Unknown runtimes fail at parse time, not at spawn time.
  EXPECT_FALSE(manifest_from_json(
                   R"({"workers":2,"matrix":[{"worker":0,"runtime":"qemu"}]})")
                   .has_value());
}

TEST(FleetManifest, HandWrittenPartialDefaultsParse) {
  // The fleet manifest is the hand-written surface: "defaults" lists only
  // the keys the user overrides, everything else keeps the campaign
  // defaults (README's example document).
  const auto manifest = manifest_from_json(R"({
    "workers": 2,
    "max_restarts": 2,
    "defaults": {"runtime": "runsc", "batches": 3, "seed": 42},
    "matrix": [{"worker": 1, "runtime": "kata", "seed": 7}]
  })");
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->defaults.runtime, "runsc");
  EXPECT_EQ(manifest->defaults.batches, 3);
  EXPECT_EQ(manifest->defaults.seed, 42u);
  const core::CampaignManifest stock;
  EXPECT_EQ(manifest->defaults.num_executors, stock.num_executors);
  EXPECT_EQ(manifest->defaults.round_duration, stock.round_duration);
  EXPECT_EQ(manifest->defaults.num_seeds, stock.num_seeds);
  const core::CampaignConfig w1 = manifest->worker_config(1);
  EXPECT_EQ(w1.runtime, runtime::RuntimeKind::kKata);
  EXPECT_EQ(w1.seed, 7u);
  // Present-but-mistyped keys are still errors, even when optional.
  EXPECT_FALSE(manifest_from_json(
                   R"({"workers":2,"defaults":{"batches":"eight"}})")
                   .has_value());
}

// --- metrics aggregation ---------------------------------------------------------

TEST(AggregateExpositions, RelabelsSamplesAndMergesFamilies) {
  const std::string w0 =
      "# HELP torpedo_executions_total Executions.\n"
      "# TYPE torpedo_executions_total counter\n"
      "torpedo_executions_total 100\n"
      "torpedo_rounds{batch=\"1\"} 3\n";
  const std::string w1 =
      "# HELP torpedo_executions_total Executions.\n"
      "# TYPE torpedo_executions_total counter\n"
      "torpedo_executions_total 250\n";
  const std::string merged = telemetry::aggregate_expositions(
      {{0, w0}, {1, w1}});

  // Family comments once, every sample relabeled with its worker.
  EXPECT_EQ(merged.find("# HELP torpedo_executions_total"),
            merged.rfind("# HELP torpedo_executions_total"));
  EXPECT_NE(merged.find("torpedo_executions_total{worker=\"0\"} 100"),
            std::string::npos);
  EXPECT_NE(merged.find("torpedo_executions_total{worker=\"1\"} 250"),
            std::string::npos);
  // Existing labels survive after the injected worker label.
  EXPECT_NE(merged.find("torpedo_rounds{worker=\"0\",batch=\"1\"} 3"),
            std::string::npos);
}

TEST(AggregateExpositions, HttpBodySplitsAtTheHeaderBoundary) {
  EXPECT_EQ(telemetry::http_body("HTTP/1.1 200 OK\r\nA: b\r\n\r\nbody"),
            "body");
  EXPECT_EQ(telemetry::http_body("no blank line"), "");
}

// --- cpuset ----------------------------------------------------------------------

TEST(ApplyCpuset, ParsesListsAndRejectsGarbage) {
  EXPECT_FALSE(apply_cpuset(""));
  EXPECT_FALSE(apply_cpuset("abc"));
  EXPECT_FALSE(apply_cpuset("1-0"));   // inverted range
  EXPECT_FALSE(apply_cpuset("0,,1"));  // empty element
  // CPU 0 always exists; the affinity call itself is best-effort.
  EXPECT_TRUE(apply_cpuset("0"));
  EXPECT_TRUE(apply_cpuset("0-0"));
  EXPECT_TRUE(apply_cpuset("0,0"));
}

// --- end-to-end fork-mode fleets -------------------------------------------------

Manifest small_fleet_manifest(int workers) {
  Manifest m;
  m.workers = workers;
  m.defaults.batches = 2;
  m.defaults.num_executors = 2;
  m.defaults.round_duration = 50 * kMillisecond;
  m.defaults.num_seeds = 6;
  m.defaults.seed = 0xF1EE7;
  return m;
}

TEST(FleetCampaign, TwoWorkerForkModeCompletesAndMerges) {
  const fs::path workdir = fresh_dir("fleet-e2e");
  FleetConfig config;
  config.manifest = small_fleet_manifest(2);
  config.workdir = workdir;  // empty worker_binary => fork mode

  Coordinator coordinator(std::move(config));
  const Coordinator::Result result = coordinator.run();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.completed, 2);
  EXPECT_EQ(result.failed, 0);
  EXPECT_EQ(result.restarts, 0);
  EXPECT_GT(result.executions, 0u);
  EXPECT_GT(result.merge_wall_ns, 0);

  for (const WorkerStatus& w : coordinator.workers()) {
    EXPECT_EQ(w.state, WorkerState::kCompleted);
    EXPECT_TRUE(w.done_frame);
    EXPECT_EQ(w.batches, 2);
    EXPECT_GT(w.executions, 0u);
  }
  // Workers published at every batch boundary: one epoch per batch.
  EXPECT_EQ(coordinator.ledger().stats().epochs, 2u);
  EXPECT_GT(coordinator.ledger().stats().published, 0u);

  // The merged workdir carries the full single-campaign artifact set plus
  // the fleet extras, and campaign.json marks it as a fleet product.
  for (const char* name :
       {"report.txt", "corpus.txt", "campaign.json", "clusters.json",
        "syscall_profile.json", "mutation_efficacy.json", "timeseries.jsonl",
        "fleet.json", "fleet_status.json"})
    EXPECT_TRUE(fs::exists(workdir / name)) << name;
  EXPECT_NE(slurp(workdir / "campaign.json").find("\"fleet_workers\":2"),
            std::string::npos);

  const std::string status = coordinator.fleet_status_json();
  EXPECT_NE(status.find("\"workers\":2"), std::string::npos);
  EXPECT_NE(status.find("\"state\":\"completed\""), std::string::npos);
  // Merged timeseries lines carry their producing worker as their shard.
  EXPECT_NE(slurp(workdir / "timeseries.jsonl").find("\"shard\":1"),
            std::string::npos);
}

TEST(FleetCampaign, CrashedWorkerRestartsAndStillCompletes) {
  const fs::path workdir = fresh_dir("fleet-crash");
  FleetConfig config;
  config.manifest = small_fleet_manifest(2);
  config.manifest.max_restarts = 2;
  config.workdir = workdir;
  // Worker 1's first incarnation _exit(77)s right after publishing batch 0,
  // mid-epoch — the coordinator must detect the death, shrink the barrier so
  // worker 0 is not deadlocked, respawn, and replay the committed stream.
  config.test_crash_worker = 1;
  config.test_crash_batch = 0;

  Coordinator coordinator(std::move(config));
  const Coordinator::Result result = coordinator.run();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.completed, 2);
  EXPECT_GE(result.restarts, 1);
  EXPECT_GT(result.max_recovery_wall_ns, 0);

  const std::vector<WorkerStatus> workers = coordinator.workers();
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[1].restarts, 1);
  EXPECT_EQ(workers[1].state, WorkerState::kCompleted);
  EXPECT_GT(workers[1].recovery_wall_ns, 0);
  EXPECT_EQ(workers[0].restarts, 0);

  EXPECT_TRUE(fs::exists(workdir / "report.txt"));
  const std::string status = coordinator.fleet_status_json();
  EXPECT_NE(status.find("\"restarts\":1"), std::string::npos);
}

TEST(FleetCampaign, WorkerExhaustingRestartBudgetFailsTheFleet) {
  const fs::path workdir = fresh_dir("fleet-budget");
  FleetConfig config;
  config.manifest = small_fleet_manifest(1);
  config.manifest.max_restarts = 0;
  config.workdir = workdir;
  config.test_crash_worker = 0;
  config.test_crash_batch = 0;

  Coordinator coordinator(std::move(config));
  const Coordinator::Result result = coordinator.run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.completed, 0);
  EXPECT_EQ(result.failed, 1);
  EXPECT_EQ(result.restarts, 0);
  ASSERT_EQ(coordinator.workers().size(), 1u);
  EXPECT_EQ(coordinator.workers()[0].state, WorkerState::kFailed);
}

}  // namespace
