#include "core/report_wire.h"

#include <array>
#include <cstdint>
#include <type_traits>

#include "feedback/wire.h"

namespace torpedo::core {

namespace {

// One field list per type serves both directions: io(codec, value) visits
// the members in wire order, and the Writer or Reader overloads of the
// scalar cases append them or read them back.
struct Writer {
  feedback::WireWriter w;
};

struct Reader {
  explicit Reader(std::string_view data) : r(data) {}
  feedback::WireReader r;
  bool valid = true;  // false once a value fails a range or parse check
  bool ok() const { return valid && r.ok(); }
};

// Range checks run on decode only.
void check(Writer&, bool) {}
void check(Reader& c, bool ok) { c.valid = c.valid && ok; }

constexpr int enum_limit(feedback::OriginOp) { return feedback::kNumOriginOps; }
constexpr int enum_limit(kernel::TraceKind) {
  return static_cast<int>(kernel::TraceKind::kOomKill) + 1;
}

void io(Writer& c, int& v) { c.w.i32(v); }
void io(Reader& c, int& v) { v = c.r.i32(); }
void io(Writer& c, std::uint64_t& v) { c.w.u64(v); }
void io(Reader& c, std::uint64_t& v) { v = c.r.u64(); }
void io(Writer& c, std::int64_t& v) { c.w.u64(static_cast<std::uint64_t>(v)); }
void io(Reader& c, std::int64_t& v) {
  v = static_cast<std::int64_t>(c.r.u64());
}
void io(Writer& c, double& v) { c.w.f64(v); }  // IEEE-754 bits: bit-exact
void io(Reader& c, double& v) { v = c.r.f64(); }
void io(Writer& c, std::string& v) { c.w.str(v); }
void io(Reader& c, std::string& v) { v = c.r.str(); }
void io(Writer& c, bool& v) { c.w.u8(v ? 1 : 0); }
void io(Reader& c, bool& v) {
  const std::uint8_t b = c.r.u8();
  check(c, b <= 1);
  v = b == 1;
}

template <typename E>
  requires std::is_enum_v<E>
void io(Writer& c, E& v) {
  c.w.u8(static_cast<std::uint8_t>(v));
}
template <typename E>
  requires std::is_enum_v<E>
void io(Reader& c, E& v) {
  const std::uint8_t b = c.r.u8();
  check(c, b < enum_limit(E{}));
  v = static_cast<E>(b);
}

template <typename IO, typename T, std::size_t N>
void io(IO& c, std::array<T, N>& values) {
  for (T& v : values) io(c, v);
}

template <typename T>
void io(Writer& c, std::vector<T>& list) {
  c.w.u32(static_cast<std::uint32_t>(list.size()));
  for (T& item : list) io(c, item);
}
// Every element takes at least one byte, so a length beyond the bytes left
// is rejected before any element is built; nothing is reserved up front,
// so memory grows only with elements that actually decode.
template <typename T>
void io(Reader& c, std::vector<T>& list) {
  const std::uint32_t n = c.r.u32();
  check(c, n <= c.r.remaining());
  for (std::uint32_t i = 0; i < n && c.ok(); ++i) {
    T item;
    io(c, item);
    list.push_back(std::move(item));
  }
}

// A program travels as its serialized text and is parsed back on decode,
// so a Finding's or CrashFinding's two fields always agree.
void io_program(Writer& c, std::string& serialized, prog::Program&) {
  io(c, serialized);
}
void io_program(Reader& c, std::string& serialized, prog::Program& program) {
  io(c, serialized);
  if (!c.ok()) return;
  auto parsed = prog::Program::parse(serialized);
  check(c, parsed.has_value());
  if (parsed) program = std::move(*parsed);
}

// --- field lists -------------------------------------------------------------

template <typename IO>
void io(IO& c, oracle::Violation& v) {
  io(c, v.heuristic), io(c, v.subject), io(c, v.value), io(c, v.threshold);
}

template <typename IO>
void io(IO& c, Finding& f) {
  io_program(c, f.serialized, f.program);
  io(c, f.syscalls), io(c, f.violations), io(c, f.symptoms), io(c, f.cause);
  io(c, f.is_new), io(c, f.source_round), io(c, f.shard);
}

template <typename IO>
void io(IO& c, CrashFinding& f) {
  io_program(c, f.serialized, f.program);
  io(c, f.message), io(c, f.reproduced), io(c, f.source_round);
  io(c, f.shard);
}

template <typename IO>
void io(IO& c, observer::CoreUsage& u) {
  io(c, u.core), io(c, u.jiffies);
}

template <typename IO>
void io(IO& c, observer::ProcSample& p) {
  io(c, p.pid), io(c, p.name), io(c, p.cgroup), io(c, p.cpu_percent);
}

template <typename IO>
void io(IO& c, observer::ContainerUsage& u) {
  io(c, u.cgroup_path), io(c, u.cpu_ns), io(c, u.memory_bytes);
  io(c, u.memory_failcnt), io(c, u.blkio_bytes);
}

template <typename IO>
void io(IO& c, observer::Observation& o) {
  io(c, o.round), io(c, o.window_start), io(c, o.window_end);
  io(c, o.aggregate), io(c, o.cores), io(c, o.processes);
  io(c, o.containers), io(c, o.fuzz_cores), io(c, o.configured_cpu_cap);
  io(c, o.side_band_core), io(c, o.device_bytes);
}

template <typename IO>
void io(IO& c, kernel::TraceEvent& e) {
  io(c, e.time), io(c, e.kind), io(c, e.pid), io(c, e.detail);
}

template <typename IO>
void io(IO& c, MinimizeStep& s) {
  io(c, s.call_index), io(c, s.call_name), io(c, s.kept_removal);
  io(c, s.size_after);
}

template <typename IO>
void io(IO& c, LineageLink& l) {
  io(c, l.hash), io(c, l.parent_hash), io(c, l.op), io(c, l.round);
  io(c, l.shard);
}

template <typename IO>
void io(IO& c, Provenance& p) {
  io(c, p.finding_index), io(c, p.shard), io(c, p.original_serialized);
  io(c, p.minimized_serialized), io(c, p.program_hash);
  io(c, p.source_round), io(c, p.confirm_rounds), io(c, p.oracle_score);
  io(c, p.cause), io(c, p.symptoms), io(c, p.syscalls);
  io(c, p.initial_violations), io(c, p.final_violations);
  io(c, p.observation), io(c, p.trace_events), io(c, p.minimize_history);
  io(c, p.lineage);
}

template <typename IO>
void io(IO& c, CampaignReport& r) {
  io(c, r.findings), io(c, r.crashes), io(c, r.provenance);
  io(c, r.batches), io(c, r.rounds), io(c, r.executions);
  io(c, r.corpus_size), io(c, r.denylist), io(c, r.suspects);
  io(c, r.crash_suspects), io(c, r.confirmations_run);
}

template <typename IO>
void io(IO& c, feedback::SyscallProfile::Row& row) {
  io(c, row.nr), io(c, row.executions), io(c, row.signal_new);
  io(c, row.implications);
  check(c, row.nr >= 0 && row.nr < feedback::SyscallProfile::kMaxSysno);
}

template <typename IO>
void io(IO& c, feedback::MutationEfficacy::Row& row) {
  io(c, row.op), io(c, row.attempts), io(c, row.accepted);
  io(c, row.executions), io(c, row.novel_signal), io(c, row.violations);
  io(c, row.corpus_inserts);
}

template <typename IO>
void io(IO& c, telemetry::RoundSample& s) {
  io(c, s.round), io(c, s.sim_ns), io(c, s.executions);
  io(c, s.corpus_size), io(c, s.distinct_signals), io(c, s.violations);
}

template <typename IO>
void io(IO& c, DoneBody& body) {
  io(c, body.report), io(c, body.syscalls), io(c, body.ops);
  io(c, body.timeseries);
}

// The writer only reads the value it visits.
template <typename T>
std::string encode(const T& value) {
  Writer c;
  io(c, const_cast<T&>(value));
  return c.w.take();
}

template <typename T>
std::optional<T> decode(std::string_view payload) {
  Reader c(payload);
  T value;
  io(c, value);
  if (!c.ok() || !c.r.at_end()) return std::nullopt;
  return value;
}

}  // namespace

std::string encode_done(const DoneBody& body) { return encode(body); }

std::optional<DoneBody> decode_done(std::string_view payload) {
  return decode<DoneBody>(payload);
}

}  // namespace torpedo::core
