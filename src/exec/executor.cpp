#include "exec/executor.h"

#include <array>

#include "exec/snapshot.h"
#include "feedback/syscall_profile.h"
#include "telemetry/span.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace torpedo::exec {

struct Executor::State {
  enum class Phase { kIdle, kPrimed, kRunning, kCrashed };

  Phase phase = Phase::kIdle;
  prog::Program program;
  Nanos stop_time = 0;
  RunStats stats;
  ExecConfig config;
  runtime::Engine* engine = nullptr;
  runtime::Container* container = nullptr;
  bool setup_paid = false;
  std::uint64_t iter_in_round = 0;
  const std::atomic<bool>* abort_flag = nullptr;
  // Snapshot-exec state: the lowered image of the primed program and the
  // reusable result buffer it is patched from.
  ProgramImage image;
  std::vector<std::int64_t> results_buf;
  runtime::ExecOutcome outcome_buf;  // reused across calls; see execute()

  // Rebuilds stats.signal from the per-call sets. Every element ever added
  // lands in call_signal[i], and prime() resets stats before the program
  // (and thus call_signal's length) can change, so the union is exact.
  // Deriving it here keeps an unordered_set insert off the per-call path.
  void refresh_signal_union() {
    stats.signal = feedback::SignalSet{};
    for (const feedback::SmallSignalSet& cs : stats.call_signal)
      for (std::uint64_t e : cs.elements()) stats.signal.add(e);
  }
  Rng rng{0xE8EC};
  telemetry::Counter* ctr_executions = nullptr;
  telemetry::Counter* ctr_crashes = nullptr;
  telemetry::Counter* ctr_fatal_respawns = nullptr;

  // Executor-local tallies for the shared registry counters and the
  // process-wide syscall profile. Shard threads would otherwise write the
  // same cache lines once per iteration and once per call; instead they
  // flush once per round (take_stats) and on the crash path, so a live
  // scrape is at most one round stale, like Host's scheduler tallies.
  std::uint64_t n_executions = 0;
  std::uint64_t n_crashes = 0;
  std::uint64_t n_fatal_respawns = 0;
  // Per-sysno call executions, counted only while a profile is installed.
  std::array<std::uint64_t, feedback::SyscallProfile::kMaxSysno>
      sys_executions{};

  void flush_tallies() {
    if (n_executions) ctr_executions->inc(n_executions);
    if (n_crashes) ctr_crashes->inc(n_crashes);
    if (n_fatal_respawns) ctr_fatal_respawns->inc(n_fatal_respawns);
    n_executions = n_crashes = n_fatal_respawns = 0;
    feedback::SyscallProfile* profile = feedback::syscall_profile();
    for (std::size_t nr = 0; nr < sys_executions.size(); ++nr) {
      if (sys_executions[nr] == 0) continue;
      if (profile)
        profile->record_execution(static_cast<int>(nr), sys_executions[nr]);
      sys_executions[nr] = 0;
    }
  }

  kernel::SysReq lower(const prog::Call& call,
                       const std::vector<std::int64_t>& results) const {
    kernel::SysReq req;
    req.nr = call.desc->nr;
    for (const prog::ArgValue& value : call.args) {
      switch (value.kind) {
        case prog::ArgValue::Kind::kLiteral:
          req.args.push_back(kernel::SysArg::num(value.literal));
          break;
        case prog::ArgValue::Kind::kString:
          req.args.push_back(kernel::SysArg::text(value.str));
          break;
        case prog::ArgValue::Kind::kResult: {
          const std::int64_t r =
              value.result_of >= 0 &&
                      static_cast<std::size_t>(value.result_of) <
                          results.size()
                  ? results[static_cast<std::size_t>(value.result_of)]
                  : -1;
          req.args.push_back(
              kernel::SysArg::num(static_cast<std::uint64_t>(r)));
          break;
        }
      }
    }
    return req;
  }

  // stream_every == 0 (and bytes_per_result == 0) mean "never stream"; the
  // modulo below would otherwise divide by zero.
  bool streaming_enabled() const {
    return config.stream_every > 0 && config.bytes_per_result > 0;
  }

  void finalize_round(sim::Host& host) {
    (void)host;
    if (streaming_enabled()) {
      const std::uint64_t pending = iter_in_round % config.stream_every;
      if (pending > 0 && container)
        engine->stream_output(*container, pending * config.bytes_per_result);
    }
    phase = Phase::kIdle;
  }

  // Expands one program iteration into segments. Returns false when the
  // container runtime crashed (phase moves to kCrashed).
  bool run_one_iteration(sim::Host& host, sim::Task& task) {
    kernel::Process* proc = container->process();
    TORPEDO_CHECK_MSG(proc != nullptr, "running executor without a process");
    kernel::SimKernel& kernel = engine->kernel();
    kernel.reset_process(*proc);
    proc->block_deadline = stop_time;

    stats.executions++;
    n_executions++;
    iter_in_round++;
    const bool collide =
        config.collide_every > 0 &&
        iter_in_round % static_cast<std::uint64_t>(config.collide_every) == 0;
    const runtime::ExecContext ctx{.collider = collide};

    const Nanos now = host.now();
    Nanos iter_time = config.iteration_user;
    task.push(sim::Segment::user(config.iteration_user));

    const bool snapshot = config.snapshot_exec && image.built();
    results_buf.assign(program.size(), -1);
    std::vector<std::int64_t>& results = results_buf;
    kernel::SysReq cold_req;
    stats.call_signal.resize(program.size());
    stats.last_iteration.clear();
    const bool profiling = feedback::syscall_profile() != nullptr;

    for (std::size_t i = 0; i < program.size(); ++i) {
      // Snapshot restore: patch the dirty result slots of the pre-lowered
      // request. Cold boot: rebuild the request from the program IR.
      const kernel::SysReq& req =
          snapshot ? image.materialize(i, results)
                   : (cold_req = lower(program.calls()[i], results), cold_req);
      runtime::ExecOutcome& outcome = outcome_buf;
      container->runtime().execute(*proc, req, ctx, outcome);
      const kernel::SysResult& r = outcome.res;

      if (outcome.runtime_crashed) {
        n_crashes++;
        stats.crashed = true;
        stats.crash_message = outcome.crash_message;
        phase = Phase::kCrashed;
        if (r.user_ns > 0) task.push(sim::Segment::user(r.user_ns));
        // The entrypoint's crash handler flushes results buffered from the
        // iterations that *completed* before the runtime died — without
        // this, finalize_round never runs for a crashed round and the
        // pending stream bytes (and their LDISC side-band) vanish.
        if (streaming_enabled()) {
          const std::uint64_t pending =
              (iter_in_round - 1) % config.stream_every;
          if (pending > 0)
            engine->stream_output(*container,
                                  pending * config.bytes_per_result);
        }
        flush_tallies();
        return false;
      }

      results[i] = r.ret;
      if (profiling && req.nr >= 0 &&
          req.nr < feedback::SyscallProfile::kMaxSysno)
        sys_executions[static_cast<std::size_t>(req.nr)]++;
      const std::uint64_t sig = feedback::fallback_signal(req.nr, r.err);
      stats.call_signal[i].add(sig);
      stats.last_iteration.push_back({req.nr, r.ret, r.err});

      iter_time += r.user_ns + r.sys_ns;
      if (r.user_ns > 0) task.push(sim::Segment::user(r.user_ns));
      if (r.sys_ns > 0) task.push(sim::Segment::system(r.sys_ns));
      if (r.block_until > now) {
        task.push(sim::Segment::block_until(r.block_until, r.block_io));
        // Charge the block from the call's virtual position (now +
        // iter_time): time earlier calls already spent is not re-counted,
        // keeping avg_execution_time — and the Algorithm 1 lookahead that
        // retires rounds — honest for deep programs.
        iter_time += blocking_charge(r.block_until, r.block_hint,
                                     now + iter_time);
      }

      if (r.fatal_signal != 0) {
        // The program process died; the entrypoint forks a fresh one.
        n_fatal_respawns++;
        stats.fatal_signals++;
        stats.last_fatal_signal = r.fatal_signal;
        task.push(sim::Segment::user(config.respawn_user));
        task.push(sim::Segment::system(config.respawn_sys));
        iter_time += config.respawn_user + config.respawn_sys;
        break;
      }
    }

    // Minor-fault / scheduler breath.
    if (config.iteration_block_chance > 0 &&
        rng.uniform() < config.iteration_block_chance) {
      task.push(sim::Segment::block_until(now + iter_time +
                                          config.iteration_block));
      iter_time += config.iteration_block;
    }

    stats.total_execution_time += iter_time;
    stats.avg_execution_time =
        stats.total_execution_time / static_cast<Nanos>(stats.executions);

    if (streaming_enabled() && iter_in_round % config.stream_every == 0)
      engine->stream_output(*container,
                            config.stream_every * config.bytes_per_result);
    return true;
  }
};

sim::Supplier Executor::make_supplier() {
  std::shared_ptr<State> state = state_;
  return [state](sim::Host& host, sim::Task& task) {
    State& st = *state;
    switch (st.phase) {
      case State::Phase::kIdle:
      case State::Phase::kPrimed:
      case State::Phase::kCrashed:
        // Latched: wait for the observer's release (or a restart).
        task.push(sim::Segment::block_wake());
        return true;
      case State::Phase::kRunning:
        break;
    }

    const Nanos now = host.now();
    // Watchdog abort: retire the round at this iteration boundary instead of
    // looping to stop_time (a stalled round never reaches it in wall time).
    if (st.abort_flag && st.abort_flag->load(std::memory_order_relaxed)) {
      st.finalize_round(host);
      task.push(sim::Segment::block_wake());
      return true;
    }
    // Algorithm 1: stop when the *predicted* completion of one more
    // iteration would overrun the stop timestamp.
    if (now >= st.stop_time ||
        now + st.stats.avg_execution_time > st.stop_time) {
      st.finalize_round(host);
      task.push(sim::Segment::block_wake());
      return true;
    }
    if (!st.setup_paid) {
      st.setup_paid = true;
      task.push(sim::Segment::user(st.config.ipc_setup));
      task.push(sim::Segment::system(st.config.ipc_setup / 2));
      return true;
    }
    if (!st.run_one_iteration(host, task)) {
      // Runtime crash: stay alive but dormant until the owner restarts the
      // container (killing this task from inside its own supplier is UB).
      task.push(sim::Segment::block_wake());
    }
    return true;
  };
}

Executor::Executor(runtime::Engine& engine, runtime::ContainerSpec spec,
                   ExecConfig config)
    : engine_(engine), config_(config), state_(std::make_shared<State>()) {
  TORPEDO_CHECK_MSG(config_.collide_every >= 0,
                    "collide_every must be >= 0 (0 disables collider mode)");
  state_->config = config_;
  state_->engine = &engine_;
  telemetry::Registry& metrics = telemetry::global();
  state_->ctr_executions = &metrics.counter("exec.executions");
  state_->ctr_crashes = &metrics.counter("exec.container_crashes");
  state_->ctr_fatal_respawns = &metrics.counter("exec.fatal_signal_respawns");
  container_ = &engine_.run(spec, make_supplier());
  state_->container = container_;
  state_->rng.reseed(config_.seed ^ (container_->id() * 0x9E3779B97F4A7C15ULL));
}

void Executor::prime(prog::Program program, Nanos stop_time) {
  TORPEDO_CHECK_MSG(state_->phase == State::Phase::kIdle,
                    "prime() requires an idle executor");
  state_->program = std::move(program);
  state_->stop_time = stop_time;
  state_->stats = RunStats{};
  state_->setup_paid = false;
  state_->iter_in_round = 0;
  // Take the round's boot snapshot: lower the program once; iterations
  // restore from it in O(dirty-state).
  if (state_->config.snapshot_exec)
    state_->image.build(state_->program);
  else
    state_->image.clear();
  state_->phase = State::Phase::kPrimed;
}

void Executor::start() {
  TORPEDO_CHECK_MSG(state_->phase == State::Phase::kPrimed,
                    "start() requires a primed executor");
  state_->phase = State::Phase::kRunning;
  round_begin_ns_ = engine_.kernel().host().now();
  if (sim::Task* t = engine_.kernel().host().find_task(container_->task()))
    engine_.kernel().host().wake(*t);
}

bool Executor::idle() const { return state_->phase == State::Phase::kIdle; }
bool Executor::crashed() const {
  return state_->phase == State::Phase::kCrashed;
}
bool Executor::running() const {
  return state_->phase == State::Phase::kRunning ||
         state_->phase == State::Phase::kPrimed;
}

const RunStats& Executor::stats() const {
  state_->refresh_signal_union();
  return state_->stats;
}

RunStats Executor::take_stats() {
  state_->flush_tallies();
  state_->refresh_signal_union();
  RunStats out = std::move(state_->stats);
  state_->stats = RunStats{};
  // Retroactive per-executor span over the execution window (begin was
  // start(), end is collection time — the observer calls this right after
  // quiesce, inside its round span).
  if (telemetry::SpanTracer* tracer = telemetry::spans();
      tracer && round_begin_ns_ >= 0) {
    telemetry::JsonDict args;
    args.set("container", container_->spec().name)
        .set("executions", out.executions)
        .set("fatal_signals", out.fatal_signals)
        .set("avg_execution_ns", out.avg_execution_time)
        .set("crashed", out.crashed);
    tracer->emit("exec", round_begin_ns_, engine_.kernel().host().now(),
                 args);
    round_begin_ns_ = -1;
  }
  return out;
}

void Executor::set_abort_flag(const std::atomic<bool>* flag) {
  state_->abort_flag = flag;
}

void Executor::interrupt() {
  if (state_->phase != State::Phase::kRunning) return;
  state_->stop_time = std::min(state_->stop_time,
                               engine_.kernel().host().now());
  if (sim::Task* t = engine_.kernel().host().find_task(container_->task()))
    engine_.kernel().host().wake(*t);
}

void Executor::restart() {
  TORPEDO_CHECK_MSG(state_->phase == State::Phase::kCrashed,
                    "restart() is only valid after a crash");
  telemetry::global().counter("exec.container_restarts").inc();
  engine_.mark_crashed(*container_, state_->stats.crash_message);
  state_->phase = State::Phase::kIdle;
  engine_.restart(*container_, make_supplier());
}

}  // namespace torpedo::exec
