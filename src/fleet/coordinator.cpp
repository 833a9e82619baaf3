#include "fleet/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <optional>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/sharded.h"
#include "feedback/wire.h"
#include "run/run.h"
#include "telemetry/aggregate.h"
#include "telemetry/json.h"
#include "telemetry/monitor.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"
#include "util/strings.h"

namespace torpedo::fleet {

namespace {

constexpr int kPollTimeoutMs = 50;
constexpr Nanos kStatusWritePeriod = 250 * kMillisecond;

// Blocking full write on a non-blocking fd: waits for POLLOUT on EAGAIN.
// Workers block in recv_frame whenever a delta is owed, so in practice the
// buffer drains immediately; the wait is a safety net, not a steady state.
bool send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    // A worker that died mid-epoch must fail the send (the caller closes
    // the connection), not raise SIGPIPE in the coordinator.
    const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent > 0) {
      data += sent;
      n -= static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 5000);
      continue;
    }
    return false;
  }
  return true;
}

bool send_frame_nb(int fd, FrameType type, std::string_view payload) {
  const std::string frame = encode_frame(type, payload);
  return send_all(fd, frame.data(), frame.size());
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

}  // namespace

std::string_view worker_state_name(WorkerState state) {
  switch (state) {
    case WorkerState::kNotStarted: return "not-started";
    case WorkerState::kRunning: return "running";
    case WorkerState::kStalled: return "stalled";
    case WorkerState::kFailed: return "failed";
    case WorkerState::kCompleted: return "completed";
  }
  return "?";
}

struct Coordinator::Connection {
  int fd = -1;
  int worker = -1;  // unknown until the kHello frame
  FrameBuffer buf;
};

Coordinator::Coordinator(FleetConfig config) : config_(std::move(config)) {
  TORPEDO_CHECK(config_.manifest.workers > 0);
  const int n = config_.manifest.workers;
  ledger_ = std::make_unique<feedback::CorpusLedger>(n);
  workers_.resize(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) workers_[static_cast<std::size_t>(w)].id = w;
  awaiting_delta_.assign(static_cast<std::size_t>(n), false);
  done_.resize(static_cast<std::size_t>(n));
  failure_detected_ns_.assign(static_cast<std::size_t>(n), 0);
  // Fork mode calls worker_main() in a fork child with no exec, which is
  // only safe while this process is single-threaded — no monitor thread.
  if (config_.worker_binary.empty()) config_.coordinator_monitor_port = -1;
}

Coordinator::~Coordinator() {
  for (auto& conn : conns_)
    if (conn->fd >= 0) ::close(conn->fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
}

bool Coordinator::setup_listener() {
  socket_path_ = config_.workdir / "fleet.sock";
  sockaddr_un addr{};
  // sun_path is ~108 bytes; deep build/test directories overflow it, so
  // fall back to a /tmp rendezvous (the path, not the workdir, is private
  // to this fleet).
  if (socket_path_.string().size() >= sizeof(addr.sun_path) - 1)
    socket_path_ = std::filesystem::temp_directory_path() /
                   format("torpedo-fleet-%d.sock", static_cast<int>(getpid()));
  ::unlink(socket_path_.c_str());
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path_.c_str(),
               sizeof(addr.sun_path) - 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  set_cloexec(listen_fd_);
  set_nonblocking(listen_fd_);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, config_.manifest.workers + 8) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  return true;
}

WorkerOptions Coordinator::worker_options(int worker) const {
  WorkerOptions opts;
  opts.worker_id = worker;
  opts.socket_path = socket_path_.string();
  opts.config = config_.manifest.worker_config(worker);
  opts.workdir = config_.workdir / "workers" / std::to_string(worker);
  opts.seeds_dir = config_.manifest.defaults.seeds_dir;
  opts.cpuset = config_.manifest.worker_cpuset(worker);
  opts.monitor_port = config_.worker_monitor_port;
  opts.verbose = config_.verbose;
  return opts;
}

bool Coordinator::spawn_worker(int worker) {
  const std::size_t wi = static_cast<std::size_t>(worker);
  WorkerOptions opts = worker_options(worker);
  if (worker == config_.test_crash_worker && workers_[wi].restarts == 0)
    opts.crash_after_batch = config_.test_crash_batch;

  std::error_code ec;
  std::filesystem::create_directories(opts.workdir, ec);

  // Exec mode: build argv (and open-path strings) before fork so the child
  // touches no allocator between fork and exec.
  std::vector<std::string> args;
  if (!config_.worker_binary.empty()) {
    args = {config_.worker_binary,
            "run",
            "--fleet-socket",
            opts.socket_path,
            "--fleet-worker",
            std::to_string(worker),
            "--fleet-manifest",
            (config_.workdir / "fleet.json").string(),
            "--workdir",
            opts.workdir.string()};
    if (config_.worker_monitor_port >= 0) {
      args.emplace_back("--monitor-port");
      args.emplace_back(std::to_string(config_.worker_monitor_port));
    }
    if (config_.verbose) args.emplace_back("-v");
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log_path = (opts.workdir / "log.txt").string();

  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    if (!config_.worker_binary.empty()) {
      const int log_fd =
          ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        if (log_fd > STDERR_FILENO) ::close(log_fd);
      }
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    // Fork mode: run the worker in this child directly. Drop the parent's
    // coordinator fds first — the worker owns only its own client socket.
    if (listen_fd_ >= 0) ::close(listen_fd_);
    for (auto& conn : conns_)
      if (conn->fd >= 0) ::close(conn->fd);
    _exit(worker_main(opts));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    WorkerStatus& st = workers_[wi];
    st.pid = pid;
    st.state = WorkerState::kRunning;
    st.done_frame = false;
  }
  done_[wi] = {};
  TORPEDO_LOG(LogLevel::kInfo, "fleet: worker %d spawned (pid %d)", worker,
              static_cast<int>(pid));
  return true;
}

void Coordinator::accept_connections() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or error: nothing (more) to accept
    set_cloexec(fd);
    set_nonblocking(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
  }
}

void Coordinator::worker_left(int worker) {
  if (ledger_->left(worker)) return;
  if (ledger_->leave(worker)) flush_deltas();
}

void Coordinator::flush_deltas() {
  for (int w = 0; w < config_.manifest.workers; ++w) {
    const std::size_t wi = static_cast<std::size_t>(w);
    if (!awaiting_delta_[wi]) continue;
    // Find the live connection for this worker.
    Connection* conn = nullptr;
    for (auto& c : conns_)
      if (c->worker == w && c->fd >= 0) conn = c.get();
    if (conn == nullptr) continue;  // died mid-epoch; leave() dropped it
    feedback::CorpusDelta delta = ledger_->pull(w);
    feedback::DeltaBody body;
    body.epoch = delta.epoch;
    body.entries = std::move(delta.entries);
    body.denylist = std::move(delta.denylist);
    awaiting_delta_[wi] = false;
    if (!send_frame_nb(conn->fd, FrameType::kDelta,
                       feedback::encode_delta(body))) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
}

void Coordinator::handle_frame(Connection& conn, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      feedback::WireReader r(frame.payload);
      const std::uint32_t version = r.u32();
      const std::uint32_t id = r.u32();
      if (!r.at_end() || version != 1 ||
          id >= static_cast<std::uint32_t>(config_.manifest.workers)) {
        ::close(conn.fd);
        conn.fd = -1;
        return;
      }
      conn.worker = static_cast<int>(id);
      // A restarted worker rejoins the barrier; its cursor rewinds so the
      // first pull replays the whole committed stream (the checkpoint).
      if (ledger_->left(conn.worker)) ledger_->rejoin(conn.worker);
      return;
    }
    case FrameType::kPublish: {
      if (conn.worker < 0) break;
      auto body = feedback::decode_publish(frame.payload);
      if (!body) break;
      const std::size_t wi = static_cast<std::size_t>(conn.worker);
      if (failure_detected_ns_[wi] != 0) {
        const Nanos rec = telemetry::steady_now_ns() - failure_detected_ns_[wi];
        failure_detected_ns_[wi] = 0;
        max_recovery_ns_ = std::max(max_recovery_ns_, rec);
        std::lock_guard<std::mutex> lock(mu_);
        workers_[wi].recovery_wall_ns = rec;
      }
      ledger_->publish(conn.worker, std::move(body->entries),
                       std::move(body->denylist));
      awaiting_delta_[wi] = true;
      if (ledger_->epoch_ready()) {
        ledger_->commit_epoch();
        flush_deltas();
      }
      return;
    }
    case FrameType::kDone: {
      if (conn.worker < 0) break;
      const std::size_t wi = static_cast<std::size_t>(conn.worker);
      // A body that does not decode leaves done_frame false: the reaper
      // then fails the worker and restarts it, so a report with missing
      // findings is never merged.
      if (auto body = core::decode_done(frame.payload)) {
        const core::CampaignReport& report = body->report;
        std::lock_guard<std::mutex> lock(mu_);
        WorkerStatus& st = workers_[wi];
        st.done_frame = true;
        st.batches = report.batches;
        st.rounds = report.rounds;
        st.executions = report.executions;
        st.corpus = report.corpus_size;
        st.findings = report.findings.size();
        st.crashes = report.crashes.size();
        done_[wi] = std::move(*body);
      }
      worker_left(conn.worker);
      return;
    }
    case FrameType::kDelta:
      break;  // coordinator never receives deltas
  }
  // Protocol violation: drop the peer; the reaper decides what it means.
  ::close(conn.fd);
  conn.fd = -1;
}

void Coordinator::read_connection(Connection& conn) {
  char buf[65536];
  bool gone = false;  // EOF or a hard error
  for (;;) {
    const ssize_t got = ::read(conn.fd, buf, sizeof(buf));
    if (got > 0) {
      conn.buf.append(buf, static_cast<std::size_t>(got));
      if (static_cast<std::size_t>(got) < sizeof(buf)) break;
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    gone = true;
    break;
  }
  // Frames read together with the EOF (a worker's kDone just before it
  // exits) are handled before the connection closes.
  Frame frame;
  while (conn.fd >= 0 && conn.buf.next(&frame)) handle_frame(conn, frame);
  if (conn.fd >= 0 && (gone || conn.buf.error())) {
    ::close(conn.fd);
    conn.fd = -1;
  }
  // The worker is gone from the socket's point of view. If it never sent
  // kDone this drops its pending publication so the survivors' barrier
  // cannot stall.
  if (gone && conn.worker >= 0) {
    bool done = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      done = workers_[static_cast<std::size_t>(conn.worker)].done_frame;
    }
    if (!done) worker_left(conn.worker);
  }
}

void Coordinator::fail_worker(int worker) {
  const std::size_t wi = static_cast<std::size_t>(worker);
  worker_left(worker);
  int restarts = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    restarts = workers_[wi].restarts;
  }
  if (restarts < config_.manifest.max_restarts) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_[wi].restarts;
    }
    ++total_restarts_;
    failure_detected_ns_[wi] = telemetry::steady_now_ns();
    TORPEDO_LOG(LogLevel::kWarn, "fleet: worker %d died, restarting (%d/%d)",
                worker, restarts + 1, config_.manifest.max_restarts);
    if (!spawn_worker(worker)) {
      std::lock_guard<std::mutex> lock(mu_);
      workers_[wi].state = WorkerState::kFailed;
    }
  } else {
    TORPEDO_LOG(LogLevel::kError,
                "fleet: worker %d died, restart budget exhausted", worker);
    std::lock_guard<std::mutex> lock(mu_);
    workers_[wi].state = WorkerState::kFailed;
    workers_[wi].pid = -1;
  }
}

void Coordinator::reap_children() {
  for (;;) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid <= 0) return;
    int worker = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (WorkerStatus& st : workers_) {
        if (st.pid != pid) continue;
        worker = st.id;
        st.pid = -1;
        break;
      }
    }
    if (worker < 0) continue;  // not ours (cannot happen in practice)
    // An exited process has sent everything it will send, but its last
    // frames (the kDone above all) may still sit unread on its socket:
    // read them before judging the exit, or a clean worker counts as dead.
    for (auto& conn : conns_)
      if (conn->worker == worker && conn->fd >= 0) read_connection(*conn);
    {
      std::lock_guard<std::mutex> lock(mu_);
      WorkerStatus& st = workers_[static_cast<std::size_t>(worker)];
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && st.done_frame) {
        st.state = WorkerState::kCompleted;
        TORPEDO_LOG(LogLevel::kInfo, "fleet: worker %d completed", worker);
        continue;
      }
    }
    fail_worker(worker);
  }
}

void Coordinator::scan_heartbeats() {
  const std::int64_t now_wall = telemetry::wall_now_ns();
  for (int w = 0; w < config_.manifest.workers; ++w) {
    const std::size_t wi = static_cast<std::size_t>(w);
    const std::filesystem::path hb =
        config_.workdir / "workers" / std::to_string(w) / "heartbeat.json";
    std::ifstream in(hb);
    if (!in) continue;
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto object = telemetry::parse_json_object(trim(buffer.str()));
    if (!object) continue;

    std::int64_t wall = 0;
    std::uint64_t executions = 0;
    int monitor_port = -1;
    if (auto it = object->find("wall_ns"); it != object->end())
      wall = it->second.integer;
    if (auto it = object->find("executions"); it != object->end())
      executions = static_cast<std::uint64_t>(it->second.integer);
    if (auto it = object->find("monitor_port"); it != object->end())
      monitor_port = static_cast<int>(it->second.integer);

    std::lock_guard<std::mutex> lock(mu_);
    WorkerStatus& st = workers_[wi];
    st.heartbeat_wall_ns = wall;
    if (monitor_port > 0) st.monitor_port = monitor_port;
    if (!st.done_frame && executions > st.executions)
      st.executions = executions;
    // Stall detection: a live worker whose heartbeat went quiet. Recovery
    // (a fresh stamp) flips it straight back to running.
    if (st.state == WorkerState::kRunning &&
        now_wall - wall > config_.stall_budget_wall_ns) {
      st.state = WorkerState::kStalled;
      TORPEDO_LOG(LogLevel::kWarn, "fleet: worker %d heartbeat stalled", w);
    } else if (st.state == WorkerState::kStalled &&
               now_wall - wall <= config_.stall_budget_wall_ns) {
      st.state = WorkerState::kRunning;
    }
  }
}

std::vector<WorkerStatus> Coordinator::workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_;
}

std::string Coordinator::fleet_status_json() const {
  std::vector<WorkerStatus> snapshot = workers();
  // The ledger is only touched by the coordinator loop; its counters are
  // read here as plain loads (the /fleet endpoint serves the file the loop
  // writes, not this function, so cross-thread reads never happen).
  const feedback::CorpusLedger::Stats& stats = ledger_->stats();
  telemetry::JsonDict doc;
  doc.set("wall_ns", telemetry::wall_now_ns())
      .set("workers", config_.manifest.workers)
      .set("epoch", ledger_->epoch())
      .set("active", ledger_->active())
      .set("restarts", total_restarts_)
      .set("hub_published", stats.published)
      .set("hub_unique", stats.unique)
      .set("hub_merged", stats.merged)
      .set("hub_pulled", stats.pulled)
      .set("denylist", stats.denylist_size);
  std::string array = "[";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const WorkerStatus& st = snapshot[i];
    telemetry::JsonDict d;
    d.set("id", st.id)
        .set("state", worker_state_name(st.state))
        .set("pid", static_cast<std::int64_t>(st.pid))
        .set("restarts", st.restarts)
        .set("done", st.done_frame)
        .set("monitor_port", st.monitor_port)
        .set("executions", st.executions)
        .set("heartbeat_wall_ns", st.heartbeat_wall_ns)
        .set("batches", st.batches)
        .set("rounds", st.rounds)
        .set("corpus", st.corpus)
        .set("findings", st.findings)
        .set("crashes", st.crashes);
    if (i) array += ",";
    array += d.to_string();
  }
  array += "]";
  doc.set_raw("worker_states", array);
  return doc.to_string();
}

void Coordinator::write_fleet_status() const {
  const std::filesystem::path path = config_.workdir / "fleet_status.json";
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    out << fleet_status_json() << "\n";
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
}

bool Coordinator::all_terminal() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const WorkerStatus& st : workers_) {
    if (st.state == WorkerState::kCompleted) continue;
    if (st.state == WorkerState::kFailed && st.pid < 0) continue;
    return false;
  }
  return true;
}

Coordinator::Result Coordinator::run() {
  Result result;
  std::error_code ec;
  std::filesystem::create_directories(config_.workdir / "workers", ec);
  save_manifest(config_.workdir / "fleet.json", config_.manifest);
  if (!setup_listener()) {
    TORPEDO_LOG(LogLevel::kError, "fleet: cannot bind %s",
                socket_path_.c_str());
    return result;
  }

  // Coordinator-side monitor (exec mode only): one scrape target for the
  // whole fleet. /metrics re-labels every live worker's exposition with
  // {worker="k"}; /fleet serves the same JSON as fleet_status.json.
  std::optional<telemetry::MonitorServer> monitor;
  if (config_.coordinator_monitor_port >= 0) {
    telemetry::MonitorServer::Config mon_config;
    mon_config.port = config_.coordinator_monitor_port;
    monitor.emplace(mon_config);
    monitor->set_extra_metrics([this] {
      std::vector<std::pair<int, std::string>> expositions;
      for (const WorkerStatus& st : workers()) {
        if (st.monitor_port <= 0 || st.pid < 0) continue;
        const std::string response =
            telemetry::http_get(st.monitor_port, "/metrics");
        const std::string_view body = telemetry::http_body(response);
        if (!body.empty()) expositions.emplace_back(st.id, std::string(body));
      }
      return telemetry::aggregate_expositions(expositions);
    });
    monitor->add_json_endpoint("/fleet", [this](std::string_view) {
      std::ifstream in(config_.workdir / "fleet_status.json");
      if (!in) return std::optional<std::string>{};
      std::stringstream buffer;
      buffer << in.rdbuf();
      return std::optional<std::string>(std::string(trim(buffer.str())));
    });
    if (monitor->start()) {
      TORPEDO_LOG(LogLevel::kInfo, "fleet: monitor on port %d",
                  monitor->port());
    } else {
      monitor.reset();
    }
  }

  for (int w = 0; w < config_.manifest.workers; ++w) {
    if (!spawn_worker(w)) {
      std::lock_guard<std::mutex> lock(mu_);
      workers_[static_cast<std::size_t>(w)].state = WorkerState::kFailed;
    }
  }

  Nanos last_status = 0;
  while (!all_terminal()) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> conn_index;
    fds.push_back({listen_fd_, POLLIN, 0});
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i]->fd < 0) continue;
      fds.push_back({conns_[i]->fd, POLLIN, 0});
      conn_index.push_back(i);
    }
    const int ready = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (ready > 0) {
      if ((fds[0].revents & POLLIN) != 0) accept_connections();
      for (std::size_t i = 1; i < fds.size(); ++i)
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
          read_connection(*conns_[conn_index[i - 1]]);
    }
    // Drop closed connections.
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const auto& c) { return c->fd < 0; }),
                 conns_.end());
    reap_children();
    scan_heartbeats();
    const Nanos now = telemetry::steady_now_ns();
    if (now - last_status >= kStatusWritePeriod) {
      write_fleet_status();
      last_status = now;
    }
  }
  write_fleet_status();
  if (monitor) monitor->stop();

  // The merge is a sharded run's: worker k's report is shard k's (a failed
  // worker contributes an empty one), folded by merge_reports; the corpus
  // is the ledger's committed stream, which every published entry passed
  // through with its coverage signal intact; clustering runs in memory;
  // the one workdir writer writes the lot.
  const Nanos merge_start = telemetry::steady_now_ns();
  std::vector<core::CampaignReport> reports(workers_.size());
  feedback::SyscallProfile profile;
  feedback::MutationEfficacy efficacy;
  std::vector<telemetry::SampleSeries> timeseries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const WorkerStatus& st : workers_) {
      if (st.state != WorkerState::kCompleted) {
        ++result.failed;
        continue;
      }
      ++result.completed;
      result.executions += st.executions;
      core::DoneBody& done = done_[static_cast<std::size_t>(st.id)];
      reports[static_cast<std::size_t>(st.id)] = std::move(done.report);
      for (const feedback::SyscallProfile::Row& row : done.syscalls)
        profile.add(row);
      for (const feedback::MutationEfficacy::Row& row : done.ops)
        efficacy.add(row);
      timeseries.push_back({st.id, done.timeseries});
    }
    result.restarts = total_restarts_;
    result.max_recovery_wall_ns = max_recovery_ns_;
  }
  core::CampaignReport report = core::merge_reports(std::move(reports));
  feedback::Corpus corpus;
  for (const feedback::CorpusLedger::Committed& c : ledger_->committed())
    corpus.add(c.entry.program, c.entry.signal, c.entry.best_score,
               c.entry.lineage);
  report.corpus_size = corpus.size();
  const triage::TriageResult clusters =
      triage::cluster_report(report, config_.manifest.defaults.runtime);
  core::CampaignManifest manifest = config_.manifest.defaults;
  manifest.fleet_workers = config_.manifest.workers;
  run::write_workdir(config_.workdir, corpus, report, clusters, profile,
                     efficacy, timeseries, manifest);
  result.merge_wall_ns = telemetry::steady_now_ns() - merge_start;
  result.ok = result.failed == 0;

  telemetry::Registry& metrics = telemetry::global();
  const feedback::CorpusLedger::Stats& stats = ledger_->stats();
  metrics.counter("hub.epochs").inc(stats.epochs);
  metrics.counter("hub.published").inc(stats.published);
  metrics.counter("hub.unique").inc(stats.unique);
  metrics.counter("hub.merged").inc(stats.merged);
  metrics.counter("hub.pulled").inc(stats.pulled);
  metrics.counter("fleet.restarts").inc(static_cast<std::uint64_t>(
      result.restarts));
  metrics.gauge("fleet.workers")
      .set(static_cast<double>(config_.manifest.workers));
  return result;
}

}  // namespace torpedo::fleet
