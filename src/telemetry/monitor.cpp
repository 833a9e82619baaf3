#include "telemetry/monitor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "telemetry/span.h"
#include "util/log.h"

namespace torpedo::telemetry {

// --- LiveStatus ---------------------------------------------------------------

void LiveStatus::begin_campaign(int total_batches, std::size_t executors) {
  std::lock_guard<std::mutex> lock(mu_);
  total_batches_ = total_batches;
  executor_count_ = executors;
  batch_ = -1;
  round_ = -1;
  rounds_completed_ = 0;
  findings_ = 0;
  crashes_ = 0;
  executors_.clear();
  samples_.clear();
  executions_.store(0, std::memory_order_relaxed);
  done_.store(false, std::memory_order_release);
}

LiveStatus::Totals LiveStatus::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals t;
  t.batch = batch_;
  t.round = round_;
  t.rounds_completed = rounds_completed_;
  t.executions = executions_.load(std::memory_order_relaxed);
  t.findings = findings_;
  t.crashes = crashes_;
  t.done = done_.load(std::memory_order_acquire);
  return t;
}

void LiveStatus::on_batch(int batch) {
  std::lock_guard<std::mutex> lock(mu_);
  batch_ = batch;
}

void LiveStatus::on_round(int round, Nanos sim_ns,
                          std::uint64_t total_executions,
                          std::vector<ExecutorState> executors) {
  const Nanos wall = steady_now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  round_ = round;
  rounds_completed_++;
  sim_ns_ = sim_ns;
  last_round_wall_ns_ = wall;
  executors_ = std::move(executors);
  executions_.store(total_executions, std::memory_order_relaxed);
  samples_.emplace_back(wall, total_executions);
  // A minute of samples bounds memory even for sub-millisecond sim rounds.
  while (samples_.size() > 1 && wall - samples_.front().first > 60 * kSecond)
    samples_.pop_front();
}

void LiveStatus::on_findings(std::uint64_t findings, std::uint64_t crashes) {
  std::lock_guard<std::mutex> lock(mu_);
  findings_ = findings;
  crashes_ = crashes;
}

void LiveStatus::on_signal_growth(int rounds_since_growth,
                                  std::uint64_t plateaus, bool in_plateau) {
  std::lock_guard<std::mutex> lock(mu_);
  rounds_since_growth_ = rounds_since_growth;
  plateaus_ = plateaus;
  in_plateau_ = in_plateau;
}

double LiveStatus::execs_per_sec(Nanos window_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2) return 0;
  const auto& [end_wall, end_execs] = samples_.back();
  // Oldest sample still inside the window.
  const std::pair<Nanos, std::uint64_t>* base = &samples_.front();
  for (const auto& sample : samples_) {
    if (end_wall - sample.first <= window_ns) {
      base = &sample;
      break;
    }
  }
  if (base->first >= end_wall || end_execs < base->second) return 0;
  return static_cast<double>(end_execs - base->second) /
         (static_cast<double>(end_wall - base->first) / kSecond);
}

JsonDict LiveStatus::to_json() const {
  const double rate = execs_per_sec();
  std::lock_guard<std::mutex> lock(mu_);
  JsonDict executors;
  std::string executor_array = "[";
  for (std::size_t i = 0; i < executors_.size(); ++i) {
    const ExecutorState& e = executors_[i];
    JsonDict d;
    d.set("name", e.name)
        .set("executions", e.executions)
        .set("crashed", e.crashed);
    if (i) executor_array += ",";
    executor_array += d.to_string();
  }
  executor_array += "]";

  JsonDict out;
  out.set("batch", batch_)
      .set("batches_total", total_batches_)
      .set("round", round_)
      .set("rounds_completed", rounds_completed_)
      .set("executions", executions_.load(std::memory_order_relaxed))
      .set("execs_per_sec", rate)
      .set("sim_ns", sim_ns_)
      .set("wall_ns", wall_now_ns())
      .set("wall_since_last_round_ms",
           last_round_wall_ns_ > 0
               ? static_cast<double>(steady_now_ns() - last_round_wall_ns_) /
                     kMillisecond
               : -1.0)
      .set("findings", findings_)
      .set("crashes", crashes_)
      .set("rounds_since_signal_growth", rounds_since_growth_)
      .set("plateaus", plateaus_)
      .set("in_plateau", in_plateau_)
      .set_raw("executors", executor_array);
  return out;
}

// --- HeartbeatWriter ----------------------------------------------------------

HeartbeatWriter::HeartbeatWriter(std::filesystem::path path)
    : path_(std::move(path)) {
  if (path_.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path_.parent_path(), ec);
  }
}

void HeartbeatWriter::stamp(Nanos sim_ns, int batch, int round,
                            std::uint64_t executions) {
  ++stamps_;
  JsonDict d;
  d.set("sim_ns", sim_ns)
      .set("wall_ns", wall_now_ns())
      .set("batch", batch)
      .set("round", round)
      .set("executions", executions)
      .set("stamps", stamps_);
  if (monitor_port_ >= 0) d.set("monitor_port", monitor_port_);
  const std::filesystem::path tmp = path_.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    out << d.to_string() << "\n";
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
}

// --- Watchdog -----------------------------------------------------------------

Watchdog::Watchdog() : Watchdog(Config{}) {}

Watchdog::Watchdog(Config config, Registry* registry) : config_(config) {
  ctr_stalls_ = &registry->counter("campaign.stalls");
}

Nanos Watchdog::now() const {
  return now_fn_ ? now_fn_(now_ctx_) : steady_now_ns();
}

bool Watchdog::poll(std::uint64_t executions) {
  const Nanos t = now();
  std::lock_guard<std::mutex> lock(mu_);
  if (!primed_ || executions != last_executions_) {
    if (stalled_)
      TORPEDO_LOG(LogLevel::kInfo,
                  "watchdog: campaign resumed after stall (+%llu executions)",
                  static_cast<unsigned long long>(executions -
                                                  last_executions_));
    primed_ = true;
    stalled_ = false;
    last_executions_ = executions;
    last_progress_ns_ = t;
    return false;
  }
  if (stalled_ || t - last_progress_ns_ < config_.stall_budget_wall_ns)
    return false;

  // Newly stalled: count it, capture where the campaign thread is stuck.
  stalled_ = true;
  ++stall_count_;
  ctr_stalls_->inc();
  last_stall_spans_.clear();
  if (spans_) last_stall_spans_ = spans_->open_span_names();
  std::string stack;
  for (const std::string& name : last_stall_spans_) {
    if (!stack.empty()) stack += " > ";
    stack += name;
  }
  TORPEDO_LOG(LogLevel::kWarn,
              "watchdog: no execution progress for %.1f s (executions=%llu); "
              "open spans: %s%s",
              static_cast<double>(t - last_progress_ns_) / kSecond,
              static_cast<unsigned long long>(executions),
              stack.empty() ? "<no tracer installed>" : stack.c_str(),
              config_.abort_on_stall ? "; requesting batch abort" : "");
  if (config_.abort_on_stall) abort_.store(true, std::memory_order_relaxed);
  return true;
}

bool Watchdog::stalled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stalled_;
}

std::uint64_t Watchdog::stalls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stall_count_;
}

std::vector<std::string> Watchdog::last_stall_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_stall_spans_;
}

// --- MonitorServer ------------------------------------------------------------

MonitorServer::MonitorServer() : MonitorServer(Config{}) {}

MonitorServer::MonitorServer(Config config) : config_(std::move(config)) {}

MonitorServer::~MonitorServer() { stop(); }

void MonitorServer::add_shard(int shard, LiveStatus* status,
                              Watchdog* watchdog) {
  shards_.push_back(ShardSlot{shard, status, watchdog});
}

bool MonitorServer::start() {
  if (running()) return true;
  exec_counter_ = &config_.registry->counter("exec.executions");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  TORPEDO_LOG(LogLevel::kInfo, "monitor: serving on %s:%d",
              config_.bind_address.c_str(), port_);
  return true;
}

void MonitorServer::stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MonitorServer::loop() {
  const int timeout_ms = static_cast<int>(
      std::max<Nanos>(config_.poll_interval_ns / kMillisecond, 10));
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    // Watchdog rides the serving loop: one progress sample per tick.
    if (watchdog_ != nullptr && exec_counter_ != nullptr)
      watchdog_->poll(exec_counter_->value());
    // Per-shard watchdogs track per-shard progress. A finished shard stops
    // executing forever — that is completion, not a stall, so it is muted.
    for (const ShardSlot& slot : shards_)
      if (slot.watchdog != nullptr && !slot.status->done())
        slot.watchdog->poll(slot.status->executions());
    if (rc <= 0 || !(pfd.revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    serve_client(fd);
    ::close(fd);
  }
}

namespace {

// Reads until the end of the request headers (or 8 KiB / 2 s, whichever
// comes first). A /metrics scrape is a single small GET; anything larger is
// not a client this server owes service to.
std::string read_request(int fd) {
  std::string request;
  char buf[1024];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 2000) <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  return request;
}

// Writes the whole response, riding out EINTR and short sends to slow
// clients: a partial send() is progress, not failure, and a full socket
// buffer earns a bounded poll(POLLOUT) wait rather than a dropped response.
// Gives up only on a hard error or a client that stays unwritable for 2 s.
void write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 2000) > 0) continue;
    }
    return;  // hard error, hangup, or a client stalled past the budget
  }
}

std::string_view reason_phrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Error";
  }
}

}  // namespace

void MonitorServer::serve_client(int fd) {
  const std::string request = read_request(fd);
  // Request line: "GET /path HTTP/1.1".
  std::string_view method, path;
  const std::size_t line_end = request.find("\r\n");
  if (line_end != std::string::npos) {
    std::string_view line(request.data(), line_end);
    const std::size_t sp1 = line.find(' ');
    if (sp1 != std::string_view::npos) {
      const std::size_t sp2 = line.find(' ', sp1 + 1);
      method = line.substr(0, sp1);
      path = sp2 == std::string_view::npos
                 ? line.substr(sp1 + 1)
                 : line.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }
  // Strip a query string: scrapers add ?timeout=... style params.
  if (const std::size_t q = path.find('?'); q != std::string_view::npos)
    path = path.substr(0, q);

  requests_.fetch_add(1, std::memory_order_relaxed);
  const Response response = handle(method, path);
  std::string out = "HTTP/1.1 " + std::to_string(response.code) + " " +
                    std::string(reason_phrase(response.code)) +
                    "\r\nContent-Type: " + response.content_type +
                    "\r\nContent-Length: " +
                    std::to_string(response.body.size()) +
                    "\r\nConnection: close\r\n\r\n" + response.body;
  write_all(fd, out);
}

std::string MonitorServer::metrics_text() const {
  std::string out = config_.registry->to_prometheus();
  // Synthesized campaign series: the canonical operational signals, stable
  // names independent of internal instrument naming.
  auto counter = [&out](std::string_view name, std::string_view help,
                        std::uint64_t v) {
    out += "# HELP " + std::string(name) + " " + std::string(help) + "\n";
    out += "# TYPE " + std::string(name) + " counter\n";
    out += std::string(name) + " " + std::to_string(v) + "\n";
  };
  auto gauge = [&out](std::string_view name, std::string_view help, double v) {
    out += "# HELP " + std::string(name) + " " + std::string(help) + "\n";
    out += "# TYPE " + std::string(name) + " gauge\n";
    std::ostringstream s;
    s.imbue(std::locale::classic());
    s << v;
    out += std::string(name) + " " + s.str() + "\n";
  };
  gauge("torpedo_up", "monitor is serving", 1);
  if (status_ != nullptr) {
    const JsonDict status = status_->to_json();
    const auto parsed = parse_json_object(status.to_string());
    auto num = [&parsed](const char* key) -> double {
      if (!parsed) return 0;
      auto it = parsed->find(key);
      if (it == parsed->end()) return 0;
      return it->second.is_integer ? static_cast<double>(it->second.integer)
                                   : it->second.number;
    };
    counter("torpedo_executions_total", "total simulated program executions",
            status_->executions());
    counter("torpedo_rounds_total", "observed rounds completed",
            static_cast<std::uint64_t>(num("rounds_completed")));
    counter("torpedo_findings_total", "confirmed findings so far",
            static_cast<std::uint64_t>(num("findings")));
    counter("torpedo_crash_findings_total", "distinct runtime crashes so far",
            static_cast<std::uint64_t>(num("crashes")));
    gauge("torpedo_batch", "current batch index", num("batch"));
    gauge("torpedo_round", "last completed round index", num("round"));
    gauge("torpedo_execs_per_second",
          "execution rate over a 10s sliding window",
          status_->execs_per_sec());
  }
  if (watchdog_ != nullptr)
    gauge("torpedo_watchdog_stalled", "1 while the campaign is stalled",
          watchdog_->stalled() ? 1 : 0);

  if (!shards_.empty()) {
    // One HELP/TYPE header per family, one {shard="k"} sample per shard.
    auto family = [&out](std::string_view name, std::string_view help,
                         std::string_view type,
                         const std::vector<std::pair<int, double>>& samples) {
      out += "# HELP " + std::string(name) + " " + std::string(help) + "\n";
      out += "# TYPE " + std::string(name) + " " + std::string(type) + "\n";
      for (const auto& [shard, v] : samples) {
        std::ostringstream s;
        s.imbue(std::locale::classic());
        s << v;
        out += std::string(name) + "{shard=\"" + std::to_string(shard) +
               "\"} " + s.str() + "\n";
      }
    };
    std::vector<LiveStatus::Totals> totals;
    std::vector<double> rates;
    for (const ShardSlot& slot : shards_) {
      totals.push_back(slot.status->totals());
      rates.push_back(slot.status->execs_per_sec());
    }
    auto column = [&](auto&& get) {
      std::vector<std::pair<int, double>> samples;
      for (std::size_t i = 0; i < shards_.size(); ++i)
        samples.emplace_back(shards_[i].shard, get(i));
      return samples;
    };
    gauge("torpedo_shards", "shard count of the running campaign",
          static_cast<double>(shards_.size()));
    family("torpedo_shard_executions_total",
           "simulated program executions per shard", "counter",
           column([&](std::size_t i) {
             return static_cast<double>(totals[i].executions);
           }));
    family("torpedo_shard_rounds_total", "observed rounds per shard",
           "counter", column([&](std::size_t i) {
             return static_cast<double>(totals[i].rounds_completed);
           }));
    family("torpedo_shard_findings_total", "confirmed findings per shard",
           "counter", column([&](std::size_t i) {
             return static_cast<double>(totals[i].findings);
           }));
    family("torpedo_shard_crash_findings_total",
           "distinct runtime crashes per shard", "counter",
           column([&](std::size_t i) {
             return static_cast<double>(totals[i].crashes);
           }));
    family("torpedo_shard_batch", "current batch index per shard", "gauge",
           column([&](std::size_t i) {
             return static_cast<double>(totals[i].batch);
           }));
    family("torpedo_shard_execs_per_second",
           "per-shard execution rate over a 10s sliding window", "gauge",
           column([&](std::size_t i) { return rates[i]; }));
    family("torpedo_shard_done", "1 once the shard finished its batches",
           "gauge", column([&](std::size_t i) {
             return totals[i].done ? 1.0 : 0.0;
           }));
    std::vector<std::pair<int, double>> stalled;
    for (const ShardSlot& slot : shards_)
      if (slot.watchdog != nullptr)
        stalled.emplace_back(slot.shard,
                             slot.watchdog->stalled() ? 1.0 : 0.0);
    if (!stalled.empty())
      family("torpedo_shard_watchdog_stalled", "1 while the shard is stalled",
             "gauge", stalled);

    // No campaign-wide LiveStatus in sharded mode: synthesize the canonical
    // unlabeled totals by summing shards so dashboards keep working.
    if (status_ == nullptr) {
      LiveStatus::Totals sum;
      double rate_sum = 0;
      for (std::size_t i = 0; i < totals.size(); ++i) {
        sum.executions += totals[i].executions;
        sum.rounds_completed += totals[i].rounds_completed;
        sum.findings += totals[i].findings;
        sum.crashes += totals[i].crashes;
        rate_sum += rates[i];
      }
      counter("torpedo_executions_total",
              "total simulated program executions", sum.executions);
      counter("torpedo_rounds_total", "observed rounds completed",
              static_cast<std::uint64_t>(sum.rounds_completed));
      counter("torpedo_findings_total", "confirmed findings so far",
              sum.findings);
      counter("torpedo_crash_findings_total",
              "distinct runtime crashes so far", sum.crashes);
      gauge("torpedo_execs_per_second",
            "execution rate over a 10s sliding window", rate_sum);
    }
  }
  if (extra_) out += extra_();
  return out;
}

std::string MonitorServer::status_json() const {
  JsonDict out = status_ != nullptr ? status_->to_json() : JsonDict{};
  if (status_ == nullptr)
    out.set("wall_ns", wall_now_ns());
  // The actual bound port: with --monitor-port 0 (ephemeral, the
  // multi-process default) this is how scrapers learn the real address.
  out.set("monitor_port", port_);
  out.set("monitor_requests", requests());
  if (watchdog_ != nullptr) {
    out.set("stalled", watchdog_->stalled())
        .set("stalls", watchdog_->stalls());
  }
  if (!shards_.empty()) {
    std::uint64_t executions = 0;
    double rate = 0;
    std::string shard_array = "[";
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const ShardSlot& slot = shards_[i];
      JsonDict d = slot.status->to_json();
      d.set("shard", slot.shard).set("done", slot.status->done());
      if (slot.watchdog != nullptr) {
        d.set("stalled", slot.watchdog->stalled())
            .set("stalls", slot.watchdog->stalls());
      }
      if (i) shard_array += ",";
      shard_array += d.to_string();
      executions += slot.status->executions();
      rate += slot.status->execs_per_sec();
    }
    shard_array += "]";
    out.set("shard_count", static_cast<std::uint64_t>(shards_.size()))
        .set_raw("shards", shard_array);
    if (status_ == nullptr)
      out.set("executions", executions).set("execs_per_sec", rate);
  }
  return out.to_string();
}

MonitorServer::Response MonitorServer::handle(std::string_view method,
                                              std::string_view path) const {
  if (method != "GET") {
    JsonDict err;
    err.set("error", "method not allowed").set("method", method);
    return {405, "application/json", err.to_string() + "\n"};
  }
  if (path == "/metrics")
    return {200, "text/plain; version=0.0.4; charset=utf-8", metrics_text()};
  if (path == "/status")
    return {200, "application/json", status_json() + "\n"};
  if (path == "/healthz")
    return {200, "text/plain; charset=utf-8", "ok\n"};
  for (const auto& [prefix, handler] : endpoints_) {
    const bool exact = path == prefix;
    const bool subpath = path.size() > prefix.size() &&
                         path.substr(0, prefix.size()) == prefix &&
                         path[prefix.size()] == '/';
    if (!exact && !subpath) continue;
    if (auto body = handler(path))
      return {200, "application/json", *body + "\n"};
    break;  // known prefix, unknown subpath: structured 404
  }
  JsonDict err;
  err.set("error", "not found").set("path", path);
  return {404, "application/json", err.to_string() + "\n"};
}

// --- http_get -----------------------------------------------------------------

std::string http_get(int port, std::string_view path, std::string_view host) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, std::string(host).c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + std::string(path) +
                              " HTTP/1.1\r\nHost: " + std::string(host) +
                              "\r\nConnection: close\r\n\r\n";
  write_all(fd, request);
  std::string response;
  char buf[4096];
  while (true) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

}  // namespace torpedo::telemetry
