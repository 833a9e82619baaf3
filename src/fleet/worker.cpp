#include "fleet/worker.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include "core/report_wire.h"
#include "core/workdir.h"
#include "feedback/wire.h"
#include "fleet/frame.h"
#include "run/run.h"
#include "util/log.h"

namespace torpedo::fleet {

namespace {

// Connect to the coordinator's Unix socket, retrying for ~5 s: a restarted
// worker can beat the coordinator's accept loop to the rendezvous.
int connect_coordinator(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  for (int attempt = 0; attempt < 100; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return fd;
    ::close(fd);
    timespec delay{0, 50 * 1000 * 1000};  // 50 ms
    ::nanosleep(&delay, nullptr);
  }
  return -1;
}

}  // namespace

bool apply_cpuset(const std::string& cpuset) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int count = 0;
  const char* p = cpuset.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const long lo = std::strtol(p, &end, 10);
    if (end == p || lo < 0 || lo >= CPU_SETSIZE) return false;
    long hi = lo;
    p = end;
    if (*p == '-') {
      hi = std::strtol(p + 1, &end, 10);
      if (end == p + 1 || hi < lo || hi >= CPU_SETSIZE) return false;
      p = end;
    }
    for (long cpu = lo; cpu <= hi; ++cpu) {
      CPU_SET(static_cast<int>(cpu), &set);
      ++count;
    }
    if (*p == ',') {
      ++p;
    } else if (*p != '\0') {
      return false;
    }
  }
  if (count == 0) return false;
  if (::sched_setaffinity(0, sizeof(set), &set) != 0)
    TORPEDO_LOG(LogLevel::kWarn, "sched_setaffinity(%s) failed: %s",
                cpuset.c_str(), std::strerror(errno));
  return true;
}

int worker_main(const WorkerOptions& options) {
  if (options.verbose) set_log_level(LogLevel::kInfo);
  if (!options.cpuset.empty() && !apply_cpuset(options.cpuset)) {
    std::fprintf(stderr, "fleet worker %d: bad cpuset '%s'\n",
                 options.worker_id, options.cpuset.c_str());
    return 2;
  }

  const int fd = connect_coordinator(options.socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "fleet worker %d: cannot connect to %s\n",
                 options.worker_id, options.socket_path.c_str());
    return 1;
  }
  {
    feedback::WireWriter hello;
    hello.u32(1);  // protocol version
    hello.u32(static_cast<std::uint32_t>(options.worker_id));
    if (!send_frame(fd, FrameType::kHello, hello.data())) {
      ::close(fd);
      return 1;
    }
  }

  // The instruments `torpedo run` wires into one part: always-on probes,
  // signal-growth recorder stamped with the worker id, live status, the
  // heartbeat the coordinator watches, and a monitor only when asked for.
  run::RunOptions run_options;
  run_options.config = options.config;
  run_options.seeds_dir = options.seeds_dir;
  run_options.workdir = options.workdir;
  run_options.monitor_port = options.monitor_port;
  run::Instruments instruments(run_options, options.worker_id);

  core::Campaign campaign(options.config);
  // Entries born here carry the worker id as their shard; entries pulled
  // through the coordinator keep the birth_shard they arrived with.
  campaign.corpus().set_shard(options.worker_id);
  instruments.attach(0, campaign);
  if (!instruments.start_monitor())
    std::fprintf(stderr, "fleet worker %d: cannot bind monitor port %d\n",
                 options.worker_id, options.monitor_port);

  if (!options.seeds_dir.empty()) {
    std::vector<std::string> errors;
    auto seeds = core::load_seed_files(options.seeds_dir, &errors);
    for (const std::string& e : errors)
      TORPEDO_LOG(LogLevel::kWarn, "%s", e.c_str());
    campaign.load_seeds(std::move(seeds));
  } else {
    campaign.load_default_seeds();
  }

  // The run_shard loop, with the socket as the epoch barrier. Corpus
  // entries below `published` have already been through the coordinator —
  // published by us, or pulled from a peer — and are never re-sent.
  std::size_t published = 0;
  for (int b = 0; b < options.config.batches; ++b) {
    const core::BatchResult batch = campaign.run_one_batch();
    TORPEDO_LOG(LogLevel::kInfo,
                "worker %d batch %d: rounds=%d best=%.1f corpus=%zu",
                options.worker_id, b, batch.rounds, batch.best_score,
                campaign.corpus().size());
    feedback::PublishBody body;
    for (; published < campaign.corpus().size(); ++published)
      body.entries.push_back(campaign.corpus().entry(published));
    body.denylist = campaign.fuzzer().denylist();
    if (!send_frame(fd, FrameType::kPublish, feedback::encode_publish(body))) {
      std::fprintf(stderr, "fleet worker %d: coordinator gone (publish)\n",
                   options.worker_id);
      ::close(fd);
      return 1;
    }
    if (options.crash_after_batch == b) _exit(kWorkerCrashExit);
    Frame frame;
    if (!recv_frame(fd, &frame) || frame.type != FrameType::kDelta) {
      std::fprintf(stderr, "fleet worker %d: coordinator gone (delta)\n",
                   options.worker_id);
      ::close(fd);
      return 1;
    }
    auto delta = feedback::decode_delta(frame.payload);
    if (!delta) {
      std::fprintf(stderr, "fleet worker %d: malformed delta\n",
                   options.worker_id);
      ::close(fd);
      return 1;
    }
    for (feedback::CorpusEntry& e : delta->entries)
      campaign.corpus().add(std::move(e.program), e.signal, e.best_score,
                            e.lineage);
    published = campaign.corpus().size();
    campaign.fuzzer().adopt_denylist(delta->denylist);
  }

  // The whole result travels in the kDone frame; the coordinator folds it
  // with its peers' exactly as a sharded run folds its shards.
  core::DoneBody done;
  done.report = campaign.finalize();
  instruments.detach(0, campaign);
  done.syscalls = instruments.probes().profile.rows();
  done.ops = instruments.probes().efficacy.rows();
  done.timeseries = instruments.timeseries(0).samples();
  if (!send_frame(fd, FrameType::kDone, core::encode_done(done))) {
    std::fprintf(stderr, "fleet worker %d: coordinator gone (done)\n",
                 options.worker_id);
    ::close(fd);
    return 1;
  }
  ::close(fd);
  return 0;
}

}  // namespace torpedo::fleet
