// serve_hot and serve_sweep: open-loop traffic over TCP against the stock
// dynasparse_serve binary, started fresh in its own process for each
// set-up. One client process (this one) drives two connections with one
// submitter and one reaper thread each.
//
// Phases:
//   warm        every roster entry once, one at a time, on an idle server
//               (part of set-up; these are the serve_hot fresh requests)
//   rate        seeded Poisson arrivals at a fixed rate; latency is timed
//               from each request's scheduled send time. serve_sweep adds
//               a burst of kBurstSize PU/gcn requests at the start of every
//               other block, each at a prune level the server has never
//               seen. The four finish close together, so each burst is
//               about one sample of fresh latency. (A burst in every block
//               delays a fifth of the hits and lifts the median with it.)
//   saturation  each connection keeps kWindow requests in flight; the
//               completions per second are capacity_rps. After its ramp,
//               each window pins the two service workers apart
//               (WorkerPin).
// The load is kBlocks blocks of [rate | saturation | drain]. p50_ms and
// capacity_rps are medians over the blocks, so a few seconds of a slow
// host move them less; p99_ms pools every block's samples.
// Every RESULT fingerprint is then checked against a solo direct-call
// reference (compile -> run_compiled) computed in this process.

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iterator>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "net/client.hpp"
#include "service/inference_service.hpp"
#include "util/strict_parse.hpp"

extern char** environ;

using namespace dynasparse;

namespace perfbench {

namespace {

constexpr int kSetups = 3;             // fresh servers; setup_s is their median
constexpr int kConnections = 2;
// In flight per connection when saturating: deep enough that the
// server's queue never runs dry between a completion and its refill,
// shallow enough that the queue drains within the block's drain share.
constexpr int kWindow = 32;
constexpr int kBlocks = 8;
constexpr double kRateShare = 0.7;     // of a block: scheduled arrivals
constexpr double kSatShare = 0.2;      // then saturation; the rest drains
constexpr double kSatRamp = 0.15;      // share of a window before counting
// A fifth and a sixth of capacity (~400 req/s on 4 vCPUs for this mix):
// low enough that the percentiles stay clear of the queueing knee even
// when the host runs slow, so they move with per-hit cost rather than
// with the host's momentary speed. With --seconds 24 each run times
// > 1000 requests.
constexpr double kHotRps = 80.0;
constexpr double kSweepRps = 64.0;     // the hot traffic, a little lighter
constexpr double kBurstOffset = 0.5;   // s into each block
constexpr int kBurstSize = 4;
constexpr std::uint64_t kContentSeed = 2023;
constexpr const char* kHost = "127.0.0.1";

/// The server configuration both serving workloads use; everything else
/// stays at dynasparse_serve's defaults.
const std::vector<std::string>& server_flags() {
  static const std::vector<std::string> flags = {"--workers", "2",         "--memoize",
                                                 "64",        "--batch-max", "8"};
  return flags;
}

/// A dynasparse_serve --listen 0 child process.
class ServerProcess {
 public:
  explicit ServerProcess(const std::string& bin) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::vector<std::string> args = {bin, "--listen", "0"};
    for (const std::string& f : server_flags()) args.push_back(f);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + bin);
    }
    try {
      port_ = read_port();
      if (!owns_listener(port_))
        throw std::runtime_error("port " + std::to_string(port_) +
                                 " is not a listening socket of the started server");
    } catch (...) {
      stop();  // the destructor does not run for a throwing constructor
      throw;
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  /// SIGTERM, drain its output, reap it (SIGKILL after 30 s).
  void stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      const auto t0 = Clock::now();
      char buf[4096];
      while (ms_since(t0) < 30000.0) {
        pollfd p{out_fd_, POLLIN, 0};
        if (poll(&p, 1, 100) > 0 && read(out_fd_, buf, sizeof(buf)) <= 0) break;
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          break;
        }
      }
      if (pid_ > 0) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) != pid_) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
        }
        pid_ = -1;
      }
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  /// Read stdout until "listening on HOST:PORT".
  std::uint16_t read_port() {
    std::string text;
    const auto t0 = Clock::now();
    char buf[1024];
    while (ms_since(t0) < 20000.0) {
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
      const std::size_t at = text.find("listening on ");
      if (at == std::string::npos) continue;
      const std::size_t colon = text.find(':', at);
      const std::size_t end = text.find(' ', colon);
      if (colon == std::string::npos || end == std::string::npos) continue;
      return static_cast<std::uint16_t>(strict_stoi(text.substr(colon + 1, end - colon - 1)));
    }
    throw std::runtime_error("server did not report a listening port:\n" + text);
  }

  /// True when a LISTEN socket on `port` (/proc/net/tcp) is one of this
  /// child's open file descriptors — a stale listener cannot pass.
  bool owns_listener(std::uint16_t port) const {
    std::set<std::string> inodes;
    std::ifstream tcp("/proc/net/tcp");
    std::string line;
    std::getline(tcp, line);  // header
    while (std::getline(tcp, line)) {
      std::istringstream is(line);
      std::string sl, local, remote, st, txrx, tr, retr, uid, timeout, inode;
      is >> sl >> local >> remote >> st >> txrx >> tr >> retr >> uid >> timeout >> inode;
      const std::size_t colon = local.find(':');
      if (st == "0A" && colon != std::string::npos &&
          strict_hex_u64(local.substr(colon + 1)) == port)
        inodes.insert("socket:[" + inode + "]");
    }
    const std::string dir = "/proc/" + std::to_string(pid_) + "/fd";
    DIR* d = opendir(dir.c_str());
    if (!d) return false;
    bool found = false;
    while (dirent* e = readdir(d)) {
      char target[256];
      const ssize_t n =
          readlink((dir + "/" + e->d_name).c_str(), target, sizeof(target) - 1);
      if (n > 0 && inodes.count(std::string(target, static_cast<std::size_t>(n)))) found = true;
    }
    closedir(d);
    return found;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Where the phases of each block fall, in ms from the load start.
struct Timeline {
  double block_ms = 0.0;
  double rate_ms() const { return kRateShare * block_ms; }  // per block
  double sat_start(int b) const { return b * block_ms + rate_ms(); }
  double sat_end(int b) const { return sat_start(b) + kSatShare * block_ms; }
  /// Map a point of the concatenated rate segments to real time.
  double real(double rate_t) const {
    const int b = std::min(kBlocks - 1, static_cast<int>(rate_t / rate_ms()));
    return b * block_ms + (rate_t - b * rate_ms());
  }
};

/// The point `ms` milliseconds after `t0`.
Clock::time_point at(Clock::time_point t0, double ms) {
  return t0 + std::chrono::microseconds(static_cast<std::int64_t>(ms * 1e3));
}

/// One request sent over the wire and its fate.
struct Shot {
  int spec = 0;         // index into the spec list (roster, then fresh)
  int phase = 0;        // 0 = rate, 1 = saturation
  double due_ms = 0.0;  // scheduled send, from the load start
  double sent_ms = 0.0;
  double done_ms = 0.0;
  bool answered = false;
  bool ok = false;
  WireResult result;
};

/// One connection's load: per block, the submitter walks that block's
/// scheduled arrivals, then opens the saturation window with kWindow
/// requests; until the window ends, the reaper answers each completion
/// with the next request, so one thread per connection drives it.
class LoadConnection {
 public:
  LoadConnection(std::uint16_t port, std::vector<Shot> schedule,
                 std::vector<int> sat_specs)
      : client_(kHost, port, 30000), schedule_(std::move(schedule)),
        sat_specs_(std::move(sat_specs)) {}

  void run(const std::vector<StreamRequestSpec>& specs, Clock::time_point t0,
           const Timeline& tl) {
    std::thread reaper([&] { reap(specs, t0); });
    try {
      std::size_t next = 0;
      for (int b = 0; b < kBlocks; ++b) {
        for (; next < schedule_.size() && schedule_[next].due_ms < tl.sat_start(b); ++next) {
          std::this_thread::sleep_until(at(t0, schedule_[next].due_ms));
          send(specs, schedule_[next], t0);
        }
        std::this_thread::sleep_until(at(t0, tl.sat_start(b)));
        {
          std::lock_guard<std::mutex> lk(mu_);
          sat_end_ms_ = tl.sat_end(b);
        }
        for (int i = 0; i < kWindow; ++i) send_saturating(specs, t0);
        std::this_thread::sleep_until(at(t0, tl.sat_end(b)));
      }
    } catch (const std::exception& e) {
      std::printf("connection failed while sending: %s\n", e.what());
      std::lock_guard<std::mutex> lk(mu_);
      broken_ = true;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      submit_done_ = true;
    }
    cv_.notify_all();
    reaper.join();
  }

  const std::deque<Shot>& shots() const { return shots_; }

 private:
  void send(const std::vector<StreamRequestSpec>& specs, Shot shot, Clock::time_point t0) {
    std::lock_guard<std::mutex> lk(mu_);
    if (broken_) throw std::runtime_error("connection is broken");
    shot.sent_ms = ms_since(t0);
    const std::uint64_t corr = client_.submit(specs[static_cast<std::size_t>(shot.spec)]);
    shots_.push_back(shot);
    by_corr_[corr] = &shots_.back();
    ++inflight_;
    cv_.notify_all();
  }

  void send_saturating(const std::vector<StreamRequestSpec>& specs, Clock::time_point t0) {
    Shot shot;
    {
      std::lock_guard<std::mutex> lk(mu_);
      shot.spec = sat_specs_[sat_next_++ % sat_specs_.size()];
    }
    shot.phase = 1;
    shot.due_ms = ms_since(t0);
    send(specs, shot, t0);
  }

  void reap(const std::vector<StreamRequestSpec>& specs, Clock::time_point t0) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return inflight_ > 0 || submit_done_ || broken_; });
        if (broken_ || (inflight_ == 0 && submit_done_)) return;
      }
      NetClient::Outcome out;
      try {
        out = client_.await_any();
      } catch (const std::exception& e) {
        std::printf("connection failed while receiving: %s\n", e.what());
        std::lock_guard<std::mutex> lk(mu_);
        broken_ = true;
        cv_.notify_all();
        return;
      }
      const double now = ms_since(t0);
      bool refill = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = by_corr_.find(out.corr);
        if (it == by_corr_.end()) continue;
        it->second->answered = true;
        it->second->ok = out.ok;
        it->second->done_ms = now;
        if (out.ok) it->second->result = out.result;
        refill = it->second->phase == 1 && now < sat_end_ms_;
        by_corr_.erase(it);
        --inflight_;
      }
      if (!refill) continue;
      try {
        send_saturating(specs, t0);
      } catch (const std::exception& e) {
        std::printf("connection failed while sending: %s\n", e.what());
        std::lock_guard<std::mutex> lk(mu_);
        broken_ = true;
        cv_.notify_all();
        return;
      }
    }
  }

  NetClient client_;
  std::vector<Shot> schedule_;
  std::vector<int> sat_specs_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Shot> shots_;  // guarded by mu_; push_back keeps references valid
  std::unordered_map<std::uint64_t, Shot*> by_corr_;
  int inflight_ = 0;
  std::size_t sat_next_ = 0;   // next entry of sat_specs_
  double sat_end_ms_ = 0.0;    // the open saturation window's end
  bool submit_done_ = false;
  bool broken_ = false;
};

/// The synthetic_stream roster plus FL/gcn, at the fixed content seed.
std::vector<StreamRequestSpec> roster() {
  std::vector<StreamRequestSpec> specs = synthetic_stream(5, kContentSeed);
  StreamRequestSpec fl;
  fl.dataset = "FL";
  fl.model = GnnModelKind::kGcn;
  fl.seed = kContentSeed;
  specs.push_back(fl);
  return specs;
}

/// Traffic weight of roster entry `spec`: popularity falls as 1/rank^2,
/// rounded to 36, 9, 4, 2, 1, 1 so one round is 53 requests. PU/gcn is the
/// most popular entry (rank 1), so the median request is a hit whose cost
/// is mostly content hashing (~9 ms on 4 vCPUs) rather than the fixed
/// wake-ups and the server's 1 ms completion tick that the tiny graphs'
/// hits are made of, which follow the host's steal. The small graphs come
/// next in synthetic_stream's order, and FL/gcn — whose hit hashes ~5x
/// PU's content — is the rare heavy hit, about 2%, so p99 sits inside it.
int roster_weight(int spec) {
  // Popularity rank of each roster entry: CI/gcn, CO/gcn, PU/gcn, CI/sage,
  // CO/sage, FL/gcn.
  static const int kRank[] = {2, 3, 1, 4, 5, 6};
  const int rank = kRank[static_cast<std::size_t>(spec)];
  return std::max(1, static_cast<int>(std::lround(36.0 / (rank * rank))));
}

/// Seeded shuffles of one weighted round of the roster, back to back:
/// every `count` prefix holds each entry in proportion to its weight.
std::vector<int> stratified(int roster_size, std::size_t count, std::mt19937_64& rng) {
  std::vector<int> round;
  for (int i = 0; i < roster_size; ++i)
    round.insert(round.end(), static_cast<std::size_t>(roster_weight(i)), i);
  std::vector<int> out;
  while (out.size() < count) {
    std::shuffle(round.begin(), round.end(), rng);
    out.insert(out.end(), round.begin(), round.end());
  }
  out.resize(count);
  return out;
}

struct WarmResult {
  double setup_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<Shot> shots;
};

/// Send every roster entry once, in roster order, one at a time.
WarmResult warm(ServerProcess& server, const std::vector<StreamRequestSpec>& specs,
                int roster_size, Clock::time_point t0) {
  WarmResult w;
  NetClient client(kHost, server.port(), 60000);
  for (int i = 0; i < roster_size; ++i) {
    Shot shot;
    shot.spec = i;
    const auto s0 = Clock::now();
    NetClient::Outcome out = client.await(client.submit(specs[static_cast<std::size_t>(i)]));
    shot.answered = true;
    shot.ok = out.ok;
    if (out.ok) shot.result = out.result;
    w.latency_ms.push_back(ms_since(s0));
    w.shots.push_back(shot);
  }
  w.setup_s = ms_since(t0) / 1e3;
  return w;
}

/// In-process replay of the rate-phase schedule through an
/// InferenceService configured like the server, for the service layer's
/// RequestTiming and counters. Returns requests sent and failed.
std::pair<std::int64_t, std::int64_t> service_replay(
    const std::vector<Shot>& schedule, const std::vector<ServiceRequest>& requests,
    const std::vector<std::uint64_t>& expected, int roster_size, LayerTrace& trace) {
  ServiceOptions so;
  so.workers = 2;
  so.result_cache_capacity = 64;
  so.max_batch_size = 8;
  InferenceService svc(so);
  std::int64_t failed = 0;
  for (int i = 0; i < roster_size; ++i) {  // warm, as the server was
    const std::size_t k = static_cast<std::size_t>(i);
    if (svc.wait(svc.submit(requests[k])).deterministic_fingerprint() != expected[k]) ++failed;
  }
  const PoolStats pool_before = parallel_pool_stats();
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<RequestId, int>> ids;
  bool done = false;
  std::thread waiter([&] {
    for (;;) {
      std::pair<RequestId, int> item;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !ids.empty() || done; });
        if (ids.empty()) return;
        item = ids.front();
        ids.pop_front();
      }
      RequestTiming timing;
      try {
        const std::uint64_t fp = svc.wait(item.first, &timing).deterministic_fingerprint();
        if (fp != expected[static_cast<std::size_t>(item.second)]) ++failed;
      } catch (const std::exception&) {
        ++failed;
      }
      trace.sample("service.queue_ms", timing.queue_ms);
      trace.sample("service.exec_ms", timing.exec_ms);
    }
  });
  const auto t0 = Clock::now();
  for (const Shot& shot : schedule) {
    std::this_thread::sleep_until(at(t0, shot.due_ms));
    const RequestId id = svc.submit(requests[static_cast<std::size_t>(shot.spec)]);
    std::lock_guard<std::mutex> lk(mu);
    ids.emplace_back(id, shot.spec);
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    done = true;
  }
  cv.notify_one();
  waiter.join();
  pool_counters(pool_before, trace);
  service_counters(svc, trace);
  return {static_cast<std::int64_t>(schedule.size()), failed};
}

/// CPU time (user + system) used so far, in seconds, from a process's or
/// a thread's /proc stat file.
double cpu_seconds(const std::string& stat_path) {
  std::ifstream f(stat_path);
  std::string text((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');  // the command name may hold spaces
  if (paren == std::string::npos) return 0.0;
  std::istringstream is(text.substr(paren + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && is >> field; ++i) {  // fields 14 and 15 of stat(5)
    if (i == 14) utime = strict_stod(field);
    if (i == 15) stime = strict_stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string proc_stat(int pid) { return "/proc/" + std::to_string(pid) + "/stat"; }

/// CPU seconds of each thread of process `pid`, by thread id.
std::map<int, double> thread_cpu_seconds(int pid) {
  std::map<int, double> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (!d) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    out[strict_stoi(e->d_name)] = cpu_seconds(dir + "/" + e->d_name + "/stat");
  }
  closedir(d);
  return out;
}

/// For one saturation window: the two threads of a server that used the
/// most CPU since `before` — the two service workers — each pinned to its
/// own vCPU, and given back their own CPU sets at the end. Left alone, the
/// kernel sometimes keeps both workers on one vCPU for seconds while the
/// others idle, which halves throughput (README, Noise).
class WorkerPin {
 public:
  WorkerPin(int pid, const std::map<int, double>& before) {
    std::vector<std::pair<double, int>> used;  // (CPU seconds since before, tid)
    for (const auto& [tid, s] : thread_cpu_seconds(pid)) {
      auto it = before.find(tid);
      used.emplace_back(s - (it == before.end() ? 0.0 : it->second), tid);
    }
    std::sort(used.rbegin(), used.rend());
    cpu_set_t allowed;
    if (used.size() < 2 || sched_getaffinity(used[0].second, sizeof(allowed), &allowed) != 0)
      return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE && cpus.size() < 2; ++c)
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    if (cpus.size() < 2) return;
    for (std::size_t i = 0; i < 2; ++i) {
      Saved saved{used[i].second, {}};
      if (sched_getaffinity(saved.tid, sizeof(saved.cpus), &saved.cpus) != 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i], &one);
      if (sched_setaffinity(saved.tid, sizeof(one), &one) == 0) saved_.push_back(saved);
    }
  }
  ~WorkerPin() {
    for (Saved& s : saved_) (void)sched_setaffinity(s.tid, sizeof(s.cpus), &s.cpus);
  }
  WorkerPin(const WorkerPin&) = delete;
  WorkerPin& operator=(const WorkerPin&) = delete;

 private:
  struct Saved {
    int tid;
    cpu_set_t cpus;
  };
  std::vector<Saved> saved_;
};

/// Run the timeline against `port` over kConnections connections (shot i
/// of `schedule` on connection i % kConnections); returns every shot sent.
/// `window_cpus` gets the CPUs server `pid` kept busy in each saturation
/// window. Once a window has ramped up, the two service workers are
/// pinned apart until it ends.
std::vector<Shot> drive(std::uint16_t port, int pid, const std::vector<Shot>& schedule,
                        const std::vector<int>& sat_specs,
                        const std::vector<StreamRequestSpec>& specs, const Timeline& tl,
                        std::vector<double>& window_cpus) {
  std::vector<std::vector<Shot>> per_conn(kConnections);
  for (std::size_t i = 0; i < schedule.size(); ++i)
    per_conn[i % kConnections].push_back(schedule[i]);
  std::vector<std::unique_ptr<LoadConnection>> conns;
  for (int c = 0; c < kConnections; ++c)
    conns.push_back(std::make_unique<LoadConnection>(port, per_conn[c], sat_specs));
  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> threads;
  for (auto& conn : conns)
    threads.emplace_back([&, c = conn.get()] { c->run(specs, t0, tl); });
  window_cpus.clear();
  for (int b = 0; b < kBlocks; ++b) {
    std::this_thread::sleep_until(at(t0, tl.sat_start(b)));
    const double before = cpu_seconds(proc_stat(pid));
    const double window_ms = tl.sat_end(b) - tl.sat_start(b);
    const std::map<int, double> threads_before = thread_cpu_seconds(pid);
    std::this_thread::sleep_until(at(t0, tl.sat_start(b) + kSatRamp * window_ms));
    {
      const WorkerPin pin(pid, threads_before);
      std::this_thread::sleep_until(at(t0, tl.sat_end(b)));
    }
    window_cpus.push_back((cpu_seconds(proc_stat(pid)) - before) / (window_ms / 1e3));
  }
  for (std::thread& t : threads) t.join();
  std::vector<Shot> shots;
  for (const auto& conn : conns)
    shots.insert(shots.end(), conn->shots().begin(), conn->shots().end());
  return shots;
}

/// Completions per second inside saturation window `b` (after a short
/// ramp), between the window's first and last verified completion.
template <typename Verified>
double window_rps(const std::vector<Shot>& shots, const Timeline& tl, int b,
                  const Verified& verified) {
  const double from = tl.sat_start(b) + kSatRamp * (tl.sat_end(b) - tl.sat_start(b));
  std::vector<double> done;
  for (const Shot& s : shots)
    if (s.phase == 1 && verified(s) && s.done_ms >= from && s.done_ms <= tl.sat_end(b))
      done.push_back(s.done_ms);
  std::sort(done.begin(), done.end());
  return done.size() > 1
             ? static_cast<double>(done.size() - 1) / ((done.back() - done.front()) / 1e3)
             : 0.0;
}

}  // namespace

Result run_serving(const Options& opt) {
  const bool sweep = opt.workload == "serve_sweep";
  Result out;
  LayerTrace trace;
  std::mt19937_64 rng(opt.seed);

  std::vector<StreamRequestSpec> specs = roster();
  const int roster_size = static_cast<int>(specs.size());

  // ---- schedule: Poisson arrivals over the roster, plus sweep bursts --------
  const double rate = sweep ? kSweepRps : kHotRps;
  Timeline tl;
  tl.block_ms = opt.seconds * 1e3 / kBlocks;
  // A Poisson process conditioned on its count: n uniform arrival times
  // over the concatenated rate segments, so every run has n samples.
  const double rate_total_ms = kBlocks * tl.rate_ms();
  const std::size_t n_rate = static_cast<std::size_t>(std::ceil(rate * rate_total_ms / 1e3));
  std::vector<double> due(n_rate);
  std::uniform_real_distribution<double> when(0.0, rate_total_ms);
  for (double& d : due) d = tl.real(when(rng));
  std::sort(due.begin(), due.end());
  std::vector<Shot> schedule;
  const std::vector<int> mix = stratified(roster_size, n_rate, rng);
  for (std::size_t i = 0; i < n_rate; ++i) {
    Shot s;
    s.spec = mix[i];
    s.due_ms = due[i];
    schedule.push_back(s);
  }
  if (sweep) {
    // Request k of a burst draws its prune level from the k-th of
    // kBurstSize equal slices of [0.30, 0.90), so each burst spans the
    // range and its cost depends little on the seed.
    std::uniform_real_distribution<double> jitter(0.0, 1.0);
    const double slice = 0.60 / kBurstSize;
    for (int blk = 0; blk < kBlocks; blk += 2) {
      const double b = blk * tl.block_ms + std::min(kBurstOffset * 1e3, 0.1 * tl.block_ms);
      for (int k = 0; k < kBurstSize; ++k) {
        StreamRequestSpec fresh;
        fresh.dataset = "PU";
        fresh.model = GnnModelKind::kGcn;
        fresh.seed = kContentSeed;
        // Rounded to 1e-6 so the level survives the wire encoding as-is.
        fresh.prune = std::round((0.30 + slice * (k + jitter(rng))) * 1e6) / 1e6;
        specs.push_back(fresh);
        Shot s;
        s.spec = static_cast<int>(specs.size()) - 1;
        s.due_ms = b;
        schedule.push_back(s);
      }
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Shot& a, const Shot& b) { return a.due_ms < b.due_ms; });
  }
  std::size_t round = 0;  // whole weighted rounds keep the saturation mix exact
  for (int i = 0; i < roster_size; ++i) round += static_cast<std::size_t>(roster_weight(i));
  const std::vector<int> sat_specs = stratified(roster_size, 10 * round, rng);

  // ---- set-up: fresh servers, each warmed with the roster; the last one
  // ---- takes the load
  std::vector<double> setup_s;
  std::vector<std::vector<double>> warm_ms(static_cast<std::size_t>(roster_size));
  std::vector<Shot> warm_shots;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<ServerProcess>(opt.serve_bin);
    WarmResult w = warm(*server, specs, roster_size, t0);
    setup_s.push_back(w.setup_s);
    for (std::size_t k = 0; k < warm_ms.size(); ++k) warm_ms[k].push_back(w.latency_ms[k]);
    warm_shots.insert(warm_shots.end(), w.shots.begin(), w.shots.end());
  }
  std::printf("server pid %d bound 127.0.0.1:%u (confirmed); flags:", server->pid(),
              server->port());
  for (const std::string& f : server_flags()) std::printf(" %s", f.c_str());
  std::printf("\n");

  // ---- load ------------------------------------------------------------------
  std::vector<double> window_cpus;
  const std::vector<Shot> shots =
      drive(server->port(), server->pid(), schedule, sat_specs, specs, tl, window_cpus);
  const double rss_mb = peak_rss_mb(server->pid());
  server.reset();

  // ---- references: solo compile -> run_compiled on the same inputs ----------
  std::vector<Cell> cells;
  std::vector<ServiceRequest> requests;  // the materialized content, per spec
  for (const StreamRequestSpec& spec : specs) requests.push_back(materialize_request(spec));
  for (int i = 0; i < roster_size; ++i) {
    const ServiceRequest& r = requests[static_cast<std::size_t>(i)];
    Cell c;
    c.tag = specs[static_cast<std::size_t>(i)].dataset;
    c.kind = specs[static_cast<std::size_t>(i)].model;
    c.ds = r.dataset;
    c.dense = r.model;
    GnnModel pruned = *r.model;
    prune_model(pruned, kPrunedSparsity);
    c.pruned = std::make_shared<const GnnModel>(std::move(pruned));
    cells.push_back(std::move(c));
  }
  const std::vector<CellRef> refs = reference_cells(cells, opt.trace ? &trace : nullptr);
  std::vector<std::uint64_t> expected;
  for (const CellRef& r : refs) expected.push_back(r.dense.fingerprint[kDynamicIdx]);
  for (std::size_t i = static_cast<std::size_t>(roster_size); i < specs.size(); ++i)
    expected.push_back(reference_fingerprint(*requests[i].model, *requests[i].dataset));

  // ---- verify + per-phase accounting ------------------------------------------
  // Scheduled requests that never left the client count as failed too.
  const std::size_t unsent = schedule.size() -
      static_cast<std::size_t>(std::count_if(shots.begin(), shots.end(),
                                             [](const Shot& s) { return s.phase == 0; }));
  auto verified = [&](const Shot& s) {
    return s.answered && s.ok &&
           s.result.fingerprint == expected[static_cast<std::size_t>(s.spec)];
  };
  auto report_phase = [&](const char* name, const std::vector<const Shot*>& phase,
                          std::size_t missing) {
    std::int64_t ok = 0;
    for (const Shot* s : phase) {
      const bool v = verified(*s);
      out.count(v);
      ok += v;
    }
    for (std::size_t i = 0; i < missing; ++i) out.count(false);
    std::printf("phase %s: sent %zu, succeeded %lld, failed %lld\n", name,
                phase.size() + missing, static_cast<long long>(ok),
                static_cast<long long>(static_cast<std::int64_t>(phase.size() + missing) - ok));
  };
  std::vector<const Shot*> warm_phase, rate_phase, sat_phase;
  for (const Shot& s : warm_shots) warm_phase.push_back(&s);
  for (const Shot& s : shots) (s.phase == 0 ? rate_phase : sat_phase).push_back(&s);
  report_phase("warm", warm_phase, 0);
  report_phase("rate", rate_phase, unsent);
  report_phase("saturation", sat_phase, 0);

  // ---- metrics -------------------------------------------------------------------
  std::vector<double> latency, burst_latency, late, server_ms, overhead_ms;
  for (const Shot* s : rate_phase) {
    late.push_back(s->sent_ms - s->due_ms);
    if (!verified(*s)) continue;
    const double ms = s->done_ms - s->due_ms;
    latency.push_back(ms);
    if (s->spec >= roster_size) burst_latency.push_back(ms);
    server_ms.push_back(s->result.server_ms);
    overhead_ms.push_back(s->done_ms - s->sent_ms - s->result.server_ms);
  }
  // Per block: the median latency of its scheduled requests and the
  // saturation window's throughput.
  std::vector<double> block_p50, block_rps;
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<double> lat;
    for (const Shot* s : rate_phase)
      if (verified(*s) && s->due_ms >= b * tl.block_ms && s->due_ms < tl.sat_start(b))
        lat.push_back(s->done_ms - s->due_ms);
    if (!lat.empty()) block_p50.push_back(median(lat));
    block_rps.push_back(window_rps(shots, tl, b, verified));
  }
  const double capacity = median(block_rps);
  std::printf("saturation windows (req/s at server CPUs busy):");
  for (int b = 0; b < kBlocks; ++b)
    std::printf(" %.1f at %.2f", block_rps[static_cast<std::size_t>(b)],
                window_cpus[static_cast<std::size_t>(b)]);
  std::printf("\n");
  const double p50 = median(block_p50), p99 = percentile(latency, 99);
  const double late_p99 = percentile(late, 99);
  std::printf("rate phase: %zu samples at %.0f req/s; p50 %.2f ms, p99 %.2f ms; "
              "generator late p99 %.2f ms, max %.2f ms\n",
              latency.size(), rate, p50, p99, late_p99, percentile(late, 100));
  if (late_p99 > 0.1 * p99)
    std::printf("WARNING: generator lateness (p99 %.2f ms) is over 10%% of p99 latency; "
                "this run measured the client, not the server\n", late_p99);

  out.set("setup_s", median(setup_s), "s");
  out.set("ok_frac", 1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "frac");
  out.set("peak_rss_mb", rss_mb, "MB");
  out.set("p50_ms", p50, "ms");
  out.set("p99_ms", p99, "ms");
  out.set("capacity_rps", capacity, "1/s");
  // serve_hot's fresh requests are the warm-ups: each roster entry's
  // median over the set-ups, then the geometric mean over entries, so every
  // entry counts and no single one decides the figure. (A median over
  // entries fell between two entries whose costs differ by ~2x, and one
  // slow copy of either moved it.)
  std::vector<double> fresh_ms;
  for (const std::vector<double>& entry : warm_ms) fresh_ms.push_back(median(entry));
  out.set("fresh_p50_ms", sweep ? median(burst_latency) : geomean(fresh_ms), "ms");
  fidelity_metrics(refs, out);

  if (opt.trace) {
    // Graph and model layers on the roster's content, as the server builds it.
    for (const StreamRequestSpec& spec : roster()) {
      auto ds = timed_generate(spec.dataset, spec.seed, &trace);
      (void)timed_build(spec.model, *ds, spec.seed + 1, spec.prune, &trace);
    }
    wire_probe(specs, trace);
    const auto [sent, failed] = service_replay(schedule, requests, expected, roster_size, trace);
    std::printf("phase replay (in-process service): sent %lld, failed %lld\n",
                static_cast<long long>(sent), static_cast<long long>(failed));
    for (std::int64_t i = 0; i < sent; ++i) out.count(i >= failed);
    trace.set("net.server_ms_p50", percentile(server_ms, 50));
    trace.set("net.server_ms_p99", percentile(server_ms, 99));
    trace.set("net.overhead_ms_p50", percentile(overhead_ms, 50));
    trace.set("net.overhead_ms_p99", percentile(overhead_ms, 99));
    trace.set("loadgen.late_ms_p99", late_p99);
    trace.set("loadgen.late_ms_max", percentile(late, 100));
    trace.set("traced.p50_ms", p50);
    trace.set("traced.p99_ms", p99);
    trace.set("traced.capacity_rps", capacity);
    count_probes(trace, out);
    out.metrics.clear();
    layer_metrics(trace, out);
  }
  return out;
}

}  // namespace perfbench
