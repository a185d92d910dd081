// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--input I] [--trace-out FILE]
//
// run.py builds it and forwards the arguments; the last stdout line is the
// JSON result. The harness sets CCA_THREADS to the workload's thread count
// before anything reads it, because cca::parallel_workers() latches the
// variable on its first call. One run:
//   1. set-up, repeated kSetupReps times (median reported as setup_s):
//      seeded cohort generation, reference answers, socket-mesh wiring
//      (count_socket_p2) and one untimed warm-up instance;
//   2. a closed loop of instances over the cohort for --seconds (at least
//      one full cohort pass), every answer checked against the reference;
//   3. with --trace 1 the time is split: an untraced half (the overhead
//      baseline) and a traced half whose spans go to --trace-out as Chrome
//      trace-event JSON, plus the local-kernel and empty-region probes.
// Every repeat of a cohort input must charge bit-identical rounds, words,
// supersteps and parallel regions, on every rank; any drift fails the run.
// The "# exact" lines let run.py hold the processes of one run to the same;
// the "# walls" lines let it pool the wall times of its processes.
#include <sys/resource.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clique/socket_transport.hpp"
#include "harness.hpp"
#include "matrix/kernels.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;
constexpr std::size_t kMaxSpansPerRank = 50000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  int input = -1;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--input I] "
               "[--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--input") o.input = std::stoi(value());
    else if (a == "--trace-out") o.trace_out = value();
    else usage("unknown argument " + a);
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Wall times of one phase, kept per cohort input.
using Walls = std::map<int, std::vector<double>>;

std::size_t sample_count(const Walls& w) {
  std::size_t n = 0;
  for (const auto& [input, v] : w) n += v.size();
  return n;
}

/// The timing figures of a phase, taken over the cohort: each input's
/// median wall time, then the quantiles of those medians, and the cohort
/// size over their sum. A slow stretch of the host that hits a few
/// instances moves an input's median little, and how far the loop got
/// through its last cohort pass does not change the mix.
struct CohortTimes {
  double p50 = 0;
  double p90 = 0;
  double per_s = 0;
};

CohortTimes cohort_times(const Walls& w) {
  std::vector<double> medians;
  double sum = 0;
  for (const auto& [input, v] : w) {
    medians.push_back(median(v));
    sum += medians.back();
  }
  if (medians.empty()) return {};
  return {quantile(medians, 0.5), quantile(medians, 0.9),
          sum > 0 ? static_cast<double>(medians.size()) / sum : 0};
}

struct Usage {
  double cpu_s = 0;
  double sys_s = 0;
};

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime) + sec(ru.ru_stime), sec(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host-drift probe: a fixed dependent integer loop that touches no repo
/// code, so a slow neighbour shows up here rather than as a regression.
double host_calibration_s() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const std::int64_t t1 = now_ns();
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Epoch of a one-index probe region. Every parallel_for call (serial
/// fallback included) draws the next epoch from one process-wide counter,
/// so the difference of two probes minus one counts the regions between.
std::uint64_t probe_epoch() {
  std::uint64_t e = 0;
  cca::parallel_for(0, 1, [&](int) { e = cca::parallel_region_epoch(); });
  return e;
}

// ---------------------------------------------------------------------------
// Executors: where one instance runs
// ---------------------------------------------------------------------------

struct RankRun {
  Outcome out;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  LayerCounters layers;
  std::string error;
};

using cca::clique::TransportScope;

/// Runs `w.run(input)` on the calling thread under the rank's data plane
/// (`plain`, or the default arena when null), wrapped in the tracing
/// decorator when `tracer` is set.
RankRun run_rank(const Workload& w, int input, std::int64_t id, Tracer* tracer,
                 const TransportScope::Factory* plain) {
  RankRun r;
  try {
    std::optional<TransportScope> scope;
    if (tracer != nullptr) {
      scope.emplace(traced_factory(
          plain != nullptr ? *plain : TransportScope::Factory([](int n) {
            return std::make_unique<cca::clique::ArenaTransport>(n);
          }),
          *tracer));
      tracer->counters = {};
      tracer->begin_instance(id);
    } else if (plain != nullptr) {
      scope.emplace(*plain);
    }
    r.start_ns = now_ns();
    r.out = w.run(input);
    r.end_ns = now_ns();
    if (tracer != nullptr) {
      tracer->end_instance();
      r.layers = tracer->counters;
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

class Executor {
 public:
  virtual ~Executor() = default;
  /// Runs cohort input `input` as instance `id` on every rank and returns
  /// once every rank has returned.
  virtual std::vector<RankRun> run(int input, std::int64_t id, bool traced) = 0;
  [[nodiscard]] virtual std::vector<const Tracer*> tracers() const = 0;
};

class LocalExecutor final : public Executor {
 public:
  explicit LocalExecutor(const Workload& w) : w_(w), tracer_(0, kMaxSpansPerRank) {}

  std::vector<RankRun> run(int input, std::int64_t id, bool traced) override {
    return {run_rank(w_, input, id, traced ? &tracer_ : nullptr, nullptr)};
  }
  std::vector<const Tracer*> tracers() const override { return {&tracer_}; }

 private:
  const Workload& w_;
  Tracer tracer_;
};

/// P rank threads in this process, each owning one rank of a full mesh of
/// loopback TCP connections (ephemeral ports, so concurrent runs on one
/// host cannot collide). Every rank runs the same public call under
/// TransportScope(SocketTransport::factory(mesh)).
class SocketExecutor final : public Executor {
 public:
  SocketExecutor(const Workload& w, int ranks) : w_(w), ranks_(ranks) {
    std::vector<std::vector<int>> fds(static_cast<std::size_t>(ranks),
                                      std::vector<int>(static_cast<std::size_t>(ranks), -1));
    try {
      for (int a = 0; a < ranks; ++a)
        for (int b = a + 1; b < ranks; ++b) {
          const auto [fa, fb] = loopback_pair();
          fds[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = fa;
          fds[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = fb;
        }
    } catch (...) {
      for (const auto& row : fds)
        for (const int fd : row)
          if (fd >= 0) ::close(fd);
      throw;
    }
    for (int r = 0; r < ranks; ++r) {
      for (const int fd : fds[static_cast<std::size_t>(r)])
        if (fd >= 0) all_fds_.push_back(fd);
      auto mesh = std::make_shared<cca::clique::SocketMesh>(
          r, ranks, fds[static_cast<std::size_t>(r)]);
      factories_.push_back(cca::clique::SocketTransport::factory(mesh));
      tracers_.push_back(std::make_unique<Tracer>(r, kMaxSpansPerRank));
    }
    results_.resize(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) threads_.emplace_back([this, r] { rank_loop(r); });
  }

  ~SocketExecutor() override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  SocketExecutor(const SocketExecutor&) = delete;
  SocketExecutor& operator=(const SocketExecutor&) = delete;

  std::vector<RankRun> run(int input, std::int64_t id, bool traced) override {
    std::unique_lock<std::mutex> lock(mu_);
    job_input_ = input;
    job_id_ = id;
    job_traced_ = traced;
    done_ = 0;
    ++generation_;
    cv_.notify_all();
    done_cv_.wait(lock, [&] { return done_ == ranks_; });
    return results_;
  }

  std::vector<const Tracer*> tracers() const override {
    std::vector<const Tracer*> out;
    for (const auto& t : tracers_) out.push_back(t.get());
    return out;
  }

 private:
  static std::pair<int, int> loopback_pair() {
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (lfd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(lfd, 1) != 0 ||
        ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(lfd);
      throw std::runtime_error("loopback listen failed");
    }
    const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (cfd < 0 || ::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (cfd >= 0) ::close(cfd);
      ::close(lfd);
      throw std::runtime_error("loopback connect failed");
    }
    const int afd = ::accept(lfd, nullptr, nullptr);
    ::close(lfd);
    if (afd < 0) {
      ::close(cfd);
      throw std::runtime_error("loopback accept failed");
    }
    return {cfd, afd};
  }

  void rank_loop(int r) {
    std::uint64_t seen = 0;
    for (;;) {
      int input = 0;
      std::int64_t id = 0;
      bool traced = false;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        input = job_input_;
        id = job_id_;
        traced = job_traced_;
      }
      RankRun res = run_rank(w_, input, id,
                             traced ? tracers_[static_cast<std::size_t>(r)].get() : nullptr,
                             &factories_[static_cast<std::size_t>(r)]);
      if (!res.error.empty()) {
        // A failed rank would leave its peers blocked in the exchange:
        // shut the mesh down so they fail promptly too.
        for (const int fd : all_fds_) ::shutdown(fd, SHUT_RDWR);
      }
      {
        const std::lock_guard<std::mutex> lock(mu_);
        results_[static_cast<std::size_t>(r)] = std::move(res);
        ++done_;
      }
      done_cv_.notify_one();
    }
  }

  const Workload& w_;
  int ranks_;
  std::vector<int> all_fds_;  // owned by the meshes; kept for emergency shutdown
  std::vector<TransportScope::Factory> factories_;
  std::vector<std::unique_ptr<Tracer>> tracers_;

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  int job_input_ = 0;
  std::int64_t job_id_ = 0;
  bool job_traced_ = false;
  int done_ = 0;
  bool stop_ = false;
  std::vector<RankRun> results_;

  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

std::unique_ptr<Executor> make_executor(const Workload& w) {
  if (w.ranks() == 1) return std::make_unique<LocalExecutor>(w);
  return std::make_unique<SocketExecutor>(w, w.ranks());
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// The deterministic cost of one cohort input, recorded at its first run.
struct Exact {
  cca::clique::TrafficStats traffic;
  std::int64_t regions = 0;
  int trials = 0;
  std::int64_t sparse_choices = 0;
  std::int64_t dispatch_choices = 0;
};

/// Sums of the traced layer split, per rank-instance.
struct LayerSums {
  std::int64_t rank_instances = 0;
  double span_s = 0;
  double deliver_s = 0;
  double schedule_s = 0;
  double sidechannel_s = 0;
  double delivers = 0;
  double words = 0;
  double skew_s = 0;
  std::int64_t instances = 0;
};

struct Phase {
  Walls walls;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Usage usage;
  LayerSums layers;
};

class Runner {
 public:
  Runner(const Options& o, Workload& w, Executor& ex) : o_(o), w_(w), ex_(ex) {
    for (int i = 0; i < w.cohort(); ++i)
      if (o.input < 0 || o.input == i) inputs_.push_back(i);
    if (inputs_.empty()) usage("--input is outside the cohort");
  }

  /// The closed loop: instances back to back for `seconds`, and at least
  /// one pass over the cohort.
  Phase loop(double seconds, bool traced) {
    Phase p;
    const Usage u0 = process_usage();
    const double t_end = now_s() + seconds;
    for (std::size_t k = 0; k < inputs_.size() || now_s() < t_end; ++k) {
      const int input = inputs_[k % inputs_.size()];
      one(p, input, traced);
      if (fatal_) break;
    }
    const Usage u1 = process_usage();
    p.usage = {u1.cpu_s - u0.cpu_s, u1.sys_s - u0.sys_s};
    return p;
  }

  /// The untimed warm-up instance of set-up (checked like any other).
  void warm_up() {
    Phase p;
    one(p, inputs_.front(), false);
    if (p.failed > 0) fatal_ = true;
  }

  [[nodiscard]] bool fatal() const noexcept { return fatal_; }
  [[nodiscard]] const std::map<int, Exact>& exact() const noexcept { return exact_; }
  void fail(const std::string& why) {
    std::printf("FAIL %s\n", why.c_str());
    fatal_ = true;
  }

 private:
  void one(Phase& p, int input, bool traced) {
    const std::int64_t id = next_id_++;
    const std::uint64_t e0 = probe_epoch();
    const std::int64_t t0 = now_ns();
    const std::vector<RankRun> ranks = ex_.run(input, id, traced);
    const std::int64_t t1 = now_ns();
    const std::uint64_t e1 = probe_epoch();
    const auto regions = static_cast<std::int64_t>(e1 - e0) - 1;
    ++p.attempted;

    std::string bad;
    for (std::size_t r = 0; r < ranks.size() && bad.empty(); ++r) {
      if (!ranks[r].error.empty())
        bad = "rank " + std::to_string(r) + " threw: " + ranks[r].error;
      else if (std::string why = w_.check(input, ranks[r].out); !why.empty())
        bad = "rank " + std::to_string(r) + ": " + why;
    }
    if (!bad.empty()) {
      ++p.failed;
      std::printf(
          "MISMATCH workload=%s seed=%llu instance=%lld input=%d: %s | replay: "
          "python3 perfbench/run.py --workload %s --seed %llu --seconds 1 "
          "--trace 0 --input %d%s\n",
          w_.name(), static_cast<unsigned long long>(o_.seed),
          static_cast<long long>(id), input, bad.c_str(), w_.name(),
          static_cast<unsigned long long>(o_.seed), input, o_.smoke ? " --smoke" : "");
      for (const RankRun& r : ranks)
        if (!r.error.empty()) fatal_ = true;  // a socket rank shuts the mesh down
      return;
    }
    p.walls[input].push_back(static_cast<double>(t1 - t0) * 1e-9);
    guard_exactness(input, ranks, regions);
    if (traced) add_layers(p.layers, ranks);
  }

  void guard_exactness(int input, const std::vector<RankRun>& ranks,
                       std::int64_t regions) {
    const auto& t0 = ranks.front().out.traffic;
    for (std::size_t r = 1; r < ranks.size(); ++r) {
      const auto& t = ranks[r].out.traffic;
      if (t.rounds != t0.rounds || t.total_words != t0.total_words ||
          t.supersteps != t0.supersteps)
        fail("EXACTNESS rank " + std::to_string(r) + " disagrees with rank 0 on input " +
             std::to_string(input) + ": rounds " + std::to_string(t.rounds) + " vs " +
             std::to_string(t0.rounds));
    }
    const Outcome& o = ranks.front().out;
    const auto [it, fresh] = exact_.try_emplace(
        input, Exact{t0, regions, o.trials, o.sparse_choices, o.dispatch_choices});
    if (fresh) return;
    const Exact& e = it->second;
    if (e.traffic.rounds != t0.rounds || e.traffic.total_words != t0.total_words ||
        e.traffic.supersteps != t0.supersteps || e.regions != regions)
      fail("EXACTNESS input " + std::to_string(input) + " drifted between repeats: " +
           "rounds " + std::to_string(e.traffic.rounds) + "->" + std::to_string(t0.rounds) +
           " words " + std::to_string(e.traffic.total_words) + "->" +
           std::to_string(t0.total_words) + " supersteps " +
           std::to_string(e.traffic.supersteps) + "->" + std::to_string(t0.supersteps) +
           " regions " + std::to_string(e.regions) + "->" + std::to_string(regions));
  }

  void add_layers(LayerSums& s, const std::vector<RankRun>& ranks) {
    std::int64_t first_end = ranks.front().end_ns;
    std::int64_t last_end = first_end;
    for (const RankRun& r : ranks) {
      const double span = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      const double deliver = static_cast<double>(r.layers.deliver_ns) * 1e-9;
      const double sched = static_cast<double>(r.out.traffic.schedule_wall_ns) * 1e-9;
      if (deliver + sched > span)
        fail("TRACE split exceeds the instance span: deliver " + std::to_string(deliver) +
             " + schedule " + std::to_string(sched) + " > span " + std::to_string(span));
      s.span_s += span;
      s.deliver_s += deliver;
      s.schedule_s += sched;
      s.sidechannel_s += static_cast<double>(r.layers.sidechannel_ns) * 1e-9;
      s.delivers += static_cast<double>(r.layers.delivers);
      s.words += static_cast<double>(r.layers.words);
      ++s.rank_instances;
      first_end = std::min(first_end, r.end_ns);
      last_end = std::max(last_end, r.end_ns);
    }
    s.skew_s += static_cast<double>(last_end - first_end) * 1e-9;
    ++s.instances;
  }

  const Options& o_;
  Workload& w_;
  Executor& ex_;
  std::vector<int> inputs_;
  std::map<int, Exact> exact_;
  std::int64_t next_id_ = 0;
  bool fatal_ = false;
};

/// matrix.*: the local kernel at the block shape this workload's engines
/// multiply, timed directly. Returns {ns per multiply-add, ops per call,
/// bytes per call}.
struct KernelFigures {
  double ns_per_op = 0;
  double ops = 0;
  double bytes = 0;
};

KernelFigures kernel_probe(KernelShape shape, std::uint64_t seed, double seconds) {
  const int b = shape.block;
  cca::Rng rng(seed);
  cca::Matrix<std::int64_t> x(b, b, 0);
  cca::Matrix<std::int64_t> y(b, b, 0);
  for (int i = 0; i < b; ++i)
    for (int j = 0; j < b; ++j) {
      x(i, j) = rng.next_in(1, 50);
      y(i, j) = rng.next_in(1, 50);
    }
  auto once = [&]() -> std::int64_t {
    if (shape.algebra == KernelAlgebra::MinPlus)
      return cca::local_multiply(cca::MinPlusSemiring{}, x, y)(b - 1, b - 1);
    return cca::local_multiply(cca::IntRing{}, x, y)(b - 1, b - 1);
  };
  const double ops = static_cast<double>(b) * b * b;
  int reps = 1;
  std::int64_t sink = 0;
  for (;;) {  // size a batch to ~5 ms
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < reps; ++r) sink += once();
    if (now_ns() - t0 > 5'000'000 || reps > (1 << 24)) break;
    reps *= 2;
  }
  std::vector<double> per_op;
  const double t_end = now_s() + seconds;
  while (now_s() < t_end || per_op.size() < 5) {
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < reps; ++r) sink += once();
    per_op.push_back(static_cast<double>(now_ns() - t0) / (reps * ops));
  }
  volatile std::int64_t keep = sink;
  (void)keep;
  return {median(per_op), ops, 3.0 * b * b * static_cast<double>(sizeof(std::int64_t))};
}

/// util.parallel.region_us: one empty parallel_for over the worker count.
double region_probe_us(double seconds) {
  const int w = cca::parallel_workers();
  constexpr int kBatch = 200;
  std::vector<double> per;
  const double t_end = now_s() + seconds;
  while (now_s() < t_end || per.size() < 5) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) cca::parallel_for(0, w, [](int) {});
    per.push_back(static_cast<double>(now_ns() - t0) * 1e-3 / kBatch);
  }
  return median(per);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void emit(bool correct, std::int64_t attempted, std::int64_t failed,
          const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-32s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

int run(const Options& o) {
  const int want = make_workload(o.workload)->threads();
  ::setenv("CCA_THREADS", std::to_string(want).c_str(), 1);
  const int threads = cca::parallel_workers();
  if (threads != want)
    throw std::runtime_error("CCA_THREADS was latched at " + std::to_string(threads) +
                             " before the harness set it to " + std::to_string(want));
  const double calib_start = host_calibration_s();

  // Set-up, repeated; the last repetition's state is measured.
  std::vector<double> setup_s, gen_s, ref_s;
  std::unique_ptr<Workload> w;
  std::unique_ptr<Executor> ex;
  std::unique_ptr<Runner> runner;
  const int reps = o.smoke ? 2 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    runner.reset();
    ex.reset();
    w.reset();
    const double t0 = now_s();
    w = make_workload(o.workload);
    w->generate(o.seed, o.smoke);
    const double t1 = now_s();
    w->reference();
    const double t2 = now_s();
    ex = make_executor(*w);
    runner = std::make_unique<Runner>(o, *w, *ex);
    runner->warm_up();
    const double t3 = now_s();
    setup_s.push_back(t3 - t0);
    gen_s.push_back(t1 - t0);
    ref_s.push_back(t2 - t1);
  }

  std::ostringstream cfg;
  cfg << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
      << ",\"seconds\":" << o.seconds << ",\"trace\":" << (o.trace ? 1 : 0)
      << ",\"smoke\":" << (o.smoke ? "true" : "false") << ",\"threads\":" << threads
      << ",\"ranks\":" << w->ranks() << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cohort\":" << w->cohort() << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
      << "\",\"compiler\":\"" << PERFBENCH_COMPILER << "\",\"loop\":\"closed, 1 caller\"}";
  std::printf("# config %s\n", cfg.str().c_str());

  const double measure_s = o.trace ? o.seconds / 2 : o.seconds;
  const Phase plain = runner->loop(measure_s, false);
  Phase traced;
  if (o.trace && !runner->fatal()) traced = runner->loop(measure_s, true);
  const double calib_end = host_calibration_s();

  const std::int64_t attempted = plain.attempted + traced.attempted;
  const std::int64_t failed = plain.failed + traced.failed;
  const bool correct = failed == 0 && !runner->fatal();
  std::printf("# samples %zu untraced, %zu traced; host.calib_s start %.4f end %.4f\n",
              sample_count(plain.walls), sample_count(traced.walls), calib_start, calib_end);
  // Every set-up time, so run.py can take the median over its processes.
  std::printf("# setup_s");
  for (const double x : setup_s) std::printf(" %.9g", x);
  std::printf("\n");
  // Every untimed wall time, so run.py can pool them over its processes.
  for (const auto& [input, v] : plain.walls) {
    std::printf("# walls %d", input);
    for (const double x : v) std::printf(" %.9g", x);
    std::printf("\n");
  }
  // The exact cost of every cohort input run, for run.py's cross-process check.
  const auto& exact = runner->exact();
  for (const auto& [input, e] : exact)
    std::printf("# exact %d %lld %lld %lld %lld\n", input,
                static_cast<long long>(e.traffic.rounds),
                static_cast<long long>(e.traffic.total_words),
                static_cast<long long>(e.traffic.supersteps),
                static_cast<long long>(e.regions));

  // Exact per-instance costs: the mean over the cohort inputs run.
  auto cohort_mean = [&](auto field) {
    double s = 0;
    for (const auto& [input, e] : exact) s += static_cast<double>(field(e));
    return exact.empty() ? 0.0 : s / static_cast<double>(exact.size());
  };

  std::vector<Metric> m;
  if (!o.trace) {
    const CohortTimes t = cohort_times(plain.walls);
    m = {
        {"solve_s_p50", t.p50, "s"},
        {"solve_s_p90", t.p90, "s"},
        {"instances_per_s", t.per_s, "1/s"},
        {"rounds", cohort_mean([](const Exact& e) { return e.traffic.rounds; }), "rounds"},
        {"total_words", cohort_mean([](const Exact& e) { return e.traffic.total_words; }),
         "words"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ok_frac",
         attempted > 0 ? static_cast<double>(attempted - failed) / static_cast<double>(attempted)
                       : 0,
         "ratio"},
    };
  } else {
    const LayerSums& L = traced.layers;
    const double ri = L.rank_instances > 0 ? static_cast<double>(L.rank_instances) : 1;
    const double span = L.span_s / ri;
    const double deliver = L.deliver_s / ri;
    const double sched = L.schedule_s / ri;
    const double plain_p50 = cohort_times(plain.walls).p50;
    const double traced_p50 = cohort_times(traced.walls).p50;
    const double instances =
        std::max<double>(1, static_cast<double>(sample_count(plain.walls)));
    const double regions = cohort_mean([](const Exact& e) { return e.regions; });
    const double region_us = region_probe_us(0.2);
    const KernelFigures k = kernel_probe(w->kernel(), o.seed, 0.3);
    const double dispatch = cohort_mean([](const Exact& e) { return e.dispatch_choices; });
    const double rounds = cohort_mean([](const Exact& e) { return e.traffic.rounds; });
    const double bound = cohort_mean([](const Exact& e) { return e.traffic.bound_rounds; });
    m = {
        {"core.compute_s", span - deliver - sched, "s"},
        {"core.dispatch.sparse_frac",
         dispatch > 0 ? cohort_mean([](const Exact& e) { return e.sparse_choices; }) / dispatch
                      : 0,
         "ratio"},
        {"core.trials", cohort_mean([](const Exact& e) { return e.trials; }), "count"},
        {"clique.schedule_s", sched, "s"},
        {"clique.schedule_hits", cohort_mean([](const Exact& e) { return e.traffic.schedule_hits; }),
         "count"},
        {"clique.schedule_misses",
         cohort_mean([](const Exact& e) { return e.traffic.schedule_misses; }), "count"},
        {"clique.supersteps", cohort_mean([](const Exact& e) { return e.traffic.supersteps; }),
         "count"},
        {"clique.bound_ratio", bound > 0 ? rounds / bound : 0, "ratio"},
        {"clique.transport.deliver_s", deliver, "s"},
        {"clique.transport.delivers", L.delivers / ri, "count"},
        {"clique.transport.words", L.words / ri, "words"},
        {"clique.transport.sidechannel_s", L.sidechannel_s / ri, "s"},
        {"clique.transport.rank_skew_s",
         L.instances > 0 ? L.skew_s / static_cast<double>(L.instances) : 0, "s"},
        {"util.parallel.regions", regions, "count"},
        {"util.parallel.region_us", region_us, "us"},
        {"util.parallel.overhead_frac", plain_p50 > 0 ? regions * region_us * 1e-6 / plain_p50 : 0,
         "ratio"},
        {"matrix.kernel_ns_per_op", k.ns_per_op, "ns"},
        {"matrix.ops", k.ops, "count"},
        {"matrix.bytes_computed", k.bytes, "bytes"},
        {"proc.cpu_s", plain.usage.cpu_s / instances, "s"},
        {"proc.sys_s", plain.usage.sys_s / instances, "s"},
        {"graph.generate_s", median(gen_s), "s"},
        {"graph.reference_s", median(ref_s), "s"},
        {"host.calib_s", (calib_start + calib_end) / 2, "s"},
        {"trace.instance_s", span, "s"},
        {"trace.overhead_frac", plain_p50 > 0 ? traced_p50 / plain_p50 - 1 : 0, "ratio"},
        {"bench.samples",
         static_cast<double>(sample_count(plain.walls) + sample_count(traced.walls)), "count"},
    };
    if (!o.trace_out.empty()) {
      std::ostringstream meta;
      std::string c = cfg.str();
      c.pop_back();
      meta << c << ",\"spans_dropped\":";
      std::int64_t dropped = 0;
      for (const Tracer* t : ex->tracers()) dropped += t->dropped();
      meta << dropped << "}";
      write_chrome_trace(o.trace_out, ex->tracers(), meta.str());
      std::printf("# trace written to %s (%lld spans dropped past the cap)\n",
                  o.trace_out.c_str(), static_cast<long long>(dropped));
    }
  }
  emit(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
