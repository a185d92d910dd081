// Shared types of the benchmark harness.
//
// The harness drives the simulator only through its public seams: the core
// entry points, clique::TransportScope with a forwarding Transport
// decorator (trace.cpp), TrafficStats, cca::parallel_region_epoch() and
// direct cca::local_multiply / cca::parallel_for calls. Nothing here
// reaches into src/ internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clique/network.hpp"
#include "clique/transport.hpp"
#include "core/apsp.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// ---------------------------------------------------------------------------
// Tracing (trace.cpp)
// ---------------------------------------------------------------------------

/// Transport-layer totals one rank accumulates while its decorator is live.
struct LayerCounters {
  std::int64_t deliver_ns = 0;
  std::int64_t delivers = 0;
  std::int64_t words = 0;
  std::int64_t sidechannel_ns = 0;
};

/// One closed span: `parent` indexes the enclosing span in the same
/// Tracer (-1 for an instance span), `instance` is the instance id.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t instance = -1;
};

/// In-memory span log and layer counters of ONE rank thread. Only the
/// owning thread writes it (staging under parallel_for never reaches the
/// decorator's timed operations), so it needs no lock. Spans past
/// `max_spans` are counted but not kept; the counters stay exact.
class Tracer {
 public:
  Tracer(int rank, std::size_t max_spans);

  void begin_instance(std::int64_t id);
  void end_instance();
  /// A child span of the open instance.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }

  LayerCounters counters;

 private:
  int rank_;
  std::size_t max_spans_;
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
  std::int64_t open_id_ = -1;
  std::int64_t open_start_ = 0;
  std::int64_t dropped_ = 0;
};

/// A TransportScope factory that wraps whatever `inner` builds in the
/// forwarding decorator feeding `tracer`.
[[nodiscard]] cca::clique::TransportScope::Factory traced_factory(
    cca::clique::TransportScope::Factory inner, Tracer& tracer);

/// Writes every tracer's spans as Chrome trace-event JSON (one tid per
/// rank) plus `meta` as the file's otherData object (already JSON).
void write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        const std::string& meta);

// ---------------------------------------------------------------------------
// Workloads (workloads.cpp)
// ---------------------------------------------------------------------------

/// What one rank's public call(s) for one instance returned.
struct Outcome {
  cca::clique::TrafficStats traffic;
  std::int64_t triangles = 0;
  std::int64_t four_cycles = 0;
  bool found = false;
  int trials = 0;
  std::int64_t sparse_choices = 0;  ///< engine_trace entries that are Sparse
  std::int64_t dispatch_choices = 0;
  cca::core::ApspOutcome apsp;  ///< apsp_sparse only
};

/// The shape local_multiply runs at inside this workload's engines.
enum class KernelAlgebra { MinPlus, IntRing };
struct KernelShape {
  KernelAlgebra algebra = KernelAlgebra::IntRing;
  int block = 1;
};

/// A workload: a seeded cohort of inputs with reference answers, and the
/// public call that is one instance. Instance i runs cohort input
/// i % cohort(), so every repeat of an input must cost exactly the same.
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// CCA_THREADS the workload is defined at. The harness sets it before
  /// its first cca::parallel_workers() call, which latches the value.
  [[nodiscard]] virtual int threads() const = 0;
  /// Rank threads sharing a loopback socket mesh (1 = in-process arena).
  [[nodiscard]] virtual int ranks() const { return 1; }
  [[nodiscard]] virtual KernelShape kernel() const = 0;

  /// Builds the cohort from the seed (graph.generate_s).
  virtual void generate(std::uint64_t seed, bool smoke) = 0;
  /// Computes every reference answer (graph.reference_s).
  virtual void reference() = 0;
  [[nodiscard]] virtual int cohort() const = 0;

  /// The timed public call(s) of cohort input `input` on the calling
  /// thread; the ambient TransportScope decides the data plane.
  [[nodiscard]] virtual Outcome run(int input) const = 0;
  /// Empty when `out` matches the reference answers of `input`, else a
  /// one-line reason.
  [[nodiscard]] virtual std::string check(int input, const Outcome& out) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
