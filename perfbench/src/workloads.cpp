// The four workloads. Each one puts most of its time into one layer so a
// later change can claim a gain on one and a no-change on the others:
//   apsp_sparse     core dispatch (Auto census, sparse->dense flip) and the
//                   schedule-cache hit path of iterated squarings;
//   count_dense     cold Koenig relay scheduling (one product per count on
//                   a fresh Network, no cache reuse);
//   kcycle_colour   util parallel regions and the fixed cost per superstep
//                   (~550 tiny supersteps per colouring, 2 threads);
//   count_socket_p2 the socket data plane: count_dense's inputs on two
//                   rank threads over a loopback TCP SocketMesh.
#include <cmath>
#include <stdexcept>

#include "core/color_coding.hpp"
#include "core/counting.hpp"
#include "core/mm.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "harness.hpp"
#include "matrix/semiring.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using cca::Graph;
using cca::core::MmKind;

/// Seed of cohort input i: distinct streams per workload and input.
[[nodiscard]] std::uint64_t input_seed(std::uint64_t seed, std::uint64_t tag,
                                       int i) {
  return cca::splitmix64(cca::splitmix64(seed ^ (tag << 32)) +
                         static_cast<std::uint64_t>(i));
}

/// Block edge of the 3D semiring engine on an n-node clique (n a cube):
/// each node multiplies n^{2/3} x n^{2/3} blocks.
[[nodiscard]] int semiring3d_block(int n) {
  const int c = static_cast<int>(std::lround(std::cbrt(static_cast<double>(n))));
  return c * c;
}

/// apsp_sparse: apsp_semiring(g, Auto) on sparse weighted graphs with
/// nnz ~ 8n, alternating uniform G(n, 8/n) and Chung-Lu power-law inputs.
class ApspSparse final : public Workload {
 public:
  const char* name() const override { return "apsp_sparse"; }
  int threads() const override { return 1; }
  KernelShape kernel() const override {
    return {KernelAlgebra::MinPlus, semiring3d_block(n_)};
  }

  void generate(std::uint64_t seed, bool smoke) override {
    n_ = smoke ? 27 : 125;
    const int k = smoke ? 2 : 16;
    graphs_.clear();
    for (int i = 0; i < k; ++i) {
      const std::uint64_t s = input_seed(seed, 1, i);
      if (i % 2 == 0) {
        graphs_.push_back(cca::random_weighted_graph(n_, 8.0 / n_, 1, 50, s));
      } else {
        // power_law_graph is unweighted; give it the same weight range.
        const Graph shape = cca::power_law_graph(n_, 4 * n_, 2.5, s);
        cca::Rng rng(s ^ 0x9e3779b97f4a7c15ULL);
        Graph g = Graph::undirected(n_);
        for (int u = 0; u < n_; ++u)
          for (const auto& [v, w] : shape.out_arcs(u))
            if (u < v) g.add_edge(u, v, rng.next_in(1, 50));
        graphs_.push_back(std::move(g));
      }
    }
  }

  void reference() override {
    ref_.clear();
    for (const Graph& g : graphs_) ref_.push_back(cca::ref_apsp(g));
  }

  int cohort() const override { return static_cast<int>(graphs_.size()); }

  Outcome run(int input) const override {
    Outcome out;
    out.apsp = cca::core::apsp_semiring(graphs_[static_cast<std::size_t>(input)],
                                        MmKind::Auto);
    out.traffic = out.apsp.traffic;
    for (const auto c : out.apsp.engine_trace)
      if (c == cca::core::AutoEngineChoice::Sparse) ++out.sparse_choices;
    out.dispatch_choices = static_cast<std::int64_t>(out.apsp.engine_trace.size());
    return out;
  }

  std::string check(int input, const Outcome& out) const override {
    const Graph& g = graphs_[static_cast<std::size_t>(input)];
    const auto& ref = ref_[static_cast<std::size_t>(input)];
    const auto& dist = out.apsp.dist;
    const auto& hop = out.apsp.next_hop;
    if (dist.rows() != n_ || dist.cols() != n_ || hop.rows() != n_ ||
        hop.cols() != n_)
      return "result has the wrong shape";
    constexpr std::int64_t kInf = cca::MinPlusSemiring::kInf;
    for (int u = 0; u < n_; ++u)
      for (int v = 0; v < n_; ++v) {
        if (dist(u, v) != ref(u, v))
          return "dist(" + std::to_string(u) + "," + std::to_string(v) +
                 ") != ref_apsp";
        if (u == v) continue;
        const int h = hop(u, v);
        if (ref(u, v) >= kInf) {
          if (h != -1) return "next_hop set for an unreachable pair";
          continue;
        }
        if (h < 0 || h >= n_ || !g.has_arc(u, h) ||
            g.arc_weight(u, h) + ref(h, v) != ref(u, v))
          return "next_hop(" + std::to_string(u) + "," + std::to_string(v) +
                 ") is not on a shortest path";
      }
    return {};
  }

 private:
  int n_ = 0;
  std::vector<Graph> graphs_;
  std::vector<cca::Matrix<std::int64_t>> ref_;
};

/// count_dense / count_socket_p2: count_triangles_cc + count_4cycles_cc
/// (Auto) on the same G(n, 0.3). Both workloads draw the identical cohort
/// from a seed, so the socket run is the arena run plus the data plane.
class CountDense final : public Workload {
 public:
  explicit CountDense(int ranks) : ranks_(ranks) {}

  const char* name() const override {
    return ranks_ == 1 ? "count_dense" : "count_socket_p2";
  }
  int threads() const override { return 1; }
  int ranks() const override { return ranks_; }
  KernelShape kernel() const override {
    return {KernelAlgebra::IntRing, semiring3d_block(n_)};
  }

  void generate(std::uint64_t seed, bool smoke) override {
    n_ = smoke ? 27 : 125;
    const int k = smoke ? 2 : 8;
    graphs_.clear();
    for (int i = 0; i < k; ++i)
      graphs_.push_back(cca::gnp_random_graph(n_, 0.3, input_seed(seed, 2, i)));
  }

  void reference() override {
    ref_.clear();
    for (const Graph& g : graphs_)
      ref_.push_back({cca::ref_count_triangles(g), cca::ref_count_4cycles(g)});
  }

  int cohort() const override { return static_cast<int>(graphs_.size()); }

  Outcome run(int input) const override {
    const Graph& g = graphs_[static_cast<std::size_t>(input)];
    Outcome out;
    const auto tri = cca::core::count_triangles_cc(g, MmKind::Auto);
    const auto c4 = cca::core::count_4cycles_cc(g, MmKind::Auto);
    out.triangles = tri.count;
    out.four_cycles = c4.count;
    out.traffic = tri.traffic;
    out.traffic += c4.traffic;
    return out;
  }

  std::string check(int input, const Outcome& out) const override {
    const auto& [tri, c4] = ref_[static_cast<std::size_t>(input)];
    if (out.triangles != tri)
      return "triangles " + std::to_string(out.triangles) + " != ref " +
             std::to_string(tri);
    if (out.four_cycles != c4)
      return "4-cycles " + std::to_string(out.four_cycles) + " != ref " +
             std::to_string(c4);
    return {};
  }

 private:
  int ranks_;
  int n_ = 0;
  std::vector<Graph> graphs_;
  std::vector<std::pair<std::int64_t, std::int64_t>> ref_;
};

/// kcycle_colour: detect_k_cycle_cc(g, 5, seed) with the default trial
/// budget and engine on planted 5-cycle graphs with n = 16, which runs the
/// Fast engine on a 16-node clique with 8x8 blocks, so each of the ~1100
/// parallel regions per colouring does little work. The graphs come from
/// --seed; the detector seeds (the colourings) are the same fixed list for
/// every --seed. A uniform colouring of 16 nodes misses one of the 5
/// colours with probability 5 * 0.8^16 ~ 14%, and such a colouring costs a
/// whole extra trial: drawing the colourings from --seed would move the
/// cohort's mean trial count, and with it rounds and time, by ~10% between
/// seeds. Dense noise (p = 0.6) makes every complete colouring find a
/// colourful 5-cycle, so the trial count depends on the colourings alone.
class KcycleColour final : public Workload {
 public:
  static constexpr int kK = 5;
  static constexpr std::uint64_t kColouringSeed = 1;

  const char* name() const override { return "kcycle_colour"; }
  int threads() const override { return 2; }
  KernelShape kernel() const override {
    const auto plan = cca::core::plan_fast_mm_auto(n_);
    return {KernelAlgebra::IntRing, plan.clique_n / plan.d};
  }

  void generate(std::uint64_t seed, bool smoke) override {
    n_ = 16;
    const int k = smoke ? 2 : 32;
    graphs_.clear();
    detector_seed_.clear();
    for (int i = 0; i < k; ++i) {
      graphs_.push_back(cca::planted_cycle_graph(n_, kK, 0.6, input_seed(seed, 3, i)));
      detector_seed_.push_back(input_seed(kColouringSeed, 4, i));
    }
  }

  void reference() override {
    ref_.clear();
    for (const Graph& g : graphs_) ref_.push_back(cca::ref_has_k_cycle(g, kK));
  }

  int cohort() const override { return static_cast<int>(graphs_.size()); }

  Outcome run(int input) const override {
    const auto i = static_cast<std::size_t>(input);
    const auto d = cca::core::detect_k_cycle_cc(graphs_[i], kK, detector_seed_[i]);
    Outcome out;
    out.found = d.found;
    out.trials = d.trials;
    out.traffic = d.traffic;
    return out;
  }

  std::string check(int input, const Outcome& out) const override {
    if (!ref_[static_cast<std::size_t>(input)])
      return "ref_has_k_cycle finds no planted 5-cycle";
    if (!out.found)
      return "planted 5-cycle not found in " + std::to_string(out.trials) +
             " trials";
    return {};
  }

 private:
  int n_ = 0;
  std::vector<Graph> graphs_;
  std::vector<std::uint64_t> detector_seed_;
  std::vector<bool> ref_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "apsp_sparse") return std::make_unique<ApspSparse>();
  if (name == "count_dense") return std::make_unique<CountDense>(1);
  if (name == "kcycle_colour") return std::make_unique<KcycleColour>();
  if (name == "count_socket_p2") return std::make_unique<CountDense>(2);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
