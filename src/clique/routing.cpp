#include "clique/routing.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace cca::clique {

namespace {

/// Apply `count` words starting at cyclic offset `start` to a difference
/// array over [0, n): every intermediate in the cyclic range gets one word
/// per lap. Full laps contribute uniformly.
void add_cyclic_range(std::vector<std::int64_t>& diff, int n,
                      std::int64_t start, std::int64_t count,
                      std::int64_t& uniform) {
  CCA_EXPECTS(count >= 0 && start >= 0 && start < n);
  uniform += count / n;
  const auto rem = static_cast<int>(count % n);
  if (rem == 0) return;
  const int end = static_cast<int>(start) + rem;
  if (end <= n) {
    diff[static_cast<std::size_t>(start)] += 1;
    if (end < n) diff[static_cast<std::size_t>(end)] -= 1;
  } else {
    diff[static_cast<std::size_t>(start)] += 1;  // [start, n)
    diff[0] += 1;                                // [0, end - n)
    diff[static_cast<std::size_t>(end - n)] -= 1;
  }
}

/// Max value of a cyclic difference array plus its uniform offset.
std::int64_t max_of_diff(const std::vector<std::int64_t>& diff,
                         std::int64_t uniform) {
  std::int64_t run = 0;
  std::int64_t best = 0;
  for (const auto d : diff) {
    run += d;
    best = std::max(best, run);
  }
  return best + uniform;
}

/// Relay rounds when block (src,dst) begins at intermediate offset(src,dst):
/// phase A = max over (src, mid) links, phase B = max over (mid, dst) links.
template <typename OffsetFn>
std::int64_t relay_rounds(int n, const std::vector<Demand>& demands,
                          OffsetFn&& offset) {
  // Phase A: group by source.
  std::vector<std::vector<const Demand*>> by_src(static_cast<std::size_t>(n));
  std::vector<std::vector<const Demand*>> by_dst(static_cast<std::size_t>(n));
  std::vector<std::int64_t> start(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto& d = demands[i];
    CCA_EXPECTS(d.src >= 0 && d.src < n && d.dst >= 0 && d.dst < n);
    CCA_EXPECTS(d.words >= 0);
    if (d.words == 0) continue;
    start[i] = offset(d);
    by_src[static_cast<std::size_t>(d.src)].push_back(&d);
    by_dst[static_cast<std::size_t>(d.dst)].push_back(&d);
  }

  auto max_side = [&](const std::vector<std::vector<const Demand*>>& groups) {
    std::int64_t best = 0;
    std::vector<std::int64_t> diff(static_cast<std::size_t>(n));
    for (const auto& group : groups) {
      if (group.empty()) continue;
      std::fill(diff.begin(), diff.end(), 0);
      std::int64_t uniform = 0;
      for (const Demand* d : group)
        add_cyclic_range(diff, n, start[static_cast<std::size_t>(d - demands.data())],
                         d->words, uniform);
      best = std::max(best, max_of_diff(diff, uniform));
    }
    return best;
  };

  const std::int64_t phase_a = max_side(by_src);
  const std::int64_t phase_b = max_side(by_dst);
  return phase_a + phase_b;
}

// ---------------------------------------------------------------------------
// Euler-split edge colouring (constructive Koenig decomposition).
// ---------------------------------------------------------------------------

struct Edge {
  int src;
  int dst;
  std::int64_t count;
};

/// One node of the split recursion handed to a worker: a concrete
/// half-multigraph (general counted edges or the packed all-count-1 form)
/// at its recursion depth.
struct SplitTask {
  std::vector<Edge> edges;                 ///< general node (when !packed)
  std::vector<std::uint32_t> packed_edges; ///< packed node (when packed)
  bool packed = false;
  int depth = 0;
};

/// One slot of the expanded frontier, in DFS order. A concrete slot names a
/// task; a dup slot replays the merged log produced by slots
/// [dup_begin, this) — the frontier-level form of the identical-halves
/// subtree duplication.
struct SplitSlot {
  int task = -1;
  std::size_t dup_begin = 0;
  bool dup = false;
};

/// The split recursion machinery with its scratch and class log. One engine
/// per task (and one for the serial path / the frontier expansion): the
/// scratch fully resets between recursion nodes, so engines running disjoint
/// subtrees emit exactly the class sequences the serial recursion would.
///
/// Observations that keep the schedule exactly as specified while avoiding
/// the naive implementation's Theta(classes * n) blowup:
///  * When every multiplicity is even, the Euler split produces two
///    element-identical halves, so the recursion's subtrees emit identical
///    class sequences. The subtree is traversed once and its logged class
///    range is duplicated in place of the second descent. Uniform word
///    blocks (the matrix algorithms' common case) collapse from 2^k
///    traversals to one.
///  * The odd-leftover trail walk touches only vertices incident to odd
///    edges; adjacency and cursor scratch is reused across recursion nodes
///    and reset per touched vertex, never per clique node.
///  * The log stores one packed 32-bit (src, dst) word per class edge, with
///    the exact footprint (the subtree's total word count) reserved up
///    front, so logging is sequential stores and subtree duplication is one
///    memcpy-sized range copy.
///  * Split scratch vectors recycle through a small pool (the recursion
///    allocates nothing in steady state).
class SplitEngine {
 public:
  explicit SplitEngine(int n)
      : n_(n),
        head_(static_cast<std::size_t>(2 * n), -1),
        mark_((static_cast<std::size_t>(2 * n) + 63) / 64, 0),
        oddb_((static_cast<std::size_t>(2 * n) + 63) / 64, 0),
        row_(static_cast<std::size_t>(n)),
        col_(static_cast<std::size_t>(n)),
        row2_(static_cast<std::size_t>(2 * n), 0) {
    // The packed log format holds src and dst in 16 bits each.
    CCA_EXPECTS(n <= 0xffff);
  }

  void reset_log(std::int64_t expected_words) {
    log_edges_.clear();
    log_edges_.reserve(static_cast<std::size_t>(expected_words));
    log_bounds_.clear();
  }

  [[nodiscard]] const std::vector<std::uint32_t>& log_edges() const noexcept {
    return log_edges_;
  }
  [[nodiscard]] const std::vector<std::size_t>& log_bounds() const noexcept {
    return log_bounds_;
  }

  [[nodiscard]] static std::uint32_t pack(int src, int dst) noexcept {
    return (static_cast<std::uint32_t>(src) << 16) |
           static_cast<std::uint32_t>(dst);
  }

  [[nodiscard]] std::vector<Edge> copy_of(const std::vector<Edge>& edges) {
    auto v = acquire();
    v.assign(edges.begin(), edges.end());
    return v;
  }

  /// Run one task's whole subtree into this engine's log.
  void run(SplitTask&& task) {
    if (task.packed)
      split_walk_packed(std::move(task.packed_edges), task.depth);
    else
      split_walk(std::move(task.edges), task.depth);
  }

  /// Serially reproduce the TOP of the split recursion down to at most
  /// `max_depth` levels, emitting the still-unsplit subtrees as concrete
  /// tasks (owned edge lists) and identical-halves duplications as dup
  /// slots — both in the recursion's DFS order, so running the tasks and
  /// concatenating their logs (dup slots replaying the just-merged range)
  /// reproduces the serial class log bit for bit.
  void expand(std::vector<Edge> edges, int depth, int max_depth,
              std::vector<SplitTask>& tasks, std::vector<SplitSlot>& slots) {
    if (edges.empty()) {
      release(std::move(edges));
      return;
    }
    if (depth >= max_depth || depth > 64) {
      emit_task(std::move(edges), depth, tasks, slots);
      return;
    }
    if (max_degree(edges) <= 1) {
      emit_task(std::move(edges), depth, tasks, slots);
      return;
    }
    auto lo = acquire();
    auto hi = acquire();
    const bool identical = euler_split(edges, lo, hi);
    const bool simple_children = max_half_ <= 1;
    release(std::move(edges));
    auto descend = [&](std::vector<Edge>&& child) {
      if (simple_children) {
        auto p = acquire_packed();
        p.reserve(child.size());
        for (const auto& e : child) p.push_back(pack(e.src, e.dst));
        release(std::move(child));
        expand_packed(std::move(p), depth + 1, max_depth, tasks, slots);
      } else {
        expand(std::move(child), depth + 1, max_depth, tasks, slots);
      }
    };
    if (!identical) {
      descend(std::move(lo));
      descend(std::move(hi));
      return;
    }
    release(std::move(hi));
    const std::size_t mark_slot = slots.size();
    descend(std::move(lo));
    if (slots.size() > mark_slot)
      slots.push_back({-1, mark_slot, true});
  }

 private:
  /// Pool-backed copy/acquire of edge scratch vectors: the recursion reuses
  /// vectors instead of allocating one pair per node.
  [[nodiscard]] std::vector<Edge> acquire() {
    if (pool_.empty()) return {};
    auto v = std::move(pool_.back());
    pool_.pop_back();
    v.clear();
    return v;
  }
  void release(std::vector<Edge>&& v) { pool_.push_back(std::move(v)); }
  [[nodiscard]] std::vector<std::uint32_t> acquire_packed() {
    if (packed_pool_.empty()) return {};
    auto v = std::move(packed_pool_.back());
    packed_pool_.pop_back();
    v.clear();
    return v;
  }
  void release_packed(std::vector<std::uint32_t>&& v) {
    packed_pool_.push_back(std::move(v));
  }

  void emit_task(std::vector<Edge>&& edges, int depth,
                 std::vector<SplitTask>& tasks, std::vector<SplitSlot>& slots) {
    slots.push_back({static_cast<int>(tasks.size()), 0, false});
    tasks.push_back({std::move(edges), {}, false, depth});
  }
  void emit_task_packed(std::vector<std::uint32_t>&& es, int depth,
                        std::vector<SplitTask>& tasks,
                        std::vector<SplitSlot>& slots) {
    slots.push_back({static_cast<int>(tasks.size()), 0, false});
    tasks.push_back({{}, std::move(es), true, depth});
  }

  void expand_packed(std::vector<std::uint32_t> es, int depth, int max_depth,
                     std::vector<SplitTask>& tasks,
                     std::vector<SplitSlot>& slots) {
    if (es.empty()) {
      release_packed(std::move(es));
      return;
    }
    if (depth >= max_depth || depth > 64) {
      emit_task_packed(std::move(es), depth, tasks, slots);
      return;
    }
    build_slots(es);
    if (node_deg_ <= 1) {
      unbuild_slots();
      emit_task_packed(std::move(es), depth, tasks, slots);
      return;
    }
    auto lo = acquire_packed();
    auto hi = acquire_packed();
    trail_split_packed(es, lo, hi);
    release_packed(std::move(es));
    expand_packed(std::move(lo), depth + 1, max_depth, tasks, slots);
    expand_packed(std::move(hi), depth + 1, max_depth, tasks, slots);
  }

  /// One edge occurrence in a vertex's adjacency list: slot 2i is the src
  /// side and slot 2i+1 the dst side of odd edge i, so an edge's two slots
  /// always share one (aligned) 16-byte chunk — marking both sides used
  /// after a consume touches the cache line the walk just read. `edge`
  /// doubles as the used flag (kUsedSlot): the walk's skip-chase needs ONE
  /// random load per step instead of separate next/edge/used lookups.
  struct SlotRec {
    int next;
    std::uint32_t edge;
  };
  static constexpr std::uint32_t kUsedSlot = 0xffffffffu;  // src 0xffff illegal

  /// Thread a packed edge list into per-vertex slot lists. Iterating edges
  /// in reverse makes every vertex's list ascend in slot order — exactly
  /// the order a forward push_back build yields, preserving the reference
  /// implementation's lowest-id-first edge selection. Only touched entries
  /// of head_/mark_/oddb_ are written — O(odd edges), never O(n).
  void build_slots(const std::vector<std::uint32_t>& es) {
    touched_.clear();
    slots_.resize(2 * es.size());
    node_deg_ = 0;
    for (std::size_t i = es.size(); i-- > 0;) {
      const auto e = es[i];
      const auto s = static_cast<std::size_t>(e >> 16);
      const auto d = static_cast<std::size_t>(n_) +
                     static_cast<std::size_t>(e & 0xffffu);
      if (head_[s] < 0) touched_.push_back(static_cast<int>(s));
      if (head_[d] < 0) touched_.push_back(static_cast<int>(d));
      slots_[2 * i] = {head_[s], e};
      head_[s] = static_cast<int>(2 * i);
      slots_[2 * i + 1] = {head_[d], e};
      head_[d] = static_cast<int>(2 * i + 1);
      mark_[s >> 6] |= std::uint64_t{1} << (s & 63);
      mark_[d >> 6] |= std::uint64_t{1} << (d & 63);
      oddb_[s >> 6] ^= std::uint64_t{1} << (s & 63);
      oddb_[d >> 6] ^= std::uint64_t{1} << (d & 63);
      // Exact node max degree, free with the threading pass: counters only
      // ever increment, so the running max equals the final max.
      const auto ds = ++row2_[s];
      const auto dd = ++row2_[d];
      if (ds > node_deg_) node_deg_ = ds;
      if (dd > node_deg_) node_deg_ = dd;
    }
  }

  /// Tear down build_slots scratch without running the walks (used when the
  /// just-built node turned out to be a leaf). All set bits in mark_/oddb_
  /// belong to this node, so zeroing whole words via the touched list is
  /// exact.
  void unbuild_slots() {
    for (const int v : touched_) {
      const auto u = static_cast<std::size_t>(v);
      head_[u] = -1;
      row2_[u] = 0;
      mark_[u >> 6] = 0;
      oddb_[u >> 6] = 0;
    }
  }

  struct Consumed {
    int slot;
    std::uint32_t edge;
  };

  /// Pop the lowest-id unused edge at vertex v, dropping the used prefix
  /// of v's list on the way (each slot is dropped at most once, so the
  /// chase is amortised O(1)). Returns slot -1 when v is exhausted.
  Consumed consume_lowest_unused(int v) {
    int slot = head_[static_cast<std::size_t>(v)];
    while (slot >= 0 && slots_[static_cast<std::size_t>(slot)].edge == kUsedSlot)
      slot = slots_[static_cast<std::size_t>(slot)].next;
    if (slot < 0) {
      head_[static_cast<std::size_t>(v)] = -1;
      return {-1, 0};
    }
    const auto e = slots_[static_cast<std::size_t>(slot)].edge;
    head_[static_cast<std::size_t>(v)] =
        slots_[static_cast<std::size_t>(slot)].next;
    slots_[static_cast<std::size_t>(slot)].edge = kUsedSlot;
    slots_[static_cast<std::size_t>(slot ^ 1)].edge = kUsedSlot;
    return {slot, e};
  }

  std::int64_t max_degree(const std::vector<Edge>& edges) {
    // row_/col_ are all-zero between calls; only entries touched by this
    // edge list are accumulated, maxed, and zeroed again — O(|edges|), not
    // O(n), per recursion node.
    for (const auto& e : edges) {
      row_[static_cast<std::size_t>(e.src)] += e.count;
      col_[static_cast<std::size_t>(e.dst)] += e.count;
    }
    std::int64_t best = 0;
    for (const auto& e : edges) {
      best = std::max({best, row_[static_cast<std::size_t>(e.src)],
                       col_[static_cast<std::size_t>(e.dst)]});
      row_[static_cast<std::size_t>(e.src)] = 0;
      col_[static_cast<std::size_t>(e.dst)] = 0;
    }
    return best;
  }

  /// Split the demand multigraph into two halves whose row/column sums are
  /// as equal as possible: even multiplicities are halved arithmetically,
  /// odd leftovers form a simple bipartite graph whose edges are 2-coloured
  /// by alternating along maximal trails (starting at odd-degree vertices
  /// first, so every vertex's degree splits with deviation at most one).
  /// Returns true when the halves are element-identical (no odd leftovers).
  ///
  /// The recursion visits Theta(colour classes) nodes, so the per-node cost
  /// here is the router's wall-clock. Everything is O(odd edges) flat-array
  /// work with NO per-node sorting: per-endpoint intrusive linked lists
  /// (built in one reverse pass, so each vertex's list is in ascending
  /// edge order — exactly the order a forward push_back build yields) and a
  /// touched-vertex bitmap whose ascending-set-bit sweep replaces the
  /// sorted-touched-list sweep. Trails always consume the lowest-unused
  /// edge at each vertex and start in ascending vertex order, identical to
  /// the reference implementation, so the colouring is bit-identical.
  bool euler_split(const std::vector<Edge>& edges, std::vector<Edge>& lo,
                   std::vector<Edge>& hi) {
    lo.clear();
    hi.clear();
    odd_pack_.clear();
    max_half_ = 0;
    for (const auto& e : edges) {
      const std::int64_t half = e.count / 2;
      if (half > 0) {
        lo.push_back({e.src, e.dst, half});
        hi.push_back({e.src, e.dst, half});
        if (half > max_half_) max_half_ = half;
      }
      if (e.count % 2 == 1) odd_pack_.push_back(pack(e.src, e.dst));
    }
    if (odd_pack_.empty()) return true;

    build_slots(odd_pack_);

    auto walk_trail = [&](int v0) {
      // Maximal trail from v0, alternating edges between lo and hi. Each
      // vertex's list head skips already-used occurrences lazily, so the
      // chosen edge is always the lowest-id unused edge at the vertex —
      // the rem_ counters only shortcut the discovery that none is left.
      int v = v0;
      bool to_lo = true;
      for (;;) {
        const auto c = consume_lowest_unused(v);
        if (c.slot < 0) return;
        const int src = static_cast<int>(c.edge >> 16);
        const int dst = static_cast<int>(c.edge & 0xffffu);
        (to_lo ? lo : hi).push_back({src, dst, 1});
        to_lo = !to_lo;
        // Even slot = arrived via the src side, continue at the dst side.
        v = (c.slot & 1) == 0 ? n_ + dst : src;
      }
    };

    // Start trails at odd-degree vertices first, in ascending vertex order
    // (bitmap sweep), then close the remaining Eulerian tours the same way.
    // Untouched vertices carry no bits, so this matches a full 0..2n-1
    // sweep of the reference implementation; the rem_ gate skips exhausted
    // vertices without touching the edge arrays (a reference walk_trail
    // call there is a no-op).
    const std::size_t words = mark_.size();
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = oddb_[w];
      oddb_[w] = 0;
      while (bits != 0) {
        const int v = static_cast<int>(w * 64) +
                      std::countr_zero(bits);
        bits &= bits - 1;
        if (head_[static_cast<std::size_t>(v)] >= 0) walk_trail(v);
      }
    }
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = mark_[w];
      while (bits != 0) {
        const int v = static_cast<int>(w * 64) + std::countr_zero(bits);
        bits &= bits - 1;
        if (head_[static_cast<std::size_t>(v)] >= 0) walk_trail(v);
      }
      mark_[w] = 0;
    }
    for (const int v : touched_) {
      head_[static_cast<std::size_t>(v)] = -1;
      row2_[static_cast<std::size_t>(v)] = 0;  // degree counters, see build
    }
    return false;
  }

  // -------------------------------------------------------------------
  // All-count-1 fast path. Once every entry of a node has multiplicity 1
  // (the endgame of every split tree — it holds the vast majority of the
  // recursion's edge volume), halving is a no-op and every entry is an odd
  // leftover, so a split is exactly one trail walk. This path stores
  // entries packed ((src << 16) | dst, count implicitly 1) and runs the
  // SAME trail mechanics as euler_split — adjacency threaded in reverse
  // entry order, bitmap sweeps in ascending vertex order, lowest-unused-
  // edge selection — so the emitted class sequence is bit-identical to the
  // general path's; only the entry storage is 4x denser.
  // -------------------------------------------------------------------

  /// Trail-split of an all-count-1 multigraph: the packed counterpart of
  /// euler_split's odd-leftover walk (which is the whole split here). Each
  /// child recomputes its own exact max degree inside ITS build_slots
  /// (node_deg_), so no separate degree pass runs anywhere.
  void trail_split_packed(const std::vector<std::uint32_t>& es,
                          std::vector<std::uint32_t>& lo,
                          std::vector<std::uint32_t>& hi) {
    // The caller already ran build_slots(es). Scratch-size the halves once
    // and emit through raw cursors (the walk's serial chain pays no vector
    // bookkeeping); truncate afterwards.
    lo.resize(es.size());
    hi.resize(es.size());
    std::uint32_t* out[2] = {lo.data(), hi.data()};

    auto walk_trail = [&](int v0) {
      int v = v0;
      int side = 0;
      for (;;) {
        const auto c = consume_lowest_unused(v);
        if (c.slot < 0) return;
        const auto e = c.edge;
        *out[side]++ = e;
        side ^= 1;
        v = (c.slot & 1) == 0
                ? n_ + static_cast<int>(e & 0xffffu)
                : static_cast<int>(e >> 16);
      }
    };

    const std::size_t words = mark_.size();
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = oddb_[w];
      oddb_[w] = 0;
      while (bits != 0) {
        const int v = static_cast<int>(w * 64) + std::countr_zero(bits);
        bits &= bits - 1;
        if (head_[static_cast<std::size_t>(v)] >= 0) walk_trail(v);
      }
    }
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = mark_[w];
      while (bits != 0) {
        const int v = static_cast<int>(w * 64) + std::countr_zero(bits);
        bits &= bits - 1;
        if (head_[static_cast<std::size_t>(v)] >= 0) walk_trail(v);
      }
      mark_[w] = 0;
    }
    for (const int v : touched_) {
      head_[static_cast<std::size_t>(v)] = -1;
      row2_[static_cast<std::size_t>(v)] = 0;
    }
    lo.resize(static_cast<std::size_t>(out[0] - lo.data()));
    hi.resize(static_cast<std::size_t>(out[1] - hi.data()));
  }

  void split_walk_packed(std::vector<std::uint32_t> es, int depth) {
    if (es.empty()) {
      release_packed(std::move(es));
      return;
    }
    if (depth > 64) {
      for (const auto e : es) {
        log_bounds_.push_back(log_edges_.size());
        log_edges_.push_back(e);
      }
      release_packed(std::move(es));
      return;
    }
    build_slots(es);
    if (node_deg_ <= 1) {
      // Leaf: one colour class; tear the scratch back down and log it.
      unbuild_slots();
      log_bounds_.push_back(log_edges_.size());
      log_edges_.insert(log_edges_.end(), es.begin(), es.end());
      release_packed(std::move(es));
      return;
    }
    auto lo = acquire_packed();
    auto hi = acquire_packed();
    trail_split_packed(es, lo, hi);
    release_packed(std::move(es));
    split_walk_packed(std::move(lo), depth + 1);
    split_walk_packed(std::move(hi), depth + 1);
  }

  void split_walk(std::vector<Edge> edges, int depth) {
    if (edges.empty()) {
      release(std::move(edges));
      return;
    }
    const std::int64_t deg = max_degree(edges);
    if (deg <= 1) {
      log_class(edges);
      release(std::move(edges));
      return;
    }
    if (depth > 64) {
      // Termination backstop; never expected (the split strictly shrinks
      // the max degree), but keeps the router total even if it regresses.
      for (const auto& e : edges)
        for (std::int64_t i = 0; i < e.count; ++i) {
          log_bounds_.push_back(log_edges_.size());
          log_edges_.push_back(pack(e.src, e.dst));
        }
      release(std::move(edges));
      return;
    }
    auto lo = acquire();
    auto hi = acquire();
    const bool identical = euler_split(edges, lo, hi);
    // Every child entry is either a halved count (<= max_half_) or an odd
    // leftover (count 1): once max_half_ <= 1, the children live entirely
    // in the all-count-1 regime and descend through the packed fast path.
    const bool simple_children = max_half_ <= 1;
    release(std::move(edges));
    auto descend = [&](std::vector<Edge>&& child) {
      if (simple_children) {
        auto p = acquire_packed();
        p.reserve(child.size());
        for (const auto& e : child) p.push_back(pack(e.src, e.dst));
        release(std::move(child));
        split_walk_packed(std::move(p), depth + 1);
      } else {
        split_walk(std::move(child), depth + 1);
      }
    };
    if (!identical) {
      descend(std::move(lo));
      descend(std::move(hi));
      return;
    }
    release(std::move(hi));
    // Element-identical halves produce identical subtrees: traverse once
    // and duplicate the logged class range in place of the second descent.
    const std::size_t mark_b = log_bounds_.size();
    const std::size_t mark_e = log_edges_.size();
    descend(std::move(lo));
    const std::size_t end_b = log_bounds_.size();
    const std::size_t end_e = log_edges_.size();
    const std::size_t delta = end_e - mark_e;
    log_bounds_.reserve(end_b + (end_b - mark_b));
    for (std::size_t b = mark_b; b < end_b; ++b)
      log_bounds_.push_back(log_bounds_[b] + delta);
    log_edges_.resize(end_e + delta);
    std::copy(log_edges_.begin() + static_cast<std::ptrdiff_t>(mark_e),
              log_edges_.begin() + static_cast<std::ptrdiff_t>(end_e),
              log_edges_.begin() + static_cast<std::ptrdiff_t>(end_e));
  }

  void log_class(const std::vector<Edge>& matching) {
    log_bounds_.push_back(log_edges_.size());
    for (const auto& e : matching) {
      CCA_ASSERT(e.count == 1);
      log_edges_.push_back(pack(e.src, e.dst));
    }
  }

  int n_;

  // Scratch reused across recursion nodes.
  std::vector<int> head_;            ///< per vertex: first unused slot, -1 idle
  std::vector<std::uint64_t> mark_;  ///< touched-vertex bitmap
  std::vector<std::uint64_t> oddb_;  ///< odd-degree parity bitmap
  std::vector<SlotRec> slots_;       ///< per slot (2 per odd edge): next+edge
  std::vector<std::int64_t> row_;
  std::vector<std::int64_t> col_;
  std::vector<std::int64_t> row2_;       ///< build-fused node degree counters
  std::vector<std::uint32_t> odd_pack_;  ///< odd edges, (src << 16) | dst
  std::vector<int> touched_;
  std::int64_t max_half_ = 0;            ///< max halved count of last split
  std::int64_t node_deg_ = 0;            ///< max degree of last built node
  std::vector<std::vector<Edge>> pool_;
  std::vector<std::vector<std::uint32_t>> packed_pool_;

  // Flat log of colour classes in DFS leaf order, packed (src << 16) | dst.
  std::vector<std::uint32_t> log_edges_;
  std::vector<std::size_t> log_bounds_;
};

/// Default Euler-split task count: serial when the worker group is one
/// thread (the CCA_THREADS=1 CI leg runs the pure-serial recursion), a few
/// tasks per worker otherwise so the block partition stays balanced even
/// when subtree sizes skew.
int default_split_tasks() {
  const int workers = parallel_workers();
  if (workers <= 1) return 1;
  return std::min(64, 2 * workers);
}

/// Smallest expansion depth whose full frontier holds >= `tasks` subtrees.
int expansion_depth_for(int tasks) {
  int depth = 0;
  int width = 1;
  while (width < tasks && depth < 6) {
    width *= 2;
    ++depth;
  }
  return depth;
}

/// Drives the split (serial or task-parallel), merges the per-task class
/// logs in DFS order, and replays the merged log onto the load matrices.
/// Colour classes are produced in leaf (DFS) order; consecutive classes
/// share split ancestry and hence have near-disjoint edge sets, so
/// contiguous BLOCKS of classes are assigned to the same intermediate:
/// class t of C goes through node floor(t*n/C). The total class count is
/// needed before any class can be assigned, so the split logs the class
/// sequence and the load assignment replays the log once the count is
/// known.
///
/// Both load matrices are intermediate-major (load_a[mid][src],
/// load_b[mid][dst]). All edges of one class share one mid, so a class
/// replay touches exactly two rows — resident in L1 — instead of striding
/// across the whole n^2 arrays per edge. The load MULTISET is unchanged,
/// hence so are the maxima and the round total.
class KoenigColouring {
 public:
  KoenigColouring(int n, std::vector<std::int64_t>& load_a,
                  std::vector<std::int64_t>& load_b)
      : n_(n), load_a_(load_a), load_b_(load_b), root_(n) {}

  [[nodiscard]] std::int64_t total_colours() const noexcept {
    return total_colours_;
  }

  /// The merged class log (valid after colour()): class t covers packed
  /// edges [bounds()[t], bounds()[t+1]) of edges().
  [[nodiscard]] const std::vector<std::uint32_t>& edges() const noexcept {
    return *edges_view_;
  }
  [[nodiscard]] const std::vector<std::size_t>& bounds() const noexcept {
    return *bounds_view_;
  }

  void colour(const std::vector<Edge>& edges, int split_tasks) {
    std::int64_t total_words = 0;
    for (const auto& e : edges) total_words += e.count;

    if (split_tasks <= 1) {
      // Pure serial path: one engine walks the whole recursion. This is
      // the reference sequence every parallel run must reproduce.
      root_.reset_log(total_words);
      root_.run({root_.copy_of(edges), {}, false, 0});
      edges_view_ = &root_.log_edges();
      bounds_view_ = &root_.log_bounds();
    } else {
      // Expand the top of the recursion serially into independent subtree
      // tasks (plus dup slots for identical-halves collapses), run every
      // concrete task on its own engine under parallel_for, and merge the
      // logs in DFS slot order. Each engine's scratch starts clean and the
      // expansion performs the exact splits the serial recursion would, so
      // the merged log is bit-identical to the serial one for ANY task
      // count (pinned by tests/test_routing.cpp).
      std::vector<SplitTask> tasks;
      std::vector<SplitSlot> slots;
      root_.expand(root_.copy_of(edges), 0, expansion_depth_for(split_tasks),
                   tasks, slots);
      std::vector<SplitEngine> engines;
      engines.reserve(tasks.size());
      for (std::size_t t = 0; t < tasks.size(); ++t) engines.emplace_back(n_);
      parallel_for(0, static_cast<int>(tasks.size()), [&](int t) {
        const auto ts = static_cast<std::size_t>(t);
        std::int64_t words = 0;
        if (tasks[ts].packed)
          words = static_cast<std::int64_t>(tasks[ts].packed_edges.size());
        else
          for (const auto& e : tasks[ts].edges) words += e.count;
        engines[ts].reset_log(words);
        engines[ts].run(std::move(tasks[ts]));
      });

      merged_edges_.clear();
      merged_edges_.reserve(static_cast<std::size_t>(total_words));
      merged_bounds_.clear();
      std::vector<std::size_t> slot_b(slots.size()), slot_e(slots.size());
      for (std::size_t i = 0; i < slots.size(); ++i) {
        slot_b[i] = merged_bounds_.size();
        slot_e[i] = merged_edges_.size();
        if (!slots[i].dup) {
          const auto& eng = engines[static_cast<std::size_t>(slots[i].task)];
          const std::size_t base = merged_edges_.size();
          for (const auto b : eng.log_bounds())
            merged_bounds_.push_back(b + base);
          merged_edges_.insert(merged_edges_.end(), eng.log_edges().begin(),
                               eng.log_edges().end());
        } else {
          // Replay the merged output of the duplicated sibling subtree —
          // the same arithmetic as the serial identical-halves collapse,
          // applied to the merged ranges.
          const std::size_t mb = slot_b[slots[i].dup_begin];
          const std::size_t me = slot_e[slots[i].dup_begin];
          const std::size_t end_b = merged_bounds_.size();
          const std::size_t end_e = merged_edges_.size();
          const std::size_t delta = end_e - me;
          merged_bounds_.reserve(end_b + (end_b - mb));
          for (std::size_t b = mb; b < end_b; ++b)
            merged_bounds_.push_back(merged_bounds_[b] + delta);
          merged_edges_.resize(end_e + delta);
          std::copy(merged_edges_.begin() + static_cast<std::ptrdiff_t>(me),
                    merged_edges_.begin() + static_cast<std::ptrdiff_t>(end_e),
                    merged_edges_.begin() + static_cast<std::ptrdiff_t>(end_e));
        }
      }
      edges_view_ = &merged_edges_;
      bounds_view_ = &merged_bounds_;
    }

    // Replay the class log onto the load matrices.
    const auto& log_edges = *edges_view_;
    const auto& log_bounds = *bounds_view_;
    total_colours_ = static_cast<std::int64_t>(log_bounds.size());
    if (total_colours_ == 0) return;
    for (std::int64_t t = 0; t < total_colours_; ++t) {
      const auto mid = static_cast<std::size_t>(t * n_ / total_colours_);
      const std::size_t begin = log_bounds[static_cast<std::size_t>(t)];
      const std::size_t finish =
          t + 1 < total_colours_ ? log_bounds[static_cast<std::size_t>(t + 1)]
                                 : log_edges.size();
      auto* la = load_a_.data() + mid * static_cast<std::size_t>(n_);
      auto* lb = load_b_.data() + mid * static_cast<std::size_t>(n_);
      for (std::size_t i = begin; i < finish; ++i) {
        const auto e = log_edges[i];
        ++la[e >> 16];
        ++lb[e & 0xffffu];
      }
    }
  }

 private:
  int n_;
  std::int64_t total_colours_ = 0;
  std::vector<std::int64_t>& load_a_;  ///< intermediate-major: [mid][src]
  std::vector<std::int64_t>& load_b_;  ///< intermediate-major: [mid][dst]
  SplitEngine root_;
  std::vector<std::uint32_t> merged_edges_;
  std::vector<std::size_t> merged_bounds_;
  const std::vector<std::uint32_t>* edges_view_ = nullptr;
  const std::vector<std::size_t>* bounds_view_ = nullptr;
};

std::vector<Edge> demand_edges(int n, const std::vector<Demand>& demands,
                               std::int64_t* total_words) {
  std::vector<Edge> edges;
  edges.reserve(demands.size());
  std::int64_t words = 0;
  for (const auto& d : demands) {
    CCA_EXPECTS(d.src >= 0 && d.src < n && d.dst >= 0 && d.dst < n);
    CCA_EXPECTS(d.words >= 0);
    if (d.words > 0) {
      edges.push_back({d.src, d.dst, d.words});
      words += d.words;
    }
  }
  if (total_words != nullptr) *total_words = words;
  return edges;
}

// ---------------------------------------------------------------------------
// Greedy first-fit edge colouring (SchedulePolicy::Greedy).
// ---------------------------------------------------------------------------

/// Assign every demanded word the LOWEST level (colour) unused at both its
/// endpoints: per level each src sends at most one word and each dst
/// receives at most one, so every level is a partial matching on ports by
/// construction. A word of (s, d) only ever sees levels blocked by s's own
/// words or d's own words, so its level is < deg(s) + deg(d) - 1
/// <= 2*maxdeg - 1 — under twice the optimal (chromatic index >= maxdeg)
/// colour count, the Misra–Gries bound shape. One linear scan over per-
/// vertex level bitsets (with first-free hints) replaces the Euler split's
/// O(words * log maxdeg) class construction.
///
/// Levels map to intermediates exactly like Koenig classes (level t of C
/// goes through node floor(t*n/C)) and the rounds are the same exact
/// max-load sum over the CONCRETE plan — the accounting stays honest; only
/// the plan is up to ~2x looser.
Schedule greedy_relay_impl(int n, const std::vector<Demand>& demands,
                           std::vector<std::uint32_t>* levels_out,
                           std::int64_t* classes_out) {
  CCA_EXPECTS(n >= 1);
  Schedule sched;
  std::int64_t total_words = 0;
  for (const auto& d : demands) {
    CCA_EXPECTS(d.src >= 0 && d.src < n && d.dst >= 0 && d.dst < n);
    CCA_EXPECTS(d.words >= 0);
    total_words += d.words;
  }
  sched.words = total_words;
  if (total_words == 0) return sched;

  const auto un = static_cast<std::size_t>(n);
  std::vector<std::vector<std::uint64_t>> send_used(un), recv_used(un);
  std::vector<std::size_t> send_hint(un, 0), recv_hint(un, 0);
  std::vector<std::uint32_t> levels;
  levels.reserve(static_cast<std::size_t>(total_words));
  std::uint32_t max_level = 0;

  for (const auto& d : demands) {
    if (d.words == 0) continue;
    auto& su = send_used[static_cast<std::size_t>(d.src)];
    auto& ru = recv_used[static_cast<std::size_t>(d.dst)];
    std::size_t w = std::max(send_hint[static_cast<std::size_t>(d.src)],
                             recv_hint[static_cast<std::size_t>(d.dst)]);
    std::int64_t remaining = d.words;
    while (remaining > 0) {
      if (w >= su.size()) su.resize(w + 1, 0);
      if (w >= ru.size()) ru.resize(w + 1, 0);
      std::uint64_t free = ~(su[w] | ru[w]);
      while (free != 0 && remaining > 0) {
        const int bit = std::countr_zero(free);
        free &= free - 1;
        su[w] |= std::uint64_t{1} << bit;
        ru[w] |= std::uint64_t{1} << bit;
        const auto level =
            static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(bit));
        levels.push_back(level);
        if (level > max_level) max_level = level;
        --remaining;
      }
      ++w;
    }
    auto& sh = send_hint[static_cast<std::size_t>(d.src)];
    while (sh < su.size() && su[sh] == ~std::uint64_t{0}) ++sh;
    auto& rh = recv_hint[static_cast<std::size_t>(d.dst)];
    while (rh < ru.size() && ru[rh] == ~std::uint64_t{0}) ++rh;
  }

  const std::int64_t classes = static_cast<std::int64_t>(max_level) + 1;
  sched.classes = classes;

  const auto nn = un * un;
  std::vector<std::int64_t> load_a(nn, 0), load_b(nn, 0);
  std::size_t at = 0;
  for (const auto& d : demands) {
    for (std::int64_t wds = 0; wds < d.words; ++wds) {
      const auto mid = static_cast<std::size_t>(
          static_cast<std::int64_t>(levels[at++]) * n / classes);
      ++load_a[mid * un + static_cast<std::size_t>(d.src)];
      ++load_b[mid * un + static_cast<std::size_t>(d.dst)];
    }
  }
  const auto max_a = *std::max_element(load_a.begin(), load_a.end());
  const auto max_b = *std::max_element(load_b.begin(), load_b.end());
  sched.rounds = max_a + max_b;
  if (levels_out != nullptr) *levels_out = std::move(levels);
  if (classes_out != nullptr) *classes_out = classes;
  return sched;
}

}  // namespace

std::int64_t rounds_direct(int n, const std::vector<Demand>& demands) {
  CCA_EXPECTS(n >= 1);
  // Aggregate per ordered link; a demand list may mention a link repeatedly.
  std::int64_t best = 0;
  std::vector<std::int64_t> acc;
  std::vector<std::vector<const Demand*>> by_src(static_cast<std::size_t>(n));
  for (const auto& d : demands) {
    CCA_EXPECTS(d.src >= 0 && d.src < n && d.dst >= 0 && d.dst < n);
    by_src[static_cast<std::size_t>(d.src)].push_back(&d);
  }
  acc.assign(static_cast<std::size_t>(n), 0);
  for (const auto& group : by_src) {
    for (const Demand* d : group) acc[static_cast<std::size_t>(d->dst)] += d->words;
    for (const Demand* d : group) {
      best = std::max(best, acc[static_cast<std::size_t>(d->dst)]);
      acc[static_cast<std::size_t>(d->dst)] = 0;
    }
  }
  return best;
}

std::int64_t rounds_hash_relay(int n, const std::vector<Demand>& demands) {
  CCA_EXPECTS(n >= 1);
  return relay_rounds(n, demands, [n](const Demand& d) {
    const auto key = static_cast<std::uint64_t>(d.src) * 0x1000003ULL +
                     static_cast<std::uint64_t>(d.dst);
    return static_cast<std::int64_t>(splitmix64(key) %
                                     static_cast<std::uint64_t>(n));
  });
}

std::int64_t rounds_random_relay(int n, const std::vector<Demand>& demands,
                                 Rng& rng) {
  CCA_EXPECTS(n >= 1);
  return relay_rounds(n, demands, [n, &rng](const Demand&) {
    return static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
  });
}

std::int64_t rounds_koenig_relay(int n, const std::vector<Demand>& demands) {
  return schedule_koenig_relay(n, demands).rounds;
}

std::int64_t rounds_greedy_relay(int n, const std::vector<Demand>& demands) {
  return schedule_greedy_relay(n, demands).rounds;
}

Schedule schedule_koenig_relay(int n, const std::vector<Demand>& demands) {
  return schedule_koenig_relay(n, demands, default_split_tasks());
}

Schedule schedule_koenig_relay(int n, const std::vector<Demand>& demands,
                               int split_tasks) {
  CCA_EXPECTS(n >= 1);
  Schedule sched;
  const auto edges = demand_edges(n, demands, &sched.words);
  if (edges.empty()) return sched;

  const auto nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  std::vector<std::int64_t> load_a(nn);
  std::vector<std::int64_t> load_b(nn);
  KoenigColouring colouring(n, load_a, load_b);
  colouring.colour(edges, split_tasks);

  const auto max_a = *std::max_element(load_a.begin(), load_a.end());
  const auto max_b = *std::max_element(load_b.begin(), load_b.end());
  sched.rounds = max_a + max_b;
  sched.classes = colouring.total_colours();
  return sched;
}

Schedule schedule_greedy_relay(int n, const std::vector<Demand>& demands) {
  return greedy_relay_impl(n, demands, nullptr, nullptr);
}

std::vector<std::vector<std::pair<int, int>>> koenig_relay_classes(
    int n, const std::vector<Demand>& demands, int split_tasks) {
  CCA_EXPECTS(n >= 1);
  const auto edges = demand_edges(n, demands, nullptr);
  if (edges.empty()) return {};
  const auto nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  std::vector<std::int64_t> load_a(nn), load_b(nn);
  KoenigColouring colouring(n, load_a, load_b);
  colouring.colour(edges, split_tasks <= 0 ? default_split_tasks()
                                           : split_tasks);
  const auto& log_edges = colouring.edges();
  const auto& log_bounds = colouring.bounds();
  std::vector<std::vector<std::pair<int, int>>> classes(log_bounds.size());
  for (std::size_t t = 0; t < log_bounds.size(); ++t) {
    const std::size_t finish =
        t + 1 < log_bounds.size() ? log_bounds[t + 1] : log_edges.size();
    for (std::size_t i = log_bounds[t]; i < finish; ++i)
      classes[t].emplace_back(static_cast<int>(log_edges[i] >> 16),
                              static_cast<int>(log_edges[i] & 0xffffu));
  }
  return classes;
}

std::vector<std::vector<std::pair<int, int>>> greedy_relay_classes(
    int n, const std::vector<Demand>& demands) {
  std::vector<std::uint32_t> levels;
  std::int64_t classes_n = 0;
  (void)greedy_relay_impl(n, demands, &levels, &classes_n);
  std::vector<std::vector<std::pair<int, int>>> classes(
      static_cast<std::size_t>(classes_n));
  std::size_t at = 0;
  for (const auto& d : demands)
    for (std::int64_t w = 0; w < d.words; ++w)
      classes[levels[at++]].emplace_back(d.src, d.dst);
  return classes;
}

std::uint64_t demand_fingerprint(int n, const std::vector<Demand>& demands) {
  // Order-sensitive SplitMix64 chaining over (n, src, dst, words). The
  // callers pass the canonical (src, dst)-ascending list, so byte-identical
  // traffic shapes — and only those — are meant to collide.
  std::uint64_t h =
      splitmix64(0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(n));
  for (const auto& d : demands) {
    const auto pair =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.src)) << 32) |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.dst));
    h = splitmix64(h ^ pair);
    h = splitmix64(h ^ static_cast<std::uint64_t>(d.words));
  }
  return h;
}

namespace {

// Stored demand lists are packed: each field of each demand is the zigzag
// LEB128 varint of its difference from the same field of the previous
// demand. A canonical list's src repeats and its dst and words change in
// small steps, so a 16-byte Demand packs into 3-4 bytes; any list (unsorted
// ones included) round-trips exactly.

void put_delta(std::vector<std::uint8_t>& out, std::int64_t cur,
               std::int64_t prev) {
  const auto d = static_cast<std::int64_t>(static_cast<std::uint64_t>(cur) -
                                           static_cast<std::uint64_t>(prev));
  auto z = (static_cast<std::uint64_t>(d) << 1) ^
           static_cast<std::uint64_t>(d >> 63);
  while (z >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(z | 0x80));
    z >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(z));
}

std::int64_t get_delta(const std::uint8_t*& at, std::int64_t prev) {
  std::uint64_t z = *at++;
  if (z >= 0x80) {  // multi-byte varint; most deltas fit in one byte
    z &= 0x7f;
    for (int shift = 7;; shift += 7) {
      const std::uint8_t byte = *at++;
      z |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (byte < 0x80) break;
    }
  }
  const auto d = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(z >> 1) ^ -static_cast<std::int64_t>(z & 1));
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(prev) + d);
}

std::vector<std::uint8_t> pack_demands(const std::vector<Demand>& demands) {
  std::vector<std::uint8_t> out;
  out.reserve(4 * demands.size());
  Demand prev;
  for (const auto& d : demands) {
    put_delta(out, d.src, prev.src);
    put_delta(out, d.dst, prev.dst);
    put_delta(out, d.words, prev.words);
    prev = d;
  }
  out.shrink_to_fit();
  return out;
}

/// Element-wise check of a packed list against `demands` (same length).
bool packed_equals(const std::vector<std::uint8_t>& packed,
                   const std::vector<Demand>& demands) {
  const std::uint8_t* at = packed.data();
  Demand prev;
  for (const auto& d : demands) {
    const Demand got{static_cast<int>(get_delta(at, prev.src)),
                     static_cast<int>(get_delta(at, prev.dst)),
                     get_delta(at, prev.words)};
    if (got != d) return false;
    prev = got;
  }
  return at == packed.data() + packed.size();
}

}  // namespace

Schedule ScheduleCache::get(int n, const std::vector<Demand>& demands,
                            SchedulePolicy policy) {
  return get(demand_fingerprint(n, demands), n, demands, policy);
}

Schedule ScheduleCache::get(std::uint64_t key, int n,
                            const std::vector<Demand>& demands,
                            SchedulePolicy policy) {
  std::size_t capacity = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const Entry* e = find(key, n, demands, policy)) {
      ++stats_.hits;
      return e->schedule;
    }
    ++stats_.misses;
    capacity = capacity_;
  }

  // Schedule with the lock released: the split may run for milliseconds
  // and other threads' hits must not wait on it.
  const Schedule sched = policy == SchedulePolicy::Greedy
                             ? schedule_greedy_relay(n, demands)
                             : schedule_koenig_relay(n, demands);
  if (demands.size() > capacity) return sched;  // never stored
  Entry entry{n, policy, demands.size(), pack_demands(demands), sched, key};

  const std::lock_guard<std::mutex> lock(mu_);
  // Another thread may have inserted the same shape meanwhile; its
  // schedule is the identical deterministic one, so the first insert wins.
  if (find(key, n, demands, policy) != nullptr) return sched;
  evict_to_fit(demands.size());
  cached_demands_ += demands.size();
  lru_.push_front(std::move(entry));
  map_[key].push_back(lru_.begin());
  return sched;
}

const ScheduleCache::Entry* ScheduleCache::find(
    std::uint64_t key, int n, const std::vector<Demand>& demands,
    SchedulePolicy policy) {
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  for (const auto eit : it->second)
    if (eit->n == n && eit->policy == policy &&
        eit->count == demands.size() && packed_equals(eit->packed, demands)) {
      lru_.splice(lru_.begin(), lru_, eit);
      return &*eit;
    }
  return nullptr;
}

void ScheduleCache::evict_to_fit(std::size_t incoming_demands) {
  while (!lru_.empty() && cached_demands_ + incoming_demands > capacity_) {
    const auto victim = std::prev(lru_.end());
    const auto cit = map_.find(victim->key);
    CCA_ASSERT(cit != map_.end());
    auto& chain = cit->second;
    chain.erase(std::find(chain.begin(), chain.end(), victim));
    if (chain.empty()) map_.erase(cit);
    cached_demands_ -= victim->count;
    lru_.erase(victim);
    ++stats_.evictions;
  }
}

ScheduleCache::Stats ScheduleCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t ScheduleCache::entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void ScheduleCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
  cached_demands_ = 0;
  stats_ = Stats{};
}

void ScheduleCache::set_capacity(std::size_t max_cached_demands) {
  const std::lock_guard<std::mutex> lock(mu_);
  capacity_ = max_cached_demands;
}

ScheduleCache& schedule_store() {
  static ScheduleCache store;
  return store;
}

}  // namespace cca::clique
