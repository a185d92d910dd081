#include "core/mm.hpp"

#include <utility>

namespace cca::core {

std::pair<int, int> sparse_chunk_bounds(int cnt, int g, int r) {
  CCA_EXPECTS(g >= 1 && r >= 0 && r < g && cnt >= g);
  const int base = cnt / g;
  const int rem = cnt % g;
  const int first = r * base + std::min(r, rem);
  return {first, first + base + (r < rem ? 1 : 0)};
}

std::int64_t sparse_triple_count(int n, const SparsePattern& s_rows,
                                 const SparsePattern& t_rows) {
  CCA_EXPECTS(static_cast<int>(s_rows.size()) == n &&
              static_cast<int>(t_rows.size()) == n);
  std::vector<std::int64_t> col_cnt(static_cast<std::size_t>(n), 0);
  for (const auto& row : s_rows)
    for (const int k : row) ++col_cnt[static_cast<std::size_t>(k)];
  std::int64_t triples = 0;
  for (int k = 0; k < n; ++k)
    triples += col_cnt[static_cast<std::size_t>(k)] *
               static_cast<std::int64_t>(t_rows[static_cast<std::size_t>(k)].size());
  return triples;
}

namespace {

/// The worker partition of the sparse plan, computed from QUANTISED count
/// profiles (sparse_count_bucket): intermediate k's weight is
/// bucket(colS(k)) * bucket(rowT(k)), so iterates whose per-row counts
/// drift within their buckets keep the IDENTICAL partition — the structural
/// prerequisite for the distribute / contribute demand lists to repeat
/// across squarings and hit the schedule store. Shared by
/// build_sparse_mm_structure and the build-free lower bound so the gate can
/// never disagree with the plan it is gating.
struct SparseWorkerPartition {
  std::vector<int> group_size;
  std::vector<std::vector<int>> extras;
  std::vector<std::vector<std::pair<int, int>>> worker_extras;
};

SparseWorkerPartition sparse_worker_partition(
    int n, const std::vector<std::int64_t>& col_s,
    const std::vector<std::int64_t>& row_t) {
  SparseWorkerPartition p;
  p.group_size.assign(static_cast<std::size_t>(n), 0);
  p.extras.resize(static_cast<std::size_t>(n));
  p.worker_extras.resize(static_cast<std::size_t>(n));
  std::int64_t qtriples = 0;
  for (int k = 0; k < n; ++k)
    qtriples += sparse_count_bucket(col_s[static_cast<std::size_t>(k)]) *
                sparse_count_bucket(row_t[static_cast<std::size_t>(k)]);
  if (qtriples == 0) return p;
  int pointer = 0;
  for (int k = 0; k < n; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    const auto t_k =
        sparse_count_bucket(col_s[ks]) * sparse_count_bucket(row_t[ks]);
    if (t_k == 0) continue;
    const auto ideal = ceil_div(t_k * n, qtriples);
    const auto cnt = col_s[ks];
    // Replication-efficiency cap: every extra worker receives the FULL T
    // row (b_k entries) alongside its a-chunk, so splitting past ~sqrt(cnt)
    // workers pumps more replicated words out of the holder than it shaves
    // off any worker's contribute load (holder out grows as g * b_k while
    // the per-worker product volume shrinks as cnt * b_k / g — the max of
    // the two is minimized at g = sqrt(cnt)). Power-law hubs are exactly
    // where this bites: deg^2 triples at one intermediate would otherwise
    // demand ~n workers and re-ship the hub row to each of them. The cap
    // too reads the bucketed count; only the cnt bound is exact (chunks
    // must stay nonempty).
    const auto rep_cap = isqrt(sparse_count_bucket(cnt)) + 1;
    const int g =
        static_cast<int>(std::min<std::int64_t>({ideal, rep_cap, cnt, n}));
    p.group_size[ks] = g;
    for (int r = 1; r < g; ++r) {
      if (pointer == k) pointer = (pointer + 1) % n;
      p.extras[ks].push_back(pointer);
      p.worker_extras[static_cast<std::size_t>(pointer)].push_back({k, r});
      pointer = (pointer + 1) % n;
    }
  }
  return p;
}

}  // namespace

SparseMmStructure build_sparse_mm_structure(
    int n, const SparsePattern& s_rows, const SparsePattern& t_rows,
    const std::function<std::size_t(std::size_t)>& value_words) {
  CCA_EXPECTS(n >= 1);
  CCA_EXPECTS(static_cast<int>(s_rows.size()) == n &&
              static_cast<int>(t_rows.size()) == n);
  SparseMmStructure st;
  st.s_cols.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    st.rho_s += static_cast<std::int64_t>(s_rows[static_cast<std::size_t>(i)].size());
    st.rho_t += static_cast<std::int64_t>(t_rows[static_cast<std::size_t>(i)].size());
    for (const int k : s_rows[static_cast<std::size_t>(i)])
      st.s_cols[static_cast<std::size_t>(k)].push_back(i);
  }
  if (st.rho_s == 0 || st.rho_t == 0) {
    st.trivial = true;
    return st;
  }

  // SparseCodec message size for a c-pair block — exact, and its QUANTISED
  // frame variant (see sparse_count_bucket): the distribute / contribute
  // messages are sized by the bucketed counts so shapes repeat across
  // iterations whose counts drift within their buckets.
  auto sparse_words = [&](std::size_t c) {
    return (c + 1) / 2 + value_words(c);
  };
  auto sparse_frame = [&](std::size_t c) {
    return sparse_words(static_cast<std::size_t>(
        sparse_count_bucket(static_cast<std::int64_t>(c))));
  };
  const auto vw1 = static_cast<std::int64_t>(value_words(1));

  // Balanced triple partition over the bucketed count profiles: intermediate
  // k weighs bucket(colS(k)) * bucket(rowT(k)) and gets ~proportional
  // workers, node k first (the common balanced case moves nothing). Extra
  // workers come from a rolling pointer over the node ids — the same
  // g-mod-n flavour of balancing clique::disseminate uses for its word
  // relocation. (st.triples stays the EXACT count: the dispatcher's volume
  // cap reads it.)
  std::vector<std::int64_t> col_s(static_cast<std::size_t>(n)),
      row_t(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    col_s[ks] = static_cast<std::int64_t>(st.s_cols[ks].size());
    row_t[ks] = static_cast<std::int64_t>(t_rows[ks].size());
    st.triples += col_s[ks] * row_t[ks];
  }
  auto part = sparse_worker_partition(n, col_s, row_t);
  st.group_size = std::move(part.group_size);
  st.extras = std::move(part.extras);
  st.worker_extras = std::move(part.worker_extras);

  // Gather demands: every off-diagonal nonzero S[i,k] is one value message
  // i -> k — EXCEPT entries of columns whose T row is empty: the step-0
  // announcement already told every node those intermediates can form no
  // triple, so their values never need to move (disjoint-support inputs
  // would otherwise pay full gather rounds for provably-zero work).
  // (src, dst) ascending because rows and their patterns are.
  for (int i = 0; i < n; ++i)
    for (const int k : s_rows[static_cast<std::size_t>(i)])
      if (k != i && !t_rows[static_cast<std::size_t>(k)].empty())
        st.gather.push_back({i, k, vw1});

  // Distribute demands: holder k -> extra worker, header + chunk + T row.
  for (int k = 0; k < n; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    const int g = st.group_size[ks];
    if (g < 2) continue;
    const auto b_cnt = t_rows[ks].size();
    std::vector<std::pair<int, std::int64_t>> msgs;
    for (int r = 1; r < g; ++r) {
      const auto [lo, hi] =
          sparse_chunk_bounds(static_cast<int>(st.s_cols[ks].size()), g, r);
      const auto words = sparse_msg_align(
          static_cast<std::int64_t>(
              2 + sparse_frame(static_cast<std::size_t>(hi - lo)) +
              sparse_frame(b_cnt)),
          kSparseDistributeAlign);
      msgs.push_back({st.extras[ks][static_cast<std::size_t>(r - 1)], words});
    }
    std::sort(msgs.begin(), msgs.end());
    for (const auto& [w, words] : msgs)
      st.distribute.push_back({k, w, words});
  }

  // Contribute demands: the symbolic merge. Worker w's items are its own
  // chunk (intermediate w) plus its extra chunks; for each output row i the
  // contribution entry count is the union of the T-row patterns of the
  // intermediates pairing with i at w. This mirrors the executor exactly —
  // entries count as TOUCHED regardless of the eventual product value, so
  // the counts (and hence the demands) are value-independent.
  st.contrib.resize(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
  std::vector<int> seen_list;
  std::vector<std::pair<int, int>> pairs;  // (output row i, intermediate k)
  for (int w = 0; w < n; ++w) {
    const auto ws = static_cast<std::size_t>(w);
    pairs.clear();
    if (st.group_size[ws] >= 1) {
      const auto& rows = st.s_cols[ws];
      const auto [lo, hi] = sparse_chunk_bounds(static_cast<int>(rows.size()),
                                                st.group_size[ws], 0);
      for (int x = lo; x < hi; ++x)
        pairs.push_back({rows[static_cast<std::size_t>(x)], w});
    }
    for (const auto& [k, r] : st.worker_extras[ws]) {
      const auto& rows = st.s_cols[static_cast<std::size_t>(k)];
      const auto [lo, hi] = sparse_chunk_bounds(
          static_cast<int>(rows.size()), st.group_size[static_cast<std::size_t>(k)], r);
      for (int x = lo; x < hi; ++x)
        pairs.push_back({rows[static_cast<std::size_t>(x)], k});
    }
    std::sort(pairs.begin(), pairs.end());
    for (std::size_t a = 0; a < pairs.size();) {
      const int i = pairs[a].first;
      std::size_t b = a;
      for (; b < pairs.size() && pairs[b].first == i; ++b)
        for (const int j :
             t_rows[static_cast<std::size_t>(pairs[b].second)])
          if (seen[static_cast<std::size_t>(j)] == 0) {
            seen[static_cast<std::size_t>(j)] = 1;
            seen_list.push_back(j);
          }
      const int cnt = static_cast<int>(seen_list.size());
      st.contrib[ws].push_back({i, cnt});
      if (i != w)
        st.contribute.push_back(
            {w, i,
             sparse_msg_align(
                 static_cast<std::int64_t>(
                     1 + sparse_frame(static_cast<std::size_t>(cnt))),
                 sparse_contribute_align(n))});
      for (const int j : seen_list) seen[static_cast<std::size_t>(j)] = 0;
      seen_list.clear();
      a = b;
    }
  }
  return st;
}

namespace {

/// Emit per-source accumulated words as canonical (src, dst)-ascending
/// demands, skipping self-pairs — the exact list Network::deliver derives
/// from the staged segments.
void emit_demands(int src, std::vector<std::int64_t>& words_by_dst,
                  std::vector<clique::Demand>& out) {
  for (int dst = 0; dst < static_cast<int>(words_by_dst.size()); ++dst) {
    const auto w = words_by_dst[static_cast<std::size_t>(dst)];
    if (w > 0 && dst != src) out.push_back({src, dst, w});
    words_by_dst[static_cast<std::size_t>(dst)] = 0;
  }
}

}  // namespace

std::pair<std::vector<clique::Demand>, std::vector<clique::Demand>>
semiring3d_superstep_demands(int n, std::size_t block_words,
                             std::size_t batch) {
  CCA_EXPECTS(is_perfect_cube(n));
  if (n == 1) return {};
  const int c = static_cast<int>(icbrt(n));
  const int c2 = c * c;
  const auto group =
      static_cast<std::int64_t>(batch * block_words);  // step 3: unpadded
  const auto staged = static_cast<std::int64_t>(
      detail::padded_group_words(batch * block_words));  // step 1: padded
  auto d1 = [c2](int v) { return v / c2; };
  std::vector<std::int64_t> words(static_cast<std::size_t>(n), 0);
  std::vector<clique::Demand> step1, step3;
  for (int v = 0; v < n; ++v) {
    for (int tail = 0; tail < c2; ++tail)
      words[static_cast<std::size_t>(d1(v) * c2 + tail)] += staged;
    for (int w1 = 0; w1 < c; ++w1)
      for (int w3 = 0; w3 < c; ++w3)
        words[static_cast<std::size_t>(w1 * c2 + d1(v) * c + w3)] += staged;
    emit_demands(v, words, step1);
  }
  for (int v = 0; v < n; ++v) {
    for (int tail = 0; tail < c2; ++tail)
      words[static_cast<std::size_t>(d1(v) * c2 + tail)] += group;
    emit_demands(v, words, step3);
  }
  return {std::move(step1), std::move(step3)};
}

std::int64_t semiring3d_planned_rounds(clique::Network& net, int n,
                                       std::size_t block_words,
                                       std::size_t batch) {
  CCA_EXPECTS(net.n() == n);
  if (n == 1) return 0;
  const auto [step1, step3] = semiring3d_superstep_demands(n, block_words, batch);
  return net.prepare_schedule(step1) + net.prepare_schedule(step3);
}

std::vector<std::vector<clique::Demand>> fast_bilinear_superstep_demands(
    int n, const BilinearAlgorithm& alg, std::size_t row_words,
    std::size_t blk_words) {
  CCA_EXPECTS(is_perfect_square(n));
  if (n == 1) return {};
  const int sq = static_cast<int>(isqrt(n));
  const int d = alg.d;
  const int m = alg.m;
  CCA_EXPECTS(d >= 1 && sq % d == 0 && m <= n);
  const int bs = sq / d;
  const int big = n / d;
  const auto rw = static_cast<std::int64_t>(row_words);
  const auto bw = static_cast<std::int64_t>(blk_words);
  std::vector<std::int64_t> words(static_cast<std::size_t>(n), 0);
  std::vector<clique::Demand> s1, s3, s5, s7;
  for (int v = 0; v < n; ++v) {
    const int v2 = (v / bs) % sq;
    for (int x2 = 0; x2 < sq; ++x2)
      words[static_cast<std::size_t>(v2 * sq + x2)] += 2 * rw;
    emit_demands(v, words, s1);
  }
  for (int u = 0; u < n; ++u) {
    for (int w = 0; w < m; ++w)
      words[static_cast<std::size_t>(w)] += 2 * bw;
    emit_demands(u, words, s3);
  }
  for (int w = 0; w < m; ++w) {
    for (int u = 0; u < n; ++u) words[static_cast<std::size_t>(u)] += bw;
    emit_demands(w, words, s5);
  }
  for (int u = 0; u < n; ++u) {
    const int x1 = u / sq;
    for (int r1 = 0; r1 < d; ++r1)
      for (int r3 = 0; r3 < bs; ++r3)
        words[static_cast<std::size_t>(r1 * big + x1 * bs + r3)] += rw;
    emit_demands(u, words, s7);
  }
  std::vector<std::vector<clique::Demand>> out;
  out.push_back(std::move(s1));
  out.push_back(std::move(s3));
  out.push_back(std::move(s5));
  out.push_back(std::move(s7));
  return out;
}

std::int64_t fast_bilinear_planned_rounds(clique::Network& net, int n,
                                          const BilinearAlgorithm& alg,
                                          std::size_t row_words,
                                          std::size_t blk_words) {
  CCA_EXPECTS(net.n() == n);
  if (n == 1) return 0;
  std::int64_t total = 0;
  for (const auto& step :
       fast_bilinear_superstep_demands(n, alg, row_words, blk_words))
    total += net.prepare_schedule(step);
  return total;
}

std::int64_t relay_round_lower_bound(int n,
                                     const std::vector<clique::Demand>& demands) {
  if (n <= 1 || demands.empty()) return 0;
  std::vector<std::int64_t> out(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> in(static_cast<std::size_t>(n), 0);
  for (const auto& d : demands) {
    out[static_cast<std::size_t>(d.src)] += d.words;
    in[static_cast<std::size_t>(d.dst)] += d.words;
  }
  // The relay counts the self-loop as a usable link (a word whose
  // intermediate is its own source or destination skips that hop), so each
  // phase spreads a node's volume over n ports, not n-1 — dividing by n-1
  // here would EXCEED the real schedule on shapes the scheduler balances
  // perfectly (measured: 33 vs an actual 29 for the fast-bilinear step
  // shapes at n=64), silently breaking the skip gate's soundness.
  std::int64_t a = 0, b = 0;
  for (int v = 0; v < n; ++v) {
    a = std::max(a, ceil_div(out[static_cast<std::size_t>(v)], n));
    b = std::max(b, ceil_div(in[static_cast<std::size_t>(v)], n));
  }
  return a + b;
}

namespace {

/// Per-node (out, in) volume accumulators for the build-free sparse lower
/// bound, one pair per staged sparse superstep. Merged batch supersteps add
/// the per-product volumes per node before one bound is taken per phase.
struct SparsePhaseVolumes {
  explicit SparsePhaseVolumes(int n)
      : gather_out(static_cast<std::size_t>(n), 0),
        gather_in(static_cast<std::size_t>(n), 0),
        distribute_out(static_cast<std::size_t>(n), 0),
        distribute_in(static_cast<std::size_t>(n), 0),
        contribute_out(static_cast<std::size_t>(n), 0),
        contribute_in(static_cast<std::size_t>(n), 0) {}
  std::vector<std::int64_t> gather_out, gather_in;
  std::vector<std::int64_t> distribute_out, distribute_in;
  std::vector<std::int64_t> contribute_out, contribute_in;
};

/// relay_round_lower_bound straight from per-node volume arrays (same
/// divide-by-n soundness argument, no demand list materialised).
std::int64_t relay_volume_lower_bound(int n,
                                      const std::vector<std::int64_t>& out,
                                      const std::vector<std::int64_t>& in) {
  if (n <= 1) return 0;
  std::int64_t a = 0, b = 0;
  for (int v = 0; v < n; ++v) {
    a = std::max(a, ceil_div(out[static_cast<std::size_t>(v)], n));
    b = std::max(b, ceil_div(in[static_cast<std::size_t>(v)], n));
  }
  return a + b;
}

/// Accumulate one product's per-node volume LOWER BOUNDS for the three
/// staged sparse supersteps WITHOUT building the O(T) structure.
void add_sparse_volume_lower_bound(
    int n, const SparsePattern& s_rows, const SparsePattern& t_rows,
    const std::function<std::size_t(std::size_t)>& value_words,
    SparsePhaseVolumes& acc) {
  CCA_EXPECTS(static_cast<int>(s_rows.size()) == n &&
              static_cast<int>(t_rows.size()) == n);
  auto sparse_words = [&](std::size_t c) {
    return static_cast<std::int64_t>((c + 1) / 2 + value_words(c));
  };
  auto sparse_frame = [&](std::size_t c) {
    return sparse_words(static_cast<std::size_t>(
        sparse_count_bucket(static_cast<std::int64_t>(c))));
  };
  const auto vw1 = static_cast<std::int64_t>(value_words(1));

  // Count profiles and the column pattern — O(nnz + n), the whole budget.
  std::vector<std::int64_t> col_s(static_cast<std::size_t>(n), 0),
      row_t(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> s_cols(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    for (const int k : s_rows[static_cast<std::size_t>(i)]) {
      ++col_s[static_cast<std::size_t>(k)];
      s_cols[static_cast<std::size_t>(k)].push_back(i);
    }
  for (int k = 0; k < n; ++k)
    row_t[static_cast<std::size_t>(k)] =
        static_cast<std::int64_t>(t_rows[static_cast<std::size_t>(k)].size());

  // Gather volumes are exact: one vw1 message per off-diagonal S nonzero
  // whose column has a live T row.
  for (int i = 0; i < n; ++i)
    for (const int k : s_rows[static_cast<std::size_t>(i)])
      if (k != i && row_t[static_cast<std::size_t>(k)] > 0) {
        acc.gather_out[static_cast<std::size_t>(i)] += vw1;
        acc.gather_in[static_cast<std::size_t>(k)] += vw1;
      }

  // The builder's own (quantised) partition: distribute volumes follow
  // exactly, no structure needed.
  const auto part = sparse_worker_partition(n, col_s, row_t);
  for (int k = 0; k < n; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    const int g = part.group_size[ks];
    if (g < 2) continue;
    const auto b_frame =
        sparse_frame(static_cast<std::size_t>(row_t[ks]));
    for (int r = 1; r < g; ++r) {
      const auto [lo, hi] =
          sparse_chunk_bounds(static_cast<int>(col_s[ks]), g, r);
      const auto words = sparse_msg_align(
          2 + sparse_frame(static_cast<std::size_t>(hi - lo)) + b_frame,
          kSparseDistributeAlign);
      acc.distribute_out[ks] += words;
      acc.distribute_in[static_cast<std::size_t>(
          part.extras[ks][static_cast<std::size_t>(r - 1)])] += words;
    }
  }

  // Contribute lower bound. The real phase ships, per distinct
  // (worker, output row) pair with row != worker, ONE message of
  // 1 + frame(|union of contributing T-row patterns|) words. The union is
  // at least as large as the largest contributing T row, the frame at
  // least the exact words — so charging 1 + sparse_words(max rowT) per
  // pair never overestimates. Enumerating the pairs is an O(nnz) sweep:
  // position x of column k lands at chunk r (the sparse_chunk_bounds
  // inverse), worker r == 0 ? k : extras[k][r-1].
  struct Pair {
    int w;
    int i;
    std::int64_t b;
  };
  std::vector<Pair> pairs;
  for (int k = 0; k < n; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    const int g = part.group_size[ks];
    if (g == 0) continue;
    const auto& rows = s_cols[ks];
    for (int r = 0; r < g; ++r) {
      const auto [lo, hi] =
          sparse_chunk_bounds(static_cast<int>(rows.size()), g, r);
      const int w = r == 0 ? k : part.extras[ks][static_cast<std::size_t>(r - 1)];
      for (int x = lo; x < hi; ++x) {
        const int i = rows[static_cast<std::size_t>(x)];
        if (i != w) pairs.push_back({w, i, row_t[ks]});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return a.w != b.w ? a.w < b.w : (a.i != b.i ? a.i < b.i : a.b < b.b);
  });
  for (std::size_t a = 0; a < pairs.size();) {
    std::size_t b = a;
    std::int64_t maxb = 0;
    for (; b < pairs.size() && pairs[b].w == pairs[a].w &&
           pairs[b].i == pairs[a].i;
         ++b)
      maxb = std::max(maxb, pairs[b].b);
    // Alignment is monotone, so aligning the per-pair underestimate stays
    // below the real (aligned) message size.
    const auto words = sparse_msg_align(
        1 + sparse_words(static_cast<std::size_t>(maxb)),
        sparse_contribute_align(n));
    acc.contribute_out[static_cast<std::size_t>(pairs[a].w)] += words;
    acc.contribute_in[static_cast<std::size_t>(pairs[a].i)] += words;
    a = b;
  }
}

/// Merge per-product canonical demand lists into the canonical list of the
/// SHARED batched superstep: the per-pair blocks concatenate on the wire,
/// so words add per (src, dst) — exactly the list Network::deliver derives
/// from the batched staging.
std::vector<clique::Demand> merge_demands(
    std::span<const SparseMmStructure> sts,
    std::vector<clique::Demand> SparseMmStructure::* phase) {
  std::vector<clique::Demand> all;
  for (const auto& st : sts)
    if (!st.trivial)
      all.insert(all.end(), (st.*phase).begin(), (st.*phase).end());
  std::sort(all.begin(), all.end(),
            [](const clique::Demand& a, const clique::Demand& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
  std::vector<clique::Demand> out;
  out.reserve(all.size());
  for (const auto& d : all) {
    if (!out.empty() && out.back().src == d.src && out.back().dst == d.dst)
      out.back().words += d.words;
    else
      out.push_back(d);
  }
  return out;
}

}  // namespace

std::int64_t sparse_round_lower_bound(
    int n, std::span<const SparsePattern> s_rows,
    std::span<const SparsePattern> t_rows,
    const std::function<std::size_t(std::size_t)>& value_words) {
  CCA_EXPECTS(t_rows.size() == s_rows.size());
  SparsePhaseVolumes vols(n);
  std::int64_t live = 0;
  for (std::size_t b = 0; b < s_rows.size(); ++b) {
    std::int64_t rho_s = 0, rho_t = 0;
    for (const auto& row : s_rows[b])
      rho_s += static_cast<std::int64_t>(row.size());
    for (const auto& row : t_rows[b])
      rho_t += static_cast<std::int64_t>(row.size());
    if (rho_s == 0 || rho_t == 0) continue;  // trivial: plans 0 rounds
    ++live;
    add_sparse_volume_lower_bound(n, s_rows[b], t_rows[b], value_words, vols);
  }
  if (live == 0) return 0;
  return live + relay_volume_lower_bound(n, vols.gather_out, vols.gather_in) +
         relay_volume_lower_bound(n, vols.distribute_out, vols.distribute_in) +
         relay_volume_lower_bound(n, vols.contribute_out, vols.contribute_in);
}

std::int64_t sparse_plan_cap(int n) {
  return 4 * static_cast<std::int64_t>(n) * n * icbrt(n);
}

std::int64_t sparse_planned_rounds_batch(
    clique::Network& net, std::span<const SparseMmStructure> sts,
    std::int64_t abort_above) {
  std::int64_t live = 0;
  const SparseMmStructure* lone = nullptr;
  for (const auto& st : sts)
    if (!st.trivial) {
      ++live;
      lone = &st;
    }
  if (live == 0) return 0;
  // A lone live product's canonical lists ARE the merged lists: schedule
  // them in place (the single-product Auto and APSP squarings plan here on
  // every call, so the merge's copy and sort would be pure host overhead).
  std::vector<clique::Demand> merged[3];
  if (live > 1) {
    merged[0] = merge_demands(sts, &SparseMmStructure::gather);
    merged[1] = merge_demands(sts, &SparseMmStructure::distribute);
    merged[2] = merge_demands(sts, &SparseMmStructure::contribute);
  }
  const auto& gather = live > 1 ? merged[0] : lone->gather;
  const auto& distribute = live > 1 ? merged[1] : lone->distribute;
  const auto& contribute = live > 1 ? merged[2] : lone->contribute;
  // Volume bounds of the not-yet-scheduled phases gate each Euler split:
  // an abort returns (exact scheduled prefix) + (volume bounds of the
  // rest) — still a lower bound on the true total, and already above the
  // threshold, so the caller's comparison is unchanged while the losing
  // plan skips its remaining (host-expensive) splits. These bounds read
  // the BUILT phase lists, so they are tighter than the build-free
  // sparse_round_lower_bound the dispatcher used for the admission skip.
  const int n = net.n();
  const std::int64_t lb_d = relay_round_lower_bound(n, distribute);
  const std::int64_t lb_c = relay_round_lower_bound(n, contribute);
  std::int64_t acc = live;
  if (acc + relay_round_lower_bound(n, gather) + lb_d + lb_c > abort_above)
    return acc + relay_round_lower_bound(n, gather) + lb_d + lb_c;
  acc += net.prepare_schedule(gather);
  if (acc + lb_d + lb_c > abort_above) return acc + lb_d + lb_c;
  acc += net.prepare_schedule(distribute);
  if (acc + lb_c > abort_above) return acc + lb_c;
  return acc + net.prepare_schedule(contribute);
}

int semiring_clique_size(int n) {
  CCA_EXPECTS(n >= 1);
  return static_cast<int>(next_cube(n));
}

FastPlan plan_fast_mm(int n, int depth, int base_d, int base_m) {
  CCA_EXPECTS(n >= 1 && depth >= 0 && base_d >= 1 && base_m >= 1);
  FastPlan plan;
  plan.depth = depth;
  plan.d = static_cast<int>(ipow(base_d, depth));
  plan.m = static_cast<int>(ipow(base_m, depth));
  // clique_n must be a perfect square with d | sqrt(clique_n), at least n
  // (to fit the matrix) and at least m (one node per block product).
  const std::int64_t lower = std::max<std::int64_t>(n, plan.m);
  plan.clique_n =
      static_cast<int>(next_square_with_root_multiple(lower, plan.d));
  return plan;
}

FastPlan plan_fast_mm_auto(int n, int base_d, int base_m) {
  CCA_EXPECTS(n >= 1);
  // Largest depth whose product count fits within n nodes ("fix d so that
  // m(d) = n"); deeper tensor powers would leave block products unhosted.
  int depth = 0;
  std::int64_t products = 1;
  while (products * base_m <= n) {
    products *= base_m;
    ++depth;
  }
  // Among depths <= depth, prefer the least per-node round cost. Step 3/5
  // move ~2(N + m) * bs^2 words through each node with bs^2 = N/d^2, i.e.
  // about (N + m)/d^2 rounds; this also accounts for padding inflation of N.
  FastPlan best = plan_fast_mm(n, 0, base_d, base_m);
  auto cost = [](const FastPlan& p) {
    return (static_cast<double>(p.clique_n) + p.m) /
           (static_cast<double>(p.d) * p.d);
  };
  for (int k = 1; k <= depth; ++k) {
    const FastPlan p = plan_fast_mm(n, k, base_d, base_m);
    if (cost(p) < cost(best)) best = p;
  }
  return best;
}

}  // namespace cca::core
