// Distributed matrix multiplication on the congested clique — the paper's
// core contribution (Section 2, Theorem 1).
//
//  * mm_semiring_3d   — Section 2.1: the "3D" algorithm; O(n^{1/3}) rounds
//                       over any semiring.
//  * mm_fast_bilinear — Section 2.2 / Lemma 10: turns ANY bilinear algorithm
//                       with m(d) = O(d^sigma) multiplications into an
//                       O(n^{1-2/sigma}) round clique algorithm over a ring.
//  * mm_naive_broadcast — the trivial O(n)-round baseline (everyone learns
//                       both matrices).
//
// Input/output distribution follows the paper: node v holds row v of both
// inputs and ends with row v of the product. The orchestrated simulation
// stages node v's messages exclusively from data node v legitimately holds
// at that point of the algorithm (its input rows, then whatever it received
// in earlier supersteps).
//
// Data plane: both directions are zero-copy. Send staging encodes directly
// into Network::stage spans (no intermediate value/word buffers), and every
// staging loop runs under cca::parallel_for over the SENDERS — legal
// because each source owns its per-source outbox (see Network::stage), and
// layout-preserving because per-source append order is unchanged. Receive
// decoding goes through decode_into straight into matrix rows or reused
// scratch. None of this moves a word: TrafficStats are bit-identical to the
// serial entry-at-a-time implementation.
//
// All functions require net.n() == matrix dimension and an "admissible" n
// (perfect cube for the 3D algorithm; square with d | sqrt(n) and m <= n for
// the bilinear scheme). pad_matrix / semiring_clique_size / plan_fast_mm
// below embed an arbitrary instance into the next admissible size, which is
// how the paper's "assume n^{1/3} is an integer for convenience" is
// discharged.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "clique/network.hpp"
#include "clique/primitives.hpp"
#include "matrix/bilinear.hpp"
#include "matrix/codec.hpp"
#include "matrix/kernels.hpp"
#include "matrix/matrix.hpp"
#include "matrix/ops.hpp"
#include "matrix/semiring.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace cca::core {

/// Optional per-step wall-clock breakdown of one mm_* invocation (pass a
/// profile pointer to fill it). Steps alternate staging / delivery / local
/// compute, so the breakdown separates encode cost, router cost, and kernel
/// cost — bench_mm --steps prints it.
struct MmStepProfile {
  struct Step {
    const char* name;
    std::int64_t ns;
  };
  std::vector<Step> steps;
};

namespace detail {

/// Lap timer feeding MmStepProfile; all calls are no-ops when profile is
/// null, so the instrumented algorithms pay nothing in normal runs.
class StepClock {
 public:
  explicit StepClock(MmStepProfile* profile) : profile_(profile) {
    if (profile_ != nullptr) last_ = std::chrono::steady_clock::now();
  }
  void lap(const char* name) {
    if (profile_ == nullptr) return;
    const auto t = std::chrono::steady_clock::now();
    profile_->steps.push_back(
        {name, std::chrono::duration_cast<std::chrono::nanoseconds>(t - last_)
                   .count()});
    last_ = t;
  }

 private:
  MmStepProfile* profile_;
  std::chrono::steady_clock::time_point last_;
};

/// Odd-word-count scheduler cliff (ROADMAP `bench_mm --steps` finding): a
/// superstep whose per-pair word count is odd defeats the Euler split's
/// identical-halves collapse, so its KoenigRelay schedule is built at word
/// granularity — the semiring_3d wall-clock spike at clique_n=343
/// (49 words/pair) versus 512 (64 = 2^6, six collapsed levels). Large odd
/// per-pair groups are therefore padded by ONE trailing zero word at stage
/// time; decode offsets are unchanged (receivers simply never read the pad
/// word), so any codec permits it. Small groups are left alone: their class
/// logs are cheap, and the extra word would be pure traffic inflation (for
/// the 1-word PackedBool groups it would double the message). The pinned
/// traffic regressions and the committed BENCH baselines demonstrate the
/// padded sizes' rounds stay no worse.
constexpr std::size_t kOddPadMinWords = 17;

[[nodiscard]] constexpr std::size_t padded_group_words(
    std::size_t words) noexcept {
  return words + (words % 2 != 0 && words >= kOddPadMinWords ? 1 : 0);
}

/// Decode a `count`-entry block that starts at word `word_offset` of a
/// message span into out[0..count), with no allocation. The batch layouts
/// compute offsets in words directly (block k of a B-group lives at
/// k * words_for(block_entries)), which stays exact for bit-packing codecs
/// whose words_for is not additive over entry counts (PackedBoolCodec at
/// non-64-multiple blocks).
template <typename Codec, typename V>
void decode_entries_at(const Codec& codec, std::span<const clique::Word> in,
                       std::size_t word_offset, std::size_t count, V* out) {
  CCA_EXPECTS(word_offset + codec.words_for(count) <= in.size());
  codec.decode_into(in.data() + word_offset, count, out);
}

/// acc[i*w + j] (+|-)= coeff * src(r0+i, c0+j) over an h x w block, where
/// acc is a flat row-major block. |coeff| == 1 skips the multiply (the
/// generic fallback — also the only case a semiring without subtraction
/// could support for positive coefficients); larger coefficients build the
/// scalar once and multiply-accumulate. Negative coefficients use the
/// ring's subtraction.
template <Ring R>
void scaled_accumulate(const R& ring, typename R::Value* acc, int h, int w,
                       const Matrix<typename R::Value>& src, int r0, int c0,
                       std::int64_t coeff) {
  if (coeff == 0) return;
  if (coeff == 1) {
    for (int i = 0; i < h; ++i) {
      const auto* srow = src.row(r0 + i) + c0;
      auto* arow = acc + static_cast<std::size_t>(i) * w;
      for (int j = 0; j < w; ++j) arow[j] = ring.add(arow[j], srow[j]);
    }
    return;
  }
  if (coeff == -1) {
    for (int i = 0; i < h; ++i) {
      const auto* srow = src.row(r0 + i) + c0;
      auto* arow = acc + static_cast<std::size_t>(i) * w;
      for (int j = 0; j < w; ++j) arow[j] = ring.sub(arow[j], srow[j]);
    }
    return;
  }
  const auto scale = scalar_of(ring, coeff > 0 ? coeff : -coeff);
  for (int i = 0; i < h; ++i) {
    const auto* srow = src.row(r0 + i) + c0;
    auto* arow = acc + static_cast<std::size_t>(i) * w;
    if (coeff > 0)
      for (int j = 0; j < w; ++j)
        arow[j] = ring.add(arow[j], ring.mul(scale, srow[j]));
    else
      for (int j = 0; j < w; ++j)
        arow[j] = ring.sub(arow[j], ring.mul(scale, srow[j]));
  }
}

/// dst(r0+i, c0+j) (+|-)= coeff * piece[i*bs + j] over a bs x bs block —
/// the flat-source dual of scaled_accumulate, used when the accumulator is
/// a matrix view and the source is a decoded scratch block.
template <Ring R>
void scaled_accumulate_flat(const R& ring, Matrix<typename R::Value>& dst,
                            int r0, int c0, const typename R::Value* piece,
                            int bs, std::int64_t coeff) {
  if (coeff == 0) return;
  if (coeff == 1 || coeff == -1) {
    for (int i = 0; i < bs; ++i) {
      auto* drow = dst.row(r0 + i) + c0;
      const auto* prow = piece + static_cast<std::size_t>(i) * bs;
      if (coeff > 0)
        for (int j = 0; j < bs; ++j) drow[j] = ring.add(drow[j], prow[j]);
      else
        for (int j = 0; j < bs; ++j) drow[j] = ring.sub(drow[j], prow[j]);
    }
    return;
  }
  const auto scale = scalar_of(ring, coeff > 0 ? coeff : -coeff);
  for (int i = 0; i < bs; ++i) {
    auto* drow = dst.row(r0 + i) + c0;
    const auto* prow = piece + static_cast<std::size_t>(i) * bs;
    if (coeff > 0)
      for (int j = 0; j < bs; ++j)
        drow[j] = ring.add(drow[j], ring.mul(scale, prow[j]));
    else
      for (int j = 0; j < bs; ++j)
        drow[j] = ring.sub(drow[j], ring.mul(scale, prow[j]));
  }
}

}  // namespace detail

/// Section 2.1, batched — B independent semiring products through SHARED
/// supersteps. The executable counterpart of running multiple MM instances
/// at once (Le Gall, "Further Algebraic Algorithms in the Congested
/// Clique"): every (src, dst) pair's B per-product blocks ride in ONE
/// staged message ([S-group][T-group] per role, product b's block at word
/// offset b * block_words inside its group), so the whole batch pays 2
/// deliveries and ONE routing schedule per superstep instead of 2B. Because
/// the relay spreads the B-fold blocks over intermediates, batch rounds are
/// strictly below B sequential runs whenever single-product supersteps
/// leave links idle (they do: tests pin it).
///
/// Requires net.n() == every matrix dimension, net.n() a perfect cube, and
/// as.size() == bs.size() >= 1. Returns the B products in order; the B = 1
/// instance stages byte-identical traffic to the historical single-product
/// code path (the traffic-regression suite pins those stats), except that
/// large odd per-pair groups gain one trailing pad word (see
/// detail::padded_group_words — a wall-clock fix for the odd-word
/// scheduler cliff whose rounds are pinned no worse).
///
/// Note: the paper's Step 1 says node v sends T[v, w3**] to the nodes
/// w in *v2*; for the received pieces to assemble T[v2**, v3**] (rows with
/// FIRST digit v2, as Step 2 requires) the recipients must be w in *v1*.
/// We implement the *v1* version; the totals (2 n^{4/3} words per node per
/// product) are unchanged.
///
/// Sharded execution (net.owned() a proper subspan): inputs must be
/// REPLICATED (every rank passes bit-identical as/bs — the SPMD contract),
/// each rank stages and computes only for its owned nodes, and on return
/// only the OWNED rows of each product are authoritative (non-owned rows
/// stay sr.zero()). Traffic accounting is bit-identical to a
/// single-process run by the transport's construction.
template <Semiring S, typename Codec>
[[nodiscard]] std::vector<Matrix<typename S::Value>> mm_semiring_3d_batch(
    clique::Network& net, const S& sr, const Codec& codec,
    std::span<const Matrix<typename S::Value>> as,
    std::span<const Matrix<typename S::Value>> bs,
    MmStepProfile* profile = nullptr) {
  using V = typename S::Value;
  const int n = net.n();
  const std::size_t batch = as.size();
  CCA_EXPECTS(batch >= 1 && bs.size() == batch);
  for (std::size_t b = 0; b < batch; ++b) {
    CCA_EXPECTS(as[b].rows() == n && as[b].cols() == n);
    CCA_EXPECTS(bs[b].rows() == n && bs[b].cols() == n);
  }
  CCA_EXPECTS(is_perfect_cube(n));
  std::vector<Matrix<V>> out;
  out.reserve(batch);
  if (n == 1) {
    for (std::size_t b = 0; b < batch; ++b) {
      Matrix<V> o(1, 1, sr.zero());
      o(0, 0) = sr.mul(as[b](0, 0), bs[b](0, 0));
      out.push_back(std::move(o));
    }
    return out;
  }
  const int c = static_cast<int>(icbrt(n));
  const int c2 = c * c;
  const auto block_entries = static_cast<std::size_t>(c2);
  const auto block_words = codec.words_for(block_entries);
  const auto group_words = batch * block_words;  // one pair's staged group
  // Step 1's staged size may exceed the payload by one zero pad word (see
  // detail::padded_group_words); all decode offsets below use the payload
  // layout, so the pad is invisible to receivers. Step 3 stays unpadded:
  // its demand graph (one c2-destination group per node, half the volume)
  // measurably absorbs the extra word less often — at clique_n = 343 the
  // padded step 3 costs one extra round while the padded step 1 is free —
  // and its odd schedule is the cheaper of the two to build anyway.
  const auto staged_words = detail::padded_group_words(group_words);
  auto d1 = [c2](int v) { return v / c2; };
  auto d2 = [c, c2](int v) { return (v / c) % c; };
  auto d3 = [c](int v) { return v % c; };
  // This rank's node shard: every stage/compute loop below walks only the
  // owned span. In-process this is [0, n) and the loops are unchanged.
  const clique::NodeSpan own = net.owned();
  detail::StepClock clock(profile);

  // Step 1: node v scatters pieces of its rows S_b[v,*] and T_b[v,*] for
  // every product b, encoding the contiguous row slices straight into one
  // staged group per destination. Senders are independent (one src per
  // iteration), so the loop runs parallel.
  parallel_for(own.begin, own.end, [&](int v) {
    // S_b[v, u2**] to each u in v1** (same first digit as v).
    for (int tail = 0; tail < c2; ++tail) {
      const int u = d1(v) * c2 + tail;
      const auto msg = net.stage(v, u, staged_words);
      for (std::size_t b = 0; b < batch; ++b)
        codec.encode_into(std::span<const V>(as[b].row(v) + d2(u) * c2,
                                             block_entries),
                          msg.data() + b * block_words);
    }
    // T_b[v, w3**] to each w in *v1* (second digit equals v's first digit).
    for (int w1 = 0; w1 < c; ++w1)
      for (int w3 = 0; w3 < c; ++w3) {
        const int w = w1 * c2 + d1(v) * c + w3;
        const auto msg = net.stage(v, w, staged_words);
        for (std::size_t b = 0; b < batch; ++b)
          codec.encode_into(std::span<const V>(bs[b].row(v) + d3(w) * c2,
                                               block_entries),
                            msg.data() + b * block_words);
      }
  });
  clock.lap("step1 stage");
  net.deliver();
  clock.lap("step1 deliver");

  // Each node v now assembles S_b[v1**, v2**] and T_b[v2**, v3**] and
  // multiplies them locally (Step 2), for every b. Per-node work is
  // independent and reads only delivered inbox views, so the nodes run on
  // the worker group; blocks are decoded directly into the assembled
  // matrix rows (sb/tb are reused across b — every row is overwritten).
  std::vector<Matrix<V>> prod(static_cast<std::size_t>(n) * batch);
  parallel_for(own.begin, own.end, [&](int v) {
    Matrix<V> sb(c2, c2, sr.zero());
    Matrix<V> tb(c2, c2, sr.zero());
    for (std::size_t b = 0; b < batch; ++b) {
      for (int tail = 0; tail < c2; ++tail) {
        const int u = d1(v) * c2 + tail;  // sender of S_b[u, v2**]
        detail::decode_entries_at(codec, net.inbox(v, u), b * block_words,
                                  block_entries, sb.row(tail));
      }
      for (int tail = 0; tail < c2; ++tail) {
        const int w = d2(v) * c2 + tail;  // sender of T_b[w, v3**]
        // v received its S group and/or T group from w in one inbox; the S
        // group (if any) comes first — skip it in STAGED words (the group
        // plus its possible pad word).
        const std::size_t at =
            (d1(w) == d1(v) ? staged_words : 0) + b * block_words;
        detail::decode_entries_at(codec, net.inbox(v, w), at, block_entries,
                                  tb.row(tail));
      }
      prod[static_cast<std::size_t>(v) * batch + b] =
          local_multiply(sr, sb, tb);
    }
  });
  clock.lap("step2 local product");

  // Step 3: node v sends P_b^(v2)[u, v3**] to each u in v1** — one
  // contiguous product row per message block, encoded in place.
  parallel_for(own.begin, own.end, [&](int v) {
    for (int tail = 0; tail < c2; ++tail) {
      const int u = d1(v) * c2 + tail;
      const auto msg = net.stage(v, u, group_words);
      for (std::size_t b = 0; b < batch; ++b) {
        const auto& pv = prod[static_cast<std::size_t>(v) * batch + b];
        codec.encode_into(std::span<const V>(pv.row(tail), block_entries),
                          msg.data() + b * block_words);
      }
    }
  });
  clock.lap("step3 stage");
  net.deliver();
  clock.lap("step3 deliver");

  // Step 4: node v sums the received pieces into row v of each product
  // (distinct output rows, so the nodes run concurrently).
  for (std::size_t b = 0; b < batch; ++b)
    out.emplace_back(n, n, sr.zero());
  parallel_for(own.begin, own.end, [&](int v) {
    std::vector<V> piece(block_entries, sr.zero());
    for (int tail = 0; tail < c2; ++tail) {
      const int u = d1(v) * c2 + tail;  // sent P_b^(u2)[v, u3**]
      // Leased: the view is decoded b times across the batch loop, so the
      // generation check pins the no-deliver-in-between contract.
      const analysis::InboxLease<clique::Network> in(net, v, u);
      for (std::size_t b = 0; b < batch; ++b) {
        detail::decode_entries_at(codec, in.span(), b * block_words,
                                  block_entries, piece.data());
        auto* orow = out[b].row(v) + d3(u) * c2;
        for (int j = 0; j < c2; ++j)
          orow[j] = sr.add(orow[j], piece[static_cast<std::size_t>(j)]);
      }
    }
  });
  clock.lap("step4 combine");
  return out;
}

/// Section 2.1 — semiring matrix multiplication in O(n^{1/3}) rounds.
///
/// Requires net.n() == s.rows() == s.cols() == t.rows() == t.cols() and
/// net.n() a perfect cube. Returns the full product (row v of which is the
/// output of node v). This is the batch-of-one instance of
/// mm_semiring_3d_batch; its staged traffic is byte-identical to the
/// historical single-product implementation.
template <Semiring S, typename Codec>
[[nodiscard]] Matrix<typename S::Value> mm_semiring_3d(
    clique::Network& net, const S& sr, const Codec& codec,
    const Matrix<typename S::Value>& s, const Matrix<typename S::Value>& t,
    MmStepProfile* profile = nullptr) {
  using V = typename S::Value;
  auto res = mm_semiring_3d_batch(
      net, sr, codec, std::span<const Matrix<V>>(&s, 1),
      std::span<const Matrix<V>>(&t, 1), profile);
  return std::move(res.front());
}

/// Parameters of one fast multiplication instance (Section 2.2).
struct FastPlan {
  int depth = 0;      ///< tensor-power exponent k of the base algorithm
  int d = 1;          ///< block grid dimension (base_d^k)
  int m = 1;          ///< number of block products (base_m^k)
  int clique_n = 1;   ///< admissible clique/matrix size (square, d | sqrt)
};

/// Smallest admissible instance for matrices of size n with a forced depth:
/// clique_n is a perfect square, d = base_d^depth divides sqrt(clique_n),
/// and m = base_m^depth <= clique_n.
[[nodiscard]] FastPlan plan_fast_mm(int n, int depth, int base_d = 2,
                                    int base_m = 7);

/// Auto-select the largest depth whose m fits below n (the paper's
/// "fix d so that m(d) = n"), then pad.
[[nodiscard]] FastPlan plan_fast_mm_auto(int n, int base_d = 2,
                                         int base_m = 7);

/// Section 2.2 / Lemma 10, batched — B independent ring products through
/// SHARED supersteps (same scheme as mm_semiring_3d_batch: per-pair
/// messages of the B products concatenate into one staged group, so the
/// batch pays one routing schedule per superstep). Message layouts put
/// product b's blocks at word offsets computed in whole blocks — [S_b T_b]
/// pairs in Steps 1 and 3, b * blk_words groups in Steps 5 and 7 — so
/// B = 1 is byte-identical to the historical single-product path.
///
/// `alg` must be a bilinear algorithm for d x d matrices with m products,
/// with d | sqrt(net.n()) and m <= net.n(); tensor_power(strassen, k)
/// satisfies this for admissible sizes from plan_fast_mm. Runs in
/// O(B n^{1 - 2/sigma}) rounds where m = d^sigma.
template <Ring R, typename Codec>
[[nodiscard]] std::vector<Matrix<typename R::Value>> mm_fast_bilinear_batch(
    clique::Network& net, const R& ring, const Codec& codec,
    const BilinearAlgorithm& alg,
    std::span<const Matrix<typename R::Value>> as,
    std::span<const Matrix<typename R::Value>> bs_in,
    MmStepProfile* profile = nullptr) {
  using V = typename R::Value;
  const int n = net.n();
  // Genuinely full-ownership: the bilinear scheme's coefficient
  // combination reads every node's received blocks.
  clique::require_full_ownership(
      net, "mm_fast_bilinear",
      "use the 3D or sparse engine for sharded runs");
  const std::size_t batch = as.size();
  CCA_EXPECTS(batch >= 1 && bs_in.size() == batch);
  for (std::size_t b = 0; b < batch; ++b) {
    CCA_EXPECTS(as[b].rows() == n && as[b].cols() == n);
    CCA_EXPECTS(bs_in[b].rows() == n && bs_in[b].cols() == n);
  }
  CCA_EXPECTS(is_perfect_square(n));
  const int sq = static_cast<int>(isqrt(n));
  const int d = alg.d;
  const int m = alg.m;
  CCA_EXPECTS(d >= 1 && sq % d == 0);
  CCA_EXPECTS(m <= n);
  const int bs = sq / d;        // fine block size (n^{1/2} / d)
  const int big = n / d;        // coarse block size (rows per first digit)
  std::vector<Matrix<V>> out;
  out.reserve(batch);
  if (n == 1) {
    for (std::size_t b = 0; b < batch; ++b) {
      Matrix<V> o(1, 1, ring.zero());
      o(0, 0) = ring.mul(as[b](0, 0), bs_in[b](0, 0));
      out.push_back(std::move(o));
    }
    return out;
  }
  const auto row_entries = static_cast<std::size_t>(sq);
  const auto row_words = codec.words_for(row_entries);
  const auto blk_entries = static_cast<std::size_t>(bs) *
                           static_cast<std::size_t>(bs);
  const auto blk_words = codec.words_for(blk_entries);
  detail::StepClock clock(profile);

  // Node digits (v1, v2, v3) in radices (d, sq, sq/d) and labels (x1, x2).
  auto label_of = [sq](int x1, int x2) { return x1 * sq + x2; };

  // Columns with second digit x2, in increasing order: for i in [d], the
  // range [i*big + x2*bs, i*big + (x2+1)*bs).
  auto for_each_col_x2 = [&](int x2, auto&& fn) {
    for (int i = 0; i < d; ++i)
      for (int off = 0; off < bs; ++off) fn(i * big + x2 * bs + off);
  };

  // Step 1: node v sends S_b[v, *x2*] and T_b[v, *x2*] to label (v2, x2) —
  // the B single-product [S piece, T piece] messages concatenated in one
  // staged span (product b's pair starts at word 2b * row_words). The
  // columns for x2 are d contiguous bs-runs, gathered into a per-sender
  // scratch and encoded straight into network memory.
  parallel_for(0, n, [&](int v) {
    const int v2 = (v / bs) % sq;
    std::vector<V> tmp(row_entries, ring.zero());
    for (int x2 = 0; x2 < sq; ++x2) {
      const int u = label_of(v2, x2);
      // lint:allow(full-range-staging): owns_all() validated at entry.
      const auto msg = net.stage(v, u, 2 * batch * row_words);
      for (std::size_t b = 0; b < batch; ++b) {
        int lj = 0;
        for_each_col_x2(x2, [&](int j) {
          tmp[static_cast<std::size_t>(lj++)] = as[b](v, j);
        });
        codec.encode_into(std::span<const V>(tmp.data(), row_entries),
                          msg.data() + 2 * b * row_words);
        lj = 0;
        for_each_col_x2(x2, [&](int j) {
          tmp[static_cast<std::size_t>(lj++)] = bs_in[b](v, j);
        });
        codec.encode_into(std::span<const V>(tmp.data(), row_entries),
                          msg.data() + (2 * b + 1) * row_words);
      }
    }
  });
  clock.lap("step1 stage");
  net.deliver();
  clock.lap("step1 deliver");

  // Node u = (x1,x2) assembles the sq x sq local views S_b[*x1*, *x2*] and
  // T_b[*x1*, *x2*]: local row index of sender v is v1*bs + v3; each piece
  // decodes directly into the local-view row.
  std::vector<Matrix<V>> sloc(static_cast<std::size_t>(n) * batch);
  std::vector<Matrix<V>> tloc(static_cast<std::size_t>(n) * batch);
  parallel_for(0, n, [&](int u) {
    const int x1 = u / sq;
    for (std::size_t b = 0; b < batch; ++b) {
      Matrix<V> sl(sq, sq, ring.zero());
      Matrix<V> tl(sq, sq, ring.zero());
      for (int v1 = 0; v1 < d; ++v1)
        for (int v3 = 0; v3 < bs; ++v3) {
          const int v = v1 * big + x1 * bs + v3;  // sender with v2 == x1
          const int lrow = v1 * bs + v3;
          const auto in = net.inbox(u, v);
          detail::decode_entries_at(codec, in, 2 * b * row_words,
                                    row_entries, sl.row(lrow));
          detail::decode_entries_at(codec, in, (2 * b + 1) * row_words,
                                    row_entries, tl.row(lrow));
        }
      sloc[static_cast<std::size_t>(u) * batch + b] = std::move(sl);
      tloc[static_cast<std::size_t>(u) * batch + b] = std::move(tl);
    }
  });
  clock.lap("step1 assemble");

  // Step 2 (local): linear combinations S_b^(w)[x1*, x2*], T_b^(w)[x1*,
  // x2*], built in flat per-sender scratch blocks with one
  // multiply-accumulate per coefficient (see scaled_accumulate). Step 3:
  // the B [shat, that] pairs encode into one staged span to node w, for
  // every w in [m].
  parallel_for(0, n, [&](int u) {
    std::vector<V> shat(blk_entries, ring.zero());
    std::vector<V> that(blk_entries, ring.zero());
    for (int w = 0; w < m; ++w) {
      // lint:allow(full-range-staging): owns_all() validated at entry.
      const auto msg = net.stage(u, w, 2 * batch * blk_words);
      for (std::size_t b = 0; b < batch; ++b) {
        const auto& sl = sloc[static_cast<std::size_t>(u) * batch + b];
        const auto& tl = tloc[static_cast<std::size_t>(u) * batch + b];
        std::fill(shat.begin(), shat.end(), ring.zero());
        std::fill(that.begin(), that.end(), ring.zero());
        for (const auto& cfc : alg.alpha[static_cast<std::size_t>(w)])
          detail::scaled_accumulate(ring, shat.data(), bs, bs, sl,
                                    (cfc.index / d) * bs,
                                    (cfc.index % d) * bs, cfc.coeff);
        for (const auto& cfc : alg.beta[static_cast<std::size_t>(w)])
          detail::scaled_accumulate(ring, that.data(), bs, bs, tl,
                                    (cfc.index / d) * bs,
                                    (cfc.index % d) * bs, cfc.coeff);
        codec.encode_into(std::span<const V>(shat.data(), blk_entries),
                          msg.data() + 2 * b * blk_words);
        codec.encode_into(std::span<const V>(that.data(), blk_entries),
                          msg.data() + (2 * b + 1) * blk_words);
      }
    }
  });
  clock.lap("step2-3 combine+stage");
  net.deliver();
  clock.lap("step3 deliver");

  // Step 4 (local at product nodes): assemble S_b^(w), T_b^(w), multiply.
  std::vector<Matrix<V>> phat(static_cast<std::size_t>(m) * batch);
  parallel_for(0, m, [&](int w) {
    std::vector<V> sbuf(blk_entries, ring.zero());
    std::vector<V> tbuf(blk_entries, ring.zero());
    for (std::size_t b = 0; b < batch; ++b) {
      Matrix<V> sw(big, big, ring.zero());
      Matrix<V> tw(big, big, ring.zero());
      for (int x1 = 0; x1 < sq; ++x1)
        for (int x2 = 0; x2 < sq; ++x2) {
          const int u = label_of(x1, x2);
          const auto in = net.inbox(w, u);
          detail::decode_entries_at(codec, in, 2 * b * blk_words,
                                    blk_entries, sbuf.data());
          detail::decode_entries_at(codec, in, (2 * b + 1) * blk_words,
                                    blk_entries, tbuf.data());
          for (int i = 0; i < bs; ++i) {
            const auto* sp = sbuf.data() + static_cast<std::size_t>(i) * bs;
            const auto* tp = tbuf.data() + static_cast<std::size_t>(i) * bs;
            auto* swrow = sw.row(x1 * bs + i) + x2 * bs;
            auto* twrow = tw.row(x1 * bs + i) + x2 * bs;
            for (int j = 0; j < bs; ++j) {
              swrow[j] = sp[j];
              twrow[j] = tp[j];
            }
          }
        }
      phat[static_cast<std::size_t>(w) * batch + b] =
          local_multiply(ring, sw, tw);
    }
  });
  clock.lap("step4 product");

  // Step 5: node w returns P_b^(w)[x1*, x2*] to label (x1, x2), the B
  // blocks concatenated (product b at word b * blk_words).
  parallel_for(0, m, [&](int w) {
    std::vector<V> tmp(blk_entries, ring.zero());
    for (int x1 = 0; x1 < sq; ++x1)
      for (int x2 = 0; x2 < sq; ++x2) {
        // lint:allow(full-range-staging): owns_all() validated at entry.
        const auto msg = net.stage(w, label_of(x1, x2), batch * blk_words);
        for (std::size_t b = 0; b < batch; ++b) {
          const auto& pw = phat[static_cast<std::size_t>(w) * batch + b];
          for (int i = 0; i < bs; ++i) {
            const auto* prow = pw.row(x1 * bs + i) + x2 * bs;
            auto* tp = tmp.data() + static_cast<std::size_t>(i) * bs;
            for (int j = 0; j < bs; ++j) tp[j] = prow[j];
          }
          codec.encode_into(std::span<const V>(tmp.data(), blk_entries),
                            msg.data() + b * blk_words);
        }
      }
  });
  clock.lap("step5 stage");
  net.deliver();
  clock.lap("step5 deliver");

  // Step 6 (local): P_b[ix1*, jx2*] = sum_w lambda_ijw P_b^(w)[x1*, x2*],
  // assembled into the sq x sq local view P_b[*x1*, *x2*]. Pieces decode
  // into one flat scratch (m consecutive bs x bs blocks) and each lambda
  // coefficient applies as a single multiply-accumulate.
  std::vector<Matrix<V>> ploc(static_cast<std::size_t>(n) * batch);
  parallel_for(0, n, [&](int u) {
    std::vector<V> pieces(static_cast<std::size_t>(m) * blk_entries,
                          ring.zero());
    for (std::size_t b = 0; b < batch; ++b) {
      for (int w = 0; w < m; ++w)
        detail::decode_entries_at(
            codec, net.inbox(u, w), b * blk_words, blk_entries,
            pieces.data() + static_cast<std::size_t>(w) * blk_entries);
      Matrix<V> pl(sq, sq, ring.zero());
      for (int i = 0; i < d; ++i)
        for (int j = 0; j < d; ++j)
          for (const auto& cfc :
               alg.lambda[static_cast<std::size_t>(i * d + j)]) {
            const auto* piece = pieces.data() +
                                static_cast<std::size_t>(cfc.index) *
                                    blk_entries;
            detail::scaled_accumulate_flat(ring, pl, i * bs, j * bs, piece,
                                           bs, cfc.coeff);
          }
      ploc[static_cast<std::size_t>(u) * batch + b] = std::move(pl);
    }
  });
  clock.lap("step6 recombine");

  // Step 7: node (x1, x2) sends P_b[r, *x2*] to r for each r in *x1* — the
  // B contiguous local-view rows concatenated, encoded in place.
  parallel_for(0, sq * sq, [&](int u) {
    const int x1 = u / sq;
    for (int r1 = 0; r1 < d; ++r1)
      for (int r3 = 0; r3 < bs; ++r3) {
        const int r = r1 * big + x1 * bs + r3;
        // lint:allow(full-range-staging): owns_all() validated at entry.
        const auto msg = net.stage(u, r, batch * row_words);
        for (std::size_t b = 0; b < batch; ++b) {
          const auto& pl = ploc[static_cast<std::size_t>(u) * batch + b];
          codec.encode_into(
              std::span<const V>(pl.row(r1 * bs + r3), row_entries),
              msg.data() + b * row_words);
        }
      }
  });
  clock.lap("step7 stage");
  net.deliver();
  clock.lap("step7 deliver");

  for (std::size_t b = 0; b < batch; ++b)
    out.emplace_back(n, n, ring.zero());
  parallel_for(0, n, [&](int r) {
    const int r2 = (r / bs) % sq;
    std::vector<V> entries(row_entries, ring.zero());
    for (int x2 = 0; x2 < sq; ++x2) {
      const int u = label_of(r2, x2);
      const auto in = net.inbox(r, u);
      for (std::size_t b = 0; b < batch; ++b) {
        detail::decode_entries_at(codec, in, b * row_words, row_entries,
                                  entries.data());
        int lj = 0;
        for_each_col_x2(x2, [&](int j) {
          out[b](r, j) = entries[static_cast<std::size_t>(lj)];
          ++lj;
        });
      }
    }
  });
  clock.lap("step8 output");
  return out;
}

/// Section 2.2 / Lemma 10 — fast bilinear matrix multiplication.
///
/// `alg` must be a bilinear algorithm for d x d matrices with m products,
/// with d | sqrt(net.n()) and m <= net.n(); tensor_power(strassen, k)
/// satisfies this for admissible sizes from plan_fast_mm. Runs in
/// O(n^{1 - 2/sigma}) rounds where m = d^sigma. This is the batch-of-one
/// instance of mm_fast_bilinear_batch; its staged traffic is byte-identical
/// to the historical single-product implementation.
template <Ring R, typename Codec>
[[nodiscard]] Matrix<typename R::Value> mm_fast_bilinear(
    clique::Network& net, const R& ring, const Codec& codec,
    const BilinearAlgorithm& alg, const Matrix<typename R::Value>& s,
    const Matrix<typename R::Value>& t, MmStepProfile* profile = nullptr) {
  using V = typename R::Value;
  auto res = mm_fast_bilinear_batch(
      net, ring, codec, alg, std::span<const Matrix<V>>(&s, 1),
      std::span<const Matrix<V>>(&t, 1), profile);
  return std::move(res.front());
}

/// The trivial baseline: every node broadcasts its rows of both inputs so
/// everyone knows the full matrices, then computes its own output row
/// locally. Exactly 2n words per ordered link, hence 2n rounds (direct
/// schedule); the payload is charged but not materialised.
template <Semiring S>
[[nodiscard]] Matrix<typename S::Value> mm_naive_broadcast(
    clique::Network& net, const S& sr, int words_per_entry,
    const Matrix<typename S::Value>& s, const Matrix<typename S::Value>& t) {
  const int n = net.n();
  CCA_EXPECTS(s.rows() == n && s.cols() == n);
  CCA_EXPECTS(t.rows() == n && t.cols() == n);
  CCA_EXPECTS(words_per_entry >= 1);
  // Genuinely full-ownership: the broadcast is charged but never
  // materialised, so a sharded rank cannot learn the non-owned rows.
  clique::require_full_ownership(
      net, "mm_naive_broadcast",
      "its broadcast is charged but never materialised; use a sharded "
      "engine");
  if (n > 1)
    net.charge_rounds(2 * static_cast<std::int64_t>(n) * words_per_entry);
  return multiply(sr, s, t);
}

// ---------------------------------------------------------------------------
// Sparse multiplication (the paper's sparsity-sensitive regime; Le Gall,
// OPODIS'16 sharpens the same rectangular/sparse setting).
// ---------------------------------------------------------------------------
//
// mm_semiring_sparse multiplies matrices with rho_S, rho_T nonzeros in
// rounds governed by the nonzero volume instead of n:
//
//   1. announce     — every node broadcasts its per-row nnz of S and T,
//                     packed into one word (1 round, Theorem-1-style
//                     dissemination of the load profile);
//   2. gather       — node i relays each off-diagonal nonzero S[i,k] to the
//                     column holder k (value only: the row index is the
//                     sender id). KoenigRelay spreads the rho_S words;
//   3. announce     — column holders broadcast their column nnz (1 round),
//                     after which EVERY node can compute the same balanced
//                     partition of the T = sum_k colS(k) * rowT(k) nonzero
//                     triples: intermediate k gets g_k ~ ceil(t_k n / T)
//                     workers (clique::disseminate-style g-mod-n balancing,
//                     with node k itself as worker 0 so the balanced common
//                     case moves nothing);
//   4. distribute   — holder k ships each extra worker a chunk of column k
//                     plus row k of T as SparseCodec blocks;
//   5. contribute   — workers multiply their triples, merge contributions
//                     per output row across their intermediates, and send
//                     node i its row-i contributions as a SparseCodec
//                     block; receivers fold with the semiring add.
//
// At rho ~ n^{3/2} the measured rounds beat the dense 3D engine by >= 2x
// (BENCH_mm.json pins it); at full density the triple volume makes it
// useless, which is what MmKind::Auto's dispatch is for. Results are
// element-identical to mm_semiring_3d for every semiring whose zero is an
// additive identity AND a multiplicative annihilator (the documented
// Semiring contract — see semiring.hpp; skipping zero operands is exactly
// the ops.hpp `multiply` zero-skip, audited in test_matrix.cpp).
//
// Unlike the dense engines, ANY net.n() == dimension >= 1 is admissible (no
// cube/square constraint): the balanced partition does not need a grid.

/// Per-row sorted nonzero column indices — the value-independent shape the
/// announcements move and the planner consumes.
using SparsePattern = std::vector<std::vector<int>>;

/// Value-independent plan of one sparse multiplication: the balanced triple
/// partition and the exact per-superstep demand lists (canonical (src, dst)
/// ascending — the order Network::deliver emits, so planned schedules are
/// cache hits for the staged run). Built by build_sparse_mm_structure; the
/// executor (mm_semiring_sparse) and the dispatcher (mm_semiring_auto /
/// IntMmEngine Auto) consume the SAME structure, which is what makes the
/// dispatcher's planned rounds exactly the rounds the sparse path charges.
struct SparseMmStructure {
  bool trivial = false;      ///< rho_s == 0 or rho_t == 0: product is zero
  std::int64_t rho_s = 0;    ///< global nnz of S
  std::int64_t rho_t = 0;    ///< global nnz of T
  std::int64_t triples = 0;  ///< T = sum_k colS(k) * rowT(k)
  /// Column pattern of S: s_cols[k] = ascending row ids with S[i,k] != 0.
  std::vector<std::vector<int>> s_cols;
  /// Workers per intermediate (0 when t_k == 0, else in [1, colS(k)]).
  std::vector<int> group_size;
  /// extras[k] = the g_k - 1 extra worker node ids (worker 0 is node k).
  std::vector<std::vector<int>> extras;
  /// Per worker: its extra-chunk assignments (intermediate k, chunk index r
  /// in [1, g_k)), ascending by k.
  std::vector<std::vector<std::pair<int, int>>> worker_extras;
  /// Per worker: ascending (output row i, merged contribution entry count),
  /// including the worker's own row (i == w, which moves no words).
  std::vector<std::vector<std::pair<int, int>>> contrib;
  /// Canonical demand lists of the three staged supersteps.
  std::vector<clique::Demand> gather, distribute, contribute;
};

/// Chunk r (0-based) of a cnt-entry column split over g workers:
/// [first, last) with sizes as equal as possible, larger chunks first.
[[nodiscard]] std::pair<int, int> sparse_chunk_bounds(int cnt, int g, int r);

/// Demand-shape quantisation bucket for the sparse plan: counts <= 8 stay
/// exact, larger counts round up to the next power of two. The planner
/// sizes the distribute / contribute messages (and the worker partition)
/// from BUCKETED counts and the executor pads each block to its bucket, so
/// consecutive squarings whose per-row counts drift WITHIN their buckets
/// emit byte-identical demand lists and replay the previous iteration's
/// routing schedule from the schedule store instead of re-running the Euler
/// split. Padding bound: a bucketed block is < 2x its exact size (counts
/// <= 8 are exact; above 8 the next power of two is < 2c and every codec's
/// words_for is monotone with words_for(2c) <= 2 words_for(c)), and the
/// padded rounds are still charged for real — the accounting never
/// understates. The gather phase deliberately stays exact (one value per
/// nonzero; there is no block to pad), so gather misses the cache whenever
/// the pattern itself grows — the documented limitation of shape
/// quantisation.
[[nodiscard]] constexpr std::int64_t sparse_count_bucket(
    std::int64_t c) noexcept {
  if (c <= 8) return c;
  std::int64_t p = 16;
  while (p < c) p *= 2;
  return p;
}

/// Message-size alignment for the staged distribute / contribute messages:
/// each per-pair message rounds up to a multiple of the phase's alignment
/// (zero-filled by stage()). The motivation is the HOST cost of the Euler
/// split: with every per-pair demand divisible by 2^k, the split's first k
/// levels produce element-identical halves and the scheduler traverses ONE
/// subtree per level (the identical-halves collapse), duplicating the class
/// log instead of re-walking word-granularity trails. The contribute phase
/// carries the bulk of the sparse plan's words in the most ragged shapes,
/// so it aligns to 8 from n >= 200 (measured ~5x less scheduling wall at
/// n=216 for < 17% extra words, with round counts unchanged there) and to
/// 4 below (at n = 64 and n = 125 the 8-word padding measurably costs
/// relay rounds — the padded volume is a larger fraction of n-1 ports —
/// so smaller cliques keep the cheaper alignment); distribute aligns to 4
/// at every size. The
/// padding is charged for real (at most align-1 extra words per pair per
/// phase, on top of the < 2x bucket bound); the gather phase stays exact —
/// its messages are a single value wide, where alignment would multiply
/// the volume for no collapse benefit.
inline constexpr std::int64_t kSparseDistributeAlign = 4;
[[nodiscard]] constexpr std::int64_t sparse_contribute_align(int n) noexcept {
  return n >= 200 ? 8 : 4;
}
[[nodiscard]] constexpr std::int64_t sparse_msg_align(std::int64_t w,
                                                      std::int64_t a) noexcept {
  return (w + a - 1) / a * a;
}

/// Nonzero pattern of a matrix under the semiring's zero.
template <Semiring S>
[[nodiscard]] SparsePattern sparse_pattern(const S& sr,
                                           const Matrix<typename S::Value>& m) {
  SparsePattern rows(static_cast<std::size_t>(m.rows()));
  for (int i = 0; i < m.rows(); ++i)
    for (int j = 0; j < m.cols(); ++j)
      if (!(m(i, j) == sr.zero()))
        rows[static_cast<std::size_t>(i)].push_back(j);
  return rows;
}

/// Build the full sparse plan. `value_words(c)` must be the wrapped value
/// codec's words_for(c) (SparseCodec adds the packed index words itself).
/// Cost: O(rho_s + rho_t + T + n) local work — the symbolic counterpart of
/// the multiplication, which is why the Auto dispatcher bounds T before
/// planning.
[[nodiscard]] SparseMmStructure build_sparse_mm_structure(
    int n, const SparsePattern& s_rows, const SparsePattern& t_rows,
    const std::function<std::size_t(std::size_t)>& value_words);

/// Exact triple count T = sum_k colS(k) * rowT(k) straight from the
/// patterns — the O(rho + n) pre-filter the dispatcher runs before paying
/// for the full structure.
[[nodiscard]] std::int64_t sparse_triple_count(int n,
                                               const SparsePattern& s_rows,
                                               const SparsePattern& t_rows);

/// The exact step-1 / step-3 demand lists mm_semiring_3d (batch B) stages
/// on an n-clique with block_words words per per-product block, including
/// the step-1 odd-group pad — canonical order, ready for
/// Network::prepare_schedule.
[[nodiscard]] std::pair<std::vector<clique::Demand>,
                        std::vector<clique::Demand>>
semiring3d_superstep_demands(int n, std::size_t block_words,
                             std::size_t batch = 1);

/// Planned KoenigRelay rounds of mm_semiring_3d (batch B): schedules the
/// demand lists above through net's cache, so a subsequent real run
/// replays the schedules. Excludes nothing — the 3D algorithm charges only
/// its two deliveries.
[[nodiscard]] std::int64_t semiring3d_planned_rounds(clique::Network& net,
                                                     int n,
                                                     std::size_t block_words,
                                                     std::size_t batch = 1);

/// The four superstep demand lists of mm_fast_bilinear (batch 1) for `alg`
/// on an n-clique with the given codec widths (row_words =
/// words_for(sqrt(n)), blk_words = words_for((sqrt(n)/d)^2)).
[[nodiscard]] std::vector<std::vector<clique::Demand>>
fast_bilinear_superstep_demands(int n, const BilinearAlgorithm& alg,
                                std::size_t row_words, std::size_t blk_words);

/// Planned KoenigRelay rounds of mm_fast_bilinear (batch 1) for `alg`.
[[nodiscard]] std::int64_t fast_bilinear_planned_rounds(
    clique::Network& net, int n, const BilinearAlgorithm& alg,
    std::size_t row_words, std::size_t blk_words);

/// Schedule-independent lower bound on the two-phase relay's rounds for a
/// demand list: every word must leave its source and reach its destination
/// through the n per-phase ports (the relay counts the self-loop hop as
/// free capacity, so the divisor is n, not n-1). Building a demand list is
/// cheap; the Euler split is not — the Auto dispatcher uses this bound to
/// SKIP scheduling a dense candidate that provably cannot beat the sparse
/// plan (sound: the actual schedule is never below the bound, so the
/// skipped engine never had the fewest rounds; ties go to the sparse
/// preference order anyway). test_sparse.cpp pins bound <= measured on the
/// real engine shapes.
[[nodiscard]] std::int64_t relay_round_lower_bound(
    int n, const std::vector<clique::Demand>& demands);

/// Build-free lower bound on sparse_planned_rounds_batch for B products
/// sharing every superstep, WITHOUT building the O(T) structures — O(nnz + n)
/// work per product: one column-count announcement round per live
/// (non-trivial) product, plus the relay volume bound of each MERGED phase
/// (merged supersteps move the per-node SUM of the per-product volumes).
/// Gather and distribute volumes are exact (they follow from the count
/// profiles and the shared quantised partition); contribute is a sound
/// underestimate: each distinct (worker, output row) pair ships one merged
/// message whose entry count is at least the largest contributing T-row
/// count. 0 when every product is trivial. Sound: never exceeds the planned
/// (hence charged) rounds — pinned by test_sparse.cpp. This is the gate that
/// lets the Auto dispatcher skip building and scheduling a sparse plan that
/// provably cannot win: the densified iterations of an APSP run drop from
/// three Euler splits over millions of plan-words to a volume scan.
[[nodiscard]] std::int64_t sparse_round_lower_bound(
    int n, std::span<const SparsePattern> s_rows,
    std::span<const SparsePattern> t_rows,
    const std::function<std::size_t(std::size_t)>& value_words);

/// Triple-volume ceiling (~4 n^{7/3}) above which the Auto dispatcher does
/// not even build the sparse plan: past it the contribute phase dwarfs the
/// dense engines and the O(T) symbolic merge would be wasted work.
[[nodiscard]] std::int64_t sparse_plan_cap(int n);

/// Planned rounds of the staged sparse phases for B built structures
/// sharing every superstep (the mm_semiring_sparse_batch / Auto cost
/// model): live column-count announcements (one word per link per
/// non-trivial product, one shared superstep) plus the schedules of the
/// three MERGED demand lists — per-product canonical demands summed per
/// (src, dst), exactly what Network::deliver derives from the batched
/// staging; 0 when every product is trivial. A lone live product schedules
/// its own canonical lists directly (no merge). Goes through net's schedule
/// cache, so a subsequent staged run replays the schedules. When the partial
/// sum already exceeds `abort_above`, the remaining phases are NOT scheduled
/// and the (partial, already > abort_above) sum returns — sound for the
/// dispatcher's strict comparisons because the full plan can only be
/// larger, and it saves the losing candidate's residual Euler splits.
[[nodiscard]] std::int64_t sparse_planned_rounds_batch(
    clique::Network& net, std::span<const SparseMmStructure> sts,
    std::int64_t abort_above = std::numeric_limits<std::int64_t>::max());

namespace detail {

/// The staged phases of the sparse algorithm AFTER the row-nnz announcement
/// (gather -> column-count announcement -> distribute -> contribute), for a
/// BATCH of B products sharing every superstep: product b's per-pair block
/// follows product b-1's inside the same staged message (block membership
/// and sizes come from the structures, which every node derives from the
/// announcements), so the whole batch pays ONE routing schedule per phase.
/// A dispatcher that already announced can run the remainder without paying
/// the announcement twice. Charges exactly
///   live + sched(merged gather) + sched(merged distribute)
///        + sched(merged contribute)
/// rounds, where live = #non-trivial products (their column-count
/// announcements share one superstep, one word per link each) — the same
/// value sparse_planned_rounds_batch computes from the structures. The
/// batch-of-one instance stages byte-identical traffic to the historical
/// single-product implementation (pinned in test_sparse.cpp).
template <Semiring S, typename Codec>
[[nodiscard]] std::vector<Matrix<typename S::Value>>
mm_semiring_sparse_staged_batch(
    clique::Network& net, const S& sr, const Codec& codec,
    std::span<const Matrix<typename S::Value>> ss,
    std::span<const Matrix<typename S::Value>> ts,
    std::span<const SparseMmStructure> sts,
    MmStepProfile* profile = nullptr) {
  using V = typename S::Value;
  using SC = SparseCodec<Codec>;
  using Index = typename SC::Index;
  const SC scodec{codec};
  const int n = net.n();
  const std::size_t batch = ss.size();
  CCA_EXPECTS(ts.size() == batch && sts.size() == batch);
  std::vector<Matrix<V>> out;
  out.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) out.emplace_back(n, n, sr.zero());
  std::int64_t live = 0;
  for (const auto& st : sts)
    if (!st.trivial) ++live;
  if (live == 0) return out;
  const auto vw1 = codec.words_for(1);
  // This rank's shard: staging and inbox-reading loops walk only owned
  // nodes (in-process that is [0, n)); loops over REPLICATED inputs stay
  // full-range. Under sharding only the owned output rows are
  // authoritative — see mm_semiring_3d_batch's sharded-execution note.
  const clique::NodeSpan own = net.owned();
  detail::StepClock clock(profile);

  // Gather: every off-diagonal nonzero S_b[i,k] travels to column holder k
  // as a bare value (the row index is the sender id) — except entries of
  // columns whose intermediate forms no triple: the step-0 announcement
  // already told every node those values stay put (matching the plans'
  // gather demands). The "k forms a triple" verdict comes from the PLAN
  // (group_size[k] > 0 exactly when colS(k) and rowT(k) are both
  // nonempty), which every rank derived from the announced census — never
  // from a value scan of T rows a sharded rank does not hold. For a staged
  // nonzero S_b[i,k], colS(k) contains i, so the plan verdict coincides
  // with the historical "T row k alive" test. Senders own distinct
  // outboxes, so the staging loop is parallel-over-senders; a pair's
  // per-product values concatenate in product order.
  parallel_for(own.begin, own.end, [&](int i) {
    for (std::size_t b = 0; b < batch; ++b) {
      if (sts[b].trivial) continue;
      for (int k = 0; k < n; ++k) {
        if (k == i ||
            sts[b].group_size[static_cast<std::size_t>(k)] == 0 ||
            ss[b](i, k) == sr.zero())
          continue;
        const auto msg = net.stage(i, k, vw1);
        codec.encode_into(std::span<const V>(&ss[b](i, k), 1), msg.data());
      }
    }
  });
  clock.lap("gather stage");
  net.deliver();
  clock.lap("gather deliver");

  // Column holders decode their columns (distinct k per iteration), the
  // per-sender word offset advancing across products. Dead columns
  // (t_k == 0, nothing gathered) keep no values — no chunk ever references
  // them.
  std::vector<std::vector<std::vector<V>>> colvals(
      batch, std::vector<std::vector<V>>(static_cast<std::size_t>(n)));
  parallel_for(own.begin, own.end, [&](int k) {
    const auto ks = static_cast<std::size_t>(k);
    std::vector<std::size_t> off(static_cast<std::size_t>(n), 0);
    for (std::size_t b = 0; b < batch; ++b) {
      if (sts[b].trivial || sts[b].group_size[ks] == 0) continue;
      const auto& rows = sts[b].s_cols[ks];
      auto& vals = colvals[b][ks];
      vals.assign(rows.size(), sr.zero());
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const int i = rows[r];
        if (i == k) {
          vals[r] = ss[b](k, k);
          continue;
        }
        const auto in = net.inbox(k, i);
        auto& at = off[static_cast<std::size_t>(i)];
        CCA_ASSERT(at + vw1 <= in.size());
        codec.decode_into(in.data() + at, 1, &vals[r]);
        at += vw1;
      }
    }
    // Every gathered word must be consumed — the structures and the
    // staging loop derive the same per-pair volumes (the batch analogue of
    // the single-product in.size() == vw1 assert).
    for (int i = 0; i < n; ++i)
      CCA_ASSERT(off[static_cast<std::size_t>(i)] ==
                 net.inbox(k, i).size());
  });
  clock.lap("gather decode");

  // Column-count announcement: with the row counts from the first
  // announcement this gives every node every live product's t_k profile,
  // hence the same balanced worker partitions the structures encode. The
  // live products' counts ride one superstep (one word per link each), so
  // the charge is broadcast_all's 1 round per live product.
  if (n > 1) net.charge_rounds(live);

  // Sparse views of the T rows (needed by distribute and by local work).
  std::vector<std::vector<std::vector<Index>>> trow_idx(
      batch, std::vector<std::vector<Index>>(static_cast<std::size_t>(n)));
  std::vector<std::vector<std::vector<V>>> trow_val(
      batch, std::vector<std::vector<V>>(static_cast<std::size_t>(n)));
  // Only the holder (owned k) stages or locally multiplies its T row.
  parallel_for(own.begin, own.end, [&](int k) {
    const auto ks = static_cast<std::size_t>(k);
    for (std::size_t b = 0; b < batch; ++b) {
      if (sts[b].trivial) continue;
      auto& idx = trow_idx[b][ks];
      auto& val = trow_val[b][ks];
      for (int j = 0; j < n; ++j) {
        if (ts[b](k, j) == sr.zero()) continue;
        idx.push_back(static_cast<Index>(j));
        val.push_back(ts[b](k, j));
      }
    }
  });

  // Distribute: holder k ships chunk r of its column plus its T row to each
  // extra worker, as [a_cnt][b_cnt] header words followed by two
  // SparseCodec blocks; per-pair messages concatenate in product order.
  // Frames are sized by the QUANTISED counts (sparse_count_bucket) while
  // the headers carry the real counts, so both sides derive the same
  // padded offsets — matching the planner's quantised demand words. The
  // pad words are stage()'s zero fill.
  const auto frame_words = [&scodec](std::size_t c) {
    return scodec.words_for(static_cast<std::size_t>(
        sparse_count_bucket(static_cast<std::int64_t>(c))));
  };
  // Whole-message alignment (see sparse_msg_align): both sides derive the
  // same aligned stride, the tail pad words are stage()'s zero fill.
  const auto dist_align = [](std::size_t w) {
    return static_cast<std::size_t>(sparse_msg_align(
        static_cast<std::int64_t>(w), kSparseDistributeAlign));
  };
  const auto contrib_align = [n](std::size_t w) {
    return static_cast<std::size_t>(sparse_msg_align(
        static_cast<std::int64_t>(w), sparse_contribute_align(n)));
  };
  parallel_for(own.begin, own.end, [&](int k) {
    const auto ks = static_cast<std::size_t>(k);
    std::vector<Index> aidx;
    for (std::size_t b = 0; b < batch; ++b) {
      if (sts[b].trivial) continue;
      const auto& st = sts[b];
      const int g = st.group_size[ks];
      const auto& rows = st.s_cols[ks];
      for (int r = 1; r < g; ++r) {
        const int w = st.extras[ks][static_cast<std::size_t>(r - 1)];
        const auto [lo, hi] =
            sparse_chunk_bounds(static_cast<int>(rows.size()), g, r);
        const auto a_cnt = static_cast<std::size_t>(hi - lo);
        const auto b_cnt = trow_idx[b][ks].size();
        const auto a_frame = frame_words(a_cnt);
        // Leased: the span is written by three encode steps with index
        // building in between — the generation check pins that no
        // same-source staging sneaks between them.
        const analysis::StagedLease<clique::Network> msg(
            net, k, w, dist_align(2 + a_frame + frame_words(b_cnt)));
        msg.span()[0] = a_cnt;
        msg.span()[1] = b_cnt;
        aidx.clear();
        for (int x = lo; x < hi; ++x)
          aidx.push_back(
              static_cast<Index>(rows[static_cast<std::size_t>(x)]));
        scodec.encode_into(
            aidx, std::span<const V>(colvals[b][ks].data() + lo, a_cnt),
            msg.span().data() + 2);
        scodec.encode_into(trow_idx[b][ks], trow_val[b][ks],
                           msg.span().data() + 2 + a_frame);
      }
    }
  });
  clock.lap("distribute stage");
  net.deliver();
  clock.lap("distribute deliver");

  // Contribute: every worker multiplies its triples per product, merging
  // contributions per output row across its intermediates (union of the
  // T-row patterns — entries are sent when TOUCHED, value zero or not, so
  // the message sizes are exactly the structures' value-independent
  // counts). The worker's own row folds locally; every other row ships as
  // [cnt] + SparseCodec block, product b's blocks after product b-1's.
  parallel_for(own.begin, own.end, [&](int w) {
    const auto ws = static_cast<std::size_t>(w);
    std::vector<std::size_t> doff(static_cast<std::size_t>(n), 0);
    // Work items: (a-row id, a-value, intermediate k) triples from the
    // own chunk plus every received chunk, grouped per output row. The
    // n-sized scratch is shared across the products (each product's row
    // loop restores acc/touched to zero and clears its row slots), so the
    // per-superstep allocation stays O(n), not O(B n).
    struct Item {
      int k;
      const std::vector<Index>* bidx;
      const std::vector<V>* bval;
    };
    std::vector<Item> items;
    std::vector<std::vector<std::pair<std::size_t, V>>> per_row(
        static_cast<std::size_t>(n));
    auto row_slot = [&](int i) -> std::vector<std::pair<std::size_t, V>>& {
      return per_row[static_cast<std::size_t>(i)];
    };
    std::vector<int> rows_touched;
    auto add_entry = [&](int i, std::size_t item, const V& aval) {
      if (row_slot(i).empty()) rows_touched.push_back(i);
      row_slot(i).push_back({item, aval});
    };
    std::vector<V> acc(static_cast<std::size_t>(n), sr.zero());
    std::vector<std::uint8_t> touched(static_cast<std::size_t>(n), 0);
    std::vector<Index> jlist;
    std::vector<V> vlist;
    for (std::size_t b = 0; b < batch; ++b) {
      if (sts[b].trivial) continue;
      const auto& st = sts[b];
      items.clear();
      // Own chunk (worker 0 of intermediate w).
      if (st.group_size[ws] >= 1) {
        const auto& rows = st.s_cols[ws];
        const auto [lo, hi] = sparse_chunk_bounds(
            static_cast<int>(rows.size()), st.group_size[ws], 0);
        items.push_back({w, &trow_idx[b][ws], &trow_val[b][ws]});
        for (int x = lo; x < hi; ++x)
          add_entry(rows[static_cast<std::size_t>(x)], items.size() - 1,
                    colvals[b][ws][static_cast<std::size_t>(x)]);
      }
      // Received chunks, ascending by intermediate, read at the pair's
      // running word offset (earlier products' chunks precede). Decoded
      // blocks must outlive the loop, so they land in stable per-item
      // storage.
      const auto& ext = st.worker_extras[ws];
      std::vector<std::vector<Index>> dec_aidx(ext.size()),
          dec_bidx(ext.size());
      std::vector<std::vector<V>> dec_aval(ext.size()), dec_bval(ext.size());
      for (std::size_t e = 0; e < ext.size(); ++e) {
        const int k = ext[e].first;
        // Leased: the view feeds two offset decodes with resizes in
        // between, and the surrounding loop stages contributions — the
        // generation check pins that stage() never invalidates inboxes.
        const analysis::InboxLease<clique::Network> in(net, w, k);
        auto& at = doff[static_cast<std::size_t>(k)];
        CCA_ASSERT(at + 2 <= in.span().size());
        const auto a_cnt = static_cast<std::size_t>(in.span()[at]);
        const auto b_cnt = static_cast<std::size_t>(in.span()[at + 1]);
        dec_aidx[e].resize(a_cnt);
        dec_aval[e].resize(a_cnt, sr.zero());
        dec_bidx[e].resize(b_cnt);
        dec_bval[e].resize(b_cnt, sr.zero());
        // Blocks sit at quantised-frame offsets (see the distribute
        // staging); the real header counts bound what is decoded.
        const auto a_frame = frame_words(a_cnt);
        scodec.decode_into(in.span().data() + at + 2, a_cnt,
                           dec_aidx[e].data(), dec_aval[e].data());
        scodec.decode_into(in.span().data() + at + 2 + a_frame, b_cnt,
                           dec_bidx[e].data(), dec_bval[e].data());
        at += dist_align(2 + a_frame + frame_words(b_cnt));
        items.push_back({k, &dec_bidx[e], &dec_bval[e]});
        for (std::size_t x = 0; x < a_cnt; ++x)
          add_entry(static_cast<int>(dec_aidx[e][x]), items.size() - 1,
                    dec_aval[e][x]);
      }
      std::sort(rows_touched.begin(), rows_touched.end());

      // Per output row: accumulate over the row's (item, a-value) pairs.
      std::size_t contrib_at = 0;
      for (const int i : rows_touched) {
        jlist.clear();
        for (const auto& [item, aval] : row_slot(i)) {
          const auto& bidx = *items[item].bidx;
          const auto& bval = *items[item].bval;
          for (std::size_t x = 0; x < bidx.size(); ++x) {
            const auto j = bidx[x];
            const auto prod = sr.mul(aval, bval[x]);
            if (touched[j] == 0) {
              touched[j] = 1;
              jlist.push_back(j);
              acc[j] = prod;
            } else {
              acc[j] = sr.add(acc[j], prod);
            }
          }
        }
        std::sort(jlist.begin(), jlist.end());
        // The plan's symbolic merge must agree with the numeric one.
        CCA_ASSERT(contrib_at < st.contrib[ws].size());
        CCA_ASSERT(st.contrib[ws][contrib_at].first == i);
        CCA_ASSERT(st.contrib[ws][contrib_at].second ==
                   static_cast<int>(jlist.size()));
        ++contrib_at;
        if (i == w) {
          auto* orow = out[b].row(w);
          for (const auto j : jlist)
            orow[j] = sr.add(orow[j], acc[j]);
        } else {
          const auto msg =
              net.stage(w, i, contrib_align(1 + frame_words(jlist.size())));
          msg[0] = jlist.size();
          vlist.clear();
          for (const auto j : jlist) vlist.push_back(acc[j]);
          scodec.encode_into(jlist, vlist, msg.data() + 1);
        }
        for (const auto j : jlist) {
          touched[j] = 0;
          acc[j] = sr.zero();
        }
        row_slot(i).clear();
      }
      CCA_ASSERT(contrib_at == st.contrib[ws].size());
      rows_touched.clear();
    }
  });
  clock.lap("contribute stage");
  net.deliver();
  clock.lap("contribute deliver");

  // Fold the delivered contributions into the output rows (distinct row per
  // iteration); each sender's message parses product by product, block
  // membership coming from the structures' sorted contrib lists.
  parallel_for(own.begin, own.end, [&](int i) {
    std::vector<Index> jbuf;
    std::vector<V> vbuf;
    for (int w = 0; w < n; ++w) {
      if (w == i) continue;
      // Leased: the view is parsed product by product across the batch
      // loop (resizes and folds in between).
      const analysis::InboxLease<clique::Network> in(net, i, w);
      if (in.span().empty()) continue;
      std::size_t at = 0;
      for (std::size_t b = 0; b < batch; ++b) {
        if (sts[b].trivial) continue;
        const auto& cl = sts[b].contrib[static_cast<std::size_t>(w)];
        const auto it = std::lower_bound(
            cl.begin(), cl.end(), i,
            [](const std::pair<int, int>& p, int x) { return p.first < x; });
        if (it == cl.end() || it->first != i) continue;
        const auto cnt = static_cast<std::size_t>(in.span()[at]);
        CCA_ASSERT(cnt == static_cast<std::size_t>(it->second));
        CCA_ASSERT(at + contrib_align(1 + frame_words(cnt)) <=
                   in.span().size());
        jbuf.resize(cnt);
        vbuf.assign(cnt, sr.zero());
        scodec.decode_into(in.span().data() + at + 1, cnt, jbuf.data(),
                           vbuf.data());
        auto* orow = out[b].row(i);
        for (std::size_t x = 0; x < cnt; ++x)
          orow[jbuf[x]] = sr.add(orow[jbuf[x]], vbuf[x]);
        at += contrib_align(1 + frame_words(cnt));
      }
      CCA_ASSERT(at == in.span().size());
    }
  });
  clock.lap("contribute fold");
  return out;
}

/// Batch-of-one wrapper: the historical single-product staged phases.
/// Charges exactly
///   (trivial ? 0 : 1 + sched(gather) + sched(distribute) + sched(contribute))
/// rounds — the same value the planner computes from the structure.
template <Semiring S, typename Codec>
[[nodiscard]] Matrix<typename S::Value> mm_semiring_sparse_staged(
    clique::Network& net, const S& sr, const Codec& codec,
    const Matrix<typename S::Value>& s, const Matrix<typename S::Value>& t,
    const SparseMmStructure& st, MmStepProfile* profile = nullptr) {
  using V = typename S::Value;
  auto res = mm_semiring_sparse_staged_batch(
      net, sr, codec, std::span<const Matrix<V>>(&s, 1),
      std::span<const Matrix<V>>(&t, 1),
      std::span<const SparseMmStructure>(&st, 1), profile);
  return std::move(res.front());
}

/// Pack the two per-row nnz counts into the announcement word.
[[nodiscard]] inline clique::Word pack_nnz_pair(std::size_t a,
                                                std::size_t b) noexcept {
  return (static_cast<clique::Word>(a) << 32) | static_cast<clique::Word>(b);
}

/// Under sharding: rebuild the non-owned rows of every (S, T) pattern pair
/// from the announced per-row counts via the uncharged common-knowledge
/// side channel (allgather_node_blocks), so every rank leaves holding the
/// identical GLOBAL patterns — the plan, the hysteresis verdicts, and the
/// gather conditions all derive from announced data, never from a value
/// scan of rows this rank does not hold. `counts[b][v]` is product b's
/// packed (nnzS, nnzT) announcement word for node v. No-op under full
/// ownership (every rank already holds every row).
inline void allgather_sparse_patterns(
    clique::Network& net, std::span<SparsePattern> s_rows,
    std::span<SparsePattern> t_rows,
    std::span<const std::vector<clique::Word>> counts) {
  if (net.owns_all()) return;
  const int n = net.n();
  const clique::NodeSpan own = net.owned();
  const std::size_t batch = s_rows.size();
  CCA_EXPECTS(t_rows.size() == batch && counts.size() == batch);
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) {
    const auto vs = static_cast<std::size_t>(v);
    std::size_t sz = 0;
    for (std::size_t b = 0; b < batch; ++b) {
      const auto w = counts[b][vs];
      sz += static_cast<std::size_t>(w >> 32) +
            static_cast<std::size_t>(w & 0xffffffffULL);
    }
    offsets[vs + 1] = offsets[vs] + sz;
  }
  std::vector<clique::Word> data(offsets[static_cast<std::size_t>(n)], 0);
  for (int v = own.begin; v < own.end; ++v) {
    auto at = offsets[static_cast<std::size_t>(v)];
    for (std::size_t b = 0; b < batch; ++b) {
      for (const int j : s_rows[b][static_cast<std::size_t>(v)])
        data[at++] = static_cast<clique::Word>(j);
      for (const int j : t_rows[b][static_cast<std::size_t>(v)])
        data[at++] = static_cast<clique::Word>(j);
    }
    CCA_ASSERT(at == offsets[static_cast<std::size_t>(v) + 1]);
  }
  net.allgather_node_blocks(data, offsets);
  for (int v = 0; v < n; ++v) {
    if (own.contains(v)) continue;
    const auto vs = static_cast<std::size_t>(v);
    auto at = offsets[vs];
    for (std::size_t b = 0; b < batch; ++b) {
      const auto w = counts[b][vs];
      auto& srow = s_rows[b][vs];
      auto& trow = t_rows[b][vs];
      srow.clear();
      trow.clear();
      for (std::size_t x = 0; x < static_cast<std::size_t>(w >> 32); ++x)
        srow.push_back(static_cast<int>(data[at++]));
      for (std::size_t x = 0;
           x < static_cast<std::size_t>(w & 0xffffffffULL); ++x)
        trow.push_back(static_cast<int>(data[at++]));
    }
  }
}

/// The per-row nnz announcement of B products, shared by mm_semiring_sparse
/// and the Auto dispatcher: node v announces (nnzS_b(row v), nnzT_b(row v))
/// for every product b. B = 1 is the 1-round broadcast_all (charged, no
/// words staged); B > 1 stages the B packed words over every link in one
/// Direct superstep (B rounds, B n(n-1) words). Under sharding each rank
/// announces its OWNED rows' counts, reads the others' from the census, and
/// repairs the patterns' non-owned rows (allgather_sparse_patterns), so the
/// call returns with bit-identical global patterns on every rank. P=1
/// stages and charges byte-identical traffic to the full-ownership path.
inline void sparse_nnz_announce(clique::Network& net,
                                std::span<SparsePattern> s_rows,
                                std::span<SparsePattern> t_rows) {
  const int n = net.n();
  const std::size_t batch = s_rows.size();
  CCA_EXPECTS(batch >= 1 && t_rows.size() == batch);
  const clique::NodeSpan own = net.owned();
  std::vector<std::vector<clique::Word>> counts(
      batch, std::vector<clique::Word>(static_cast<std::size_t>(n), 0));
  for (int v = own.begin; v < own.end; ++v)
    for (std::size_t b = 0; b < batch; ++b)
      counts[b][static_cast<std::size_t>(v)] =
          pack_nnz_pair(s_rows[b][static_cast<std::size_t>(v)].size(),
                        t_rows[b][static_cast<std::size_t>(v)].size());
  if (batch == 1) {
    counts[0] = clique::broadcast_all(net, std::move(counts[0]));
  } else {
    parallel_for(own.begin, own.end, [&](int v) {
      for (int u = 0; u < n; ++u) {
        if (u == v) continue;
        const auto msg = net.stage(v, u, batch);
        for (std::size_t b = 0; b < batch; ++b)
          msg[b] = counts[b][static_cast<std::size_t>(v)];
      }
    });
    net.deliver(clique::Router::Direct);
    // Every destination received every announcement, so one owned
    // destination's inboxes serve the non-owned sources' counts.
    if (!net.owns_all())
      for (int v = 0; v < n; ++v) {
        if (own.contains(v)) continue;
        const auto in = net.inbox(own.begin, v);
        CCA_ASSERT(in.size() == batch);
        for (std::size_t b = 0; b < batch; ++b)
          counts[b][static_cast<std::size_t>(v)] = in[b];
      }
  }
  allgather_sparse_patterns(net, s_rows, t_rows, counts);
}

}  // namespace detail

/// Sparsity-sensitive semiring multiplication (see the section comment
/// above). Requires net.n() == dimensions of s, t; ANY n >= 1 is
/// admissible. Result-identical to mm_semiring_3d under the Semiring zero
/// contract; rounds scale with the nonzero volume.
template <Semiring S, typename Codec>
[[nodiscard]] Matrix<typename S::Value> mm_semiring_sparse(
    clique::Network& net, const S& sr, const Codec& codec,
    const Matrix<typename S::Value>& s, const Matrix<typename S::Value>& t,
    MmStepProfile* profile = nullptr) {
  using V = typename S::Value;
  const int n = net.n();
  CCA_EXPECTS(s.rows() == n && s.cols() == n);
  CCA_EXPECTS(t.rows() == n && t.cols() == n);
  if (n == 1) {
    Matrix<V> o(1, 1, sr.zero());
    o(0, 0) = sr.mul(s(0, 0), t(0, 0));
    return o;
  }
  auto s_rows = sparse_pattern(sr, s);
  auto t_rows = sparse_pattern(sr, t);
  detail::sparse_nnz_announce(net, std::span<SparsePattern>(&s_rows, 1),
                              std::span<SparsePattern>(&t_rows, 1));
  const auto st = build_sparse_mm_structure(
      n, s_rows, t_rows,
      [&](std::size_t c) { return codec.words_for(c); });
  return detail::mm_semiring_sparse_staged(net, sr, codec, s, t, st, profile);
}

/// Sparsity-sensitive BATCHED multiplication: B products through SHARED
/// sparse supersteps (gather / distribute / contribute each pay one routing
/// schedule for the whole batch, per-pair blocks concatenated in product
/// order). The row-nnz announcements ride one superstep — B packed words
/// per link, i.e. broadcast_all's 1-round accounting once per product — so
/// the B = 1 instance charges and stages byte-identical traffic to
/// mm_semiring_sparse (pinned in test_sparse.cpp); B > 1 runs in strictly
/// fewer rounds than B sequential calls whenever the single-product
/// supersteps leave links idle.
template <Semiring S, typename Codec>
[[nodiscard]] std::vector<Matrix<typename S::Value>> mm_semiring_sparse_batch(
    clique::Network& net, const S& sr, const Codec& codec,
    std::span<const Matrix<typename S::Value>> as,
    std::span<const Matrix<typename S::Value>> bs,
    MmStepProfile* profile = nullptr) {
  using V = typename S::Value;
  const int n = net.n();
  const std::size_t batch = as.size();
  CCA_EXPECTS(batch >= 1 && bs.size() == batch);
  for (std::size_t b = 0; b < batch; ++b) {
    CCA_EXPECTS(as[b].rows() == n && as[b].cols() == n);
    CCA_EXPECTS(bs[b].rows() == n && bs[b].cols() == n);
  }
  if (n == 1) {
    std::vector<Matrix<V>> out;
    out.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      Matrix<V> o(1, 1, sr.zero());
      o(0, 0) = sr.mul(as[b](0, 0), bs[b](0, 0));
      out.push_back(std::move(o));
    }
    return out;
  }
  std::vector<SparseMmStructure> sts(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const auto s_rows = sparse_pattern(sr, as[b]);
    const auto t_rows = sparse_pattern(sr, bs[b]);
    sts[b] = build_sparse_mm_structure(
        n, s_rows, t_rows,
        [&](std::size_t c) { return codec.words_for(c); });
  }
  net.charge_rounds(static_cast<std::int64_t>(batch));  // B-word announcement
  return detail::mm_semiring_sparse_staged_batch(
      net, sr, codec, as, bs, std::span<const SparseMmStructure>(sts),
      profile);
}

/// Which engine the Auto dispatcher (mm_semiring_auto_batch) selected.
enum class AutoEngineChoice { Sparse, Semiring3D, Fast, Naive };

/// Persistent dispatch state for ITERATED multiplications on one network
/// (APSP squarings, Seidel levels, girth's Boolean doubling, bounded /
/// approximate distance iterations): carries the densification hysteresis
/// and a per-call engine trace across calls to the Auto dispatcher (and the
/// IntMmEngine wrappers that forward it).
///
/// Hysteresis: these workloads square an iterate whose nonzero pattern only
/// ever GROWS (min-plus squaring and Boolean doubling are monotone in the
/// pattern; the approximate products' admission windows widen level over
/// level), so once a dense engine plans fewer rounds than the sparse plan
/// it keeps winning. Every node derives that verdict from the same
/// announcements, so from the next call on the planner stops re-announcing
/// and replays the locked dense choice directly — locked iterations charge
/// exactly the dense engine's rounds, with NO announcement round. `trace`
/// records one choice per call, in order; the densification flip is the
/// first Sparse -> dense transition (bench_apsp --sparse prints it, and
/// test_sparse.cpp pins the flip index on a power-law input).
struct MmDispatchContext {
  bool dense_locked = false;  ///< a dense engine has won once — stay dense
  AutoEngineChoice locked_choice = AutoEngineChoice::Semiring3D;
  std::vector<AutoEngineChoice> trace;  ///< per-call engine choices
};

/// nnz-adaptive dispatch of B products (B = 1: mm_semiring_auto). One real
/// announcement (detail::sparse_nnz_announce), then the candidate with the
/// fewest PLANNED rounds runs. Plans are exact — they schedule the very
/// demand lists the engines stage, through the schedule store, so a
/// plan is never wrong and never wasted. The sparse plan reuses the
/// announcement as its own step 0, so Auto-chosen-sparse charges exactly
/// the sparse engine's rounds; a dense choice pays its engine plus the
/// announcement. Planning itself is free local computation, in the same
/// sense the routing layer's schedule construction is.
///
/// Candidates, in tie-preference order:
///  * Sparse — all B products through shared sparse supersteps; admissible
///    while every product's triple volume stays under sparse_plan_cap (past
///    it the contribute phase dwarfs the dense engines and the O(T)
///    symbolic merge is wasted work), or when no other candidate is;
///  * Semiring3D — the (batched) 3D engine; n must be a perfect cube;
///  * Fast — the Section 2.2 engine for `fast_alg` (rings only, admissible
///    for n), B = 1 only;
///  * Naive — the 2n-round broadcast baseline, B = 1 only.
/// Assumes the net's default router is KoenigRelay (the planner schedules
/// with it). Any n >= 1 works. `ctx` (optional) makes the dispatch
/// PER-ITERATION: its hysteresis skips announcement and planning once a
/// dense engine has won (see MmDispatchContext), and its trace records one
/// entry per call. A locked batch replays the batched 3D engine when n is a
/// cube, and otherwise the locked engine product by product.
template <Semiring S, typename Codec>
[[nodiscard]] std::vector<Matrix<typename S::Value>> mm_semiring_auto_batch(
    clique::Network& net, const S& sr, const Codec& codec,
    std::span<const Matrix<typename S::Value>> as,
    std::span<const Matrix<typename S::Value>> bs,
    MmDispatchContext* ctx = nullptr,
    const BilinearAlgorithm* fast_alg = nullptr) {
  using V = typename S::Value;
  using Choice = AutoEngineChoice;
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  const int n = net.n();
  const std::size_t batch = as.size();
  CCA_EXPECTS(batch >= 1 && bs.size() == batch);
  for (std::size_t b = 0; b < batch; ++b) {
    CCA_EXPECTS(as[b].rows() == n && as[b].cols() == n);
    CCA_EXPECTS(bs[b].rows() == n && bs[b].cols() == n);
  }
  const bool cube = is_perfect_cube(n);
  const std::int64_t wpe = static_cast<std::int64_t>(codec.words_for(1));
  if (n == 1) {
    std::vector<Matrix<V>> out;
    for (std::size_t b = 0; b < batch; ++b)
      out.emplace_back(1, 1, sr.mul(as[b](0, 0), bs[b](0, 0)));
    if (ctx != nullptr) ctx->trace.push_back(Choice::Sparse);
    return out;
  }
  // The single mapping from a dense pick to its engine, shared by the
  // hysteresis replay and the fresh dispatch. A batch on a cube clique runs
  // the batched 3D engine, whatever dense engine a B = 1 call locked.
  auto run_dense = [&](Choice pick) {
    if (pick == Choice::Semiring3D || (batch > 1 && cube))
      return mm_semiring_3d_batch(net, sr, codec, as, bs);
    std::vector<Matrix<V>> out;
    for (std::size_t b = 0; b < batch; ++b) {
      if constexpr (Ring<S>) {
        if (pick == Choice::Fast) {
          CCA_EXPECTS(fast_alg != nullptr);
          out.push_back(mm_fast_bilinear(net, sr, codec, *fast_alg, as[b],
                                         bs[b]));
          continue;
        }
      }
      CCA_EXPECTS(pick == Choice::Naive);
      out.push_back(mm_naive_broadcast(net, sr, static_cast<int>(wpe), as[b],
                                       bs[b]));
    }
    return out;
  };
  if (ctx != nullptr && ctx->dense_locked) {
    // Densification hysteresis: the locked dense engine replays directly,
    // with no announcement and no pattern scan — every node reached the
    // same lock from the same announcements.
    ctx->trace.push_back(batch > 1 && cube ? Choice::Semiring3D
                                           : ctx->locked_choice);
    return run_dense(ctx->locked_choice);
  }
  std::vector<SparsePattern> s_rows, t_rows;
  s_rows.reserve(batch);
  t_rows.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    s_rows.push_back(sparse_pattern(sr, as[b]));
    t_rows.push_back(sparse_pattern(sr, bs[b]));
  }
  detail::sparse_nnz_announce(net, std::span<SparsePattern>(s_rows),
                              std::span<SparsePattern>(t_rows));

  // Candidate costs AFTER the shared announcement. Planning is free in the
  // clique model but NOT on the host: the Euler split is the simulator's
  // wall-clock hot spot, and even BUILDING the O(T) sparse structures is
  // real work on densified iterates. So under the exact policy every
  // candidate first gets a cheap lower bound (the sparse one build-free),
  // and candidates are then costed for real in ascending (bound,
  // preference) order, skipping any whose bound cannot beat (or, on a tie,
  // out-prefer) the best actual so far, with a costed plan's remaining
  // supersteps aborted as soon as its partial sum loses. The skips are
  // sound (actual rounds never undercut the bound) and preference-
  // preserving, so the pick is the one the unabridged comparison makes —
  // but the order decides how much losing plans cost on the host: a
  // sparse-winning multiply at n = 343 never pays the dense engines'
  // n^2-demand Euler splits. Costing a candidate that the run then uses is
  // free either way: its schedules land in the schedule store and the real
  // run replays them. Under the Greedy policy scheduling is O(words),
  // gating would save nothing, and the looser greedy rounds ARE the run's
  // real cost — so bounds drop to 0, aborts are off, and every admissible
  // candidate is costed for real.
  const bool gate =
      net.schedule_policy() == clique::SchedulePolicy::ExactKoenig;
  const auto vw = [&](std::size_t c) { return codec.words_for(c); };
  bool sparse_ok = true;
  for (std::size_t b = 0; b < batch; ++b)
    sparse_ok = sparse_ok && sparse_triple_count(n, s_rows[b], t_rows[b]) <=
                                 sparse_plan_cap(n);
  // Over the cap, sparse is admissible only as the sole candidate (a batch
  // on a non-cube clique): correctness wins, the plan is built anyway.
  const std::int64_t sparse_lb =
      !sparse_ok && (batch == 1 || cube) ? kMax
      : gate && sparse_ok ? sparse_round_lower_bound(n, s_rows, t_rows, vw)
                          : 0;
  std::vector<SparseMmStructure> sts;
  std::vector<std::vector<clique::Demand>> steps3d;
  if (cube) {
    const auto c = static_cast<std::size_t>(icbrt(n));
    auto [step1, step3] =
        semiring3d_superstep_demands(n, codec.words_for(c * c), batch);
    steps3d.push_back(std::move(step1));
    steps3d.push_back(std::move(step3));
  }
  std::vector<std::vector<clique::Demand>> stepsf;
  const bool fast = Ring<S> && fast_alg != nullptr && batch == 1;
  if (fast) {
    const auto sq = static_cast<std::size_t>(isqrt(n));
    const auto bsz = sq / static_cast<std::size_t>(fast_alg->d);
    stepsf = fast_bilinear_superstep_demands(n, *fast_alg, codec.words_for(sq),
                                             codec.words_for(bsz * bsz));
  }
  // Each cost returns the planned rounds, or a partial sum already above
  // `abort` when the plan provably loses.
  using Steps = std::vector<std::vector<clique::Demand>>;
  auto schedule_all = [&](const Steps& steps, std::int64_t abort) {
    std::int64_t actual = 0;
    for (const auto& step : steps) {
      if (actual > abort) break;
      actual += net.prepare_schedule(step);
    }
    return actual;
  };
  auto relay_bound = [&](const Steps& steps) {
    std::int64_t lb = 0;
    if (gate)
      for (const auto& step : steps) lb += relay_round_lower_bound(n, step);
    return lb;
  };
  // The candidate table, in tie-preference order (the index is the
  // preference rank). Each row: its lower bound (kMax when inadmissible
  // for this n and B) and its cost, the planned rounds given an abort
  // threshold.
  struct Candidate {
    Choice choice;
    std::int64_t lb;
    std::function<std::int64_t(std::int64_t)> cost;
  };
  Candidate table[4] = {
      {Choice::Sparse, sparse_lb,
       [&](std::int64_t abort) {
         for (std::size_t b = 0; b < batch; ++b)
           sts.push_back(
               build_sparse_mm_structure(n, s_rows[b], t_rows[b], vw));
         return sparse_planned_rounds_batch(net, sts, abort);
       }},
      {Choice::Semiring3D, cube ? relay_bound(steps3d) : kMax,
       [&](std::int64_t abort) { return schedule_all(steps3d, abort); }},
      {Choice::Fast, fast ? relay_bound(stepsf) : kMax,
       [&](std::int64_t abort) { return schedule_all(stepsf, abort); }},
      {Choice::Naive, batch == 1 ? 2 * n * wpe : kMax,
       [&](std::int64_t) { return 2 * n * wpe; }}};
  int order[4] = {0, 1, 2, 3};
  std::stable_sort(std::begin(order), std::end(order),
                   [&](int x, int y) { return table[x].lb < table[y].lb; });
  std::int64_t best = kMax;
  int best_pref = 4;
  for (const int pref : order) {
    const auto lb = table[pref].lb;
    if (lb == kMax || lb > best || (lb == best && pref > best_pref))
      continue;  // inadmissible, or cannot win: actual >= bound
    const auto actual = table[pref].cost(gate ? best : kMax);
    if (actual < best || (actual == best && pref < best_pref)) {
      best = actual;
      best_pref = pref;
    }
  }
  const Choice pick = table[best_pref].choice;
  if (ctx != nullptr) {
    ctx->trace.push_back(pick);
    if (pick != Choice::Sparse) {
      // The iterate densifies monotonically, so a dense winner stays the
      // winner: lock it and stop re-announcing.
      ctx->dense_locked = true;
      ctx->locked_choice = pick;
    }
  }
  if (pick == Choice::Sparse)
    return detail::mm_semiring_sparse_staged_batch(
        net, sr, codec, as, bs, std::span<const SparseMmStructure>(sts));
  return run_dense(pick);
}

/// Single-product Auto dispatch: the batch-of-one mm_semiring_auto_batch.
template <Semiring S, typename Codec>
[[nodiscard]] Matrix<typename S::Value> mm_semiring_auto(
    clique::Network& net, const S& sr, const Codec& codec,
    const Matrix<typename S::Value>& s, const Matrix<typename S::Value>& t,
    MmDispatchContext* ctx = nullptr,
    const BilinearAlgorithm* fast_alg = nullptr) {
  using V = typename S::Value;
  auto res = mm_semiring_auto_batch(net, sr, codec,
                                    std::span<const Matrix<V>>(&s, 1),
                                    std::span<const Matrix<V>>(&t, 1), ctx,
                                    fast_alg);
  return std::move(res.front());
}

/// Pad a square matrix to dimension `to`, filling new cells with `fill`
/// (use the semiring zero so padded rows/columns stay inert).
template <typename V>
[[nodiscard]] Matrix<V> pad_matrix(const Matrix<V>& m, int to, V fill) {
  CCA_EXPECTS(to >= m.rows() && m.rows() == m.cols());
  return m.resized(to, to, std::move(fill));
}

/// Admissible clique size for the 3D algorithm: the next perfect cube.
[[nodiscard]] int semiring_clique_size(int n);

}  // namespace cca::core
