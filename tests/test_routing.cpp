// Tests for the congested clique network model and its routing schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "clique/network.hpp"
#include "clique/primitives.hpp"
#include "clique/routing.hpp"
#include "util/rng.hpp"

namespace cca::clique {
namespace {

std::vector<Word> to_vector(std::span<const Word> s) {
  return {s.begin(), s.end()};
}

TEST(Network, DeliversWordsInOrder) {
  Network net(4);
  net.send(0, 1, 10);
  net.send(0, 1, 11);
  net.send(2, 1, 99);
  net.deliver();
  EXPECT_EQ(to_vector(net.inbox(1, 0)), (std::vector<Word>{10, 11}));
  EXPECT_EQ(to_vector(net.inbox(1, 2)), (std::vector<Word>{99}));
  EXPECT_TRUE(net.inbox(1, 3).empty());
}

TEST(Network, SelfSendsAreFree) {
  Network net(3);
  net.send(1, 1, 7);
  net.deliver();
  EXPECT_EQ(net.stats().rounds, 0);
  EXPECT_EQ(to_vector(net.inbox(1, 1)), (std::vector<Word>{7}));
}

TEST(Network, SingleWordCostsOneRoundEverywhere) {
  for (const auto r : {Router::Direct, Router::HashRelay, Router::RandomRelay,
                       Router::KoenigRelay}) {
    Network net(8, r);
    net.send(0, 5, 1);
    net.deliver();
    // Relays pay at most 2 (scatter + forward); direct pays exactly 1.
    EXPECT_GE(net.stats().rounds, 1);
    EXPECT_LE(net.stats().rounds, 2);
  }
}

TEST(Network, InboxClearedBetweenSupersteps) {
  Network net(3);
  net.send(0, 1, 5);
  net.deliver();
  net.send(2, 1, 6);
  net.deliver();
  EXPECT_TRUE(net.inbox(1, 0).empty());
  EXPECT_EQ(to_vector(net.inbox(1, 2)), (std::vector<Word>{6}));
}

TEST(Network, StatsAccumulate) {
  Network net(4);
  net.send(0, 1, 1);
  net.deliver();
  const auto r1 = net.stats().rounds;
  net.send(0, 1, 1);
  net.deliver();
  EXPECT_GT(net.stats().rounds, r1 - 1);
  EXPECT_EQ(net.stats().supersteps, 2);
  EXPECT_EQ(net.stats().total_words, 2);
}

TEST(Network, ChargeRoundsAddsToStats) {
  Network net(2);
  net.charge_rounds(5);
  EXPECT_EQ(net.stats().rounds, 5);
}

TEST(Network, TakeInboxMovesWords) {
  Network net(2);
  net.send(0, 1, 3);
  net.deliver();
  auto words = net.take_inbox(1, 0);
  EXPECT_EQ(words, (std::vector<Word>{3}));
  EXPECT_TRUE(net.inbox(1, 0).empty());
}

// ---------------------------------------------------------------------------
// Schedule round counts.
// ---------------------------------------------------------------------------

TEST(Schedules, DirectIsMaxLinkLoad) {
  const int n = 6;
  std::vector<Demand> demands{{0, 1, 10}, {0, 2, 3}, {4, 1, 7}};
  EXPECT_EQ(rounds_direct(n, demands), 10);
}

TEST(Schedules, DirectAggregatesRepeatedLinks) {
  std::vector<Demand> demands{{0, 1, 4}, {0, 1, 5}};
  EXPECT_EQ(rounds_direct(4, demands), 9);
}

TEST(Schedules, EmptyDemandsCostNothing) {
  std::vector<Demand> none;
  Rng rng(1);
  EXPECT_EQ(rounds_direct(5, none), 0);
  EXPECT_EQ(rounds_hash_relay(5, none), 0);
  EXPECT_EQ(rounds_random_relay(5, none, rng), 0);
  EXPECT_EQ(rounds_koenig_relay(5, none), 0);
}

TEST(Schedules, RelayBeatsDirectOnSingleHeavyLink) {
  // One node ships n words to one receiver: direct needs n rounds, a relay
  // spreads over intermediates and needs ~2 + slack.
  const int n = 64;
  std::vector<Demand> demands{{0, 1, 64}};
  EXPECT_EQ(rounds_direct(n, demands), 64);
  EXPECT_LE(rounds_hash_relay(n, demands), 6);
  EXPECT_LE(rounds_koenig_relay(n, demands), 6);
}

TEST(Schedules, LenzenBalancedInstanceIsConstantRounds) {
  // Every node sends exactly n words spread over all receivers and receives
  // n words: the Lenzen routing regime. The Koenig relay is the executable
  // counterpart of the deterministic O(1) guarantee; the hashed/random
  // relays pay a small collision factor (Theta(log n / log log n) in the
  // worst case) but stay near-constant.
  const int n = 32;
  std::vector<Demand> demands;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d)
      if (s != d) demands.push_back({s, d, 1});
  EXPECT_LE(rounds_koenig_relay(n, demands), 6);
  EXPECT_LE(rounds_hash_relay(n, demands), 16);
  Rng rng(3);
  EXPECT_LE(rounds_random_relay(n, demands, rng), 16);
}

TEST(Schedules, KoenigStaysConstantAsNGrows) {
  // The Lenzen O(1) bound must be flat in n for the balanced instance.
  for (const int n : {16, 32, 64, 128}) {
    std::vector<Demand> demands;
    for (int s = 0; s < n; ++s)
      for (int d = 0; d < n; ++d)
        if (s != d) demands.push_back({s, d, 1});
    EXPECT_LE(rounds_koenig_relay(n, demands), 6) << n;
  }
}

TEST(Schedules, KoenigNearOptimalOnSkewedInstance) {
  // Adversarial skew: node 0 sends n words to each of n/2 receivers.
  // Lower bound: out-degree load = n*n/2 words over n links = n/2 rounds.
  const int n = 32;
  std::vector<Demand> demands;
  for (int d = 1; d <= n / 2; ++d) demands.push_back({0, d, n});
  const auto lower = static_cast<std::int64_t>(n) * (n / 2) / n;
  const auto koenig = rounds_koenig_relay(n, demands);
  EXPECT_GE(koenig, lower);
  EXPECT_LE(koenig, 3 * lower + 4);
}

TEST(Schedules, KoenigWithinConstantOfLowerBoundRandomInstances) {
  Rng rng(99);
  const int n = 24;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Demand> demands;
    std::vector<std::int64_t> out(n, 0), in(n, 0);
    for (int i = 0; i < 100; ++i) {
      const int s = static_cast<int>(rng.next_below(n));
      int d = static_cast<int>(rng.next_below(n));
      if (s == d) d = (d + 1) % n;
      const auto words = rng.next_in(1, 40);
      demands.push_back({s, d, words});
      out[static_cast<std::size_t>(s)] += words;
      in[static_cast<std::size_t>(d)] += words;
    }
    std::int64_t lower = 0;
    for (int v = 0; v < n; ++v)
      lower = std::max({lower, (out[static_cast<std::size_t>(v)] + n - 1) / n,
                        (in[static_cast<std::size_t>(v)] + n - 1) / n});
    const auto koenig = rounds_koenig_relay(n, demands);
    EXPECT_GE(koenig, lower);
    EXPECT_LE(koenig, 6 * lower + 8) << "trial " << trial;
  }
}

TEST(Schedules, HashRelayDeterministic) {
  std::vector<Demand> demands{{0, 1, 17}, {2, 3, 9}, {1, 0, 30}};
  EXPECT_EQ(rounds_hash_relay(16, demands), rounds_hash_relay(16, demands));
}

// ---------------------------------------------------------------------------
// Schedule validity, serial/parallel bit-identity, and the greedy bound.
// ---------------------------------------------------------------------------

namespace {

std::vector<Demand> random_demands(Rng& rng, int n, int entries,
                                   std::int64_t max_words) {
  std::vector<Demand> demands;
  for (int i = 0; i < entries; ++i) {
    const int s = static_cast<int>(rng.next_below(n));
    int d = static_cast<int>(rng.next_below(n));
    if (s == d) d = (d + 1) % n;
    demands.push_back({s, d, rng.next_in(1, max_words)});
  }
  return demands;
}

/// Assert the colour classes form a legal relay plan: every class is a
/// partial matching on ports (no src and no dst appears twice within one
/// class — that is what lets the class cross the clique in O(1) relay
/// rounds), and the classes together deliver every demanded word exactly
/// once.
void expect_valid_colouring(
    int n, const std::vector<Demand>& demands,
    const std::vector<std::vector<std::pair<int, int>>>& classes,
    const char* what) {
  std::map<std::pair<int, int>, std::int64_t> delivered;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    std::vector<int> src_used(static_cast<std::size_t>(n), 0);
    std::vector<int> dst_used(static_cast<std::size_t>(n), 0);
    for (const auto& [s, d] : classes[c]) {
      ASSERT_GE(s, 0);
      ASSERT_LT(s, n);
      ASSERT_GE(d, 0);
      ASSERT_LT(d, n);
      EXPECT_EQ(src_used[static_cast<std::size_t>(s)]++, 0)
          << what << ": src " << s << " twice in class " << c;
      EXPECT_EQ(dst_used[static_cast<std::size_t>(d)]++, 0)
          << what << ": dst " << d << " twice in class " << c;
      ++delivered[{s, d}];
    }
  }
  std::map<std::pair<int, int>, std::int64_t> wanted;
  for (const auto& dm : demands) wanted[{dm.src, dm.dst}] += dm.words;
  EXPECT_EQ(delivered, wanted) << what << ": words delivered != demanded";
}

}  // namespace

TEST(Schedules, ColourClassesAreValidForBothPolicies) {
  // The schedule-validity property: for random ragged instances, both the
  // Euler-split and the greedy first-fit colourings must produce classes
  // that are partial matchings covering the demand multiset exactly.
  Rng rng(123);
  const int n = 18;
  for (int trial = 0; trial < 8; ++trial) {
    const auto demands = random_demands(rng, n, 50, 12);
    expect_valid_colouring(n, demands, koenig_relay_classes(n, demands),
                           "koenig");
    expect_valid_colouring(n, demands, greedy_relay_classes(n, demands),
                           "greedy");
  }
}

TEST(Schedules, ParallelSplitIsBitIdenticalToSerial) {
  // The parallel Euler split must produce the SAME colour classes — not
  // just the same round count — for every task count, including task
  // counts far above the machine's worker count. This is the property that
  // lets a multi-core CI machine gate its BENCH_routing.json rows against
  // a single-core baseline.
  Rng rng(321);
  const int n = 20;
  for (int trial = 0; trial < 4; ++trial) {
    const auto demands = random_demands(rng, n, 80, 20);
    const auto serial = koenig_relay_classes(n, demands, 1);
    for (const int tasks : {2, 4, 8, 16}) {
      EXPECT_EQ(serial, koenig_relay_classes(n, demands, tasks))
          << "tasks=" << tasks << " trial=" << trial;
    }
    const auto s1 = schedule_koenig_relay(n, demands, 1);
    const auto s8 = schedule_koenig_relay(n, demands, 8);
    EXPECT_EQ(s1.rounds, s8.rounds);
    EXPECT_EQ(s1.classes, s8.classes);
    EXPECT_EQ(s1.words, s8.words);
  }
}

TEST(Schedules, GreedyClassesWithinFirstFitBound) {
  // First-fit gives each word the lowest level free at both endpoints, so
  // the class count is at most deg(src) + deg(dst) - 1 <= 2 * maxdeg - 1,
  // where maxdeg is the max number of WORDS at one port. The optimal
  // colouring needs >= maxdeg classes, so greedy is < 2x optimal — and the
  // Euler split needs >= maxdeg classes too, giving the testable relation
  // greedy.classes <= 2 * koenig.classes - 1.
  Rng rng(55);
  const int n = 16;
  for (int trial = 0; trial < 8; ++trial) {
    const auto demands = random_demands(rng, n, 40, 15);
    std::vector<std::int64_t> out(static_cast<std::size_t>(n), 0);
    std::vector<std::int64_t> in(static_cast<std::size_t>(n), 0);
    std::map<std::pair<int, int>, std::int64_t> merged;
    for (const auto& d : demands) merged[{d.src, d.dst}] += d.words;
    for (const auto& [pair, words] : merged) {
      out[static_cast<std::size_t>(pair.first)] += words;
      in[static_cast<std::size_t>(pair.second)] += words;
    }
    std::int64_t maxdeg = 0;
    for (int v = 0; v < n; ++v)
      maxdeg = std::max({maxdeg, out[static_cast<std::size_t>(v)],
                         in[static_cast<std::size_t>(v)]});
    const auto greedy = schedule_greedy_relay(n, demands);
    const auto koenig = schedule_koenig_relay(n, demands);
    EXPECT_LE(greedy.classes, 2 * maxdeg - 1) << "trial " << trial;
    EXPECT_LE(greedy.classes, 2 * koenig.classes - 1) << "trial " << trial;
    EXPECT_GE(greedy.classes, maxdeg) << "trial " << trial;
    EXPECT_EQ(greedy.words, koenig.words);
    // Rounds follow the class counts through the same intermediate
    // assignment, so the documented ~2x round bound has a small additive
    // slack from phase rounding.
    EXPECT_LE(greedy.rounds, 2 * koenig.rounds + 4) << "trial " << trial;
  }
}

TEST(Network, GreedyPolicyRoundsStayWithinTwiceExact) {
  // The opt-in Network knob end-to-end: the same staged traffic delivered
  // under each policy. Greedy's rounds are the exact cost of its looser
  // schedule — bounded by ~2x the exact policy's rounds, and the default
  // policy (what every round-pinned test runs) is ExactKoenig.
  Rng rng(77);
  const int n = 12;
  Network exact(n), greedy(n);
  EXPECT_EQ(exact.schedule_policy(), SchedulePolicy::ExactKoenig);
  greedy.set_schedule_policy(SchedulePolicy::Greedy);
  for (int step = 0; step < 3; ++step) {
    const auto demands = random_demands(rng, n, 30, 9);
    for (auto* net : {&exact, &greedy})
      for (const auto& d : demands)
        for (std::int64_t w = 0; w < d.words; ++w)
          net->send(d.src, d.dst, static_cast<Word>(w));
    exact.deliver();
    greedy.deliver();
    // Same content delivered regardless of schedule.
    for (int dst = 0; dst < n; ++dst)
      for (int src = 0; src < n; ++src)
        EXPECT_EQ(to_vector(exact.inbox(dst, src)),
                  to_vector(greedy.inbox(dst, src)));
  }
  EXPECT_LE(greedy.stats().rounds, 2 * exact.stats().rounds + 12);
  EXPECT_EQ(greedy.stats().total_words, exact.stats().total_words);
}

TEST(Network, PolicySwitchNeverReusesOtherPolicySchedule) {
  // Cache entries are policy-tagged: re-delivering the same shape after a
  // policy switch recomputes under the new policy (a miss), and switching
  // back hits the original entry again.
  Network net(10);
  auto superstep = [&] {
    for (int v = 0; v < 10; ++v) net.send(v, (v + 1) % 10, 5);
    net.deliver();
  };
  superstep();
  EXPECT_EQ(net.stats().schedule_misses, 1);
  net.set_schedule_policy(SchedulePolicy::Greedy);
  superstep();
  EXPECT_EQ(net.stats().schedule_misses, 2);  // no cross-policy hit
  net.set_schedule_policy(SchedulePolicy::ExactKoenig);
  superstep();
  EXPECT_EQ(net.stats().schedule_misses, 2);
  EXPECT_EQ(net.stats().schedule_hits, 1);
}

TEST(ScheduleCacheLru, EvictionNeverChangesRounds) {
  // Shrink the capacity so only one of our two shapes fits, thrash the
  // cache between them, and pin that every recompute of an evicted shape
  // reproduces the identical rounds (the deterministic-schedule guarantee
  // the LRU design leans on).
  Rng rng(31);
  const int n = 14;
  const auto a = random_demands(rng, n, 60, 10);
  const auto b = random_demands(rng, n, 60, 10);
  const auto rounds_a = schedule_koenig_relay(n, a).rounds;
  const auto rounds_b = schedule_koenig_relay(n, b).rounds;
  ScheduleCache cache;
  cache.set_capacity(std::max(a.size(), b.size()) + 10);  // fits one shape
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cache.get(n, a).rounds, rounds_a);
    EXPECT_EQ(cache.get(n, b).rounds, rounds_b);
    EXPECT_LE(cache.entries(), 1u);
  }
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().hits, 0);  // pure thrash: every get recomputed
}

TEST(ScheduleCacheLru, OversizedListIsScheduledButNeverStored) {
  // A list with more demands than the whole capacity is scheduled and
  // returned but not stored: storing it would evict every resident entry
  // and still overrun the bound.
  Rng rng(53);
  const int n = 14;
  const auto small = random_demands(rng, n, 20, 10);
  const auto big = random_demands(rng, n, 80, 10);
  ScheduleCache cache;
  cache.set_capacity(50);
  (void)cache.get(n, small);
  ASSERT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.get(n, big).rounds, schedule_koenig_relay(n, big).rounds);
  EXPECT_EQ(cache.get(n, big, SchedulePolicy::Greedy).rounds,
            schedule_greedy_relay(n, big).rounds);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0);
  const auto hits = cache.stats().hits;
  EXPECT_EQ(cache.get(n, small).rounds,
            schedule_koenig_relay(n, small).rounds);
  EXPECT_EQ(cache.stats().hits, hits + 1);  // the resident entry survived
}

TEST(ScheduleCacheLru, CollidingKeysNeverShareASchedule) {
  // Lists filed under one fingerprint (forced through the keyed get) that
  // differ only in their last demand's words or in length each get their
  // own schedule: every hit decodes the stored list and compares it
  // element-wise.
  Rng rng(61);
  const int n = 13;
  auto a = random_demands(rng, n, 30, 9);
  auto b = a;
  b.back().words += 5000;
  auto c = a;
  c.pop_back();
  ScheduleCache cache;
  const std::uint64_t key = 42;
  for (int pass = 0; pass < 2; ++pass)
    for (const auto* list : {&a, &b, &c})
      EXPECT_EQ(cache.get(key, n, *list, SchedulePolicy::ExactKoenig),
                schedule_koenig_relay(n, *list));
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().hits, 3);
  EXPECT_EQ(cache.entries(), 3u);
}

TEST(ScheduleCacheLru, ConcurrentGetsMatchFreshSchedules) {
  // The rank threads of a socket run share one store. Four threads look up
  // overlapping shapes under both policies through a capacity that holds
  // three lists, so hits, misses, racing inserts of the same shape and
  // evictions interleave; every answer must equal a fresh computation.
  Rng rng(47);
  const int n = 12;
  const int kShapes = 6;
  const int kEntries = 40;
  std::vector<std::vector<Demand>> shapes;
  std::vector<Schedule> exact, greedy;
  for (int i = 0; i < kShapes; ++i) {
    shapes.push_back(random_demands(rng, n, kEntries, 8));
    exact.push_back(schedule_koenig_relay(n, shapes.back()));
    greedy.push_back(schedule_greedy_relay(n, shapes.back()));
  }
  ScheduleCache cache;
  cache.set_capacity(3 * kEntries);
  const int kThreads = 4;
  const int kLookups = 60;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kLookups; ++i) {
        const auto s = static_cast<std::size_t>((7 * t + i) % kShapes);
        const auto policy = (i / 3 + t) % 2 == 0 ? SchedulePolicy::ExactKoenig
                                                 : SchedulePolicy::Greedy;
        const auto want =
            policy == SchedulePolicy::Greedy ? greedy[s] : exact[s];
        if (cache.get(n, shapes[s], policy) != want) ++mismatches;
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kLookups);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(cache.entries(), 3u);
}

TEST(Network, ScheduleWallTelemetryAccumulates) {
  // schedule_wall_ns is pure host telemetry: it must move when a Koenig
  // superstep or a prepare_schedule plan computes (or replays) a schedule,
  // and never affect the simulated rounds.
  Network net(16);
  EXPECT_EQ(net.stats().schedule_wall_ns, 0);
  for (int v = 0; v < 16; ++v)
    for (int u = 0; u < 16; ++u)
      if (u != v) net.send(v, u, 3);
  net.deliver();
  const auto after_deliver = net.stats().schedule_wall_ns;
  EXPECT_GT(after_deliver, 0);
  std::vector<Demand> plan{{0, 1, 40}, {2, 3, 17}, {5, 9, 4}};
  const auto planned = net.prepare_schedule(plan);
  EXPECT_GT(planned, 0);
  EXPECT_GT(net.stats().schedule_wall_ns, after_deliver);
}

// ---------------------------------------------------------------------------
// Reusable schedules and the demand-fingerprint cache.
// ---------------------------------------------------------------------------

TEST(Schedules, ScheduleObjectMatchesRoundsFunction) {
  Rng rng(7);
  const int n = 20;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Demand> demands;
    for (int i = 0; i < 60; ++i) {
      const int s = static_cast<int>(rng.next_below(n));
      int d = static_cast<int>(rng.next_below(n));
      if (s == d) d = (d + 1) % n;
      demands.push_back({s, d, rng.next_in(1, 30)});
    }
    const auto sched = schedule_koenig_relay(n, demands);
    EXPECT_EQ(sched.rounds, rounds_koenig_relay(n, demands));
    EXPECT_GT(sched.classes, 0);
    std::int64_t words = 0;
    for (const auto& d : demands) words += d.words;
    EXPECT_EQ(sched.words, words);
  }
}

TEST(Schedules, FingerprintIsShapeSensitive) {
  const std::vector<Demand> a{{0, 1, 5}, {2, 3, 7}};
  const std::vector<Demand> same{{0, 1, 5}, {2, 3, 7}};
  const std::vector<Demand> words_differ{{0, 1, 5}, {2, 3, 8}};
  const std::vector<Demand> pair_differs{{0, 1, 5}, {2, 4, 7}};
  const std::vector<Demand> order_differs{{2, 3, 7}, {0, 1, 5}};
  EXPECT_EQ(demand_fingerprint(8, a), demand_fingerprint(8, same));
  EXPECT_NE(demand_fingerprint(8, a), demand_fingerprint(8, words_differ));
  EXPECT_NE(demand_fingerprint(8, a), demand_fingerprint(8, pair_differs));
  EXPECT_NE(demand_fingerprint(8, a), demand_fingerprint(8, order_differs));
  EXPECT_NE(demand_fingerprint(8, a), demand_fingerprint(9, a));
}

TEST(Schedules, CacheHitReturnsIdenticalSchedule) {
  ScheduleCache cache;
  Rng rng(9);
  const int n = 16;
  std::vector<Demand> demands;
  for (int i = 0; i < 40; ++i) {
    const int s = static_cast<int>(rng.next_below(n));
    int d = static_cast<int>(rng.next_below(n));
    if (s == d) d = (d + 1) % n;
    demands.push_back({s, d, rng.next_in(1, 20)});
  }
  const auto first = cache.get(n, demands);  // copy: get() may invalidate
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  const auto& second = cache.get(n, demands);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(second.rounds, first.rounds);
  EXPECT_EQ(second.classes, first.classes);
  EXPECT_EQ(second.words, first.words);
  EXPECT_EQ(second.rounds, rounds_koenig_relay(n, demands));
  // A different shape misses and computes its own schedule.
  auto other = demands;
  other[0].words += 1;
  (void)cache.get(n, other);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.entries(), 2u);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().misses, 0);
}

TEST(Network, ScheduleCacheCountersTrackRepeatedShapes) {
  Network net(9);
  auto superstep = [&] {
    for (int v = 0; v < 9; ++v)
      for (int u = 0; u < 9; ++u)
        if (u != v) net.send(v, u, 42);
    net.deliver();
  };
  superstep();
  EXPECT_EQ(net.stats().schedule_misses, 1);
  EXPECT_EQ(net.stats().schedule_hits, 0);
  const auto r1 = net.stats().rounds;
  superstep();
  superstep();
  EXPECT_EQ(net.stats().schedule_misses, 1);
  EXPECT_EQ(net.stats().schedule_hits, 2);
  // Replayed schedules charge bit-identical rounds.
  EXPECT_EQ(net.stats().rounds, 3 * r1);
  // A new shape misses again.
  net.send(0, 1, 7);
  net.deliver();
  EXPECT_EQ(net.stats().schedule_misses, 2);
}

TEST(Network, FreshNetworkCountsStoredShapeAsMiss) {
  // The process store holds the schedules, but the hit/miss telemetry is
  // per network: B's first sighting of a shape A already scheduled is a
  // miss, it charges identical rounds, and the store keeps one copy.
  auto superstep = [](Network& net) {
    for (int v = 0; v < 11; ++v) net.send(v, (v + 3) % 11, 6);
    net.deliver();
  };
  Network a(11);
  superstep(a);
  superstep(a);
  EXPECT_EQ(a.stats().schedule_misses, 1);
  EXPECT_EQ(a.stats().schedule_hits, 1);
  const auto stored = schedule_store().entries();
  Network b(11);
  superstep(b);
  EXPECT_EQ(b.stats().schedule_misses, 1);
  EXPECT_EQ(b.stats().schedule_hits, 0);
  EXPECT_EQ(2 * b.stats().rounds, a.stats().rounds);
  EXPECT_EQ(schedule_store().entries(), stored);
}

TEST(Network, PlannedThenDeliveredOnFreshNetworkIsHit) {
  // A shape another network already scheduled, planned on B with
  // prepare_schedule and then delivered, is a hit on B, as it is when B
  // computed the plan itself.
  std::vector<Demand> demands;
  for (int v = 0; v < 12; ++v) demands.push_back({v, (v + 5) % 12, 9});
  auto superstep = [](Network& net) {
    for (int v = 0; v < 12; ++v)
      for (int w = 0; w < 9; ++w) net.send(v, (v + 5) % 12, 1);
    net.deliver();
  };
  Network a(12);
  superstep(a);
  Network b(12);
  const auto planned = b.prepare_schedule(demands);
  EXPECT_EQ(b.stats().schedule_hits + b.stats().schedule_misses, 0);
  superstep(b);
  EXPECT_EQ(b.stats().schedule_hits, 1);
  EXPECT_EQ(b.stats().schedule_misses, 0);
  EXPECT_EQ(b.stats().rounds, planned);
  EXPECT_EQ(a.stats().rounds, planned);
}

TEST(Network, RandomRelayBypassesScheduleCache) {
  const auto stored = schedule_store().entries();
  Network net(8, Router::RandomRelay);
  for (int i = 0; i < 3; ++i) {
    net.send(0, 5, 1);
    net.send(3, 2, 4);
    net.deliver();
  }
  EXPECT_EQ(net.stats().schedule_hits, 0);
  EXPECT_EQ(net.stats().schedule_misses, 0);
  EXPECT_EQ(schedule_store().entries(), stored);
}

TEST(Network, DirectRouterBypassesScheduleCache) {
  Network net(8, Router::Direct);
  net.send(0, 5, 1);
  net.deliver();
  EXPECT_EQ(net.stats().schedule_hits + net.stats().schedule_misses, 0);
}

// ---------------------------------------------------------------------------
// Staged-span / inbox-view generation counters (the silent-relocation
// hazard: under CCA_SANITIZE the buffers are force-relocated at every bump,
// so ASan faults any span held across these points).
// ---------------------------------------------------------------------------

TEST(Network, StageGenerationAdvancesPerSourceAndOnDeliver) {
  Network net(4);
  const auto g0 = net.stage_generation(0);
  const auto g1 = net.stage_generation(1);
  (void)net.stage(0, 1, 3);  // invalidates earlier spans from src 0 only
  EXPECT_EQ(net.stage_generation(0), g0 + 1);
  EXPECT_EQ(net.stage_generation(1), g1);
  net.send(0, 2, 9);
  EXPECT_EQ(net.stage_generation(0), g0 + 2);
  const auto gi = net.inbox_generation();
  net.deliver();  // invalidates every staged span and every inbox view
  EXPECT_EQ(net.stage_generation(0), g0 + 3);
  EXPECT_EQ(net.stage_generation(1), g1 + 1);
  EXPECT_EQ(net.inbox_generation(), gi + 1);
}

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

TEST(Primitives, BroadcastAllCostsOneRound) {
  Network net(8);
  std::vector<Word> vals(8, 3);
  const auto got = broadcast_all(net, vals);
  EXPECT_EQ(got, vals);
  EXPECT_EQ(net.stats().rounds, 1);
}

TEST(Primitives, BroadcastAllSingletonFree) {
  Network net(1);
  (void)broadcast_all(net, {42});
  EXPECT_EQ(net.stats().rounds, 0);
}

TEST(Primitives, BroadcastFromCosts) {
  {
    Network net(10);
    broadcast_from(net, 0, 0);
    EXPECT_EQ(net.stats().rounds, 0);
  }
  {
    Network net(10);
    broadcast_from(net, 0, 1);
    EXPECT_EQ(net.stats().rounds, 1);
  }
  {
    Network net(10);
    broadcast_from(net, 0, 9);  // ceil(9/9) = 1 per phase
    EXPECT_EQ(net.stats().rounds, 2);
  }
  {
    Network net(10);
    broadcast_from(net, 0, 90);  // ceil(90/9) = 10 per phase
    EXPECT_EQ(net.stats().rounds, 20);
  }
  {
    // n == 2: the scatter already delivers everything to the only other
    // node — no rebroadcast phase to charge (the round-charge audit's
    // corrected drift; the seed implementation said 10).
    Network net(2);
    broadcast_from(net, 0, 5);
    EXPECT_EQ(net.stats().rounds, 5);
  }
}

TEST(Primitives, DisseminateReturnsUnionInOrder) {
  Network net(4);
  std::vector<std::vector<Word>> lists{{1, 2}, {}, {3}, {4, 5, 6}};
  const auto all = disseminate(net, lists);
  EXPECT_EQ(all, (std::vector<Word>{1, 2, 3, 4, 5, 6}));
  EXPECT_GE(net.stats().rounds, 2);  // at least counts + shares
}

TEST(Primitives, DisseminateScalesWithTotalOverN) {
  // W total words cost about 3W/n + O(1) rounds.
  const int n = 32;
  Network net(n);
  std::vector<std::vector<Word>> lists(n);
  const int per = 64;
  for (auto& l : lists) l.assign(per, 7);
  (void)disseminate(net, lists);
  const std::int64_t w = static_cast<std::int64_t>(n) * per;
  EXPECT_LE(net.stats().rounds, 4 * w / n + 10);
  EXPECT_GE(net.stats().rounds, w / n);
}

}  // namespace
}  // namespace cca::clique
