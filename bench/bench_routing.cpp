// Routing substrate benchmark: the executable counterparts of Lenzen's
// O(1) routing theorem [46] and Dolev et al.'s oblivious routing
// [24, Lemma 1], which every algorithm in this repository builds on.
//
// `--json` writes BENCH_routing.json: the SCHEDULER-WALL series — host
// nanoseconds spent computing one relay schedule from scratch (no cache)
// for the exact Euler split run serially (split_tasks = 1), the exact
// split run as 4 parallel subtree tasks, and the greedy first-fit
// colouring. The exact-serial and exact-tasks4 rows must carry IDENTICAL
// rounds (the split is bit-identical for every task count — the property
// tests/test_routing.cpp pins per class); scripts/bench_compare.py gates
// both rows against the committed baseline, so a CI machine with any core
// count re-proves the identity on every run. The greedy rows document the
// <= 2x round bound's measured slack. `--smoke` restricts to tiny sizes.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "clique/routing.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace cca;
using namespace cca::clique;

/// Balanced Lenzen instance: every node sends `load` words to every other.
std::vector<Demand> balanced(int n, std::int64_t load_per_pair) {
  std::vector<Demand> out;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d)
      if (s != d) out.push_back({s, d, load_per_pair});
  return out;
}

/// Skewed instance: node 0 floods half the clique.
std::vector<Demand> skewed(int n, std::int64_t words) {
  std::vector<Demand> out;
  for (int d = 1; d <= n / 2; ++d) out.push_back({0, d, words});
  return out;
}

/// Ragged instance in deliver()'s canonical (src, dst)-ascending order:
/// ~16 destinations per source with word counts spread over [1, 32] — the
/// degree/width profile of the sparse engine's distribute and contribute
/// phases, which is where the scheduler wall is actually spent in the
/// APSP / girth workloads (uniform instances split too easily to stress
/// the Euler recursion).
std::vector<Demand> ragged(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Demand> out;
  for (int s = 0; s < n; ++s) {
    const int deg = 8 + static_cast<int>(rng.next_below(17));
    std::vector<int> dsts;
    for (int i = 0; i < deg; ++i) {
      int d = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      if (d == s) d = (d + 1) % n;
      dsts.push_back(d);
    }
    std::sort(dsts.begin(), dsts.end());
    dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());
    for (const int d : dsts) out.push_back({s, d, rng.next_in(1, 32)});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  cca::bench::JsonReport json("routing", argc, argv);
  const bool smoke = cca::bench::has_flag(argc, argv, "--smoke");

  cca::bench::print_header(
      "Scheduler wall-clock on ragged instances (~16 dsts/src, 1-32 words): "
      "exact Euler split serial vs 4-task vs greedy first-fit");
  std::printf("  workers=%d (CCA_THREADS overrides)\n", parallel_workers());
  std::printf("  %5s  %10s  %12s  %12s  %12s  %7s  %7s\n", "n", "demands",
              "serial ms", "tasks4 ms", "greedy ms", "rounds", "greedy");
  const std::vector<int> sizes = smoke ? std::vector<int>{27, 64}
                                       : std::vector<int>{64, 125, 216, 343,
                                                          512};
  for (const int n : sizes) {
    const auto d = ragged(n, 13 + static_cast<std::uint64_t>(n));
    const auto [serial, wall_serial] =
        cca::bench::time_row([&] { return schedule_koenig_relay(n, d, 1); });
    const auto [tasks4, wall_tasks4] =
        cca::bench::time_row([&] { return schedule_koenig_relay(n, d, 4); });
    const auto [greedy, wall_greedy] =
        cca::bench::time_row([&] { return schedule_greedy_relay(n, d); });
    if (serial.rounds != tasks4.rounds || serial.classes != tasks4.classes) {
      std::fprintf(stderr,
                   "FATAL: parallel split diverged at n=%d (serial %lld "
                   "rounds, tasks4 %lld)\n",
                   n, static_cast<long long>(serial.rounds),
                   static_cast<long long>(tasks4.rounds));
      return 1;
    }
    json.add("sched_exact_serial", n, serial.rounds, wall_serial);
    json.add("sched_exact_tasks4", n, tasks4.rounds, wall_tasks4);
    json.add("sched_greedy", n, greedy.rounds, wall_greedy);
    std::printf("  %5d  %10zu  %12.3f  %12.3f  %12.3f  %7lld  %7lld\n", n,
                d.size(), static_cast<double>(wall_serial) * 1e-6,
                static_cast<double>(wall_tasks4) * 1e-6,
                static_cast<double>(wall_greedy) * 1e-6,
                static_cast<long long>(serial.rounds),
                static_cast<long long>(greedy.rounds));
  }
  std::printf("(exact-serial and exact-tasks4 rounds are bit-identical by "
              "construction — the bench aborts otherwise; greedy rounds are "
              "bounded by 2x the optimum, so at most ~2x the exact rows)\n");

  cca::bench::print_header(
      "Lenzen-balanced instances (n words in/out per node): rounds must be "
      "O(1) in n");
  std::printf("%-8s %-10s %-10s %-10s %-10s %-10s\n", "n", "direct", "hash",
              "random", "koenig", "greedy");
  Rng rng(42);
  for (const int n : {16, 32, 64, 128, 256}) {
    const auto d = balanced(n, 1);
    std::printf("%-8d %-10lld %-10lld %-10lld %-10lld %-10lld\n", n,
                static_cast<long long>(rounds_direct(n, d)),
                static_cast<long long>(rounds_hash_relay(n, d)),
                static_cast<long long>(rounds_random_relay(n, d, rng)),
                static_cast<long long>(rounds_koenig_relay(n, d)),
                static_cast<long long>(rounds_greedy_relay(n, d)));
  }

  cca::bench::print_header(
      "Load sweep at n = 64 (k words per ordered pair): relays scale with "
      "k, direct with k too (already balanced)");
  std::printf("%-8s %-10s %-10s %-10s\n", "k", "direct", "hash", "koenig");
  for (const std::int64_t k : {1, 2, 4, 8, 16}) {
    const auto d = balanced(64, k);
    std::printf("%-8lld %-10lld %-10lld %-10lld\n", static_cast<long long>(k),
                static_cast<long long>(rounds_direct(64, d)),
                static_cast<long long>(rounds_hash_relay(64, d)),
                static_cast<long long>(rounds_koenig_relay(64, d)));
  }

  cca::bench::print_header(
      "Skewed instances (node 0 sends n words to each of n/2 receivers): "
      "relays beat direct by ~n/2");
  std::printf("%-8s %-10s %-10s %-10s %-12s\n", "n", "direct", "hash",
              "koenig", "lower bound");
  for (const int n : {32, 64, 128, 256}) {
    const auto d = skewed(n, n);
    const auto lower = static_cast<long long>(n) * (n / 2) / n;
    std::printf("%-8d %-10lld %-10lld %-10lld %-12lld\n", n,
                static_cast<long long>(rounds_direct(n, d)),
                static_cast<long long>(rounds_hash_relay(n, d)),
                static_cast<long long>(rounds_koenig_relay(n, d)), lower);
  }
  std::printf("\nkoenig = Euler-split edge colouring (constructive Koenig "
              "decomposition): deterministic, within a small constant of the "
              "per-node lower bound on every instance.\n");
  json.note(
      "scheduler-wall series (PR 6): wall columns are min-of-3 fresh "
      "schedule computations (no cache). sched_exact_serial and "
      "sched_exact_tasks4 must stay round-identical — the parallel Euler "
      "split's colour classes are bit-identical for every task count; the "
      "committed baseline machine is single-core, so the tasks4 wall shows "
      "task-management overhead, not speedup (multi-core CI runs see the "
      "speedup; the gate checks rounds equality and wall blowout only). "
      "sched_greedy documents the measured slack under the <= 2x first-fit "
      "bound for an O(words) scheduling pass.");
  json.write();
  return 0;
}
