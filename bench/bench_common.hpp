// Shared helpers for the Table 1 benchmark binaries.
//
// Every bench prints paper-style tables: a sweep of clique sizes with the
// measured round counts, followed by a log-log exponent fit compared with
// the paper's asymptotic bound. Round counts come from the simulator's
// exact schedule accounting (see src/clique/), never from formulas.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "clique/routing.hpp"
#include "util/fit.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

// The CMake configuration the bench binaries were built in (set per target
// by CMakeLists.txt); recorded in every BENCH_*.json.
#ifndef CCA_BUILD_TYPE
#define CCA_BUILD_TYPE "unknown"
#endif

namespace cca::bench {

/// Monotonic nanosecond timestamp for wall-clock measurements.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Timed repeats behind every BENCH row's wall column.
inline constexpr int kRepeats = 3;

/// Median of kRepeats calls of `repeat`, each of which performs one timed
/// repeat and returns its wall-clock ns. One slow spell on a shared host
/// moves one repeat, not the row.
template <typename Repeat>
std::int64_t median_wall_ns(Repeat&& repeat) {
  std::array<std::int64_t, kRepeats> walls{};
  for (auto& wall : walls) wall = repeat();
  std::sort(walls.begin(), walls.end());
  return walls[kRepeats / 2];
}

/// Time `fn` as one BENCH row: kRepeats calls, each after emptying the
/// process schedule store (clique::schedule_store()), so every repeat pays
/// the cold relay scheduling a fresh process would. Returns the last
/// call's result and the median wall-clock ns.
template <typename Fn>
auto time_row(Fn&& fn) {
  std::optional<std::invoke_result_t<Fn&>> result;
  const auto wall = median_wall_ns([&] {
    result.reset();
    clique::schedule_store().clear();
    const auto t0 = now_ns();
    result.emplace(fn());
    return now_ns() - t0;
  });
  return std::pair{std::move(*result), wall};
}

/// Machine-readable perf record, opt-in via `--json` on any bench binary.
/// Collected rows are written to BENCH_<name>.json in the working directory
/// so the perf trajectory across PRs can be diffed and plotted. The file
/// also records the machine configuration the rows were measured in:
/// `threads` (parallel_workers()), `hw_cores` (hardware concurrency) and
/// `build_type`, so a comparison can tell like from unlike.
class JsonReport {
 public:
  JsonReport(const std::string& name, int argc, char** argv) : name_(name) {
    for (int i = 1; i < argc; ++i)
      if (std::string(argv[i]) == "--json") enabled_ = true;
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record one measured configuration: the clique (padded) size, the exact
  /// simulated rounds, and the measured wall-clock per operation (the
  /// median of kRepeats, as time_row and median_wall_ns measure it).
  void add(const std::string& label, long long clique_n, long long rounds,
           std::int64_t wall_ns_per_op) {
    rows_.push_back({label, clique_n, rounds, wall_ns_per_op});
  }

  /// Attach a free-form finding to the report (written as a "notes" array);
  /// used to record profiling conclusions next to the numbers they explain.
  void note(std::string text) { notes_.push_back(std::move(text)); }

  /// Write BENCH_<name>.json (no-op unless --json was passed).
  void write() const {
    if (!enabled_) return;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"threads\": %d,\n"
                 "  \"hw_cores\": %u,\n  \"build_type\": \"%s\",\n"
                 "  \"rows\": [\n",
                 name_.c_str(), parallel_workers(),
                 std::thread::hardware_concurrency(), CCA_BUILD_TYPE);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const auto& r = rows_[i];
      std::fprintf(f,
                   "    {\"label\": \"%s\", \"clique_n\": %lld, "
                   "\"rounds\": %lld, \"wall_ns_per_op\": %lld}%s\n",
                   r.label.c_str(), r.clique_n, r.rounds,
                   static_cast<long long>(r.wall_ns_per_op),
                   i + 1 < rows_.size() ? "," : "");
    }
    if (notes_.empty()) {
      std::fprintf(f, "  ]\n}\n");
    } else {
      std::fprintf(f, "  ],\n  \"notes\": [\n");
      for (std::size_t i = 0; i < notes_.size(); ++i) {
        std::string escaped;
        for (const char c : notes_[i]) {
          if (c == '"' || c == '\\') escaped.push_back('\\');
          escaped.push_back(c);
        }
        std::fprintf(f, "    \"%s\"%s\n", escaped.c_str(),
                     i + 1 < notes_.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
    }
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  struct Row {
    std::string label;
    long long clique_n;
    long long rounds;
    std::int64_t wall_ns_per_op;
  };
  std::string name_;
  bool enabled_ = false;
  std::vector<Row> rows_;
  std::vector<std::string> notes_;
};

/// True when `flag` (e.g. "--steps") was passed on the command line.
inline bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == flag) return true;
  return false;
}

struct Series {
  std::string name;
  std::vector<double> n;
  std::vector<double> rounds;

  void add(double n_value, double rounds_value) {
    n.push_back(n_value);
    rounds.push_back(rounds_value);
  }
};

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Print a fitted exponent line: "name: rounds ~ a * n^c (R^2) vs paper n^p".
inline void print_fit(const Series& s, const std::string& paper_bound) {
  if (s.n.size() < 2) return;
  const auto f = fit_power_law(s.n, s.rounds);
  std::printf("%-28s measured rounds ~ %.2f * n^%.3f  (R^2 = %.3f)   paper: %s\n",
              s.name.c_str(), f.coefficient, f.exponent, f.r_squared,
              paper_bound.c_str());
}

/// Print several series against a shared n column.
inline void print_series_table(const std::vector<Series>& series) {
  if (series.empty() || series[0].n.empty()) return;
  std::vector<std::string> headers{"n"};
  for (const auto& s : series) headers.push_back(s.name + " rounds");
  Table t(headers);
  for (std::size_t i = 0; i < series[0].n.size(); ++i) {
    std::vector<std::string> row{fmt_int(static_cast<long long>(series[0].n[i]))};
    for (const auto& s : series)
      row.push_back(i < s.rounds.size()
                        ? fmt_int(static_cast<long long>(s.rounds[i]))
                        : "-");
    t.add_row(std::move(row));
  }
  std::fputs(t.to_string().c_str(), stdout);
}

}  // namespace cca::bench
