// Runtime concurrency & lifetime contract instrumentation.
//
// The data plane rests on contracts that asserts alone state but cannot
// localise: the per-source staging ownership invariant (network.hpp
// "Thread-safety invariant"), the single-threadedness of phase changes
// (deliver / discard_staged), and the span-validity windows around
// stage()/deliver(). This header turns them into machine-checked ones:
//
//  * ContractKind / Violation / Report — a process-global, thread-safe
//    violation log. Every detected violation is recorded (which contract,
//    which src/dst, which superstep) BEFORE the fault is raised through
//    the typed cca::ContractViolation path (contracts.hpp), so a service
//    in ContractFailureMode::Throw gets a catchable typed error AND a
//    queryable report, while the default Abort mode dies at the violation
//    site with the same formatted diagnostic.
//
//  * StagingTracker — per-Network ownership checker. Records the staging
//    thread per source and faults on cross-source staging from a parallel
//    region (one source staged by two distinct threads of one
//    cca::parallel_for epoch — the detectable signature of an iteration
//    staging outside its own src) and on deliver()/discard_staged()
//    executed inside a parallel region.
//
//  * StagedLease / InboxLease — generation-validated span wrappers. Every
//    access revalidates against Network::stage_generation(src) /
//    inbox_generation(), so a span used across its invalidation point (a
//    same-source staging call, or deliver()) faults with a typed
//    StaleStagedSpan / StaleInboxSpan violation at the USE site instead
//    of silently aliasing relocated memory. This is the portable,
//    always-on counterpart of the CCA_SANITIZE poison relocation.
//
// Cost model: checking is a process-global runtime toggle
// (analysis::set_checking / ScopedChecking). A CCA_CHECKED build only
// changes the DEFAULT to on, so the full suite runs checked in the CI
// analysis legs while plain builds pay one relaxed atomic load per
// staging call — no rounds, words, schedules, or message bytes ever
// depend on the toggle, keeping every pinned TrafficStats row
// bit-identical by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace cca::analysis {

/// The machine-checked contracts. Names match the prose contracts in
/// network.hpp / transport.hpp.
enum class ContractKind {
  /// One source staged by two distinct threads within one parallel_for
  /// epoch (per-source outbox exclusivity).
  CrossSourceStaging,
  /// deliver() / discard_staged() invoked from inside a parallel region.
  DeliverInParallel,
  /// A staged span accessed after its source's stage generation moved.
  StaleStagedSpan,
  /// An inbox view accessed after deliver() rebuilt the arena.
  StaleInboxSpan,
  /// A staging thread's thread_token() does not fit the StagingTracker
  /// owner slot, so the checker could no longer tell its threads apart.
  OwnerTokenOverflow,
};

[[nodiscard]] constexpr const char* contract_name(ContractKind k) noexcept {
  switch (k) {
    case ContractKind::CrossSourceStaging: return "cross-source-staging";
    case ContractKind::DeliverInParallel: return "deliver-in-parallel";
    case ContractKind::StaleStagedSpan: return "stale-staged-span";
    case ContractKind::StaleInboxSpan: return "stale-inbox-span";
    case ContractKind::OwnerTokenOverflow: return "owner-token-overflow";
  }
  return "unknown-contract";
}

/// One detected violation: which contract, which pair, which superstep
/// (deliveries completed on the offending network when it fired; -1 when
/// the site has no network context).
struct Violation {
  ContractKind kind = ContractKind::CrossSourceStaging;
  int src = -1;
  int dst = -1;
  std::int64_t superstep = -1;
  std::string detail;  ///< formatted site diagnostics (threads, epochs, ...)
};

/// Process-global violation log. Thread-safe; recording is cheap enough
/// for the failure path (violations are by definition exceptional).
class Report {
 public:
  [[nodiscard]] static Report& instance() {
    static Report r;
    return r;
  }

  void record(const Violation& v) {
    const std::lock_guard<std::mutex> lock(mu_);
    violations_.push_back(v);
  }

  [[nodiscard]] std::vector<Violation> violations() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return violations_;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return violations_.size();
  }

  [[nodiscard]] std::size_t count(ContractKind k) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t c = 0;
    for (const auto& v : violations_)
      if (v.kind == k) ++c;
    return c;
  }

  /// Drop every recorded violation AND any pending deferred raise.
  void clear();

  /// Human-readable report, one violation per line.
  [[nodiscard]] std::string to_string() const;

 private:
  mutable std::mutex mu_;
  std::vector<Violation> violations_;
};

namespace detail {

inline std::atomic<bool>& checking_flag() noexcept {
#ifdef CCA_CHECKED
  static std::atomic<bool> on{true};
#else
  static std::atomic<bool> on{false};
#endif
  return on;
}

}  // namespace detail

/// Whether the instrumented checkers are active. Defaults to on in
/// CCA_CHECKED builds, off otherwise; runtime-overridable either way so
/// the checker's own tests run in every build configuration.
[[nodiscard]] inline bool checking_enabled() noexcept {
  return detail::checking_flag().load(std::memory_order_relaxed);
}

inline void set_checking(bool on) noexcept {
  detail::checking_flag().store(on, std::memory_order_relaxed);
}

/// RAII checking toggle (tests; scoped hardening of a service region).
class ScopedChecking {
 public:
  explicit ScopedChecking(bool on = true) noexcept
      : prior_(checking_enabled()) {
    set_checking(on);
  }
  ~ScopedChecking() noexcept { set_checking(prior_); }
  ScopedChecking(const ScopedChecking&) = delete;
  ScopedChecking& operator=(const ScopedChecking&) = delete;

 private:
  bool prior_;
};

/// Record the violation, then raise it through the typed contract path.
/// In ContractFailureMode::Abort (the default): formatted diagnostic +
/// abort at the violation site, from any thread. In Throw mode: throws
/// cca::ContractViolation immediately when that is safe — outside
/// parallel regions, and for DeliverInParallel (where proceeding would
/// race the phase change) — but a violation detected INSIDE a
/// parallel_for chunk is deferred: throwing there would abandon the rest
/// of the block mid-staging, so the violation is recorded, flagged
/// pending, and rethrown from the next serial checkpoint (the next deliver /
/// discard_staged / serial staging call, or an explicit raise_pending()).
/// The report entry always carries the exact detection site either way.
void fail(Violation v);

/// Throw the deferred cca::ContractViolation, if one is pending. Called
/// by the tracker's serial checkpoints; callers driving the network
/// manually after a parallel region may also poll it directly.
void raise_pending();

/// Whether a deferred violation is waiting to be raised.
[[nodiscard]] bool has_pending() noexcept;

/// Per-Network staging-ownership checker. All methods are no-ops while
/// checking is disabled. Thread-safety: on_stage may run concurrently
/// from staging threads (the slots are relaxed atomics — the checker must
/// itself be TSan-clean); on_deliver runs from the delivering thread.
class StagingTracker {
 public:
  StagingTracker() = default;
  explicit StagingTracker(int n) { resize(n); }

  void resize(int n) {
    slots_ = std::vector<Slot>(static_cast<std::size_t>(n < 0 ? 0 : n));
  }

  /// Hook for every staging operation (send / send_words / stage) for
  /// `src`. Faults CrossSourceStaging if another thread already staged
  /// for `src` within the current parallel_for epoch. `superstep` is the
  /// report coordinate (deliveries completed on the owning network).
  void on_stage(int src, std::int64_t superstep) {
    if (!checking_enabled()) return;
    check_stage(src, superstep);
  }

  /// Hook for deliver()/discard_staged(): faults DeliverInParallel when
  /// called inside a parallel region. `what` names the operation.
  void on_phase_change(const char* what, std::int64_t superstep) {
    if (!checking_enabled()) return;
    check_phase_change(what, superstep);
  }

  /// Low bits of an owner token that hold the thread token.
  static constexpr int kThreadBits = 20;

  /// Owner token (epoch << kThreadBits) | thread for a slot. The epoch in
  /// the high bits means tokens from different regions never compare
  /// equal. A thread token that does not fit kThreadBits (the process
  /// minted over a million of them) faults OwnerTokenOverflow for `src`
  /// and yields 0, which leaves the slot unchecked.
  static std::uint64_t owner_token(std::uint64_t epoch, std::uint32_t thread,
                                   int src, std::int64_t superstep);

 private:
  // Owner token per source (owner_token); 0 = unclaimed / last staged
  // serially.
  struct Slot {
    std::atomic<std::uint64_t> owner{0};
  };

  void check_stage(int src, std::int64_t superstep);
  void check_phase_change(const char* what, std::int64_t superstep);

  std::vector<Slot> slots_;
};

/// Generation-validated wrapper over Net::stage(): every access checks
/// that src's stage generation still matches the acquisition point, so a
/// lease used after a same-source staging call or deliver() faults with a
/// typed StaleStagedSpan at the use site. Net is a template parameter
/// only to keep util/ below clique/ in the layering; it is
/// clique::Network in practice.
template <typename Net>
class StagedLease {
 public:
  StagedLease(Net& net, int src, int dst, std::size_t nwords)
      : net_(&net),
        src_(src),
        dst_(dst),
        span_(net.stage(src, dst, nwords)),
        gen_(net.stage_generation(src)) {}

  /// The staged words; faults if the lease went stale.
  [[nodiscard]] std::span<std::uint64_t> span() const {
    validate();
    return span_;
  }

  [[nodiscard]] bool stale() const {
    return net_->stage_generation(src_) != gen_;
  }

 private:
  void validate() const {
    if (!stale()) return;
    fail({ContractKind::StaleStagedSpan, src_, dst_,
          net_->stats().supersteps,
          "staged span acquired at generation " + std::to_string(gen_) +
              " used at generation " +
              std::to_string(net_->stage_generation(src_))});
  }

  Net* net_;
  int src_;
  int dst_;
  std::span<std::uint64_t> span_;
  std::uint64_t gen_;
};

/// Generation-validated wrapper over Net::inbox(): every access checks
/// the network-wide inbox generation, so a view held across deliver()
/// faults with a typed StaleInboxSpan at the use site.
template <typename Net>
class InboxLease {
 public:
  InboxLease(const Net& net, int dst, int src)
      : net_(&net),
        dst_(dst),
        src_(src),
        span_(net.inbox(dst, src)),
        gen_(net.inbox_generation()) {}

  [[nodiscard]] std::span<const std::uint64_t> span() const {
    validate();
    return span_;
  }

  [[nodiscard]] bool stale() const {
    return net_->inbox_generation() != gen_;
  }

 private:
  void validate() const {
    if (!stale()) return;
    fail({ContractKind::StaleInboxSpan, src_, dst_,
          net_->stats().supersteps,
          "inbox view acquired at generation " + std::to_string(gen_) +
              " used at generation " +
              std::to_string(net_->inbox_generation())});
  }

  const Net* net_;
  int dst_;
  int src_;
  std::span<const std::uint64_t> span_;
  std::uint64_t gen_;
};

}  // namespace cca::analysis
