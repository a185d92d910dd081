#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace cca {

namespace {

// The generation word carries the number of helpers taking part in a
// region in its low bits (see WorkerGroup), which caps the worker count.
// The all-ones count is reserved as the shutdown signal.
constexpr int kActiveBits = 16;
constexpr std::uint64_t kActiveMask = (std::uint64_t{1} << kActiveBits) - 1;
constexpr std::uint64_t kStop = kActiveMask;
constexpr int kMaxWorkers = static_cast<int>(kStop);

}  // namespace

int parallel_workers() {
  static const int workers = [] {
    int w = 0;
    if (const char* env = std::getenv("CCA_THREADS")) w = std::atoi(env);
    if (w < 1) {
      const unsigned hw = std::thread::hardware_concurrency();
      w = hw == 0 ? 1 : static_cast<int>(hw);
    }
    return std::min(w, kMaxWorkers);
  }();
  return workers;
}

namespace {

thread_local bool t_in_parallel_region = false;
thread_local std::uint64_t t_region_epoch = 0;

std::uint64_t next_region_epoch() noexcept {
  // Monotone nonzero epochs, one per parallel_for invocation. Relaxed is
  // enough: the value is only compared for equality, and it reaches the
  // helpers as a region field published by the generation bump.
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// RAII marker for the duration of one chunk execution. Saves and restores
/// the prior values so a nested parallel_for (including the serial
/// fallback) does not clear the flag/epoch for the remainder of the
/// enclosing chunk.
struct RegionMark {
  explicit RegionMark(std::uint64_t epoch) noexcept
      : prior_in(t_in_parallel_region), prior_epoch(t_region_epoch) {
    t_in_parallel_region = true;
    t_region_epoch = epoch;
  }
  ~RegionMark() noexcept {
    t_in_parallel_region = prior_in;
    t_region_epoch = prior_epoch;
  }
  bool prior_in;
  std::uint64_t prior_epoch;
};

using Chunk = std::function<void(int, int)>;

/// First index of block `w` when [begin, begin + count) is split into
/// `workers` blocks whose lengths differ by at most one (longer first).
int block_start(int begin, int count, int workers, int w) noexcept {
  return begin + w * (count / workers) + std::min(w, count % workers);
}

void run_block(const Chunk& chunk, std::uint64_t epoch, int b, int e) {
  const RegionMark mark(epoch);
  chunk(b, e);
}

/// Busy-wait hint: lets the sibling hyperthread run while a thread spins.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spin iterations before a waiter parks on the futex: about 100 us of
/// pause instructions on a Skylake-class Xeon, less on CPUs with a
/// shorter pause. Long enough to cover the serial gap between the
/// back-to-back regions of a superstep loop, short enough that an idle
/// group stops burning cores almost at once.
constexpr int kSpinIterations = 1 << 12;

/// Waits until `word` no longer holds `old` and returns its new value:
/// spins first, then parks on the word (std::atomic::wait, a futex on
/// Linux). Acquire, so the waker's writes before its release store are
/// visible on return.
template <typename T>
T await_change(const std::atomic<T>& word, T old) noexcept {
  for (int i = 0; i < kSpinIterations; ++i) {
    const T v = word.load(std::memory_order_acquire);
    if (v != old) return v;
    cpu_relax();
  }
  for (;;) {
    word.wait(old, std::memory_order_acquire);
    const T v = word.load(std::memory_order_acquire);
    if (v != old) return v;
  }
}

/// The persistent helper threads behind parallel_for: parallel_workers()-1
/// of them, started on the first multi-worker call and parked between
/// regions. One region runs on the group at a time; its caller runs block
/// 0 and helper h runs block h.
///
/// Happens-before audit (the TSan contract of the worker group):
///  * Region entry. A caller takes the group by flipping `busy_` with
///    acquire; it was released with release order by the previous
///    region's caller after every helper of that region had finished, so
///    the new caller's writes to the region fields cannot race with any
///    helper's reads of the previous region's fields.
///  * Fork. The caller writes the region fields (chunk, epoch, begin,
///    count) and `pending_` with plain/relaxed stores, then publishes them
///    by a release store of `generation_`. A helper returns from
///    await_change with an acquire load of that value, so the fields and
///    every write the caller made before parallel_for are visible to it.
///  * Who reads the fields. `generation_` holds a sequence number in its
///    high 48 bits and the number of active helpers in its low bits, so a
///    helper learns whether it has a block from the word itself. A helper
///    without a block (count < workers) reads no region field at all: it
///    goes back to waiting, and the next caller may overwrite the fields
///    at any time without racing with it. A helper may miss generations
///    in which it has no block; it waits for the word to differ from the
///    last value it saw, and 48 bits of sequence cannot come back to that
///    value within any run. The shutdown value (count kStop) is never a
///    region's.
///  * Disjoint writes. Helpers write only their own index blocks (the
///    documented fn contract), so no two threads touch the same location
///    while the region runs.
///  * Join. Each active helper counts `pending_` down with acq_rel after
///    its block, and the caller waits for zero with acquire loads, so all
///    helper writes, `error_` included, are visible to the caller before
///    parallel_for returns. The caller waits even when its own block
///    throws (the helpers hold a reference to the chunk), then rethrows.
///    Helpers record the first exception of their blocks in `error_`
///    under `error_mu_`; the caller rethrows it after the countdown.
///  * Shutdown. The destructor stores the kStop count into the generation
///    word and joins every helper; each helper exits when it sees it.
///  * Region bookkeeping (t_in_parallel_region / t_region_epoch) is
///    thread_local, and the epoch/token counters are atomics.
class WorkerGroup {
 public:
  explicit WorkerGroup(int helpers) {
    threads_.reserve(static_cast<std::size_t>(helpers));
    try {
      for (int h = 1; h <= helpers; ++h)
        threads_.emplace_back([this, h] { helper_loop(h); });
    } catch (...) {
      stop();  // join the helpers already started
      throw;
    }
  }

  ~WorkerGroup() { stop(); }

  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  /// Runs chunk over [begin, begin + count) in `workers` blocks on this
  /// group. Returns false without running anything when another region
  /// holds the group (a concurrent caller); the caller then runs inline.
  bool try_run(int begin, int count, int workers, std::uint64_t epoch,
               const Chunk& chunk) {
    if (busy_.exchange(true, std::memory_order_acquire)) return false;
    const auto active = static_cast<std::uint64_t>(workers - 1);
    chunk_ = &chunk;
    epoch_ = epoch;
    begin_ = begin;
    count_ = count;
    pending_.store(active, std::memory_order_relaxed);
    const std::uint64_t seq =
        (generation_.load(std::memory_order_relaxed) & ~kActiveMask) +
        (kActiveMask + 1);
    generation_.store(seq | active, std::memory_order_release);
    generation_.notify_all();
    try {
      run_block(chunk, epoch, begin, block_start(begin, count, workers, 1));
    } catch (...) {
      (void)finish();  // the caller's own exception wins
      throw;
    }
    if (std::exception_ptr error = finish()) std::rethrow_exception(error);
    return true;
  }

 private:
  void stop() noexcept {
    generation_.fetch_or(kStop, std::memory_order_release);
    generation_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Waits for the region's helpers, frees the group, and returns the
  /// first exception a helper's block threw (null if none).
  std::exception_ptr finish() noexcept {
    for (std::uint32_t left = pending_.load(std::memory_order_acquire);
         left != 0; left = await_change(pending_, left)) {
    }
    std::exception_ptr error = std::exchange(error_, nullptr);
    busy_.store(false, std::memory_order_release);
    return error;
  }

  void helper_loop(int h) noexcept {
    // The value the word had when the group was built, not a fresh load:
    // the first region may be published before this thread runs.
    std::uint64_t seen = 0;
    for (;;) {
      seen = await_change(generation_, seen);
      if ((seen & kActiveMask) == kStop) return;
      const int workers = static_cast<int>(seen & kActiveMask) + 1;
      if (h >= workers) continue;  // no block: touch no region field
      try {
        run_block(*chunk_, epoch_, block_start(begin_, count_, workers, h),
                  block_start(begin_, count_, workers, h + 1));
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu_);
        if (!error_) error_ = std::current_exception();
      }
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        pending_.notify_one();
    }
  }

  // The generation word and the region fields share a cache line, which
  // a helper then fetches once per region; the countdown, written by every
  // helper, sits on its own line.
  alignas(64) std::atomic<std::uint64_t> generation_{0};
  // Region fields: written by the caller that holds busy_, read by active
  // helpers after the generation bump (see the audit above).
  const Chunk* chunk_ = nullptr;
  std::uint64_t epoch_ = 0;
  int begin_ = 0;
  int count_ = 0;
  alignas(64) std::atomic<std::uint32_t> pending_{0};
  std::atomic<bool> busy_{false};
  // First exception thrown by a helper's block in the running region;
  // read by the caller after the countdown.
  std::mutex error_mu_;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

WorkerGroup& worker_group() {
  static WorkerGroup group(parallel_workers() - 1);
  return group;
}

}  // namespace

bool in_parallel_region() noexcept { return t_in_parallel_region; }

std::uint64_t parallel_region_epoch() noexcept {
  return t_in_parallel_region ? t_region_epoch : 0;
}

std::uint32_t thread_token() noexcept {
  static std::atomic<std::uint32_t> counter{0};
  thread_local const std::uint32_t token =
      counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return token;
}

namespace detail {

void parallel_for_impl(int begin, int end, const Chunk& chunk) {
  const int count = end - begin;
  if (count <= 0) return;
  const int workers = std::min(parallel_workers(), count);
  const std::uint64_t epoch = next_region_epoch();
  // Single block, nested call (the group is already serving the region
  // this thread belongs to), or a second concurrent caller: run inline.
  if (workers <= 1 || t_in_parallel_region ||
      !worker_group().try_run(begin, count, workers, epoch, chunk))
    run_block(chunk, epoch, begin, end);
}

}  // namespace detail

}  // namespace cca
