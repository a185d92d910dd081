#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "harness.hpp"

namespace perfbench {

using cca::clique::DeliverySummary;
using cca::clique::Demand;
using cca::clique::NodeId;
using cca::clique::NodeSpan;
using cca::clique::StagedPair;
using cca::clique::Transport;
using cca::clique::Word;

Tracer::Tracer(int rank, std::size_t max_spans)
    : rank_(rank), max_spans_(max_spans) {
  spans_.reserve(max_spans_);
}

void Tracer::begin_instance(std::int64_t id) {
  open_id_ = id;
  open_start_ = now_ns();
  if (spans_.size() < max_spans_) {
    open_ = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({"instance", open_start_, open_start_, -1, id});
  } else {
    open_ = -1;
    ++dropped_;
  }
}

void Tracer::end_instance() {
  if (open_ >= 0) spans_[static_cast<std::size_t>(open_)].end_ns = now_ns();
  open_ = -1;
  open_id_ = -1;
}

void Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  if (open_ < 0 || spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, start_ns, end_ns, open_, open_id_});
}

namespace {

/// Forwards every operation to the wrapped backend; times deliver() and the
/// uncharged side channel, and counts deliveries and delivered words. It
/// changes nothing the accounting layer sees.
class TracingTransport final : public Transport {
 public:
  TracingTransport(std::unique_ptr<Transport> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] int n() const noexcept override { return inner_->n(); }
  void send(NodeId src, NodeId dst, Word w) override { inner_->send(src, dst, w); }
  void send_words(NodeId src, NodeId dst, std::span<const Word> ws) override {
    inner_->send_words(src, dst, ws);
  }
  [[nodiscard]] std::span<Word> stage(NodeId src, NodeId dst,
                                      std::size_t nwords) override {
    return inner_->stage(src, dst, nwords);
  }
  [[nodiscard]] std::vector<StagedPair> staged_snapshot() const override {
    return inner_->staged_snapshot();
  }
  [[nodiscard]] std::vector<Demand> staged_meta() override {
    return inner_->staged_meta();
  }
  void discard_staged() override { inner_->discard_staged(); }

  DeliverySummary deliver() override {
    const std::int64_t t0 = now_ns();
    DeliverySummary s = inner_->deliver();
    const std::int64_t t1 = now_ns();
    tracer_.counters.deliver_ns += t1 - t0;
    tracer_.counters.delivers += 1;
    tracer_.counters.words += s.total_words;
    tracer_.add("clique.transport.deliver", t0, t1);
    return s;
  }

  [[nodiscard]] std::span<const Word> inbox(NodeId dst, NodeId src) const override {
    return inner_->inbox(dst, src);
  }
  [[nodiscard]] std::vector<Word> take_inbox(NodeId dst, NodeId src) override {
    return inner_->take_inbox(dst, src);
  }
  [[nodiscard]] std::uint64_t stage_generation(NodeId src) const override {
    return inner_->stage_generation(src);
  }
  [[nodiscard]] std::uint64_t inbox_generation() const noexcept override {
    return inner_->inbox_generation();
  }
  [[nodiscard]] NodeSpan owned() const noexcept override { return inner_->owned(); }

  void allgather_blocks(std::span<Word> data,
                        std::span<const std::size_t> offsets) override {
    const std::int64_t t0 = now_ns();
    inner_->allgather_blocks(data, offsets);
    const std::int64_t t1 = now_ns();
    tracer_.counters.sidechannel_ns += t1 - t0;
    tracer_.add("clique.transport.allgather", t0, t1);
  }

 private:
  std::unique_ptr<Transport> inner_;
  Tracer& tracer_;
};

}  // namespace

cca::clique::TransportScope::Factory traced_factory(
    cca::clique::TransportScope::Factory inner, Tracer& tracer) {
  return [inner = std::move(inner), &tracer](int n) -> std::unique_ptr<Transport> {
    return std::make_unique<TracingTransport>(inner(n), tracer);
  };
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        const std::string& meta) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::int64_t origin = -1;
  for (const Tracer* t : tracers)
    for (const Span& s : t->spans())
      if (origin < 0 || s.start_ns < origin) origin = s.start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << meta
      << ",\"traceEvents\":[";
  bool first = true;
  char buf[384];
  for (const Tracer* t : tracers) {
    for (std::size_t i = 0; i < t->spans().size(); ++i) {
      const Span& s = t->spans()[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"instance\":%lld,"
                    "\"span\":%zu,\"parent\":%lld}}",
                    first ? "" : ",", s.name, t->rank(),
                    static_cast<double>(s.start_ns - origin) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                    static_cast<long long>(s.instance), i,
                    static_cast<long long>(s.parent));
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
