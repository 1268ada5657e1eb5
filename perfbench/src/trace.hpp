// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (the library itself is not instrumented).
// Each span carries its name ("<module>.<stage>"), start and end on the
// steady clock, the span that was open when it started (its parent), the
// operation id current at the time, and the run phase it belongs to. With
// tracing off, span() returns an inert guard and nothing is recorded.
//
// At exit the spans are written as Chrome Trace Event JSON (open the file
// in https://ui.perfetto.dev or chrome://tracing) and folded into per-layer
// totals: a span's time is summed under its name, and its self time (the
// part of its interval no child span covers) under its module.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start);

/// Which part of a run a span or counter belongs to. Per-layer figures
/// divide round spans by the number of rounds and count the others once.
enum class Phase : std::uint8_t { kSetup, kRound, kReference };

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_phase(Phase phase) { phase_ = phase; }
  void set_op(std::uint64_t op) { op_ = op; }

  class Span {
   public:
    Span(Span&& other) noexcept : tracer_(other.tracer_), index_(other.index_) {
      other.tracer_ = nullptr;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span& operator=(Span&&) = delete;
    ~Span();

   private:
    friend class Tracer;
    Span(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    std::size_t index_;
  };

  /// Opens a span closed by the returned guard. `name` must outlive the
  /// tracer (string literals).
  Span span(const char* name);

  /// Adds to a counter (recorded only when tracing is on).
  void count(const std::string& name, double value);
  /// Raises a counter to at least `value`.
  void count_max(const std::string& name, double value);

  /// Writes every span as a Chrome Trace Event "X" event.
  void write_chrome_trace(const std::string& path) const;

  /// Per-layer figures: "<span name>_s" totals, "<module>.self_s" self
  /// times and every counter, with round-phase values divided by `rounds`.
  std::map<std::string, double> layer_totals(std::size_t rounds) const;

  std::size_t span_count() const { return spans_.size(); }

 private:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::size_t parent;  ///< index into spans_, or kNoParent
    std::uint64_t op;
    Phase phase;
  };
  struct Counter {
    double value[3] = {0, 0, 0};
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::int64_t now_ns() const;
  void close(std::size_t index);

  bool enabled_;
  Phase phase_ = Phase::kSetup;
  std::uint64_t op_ = 0;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<std::size_t> open_;
  std::map<std::string, Counter> counters_;
  std::set<std::string> maxima_;  ///< counters kept as maxima, not sums
};

}  // namespace perfbench
