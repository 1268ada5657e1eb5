#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

Tracer::Span Tracer::span(const char* name) {
  if (!enabled_) return Span(nullptr, 0);
  const std::size_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back({name, now_ns(), -1, parent, op_, phase_});
  open_.push_back(spans_.size() - 1);
  return Span(this, spans_.size() - 1);
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  // Guards are scoped, so spans close innermost first.
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("trace: spans closed out of order");
  }
  open_.pop_back();
}

void Tracer::count(const std::string& name, double value) {
  if (!enabled_) return;
  counters_[name].value[static_cast<int>(phase_)] += value;
}

void Tracer::count_max(const std::string& name, double value) {
  if (!enabled_) return;
  double& slot = counters_[name].value[static_cast<int>(Phase::kSetup)];
  slot = std::max(slot, value);
  maxima_.insert(name);
}

namespace {

std::string module_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

void write_escaped(std::ofstream& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

}  // namespace

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot write " + path);
  static const char* const kPhaseNames[] = {"setup", "round", "reference"};
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"";
    write_escaped(out, r.name);
    out << "\",\"cat\":\"" << module_of(r.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(r.start_ns) / 1000.0
        << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1000.0
        << ",\"args\":{\"span\":" << i << ",\"parent\":"
        << (r.parent == kNoParent ? std::string("null") : std::to_string(r.parent))
        << ",\"op\":" << r.op << ",\"phase\":\"" << kPhaseNames[static_cast<int>(r.phase)]
        << "\"}}";
  }
  out << "\n]}\n";
}

std::map<std::string, double> Tracer::layer_totals(std::size_t rounds) const {
  const double per_round = 1.0 / static_cast<double>(std::max<std::size_t>(1, rounds));
  auto scale = [per_round](Phase phase) {
    return phase == Phase::kRound ? per_round : 1.0;
  };
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Record& r : spans_) {
    if (r.parent != kNoParent) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const double k = scale(r.phase) * 1e-9;
    const std::int64_t dur = r.end_ns - r.start_ns;
    totals[std::string(r.name) + "_s"] += k * static_cast<double>(dur);
    totals[module_of(r.name) + ".self_s"] += k * static_cast<double>(dur - child_ns[i]);
  }
  for (const auto& [name, counter] : counters_) {
    if (maxima_.count(name) != 0) {
      totals[name] = counter.value[0];
      continue;
    }
    totals[name] = counter.value[0] + counter.value[1] * per_round + counter.value[2];
  }
  return totals;
}

}  // namespace perfbench
