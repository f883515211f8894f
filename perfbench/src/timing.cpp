#include "timing.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(mid), xs.end());
  const double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  const double lo = *std::max_element(xs.begin(), xs.begin() + static_cast<long>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> xs, int p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  // Nearest rank: sample ceil(p n / 100), counted from 1.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(xs.size()) / 100.0));
  return xs[rank == 0 ? 0 : rank - 1];
}

Tail tail_percentile(std::vector<double> xs, std::size_t beyond) {
  Tail t;
  t.n = xs.size();
  if (xs.size() <= beyond) return t;
  const double n = static_cast<double>(xs.size());
  // The nearest-rank p-th percentile leaves n - ceil(p n / 100) samples
  // above it.
  int p = static_cast<int>(std::floor(100.0 * (n - static_cast<double>(beyond)) / n));
  p -= p % 5;
  t.percentile = p;
  t.value = percentile(std::move(xs), p);
  return t;
}

double peak_rss_mb() {
  // VmHWM is the peak of this process image alone. getrusage's ru_maxrss
  // also keeps the peak of the process that forked us (Linux carries it
  // across exec), so under a Python launcher it reads the launcher's RSS.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double seconds_per_call(const std::function<void()>& fn, double budget_s,
                        int min_groups) {
  // Calibrate the group size on the first (cold) call.
  double t0 = now_s();
  fn();
  const double first = std::max(now_s() - t0, 1e-9);
  const long long group = std::max<long long>(1, static_cast<long long>(2e-4 / first));
  std::vector<double> per_call;
  const double start = now_s();
  while (static_cast<int>(per_call.size()) < min_groups ||
         now_s() - start < budget_s) {
    t0 = now_s();
    for (long long i = 0; i < group; ++i) fn();
    per_call.push_back((now_s() - t0) / static_cast<double>(group));
  }
  return median(per_call);
}

bool guarded(const std::function<bool()>& fn) {
  try {
    return fn();
  } catch (...) {
    return false;
  }
}

namespace {
volatile double g_kept = 0.0;
}  // namespace

void keep(double value) { g_kept = value; }

int SpanRecorder::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_s = now_s() - origin_s_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now_s() - origin_s_;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
    f << "{\"name\":\"" << s.name << "\"," << buf << ",\"args\":{\"id\":" << i
      << ",\"parent\":" << s.parent << "}}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

std::string Result::to_json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
      << ", \"unit\": \"" << m.unit << "\"}";
  }
  o << "}}";
  return o.str();
}

OpTimes time_ops(double seconds, std::size_t min_ops,
                 const std::function<bool()>& op,
                 const std::function<void()>& between) {
  OpTimes out;
  const double start = now_s();
  while (out.seconds.size() < min_ops || now_s() - start < seconds) {
    const double t0 = now_s();
    const bool ok = guarded(op);
    out.seconds.push_back(now_s() - t0);
    ++out.attempted;
    if (!ok) ++out.failed;
    if (between) between();
  }
  return out;
}

void add_end_to_end(Result& out, const std::vector<double>& setup_s,
                    const OpTimes& ops, double units_per_op) {
  double total = 0.0;
  for (double s : ops.seconds) total += s;
  const Tail tail = tail_percentile(ops.seconds);
  out.add("setup_s", median(setup_s), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.add("op_ms_p75", percentile(ops.seconds, 75) * 1e3, "ms");
  out.add("op_ms_tail", tail.value * 1e3, "ms");
  std::ostringstream note;
  note << "op_ms_tail is p" << tail.percentile << " of n=" << tail.n
       << " timed ops; setup_s is the median of " << setup_s.size()
       << " set-ups";
  out.notes.push_back(note.str());
  char ungated[160];
  std::snprintf(ungated, sizeof ungated,
                "not gated: op_ms_p50 %.3f ms, throughput %.1f units/s",
                median(ops.seconds) * 1e3,
                units_per_op * static_cast<double>(ops.seconds.size()) / total);
  out.notes.push_back(ungated);
  out.attempted += ops.attempted;
  out.failed += ops.failed;
}

}  // namespace perfbench
