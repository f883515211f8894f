// Host-time measurement helpers shared by every workload: a monotonic
// clock, order statistics, peak RSS, an in-memory span recorder and the
// result record `perfbench` prints as its last line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock (arbitrary origin).
double now_s();

/// Median of `xs`; 0 for an empty vector.
double median(std::vector<double> xs);

/// Nearest-rank `p`-th percentile of `xs` (0 < p <= 100); 0 when empty.
double percentile(std::vector<double> xs, int p);

/// The tail read-out the benchmark reports: the highest percentile (a
/// multiple of 5) that still has at least `beyond` samples above it.
struct Tail {
  int percentile = 0;
  double value = 0.0;
  std::size_t n = 0;
};
Tail tail_percentile(std::vector<double> xs, std::size_t beyond = 10);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Median seconds per call of `fn`, timed in groups long enough (>= 200 us)
/// that clock overhead is negligible, for about `budget_s` seconds and at
/// least `min_groups` groups.
double seconds_per_call(const std::function<void()>& fn, double budget_s,
                        int min_groups = 9);

/// Run an output-checked call; a throw counts as a failed check.
bool guarded(const std::function<bool()>& fn);

/// Make a probe's result observable so the timed work is not optimized out.
void keep(double value);

/// Spans (name, start, end, parent) recorded in memory and written once.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at the root
  };

  /// Open a span under the innermost open one; returns its index.
  int open(std::string name);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (seconds) of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Chrome trace-event JSON ("X" events, microseconds); false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  double origin_s_ = now_s();
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name)
      : rec_(rec), id_(rec ? rec->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark process reports.
struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result line.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Count one checked operation.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  bool correct() const { return failed == 0 && attempted > 0; }
  /// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  std::string to_json() const;
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file of the traced run ("" = none)
};

/// Untraced ops timed back to back for `seconds` (and at least `min_ops`),
/// after the caller's warm-up. `op` returns whether its output checked out;
/// a throw counts as a failed op. `between`, when given, runs untimed after
/// every op.
struct OpTimes {
  std::vector<double> seconds;
  long long attempted = 0;
  long long failed = 0;
};
OpTimes time_ops(double seconds, std::size_t min_ops,
                 const std::function<bool()>& op,
                 const std::function<void()>& between = nullptr);

/// The four end-to-end metrics shared by every workload. The median op
/// time and the throughput go to a note line, not to the gated metrics:
/// they follow the host's speed swings (see perfbench/README.md, Noise).
void add_end_to_end(Result& out, const std::vector<double>& setup_s,
                    const OpTimes& ops, double units_per_op);

}  // namespace perfbench
