#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Measurement plumbing shared by the perfbench workloads: raw wall-clock
// samples with exact quantiles, the benchmark's own trace spans, the result
// record every workload fills in, and a few process/file probes.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/database.h"
#include "env/env.h"
#include "obs/metrics.h"
#include "storage/pager.h"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// num / den, or 0 when nothing was counted.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Raw per-operation samples.  Quantiles are nearest-rank over the sorted
/// values, so every reported figure is an observed sample, never a bucket
/// bound.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Quantile(double q) const;  // q in [0, 1]; 0 when empty
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Everything one invocation reports.  `metrics` keeps insertion order; the
/// detail map carries sample counts, per-query breakdowns and the host and
/// option stamp, printed on a line of its own before the result line.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, std::string> detail;  // key -> JSON value text
  std::vector<std::string> problems;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Detail(const std::string& key, double value);
  void Detail(const std::string& key, const std::string& text);
  void Detail(const std::string& key, const std::vector<double>& values);
  /// Marks the run incorrect; the reason is printed to stderr.
  void Fail(const std::string& why);
};

/// One span of the benchmark's own trace.  Spans of one operation share
/// `op`; `parent` indexes the enclosing span in the same SpanLog (-1 for
/// the operation span itself).
struct Span {
  uint64_t op = 0;
  int parent = -1;
  const char* name = "";
  const char* op_class = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double Micros() const { return (end_ns - start_ns) / 1e3; }
};

/// Spans recorded by one thread, kept in memory until the run ends.
class SpanLog {
 public:
  int Begin(uint64_t op, int parent, const char* name, const char* op_class);
  void End(int index) { spans_[index].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other);

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Total bytes of the files directly under `dir` in `env`.
uint64_t DirBytes(tdb::Env* env, const std::string& dir);

/// Sum of every counter named `prefix`*`suffix` in `after` minus `before`.
uint64_t CounterDelta(const tdb::obs::MetricsSnapshot& before,
                      const tdb::obs::MetricsSnapshot& after,
                      const std::string& prefix, const std::string& suffix);

/// Times Pager::ReadPage on a resident page (hit) and on two pages read
/// in turn through one frame (miss), in nanoseconds per call (median of
/// batches), on a scratch file of `env` opened with the database's
/// resolved storage options.
struct PageReadCost {
  double hit_ns = 0;
  double miss_ns = 0;
};
PageReadCost ProbePageReads(tdb::Env* env, const std::string& path,
                            const tdb::StorageOptions& storage, Outcome* out);

/// Records the database's resolved storage and engine options.
void StampDatabase(tdb::Database* db, Outcome* out);

/// JSON number text with full precision.
std::string Num(double v);
/// JSON string literal.
std::string Quote(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
