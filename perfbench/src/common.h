// Shared pieces of the benchmark driver: the clock, exact percentiles, the
// benchmark's own in-memory span log, and metric output.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

inline double MicrosBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-3;
}

/// Raw samples with exact order statistics. Every timing the benchmark
/// reports comes from here, never from a bucketed histogram.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Merge(const Samples& other);

  size_t count() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }

  /// Linear interpolation between the closest ranks; 0 when empty.
  double Quantile(double q);
  double Median() { return Quantile(0.5); }

  /// The highest percentile with at least `beyond` samples above it, or 0
  /// when there are too few samples for any.
  double TailPercent(size_t beyond = 10) const;

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

/// One benchmark span: a timed call into one layer, recorded from outside
/// the program.
struct Span {
  const char* name = "";  // string literal
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans kept in memory and written out when the run ends. Load threads
/// collect into their own vectors and hand them over with Append.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Append(std::vector<Span>* spans);
  size_t size() const;

  /// Writes {"spans":[{name,id,parent,start_us,end_us},...]} with times in
  /// microseconds from the earliest span. False when the file cannot be
  /// written.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// JSON rendering of a measured number with all its digits.
std::string JsonNumber(double v);

/// Quotes and escapes `s` as a JSON string.
std::string JsonString(const std::string& s);

/// Peak resident set size of this process in MiB.
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
