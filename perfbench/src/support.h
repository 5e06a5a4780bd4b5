#ifndef UTCQ_PERFBENCH_SUPPORT_H_
#define UTCQ_PERFBENCH_SUPPORT_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"

namespace perfbench {

/// Monotonic nanoseconds (steady clock); every interval the benchmark
/// reports is a difference of two of these.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// q-quantile with linear interpolation between closest ranks (rank 0 is
/// the minimum); 0 for an empty sample.
double Percentile(std::vector<double> sample, double q);
inline double Median(std::vector<double> sample) {
  return Percentile(std::move(sample), 0.5);
}
double Max(const std::vector<double>& sample);
double SafeDiv(double num, double den);

/// Latency histogram of fixed size: log-spaced buckets 0.5% wide from
/// 0.1 us to 100 s. Recording never allocates, so the load generator's
/// memory does not grow with the request rate, and a percentile read back
/// is within 0.5% of the exact sample percentile.
class LatencyHistogram {
 public:
  void Record(double us);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// q-quantile, interpolated within its bucket; 0 when empty.
  double Percentile(double q) const;

 private:
  static constexpr double kMinUs = 0.1;
  static constexpr double kGrowth = 1.005;
  static constexpr size_t kBuckets = 4160;  // kMinUs * kGrowth^kBuckets > 1e8
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

/// Completions of a measured window split by completion time into
/// kSubWindows equal sub-windows, each with its own latency histogram.
struct Window {
  static constexpr int kSubWindows = 5;
  /// A sub-window needs this many samples, so that its p99 has at least
  /// ten samples beyond it; a run with a thinner sub-window is invalid.
  static constexpr uint64_t kMinSamples = 1000;

  double seconds = 0.0;
  std::array<LatencyHistogram, kSubWindows> sub;
  /// Share of the box's CPU time the hypervisor gave to other guests
  /// during each sub-window (steal time, /proc/stat).
  std::array<double, kSubWindows> steal{};

  void Record(double end_s, double us);
  void Merge(const Window& other);
  uint64_t count() const;
  /// Samples in the thinnest sub-window.
  uint64_t min_sub_count() const;
};

/// Rate and round-trip percentiles of a window: for each figure, the
/// median over the sub-windows. A stall or contended stretch shorter than
/// half the window moves the figures little; one that recurs through
/// most of the window shows in full.
struct WindowStats {
  double rate = 0.0;  // completions per second
  double p50 = 0.0;
  double p99 = 0.0;
};
WindowStats MedianOfSubWindows(const Window& w);

/// Zipf(s) over [0, n): rank r has weight 1 / (r + 1)^s. Ranks map to ids
/// through a seeded permutation so the hot set is a random subset of the
/// corpus rather than its first ids.
class Zipf {
 public:
  Zipf(size_t n, double s, utcq::common::Rng& rng);
  uint32_t Sample(utcq::common::Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> ids_;
};

/// What a registry's instruments did between two snapshots: counter
/// increments and per-histogram bucket deltas.
class RegistryDelta {
 public:
  RegistryDelta(const utcq::obs::RegistrySnapshot& before,
                const utcq::obs::RegistrySnapshot& after);
  /// Increment of a counter; 0 when the counter is not registered.
  uint64_t Counter(const std::string& name) const;
  /// Samples recorded into a histogram in the interval.
  utcq::obs::HistogramSnapshot Histogram(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, utcq::obs::HistogramSnapshot> histograms_;
};

/// Peak resident set of this process over an interval, MiB: a thread
/// reads the current resident set (/proc/self/statm) every 5 ms from
/// construction until Stop, which returns the largest reading.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  double Stop();

 private:
  std::atomic<bool> stop_{false};
  double peak_mb_ = 0.0;  // written by thread_ only, read after join
  std::thread thread_;
};

/// CPU time stolen from this guest by the hypervisor so far, summed over
/// all CPUs, in seconds (the steal column of /proc/stat); 0 when unknown.
double StealSeconds();

/// Returns the heap the allocator holds free to the system, so the
/// resident set afterwards is what live objects use.
void ReleaseFreeHeap();
/// Size of a regular file in bytes; 0 when it cannot be read.
uint64_t FileBytes(const std::string& path);
/// Creates `dir` and its parents; true when it exists afterwards.
bool MakeDirs(const std::string& dir);
/// Removes `dir` and everything below it.
void RemoveTree(const std::string& dir);

/// Named metric values in insertion order, rendered as the `metrics`
/// object of the result line.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values_;
};

}  // namespace perfbench

#endif  // UTCQ_PERFBENCH_SUPPORT_H_
