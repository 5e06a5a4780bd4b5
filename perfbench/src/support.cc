#include "support.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <system_error>

namespace perfbench {

double Percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = q * static_cast<double>(sample.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sample[lo] + frac * (sample[hi] - sample[lo]);
}

double Max(const std::vector<double>& sample) {
  return sample.empty() ? 0.0 : *std::max_element(sample.begin(), sample.end());
}

double SafeDiv(double num, double den) { return den != 0.0 ? num / den : 0.0; }

void LatencyHistogram::Record(double us) {
  size_t b = 0;
  if (us > kMinUs) {
    b = std::min(kBuckets - 1, static_cast<size_t>(std::log(us / kMinUs) /
                                                   std::log(kGrowth)));
  }
  ++counts_[b];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double below = 0.0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const double n = static_cast<double>(counts_[b]);
    if (n > 0.0 && below + n >= target) {
      const double lo = kMinUs * std::pow(kGrowth, static_cast<double>(b));
      const double frac = std::clamp((target - below) / n, 0.0, 1.0);
      return lo + frac * (lo * kGrowth - lo);
    }
    below += n;
  }
  return kMinUs * std::pow(kGrowth, static_cast<double>(kBuckets));
}

void Window::Record(double end_s, double us) {
  const double width = seconds / kSubWindows;
  const int b = width > 0.0 ? static_cast<int>(end_s / width) : 0;
  sub[std::clamp(b, 0, kSubWindows - 1)].Record(us);
}

void Window::Merge(const Window& other) {
  for (int i = 0; i < kSubWindows; ++i) sub[i].Merge(other.sub[i]);
}

uint64_t Window::count() const {
  uint64_t n = 0;
  for (const auto& h : sub) n += h.count();
  return n;
}

uint64_t Window::min_sub_count() const {
  uint64_t n = sub[0].count();
  for (const auto& h : sub) n = std::min(n, h.count());
  return n;
}

WindowStats MedianOfSubWindows(const Window& w) {
  const double width = w.seconds / Window::kSubWindows;
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  std::string shown;
  for (const auto& h : w.sub) {
    rate.push_back(SafeDiv(static_cast<double>(h.count()), width));
    p50.push_back(h.Percentile(0.50));
    p99.push_back(h.Percentile(0.99));
    char buf[96];
    std::snprintf(buf, sizeof(buf), " [%.0f/s %.4g %.4g st%.3f]", rate.back(),
                  p50.back(), p99.back(), w.steal[&h - w.sub.data()]);
    shown += buf;
  }
  std::fprintf(stderr, "perfbench: sub-windows (rate p50 p99):%s\n",
               shown.c_str());
  return {Median(rate), Median(p50), Median(p99)};
}

Zipf::Zipf(size_t n, double s, utcq::common::Rng& rng) : cdf_(n), ids_(n) {
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  std::iota(ids_.begin(), ids_.end(), 0u);
  std::shuffle(ids_.begin(), ids_.end(), rng.engine());
}

uint32_t Zipf::Sample(utcq::common::Rng& rng) const {
  const double u = rng.Uniform(0.0, 1.0);
  const size_t r = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return ids_[std::min(r, ids_.size() - 1)];
}

RegistryDelta::RegistryDelta(const utcq::obs::RegistrySnapshot& before,
                             const utcq::obs::RegistrySnapshot& after) {
  std::map<std::string, uint64_t> base;
  for (const auto& [name, value] : before.counters) base[name] = value;
  for (const auto& [name, value] : after.counters) {
    counters_[name] = value - base[name];
  }
  std::map<std::string, const utcq::obs::HistogramSnapshot*> hist_base;
  for (const auto& [name, h] : before.histograms) hist_base[name] = &h;
  for (const auto& [name, h] : after.histograms) {
    std::map<uint32_t, uint64_t> old;
    if (const auto it = hist_base.find(name); it != hist_base.end()) {
      for (const auto& [index, n] : it->second->buckets) old[index] = n;
    }
    utcq::obs::HistogramSnapshot d;
    for (const auto& [index, n] : h.buckets) {
      const uint64_t was = old[index];
      if (n > was) {
        d.buckets.emplace_back(index, n - was);
        d.count += n - was;
      }
    }
    histograms_[name] = std::move(d);
  }
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

utcq::obs::HistogramSnapshot RegistryDelta::Histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? utcq::obs::HistogramSnapshot{} : it->second;
}

namespace {

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace

RssSampler::RssSampler()
    : peak_mb_(CurrentRssMb()), thread_([this] {
        while (!stop_.load(std::memory_order_acquire)) {
          peak_mb_ = std::max(peak_mb_, CurrentRssMb());
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        peak_mb_ = std::max(peak_mb_, CurrentRssMb());
      }) {}

RssSampler::~RssSampler() { Stop(); }

double RssSampler::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  return peak_mb_;
}

double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void ReleaseFreeHeap() { malloc_trim(0); }

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

bool MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return std::filesystem::is_directory(dir, ec);
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  values_.push_back({name, {value, unit}});
}

std::string MetricSet::Json() const {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < values_.size(); ++i) {
    const auto& [name, vu] = values_[i];
    // %.17g keeps every digit of the measurement; a non-finite value (a
    // ratio over an empty interval) is written as 0 to keep the JSON valid.
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
