#ifndef UTCQ_PERFBENCH_TRACE_H_
#define UTCQ_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are opened and closed
/// by the benchmark's own code around each call it makes into a layer's
/// public API; nothing inside the system under test is instrumented.
///
/// A span's parent is the innermost span open on the same thread when it
/// began, so the spans of one request hang below its `loadgen.request`
/// span. Each thread appends to its own buffer, so recording takes no
/// lock after a thread's first span.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; returns its id for End.
  uint64_t Begin(const char* name);
  /// Closes the innermost open span of the calling thread (which must be
  /// `id`) and returns its duration in nanoseconds.
  int64_t End(uint64_t id);

  /// Every closed span. Call after all recording threads have finished.
  std::vector<Span> Collect() const;

  /// Self time of every closed span, grouped by name, in microseconds: the
  /// span's duration minus the part of its interval its children cover.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;

  /// Writes a per-name summary (count, total, self total, p50 and p99 of
  /// self time) as one JSON object. False when the file cannot be written.
  bool WriteSummary(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> closed;
    std::vector<Span> open;
  };
  Buffer& LocalBuffer();

  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// RAII span; a null tracer makes it a no-op, so the timed run pays for
/// nothing but a branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr && id_ != 0) tracer_->End(id_);
  }
  /// Closes the span early; returns its duration in microseconds.
  double Close() {
    if (tracer_ == nullptr || id_ == 0) return 0.0;
    const int64_t ns = tracer_->End(id_);
    id_ = 0;
    return static_cast<double>(ns) / 1000.0;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // UTCQ_PERFBENCH_TRACE_H_
