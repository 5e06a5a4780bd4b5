#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "support.h"

namespace perfbench {

namespace {

thread_local const Tracer* tls_owner = nullptr;
thread_local void* tls_buffer = nullptr;

}  // namespace

Tracer::Buffer& Tracer::LocalBuffer() {
  if (tls_owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    tls_owner = this;
    tls_buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(tls_buffer);
}

uint64_t Tracer::Begin(const char* name) {
  Buffer& buf = LocalBuffer();
  Span s;
  s.name = name;
  s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  s.parent = buf.open.empty() ? 0 : buf.open.back().id;
  s.start_ns = NowNs();
  buf.open.push_back(s);
  return s.id;
}

int64_t Tracer::End(uint64_t id) {
  const int64_t now = NowNs();
  Buffer& buf = LocalBuffer();
  // Spans close innermost-first; a mismatched id means a span escaped its
  // scope, which would corrupt every parent link after it.
  if (buf.open.empty() || buf.open.back().id != id) {
    std::fprintf(stderr, "perfbench: span %llu closed out of order\n",
                 static_cast<unsigned long long>(id));
    std::abort();
  }
  Span s = buf.open.back();
  buf.open.pop_back();
  s.end_ns = now;
  buf.closed.push_back(s);
  return s.end_ns - s.start_ns;
}

std::vector<Tracer::Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& buf : buffers_) {
    out.insert(out.end(), buf->closed.begin(), buf->closed.end());
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesUs() const {
  const std::vector<Span> spans = Collect();
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans) {
    int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0;
      int64_t cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1000.0);
  }
  return out;
}

bool Tracer::WriteSummary(const std::string& path) const {
  std::map<std::string, double> total_us;
  for (const Span& s : Collect()) {
    total_us[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{");
  bool first = true;
  for (const auto& [name, self] : SelfTimesUs()) {
    double self_total = 0.0;
    for (const double v : self) self_total += v;
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %zu, \"total_us\": %.3f, "
                 "\"self_total_us\": %.3f, \"self_p50_us\": %.3f, "
                 "\"self_p99_us\": %.3f}",
                 first ? "" : ",", name.c_str(), self.size(), total_us[name],
                 self_total, Percentile(self, 0.5), Percentile(self, 0.99));
    first = false;
  }
  std::fprintf(f, "\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
