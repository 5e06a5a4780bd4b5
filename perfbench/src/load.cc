#include "load.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "net/client.h"
#include "support.h"

namespace perfbench {

LoadStats RunClosedLoop(uint16_t port, unsigned connections, double seconds,
                        const RequestSource& next, Tracer* tracer) {
  // Per-connection histograms are allocated here, before the window.
  std::vector<std::unique_ptr<LoadStats>> per;
  for (unsigned c = 0; c < connections; ++c) {
    per.push_back(std::make_unique<LoadStats>());
    per.back()->window.seconds = seconds;
  }
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadStats& st = *per[c];
      utcq::net::Client client;
      if (!client.Connect("127.0.0.1", port)) {
        st.attempted = st.failed = 1;
        return;
      }
      int64_t last_reply = 0;
      utcq::serve::QueryResult got;
      for (uint64_t i = 0;; ++i) {
        if (NowNs() >= deadline) break;
        const utcq::serve::QueryRequest req = next(c, i);
        ScopedSpan request_span(tracer, "loadgen.request");
        const int64_t t0 = NowNs();
        if (last_reply != 0) {
          st.max_gap_ms = std::max(st.max_gap_ms, (t0 - last_reply) / 1e6);
        }
        bool ok = false;
        {
          ScopedSpan query_span(tracer, "client.query");
          ok = client.Query(req, &got).ok;
        }
        const int64_t t1 = NowNs();
        last_reply = t1;
        ++st.attempted;
        if (!ok) {
          ++st.failed;
          // A refused or broken connection is replaced so the loop keeps
          // its offered concurrency; the failure stays counted.
          client.Close();
          if (!client.Connect("127.0.0.1", port)) break;
          continue;
        }
        ++st.ok;
        st.window.Record(static_cast<double>(t1 - start) / 1e9,
                         static_cast<double>(t1 - t0) / 1000.0);
      }
      client.Close();
    });
  }
  // Steal time per sub-window, read at each sub-window's end.
  LoadStats out;
  out.window.seconds = seconds;
  const double width = seconds / Window::kSubWindows;
  const double cpus = static_cast<double>(std::thread::hardware_concurrency());
  double stolen = StealSeconds();
  for (int k = 0; k < Window::kSubWindows; ++k) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            start + static_cast<int64_t>((k + 1) * width * 1e9))));
    const double now = StealSeconds();
    out.window.steal[k] = (now - stolen) / (width * std::max(cpus, 1.0));
    stolen = now;
  }
  for (auto& t : threads) t.join();
  for (const auto& st : per) {
    out.attempted += st->attempted;
    out.ok += st->ok;
    out.failed += st->failed;
    out.max_gap_ms = std::max(out.max_gap_ms, st->max_gap_ms);
    out.window.Merge(st->window);
  }
  return out;
}

}  // namespace perfbench
