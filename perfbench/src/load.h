#ifndef UTCQ_PERFBENCH_LOAD_H_
#define UTCQ_PERFBENCH_LOAD_H_

#include <cstdint>
#include <functional>

#include "serve/query_engine.h"
#include "support.h"
#include "trace.h"

namespace perfbench {

/// The i-th request connection `conn` sends.
using RequestSource =
    std::function<utcq::serve::QueryRequest(unsigned conn, uint64_t i)>;

struct LoadStats {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  /// Wire round trip of every successful request, by completion time.
  Window window;
  /// Longest time a connection took between receiving a response and
  /// sending its next request: how late the closed-loop generator ran.
  double max_gap_ms = 0.0;

  double qps() const { return SafeDiv(static_cast<double>(ok), window.seconds); }
};

/// Closed-loop load over loopback: `connections` threads, each with one
/// net::Client and one request in flight, for `seconds`. Its memory is
/// fixed before the window opens. With a tracer every request is a
/// `loadgen.request` span around a `client.query` span.
LoadStats RunClosedLoop(uint16_t port, unsigned connections, double seconds,
                        const RequestSource& next, Tracer* tracer);

}  // namespace perfbench

#endif  // UTCQ_PERFBENCH_LOAD_H_
