#ifndef UTCQ_PERFBENCH_GATE_H_
#define UTCQ_PERFBENCH_GATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "network/road_network.h"
#include "serve/query_engine.h"
#include "verify/oracle.h"

namespace perfbench {

/// The correctness gate: a seeded sample of requests goes over the wire and
/// every answer is compared with the brute-force oracle's. Where/When hits
/// must agree instance for instance (positions to a micrometre,
/// probabilities to rounding). Range answers must agree as sets, except
/// that a trajectory whose overlap mass ties alpha to within
/// summation-order noise may differ, as in the differential harness.
struct GateResult {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  /// Requests the server failed or refused; they also count as failed
  /// operations of the run.
  uint64_t failed = 0;
  std::string first_mismatch;
};

GateResult CheckOverWire(uint16_t port,
                         const std::vector<utcq::serve::QueryRequest>& reqs,
                         const utcq::network::RoadNetwork& net,
                         const utcq::verify::Oracle& oracle);

}  // namespace perfbench

#endif  // UTCQ_PERFBENCH_GATE_H_
