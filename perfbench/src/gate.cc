#include "gate.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <tuple>

#include "net/client.h"

namespace perfbench {

namespace {

using utcq::serve::QueryKind;
using utcq::serve::QueryRequest;
using utcq::serve::QueryResult;

bool SameProbability(double a, double b) {
  return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(a));
}

bool SameWhere(const utcq::network::RoadNetwork& net,
               std::vector<utcq::traj::WhereHit> got,
               std::vector<utcq::traj::WhereHit> want) {
  const auto by_instance = [](const auto& a, const auto& b) {
    return a.instance < b.instance;
  };
  std::sort(got.begin(), got.end(), by_instance);
  std::sort(want.begin(), want.end(), by_instance);
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].instance != want[i].instance ||
        !SameProbability(got[i].probability, want[i].probability)) {
      return false;
    }
    const auto& a = got[i].position;
    const auto& b = want[i].position;
    const auto pa = net.PointOnEdge(a.edge, a.ndist);
    const auto pb = net.PointOnEdge(b.edge, b.ndist);
    if (std::hypot(pa.x - pb.x, pa.y - pb.y) > 1e-6) return false;
  }
  return true;
}

bool SameWhen(std::vector<utcq::traj::WhenHit> got,
              std::vector<utcq::traj::WhenHit> want) {
  const auto order = [](const auto& a, const auto& b) {
    return std::tie(a.instance, a.t) < std::tie(b.instance, b.t);
  };
  std::sort(got.begin(), got.end(), order);
  std::sort(want.begin(), want.end(), order);
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].instance != want[i].instance || got[i].t != want[i].t ||
        !SameProbability(got[i].probability, want[i].probability)) {
      return false;
    }
  }
  return true;
}

bool SameRange(utcq::traj::RangeResult got, utcq::traj::RangeResult want,
               const utcq::verify::Oracle& oracle, const QueryRequest& q) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got == want) return true;
  std::vector<uint32_t> diff;
  std::set_symmetric_difference(got.begin(), got.end(), want.begin(),
                                want.end(), std::back_inserter(diff));
  for (const uint32_t j : diff) {
    if (std::abs(oracle.OverlapMass(j, q.region, q.t) - q.alpha) > 1e-9) {
      return false;
    }
  }
  return true;
}

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kWhere: return "where";
    case QueryKind::kWhen: return "when";
    case QueryKind::kRange: break;
  }
  return "range";
}

}  // namespace

GateResult CheckOverWire(uint16_t port, const std::vector<QueryRequest>& reqs,
                         const utcq::network::RoadNetwork& net,
                         const utcq::verify::Oracle& oracle) {
  GateResult out;
  utcq::net::Client client;
  if (!client.Connect("127.0.0.1", port)) {
    out.failed = out.mismatches = reqs.size();
    out.first_mismatch = "cannot connect: " + client.last_status().message;
    return out;
  }
  for (size_t i = 0; i < reqs.size(); ++i) {
    const QueryRequest& q = reqs[i];
    QueryResult got;
    ++out.checked;
    if (!client.Query(q, &got).ok) {
      ++out.failed;
      ++out.mismatches;
      if (out.first_mismatch.empty()) {
        out.first_mismatch = "request " + std::to_string(i) + " failed: " +
                             client.last_status().message;
      }
      client.Close();
      if (!client.Connect("127.0.0.1", port)) break;
      continue;
    }
    bool same = false;
    switch (q.kind) {
      case QueryKind::kWhere:
        same = SameWhere(net, got.where, oracle.Where(q.traj, q.t, q.alpha));
        break;
      case QueryKind::kWhen:
        same = SameWhen(got.when, oracle.When(q.traj, q.edge, q.rd, q.alpha));
        break;
      case QueryKind::kRange:
        same = SameRange(got.range, oracle.Range(q.region, q.t, q.alpha),
                         oracle, q);
        break;
    }
    if (!same) {
      ++out.mismatches;
      if (out.first_mismatch.empty()) {
        out.first_mismatch = std::string(KindName(q.kind)) + " request " +
                             std::to_string(i) + " differs from the reference";
      }
    }
  }
  client.Close();
  return out;
}

}  // namespace perfbench
