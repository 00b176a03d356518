#include "asr/hop_plan.h"

#include <algorithm>

namespace asr {

HopPlan HopPlan::Compile(const Decomposition& dec, QueryDir dir, uint32_t ci,
                         uint32_t cj) {
  ASR_CHECK(ci < cj && cj <= dec.m());
  const bool forward = dir == QueryDir::kForward;
  HopPlan plan;
  for (uint32_t c = forward ? ci : cj; forward ? c < cj : c > ci;) {
    int p = forward ? dec.PartitionStartingAt(c) : dec.PartitionEndingAt(c);
    Hop hop;
    hop.scan = p < 0;
    if (hop.scan) p = dec.PartitionCovering(c);
    auto [first, last] = dec.partition(p);
    hop.partition = static_cast<size_t>(p);
    hop.backward_tree = !forward && !hop.scan;
    hop.from_col = c;
    hop.to_col = forward ? std::min(last, cj) : std::max(first, ci);
    plan.hops.push_back(hop);
    c = hop.to_col;
  }
  return plan;
}

std::string HopPlan::ToString() const {
  std::string out;
  for (const Hop& hop : hops) {
    if (!out.empty()) out += "; ";
    out += std::string(hop.scan ? "scan" : "lookup") + " p" +
           std::to_string(hop.partition) +
           (hop.backward_tree ? ".bwd " : ".fwd ") +
           std::to_string(hop.from_col) + "->" + std::to_string(hop.to_col);
  }
  return out;
}

}  // namespace asr
