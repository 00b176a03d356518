#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

namespace asr::cost {

namespace {

// Probability bases of the form (1 - x) can leave [0,1] for extreme
// profiles (fan_i larger than e_{i+1}); the paper notes the approximation
// error for that regime (§4.1.1). Clamping keeps the model stable there.
double Clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

double CeilPos(double x) { return std::ceil(std::max(0.0, x)); }

}  // namespace

CostModel::CostModel(ApplicationProfile profile, SystemParameters system)
    : profile_(std::move(profile)), system_(system) {
  ASR_CHECK(profile_.Validate().ok());
  if (profile_.size.empty()) {
    profile_.size.assign(profile_.n + 1, 100.0);
  }
  // shar_i defaults to d_i * fan_i / c_{i+1} (Fig. 3). An average sharing
  // below one reference per referenced object is not meaningful — it would
  // make e_{i+1} = c_{i+1}, i.e. claim every object is referenced even when
  // there are fewer references than objects, which contradicts the paper's
  // own Fig. 4 discussion ("few objects at the left side ... cause the
  // canonical and left-complete extensions to be drastically smaller").
  // Under the stated uniform-spread assumption sharing approaches 1 in that
  // regime, so the default is clamped from below at 1.
  shar_.resize(profile_.n);
  for (uint32_t i = 0; i < profile_.n; ++i) {
    shar_[i] = profile_.shar.empty()
                   ? std::max(1.0, profile_.d[i] * profile_.fan[i] /
                                       profile_.c[i + 1])
                   : profile_.shar[i];
  }
  // e_i = d_{i-1} * fan_{i-1} / shar_{i-1} (Fig. 3); e_[0] unused.
  e_.resize(profile_.n + 1, 0.0);
  for (uint32_t i = 1; i <= profile_.n; ++i) {
    e_[i] = shar_[i - 1] > 0
                ? profile_.d[i - 1] * profile_.fan[i - 1] / shar_[i - 1]
                : 0.0;
    e_[i] = std::min(e_[i], profile_.c[i]);
  }
}

double CostModel::shar(uint32_t i) const {
  ASR_DCHECK(i < profile_.n);
  return shar_[i];
}

double CostModel::e(uint32_t i) const {
  ASR_DCHECK(i >= 1 && i <= profile_.n);
  return e_[i];
}

double CostModel::RefBy(uint32_t i, uint32_t j) const {
  ASR_DCHECK(i <= j && j <= n());
  if (i == j) return c(i);
  // Eq. 6, iteratively from l = i+1 up to j.
  double val = e(i + 1);
  for (uint32_t l = i + 2; l <= j; ++l) {
    if (e(l) <= 0) return 0.0;
    double base = Clamp01(1.0 - fan(l - 1) / e(l));
    val = e(l) * (1.0 - std::pow(base, val * PA(l - 1)));
  }
  return val;
}

double CostModel::PRefBy(uint32_t i, uint32_t j) const {
  if (i == j) return 1.0;  // Eq. 7
  return RefBy(i, j) / c(j);
}

double CostModel::Ref(uint32_t i, uint32_t j) const {
  ASR_DCHECK(i <= j && j <= n());
  if (i == j) return c(i);
  // Eq. 8, iteratively from l = j-1 down to i.
  double val = d(j - 1);
  for (uint32_t l = j - 1; l-- > i;) {
    if (d(l) <= 0) return 0.0;
    double base = Clamp01(1.0 - shar(l) / d(l));
    val = d(l) * (1.0 - std::pow(base, val * PH(l + 1)));
  }
  return val;
}

double CostModel::PRef(uint32_t i, uint32_t j) const {
  if (i == j) return 1.0;  // Eq. 9
  return Ref(i, j) / c(i);
}

double CostModel::PathCount(uint32_t i, uint32_t j) const {
  ASR_DCHECK(i < j && j <= n());
  // Eq. 10.
  double val = ref(i);
  for (uint32_t l = i + 1; l <= j - 1; ++l) {
    val *= PA(l) * fan(l);
  }
  return val;
}

double CostModel::RefBy(uint32_t i, uint32_t j, double k) const {
  ASR_DCHECK(i <= j && j <= n());
  if (i == j) return std::min(k, c(i));
  // Eq. 29.
  if (e(i + 1) <= 0) return 0.0;
  double val =
      e(i + 1) * (1.0 - std::pow(Clamp01(1.0 - fan(i) / e(i + 1)), k));
  for (uint32_t l = i + 2; l <= j; ++l) {
    if (e(l) <= 0) return 0.0;
    double base = Clamp01(1.0 - fan(l - 1) / e(l));
    val = e(l) * (1.0 - std::pow(base, val * PA(l - 1)));
  }
  return val;
}

double CostModel::Ref(uint32_t i, uint32_t j, double k) const {
  ASR_DCHECK(i <= j && j <= n());
  if (i == j) return std::min(k, c(i));
  // Eq. 30.
  if (d(j - 1) <= 0) return 0.0;
  double val = d(j - 1) *
               (1.0 - std::pow(Clamp01(1.0 - shar(j - 1) / d(j - 1)), k));
  for (uint32_t l = j - 1; l-- > i;) {
    if (d(l) <= 0) return 0.0;
    double base = Clamp01(1.0 - shar(l) / d(l));
    val = d(l) * (1.0 - std::pow(base, val * PH(l + 1)));
  }
  return val;
}

double CostModel::Yao(double k, double m, double n) {
  if (m <= 0 || n <= 0 || k <= 0) return 0.0;
  if (k >= n) return std::ceil(m);
  uint64_t kk = static_cast<uint64_t>(std::ceil(k));
  double prod = 1.0;
  double n_eff = n * (1.0 - 1.0 / m);
  for (uint64_t idx = 1; idx <= kk; ++idx) {
    double numer = n_eff - static_cast<double>(idx) + 1.0;
    double denom = n - static_cast<double>(idx) + 1.0;
    if (numer <= 0 || denom <= 0) {
      prod = 0.0;
      break;
    }
    prod *= numer / denom;
    if (prod < 1e-12) {
      prod = 0.0;
      break;
    }
  }
  return std::ceil(m * (1.0 - prod));
}

double CostModel::Plb(uint32_t i, uint32_t j) const {
  if (i < j) return 1.0 - PRefBy(i, j);  // Eq. 11
  return 1.0;
}

double CostModel::Prb(uint32_t i, uint32_t j) const {
  if (i < j) return 1.0 - PRef(i, j);  // Eq. 12
  return 1.0;
}

double CostModel::Cardinality(ExtensionKind x, uint32_t i, uint32_t j) const {
  ASR_DCHECK(i < j && j <= n());
  switch (x) {
    case ExtensionKind::kCanonical:
      // §4.2.1: complete paths crossing the partition.
      return PRefBy(0, i) * PathCount(i, j) * PRef(j, n());
    case ExtensionKind::kFull: {
      // §4.2.2: every maximal fragment of length k anchored at l.
      double sum = 0.0;
      for (uint32_t k = 1; k <= j - i; ++k) {
        for (uint32_t l = i; l + k <= j; ++l) {
          uint32_t lm1 = (l == 0) ? 0 : l - 1;
          sum += Plb(std::max(i, lm1), l) * PathCount(l, l + k) *
                 Prb(l + k, std::min(j, l + k + 1));
        }
      }
      return sum;
    }
    case ExtensionKind::kLeftComplete: {
      // §4.2.3.
      double sum = 0.0;
      for (uint32_t k = 1; k <= j - i; ++k) {
        sum += PRefBy(0, i) * PathCount(i, i + k) *
               Prb(i + k, std::min(j, i + k + 1));
      }
      return sum;
    }
    case ExtensionKind::kRightComplete: {
      // §4.2.4.
      double sum = 0.0;
      for (uint32_t k = 1; k <= j - i; ++k) {
        uint32_t jk = j - k;
        uint32_t jkm1 = (jk == 0) ? 0 : jk - 1;
        sum += Plb(std::max(i, jkm1), jk) * PathCount(jk, j) * PRef(j, n());
      }
      return sum;
    }
  }
  return 0.0;
}

double CostModel::TupleBytes(uint32_t i, uint32_t j) const {
  return system_.oid_size * (j - i + 1);  // Eq. 13
}

double CostModel::TuplesPerPage(uint32_t i, uint32_t j) const {
  return std::floor(system_.page_size / TupleBytes(i, j));  // Eq. 14
}

double CostModel::PartitionBytes(ExtensionKind x, uint32_t i,
                                 uint32_t j) const {
  return Cardinality(x, i, j) * TupleBytes(i, j);  // Eq. 15
}

double CostModel::PartitionPages(ExtensionKind x, uint32_t i,
                                 uint32_t j) const {
  return CeilPos(Cardinality(x, i, j) / TuplesPerPage(i, j));  // Eq. 16
}

double CostModel::TotalBytes(ExtensionKind x, const Decomposition& dec) const {
  double sum = 0.0;
  for (size_t p = 0; p < dec.partition_count(); ++p) {
    auto [a, b] = dec.partition(p);
    sum += PartitionBytes(x, a, b);
  }
  return sum;
}

double CostModel::ObjectsPerPage(uint32_t i) const {
  return std::max(1.0, std::floor(system_.page_size / size(i)));  // Eq. 17
}

double CostModel::ObjectPages(uint32_t i) const {
  return std::ceil(c(i) / ObjectsPerPage(i));  // Eq. 18
}

double CostModel::BTreeHeight(ExtensionKind x, uint32_t i, uint32_t j) const {
  double ap = std::max(1.0, PartitionPages(x, i, j));
  // Eq. 19: height above the leaves.
  return std::ceil(std::log(ap) / std::log(system_.BTreeFanOut()));
}

double CostModel::BTreeNonLeafPages(ExtensionKind x, uint32_t i,
                                    uint32_t j) const {
  // Eq. 20, generalized to any height: one directory level at a time.
  double ap = std::max(1.0, PartitionPages(x, i, j));
  double ht = BTreeHeight(x, i, j);
  double fanout = system_.BTreeFanOut();
  double pages = 0.0;
  double level = ap;
  for (uint32_t l = 0; l < static_cast<uint32_t>(ht); ++l) {
    level = std::ceil(level / fanout);
    pages += level;
  }
  return pages;
}

double CostModel::LeafPagesPerValue(ExtensionKind x, uint32_t i,
                                    uint32_t j) const {
  double as = PartitionBytes(x, i, j);
  double denom = 0.0;
  switch (x) {
    case ExtensionKind::kFull:
      denom = d(i);  // Eq. 21
      break;
    case ExtensionKind::kRightComplete:
      denom = d(i);  // Eq. 22
      break;
    case ExtensionKind::kCanonical:
      denom = Ref(i, n()) * PRefBy(0, i);  // Eq. 23
      break;
    case ExtensionKind::kLeftComplete:
      denom = RefBy(0, i);  // Eq. 24
      break;
  }
  if (denom <= 0 || as <= 0) return 0.0;
  return std::ceil(as / (system_.page_size * denom));
}

double CostModel::RevLeafPagesPerValue(ExtensionKind x, uint32_t i,
                                       uint32_t j) const {
  double as = PartitionBytes(x, i, j);
  double denom = 0.0;
  switch (x) {
    case ExtensionKind::kFull:
      // Eq. 25 prints e_i; the reverse tree is clustered on t_j OIDs, so we
      // read it as its symmetric counterpart e_j.
      denom = e(j);
      break;
    case ExtensionKind::kLeftComplete:
      // Eq. 26 prints as_right/e_i; symmetric reading: as_left over the
      // distinct t_j values on left-complete paths, RefBy(0, j).
      denom = RefBy(0, j);
      break;
    case ExtensionKind::kCanonical:
      denom = Ref(j, n()) * PRefBy(0, j);  // Eq. 27
      break;
    case ExtensionKind::kRightComplete:
      denom = Ref(j, n());  // Eq. 28
      break;
  }
  if (denom <= 0 || as <= 0) return 0.0;
  return std::ceil(as / (system_.page_size * denom));
}

double CostModel::QueryNoSupport(QueryDirection dir, uint32_t i,
                                 uint32_t j) const {
  ASR_DCHECK(i <= j && j <= n());
  if (i == j) return 0.0;
  double sum = 0.0;
  if (dir == QueryDirection::kForward) {
    sum = 1.0;  // Eq. 31: fetch the anchor object
    for (uint32_t l = i + 1; l <= j - 1; ++l) {
      sum += Yao(std::ceil(RefBy(i, l, 1)), ObjectPages(l), c(l));
    }
  } else {
    sum = ObjectPages(i);  // Eq. 32: exhaustive scan of the t_i extent
    for (uint32_t l = i + 1; l <= j - 1; ++l) {
      sum += Yao(std::ceil(RefBy(i, l, d(i))), ObjectPages(l), c(l));
    }
  }
  return sum;
}

QueryTerm SupportedQueryTerm(QueryDirection dir, uint32_t i, uint32_t j,
                             uint32_t a, uint32_t b) {
  if (dir == QueryDirection::kForward) {
    // Eq. 33.
    if (a == i && i < b) return QueryTerm::kEntryLookup;
    if (a < i && i < b) return QueryTerm::kScan;
    if (i < a && a < j) return QueryTerm::kChainLookup;
    return QueryTerm::kNone;
  }
  // Eq. 34.
  if (a < j && j == b) return QueryTerm::kEntryLookup;
  if (a < j && j < b) return QueryTerm::kScan;
  if (i < b && b < j) return QueryTerm::kChainLookup;
  return QueryTerm::kNone;
}

double CostModel::QuerySupported(ExtensionKind x, QueryDirection dir,
                                 uint32_t i, uint32_t j,
                                 const Decomposition& dec) const {
  ASR_DCHECK(i < j && j <= n());
  double sum = 0.0;
  const double fanout = system_.BTreeFanOut();
  const bool forward = dir == QueryDirection::kForward;
  for (size_t p = 0; p < dec.partition_count(); ++p) {
    auto [a, b] = dec.partition(p);
    switch (SupportedQueryTerm(dir, i, j, a, b)) {
      case QueryTerm::kNone:
        break;
      case QueryTerm::kEntryLookup:
        sum += BTreeHeight(x, a, b) + (forward ? LeafPagesPerValue(x, a, b)
                                               : RevLeafPagesPerValue(x, a, b));
        break;
      case QueryTerm::kScan:
        sum += PartitionPages(x, a, b);
        break;
      case QueryTerm::kChainLookup: {
        // k source values enter the partition at its clustered column.
        double k = std::ceil(forward ? RefBy(i, a, 1) : Ref(b, j, 1));
        double nlp = forward ? LeafPagesPerValue(x, a, b)
                             : RevLeafPagesPerValue(x, a, b);
        double pg1 = std::max(0.0, BTreeNonLeafPages(x, a, b) - 1.0);
        sum += 1.0 + Yao(k, pg1, pg1 * fanout) +
               Yao(k * nlp, PartitionPages(x, a, b), Cardinality(x, a, b));
        break;
      }
    }
  }
  return sum;
}

double CostModel::QueryCost(ExtensionKind x, QueryDirection dir, uint32_t i,
                            uint32_t j, const Decomposition& dec) const {
  // Eq. 35: fall back to the navigational cost when the extension cannot
  // evaluate Q_{i,j}.
  if (ExtensionSupportsQuery(x, i, j, n())) {
    return QuerySupported(x, dir, i, j, dec);
  }
  return QueryNoSupport(dir, i, j);
}

double CostModel::PPath(uint32_t l) const {
  return PRefBy(0, l) * PRef(l, n());  // Eq. 38
}

double CostModel::PNoPath(uint32_t l) const { return 1.0 - PPath(l); }

double CostModel::UpdateSearchCost(ExtensionKind x, uint32_t i,
                                   const Decomposition& dec) const {
  ASR_DCHECK(i < n());
  // Eq. 36.
  double sup_fw = QuerySupported(x, QueryDirection::kForward, i, i + 1, dec);
  double sup_bw = QuerySupported(x, QueryDirection::kBackward, i, i + 1, dec);
  switch (x) {
    case ExtensionKind::kCanonical: {
      double fw_search =
          (i + 1 < n())
              ? QueryNoSupport(QueryDirection::kForward, i + 1, n()) *
                    PNoPath(i + 1)
              : 0.0;
      double bw_search =
          (i > 0) ? QueryNoSupport(QueryDirection::kBackward, 0, i) *
                        PRef(i + 1, n()) * PNoPath(i)
                  : 0.0;
      return fw_search + sup_bw + bw_search + sup_fw;
    }
    case ExtensionKind::kFull:
      return std::min(sup_fw, sup_bw);
    case ExtensionKind::kLeftComplete: {
      double fw_search =
          (i + 1 < n())
              ? QueryNoSupport(QueryDirection::kForward, i + 1, n()) *
                    (1.0 - PRefBy(0, i + 1)) * PRefBy(0, i)
              : 0.0;
      return fw_search + std::min(sup_fw, sup_bw);
    }
    case ExtensionKind::kRightComplete: {
      double scan = 0.0;
      for (uint32_t l = 0; l <= i; ++l) scan += ObjectPages(l);
      return scan * (1.0 - PRef(i, n())) * PRef(i + 1, n()) +
             std::min(sup_fw, sup_bw);
    }
  }
  return 0.0;
}

double CostModel::ClustersForward(ExtensionKind x, uint32_t i, uint32_t lo,
                                  uint32_t hi) const {
  // §6.2.1-§6.2.4, qfw_X(i_nu, i_nu+1) for the update ins_i.
  switch (x) {
    case ExtensionKind::kCanonical:
      if (lo <= i) {
        return Ref(lo, i, 1) * PRefBy(0, lo) * PRef(i + 1, n());
      }
      return RefBy(i + 1, lo, 1) * PRefBy(0, i) * PRef(lo, n());
    case ExtensionKind::kFull: {
      if (!(lo <= i && i < hi)) return 0.0;
      double sum = Ref(lo, i, 1);
      for (uint32_t l = lo + 1; l <= i; ++l) {
        sum += Plb(l - 1, l) * Ref(l, i, 1);
      }
      return sum;
    }
    case ExtensionKind::kLeftComplete:
      if (hi <= i) return 0.0;
      if (lo <= i) return Ref(lo, i, 1) * PRefBy(0, lo);
      return Plb(0, lo) * RefBy(i + 1, lo, 1) * PRefBy(0, i);
    case ExtensionKind::kRightComplete: {
      if (i < lo) return 0.0;
      if (hi <= i) {
        double sum = Ref(lo, i, 1);
        for (uint32_t l = lo + 1; l <= hi - 1; ++l) {
          sum += Plb(l - 1, l) * Ref(l, i, 1);
        }
        return Prb(hi, n()) * PRef(i + 1, n()) * sum;
      }
      double sum = Ref(lo, i, 1);
      for (uint32_t l = lo + 1; l <= i; ++l) {
        sum += Plb(l - 1, l) * Ref(l, i, 1);
      }
      return PRef(i + 1, n()) * sum;
    }
  }
  return 0.0;
}

double CostModel::ClustersBackward(ExtensionKind x, uint32_t i, uint32_t lo,
                                   uint32_t hi) const {
  switch (x) {
    case ExtensionKind::kCanonical:
      if (hi <= i) {
        return Ref(hi, i, 1) * PRefBy(0, hi) * PRef(i + 1, n());
      }
      return RefBy(i + 1, hi, 1) * PRefBy(0, i) * PRef(hi, n());
    case ExtensionKind::kFull: {
      if (!(lo <= i && i < hi)) return 0.0;
      double sum = RefBy(i + 1, hi, 1);
      for (uint32_t l = i + 2; l + 1 <= hi; ++l) {
        sum += Prb(l, l + 1) * RefBy(i + 1, l, 1);
      }
      return sum;
    }
    case ExtensionKind::kLeftComplete: {
      if (hi <= i) return 0.0;
      if (lo <= i) {
        double sum = RefBy(i + 1, hi, 1);
        for (uint32_t l = i + 2; l + 1 <= hi; ++l) {
          sum += Prb(l, l + 1) * RefBy(i + 1, l, 1);
        }
        return PRefBy(0, i) * sum;
      }
      double sum = RefBy(i + 1, hi, 1);
      for (uint32_t l = lo + 1; l + 1 <= hi; ++l) {
        sum += Prb(l, l + 1) * RefBy(i + 1, l, 1);
      }
      return PRefBy(0, i) * Plb(0, lo) * sum;
    }
    case ExtensionKind::kRightComplete:
      if (i < lo) return 0.0;
      if (hi <= i) return Prb(hi, n()) * Ref(hi, i, 1) * PRef(i + 1, n());
      return RefBy(i + 1, hi, 1) * PRef(hi, n());
  }
  return 0.0;
}

double CostModel::UpdateTreeCost(ExtensionKind x, uint32_t i,
                                 const Decomposition& dec) const {
  // aup_X^i (§6.2): per partition, read the non-leaf B+ pages leading to the
  // affected clusters, then read and write back their leaf pages (factor 2),
  // for both the forward- and the backward-clustered tree.
  double sum = 0.0;
  const double fanout = system_.BTreeFanOut();
  for (size_t p = 0; p < dec.partition_count(); ++p) {
    auto [a, b] = dec.partition(p);
    double card = Cardinality(x, a, b);
    double ap = PartitionPages(x, a, b);
    double pg1 = std::max(0.0, BTreeNonLeafPages(x, a, b) - 1.0);
    double qfw = ClustersForward(x, i, a, b);
    if (qfw > 0) {
      sum += 1.0 + Yao(qfw, pg1, pg1 * fanout) + 2.0 * Yao(qfw, ap, card);
    }
    double qbw = ClustersBackward(x, i, a, b);
    if (qbw > 0) {
      sum += 1.0 + Yao(qbw, pg1, pg1 * fanout) + 2.0 * Yao(qbw, ap, card);
    }
  }
  return sum;
}

double CostModel::UpdateCost(ExtensionKind x, uint32_t i,
                             const Decomposition& dec) const {
  // §6: update the object itself (3 accesses per the paper), search for the
  // affected paths, then update the access relation partitions.
  return 3.0 + UpdateSearchCost(x, i, dec) + UpdateTreeCost(x, i, dec);
}

}  // namespace asr::cost
