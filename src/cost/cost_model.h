// The complete analytical cost model of the paper (Sections 4-6).
//
// Every public method cites the equation or subsection it implements. All
// quantities are expected values in units of objects, tuples, bytes, pages,
// or secondary-storage page accesses; they are doubles throughout because
// the model composes probabilities with counts.
//
// Position indices i, j always refer to path positions 0..n (the paper notes
// the general case with set occurrences follows by reading n as m, §3).
#ifndef ASR_COST_COST_MODEL_H_
#define ASR_COST_COST_MODEL_H_

#include <unordered_map>
#include <vector>

#include "asr/decomposition.h"
#include "asr/extension.h"
#include "cost/profile.h"

namespace asr::cost {

using asr::Decomposition;
using asr::ExtensionKind;

enum class QueryDirection { kForward, kBackward };

// The Eq. 33/34 term a partition [a, b] contributes to Q_{i,j}: nothing, the
// cluster lookup at the query's entry column (ht + nlp), the scan of every
// page when the entry column is interior (ap), or a chained cluster lookup
// at a later boundary (1 + Yao(...)).
enum class QueryTerm { kNone, kEntryLookup, kScan, kChainLookup };

QueryTerm SupportedQueryTerm(QueryDirection dir, uint32_t i, uint32_t j,
                             uint32_t a, uint32_t b);

class CostModel {
 public:
  CostModel(ApplicationProfile profile, SystemParameters system = {});

  const ApplicationProfile& profile() const { return profile_; }
  const SystemParameters& system() const { return system_; }
  uint32_t n() const { return profile_.n; }

  // --- Derived quantities (§4.1) -----------------------------------------
  double c(uint32_t i) const { return profile_.c[i]; }
  double d(uint32_t i) const { return profile_.d[i]; }
  double fan(uint32_t i) const { return profile_.fan[i]; }
  double size(uint32_t i) const { return profile_.size[i]; }

  // shar_i = d_i * fan_i / c_{i+1} unless overridden (Fig. 3).
  double shar(uint32_t i) const;
  // e_i = d_{i-1} * fan_{i-1} / shar_{i-1}, 1 <= i <= n (Fig. 3).
  double e(uint32_t i) const;
  // ref_i = d_i * fan_i (Fig. 3).
  double ref(uint32_t i) const { return d(i) * fan(i); }
  // P_{A_i} = d_i / c_i (Eq. 1).
  double PA(uint32_t i) const { return d(i) / c(i); }
  // P_{H_i} = e_i / c_i (Eq. 2).
  double PH(uint32_t i) const { return e(i) / c(i); }

  // RefBy(i, j): objects in t_j referenced by some object in t_i via at
  // least one partial path (Eq. 6). RefBy(i, i) := c_i for convenience.
  double RefBy(uint32_t i, uint32_t j) const;
  // P_RefBy(i, j) (Eq. 7).
  double PRefBy(uint32_t i, uint32_t j) const;
  // Ref(i, j): objects of t_i with a path to some object of t_j (Eq. 8).
  double Ref(uint32_t i, uint32_t j) const;
  // P_Ref(i, j) (Eq. 9).
  double PRef(uint32_t i, uint32_t j) const;
  // path(i, j): number of paths between t_i and t_j objects (Eq. 10).
  double PathCount(uint32_t i, uint32_t j) const;

  // Three-argument variants anchored at a k-element subset (Eqs. 29, 30).
  // RefBy(i, j, k): t_j objects on a partial path from a k-subset of t_i.
  double RefBy(uint32_t i, uint32_t j, double k) const;
  // Ref(i, j, k): t_i objects with a path to a k-subset of t_j.
  double Ref(uint32_t i, uint32_t j, double k) const;

  // Yao's function y(k, m, n): pages touched when k of n records spread
  // over m pages are retrieved (§5.6).
  static double Yao(double k, double m, double n);

  // P_lb / P_rb (Eqs. 11, 12).
  double Plb(uint32_t i, uint32_t j) const;
  double Prb(uint32_t i, uint32_t j) const;

  // --- Cardinalities and storage (§4.2, §4.3) ------------------------------
  // #E_X^{i,j}: expected tuples in partition [i..j] of extension X.
  double Cardinality(ExtensionKind x, uint32_t i, uint32_t j) const;

  // ats (Eq. 13), atpp (Eq. 14).
  double TupleBytes(uint32_t i, uint32_t j) const;
  double TuplesPerPage(uint32_t i, uint32_t j) const;
  // as (Eq. 15), ap (Eq. 16).
  double PartitionBytes(ExtensionKind x, uint32_t i, uint32_t j) const;
  double PartitionPages(ExtensionKind x, uint32_t i, uint32_t j) const;

  // Total bytes of the whole access relation under a decomposition
  // (non-redundant representation, as plotted in Figs. 4/5).
  double TotalBytes(ExtensionKind x, const Decomposition& dec) const;

  // --- Object and B+ tree pages (§5.5) -----------------------------------
  // opp_i (Eq. 17), op_i (Eq. 18).
  double ObjectsPerPage(uint32_t i) const;
  double ObjectPages(uint32_t i) const;
  // ht (Eq. 19), pg (Eq. 20).
  double BTreeHeight(ExtensionKind x, uint32_t i, uint32_t j) const;
  double BTreeNonLeafPages(ExtensionKind x, uint32_t i, uint32_t j) const;
  // nlp (Eqs. 21-24) and Rnlp (Eqs. 25-28): leaf pages per key value of the
  // forward- and reverse-clustered tree respectively.
  double LeafPagesPerValue(ExtensionKind x, uint32_t i, uint32_t j) const;
  double RevLeafPagesPerValue(ExtensionKind x, uint32_t i, uint32_t j) const;

  // --- Query costs (§5.6-§5.8) ---------------------------------------------
  // Qnas (Eqs. 31, 32): page accesses without access support.
  double QueryNoSupport(QueryDirection dir, uint32_t i, uint32_t j) const;
  // Qsup (Eqs. 33, 34): page accesses using the access support relation.
  double QuerySupported(ExtensionKind x, QueryDirection dir, uint32_t i,
                        uint32_t j, const Decomposition& dec) const;
  // Q (Eq. 35): dispatches to Qsup or Qnas depending on extension coverage.
  double QueryCost(ExtensionKind x, QueryDirection dir, uint32_t i,
                   uint32_t j, const Decomposition& dec) const;

  // --- Update costs (§6) -----------------------------------------------------
  // P_Path / P_NoPath (Eqs. 37, 38).
  double PPath(uint32_t l) const;
  double PNoPath(uint32_t l) const;
  // search_X^i (Eq. 36): locating the new paths for ins_i.
  double UpdateSearchCost(ExtensionKind x, uint32_t i,
                          const Decomposition& dec) const;
  // Cluster counts qfw/qbw (§6.2.1-§6.2.4).
  double ClustersForward(ExtensionKind x, uint32_t i, uint32_t lo,
                         uint32_t hi) const;
  double ClustersBackward(ExtensionKind x, uint32_t i, uint32_t lo,
                          uint32_t hi) const;
  // aup_X^i (§6.2): updating the partition B+ trees.
  double UpdateTreeCost(ExtensionKind x, uint32_t i,
                        const Decomposition& dec) const;
  // Full cost of ins_i: 3 (object update) + search + aup (§6).
  double UpdateCost(ExtensionKind x, uint32_t i,
                    const Decomposition& dec) const;
  // ins_i without any access relation: just the object update.
  double UpdateCostNoSupport() const { return 3.0; }

 private:
  ApplicationProfile profile_;
  SystemParameters system_;
  std::vector<double> shar_;
  std::vector<double> e_;
};

}  // namespace asr::cost

#endif  // ASR_COST_COST_MODEL_H_
