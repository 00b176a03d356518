// Unit tests for Decomposition (Def. 3.8), its lookup helpers, and the
// HopPlans compiled from it (§5.6).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "asr/decomposition.h"
#include "asr/hop_plan.h"
#include "cost/cost_model.h"

namespace asr {
namespace {

TEST(DecompositionTest, NoneAndBinaryFactories) {
  Decomposition none = Decomposition::None(4);
  EXPECT_EQ(none.ToString(), "(0,4)");
  EXPECT_EQ(none.partition_count(), 1u);
  EXPECT_EQ(none.m(), 4u);

  Decomposition binary = Decomposition::Binary(4);
  EXPECT_EQ(binary.ToString(), "(0,1,2,3,4)");
  EXPECT_EQ(binary.partition_count(), 4u);
  for (size_t p = 0; p < 4; ++p) {
    auto [a, b] = binary.partition(p);
    EXPECT_EQ(a, p);
    EXPECT_EQ(b, p + 1);
  }
}

TEST(DecompositionTest, OfValidates) {
  EXPECT_TRUE(Decomposition::Of({0, 2, 4}, 4).ok());
  EXPECT_FALSE(Decomposition::Of({0, 2}, 4).ok());      // does not reach m
  EXPECT_FALSE(Decomposition::Of({1, 4}, 4).ok());      // does not start at 0
  EXPECT_FALSE(Decomposition::Of({0, 2, 2, 4}, 4).ok());  // not increasing
  EXPECT_FALSE(Decomposition::Of({0, 3, 2, 4}, 4).ok());  // not increasing
  EXPECT_FALSE(Decomposition::Of({}, 4).ok());
}

TEST(DecompositionTest, EnumerateAllCoversThePowerSet) {
  std::vector<Decomposition> all = Decomposition::EnumerateAll(4);
  EXPECT_EQ(all.size(), 8u);  // 2^(m-1)
  std::set<std::string> rendered;
  for (const Decomposition& dec : all) rendered.insert(dec.ToString());
  EXPECT_EQ(rendered.size(), 8u);
  EXPECT_TRUE(rendered.count("(0,4)") > 0);
  EXPECT_TRUE(rendered.count("(0,1,2,3,4)") > 0);
  EXPECT_TRUE(rendered.count("(0,2,4)") > 0);

  EXPECT_EQ(Decomposition::EnumerateAll(1).size(), 1u);
  EXPECT_EQ(Decomposition::EnumerateAll(5).size(), 16u);
}

TEST(DecompositionTest, BoundaryAndCoverageLookups) {
  Decomposition dec = Decomposition::Of({0, 2, 3, 5}, 5).value();

  EXPECT_TRUE(dec.IsBoundary(0));
  EXPECT_TRUE(dec.IsBoundary(2));
  EXPECT_TRUE(dec.IsBoundary(3));
  EXPECT_TRUE(dec.IsBoundary(5));
  EXPECT_FALSE(dec.IsBoundary(1));
  EXPECT_FALSE(dec.IsBoundary(4));

  EXPECT_EQ(dec.PartitionStartingAt(0), 0);
  EXPECT_EQ(dec.PartitionStartingAt(2), 1);
  EXPECT_EQ(dec.PartitionStartingAt(3), 2);
  EXPECT_EQ(dec.PartitionStartingAt(5), -1);  // nothing starts at m
  EXPECT_EQ(dec.PartitionStartingAt(1), -1);

  EXPECT_EQ(dec.PartitionEndingAt(2), 0);
  EXPECT_EQ(dec.PartitionEndingAt(3), 1);
  EXPECT_EQ(dec.PartitionEndingAt(5), 2);
  EXPECT_EQ(dec.PartitionEndingAt(0), -1);
  EXPECT_EQ(dec.PartitionEndingAt(4), -1);

  // Covering: leftmost partition containing the column (boundaries belong
  // to the partition ending there).
  EXPECT_EQ(dec.PartitionCovering(0), 0);
  EXPECT_EQ(dec.PartitionCovering(1), 0);
  EXPECT_EQ(dec.PartitionCovering(2), 0);
  EXPECT_EQ(dec.PartitionCovering(3), 1);
  EXPECT_EQ(dec.PartitionCovering(4), 2);
  EXPECT_EQ(dec.PartitionCovering(5), 2);
}

TEST(DecompositionTest, Equality) {
  EXPECT_TRUE(Decomposition::Binary(3) ==
              Decomposition::Of({0, 1, 2, 3}, 3).value());
  EXPECT_FALSE(Decomposition::Binary(3) == Decomposition::None(3));
}

// A compiled plan hops through exactly the partitions the Eq. 33/34 case
// table of CostModel::QuerySupported charges: a lookup where it charges a
// cluster lookup (ht + nlp at the entry column, 1 + Yao(...) further on), a
// scan where it charges ap, and no hop anywhere else.
TEST(HopPlanTest, HopsAreThePartitionsTheCostModelCharges) {
  for (const Decomposition& dec : Decomposition::EnumerateAll(4)) {
    for (uint32_t i = 0; i < 4; ++i) {
      for (uint32_t j = i + 1; j <= 4; ++j) {
        for (QueryDir dir : {QueryDir::kForward, QueryDir::kBackward}) {
          const bool forward = dir == QueryDir::kForward;
          SCOPED_TRACE(dec.ToString() + " Q_{" + std::to_string(i) + "," +
                       std::to_string(j) + "} " + (forward ? "fwd" : "bwd"));
          const HopPlan plan = HopPlan::Compile(dec, dir, i, j);
          ASSERT_FALSE(plan.hops.empty());

          // The hops chain from the entry column to the exit column.
          uint32_t col = forward ? i : j;
          std::map<size_t, Hop> by_partition;
          for (const Hop& hop : plan.hops) {
            EXPECT_EQ(hop.from_col, col);
            col = hop.to_col;
            EXPECT_TRUE(by_partition.emplace(hop.partition, hop).second)
                << "partition " << hop.partition << " hopped twice";
          }
          EXPECT_EQ(col, forward ? j : i);

          const cost::QueryDirection model_dir =
              forward ? cost::QueryDirection::kForward
                      : cost::QueryDirection::kBackward;
          for (size_t p = 0; p < dec.partition_count(); ++p) {
            auto [a, b] = dec.partition(p);
            const cost::QueryTerm term =
                cost::SupportedQueryTerm(model_dir, i, j, a, b);
            auto it = by_partition.find(p);
            if (term == cost::QueryTerm::kNone) {
              EXPECT_EQ(it, by_partition.end()) << "uncharged partition " << p;
              continue;
            }
            ASSERT_NE(it, by_partition.end()) << "charged partition " << p;
            const Hop& hop = it->second;
            EXPECT_EQ(hop.scan, term == cost::QueryTerm::kScan) << p;
            EXPECT_EQ(!hop.scan && hop.from_col == (forward ? i : j),
                      term == cost::QueryTerm::kEntryLookup)
                << p;
            EXPECT_EQ(hop.backward_tree, !forward && !hop.scan) << p;
          }
        }
      }
    }
  }
}

TEST(HopPlanTest, RendersOneClausePerHop) {
  Decomposition dec = Decomposition::Of({0, 2, 4}, 4).value();
  EXPECT_EQ(HopPlan::Compile(dec, QueryDir::kForward, 1, 4).ToString(),
            "scan p0.fwd 1->2; lookup p1.fwd 2->4");
  EXPECT_EQ(HopPlan::Compile(dec, QueryDir::kBackward, 0, 3).ToString(),
            "scan p1.fwd 3->2; lookup p0.bwd 2->0");
}

}  // namespace
}  // namespace asr
