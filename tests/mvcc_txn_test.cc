// Tests for transactional ASR maintenance and consistent-epoch snapshot
// readers (asr/txn.cc, asr/snapshot.h): snapshot isolation across all four
// extension kinds against a fault-free twin, multi-writer maintenance over
// shared and disjoint partition stores (the TSan stress surface), clean
// Aborted resolution when retries exhaust, and the OpenSnapshot
// preconditions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "asr/access_support_relation.h"
#include "asr/snapshot.h"
#include "paper_example.h"
#include "storage/mvcc.h"

namespace asr {
namespace {

using testing::CompanyBase;
using testing::MakeCompanyBase;
using testing::MakeCompanyPath;

constexpr ExtensionKind kAllKinds[] = {
    ExtensionKind::kCanonical, ExtensionKind::kFull,
    ExtensionKind::kLeftComplete, ExtensionKind::kRightComplete};

AsrOptions TxnOptions() {
  AsrOptions options;
  options.transactional = true;
  options.txn_max_retries = 64;  // generous: stress tests must not flake
  options.txn_backoff_us = 20;
  return options;
}

// Every supported query of `asr`, evaluated from a fixed candidate frontier
// per path position, as one canonical sorted answer table. Two ASRs over
// isomorphic bases agree iff their tables are equal — the "bit-identical to
// the twin" oracle.
std::vector<std::vector<uint64_t>> AnswerTable(
    AccessSupportRelation* asr, const std::vector<std::vector<AsrKey>>& keys) {
  std::vector<std::vector<uint64_t>> table;
  const uint32_t n = asr->path().n();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j <= n; ++j) {
      if (!asr->SupportsQuery(i, j)) continue;
      for (AsrKey start : keys[i]) {
        std::vector<uint64_t> row{i, j, 0, start.raw()};
        for (AsrKey k : asr->EvalForward(start, i, j).value()) {
          row.push_back(k.raw());
        }
        std::sort(row.begin() + 4, row.end());
        table.push_back(std::move(row));
      }
      for (AsrKey target : keys[j]) {
        std::vector<uint64_t> row{i, j, 1, target.raw()};
        for (AsrKey k : asr->EvalBackward(target, i, j).value()) {
          row.push_back(k.raw());
        }
        std::sort(row.begin() + 4, row.end());
        table.push_back(std::move(row));
      }
    }
  }
  return table;
}

// Snapshot variant of AnswerTable (AsrSnapshot mirrors the Eval contract).
std::vector<std::vector<uint64_t>> SnapshotAnswerTable(
    AsrSnapshot* snap, const AccessSupportRelation* asr,
    const std::vector<std::vector<AsrKey>>& keys) {
  std::vector<std::vector<uint64_t>> table;
  const uint32_t n = asr->path().n();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j <= n; ++j) {
      if (!asr->SupportsQuery(i, j)) continue;
      for (AsrKey start : keys[i]) {
        std::vector<uint64_t> row{i, j, 0, start.raw()};
        for (AsrKey k : snap->EvalForward(start, i, j).value()) {
          row.push_back(k.raw());
        }
        std::sort(row.begin() + 4, row.end());
        table.push_back(std::move(row));
      }
      for (AsrKey target : keys[j]) {
        std::vector<uint64_t> row{i, j, 1, target.raw()};
        for (AsrKey k : snap->EvalBackward(target, i, j).value()) {
          row.push_back(k.raw());
        }
        std::sort(row.begin() + 4, row.end());
        table.push_back(std::move(row));
      }
    }
  }
  return table;
}

// The Company base's objects, one candidate frontier per path position.
std::vector<std::vector<AsrKey>> CompanyKeys(CompanyBase* base) {
  return {
      {base->Key(base->auto_division), base->Key(base->truck_division),
       base->Key(base->space_division)},
      {base->Key(base->sec560), base->Key(base->mbtrak),
       base->Key(base->sausage)},
      {base->Key(base->door), base->Key(base->pepper)},
      {base->Name("Door"), base->Name("Pepper")},
  };
}

// Compares every partition of `asr` against a from-scratch rebuild over the
// same store (built transactionally too, so stores get private pools).
void ExpectMatchesRebuild(gom::ObjectStore* store, AccessSupportRelation* asr,
                          const std::string& context) {
  auto rebuilt =
      AccessSupportRelation::Build(store, asr->path(), asr->kind(),
                                   asr->decomposition(), asr->options())
          .value();
  ASSERT_EQ(rebuilt->partition_count(), asr->partition_count());
  for (size_t p = 0; p < asr->partition_count(); ++p) {
    rel::Relation actual = asr->DumpPartition(p).value();
    rel::Relation expected = rebuilt->DumpPartition(p).value();
    EXPECT_TRUE(actual.EqualsAsSet(expected))
        << context << " partition " << p << "\nactual:\n"
        << actual.ToString() << "expected:\n"
        << expected.ToString();
  }
}

class MvccTxnTest : public ::testing::TestWithParam<ExtensionKind> {
 protected:
  MvccTxnTest() : base_(MakeCompanyBase()), path_(MakeCompanyPath(*base_)) {
    base_->disk.AttachMvcc(&mvcc_);
  }

  std::unique_ptr<AccessSupportRelation> BuildTxn(ExtensionKind kind) {
    return AccessSupportRelation::Build(base_->store.get(), path_, kind,
                                        Decomposition::Binary(3), TxnOptions())
        .value();
  }

  storage::MvccManager mvcc_;
  std::unique_ptr<CompanyBase> base_;
  PathExpression path_;
};

TEST_P(MvccTxnTest, TransactionalEdgeOpsMatchRebuild) {
  auto asr = BuildTxn(GetParam());
  gom::ObjectStore* store = base_->store.get();

  AsrKey sausage = base_->Key(base_->sausage);
  AsrKey pepper = base_->Key(base_->pepper);
  AsrKey door = base_->Key(base_->door);

  ASSERT_TRUE(store->AddToSet(base_->prodset_auto, sausage).ok());
  ASSERT_TRUE(asr->OnEdgeInserted(base_->auto_division, 0, sausage).ok());
  ExpectMatchesRebuild(store, asr.get(), "after insert p=0");

  ASSERT_TRUE(store->AddToSet(base_->parts_560, pepper).ok());
  ASSERT_TRUE(asr->OnEdgeInserted(base_->sec560, 1, pepper).ok());
  ExpectMatchesRebuild(store, asr.get(), "after insert p=1");

  ASSERT_TRUE(store->RemoveFromSet(base_->parts_560, door).ok());
  ASSERT_TRUE(asr->OnEdgeRemoved(base_->sec560, 1, door).ok());
  ExpectMatchesRebuild(store, asr.get(), "after remove p=1");

  EXPECT_EQ(asr->journal().committed(), 3u);
  EXPECT_EQ(asr->journal().aborted(), 0u);
  EXPECT_EQ(asr->journal().unresolved(), 0u);
  EXPECT_GE(mvcc_.committed_epoch(), 3u);
}

// The isolation property for one decomposition: a snapshot opened before
// maintenance answers every supported query exactly like a fault-free twin
// that never saw the ops, while the live ASR moves on underneath it.
void ExpectSnapshotMatchesTwin(ExtensionKind kind, const Decomposition& dec) {
  storage::MvccManager mvcc;
  auto base = MakeCompanyBase();
  base->disk.AttachMvcc(&mvcc);
  auto asr = AccessSupportRelation::Build(base->store.get(),
                                          MakeCompanyPath(*base), kind, dec,
                                          TxnOptions())
                 .value();

  // The twin: an identical Company base (object creation is deterministic,
  // so keys compare raw-for-raw) that receives no maintenance.
  auto twin_base = MakeCompanyBase();
  auto twin = AccessSupportRelation::Build(twin_base->store.get(),
                                           MakeCompanyPath(*twin_base), kind,
                                           dec)
                  .value();

  auto snapshot = asr->OpenSnapshot().value();
  const storage::MvccEpoch pinned = snapshot->epoch();

  // Maintenance commits after the snapshot was pinned.
  gom::ObjectStore* store = base->store.get();
  AsrKey sausage = base->Key(base->sausage);
  AsrKey pepper = base->Key(base->pepper);
  AsrKey door = base->Key(base->door);
  ASSERT_TRUE(store->AddToSet(base->prodset_auto, sausage).ok());
  ASSERT_TRUE(asr->OnEdgeInserted(base->auto_division, 0, sausage).ok());
  ASSERT_TRUE(store->AddToSet(base->parts_560, pepper).ok());
  ASSERT_TRUE(asr->OnEdgeInserted(base->sec560, 1, pepper).ok());
  ASSERT_TRUE(store->RemoveFromSet(base->parts_560, door).ok());
  ASSERT_TRUE(asr->OnEdgeRemoved(base->sec560, 1, door).ok());

  auto keys = CompanyKeys(base.get());
  auto twin_keys = CompanyKeys(twin_base.get());
  EXPECT_EQ(SnapshotAnswerTable(snapshot.get(), asr.get(), keys),
            AnswerTable(twin.get(), twin_keys));
  EXPECT_EQ(snapshot->epoch(), pinned);

  // Sanity: the live ASR really did move — its answers differ from the
  // twin's (the inserted sausage/pepper paths are visible live).
  EXPECT_NE(AnswerTable(asr.get(), keys), AnswerTable(twin.get(), twin_keys));

  // A snapshot taken now sees the post-maintenance state.
  auto fresh = asr->OpenSnapshot().value();
  EXPECT_GT(fresh->epoch(), pinned);
  EXPECT_EQ(SnapshotAnswerTable(fresh.get(), asr.get(), keys),
            AnswerTable(asr.get(), keys));
}

// The tentpole isolation property, across all four extension kinds and
// every decomposition of the path: interior entry columns make the snapshot
// run partition scans as well as cluster lookups.
TEST_P(MvccTxnTest, SnapshotIsBitIdenticalToFaultFreeTwin) {
  for (const Decomposition& dec : Decomposition::EnumerateAll(3)) {
    SCOPED_TRACE(dec.ToString());
    ExpectSnapshotMatchesTwin(GetParam(), dec);
  }
}

TEST_P(MvccTxnTest, SnapshotSurvivesRebuild) {
  auto asr = BuildTxn(GetParam());
  auto keys = CompanyKeys(base_.get());
  auto before = AnswerTable(asr.get(), keys);

  auto snapshot = asr->OpenSnapshot().value();

  gom::ObjectStore* store = base_->store.get();
  AsrKey sausage = base_->Key(base_->sausage);
  ASSERT_TRUE(store->AddToSet(base_->prodset_auto, sausage).ok());
  ASSERT_TRUE(asr->OnEdgeInserted(base_->auto_division, 0, sausage).ok());
  // A full in-place rebuild reloads every partition mid-snapshot.
  ASSERT_TRUE(asr->Rebuild().ok());

  EXPECT_EQ(SnapshotAnswerTable(snapshot.get(), asr.get(), keys), before);
  EXPECT_NE(AnswerTable(asr.get(), keys), before);
  ExpectMatchesRebuild(store, asr.get(), "after rebuild under snapshot");
}

INSTANTIATE_TEST_SUITE_P(AllExtensions, MvccTxnTest,
                         ::testing::ValuesIn(kAllKinds),
                         [](const ::testing::TestParamInfo<ExtensionKind>& i) {
                           return ExtensionKindName(i.param);
                         });

// Two writers on ONE transactional ASR: every operation claims all its
// partition stores, so the writers serialize through Aborted-claim retries
// with backoff. Both must succeed on every op and the final trees must match
// a rebuild. (The edges touch disjoint row sets, so the object-store reads
// inside each maintenance op are unaffected by the other writer's churn.)
TEST(MvccTxnConcurrencyTest, SharedStoreWritersSerializeViaRetry) {
  auto base = MakeCompanyBase();
  storage::MvccManager mvcc;
  base->disk.AttachMvcc(&mvcc);
  auto asr = AccessSupportRelation::Build(
                 base->store.get(), MakeCompanyPath(*base),
                 ExtensionKind::kCanonical, Decomposition::Binary(3),
                 TxnOptions())
                 .value();
  gom::ObjectStore* store = base->store.get();

  constexpr int kIters = 25;
  std::thread writer_a([&] {
    AsrKey sausage = AsrKey::FromOid(base->sausage);
    for (int i = 0; i < kIters; ++i) {
      ASSERT_TRUE(store->AddToSet(base->prodset_auto, sausage).ok());
      ASSERT_TRUE(
          asr->OnEdgeInserted(base->auto_division, 0, sausage).ok());
      ASSERT_TRUE(store->RemoveFromSet(base->prodset_auto, sausage).ok());
      ASSERT_TRUE(asr->OnEdgeRemoved(base->auto_division, 0, sausage).ok());
    }
  });
  std::thread writer_b([&] {
    AsrKey pepper = AsrKey::FromOid(base->pepper);
    for (int i = 0; i < kIters; ++i) {
      ASSERT_TRUE(store->AddToSet(base->parts_560, pepper).ok());
      ASSERT_TRUE(asr->OnEdgeInserted(base->sec560, 1, pepper).ok());
      ASSERT_TRUE(store->RemoveFromSet(base->parts_560, pepper).ok());
      ASSERT_TRUE(asr->OnEdgeRemoved(base->sec560, 1, pepper).ok());
    }
  });
  writer_a.join();
  writer_b.join();

  EXPECT_EQ(asr->journal().committed(), 4u * kIters);
  EXPECT_EQ(asr->journal().unresolved(), 0u);
  EXPECT_EQ(asr->journal().aborted(), 0u);
  ExpectMatchesRebuild(store, asr.get(), "after concurrent shared-store ops");
}

// N writers over DISJOINT partitions: one shared base, one anchored
// transactional ASR per writer over its own private subgraph. Claims never
// collide; the conflict surface shrinks to the storage commit lock. Under
// -DASR_SANITIZE=thread this is the multi-writer race check. ASR_WRITERS
// picks the fleet size (default 4).
TEST(MvccTxnConcurrencyTest, DisjointAnchoredWritersRunConcurrently) {
  int writers = 4;
  if (const char* env = std::getenv("ASR_WRITERS")) {
    writers = std::max(2, std::min(8, std::atoi(env)));
  }

  auto base = MakeCompanyBase();
  storage::MvccManager mvcc;
  base->disk.AttachMvcc(&mvcc);
  gom::ObjectStore* store = base->store.get();
  TypeId division_set =
      base->schema.DefineSetType("DivisionSET", base->division_type).value();

  // Writer k's private chain: division -> prodset -> product -> partset
  // -> base part, plus a second base part whose edge the writer churns.
  struct Chain {
    Oid division, prodset, product, partset, part_a, part_b, anchor;
  };
  std::vector<Chain> chains(static_cast<size_t>(writers));
  for (int k = 0; k < writers; ++k) {
    Chain& c = chains[k];
    c.division = store->CreateObject(base->division_type).value();
    c.prodset = store->CreateSet(base->prodset_type).value();
    c.product = store->CreateObject(base->product_type).value();
    c.partset = store->CreateSet(base->basepartset_type).value();
    c.part_a = store->CreateObject(base->basepart_type).value();
    c.part_b = store->CreateObject(base->basepart_type).value();
    std::string tag = std::to_string(k);
    ASSERT_TRUE(store->SetString(c.division, "Name", "Div" + tag).ok());
    ASSERT_TRUE(store->SetRef(c.division, "Manufactures", c.prodset).ok());
    ASSERT_TRUE(
        store->AddToSet(c.prodset, AsrKey::FromOid(c.product)).ok());
    ASSERT_TRUE(store->SetString(c.product, "Name", "Prod" + tag).ok());
    ASSERT_TRUE(store->SetRef(c.product, "Composition", c.partset).ok());
    ASSERT_TRUE(
        store->AddToSet(c.partset, AsrKey::FromOid(c.part_a)).ok());
    ASSERT_TRUE(store->SetString(c.part_a, "Name", "PartA" + tag).ok());
    ASSERT_TRUE(store->SetString(c.part_b, "Name", "PartB" + tag).ok());
    c.anchor = store->CreateSet(division_set).value();
    ASSERT_TRUE(
        store->AddToSet(c.anchor, AsrKey::FromOid(c.division)).ok());
  }

  PathExpression path = MakeCompanyPath(*base);
  std::vector<std::unique_ptr<AccessSupportRelation>> asrs;
  for (int k = 0; k < writers; ++k) {
    AsrOptions options = TxnOptions();
    options.anchor_collection = chains[k].anchor;
    // Canonical: an anchored ASR materializes only complete paths from its
    // own anchor, so the writers' extensions are truly disjoint. (Full /
    // right-complete would put every writer's dangling right fragments into
    // every ASR and re-impose the §5.4 maintain-all contract.)
    asrs.push_back(AccessSupportRelation::Build(store, path,
                                                ExtensionKind::kCanonical,
                                                Decomposition::Binary(3),
                                                options)
                       .value());
  }

  constexpr int kIters = 20;
  std::vector<std::thread> fleet;
  for (int k = 0; k < writers; ++k) {
    fleet.emplace_back([&, k] {
      const Chain& c = chains[k];
      AccessSupportRelation* asr = asrs[k].get();
      AsrKey part_b = AsrKey::FromOid(c.part_b);
      for (int i = 0; i < kIters; ++i) {
        ASSERT_TRUE(store->AddToSet(c.partset, part_b).ok());
        ASSERT_TRUE(asr->OnEdgeInserted(c.product, 1, part_b).ok());
        if (i + 1 < kIters) {
          ASSERT_TRUE(store->RemoveFromSet(c.partset, part_b).ok());
          ASSERT_TRUE(asr->OnEdgeRemoved(c.product, 1, part_b).ok());
        }
      }
    });
  }
  for (std::thread& t : fleet) t.join();

  // Every writer's last insert stuck; every ASR matches its own rebuild and
  // still answers its anchored queries.
  for (int k = 0; k < writers; ++k) {
    const Chain& c = chains[k];
    AccessSupportRelation* asr = asrs[k].get();
    EXPECT_EQ(asr->journal().committed(),
              static_cast<uint64_t>(2 * kIters - 1));
    EXPECT_EQ(asr->journal().unresolved(), 0u);
    auto fwd = asr->EvalForward(AsrKey::FromOid(c.division), 0, 3).value();
    std::set<uint64_t> names;
    for (AsrKey key : fwd) names.insert(key.raw());
    std::string tag = std::to_string(k);
    EXPECT_TRUE(names.count(
        AsrKey::FromString("PartB" + tag, store->string_dict()).raw()))
        << "writer " << k;
    ExpectMatchesRebuild(store, asr,
                         "writer " + std::to_string(k) + " final state");
  }
  EXPECT_GE(mvcc.committed_epoch(),
            static_cast<uint64_t>(writers) * (2 * kIters - 1));
}

// When every retry loses its claim, the operation resolves as a clean abort:
// Aborted to the caller, journal entry 'aborted' (not lost — recovery owes
// nothing), and the ASR unchanged. Releasing the claim and re-issuing
// converges to the rebuilt state.
TEST(MvccTxnConcurrencyTest, ExhaustedRetriesAbortCleanly) {
  auto base = MakeCompanyBase();
  storage::MvccManager mvcc;
  base->disk.AttachMvcc(&mvcc);
  AsrOptions options = TxnOptions();
  options.txn_max_retries = 2;
  options.txn_backoff_us = 1;
  auto asr = AccessSupportRelation::Build(
                 base->store.get(), MakeCompanyPath(*base),
                 ExtensionKind::kCanonical, Decomposition::Binary(3), options)
                 .value();
  gom::ObjectStore* store = base->store.get();
  AsrKey sausage = AsrKey::FromOid(base->sausage);
  ASSERT_TRUE(store->AddToSet(base->prodset_auto, sausage).ok());

  auto keys = CompanyKeys(base.get());
  auto before = AnswerTable(asr.get(), keys);
  {
    // A rival writer parks on one partition claim for the whole duration.
    std::unique_lock<std::mutex> rival(
        asr->partition_store(0)->claim_mu);
    Status st;
    std::thread writer([&] {
      st = asr->OnEdgeInserted(base->auto_division, 0, sausage);
    });
    writer.join();
    EXPECT_TRUE(st.IsAborted()) << st.ToString();
  }
  EXPECT_EQ(asr->journal().aborted(), 1u);
  EXPECT_EQ(asr->journal().lost(), 0u);
  EXPECT_EQ(asr->journal().unresolved(), 0u);
  EXPECT_EQ(AnswerTable(asr.get(), keys), before);

  // Re-issue with the claim free: converges.
  ASSERT_TRUE(asr->OnEdgeInserted(base->auto_division, 0, sausage).ok());
  ExpectMatchesRebuild(store, asr.get(), "after abort then retry");
}

TEST(MvccTxnPreconditionTest, OpenSnapshotRequiresTransactionalMode) {
  auto base = MakeCompanyBase();
  storage::MvccManager mvcc;
  base->disk.AttachMvcc(&mvcc);
  auto asr = AccessSupportRelation::Build(base->store.get(),
                                          MakeCompanyPath(*base),
                                          ExtensionKind::kCanonical,
                                          Decomposition::Binary(3))
                 .value();
  Status st = asr->OpenSnapshot().status();
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
}

TEST(MvccTxnPreconditionTest, TransactionalBuildRequiresMvccManager) {
  auto base = MakeCompanyBase();  // no manager attached
  auto built = AccessSupportRelation::Build(
      base->store.get(), MakeCompanyPath(*base), ExtensionKind::kCanonical,
      Decomposition::Binary(3), TxnOptions());
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsNotSupported()) << built.status().ToString();
}

TEST(MvccTxnPreconditionTest, FromEnvReadsRetryKnobs) {
  setenv("ASR_TXN_RETRIES", "17", 1);
  setenv("ASR_TXN_BACKOFF_US", "250", 1);
  AsrOptions options = AsrOptions::FromEnv();
  EXPECT_EQ(options.txn_max_retries, 17u);
  EXPECT_EQ(options.txn_backoff_us, 250u);
  unsetenv("ASR_TXN_RETRIES");
  unsetenv("ASR_TXN_BACKOFF_US");
  AsrOptions defaults = AsrOptions::FromEnv();
  EXPECT_EQ(defaults.txn_max_retries, AsrOptions{}.txn_max_retries);
  EXPECT_EQ(defaults.txn_backoff_us, AsrOptions{}.txn_backoff_us);
}

}  // namespace
}  // namespace asr
