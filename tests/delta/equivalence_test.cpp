// The tentpole contract: a world advanced by incremental deltas is
// byte-identical — snapshot encode AND a golden query battery — to a
// from-scratch rebuild of the same final state. Randomized across
// seeds so the property covers arbitrary event interleavings, not one
// hand-picked script.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "delta/apply.hpp"
#include "delta/feed.hpp"
#include "delta_test_util.hpp"
#include "synth/rng.hpp"

namespace fa::delta {
namespace {

using testing::ChainResult;
using testing::encode;
using testing::rebuild_reference;
using testing::Reference;
using testing::run_chain;
using testing::small_risk;
using testing::small_world;

// The "golden query battery" of the acceptance criteria: every serving
// read path exercised against both worlds, answers compared exactly.
void expect_query_battery_identical(const core::World& delta_built,
                                    const core::World& rebuilt,
                                    const core::ProviderRiskResult& d_risk,
                                    const core::ProviderRiskResult& r_risk,
                                    std::uint64_t seed) {
  ASSERT_EQ(delta_built.corpus().size(), rebuilt.corpus().size());
  const index::GridIndex& di = delta_built.txr_index();
  const index::GridIndex& ri = rebuilt.txr_index();
  synth::Rng rng(seed * 1315423911ull + 17);
  for (int probe = 0; probe < 32; ++probe) {
    const double cx = rng.uniform(-2.4e6, 2.4e6);
    const double cy = rng.uniform(-1.6e6, 1.6e6);
    const double half = rng.uniform(1e4, 4e5);
    const geo::BBox box{cx - half, cy - half, cx + half, cy + half};
    EXPECT_EQ(di.query_ids(box), ri.query_ids(box)) << "probe " << probe;
  }
  for (std::uint32_t id = 0; id < delta_built.corpus().size();
       id += 97) {
    EXPECT_EQ(delta_built.txr_class(id), rebuilt.txr_class(id))
        << "id " << id;
  }
  for (std::size_t p = 0; p < d_risk.rows.size(); ++p) {
    EXPECT_EQ(d_risk.rows[p].fleet, r_risk.rows[p].fleet);
    EXPECT_EQ(d_risk.rows[p].moderate, r_risk.rows[p].moderate);
    EXPECT_EQ(d_risk.rows[p].high, r_risk.rows[p].high);
    EXPECT_EQ(d_risk.rows[p].very_high, r_risk.rows[p].very_high);
  }
  EXPECT_EQ(d_risk.regional_brands_at_risk, r_risk.regional_brands_at_risk);
}

TEST(Equivalence, DeltaBuiltEpochMatchesFromScratchRebuild) {
  for (const std::uint64_t seed : {1ull, 7ull, 23ull, 101ull, 4099ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FeedOptions options;
    options.seed = seed;
    const ChainResult chain =
        run_chain(small_world(), small_risk(), options, 3);
    ASSERT_EQ(chain.batches_applied, 3u);
    const Reference ref = rebuild_reference(chain.world);
    EXPECT_EQ(encode(chain.world, chain.risk),
              encode(ref.world, ref.risk))
        << "snapshot bytes diverge from from-scratch rebuild";
    expect_query_battery_identical(chain.world, ref.world, chain.risk,
                                   ref.risk, seed);
  }
}

TEST(Equivalence, LongerChainStillMatches) {
  FeedOptions options;
  options.seed = 555;
  options.events_per_tick_mean = 64;
  const ChainResult chain =
      run_chain(small_world(), small_risk(), options, 8);
  ASSERT_EQ(chain.batches_applied, 8u);
  const Reference ref = rebuild_reference(chain.world);
  EXPECT_EQ(encode(chain.world, chain.risk), encode(ref.world, ref.risk));
}

TEST(Equivalence, ApplyIsDeterministic) {
  FeedOptions options;
  options.seed = 31;
  const ChainResult a = run_chain(small_world(), small_risk(), options, 3);
  const ChainResult b = run_chain(small_world(), small_risk(), options, 3);
  EXPECT_EQ(encode(a.world, a.risk), encode(b.world, b.risk));
}

TEST(Equivalence, EmptyBatchIsIdentity) {
  auto applied = Applier::apply(small_world(), small_risk(), {}, {});
  ASSERT_TRUE(applied.ok());
  ApplyResult result = std::move(applied).take();
  EXPECT_EQ(result.stats.events, 0u);
  EXPECT_TRUE(result.whp_shared);
  EXPECT_EQ(encode(result.world, result.provider_risk),
            encode(small_world(), small_risk()));
}

TEST(Equivalence, StructureSharingOnCorpusOnlyBatches) {
  // Add/retire/move never touch WHP or counties — those layers must be
  // the SAME allocation, not equal copies.
  std::vector<FeedEvent> batch;
  FeedEvent add;
  add.seq = 0;
  add.kind = EventKind::kAddTransceiver;
  add.txr.position = {-105.1, 39.9};
  add.txr.radio = cellnet::RadioType::kLte;
  add.txr.mcc = 310;
  add.txr.mnc = 410;
  add.txr.cell_id = 987654;
  batch.push_back(add);
  FeedEvent retire;
  retire.seq = 1;
  retire.kind = EventKind::kRetireTransceiver;
  retire.target = 3;
  batch.push_back(retire);
  FeedEvent move;
  move.seq = 2;
  move.kind = EventKind::kMoveTransceiver;
  move.target = 11;
  move.txr.position = {-104.8, 40.1};
  batch.push_back(move);

  auto applied = Applier::apply(small_world(), small_risk(), batch, {});
  ASSERT_TRUE(applied.ok());
  ApplyResult result = std::move(applied).take();
  EXPECT_TRUE(result.whp_shared);
  EXPECT_EQ(result.world.whp_ptr().get(), small_world().whp_ptr().get());
  EXPECT_EQ(result.world.counties_ptr().get(),
            small_world().counties_ptr().get());
}

TEST(Equivalence, CountiesAlwaysSharedEvenWhenWhpChanges) {
  FeedEvent patch;
  patch.seq = 0;
  patch.kind = EventKind::kWhpPatch;
  patch.patch_box = {-106.0, 39.0, -105.0, 40.0};
  patch.severity = synth::WhpClass::kVeryHigh;
  const std::vector<FeedEvent> batch{patch};
  auto applied = Applier::apply(small_world(), small_risk(), batch, {});
  ASSERT_TRUE(applied.ok());
  ApplyResult result = std::move(applied).take();
  EXPECT_FALSE(result.whp_shared);
  EXPECT_NE(result.world.whp_ptr().get(), small_world().whp_ptr().get());
  EXPECT_EQ(result.world.counties_ptr().get(),
            small_world().counties_ptr().get());
  // ...and the mutated-WHP world still matches a from-scratch rebuild.
  const Reference ref = rebuild_reference(result.world);
  EXPECT_EQ(encode(result.world, result.provider_risk),
            encode(ref.world, ref.risk));
}

}  // namespace
}  // namespace fa::delta
