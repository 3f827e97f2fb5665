// Server integration for sharded serving: byte-identity with the
// monolithic server through the public front door, FASHRD01 persistence
// and zero-copy cold start, incremental deltas that rebuild only the
// touched shards, degraded serving over a damaged store, and epoch
// purity under concurrent queries while swaps land (the TSan target).
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <thread>
#include <vector>

#include "delta/feed.hpp"
#include "serve/server.hpp"
#include "shard/codec.hpp"
#include "shard_test_util.hpp"
#include "store/codec.hpp"

namespace fa::shard {
namespace {

namespace st = fa::serve::testing;
using st::AnyQuery;
using st::AnyResponse;
using st::ask;
using st::epoch_of;
using testing::small_layout;
using testing::TempDir;

serve::ServerOptions sharded_options(const std::string& store_dir = "") {
  serve::ServerOptions options;
  options.sharded = true;
  options.shard_layout = small_layout();
  options.store_dir = store_dir;
  return options;
}

TEST(ServeSharded, FrontDoorMatchesMonolithicServer) {
  serve::Server mono(st::small_config());
  serve::Server shrd(st::small_config(), sharded_options());
  ASSERT_NE(shrd.snapshots().acquire()->sharded(), nullptr);
  const std::vector<AnyQuery> stream = st::make_stream(300, 17);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(ask(mono, stream[i]) == ask(shrd, stream[i]))
        << "query " << i << " diverged through the server front door";
  }
}

TEST(ServeSharded, SaveThenColdStartServesIdenticalAnswers) {
  TempDir tmp;
  const std::vector<AnyQuery> stream = st::make_stream(150, 23);
  std::vector<AnyResponse> before;
  {
    serve::Server server(st::small_config(), sharded_options(tmp.path));
    EXPECT_FALSE(server.loaded_from_store());
    ASSERT_TRUE(server.save_snapshot().ok());
    for (const AnyQuery& q : stream) before.push_back(ask(server, q));
  }
  serve::Server reborn(st::small_config(), sharded_options(tmp.path));
  EXPECT_TRUE(reborn.loaded_from_store());
  ASSERT_NE(reborn.snapshots().acquire()->sharded(), nullptr);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(before[i] == ask(reborn, stream[i]))
        << "query " << i << " changed across the cold start";
  }
}

TEST(ServeSharded, MonolithicStoreMigratesOnColdStart) {
  TempDir tmp;
  {
    serve::ServerOptions mono_options;
    mono_options.store_dir = tmp.path;
    serve::Server mono(st::small_config(), mono_options);
    ASSERT_TRUE(mono.save_snapshot().ok());
  }
  serve::Server shrd(st::small_config(), sharded_options(tmp.path));
  EXPECT_TRUE(shrd.loaded_from_store());
  ASSERT_NE(shrd.snapshots().acquire()->sharded(), nullptr);
  serve::Server fresh(st::small_config(), sharded_options());
  const std::vector<AnyQuery> stream = st::make_stream(120, 31);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(ask(shrd, stream[i]) == ask(fresh, stream[i]))
        << "query " << i << " diverged after FASNAP01 migration";
  }
}

TEST(ServeSharded, ApplyDeltaPublishesShardedEpochMatchingMonolithic) {
  serve::Server mono(st::small_config());
  serve::Server shrd(st::small_config(), sharded_options());

  delta::FeedOptions feed_options;
  feed_options.seed = 7;
  // The generator keeps a pointer to the world; pin the snapshot for
  // the generator's whole lifetime.
  const auto base = shrd.snapshots().acquire();
  delta::FeedGenerator gen(base->world(), feed_options);
  delta::FeedIngestor ingest_a, ingest_b;
  for (int tick = 0; tick < 3; ++tick) {
    const std::vector<delta::FeedEvent> events = gen.tick();
    auto a = ingest_a.ingest(events);
    auto b = ingest_b.ingest(events);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(mono.apply_delta(a.value()).ok());
    ASSERT_TRUE(shrd.apply_delta(b.value()).ok());
  }
  ASSERT_EQ(mono.epoch(), shrd.epoch());
  ASSERT_NE(shrd.snapshots().acquire()->sharded(), nullptr);
  const std::vector<AnyQuery> stream = st::make_stream(200, 41);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(ask(mono, stream[i]) == ask(shrd, stream[i]))
        << "query " << i << " diverged after incremental epochs";
  }
}

TEST(ServeSharded, ColdStartReplaysChainToServingBytes) {
  TempDir tmp;
  std::string live_shards;
  std::string live_world;
  {
    serve::Server server(st::small_config(), sharded_options(tmp.path));
    ASSERT_TRUE(server.save_snapshot().ok());  // roots the delta log
    delta::FeedOptions feed_options;
    feed_options.seed = 11;
    // The generator reads its world on every tick; pin the snapshot.
    const auto base = server.snapshots().acquire();
    delta::FeedGenerator gen(base->world(), feed_options);
    delta::FeedIngestor ingest;
    constexpr int kTicks = 4;
    std::size_t retire_batches = 0;
    for (int tick = 0; tick < kTicks; ++tick) {
      std::vector<delta::FeedEvent> events = gen.tick();
      if (tick == kTicks - 1) {
        // A retire-free last batch: the live server reaches it through
        // the incremental shard rebuild, not a full reshard.
        std::erase_if(events, [](const delta::FeedEvent& e) {
          return e.kind == delta::EventKind::kRetireTransceiver;
        });
      }
      auto accepted = ingest.ingest(std::move(events));
      ASSERT_TRUE(accepted.ok());
      delta::ApplyStats stats;
      ASSERT_TRUE(server.apply_delta(accepted.value(), &stats).ok());
      if (stats.retires > 0) ++retire_batches;
      if (tick == kTicks - 1) {
        EXPECT_EQ(stats.retires, 0u);
      }
    }
    EXPECT_GT(retire_batches, 0u);
    const auto live = server.snapshots().acquire();
    live_shards = encode_sharded(*live->sharded());
    live_world = store::encode_world(live->world(), live->provider_risk());
  }
  serve::Server reborn(st::small_config(), sharded_options(tmp.path));
  ASSERT_TRUE(reborn.loaded_from_store());
  const auto snap = reborn.snapshots().acquire();
  ASSERT_NE(snap->sharded(), nullptr);
  EXPECT_TRUE(encode_sharded(*snap->sharded()) == live_shards)
      << "replayed shards differ from the live final epoch";
  EXPECT_TRUE(store::encode_world(snap->world(), snap->provider_risk()) ==
              live_world)
      << "replayed world differs from the live final epoch";
}

TEST(ServeSharded, DamagedStoreServesDegradedAndRefusesPersist) {
  TempDir tmp;
  {
    serve::Server server(st::small_config(), sharded_options(tmp.path));
    ASSERT_TRUE(server.save_snapshot().ok());
  }
  // Damage exactly one shard payload in the committed generation.
  auto dir = store::StoreDir::open(tmp.path);
  ASSERT_TRUE(dir.ok());
  auto manifest = dir.value().read_manifest();
  ASSERT_TRUE(manifest.ok());
  ASSERT_FALSE(manifest.value().generations.empty());
  const std::string path =
      dir.value().file_path(manifest.value().generations.back().filename);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::string dirty;
  for (std::size_t frac = 3; frac <= 7; ++frac) {
    std::string candidate = bytes;
    const std::size_t at = bytes.size() * frac / 10;
    candidate[at] = static_cast<char>(candidate[at] ^ 0x40);
    auto report = inspect_sharded(candidate.data(), candidate.size(), "probe");
    if (!report.ok() || !report.value().globals_ok) continue;
    std::size_t bad = 0;
    for (const ShardReport& sh : report.value().shards) {
      if (!sh.crc_ok) ++bad;
    }
    if (bad == 1) {
      dirty = std::move(candidate);
      break;
    }
  }
  ASSERT_FALSE(dirty.empty());
  {
    std::ofstream out(path, std::ios::binary);
    out.write(dirty.data(), static_cast<std::streamsize>(dirty.size()));
  }

  serve::Server degraded(st::small_config(), sharded_options(tmp.path));
  EXPECT_TRUE(degraded.loaded_from_store());
  const serve::Snapshot& snap = *degraded.snapshots().acquire();
  ASSERT_NE(snap.sharded(), nullptr);
  EXPECT_EQ(snap.sharded()->quarantined_count(), 1u);
  // The surviving geography answers; a whole-domain aggregate sees a
  // subset, never a failure.
  const serve::BBoxAggregateResponse r = degraded.bbox_aggregate(
      serve::BBoxAggregateQuery{snap.sharded()->layout().domain()});
  EXPECT_GT(r.transceivers, 0u);
  EXPECT_LT(r.transceivers, snap.sharded()->total_points());
  // And the degraded view must not overwrite the store as the newest
  // generation.
  EXPECT_FALSE(degraded.save_snapshot().ok());
}

TEST(ServeSharded, ConcurrentQueriesStayEpochPureAcrossSwaps) {
  serve::Server server(st::tiny_config(1), sharded_options());
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> asked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&server, &stop, &asked, t] {
      const std::vector<AnyQuery> stream = st::make_stream(64, 100 + t);
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const AnyResponse r = ask(server, stream[i % stream.size()]);
        const serve::Epoch epoch = epoch_of(r);
        if (epoch < 1 || epoch > 4) {
          ADD_FAILURE() << "response from unknown epoch " << epoch;
          break;
        }
        ++i;
        asked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Swaps while the readers hammer: a rebuild and two incremental
  // epochs, all publishing sharded snapshots.
  ASSERT_TRUE(server.rebuild(st::tiny_config(2)).ok());
  delta::FeedOptions feed_options;
  feed_options.seed = 3;
  const auto base = server.snapshots().acquire();
  delta::FeedGenerator gen(base->world(), feed_options);
  delta::FeedIngestor ingestor;
  for (int tick = 0; tick < 2; ++tick) {
    auto cleaned = ingestor.ingest(gen.tick());
    ASSERT_TRUE(cleaned.ok());
    ASSERT_TRUE(server.apply_delta(cleaned.value()).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(asked.load(), 0u);
  ASSERT_NE(server.snapshots().acquire()->sharded(), nullptr);
}

}  // namespace
}  // namespace fa::shard
