// feed_churn: an in-process sharded Server over a committed store. A
// seeded FIRMS-style feed runs through FeedGenerator -> FeedIngestor ->
// Server::apply_delta (with delta-log appends) while one reader sends
// the serve_read mix; a cold start then replays the logged chain. It
// uses the serve and shard layers serve_read uses, plus the write path:
// epoch publication, cache invalidation, sharded delta apply and replay.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "delta/apply.hpp"
#include "delta/feed.hpp"
#include "delta/log.hpp"
#include "mix.hpp"
#include "serve/server.hpp"
#include "shard/apply.hpp"
#include "shard/codec.hpp"
#include "shard/recovery.hpp"
#include "shard/world.hpp"
#include "store/codec.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace fa::perfbench {

namespace {

constexpr int kTicks = 12;
constexpr int kProbesPerShape = 4;

std::string encode_snapshot(const serve::Snapshot& snap) {
  return store::encode_world(snap.world(), snap.provider_risk());
}

}  // namespace

void run_feed_churn(const Options& options, Report& report) {
  const synth::ScenarioConfig config = scenario();
  const std::string store_dir = options.scratch + "/store";
  const Mix mix(options.seed);
  std::size_t initial_size = 0;
  {
    const core::World world = build_world(config);
    const core::ProviderRiskResult risk = [&] {
      const Span span("core.provider_risk");
      return core::run_provider_risk(world);
    }();
    (void)commit_sharded_store(world, risk, store_dir);
    initial_size = world.corpus().size();
  }
  obs::Registry registry;
  auto server = std::make_unique<serve::Server>(
      config, sharded_server_options(store_dir, &registry));
  report.check(server->loaded_from_store(), "server cold-started from the store");
  // The generator keeps a raw pointer to the world it mirrors: pin that
  // snapshot for the generator's whole life (apply_delta retires it).
  std::shared_ptr<const serve::Snapshot> feed_root = server->snapshots().acquire();
  delta::FeedOptions feed_options;
  feed_options.seed = options.seed;
  auto generator = std::make_unique<delta::FeedGenerator>(
      [&]() -> const core::World& {
        const Span span("shard.materialize");
        return feed_root->world();
      }(),
      feed_options);
  delta::FeedIngestor ingestor;
  const double setup_s = process_seconds();

  // -- feed beside one reader ------------------------------------------
  std::atomic<bool> stop{false};
  std::vector<serve::Epoch> reader_epochs;
  std::vector<std::uint64_t> reader_done_ns;  // completion time per read
  std::thread reader([&] {
    Stream stream(mix_seed(options.seed, 100));
    reader_epochs.reserve(1 << 20);
    reader_done_ns.reserve(1 << 20);
    while (!stop.load(std::memory_order_acquire)) {
      for (int i = 0; i < 64; ++i) {
        reader_epochs.push_back(epoch_of(server->handle(mix.next(stream))));
        reader_done_ns.push_back(now_ns());
      }
    }
  });

  std::vector<double> update_ms;
  // Reader throughput per tick (generator poll to publication); the
  // metric is their median, so a stall in one tick does not set it.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> tick_windows;
  std::vector<std::vector<delta::FeedEvent>> batches;
  std::uint64_t adds = 0;
  std::uint64_t retires = 0;
  std::uint64_t applied_adds = 0;
  std::uint64_t applied_retires = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t dirty = 0;
  std::uint64_t events = 0;
  for (int tick = 0; tick < kTicks; ++tick) {
    const std::uint64_t window_start = now_ns();
    std::vector<delta::FeedEvent> raw = generator->tick();
    const double t0 = wall_s();
    fault::Result<std::vector<delta::FeedEvent>> cleaned = [&] {
      const Span span("delta.ingest");
      return ingestor.ingest(std::move(raw));
    }();
    ++report.attempted;
    if (!cleaned.ok()) {
      ++report.failed;
      continue;
    }
    delta::ApplyStats stats;
    const fault::Status applied = [&] {
      const Span span("serve.apply_delta");
      return server->apply_delta(cleaned.value(), &stats);
    }();
    update_ms.push_back((wall_s() - t0) * 1e3);
    tick_windows.emplace_back(window_start, now_ns());
    if (!applied.ok()) {
      ++report.failed;
      continue;
    }
    for (const delta::FeedEvent& e : cleaned.value()) {
      adds += e.kind == delta::EventKind::kAddTransceiver;
      retires += e.kind == delta::EventKind::kRetireTransceiver;
    }
    applied_adds += stats.adds;
    applied_retires += stats.retires;
    events += cleaned.value().size();
    quarantined += stats.quarantined;
    dirty += stats.dirty_transceivers;
    batches.push_back(std::move(cleaned).take());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  const double churn_rss_mb = peak_rss_mb();
  report.attempted += reader_epochs.size();
  std::vector<double> window_qps;
  for (const auto& [begin, end] : tick_windows) {
    const auto reads =
        std::upper_bound(reader_done_ns.begin(), reader_done_ns.end(), end) -
        std::upper_bound(reader_done_ns.begin(), reader_done_ns.end(), begin);
    window_qps.push_back(static_cast<double>(reads) * 1e9 /
                         static_cast<double>(end - begin));
  }
  const double churn_read_qps = median(window_qps);

  // -- checks ----------------------------------------------------------
  report.check(diff_monotone(reader_epochs).empty(),
               "reader epochs never decrease: " + diff_monotone(reader_epochs));
  report.check(quarantined == 0 && applied_adds == adds && applied_retires == retires,
               "every ingested add and retire was applied");
  std::shared_ptr<const serve::Snapshot> final_snap = server->snapshots().acquire();
  report.check(final_snap->epoch() == 1 + batches.size(),
               "one published epoch per applied tick");
  const core::World& final_world = final_snap->world();
  report.check(final_world.corpus().size() == initial_size + adds - retires,
               "final corpus size = initial + adds - retires");
  const std::string final_bytes = encode_snapshot(*final_snap);
  {
    const core::World reference =
        core::World::from_parts(
            cellnet::CellCorpus(final_world.corpus().transceivers()),
            final_world.whp_ptr(), final_world.counties_ptr(), config, {})
            .take();
    const std::string d = diff_bytes(
        store::encode_world(reference, core::run_provider_risk(reference)),
        final_bytes);
    report.check(d.empty(), "final epoch encodes as World::from_parts: " + d);
  }
  const std::string final_shards = shard::encode_sharded(*final_snap->sharded());
  std::vector<serve::Request> probes;
  Rng probe_rng(mix_seed(options.seed, 0x9b0e));
  for (int s = 0; s < kNumShapes; ++s) {
    for (int i = 0; i < kProbesPerShape; ++i) {
      probes.push_back(mix.fresh(probe_rng, static_cast<Shape>(s)));
    }
  }
  std::vector<serve::Response> probe_answers;
  for (const serve::Request& q : probes) {
    probe_answers.push_back(without_epoch(server->handle(q)));
  }
  const double hit_ratio = cache_hit_ratio(registry);
  generator.reset();
  feed_root.reset();
  final_snap.reset();
  server.reset();

  // -- cold start replaying the logged chain ---------------------------
  obs::Registry replay_registry;
  const double t0 = wall_s();
  serve::Server replayed(config,
                         sharded_server_options(store_dir, &replay_registry));
  const serve::Response first = replayed.handle(probes[0]);
  const double replay_s = wall_s() - t0;
  ++report.attempted;
  report.check(replayed.loaded_from_store(), "replay cold start loaded the store");
  {
    const std::shared_ptr<const serve::Snapshot> snap = replayed.snapshots().acquire();
    std::string d = diff_bytes(final_bytes, encode_snapshot(*snap));
    report.check(d.empty(), "replayed world encodes as the final epoch: " + d);
    d = diff_bytes(final_shards, shard::encode_sharded(*snap->sharded()));
    report.check(d.empty(), "replayed shards encode as the final epoch: " + d);
  }
  report.check(diff_response(probe_answers[0], without_epoch(first)).empty(),
               "replay: first answer");
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const std::string d =
        diff_response(probe_answers[i], without_epoch(replayed.handle(probes[i])));
    report.check(d.empty(), "replay answers the probe set identically: " + d);
  }
  report.attempted += probes.size();

  report.e2e_metric("setup_s", setup_s,
                    "world build, shard partition, store commit and server "
                    "cold start");
  report.e2e_metric("start_s", replay_s,
                    "Server cold start replaying 12 logged batches, to the "
                    "first answer");
  report.e2e_metric("latency_ms", median(update_ms),
                    "feed tick: ingest and apply_delta to publication, median");
  report.e2e_metric("throughput_per_s", churn_read_qps,
                    "reads per second beside the feed, median over the ticks");
  report.e2e_metric("peak_rss_mb", churn_rss_mb,
                    "process VmHWM before verification");
  if (!options.trace) return;

  // -- layer probes (after every end-to-end phase) ---------------------
  // The steps of apply_delta, replayed over the logged batches from the
  // committed generation: Applier::apply, then shard::apply_update.
  {
    shard::ShardedWorld view = shard::recover_sharded(store_dir).take().world;
    core::World world = view.materialize().take();
    core::ProviderRiskResult risk = view.provider_risk();
    for (const std::vector<delta::FeedEvent>& batch : batches) {
      delta::ApplyResult result = [&] {
        const Span span("delta.apply");
        return delta::Applier::apply(world, risk, batch).take();
      }();
      {
        const Span span("shard.apply_update");
        view = shard::apply_update(view, result);
      }
      world = std::move(result.world);
      risk = std::move(result.provider_risk);
    }
    const std::string d = diff_bytes(final_bytes, store::encode_world(world, risk));
    report.check(d.empty(), "layer-by-layer replay reaches the final epoch: " + d);
    grid_build_probe(world, report);
  }
  // Log appends into a store of their own (a one-line base image).
  {
    store::StoreDir dir =
        store::StoreDir::open(options.scratch + "/logstore").take();
    const store::Generation base = dir.commit("perfbench log base\n").take();
    delta::DeltaLog log = delta::DeltaLog::open(dir, base.number, base.crc).take();
    for (const std::vector<delta::FeedEvent>& batch : batches) {
      const Span span("delta.log_append");
      report.check(log.append(batch).ok(), "delta log append");
    }
  }

  report.layer_metric("delta.events_per_tick",
                      static_cast<double>(events) / kTicks);
  report.layer_metric("delta.dirty_txr_per_tick",
                      static_cast<double>(dirty) / kTicks);
  report.layer_metric("serve.cache_hit_ratio", hit_ratio);
}

}  // namespace fa::perfbench
