// Self-test of the benchmark's output checks: each check must accept
// the right answer and reject a deliberately wrong one (a count off by
// one, two top-K rows swapped, a stale epoch, a final world that is not
// identical). Runs on a small world in a few seconds:
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <string>
#include <utility>

#include "checks.hpp"
#include "core/provider_risk.hpp"
#include "core/whp_overlay.hpp"
#include "serve/snapshot.hpp"
#include "store/codec.hpp"

namespace {

using namespace fa;
using perfbench::diff_bytes;
using perfbench::diff_counts;
using perfbench::diff_epoch;
using perfbench::diff_monotone;
using perfbench::diff_response;

int g_failures = 0;

// `right` is what the check says about the true answer (must be empty),
// `wrong` what it says about the mutated one (must not be).
void expect(const char* name, const std::string& right, const std::string& wrong) {
  const bool ok = right.empty() && !wrong.empty();
  std::printf("%-44s %s%s%s\n", name, ok ? "ok" : "FAILED",
              wrong.empty() ? "" : "  (rejected: ", wrong.empty() ? "" : (wrong + ")").c_str());
  if (!right.empty()) std::printf("    right answer rejected: %s\n", right.c_str());
  if (!ok) ++g_failures;
}

}  // namespace

int main() {
  synth::ScenarioConfig config;
  config.corpus_scale = 1024.0;
  config.whp_cell_m = 10800.0;
  const core::World world = core::World::build(config);
  const std::shared_ptr<const serve::Snapshot> snap =
      serve::Snapshot::adopt(core::World::build(config), 1);

  // Per-class overlay counts, one off by one.
  const core::WhpOverlayResult overlay = core::run_whp_overlay(world);
  std::vector<std::uint64_t> counts(overlay.txr_by_class.begin(),
                                    overlay.txr_by_class.end());
  const std::vector<std::uint64_t> tally = perfbench::class_tally(world);
  std::vector<std::uint64_t> off = counts;
  ++off[3];
  expect("overlay class count off by one", diff_counts(tally, counts),
         diff_counts(tally, off));

  // A served bbox aggregate with one count off by one.
  const geo::LonLat center = world.corpus()[world.corpus().size() / 2].position;
  const serve::Request bbox = serve::BBoxAggregateQuery{
      geo::BBox{center.lon - 3.0, center.lat - 3.0, center.lon + 3.0,
                center.lat + 3.0}};
  const serve::Request topk = serve::TopKSitesQuery{center, 300e3, 10};
  const std::vector<serve::Request> requests{bbox, topk};
  const std::vector<serve::Response> expected =
      perfbench::brute_force(world, requests, 1);
  const serve::Response served_bbox =
      serve::evaluate(*snap, std::get<serve::BBoxAggregateQuery>(bbox));
  serve::Response bad_bbox = served_bbox;
  ++std::get<serve::BBoxAggregateResponse>(bad_bbox).by_provider[0];
  expect("bbox by-provider count off by one",
         diff_response(expected[0], served_bbox),
         diff_response(expected[0], bad_bbox));

  // Two top-K rows swapped.
  const serve::Response served_topk =
      serve::evaluate(*snap, std::get<serve::TopKSitesQuery>(topk));
  serve::Response swapped = served_topk;
  auto& rows = std::get<serve::TopKSitesResponse>(swapped).sites;
  if (rows.size() >= 2) std::swap(rows[0], rows[1]);
  expect("top-K rows swapped", diff_response(expected[1], served_topk),
         diff_response(expected[1], swapped));

  // A stale epoch: a reply from the previous snapshot, and a reader that
  // sees an epoch go back.
  serve::Response stale = served_bbox;
  std::get<serve::BBoxAggregateResponse>(stale).epoch = 0;
  expect("stale epoch in a reply", diff_epoch(served_bbox, 1),
         diff_epoch(stale, 1));
  expect("reader sees a stale epoch", diff_monotone({1, 1, 2, 3, 3}),
         diff_monotone({1, 2, 3, 2, 3}));

  // A final world that is not identical: one transceiver moved by a
  // micro-degree.
  const std::string bytes =
      store::encode_world(world, core::run_provider_risk(world));
  const auto rebuild = [&](bool nudge) {
    std::vector<cellnet::Transceiver> txr = world.corpus().transceivers();
    if (nudge) txr[txr.size() / 3].position.lon += 1e-6;
    const core::World w =
        core::World::from_parts(cellnet::CellCorpus(std::move(txr)),
                                world.whp_ptr(), world.counties_ptr(), config, {})
            .take();
    return store::encode_world(w, core::run_provider_risk(w));
  };
  expect("final world not identical", diff_bytes(bytes, rebuild(false)),
         diff_bytes(bytes, rebuild(true)));

  std::printf("%s\n", g_failures == 0 ? "selftest: all checks reject wrong answers"
                                      : "selftest: FAILED");
  return g_failures == 0 ? 0 : 1;
}
