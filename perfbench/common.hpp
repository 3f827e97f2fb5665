// Shared pieces of the benchmark runner: the run report, timing and
// memory probes, the paper-scale world set-up and the store commit.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "store/store.hpp"
#include "synth/scenario.hpp"

namespace fa::perfbench {

// What one run prints as its last line: whether every output check
// held, how many operations were attempted and failed, and the metrics
// of the selected mode (end-to-end, or per-layer when traced). The
// metric names are those of BENCHMARK.json, and every workload prints
// all of them (see the tables in common.cpp).
struct Report {
  using Metrics =
      std::vector<std::pair<std::string, std::pair<double, std::string>>>;

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics e2e;     // recorded by every run
  Metrics layers;  // recorded by traced runs

  // Records a correctness check; a failed check is printed to stderr
  // and makes the whole run incorrect.
  void check(bool ok, const std::string& what);
  // Records an end-to-end metric (its unit comes from the table) and
  // prints to stderr what it measures in this workload.
  void e2e_metric(const std::string& name, double value,
                  const std::string& what);
  // Records a per-layer metric the workload derives itself (a ratio, a
  // count or a cost per item); the rest are read off the spans.
  void layer_metric(const std::string& name, double value);
  // The result object. Untraced: every end-to-end metric, each of which
  // the workload must have recorded. Traced: every per-layer metric; a
  // layer the workload never called reads 0.
  std::string json(bool traced) const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5.0;
  bool trace = false;
  std::string scratch;    // per-run directory for stores and logs
  std::string served;     // path of the fa_served binary
  std::string trace_out;  // where the traced mode writes its spans
};

// Wall seconds since process start (main entry).
double process_seconds();
void mark_process_start();
double wall_s();
// CPU seconds of this process (all threads).
double cpu_s();
// Peak resident set (VmHWM) of `pid`, or of this process for 0, in MB.
double peak_rss_mb(int pid = 0);

double median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

// The paper-scale scenario every workload runs on: 5,364,949
// transceivers, the continental WHP grid and the paper's snapshot seed.
synth::ScenarioConfig scenario();

// Builds the world layer by layer (WHP, corpus, counties, then
// World::from_parts), one span per call, so the traced mode can split
// the set-up; the result equals World::build of the same scenario.
core::World build_world(const synth::ScenarioConfig& config);

// Partitions `world` with the default shard layout and commits the
// FASHRD01 image as a new generation of the store at `dir` — what
// Server::save_snapshot() writes for a sharded server.
store::Generation commit_sharded_store(const core::World& world,
                                       const core::ProviderRiskResult& risk,
                                       const std::string& dir);

// Options of an in-process sharded Server over the store at `dir`,
// counting into `registry`.
serve::ServerOptions sharded_server_options(const std::string& dir,
                                            obs::Registry* registry);

// Result-cache hits over lookups, from a server's registry.
double cache_hit_ratio(const obs::Registry& registry);

// Traced mode: builds a GridIndex over `world`'s transceiver positions
// with the parameters World uses (span "index.grid_build").
void grid_build_probe(const core::World& world, Report& report);

// Deterministic 64-bit generator (splitmix64): the benchmark draws its
// own inputs from the seed, independently of the library's generators.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace fa::perfbench
