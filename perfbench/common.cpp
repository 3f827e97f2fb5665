#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include <ctime>

#include "index/grid_index.hpp"
#include "mix.hpp"
#include "shard/codec.hpp"
#include "shard/world.hpp"
#include "synth/cells.hpp"
#include "synth/counties.hpp"
#include "synth/hazard.hpp"
#include "synth/usatlas.hpp"
#include "trace.hpp"

namespace fa::perfbench {

namespace {

double g_start = 0.0;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics of BENCHMARK.json. Every workload records each
// of them for its own phases (README.md, "Metrics").
constexpr MetricDef kEndToEnd[] = {{"setup_s", "s"},
                                   {"start_s", "s"},
                                   {"latency_ms", "ms"},
                                   {"throughput_per_s", "1/s"},
                                   {"peak_rss_mb", "MB"}};

// Per-layer metrics a workload records itself.
constexpr MetricDef kRecordedLayers[] = {
    {"exec.repro_cpu_per_wall", "ratio"},
    {"exec.ensemble_cpu_per_wall", "ratio"},
    {"ensemble.member_ms", "ms"},
    {"ensemble.fires", "count"},
    {"ensemble.outage_site_days", "count"},
    {"delta.events_per_tick", "count"},
    {"delta.dirty_txr_per_tick", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"net.dropped_connections", "count"}};

enum class Stat { kMedian, kMean, kP99 };

// A per-layer metric read off the spans: the median (mean, p99) self
// time of the spans named `span`, in `unit`.
struct SpanMetric {
  std::string name;
  std::string span;
  std::string unit;
  Stat stat;
};

std::vector<SpanMetric> span_metrics() {
  std::vector<SpanMetric> out;
  for (const char* span :
       {"synth.corpus", "synth.whp", "synth.counties", "core.world_from_parts",
        "index.grid_build", "core.whp_overlay", "core.provider_risk",
        "core.validation", "core.case_study", "core.population",
        "core.future_exposure", "core.roadside", "store.commit",
        "shard.recover", "shard.materialize", "delta.log_replay"}) {
    out.push_back({std::string(span) + "_s", span, "s", Stat::kMedian});
  }
  for (const auto& [span, unit] :
       {std::pair{"delta.ingest", "us"}, {"delta.apply", "ms"},
        {"shard.apply_update", "ms"}, {"delta.log_append", "ms"},
        {"serve.cache_hit", "us"}, {"wire.encode", "us"},
        {"wire.decode", "us"}, {"net.rtt", "us"}}) {
    out.push_back({std::string(span) + "_" + unit, span, unit, Stat::kMedian});
  }
  for (const std::string_view shape : kShapeNames) {
    const std::string span = "serve.eval." + std::string(shape);
    const std::string s(shape);
    out.push_back({"serve.eval_us." + s, span, "us", Stat::kMedian});
    out.push_back({"serve.eval_mean_us." + s, span, "us", Stat::kMean});
    out.push_back({"serve.eval_p99_us." + s, span, "us", Stat::kP99});
  }
  return out;
}

double span_value(const SpanMetric& m) {
  const std::vector<double> ns = Tracer::get().self_ns(m.span);
  const double scale = m.unit == "s" ? 1e-9 : m.unit == "ms" ? 1e-6 : 1e-3;
  switch (m.stat) {
    case Stat::kMedian:
      return median(ns) * scale;
    case Stat::kMean: {
      double sum = 0.0;
      for (const double v : ns) sum += v;
      return ns.empty() ? 0.0 : sum / static_cast<double>(ns.size()) * scale;
    }
    case Stat::kP99:
      return quantile(ns, 0.99) * scale;
  }
  return 0.0;
}

template <std::size_t N>
const MetricDef& find_def(const MetricDef (&table)[N], const std::string& name) {
  for (const MetricDef& d : table) {
    if (name == d.name) return d;
  }
  throw std::invalid_argument("not a metric of BENCHMARK.json: " + name);
}

const std::pair<double, std::string>* find(const Report::Metrics& metrics,
                                           const std::string& name) {
  for (const auto& [n, value] : metrics) {
    if (n == name) return &value;
  }
  return nullptr;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Report::Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " +
           json_number(metrics[i].second.first) + ", \"unit\": \"" +
           metrics[i].second.second + "\"}";
  }
  return out + "}";
}

}  // namespace

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::e2e_metric(const std::string& name, double value,
                        const std::string& what) {
  const MetricDef& def = find_def(kEndToEnd, name);
  e2e.push_back({name, {value, def.unit}});
  std::fprintf(stderr, "perfbench: %s = %.6g %s: %s\n", name.c_str(), value,
               def.unit, what.c_str());
}

void Report::layer_metric(const std::string& name, double value) {
  layers.push_back({name, {value, find_def(kRecordedLayers, name).unit}});
}

std::string Report::json(bool traced) const {
  Metrics metrics;
  if (traced) {
    for (const SpanMetric& m : span_metrics()) {
      metrics.push_back({m.name, {span_value(m), m.unit}});
    }
    for (const MetricDef& d : kRecordedLayers) {
      const auto* v = find(layers, d.name);
      metrics.push_back({d.name, {v != nullptr ? v->first : 0.0, d.unit}});
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      const auto* v = find(e2e, d.name);
      if (v == nullptr) {
        throw std::logic_error(std::string("no end-to-end metric ") + d.name);
      }
      metrics.push_back({d.name, *v});
    }
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics_json(metrics) + "}";
}

double wall_s() { return static_cast<double>(now_ns()) * 1e-9; }

void mark_process_start() { g_start = wall_s(); }

double process_seconds() { return wall_s() - g_start; }

double cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

synth::ScenarioConfig scenario() { return synth::ScenarioConfig::continental(); }

core::World build_world(const synth::ScenarioConfig& config) {
  const synth::UsAtlas& atlas = synth::UsAtlas::get();
  std::shared_ptr<const synth::WhpModel> whp;
  {
    const Span span("synth.whp");
    whp = std::make_shared<const synth::WhpModel>(
        synth::generate_whp(atlas, config));
  }
  cellnet::CellCorpus corpus;
  {
    const Span span("synth.corpus");
    corpus = synth::generate_corpus(atlas, config);
  }
  std::shared_ptr<const synth::CountyMap> counties;
  {
    const Span span("synth.counties");
    counties = std::make_shared<const synth::CountyMap>(
        synth::CountyMap::build(atlas, config));
  }
  const Span span("core.world_from_parts");
  return core::World::from_parts(std::move(corpus), std::move(whp),
                                 std::move(counties), config, {})
      .take();
}

store::Generation commit_sharded_store(const core::World& world,
                                       const core::ProviderRiskResult& risk,
                                       const std::string& dir) {
  shard::ShardedWorld sharded;
  {
    const Span span("shard.from_world");
    sharded = shard::ShardedWorld::from_world(world, risk,
                                              shard::LayoutOptions{});
  }
  const Span span("store.commit");
  store::StoreDir store = store::StoreDir::open(dir).take();
  return store.commit(shard::encode_sharded(sharded)).take();
}

serve::ServerOptions sharded_server_options(const std::string& dir,
                                            obs::Registry* registry) {
  serve::ServerOptions options;
  options.store_dir = dir;
  options.sharded = true;
  options.registry = registry;
  return options;
}

double cache_hit_ratio(const obs::Registry& registry) {
  const auto counters = registry.counters();
  const auto count = [&counters](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double hits = count("serve.cache.hits");
  const double lookups = hits + count("serve.cache.misses");
  return lookups > 0.0 ? hits / lookups : 0.0;
}

void grid_build_probe(const core::World& world, Report& report) {
  std::vector<geo::Vec2> positions;
  positions.reserve(world.corpus().size());
  for (const cellnet::Transceiver& t : world.corpus().transceivers()) {
    positions.push_back(t.position.as_vec());
  }
  const Span span("index.grid_build");
  const index::GridIndex grid(std::move(positions),
                              world.atlas().conus_bbox().inflated(0.5), 512,
                              256);
  report.check(grid.size() == world.corpus().size(),
               "grid index holds every transceiver");
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x100000001b3ULL ^ (stream + 0x51ed270b27a9e0f3ULL));
  rng.next();
  return rng.next();
}

}  // namespace fa::perfbench
