#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>
#include <variant>

#include "geo/geodesy.hpp"

namespace fa::perfbench {

namespace {

using serve::BBoxAggregateQuery;
using serve::BBoxAggregateResponse;
using serve::PointRiskQuery;
using serve::PointRiskResponse;
using serve::ProviderExposureQuery;
using serve::ProviderExposureResponse;
using serve::RankedSite;
using serve::TopKSitesQuery;
using serve::TopKSitesResponse;

// A great-circle disc with a deliberately loose lon/lat box around it:
// the box only skips the haversine for points that are certainly out.
struct Disc {
  geo::LonLat center;
  double radius_m = 0.0;
  double dlat = 0.0;
  double dlon = 0.0;

  Disc(geo::LonLat c, double r) : center(c), radius_m(r) {
    dlat = r / geo::kEarthRadiusM * 180.0 / std::numbers::pi * 1.05 + 1e-6;
    const double lat = std::min(89.0, std::abs(c.lat) + dlat);
    dlon = dlat / std::max(0.01, std::cos(lat * std::numbers::pi / 180.0));
  }
  bool maybe(geo::LonLat p) const {
    return std::abs(p.lat - center.lat) <= dlat &&
           std::abs(p.lon - center.lon) <= dlon;
  }
  // Distance when inside the disc, negative otherwise.
  double inside(geo::LonLat p) const {
    if (!maybe(p)) return -1.0;
    const double d = geo::haversine_m(center, p);
    return d <= radius_m ? d : -1.0;
  }
};

template <class T>
void field(std::ostringstream& out, const char* name, const T& e, const T& g) {
  if (out.tellp() == 0 && !(e == g)) {
    out << name << ": expected " << +e << ", got " << +g;
  }
}

std::string diff(const PointRiskResponse& e, const PointRiskResponse& g) {
  std::ostringstream out;
  field(out, "point.epoch", e.epoch, g.epoch);
  field(out, "point.whp", static_cast<int>(e.whp), static_cast<int>(g.whp));
  field(out, "point.at_risk", e.at_risk, g.at_risk);
  field(out, "point.urban", e.urban, g.urban);
  field(out, "point.roadside", e.roadside, g.roadside);
  field(out, "point.state", e.state, g.state);
  field(out, "point.county", e.county, g.county);
  field(out, "point.nearby_txr", e.nearby_txr, g.nearby_txr);
  field(out, "point.nearby_at_risk", e.nearby_at_risk, g.nearby_at_risk);
  return out.str();
}

std::string diff(const BBoxAggregateResponse& e,
                 const BBoxAggregateResponse& g) {
  std::ostringstream out;
  field(out, "bbox.epoch", e.epoch, g.epoch);
  field(out, "bbox.transceivers", e.transceivers, g.transceivers);
  field(out, "bbox.at_risk", e.at_risk, g.at_risk);
  for (std::size_t c = 0; c < e.by_class.size(); ++c) {
    field(out, "bbox.by_class", e.by_class[c], g.by_class[c]);
  }
  for (std::size_t p = 0; p < e.by_provider.size(); ++p) {
    field(out, "bbox.by_provider", e.by_provider[p], g.by_provider[p]);
  }
  return out.str();
}

std::string diff(const ProviderExposureResponse& e,
                 const ProviderExposureResponse& g) {
  std::ostringstream out;
  field(out, "provider.epoch", e.epoch, g.epoch);
  field(out, "provider.provider", static_cast<int>(e.provider),
        static_cast<int>(g.provider));
  field(out, "provider.fleet", e.fleet, g.fleet);
  field(out, "provider.moderate", e.moderate, g.moderate);
  field(out, "provider.high", e.high, g.high);
  field(out, "provider.very_high", e.very_high, g.very_high);
  return out.str();
}

std::string diff(const TopKSitesResponse& e, const TopKSitesResponse& g) {
  std::ostringstream out;
  field(out, "topk.epoch", e.epoch, g.epoch);
  field(out, "topk.candidates", e.candidates, g.candidates);
  field(out, "topk.rows", e.sites.size(), g.sites.size());
  for (std::size_t i = 0; i < e.sites.size() && i < g.sites.size(); ++i) {
    if (out.tellp() == 0 && !(e.sites[i] == g.sites[i])) {
      out << "topk row " << i << ": expected txr " << e.sites[i].txr_id
          << " at " << e.sites[i].distance_m << " m, got txr "
          << g.sites[i].txr_id << " at " << g.sites[i].distance_m << " m";
    }
  }
  return out.str();
}

template <class R>
std::string diff(const R& e, const R& g) {
  return e == g ? std::string() : std::string("ensemble response differs");
}

}  // namespace

std::vector<serve::Response> brute_force(
    const core::World& world, std::span<const serve::Request> requests,
    serve::Epoch epoch) {
  const synth::WhpModel& whp = world.whp();
  const cellnet::ProviderRegistry& registry = world.provider_registry();
  std::vector<serve::Response> out;
  out.reserve(requests.size());

  // Per-request state for the one corpus pass.
  std::vector<Disc> discs;
  std::vector<std::size_t> disc_of(requests.size(), SIZE_MAX);
  std::vector<std::vector<RankedSite>> topk_candidates(requests.size());
  bool need_pass = false;
  bool need_fleet = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const serve::Request& r = requests[i];
    if (const auto* q = std::get_if<PointRiskQuery>(&r)) {
      PointRiskResponse a;
      a.epoch = epoch;
      a.whp = whp.class_at(q->point);
      a.at_risk = synth::whp_at_risk(a.whp);
      a.urban = whp.is_urban(q->point);
      a.roadside = whp.is_road(q->point);
      a.state = whp.state_at(q->point);
      a.county = world.counties().county_of(q->point);
      out.emplace_back(a);
      if (q->neighborhood_m > 0.0) {
        disc_of[i] = discs.size();
        discs.emplace_back(q->point, q->neighborhood_m);
        need_pass = true;
      }
    } else if (std::holds_alternative<BBoxAggregateQuery>(r)) {
      BBoxAggregateResponse a;
      a.epoch = epoch;
      out.emplace_back(a);
      need_pass = true;
    } else if (const auto* pq = std::get_if<ProviderExposureQuery>(&r)) {
      ProviderExposureResponse a;
      a.epoch = epoch;
      a.provider = pq->provider;
      out.emplace_back(a);
      need_pass = need_fleet = true;
    } else if (const auto* tq = std::get_if<TopKSitesQuery>(&r)) {
      TopKSitesResponse a;
      a.epoch = epoch;
      out.emplace_back(a);
      disc_of[i] = discs.size();
      discs.emplace_back(tq->center, tq->radius_m);
      need_pass = true;
    } else {
      out.emplace_back();  // ensemble shapes are not part of the mix
    }
  }
  if (!need_pass) return out;

  std::array<ProviderExposureResponse, cellnet::kNumProviders> fleet{};
  for (const cellnet::Transceiver& t : world.corpus().transceivers()) {
    const geo::LonLat p = t.position;
    // Class and provider are looked up lazily: most transceivers are
    // outside every query.
    int cls = -1;
    int provider = -1;
    const auto class_of = [&] {
      if (cls < 0) cls = static_cast<int>(whp.class_at(p));
      return static_cast<synth::WhpClass>(cls);
    };
    const auto provider_of = [&] {
      if (provider < 0) provider = static_cast<int>(registry.resolve(t.mcc, t.mnc));
      return static_cast<std::size_t>(provider);
    };
    if (need_fleet) {
      ProviderExposureResponse& f = fleet[provider_of()];
      ++f.fleet;
      switch (class_of()) {
        case synth::WhpClass::kModerate: ++f.moderate; break;
        case synth::WhpClass::kHigh: ++f.high; break;
        case synth::WhpClass::kVeryHigh: ++f.very_high; break;
        default: break;
      }
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const serve::Request& r = requests[i];
      if (const auto* q = std::get_if<BBoxAggregateQuery>(&r)) {
        if (!q->bbox.contains(p.as_vec())) continue;
        auto& a = std::get<BBoxAggregateResponse>(out[i]);
        const synth::WhpClass c = class_of();
        ++a.transceivers;
        ++a.by_class[static_cast<std::size_t>(c)];
        if (synth::whp_at_risk(c)) ++a.at_risk;
        ++a.by_provider[provider_of()];
      } else if (disc_of[i] != SIZE_MAX) {
        const double d = discs[disc_of[i]].inside(p);
        if (d < 0.0) continue;
        if (auto* a = std::get_if<PointRiskResponse>(&out[i])) {
          ++a->nearby_txr;
          if (synth::whp_at_risk(class_of())) ++a->nearby_at_risk;
        } else {
          topk_candidates[i].push_back({t.id, p, class_of(), d});
        }
      }
    }
  }

  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (const auto* q = std::get_if<ProviderExposureQuery>(&requests[i])) {
      auto& a = std::get<ProviderExposureResponse>(out[i]);
      const ProviderExposureResponse& f =
          fleet[static_cast<std::size_t>(q->provider)];
      a.fleet = f.fleet;
      a.moderate = f.moderate;
      a.high = f.high;
      a.very_high = f.very_high;
    } else if (const auto* tq = std::get_if<TopKSitesQuery>(&requests[i])) {
      // The documented total order: class descending, then distance,
      // then transceiver id.
      std::vector<RankedSite>& c = topk_candidates[i];
      std::sort(c.begin(), c.end(), [](const RankedSite& a, const RankedSite& b) {
        if (a.whp != b.whp) return a.whp > b.whp;
        if (a.distance_m != b.distance_m) return a.distance_m < b.distance_m;
        return a.txr_id < b.txr_id;
      });
      auto& a = std::get<TopKSitesResponse>(out[i]);
      a.candidates = static_cast<std::uint32_t>(c.size());
      c.resize(std::min<std::size_t>(c.size(), tq->k));
      a.sites = std::move(c);
    }
  }
  return out;
}

std::vector<std::uint64_t> class_tally(const core::World& world) {
  std::vector<std::uint64_t> tally(synth::kNumWhpClasses, 0);
  for (const cellnet::Transceiver& t : world.corpus().transceivers()) {
    ++tally[static_cast<std::size_t>(world.whp().class_at(t.position))];
  }
  return tally;
}

std::string diff_counts(const std::vector<std::uint64_t>& expected,
                        const std::vector<std::uint64_t>& got) {
  if (expected.size() != got.size()) {
    return "expected " + std::to_string(expected.size()) + " counts, got " +
           std::to_string(got.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != got[i]) {
      return "count " + std::to_string(i) + ": expected " +
             std::to_string(expected[i]) + ", got " + std::to_string(got[i]);
    }
  }
  return {};
}

std::string diff_response(const serve::Response& expected,
                          const serve::Response& got) {
  if (expected.index() != got.index()) return "response shape differs";
  return std::visit(
      [&got](const auto& e) {
        return diff(e, std::get<std::decay_t<decltype(e)>>(got));
      },
      expected);
}

serve::Epoch epoch_of(const serve::Response& r) {
  return std::visit([](const auto& v) { return v.epoch; }, r);
}

serve::Response without_epoch(serve::Response r) {
  std::visit([](auto& v) { v.epoch = 0; }, r);
  return r;
}

std::string diff_epoch(const serve::Response& got, serve::Epoch epoch) {
  const serve::Epoch e = epoch_of(got);
  if (e == epoch) return {};
  return "epoch: expected " + std::to_string(epoch) + ", got " +
         std::to_string(e);
}

std::string diff_monotone(const std::vector<serve::Epoch>& epochs) {
  for (std::size_t i = 1; i < epochs.size(); ++i) {
    if (epochs[i] < epochs[i - 1]) {
      return "epoch went back from " + std::to_string(epochs[i - 1]) +
             " to " + std::to_string(epochs[i]) + " at read " +
             std::to_string(i);
    }
  }
  return {};
}

std::string diff_bytes(const std::string& expected, const std::string& got) {
  if (expected.size() != got.size()) {
    return "encoding size: expected " + std::to_string(expected.size()) +
           " bytes, got " + std::to_string(got.size());
  }
  const auto [e, g] = std::mismatch(expected.begin(), expected.end(), got.begin());
  if (e == expected.end()) return {};
  return "encodings differ at byte " + std::to_string(e - expected.begin());
}

}  // namespace fa::perfbench
