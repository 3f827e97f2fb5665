#include "mix.hpp"

#include <variant>

namespace fa::perfbench {

namespace {

// The serve benches' envelope the query centres are drawn from.
constexpr geo::BBox kEnvelope{-122.0, 26.0, -70.0, 48.0};

// Steps of the R2 sequence (1/g and 1/g^2, g the plastic number).
constexpr double kR2U = 0.7548776662466927;
constexpr double kR2V = 0.5698402909980532;

geo::LonLat in_envelope(double u, double v) {
  return {kEnvelope.min_x + u * (kEnvelope.max_x - kEnvelope.min_x),
          kEnvelope.min_y + v * (kEnvelope.max_y - kEnvelope.min_y)};
}

serve::Request request_at(Shape shape, geo::LonLat c, Rng& rng) {
  switch (shape) {
    case Shape::kPoint:
      return serve::PointRiskQuery{c, 0.0};
    case Shape::kPointNbhd:
      return serve::PointRiskQuery{c, kNbhdM};
    case Shape::kBBox:
      return serve::BBoxAggregateQuery{
          geo::BBox{c.lon, c.lat, c.lon + kBBoxW, c.lat + kBBoxH}};
    case Shape::kTopK:
      return serve::TopKSitesQuery{c, kTopKRadiusM, kTopK};
    case Shape::kProvider:
      break;
  }
  serve::ProviderExposureQuery q;
  q.provider = static_cast<cellnet::Provider>(rng.below(cellnet::kNumProviders));
  return q;
}

}  // namespace

Shape shape_of(const serve::Request& r) {
  if (const auto* q = std::get_if<serve::PointRiskQuery>(&r)) {
    return q->neighborhood_m > 0.0 ? Shape::kPointNbhd : Shape::kPoint;
  }
  if (std::holds_alternative<serve::BBoxAggregateQuery>(r)) return Shape::kBBox;
  if (std::holds_alternative<serve::TopKSitesQuery>(r)) return Shape::kTopK;
  return Shape::kProvider;
}

Mix::Mix(std::uint64_t seed) {
  Stream hot(mix_seed(seed, 0x407));
  hot_.reserve(kHotPool);
  for (std::size_t i = 0; i < kHotPool; ++i) {
    const auto shape = static_cast<Shape>(i % kNumShapes);
    hot_.push_back(request_at(shape, hot.location(shape), hot.rng));
  }
}

Stream::Stream(std::uint64_t seed) : rng(seed) {
  for (int s = 0; s < kNumShapes; ++s) {
    u_[static_cast<std::size_t>(s)] = rng.unit();
    v_[static_cast<std::size_t>(s)] = rng.unit();
  }
}

geo::LonLat Stream::location(Shape shape) {
  const auto s = static_cast<std::size_t>(shape);
  u_[s] += kR2U;
  v_[s] += kR2V;
  u_[s] -= u_[s] >= 1.0 ? 1.0 : 0.0;
  v_[s] -= v_[s] >= 1.0 ? 1.0 : 0.0;
  return in_envelope(u_[s], v_[s]);
}

serve::Request Mix::fresh(Rng& rng, Shape shape) {
  const double u = rng.unit();
  return request_at(shape, in_envelope(u, rng.unit()), rng);
}

serve::Request Mix::next(Stream& stream) const {
  Rng& rng = stream.rng;
  if (rng.unit() < kHotShare) return hot_[rng.below(hot_.size())];
  const double u = rng.unit();
  double acc = 0.0;
  Shape shape = Shape::kProvider;
  for (int s = 0; s < kNumShapes; ++s) {
    acc += kShapeWeights[static_cast<std::size_t>(s)];
    if (u < acc) {
      shape = static_cast<Shape>(s);
      break;
    }
  }
  return request_at(shape, stream.location(shape), rng);
}

}  // namespace fa::perfbench
