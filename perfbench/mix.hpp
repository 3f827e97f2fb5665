// The read mix both serving workloads send: point queries (bare and
// with a 30 km neighbourhood), region bboxes, region top-K and provider
// exposure. The spatial envelope and the region sizes are those of the
// repository's serve benches (bench/bench_serve_net.cpp,
// bench_serve_qps): centres uniform over lon [-122, -70] x lat [26, 48],
// 2 x 1.5 degree bboxes, top-10 within 75 km. A fixed share of requests
// comes from a small hot pool, so the result cache sees hits as well as
// misses; every other request is drawn fresh (continuous coordinates
// never repeat). The shape shares, the hot share and the pool size are
// the benchmark's own choice.
//
// A region query's cost follows the number of transceivers it covers,
// from none in open desert to hundreds of thousands around a city, so
// a run's throughput depends on how many of its region queries land in
// dense places. A connection, and the hot pool, therefore walk each
// shape's centres along a low-discrepancy (R2) sequence over the
// envelope from a seeded start: every run covers dense and empty ground
// in the same proportions, whatever the seed, while the centres
// themselves differ.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "serve/types.hpp"

namespace fa::perfbench {

enum class Shape : std::uint8_t { kPoint, kPointNbhd, kBBox, kTopK, kProvider };
inline constexpr int kNumShapes = 5;
inline constexpr std::array<std::string_view, kNumShapes> kShapeNames = {
    "point", "point_nbhd", "bbox", "topk", "provider"};

// Shares of fresh requests by shape (sum 1).
inline constexpr std::array<double, kNumShapes> kShapeWeights = {
    0.30, 0.30, 0.15, 0.15, 0.10};
// Share of requests drawn from the hot pool, and its size.
inline constexpr double kHotShare = 0.25;
inline constexpr std::size_t kHotPool = 64;
inline constexpr double kNbhdM = 30e3;
// Region sizes of the serve benches.
inline constexpr double kBBoxW = 2.0;
inline constexpr double kBBoxH = 1.5;
inline constexpr double kTopKRadiusM = 75e3;
inline constexpr std::uint32_t kTopK = 10;

Shape shape_of(const serve::Request& r);

// One connection's request sequence.
class Stream {
 public:
  explicit Stream(std::uint64_t seed);

  Rng rng;
  // The next centre of `shape`'s walk.
  geo::LonLat location(Shape shape);

 private:
  std::array<double, kNumShapes> u_{};
  std::array<double, kNumShapes> v_{};
};

class Mix {
 public:
  // The hot pool is drawn from `seed`.
  explicit Mix(std::uint64_t seed);

  // The next request of a connection's sequence.
  serve::Request next(Stream& stream) const;
  // A fresh request of the given shape at a uniformly drawn centre
  // (never from the hot pool).
  static serve::Request fresh(Rng& rng, Shape shape);

  const std::vector<serve::Request>& hot() const { return hot_; }

 private:
  std::vector<serve::Request> hot_;
};

}  // namespace fa::perfbench
