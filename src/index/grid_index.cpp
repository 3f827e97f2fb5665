#include "index/grid_index.hpp"

#include <algorithm>
#include <cassert>

namespace fa::index {

GridIndex::GridIndex(std::vector<geo::Vec2> points, geo::BBox bounds,
                     int cols, int rows)
    : points_(std::move(points)),
      bounds_(bounds),
      cols_(std::max(1, cols)),
      rows_(std::max(1, rows)) {
  const double w = std::max(bounds_.width(), 1e-12);
  const double h = std::max(bounds_.height(), 1e-12);
  inv_cw_ = static_cast<double>(cols_) / w;
  inv_ch_ = static_cast<double>(rows_) / h;

  const std::size_t num_cells =
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  // Counting sort into bins.
  std::vector<std::uint32_t> counts(num_cells, 0);
  const auto bin_of = [this](geo::Vec2 p) {
    return static_cast<std::size_t>(row_of(p.y)) * cols_ +
           static_cast<std::size_t>(col_of(p.x));
  };
  for (const geo::Vec2& p : points_) ++counts[bin_of(p)];

  cell_start_.assign(num_cells + 1, 0);
  for (std::size_t c = 0; c < num_cells; ++c) {
    cell_start_[c + 1] = cell_start_[c] + counts[c];
  }
  binned_.resize(points_.size());
  std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                    cell_start_.end() - 1);
  for (std::uint32_t id = 0; id < points_.size(); ++id) {
    binned_[cursor[bin_of(points_[id])]++] = id;
  }
  binned_x_.resize(points_.size());
  binned_y_.resize(points_.size());
  for (std::size_t k = 0; k < binned_.size(); ++k) {
    const geo::Vec2 p = points_[binned_[k]];
    binned_x_[k] = p.x;
    binned_y_[k] = p.y;
  }
}

GridIndex GridIndex::applied(const PointDelta& delta) const {
  assert(delta.new_id_of.size() == points_.size());
  const std::size_t n_old = points_.size();

  // Survivor count + moved-point lookup.
  std::size_t n_kept = 0;
  for (const std::uint32_t nid : delta.new_id_of) {
    if (nid != PointDelta::kDropped) ++n_kept;
  }
  std::vector<std::uint8_t> moved_flag(n_old, 0);
  for (const PointDelta::Moved& m : delta.moved) {
    assert(m.old_id < n_old &&
           delta.new_id_of[m.old_id] != PointDelta::kDropped);
    moved_flag[m.old_id] = 1;
  }

  // The updated id-ordered point array — exactly what a fresh build
  // would be handed: survivors (moves applied) then adds.
  const std::size_t n_new = n_kept + delta.added.size();
  std::vector<geo::Vec2> pts(n_new);
  for (std::uint32_t old_id = 0; old_id < n_old; ++old_id) {
    const std::uint32_t nid = delta.new_id_of[old_id];
    if (nid == PointDelta::kDropped) continue;
    pts[nid] = points_[old_id];
  }
  for (const PointDelta::Moved& m : delta.moved) {
    pts[delta.new_id_of[m.old_id]] = m.to;
  }
  for (std::size_t i = 0; i < delta.added.size(); ++i) {
    pts[n_kept + i] = delta.added[i];
  }

  GridIndex next;
  next.bounds_ = bounds_;
  next.cols_ = cols_;
  next.rows_ = rows_;
  next.inv_cw_ = inv_cw_;
  next.inv_ch_ = inv_ch_;

  const auto bin_of = [this](geo::Vec2 p) {
    return static_cast<std::size_t>(row_of(p.y)) * cols_ +
           static_cast<std::size_t>(col_of(p.x));
  };

  // Incoming entries (movers re-binned under their new position, plus
  // adds), sorted by (cell, new id) so the per-cell merge below sees
  // them in canonical order.
  struct Incoming {
    std::size_t cell;
    std::uint32_t id;
  };
  std::vector<Incoming> incoming;
  incoming.reserve(delta.moved.size() + delta.added.size());
  for (const PointDelta::Moved& m : delta.moved) {
    const std::uint32_t nid = delta.new_id_of[m.old_id];
    incoming.push_back({bin_of(pts[nid]), nid});
  }
  for (std::size_t i = 0; i < delta.added.size(); ++i) {
    const std::uint32_t nid = static_cast<std::uint32_t>(n_kept + i);
    incoming.push_back({bin_of(pts[nid]), nid});
  }
  std::sort(incoming.begin(), incoming.end(),
            [](const Incoming& a, const Incoming& b) {
              return a.cell != b.cell ? a.cell < b.cell : a.id < b.id;
            });

  // Per-cell counts: old occupancy minus departures (drops + movers)
  // plus the incoming entries.
  const std::size_t num_cells =
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  std::vector<std::uint32_t> counts(num_cells, 0);
  for (std::size_t c = 0; c < num_cells; ++c) {
    counts[c] = cell_start_[c + 1] - cell_start_[c];
  }
  for (std::uint32_t old_id = 0; old_id < n_old; ++old_id) {
    if (delta.new_id_of[old_id] == PointDelta::kDropped ||
        moved_flag[old_id]) {
      --counts[bin_of(points_[old_id])];
    }
  }
  for (const Incoming& in : incoming) ++counts[in.cell];

  next.cell_start_.assign(num_cells + 1, 0);
  for (std::size_t c = 0; c < num_cells; ++c) {
    next.cell_start_[c + 1] = next.cell_start_[c] + counts[c];
  }

  // Fill each bin by merging its surviving old entries (already in
  // ascending old-id order; the remap is monotone over survivors, so
  // ascending new-id order too) with its incoming entries — restoring
  // the exact layout a counting-sorted fresh build produces.
  next.binned_.resize(n_new);
  next.binned_x_.resize(n_new);
  next.binned_y_.resize(n_new);
  std::size_t inc_cursor = 0;
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    std::uint32_t out = next.cell_start_[cell];
    std::uint32_t old_k = cell_start_[cell];
    const std::uint32_t old_end = cell_start_[cell + 1];
    const auto emit = [&](std::uint32_t id) {
      next.binned_[out] = id;
      next.binned_x_[out] = pts[id].x;
      next.binned_y_[out] = pts[id].y;
      ++out;
    };
    while (true) {
      // Next surviving stayer in this bin.
      std::uint32_t stay = PointDelta::kDropped;
      while (old_k < old_end) {
        const std::uint32_t old_id = binned_[old_k];
        if (delta.new_id_of[old_id] == PointDelta::kDropped ||
            moved_flag[old_id]) {
          ++old_k;
          continue;
        }
        stay = delta.new_id_of[old_id];
        break;
      }
      const bool has_inc =
          inc_cursor < incoming.size() && incoming[inc_cursor].cell == cell;
      if (stay == PointDelta::kDropped && !has_inc) break;
      if (stay != PointDelta::kDropped &&
          (!has_inc || stay < incoming[inc_cursor].id)) {
        emit(stay);
        ++old_k;
      } else {
        emit(incoming[inc_cursor].id);
        ++inc_cursor;
      }
    }
    assert(out == next.cell_start_[cell + 1]);
  }
  next.points_ = std::move(pts);
  return next;
}

int GridIndex::col_of(double x) const {
  const int c = static_cast<int>((x - bounds_.min_x) * inv_cw_);
  return std::clamp(c, 0, cols_ - 1);
}

int GridIndex::row_of(double y) const {
  const int r = static_cast<int>((y - bounds_.min_y) * inv_ch_);
  return std::clamp(r, 0, rows_ - 1);
}

std::vector<std::uint32_t> GridIndex::query_ids(const geo::BBox& q) const {
  std::size_t candidates = 0;
  query_spans(q, [&candidates](std::uint32_t b, std::uint32_t e) {
    candidates += e - b;
  });
  std::vector<std::uint32_t> out;
  out.reserve(candidates);
  query(q, [&out](std::uint32_t id, geo::Vec2) { out.push_back(id); });
  return out;
}

std::size_t GridIndex::count(const geo::BBox& q) const {
  std::size_t n = 0;
  query(q, [&n](std::uint32_t, geo::Vec2) { ++n; });
  return n;
}

}  // namespace fa::index
