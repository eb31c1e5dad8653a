// Per-plan uniform-grid index over RRT* tree nodes (planning/rrt_star.cc).
// Private to the planner; a header only so tests/planning_test.cc can pin
// its ties and boundaries directly.
//
// Exact by contract — the grid answers the same questions a linear scan over
// every node would, bit for bit:
//   - nearest(q) is the argmin of ((p - q).norm_squared(), index);
//   - near(q, r) is exactly the set of nodes with geom::distance(p, q) <= r.
// Cells only decide which nodes get looked at; every accept/reject decision
// is made on the same floating-point values the scan computes. The margins
// below are what makes "looked at" a superset of "could be in the answer".
//
// Each entry also carries its node's path cost. The planner's neighbor
// passes read and rewrite it there, through the cells near() just visited,
// and never touch the node array.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/check.h"
#include "geometry/geometry.h"

namespace roboads::planning::detail {

class NodeGrid {
 public:
  struct Entry {
    geom::Vec2 position;
    std::size_t index;
    double cost;
  };

  struct Nearest {
    std::size_t index = 0;
    double d2 = std::numeric_limits<double>::infinity();  // squared distance
    double cost = 0.0;
  };

  // One node within the query radius, pointing at its entry: valid until
  // the next insert(). `bound` never exceeds the node's exact
  // geom::distance to the query; `d` is that distance once known, and
  // negative before.
  struct Near {
    Entry* entry;
    double bound;
    double d;
  };

  // Covers [0, width] x [0, height] with square cells of edge `cell`. The
  // edge grows when it would need more than kMaxCells cells; any edge gives
  // the same answers, only the number of nodes looked at changes.
  NodeGrid(double width, double height, double cell) {
    ROBOADS_CHECK(width > 0.0 && height > 0.0 && cell > 0.0,
                  "node grid needs a positive extent and cell edge");
    while (std::ceil(width / cell) * std::ceil(height / cell) > kMaxCells) {
      cell *= 2.0;
    }
    cell_ = cell;
    inv_cell_ = 1.0 / cell;
    nx_ = std::max(1, static_cast<int>(std::ceil(width / cell)));
    ny_ = std::max(1, static_cast<int>(std::ceil(height / cell)));
    // Cell assignment (floor(x * (1 / cell))) and the cell-boundary
    // coordinates used below are each within a few ulps of the true
    // c * cell, i.e. O(1e-15) x (width + height + cell). This absolute slack
    // is six orders of magnitude larger, so a node can never sit farther
    // outside the region its cell index implies than `slack_`.
    slack_ = 1e-9 * (width + height + cell);
    cells_.resize(static_cast<std::size_t>(nx_) *
                  static_cast<std::size_t>(ny_));
  }

  void insert(std::size_t index, const geom::Vec2& p, double cost) {
    cells_[cell_index(cell_x(p.x), cell_y(p.y))].push_back({p, index, cost});
  }

  // Rings of cells around q's cell, nearest ring first. The search stops
  // only once the best squared distance is strictly below a margin-shrunk
  // bound on every cell not yet visited, so no unvisited node can beat or
  // tie it.
  Nearest nearest(const geom::Vec2& q) const {
    const int cx = cell_x(q.x);
    const int cy = cell_y(q.y);
    Nearest best;
    for (int k = 0;; ++k) {
      const int x0 = cx - k, x1 = cx + k, y0 = cy - k, y1 = cy + k;
      for (int j = std::max(y0, 0); j <= std::min(y1, ny_ - 1); ++j) {
        if (j == y0 || j == y1) {
          for (int i = std::max(x0, 0); i <= std::min(x1, nx_ - 1); ++i) {
            scan_nearest(i, j, q, best);
          }
        } else {
          if (x0 >= 0) scan_nearest(x0, j, q, best);
          if (x1 < nx_) scan_nearest(x1, j, q, best);
        }
      }
      // Every unvisited cell lies past an open side of the visited block
      // [x0, x1] x [y0, y1]; a node there is at least the gap from q to
      // that side away, less the cell-assignment slack.
      double gap = std::numeric_limits<double>::infinity();
      bool unvisited = false;
      if (x0 > 0) {
        unvisited = true;
        gap = std::min(gap, q.x - static_cast<double>(x0) * cell_);
      }
      if (x1 < nx_ - 1) {
        unvisited = true;
        gap = std::min(gap, static_cast<double>(x1 + 1) * cell_ - q.x);
      }
      if (y0 > 0) {
        unvisited = true;
        gap = std::min(gap, q.y - static_cast<double>(y0) * cell_);
      }
      if (y1 < ny_ - 1) {
        unvisited = true;
        gap = std::min(gap, static_cast<double>(y1 + 1) * cell_ - q.y);
      }
      if (!unvisited) return best;
      gap -= slack_;
      // An unvisited node's computed squared distance is its true one to
      // within a relative 4 ulps (~1e-15); the 1e-9 relative shrink puts
      // the bound strictly below anything such a node can compute.
      if (gap > 0.0 && best.d2 < gap * gap * (1.0 - 1e-9)) return best;
    }
  }

  // Replaces `out` with every node within `radius` of q, in no particular
  // order. Membership is settled by the squared distance when it is clear
  // of r^2 by a relative 1e-9 — far beyond the few-ulp disagreement between
  // a rounded sum of squares and std::hypot — and by the exact
  // geom::distance otherwise. The bound is that exact distance when it was
  // needed, else sqrt(d2) shrunk by a relative 1e-12: sqrt(d2) and
  // std::hypot each land within 2 ulps of the true norm, so a ~4500-ulp
  // shrink leaves a strict lower bound.
  void near(const geom::Vec2& q, double radius, std::vector<Near>& out) {
    out.clear();
    // A node counted in by geom::distance <= radius is truly within
    // radius * (1 + 1 ulp) of q; the reach covers that plus the slack.
    const double reach = radius * (1.0 + 1e-9) + slack_;
    const int x0 = cell_x(q.x - reach), x1 = cell_x(q.x + reach);
    const int y0 = cell_y(q.y - reach), y1 = cell_y(q.y + reach);
    const double r2 = radius * radius;
    const double r2_in = r2 * (1.0 - 1e-9);
    const double r2_out = r2 * (1.0 + 1e-9);
    for (int j = y0; j <= y1; ++j) {
      for (int i = x0; i <= x1; ++i) {
        for (Entry& e : cells_[cell_index(i, j)]) {
          const double d2 = (e.position - q).norm_squared();
          if (d2 > r2_out) continue;
          if (d2 < r2_in) {
            out.push_back({&e, std::sqrt(d2) * (1.0 - 1e-12), -1.0});
            continue;
          }
          const double d = geom::distance(e.position, q);
          if (d <= radius) out.push_back({&e, d, d});
        }
      }
    }
  }

 private:
  static constexpr double kMaxCells = 1 << 16;

  // Clamped in floating point before the cast, so coordinates outside the
  // arena (or far outside, as query reaches can be) land in an edge cell.
  static int clamp_cell(double scaled, int n) {
    return static_cast<int>(
        std::clamp(std::floor(scaled), 0.0, static_cast<double>(n - 1)));
  }
  int cell_x(double x) const { return clamp_cell(x * inv_cell_, nx_); }
  int cell_y(double y) const { return clamp_cell(y * inv_cell_, ny_); }
  std::size_t cell_index(int i, int j) const {
    return static_cast<std::size_t>(j) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(i);
  }

  void scan_nearest(int i, int j, const geom::Vec2& q, Nearest& best) const {
    for (const Entry& e : cells_[cell_index(i, j)]) {
      const double d2 = (e.position - q).norm_squared();
      if (d2 < best.d2 || (d2 == best.d2 && e.index < best.index)) {
        best = {e.index, d2, e.cost};
      }
    }
  }

  double cell_ = 0.0;
  double inv_cell_ = 0.0;
  double slack_ = 0.0;
  int nx_ = 1;
  int ny_ = 1;
  std::vector<std::vector<Entry>> cells_;
};

}  // namespace roboads::planning::detail
