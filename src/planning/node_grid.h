// Per-plan uniform-grid index over RRT* tree nodes (planning/rrt_star.cc).
// Private to the planner; a header only so tests/planning_test.cc can pin
// its ties and boundaries directly.
//
// Exact by contract — the grid answers the same questions a linear scan over
// every node would, bit for bit:
//   - nearest(q) is the argmin of ((p - q).norm_squared(), index), and
//     any_within(q, r) is std::sqrt of its squared distance <= r;
//   - parent_candidates and rewire_candidates visit exactly the nodes with
//     geom::distance(p, q) <= r whose cost and a lower bound of that
//     distance pass the planner's parent or rewire test, each with its
//     exact distance.
// Cells only decide which nodes get looked at; every accept/reject decision
// is made on the same floating-point values the scan computes. The margins
// below are what makes "looked at" a superset of "could be in the answer".
//
// Each entry also carries its node's path cost. The planner's neighbor
// passes read and rewrite it there, through the cells a scan just visited,
// and never touch the node array. Each cell keeps a lower bound of its
// entries' costs, lowered on every rewire, and an upper bound, which needs
// no upkeep because costs only fall; together with the cell's distance from
// the query they let a pass skip whole cells.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
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
    // Cell boundaries, the outer ones at infinity: coordinates outside the
    // arena land in an edge cell.
    const auto edges = [cell](int n) {
      std::vector<double> e(static_cast<std::size_t>(n) + 1);
      for (int k = 1; k < n; ++k) e[k] = static_cast<double>(k) * cell;
      e.front() = -std::numeric_limits<double>::infinity();
      e.back() = std::numeric_limits<double>::infinity();
      return e;
    };
    x_edges_ = edges(nx_);
    y_edges_ = edges(ny_);
    gx2_.resize(static_cast<std::size_t>(nx_));
    gy2_.resize(static_cast<std::size_t>(ny_));
  }

  void insert(std::size_t index, const geom::Vec2& p, double cost) {
    Cell& cell = cells_[cell_index(cell_x(p.x), cell_y(p.y))];
    cell.entries.push_back({p, index, cost});
    cell.min_cost = std::min(cell.min_cost, cost);
    cell.max_cost = std::max(cell.max_cost, cost);
    if (cell.entries.size() > kept_.size()) kept_.resize(cell.entries.size());
  }

  // Rings of cells around q's cell, nearest ring first, skipping each cell
  // whose every node is strictly farther than the best so far. The search
  // stops only once the best squared distance is strictly below a
  // margin-shrunk bound on every cell not yet visited, so no unvisited node
  // can beat or tie it.
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

  // True when some node has std::sqrt(d2) <= radius, d2 its squared
  // distance to q as nearest() computes it: exactly when
  // std::sqrt(nearest(q).d2) <= radius, since sqrt is monotone. Looks at the
  // cells of scan()'s block that can hold such a node and stops at the
  // first one. A node with sqrt(d2) <= radius has d2 at most a few ulps
  // above radius^2, far inside r2_out's relative 1e-9: r2_out only spares
  // the farther nodes their sqrt, and cell_gap2 whole cells of them.
  bool any_within(const geom::Vec2& q, double radius) const {
    const double reach = radius * (1.0 + 1e-9) + slack_;
    const int x0 = cell_x(q.x - reach), x1 = cell_x(q.x + reach);
    const int y0 = cell_y(q.y - reach), y1 = cell_y(q.y + reach);
    const double r2_out = radius * radius * (1.0 + 1e-9);
    for (int j = y0; j <= y1; ++j) {
      for (int i = x0; i <= x1; ++i) {
        if (cell_gap2(i, j, q) > r2_out) continue;
        for (const Entry& e : cells_[cell_index(i, j)].entries) {
          const double d2 = (e.position - q).norm_squared();
          if (d2 <= r2_out && std::sqrt(d2) <= radius) return true;
        }
      }
    }
    return false;
  }

  // The planner's parent pass over the nodes within `radius` of q. Calls
  // visit(entry, d), d the exact geom::distance(entry.position, q), for
  // exactly the nodes with d <= radius and e.cost + bound <= cost, `bound`
  // a lower bound of d (see scan()). `cost` is read again after every
  // visit, so the visitor may lower it.
  template <typename Visit>
  void parent_candidates(const geom::Vec2& q, double radius,
                         const double& cost, Visit&& visit) {
    scan<Pass::kParent>(q, radius, cost, visit);
  }

  // The planner's rewire pass: visit(entry, d) for exactly the nodes with
  // d <= radius and cost + bound + 1e-12 < e.cost. The visitor may lower
  // entry.cost; the cell's cost floor follows it.
  template <typename Visit>
  void rewire_candidates(const geom::Vec2& q, double radius, double cost,
                         Visit&& visit) {
    scan<Pass::kRewire>(q, radius, cost, visit);
  }

 private:
  static constexpr double kMaxCells = 1 << 16;

  enum class Pass { kParent, kRewire };

  struct Cell {
    std::vector<Entry> entries;
    double min_cost = std::numeric_limits<double>::infinity();
    double max_cost = -std::numeric_limits<double>::infinity();
  };

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

  // A bound on the squared distance to q that every node of cell (i, j)
  // computes: strictly below it when positive. The gap to the cell's
  // region, less the slack, is at most the true coordinate gap of any node
  // in the cell, and the relative shrink puts the bound below the few-ulp
  // rounding of the node's own squared distance, as in nearest().
  double cell_gap2(int i, int j, const geom::Vec2& q) const {
    return (square(gap(x_edges_, i, q.x)) + square(gap(y_edges_, j, q.y))) *
           (1.0 - 1e-9);
  }
  // The gap from coordinate v to cell k's span of `edges`, less the slack.
  double gap(const std::vector<double>& edges, int k, double v) const {
    return std::max(std::max(edges[k] - v, v - edges[k + 1]) - slack_, 0.0);
  }
  static double square(double v) { return v * v; }

  void scan_nearest(int i, int j, const geom::Vec2& q, Nearest& best) const {
    const Cell& cell = cells_[cell_index(i, j)];
    if (cell.entries.empty() || cell_gap2(i, j, q) > best.d2) return;
    for (const Entry& e : cell.entries) {
      const double d2 = (e.position - q).norm_squared();
      if (d2 < best.d2 || (d2 == best.d2 && e.index < best.index)) {
        best = {e.index, d2, e.cost};
      }
    }
  }

  // One pass over the block of cells that can hold a node within `radius`.
  //
  // The keep test. Write a for the node's cost, c for `cost`, b for the
  // bound and u = 2^-53. A node in the radius has d2 <= r2_out, and b is
  // either sqrt(d2) shrunk by 1e-12 or, near the radius, the exact hypot,
  // so sqrt(d2) <= b (1 + 2e-12) either way. The parent test
  // fl(a + b) <= c gives b <= (c - a) + c u / (1 - u); the rewire test
  // fl(fl(c + b) + 1e-12) < a gives b < (a - c) + a u / (1 - u). With
  // s = (c + radius) 1e-9 (from the pass's first cost), a node is kept when
  //   d2 <= min(t |t|, r2_out),  t = edge - a  (parent, edge = c + s)
  //                              t = a - edge  (rewire, edge = c - s),
  // every operation rounded. Each rounding moves t by a few ulps of
  // c + radius, and t exceeds the true bound on sqrt(d2) above by about
  // s: at least 0.99e-9 (c + radius). (In the rewire pass, a above
  // c + 1.5 radius gives t^2 > r2_out, so only a below that, and ulps of a
  // no larger than ulps of c + 1.5 radius, need the margin.) So every node
  // the exact tests below accept has t > 0 and is kept. A negative t keeps nothing,
  // as t |t| < 0 <= d2; the signed square spares the clamp at 0, which the
  // compiler turns into a branch. No sqrt and no branch per node.
  //
  // The cell test. t |t| is monotone in a, so the cell's cost floor
  // (parent) or ceiling (rewire) gives a limit no node of the cell can
  // exceed; a cell whose gap bound is above it holds no kept node.
  //
  // Each kept node then goes through the exact tests. Membership is settled
  // by the squared distance when it is clear of r^2 by a relative 1e-9 —
  // far beyond the few-ulp disagreement between a rounded sum of squares
  // and std::hypot — and by the exact geom::distance otherwise. The bound
  // is that exact distance when it was needed, else sqrt(d2) shrunk by a
  // relative 1e-12: sqrt(d2) and std::hypot each land within 2 ulps of the
  // true norm, so a ~4500-ulp shrink leaves a strict lower bound. Then come
  // the pass's bound test and the exact distance.
  template <Pass kPass, typename Visit>
  void scan(const geom::Vec2& q, double radius, const double& cost,
            Visit& visit) {
    // A node counted in by geom::distance <= radius is truly within
    // radius * (1 + 1 ulp) of q; the reach covers that plus the slack.
    const double reach = radius * (1.0 + 1e-9) + slack_;
    const int x0 = cell_x(q.x - reach), x1 = cell_x(q.x + reach);
    const int y0 = cell_y(q.y - reach), y1 = cell_y(q.y + reach);
    const double r2 = radius * radius;
    const double r2_in = r2 * (1.0 - 1e-9);
    const double r2_out = r2 * (1.0 + 1e-9);
    const double s = (cost + radius) * 1e-9;
    for (int i = x0; i <= x1; ++i) gx2_[i] = square(gap(x_edges_, i, q.x));
    for (int j = y0; j <= y1; ++j) gy2_[j] = square(gap(y_edges_, j, q.y));
    for (int j = y0; j <= y1; ++j) {
      for (int i = x0; i <= x1; ++i) {
        Cell& cell = cells_[cell_index(i, j)];
        const double edge = kPass == Pass::kParent ? cost + s : cost - s;
        const double t_cell = kPass == Pass::kParent ? edge - cell.min_cost
                                                     : cell.max_cost - edge;
        if ((gx2_[i] + gy2_[j]) * (1.0 - 1e-9) >
            std::min(t_cell * std::abs(t_cell), r2_out)) {
          continue;
        }

        const Entry* entries = cell.entries.data();
        const std::size_t size = cell.entries.size();
        std::size_t kept = 0;
        for (std::size_t k = 0; k < size; ++k) {
          const double d2 = (entries[k].position - q).norm_squared();
          const double t = kPass == Pass::kParent ? edge - entries[k].cost
                                                  : entries[k].cost - edge;
          kept_[kept] = static_cast<std::uint32_t>(k);
          kept += d2 <= std::min(t * std::abs(t), r2_out) ? 1 : 0;
        }

        for (std::size_t m = 0; m < kept; ++m) {
          Entry& e = cell.entries[kept_[m]];
          const double d2 = (e.position - q).norm_squared();
          if (d2 > r2_out) continue;
          double bound, d = -1.0;
          if (d2 < r2_in) {
            bound = std::sqrt(d2) * (1.0 - 1e-12);
          } else {
            d = geom::distance(e.position, q);
            if (d > radius) continue;
            bound = d;
          }
          if (kPass == Pass::kParent ? e.cost + bound > cost
                                     : cost + bound + 1e-12 >= e.cost) {
            continue;
          }
          if (d < 0.0) d = geom::distance(e.position, q);
          visit(e, d);
          if (kPass == Pass::kRewire) {
            cell.min_cost = std::min(cell.min_cost, e.cost);
          }
        }
      }
    }
  }

  double cell_ = 0.0;
  double inv_cell_ = 0.0;
  double slack_ = 0.0;
  int nx_ = 1;
  int ny_ = 1;
  std::vector<double> x_edges_;
  std::vector<double> y_edges_;
  // A scan's squared gaps per column and row of its block (cell_gap2's
  // terms, which depend on one coordinate each).
  std::vector<double> gx2_;
  std::vector<double> gy2_;
  std::vector<Cell> cells_;
  // Offsets of one cell's kept entries; as long as the largest cell.
  std::vector<std::uint32_t> kept_;
};

}  // namespace roboads::planning::detail
