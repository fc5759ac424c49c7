// Internal marching-squares cell processor, shared by the dense filter
// (marching_squares.cc) and the NDP post-filter's 2D sparse path
// (sparse_field.cc) — mirroring mc_core.h so both paths emit identical
// geometry from identical inputs.
#pragma once

#include "contour/mc_core.h"  // Inside, CellRows, EdgeVertexCache
#include "contour/polydata.h"
#include "grid/dims.h"

namespace vizndp::contour::detail {

// Cell corners: 0:(0,0) 1:(1,0) 2:(1,1) 3:(0,1).
// Cell edges:   0: 0-1 (bottom), 1: 1-2 (right), 2: 2-3 (top), 3: 3-0 (left).
inline constexpr std::array<std::array<std::int8_t, 2>, 4> kSqEdgeCorners = {{
    {0, 1}, {1, 2}, {2, 3}, {3, 0}}};

// Segments per case as edge pairs, -1 terminated; saddle cases (5, 10)
// are resolved at run time with the cell-average decider.
inline constexpr std::array<std::array<std::int8_t, 5>, 16> kSqSegments = {{
    {-1, -1, -1, -1, -1},   // 0000
    {3, 0, -1, -1, -1},     // 0001: corner 0 inside
    {0, 1, -1, -1, -1},     // 0010
    {3, 1, -1, -1, -1},     // 0011
    {1, 2, -1, -1, -1},     // 0100
    {-1, -1, -1, -1, -1},   // 0101: saddle
    {0, 2, -1, -1, -1},     // 0110
    {3, 2, -1, -1, -1},     // 0111
    {2, 3, -1, -1, -1},     // 1000
    {2, 0, -1, -1, -1},     // 1001
    {-1, -1, -1, -1, -1},   // 1010: saddle
    {2, 1, -1, -1, -1},     // 1011
    {1, 3, -1, -1, -1},     // 1100
    {1, 0, -1, -1, -1},     // 1101: only corner 1 outside -> edges 0 and 1
    {0, 3, -1, -1, -1},     // 1110: only corner 0 outside -> edges 0 and 3
    {-1, -1, -1, -1, -1},   // 1111
}};

template <typename T, typename Geo = grid::UniformGeometry>
class SquareCellProcessor {
 public:
  // Rows j and j+1, in the corner-row form of mc_core.h.
  using Rows = CellRows<T, 2>;

  SquareCellProcessor(const grid::Dims& dims, const Geo& geo, PolyData& out)
      : dims_(dims), geo_(geo), out_(out) {}

  void BeginIsovalue(double iso, std::int64_t slots) {
    iso_ = iso;
    edge_vertices_.Reset(slots);
  }

  void ForgetSlots(std::int64_t begin, std::int64_t count) {
    edge_vertices_.Forget(begin, count);
  }

  void ProcessCell(const Rows& rows) {
    double corner_values[4];
    unsigned case_index = 0;
    for (int c = 0; c < 4; ++c) {
      corner_values[c] = static_cast<double>(
          rows.value[kSqCornerRow[static_cast<size_t>(c)]]
                    [kSqCornerDx[static_cast<size_t>(c)]]);
      if (Inside(corner_values[c], iso_)) case_index |= 1u << c;
    }
    if (case_index == 0 || case_index == 15) return;

    const auto emit = [&](int ea, int eb) {
      out_.AddLine(VertexOnEdge(ea, rows, corner_values),
                   VertexOnEdge(eb, rows, corner_values));
    };
    if (case_index == 5 || case_index == 10) {
      const double center = 0.25 * (corner_values[0] + corner_values[1] +
                                    corner_values[2] + corner_values[3]);
      const bool center_inside = Inside(center, iso_);
      if (case_index == 5) {  // corners 0 and 2 inside
        if (center_inside) {
          emit(3, 2);
          emit(1, 0);
        } else {
          emit(3, 0);
          emit(1, 2);
        }
      } else {  // corners 1 and 3 inside
        if (center_inside) {
          emit(0, 3);
          emit(2, 1);
        } else {
          emit(0, 1);
          emit(2, 3);
        }
      }
      return;
    }
    const auto& segs = kSqSegments[case_index];
    for (int s = 0; segs[static_cast<size_t>(s)] != -1; s += 2) {
      emit(segs[static_cast<size_t>(s)], segs[static_cast<size_t>(s + 1)]);
    }
  }

 private:
  // Corner c sits in row kSqCornerRow[c] at i + kSqCornerDx[c].
  static constexpr int kSqCornerRow[4] = {0, 0, 1, 1};
  static constexpr int kSqCornerDx[4] = {0, 1, 1, 0};

  PolyData::Index VertexOnEdge(int e, const Rows& rows,
                               const double* corner_values) {
    const int ca = kSqEdgeCorners[static_cast<size_t>(e)][0];
    const int cb = kSqEdgeCorners[static_cast<size_t>(e)][1];
    grid::PointId pa = rows.id[kSqCornerRow[ca]] + kSqCornerDx[ca];
    grid::PointId pb = rows.id[kSqCornerRow[cb]] + kSqCornerDx[cb];
    std::int64_t slot = rows.slot[kSqCornerRow[ca]] + kSqCornerDx[ca];
    double va = corner_values[ca];
    double vb = corner_values[cb];
    if (pa > pb) {
      std::swap(pa, pb);
      std::swap(va, vb);
      slot = rows.slot[kSqCornerRow[cb]] + kSqCornerDx[cb];
    }
    const int axis = (pb - pa == 1) ? 0 : 1;
    PolyData::Index& cached = edge_vertices_.At(slot, axis);
    if (cached != EdgeVertexCache<2>::kNone) return cached;
    const double t = (iso_ - va) / (vb - va);
    const auto a_pos = geo_.PointPosition(dims_, pa);
    const auto b_pos = geo_.PointPosition(dims_, pb);
    cached = out_.AddPoint({a_pos[0] + t * (b_pos[0] - a_pos[0]),
                            a_pos[1] + t * (b_pos[1] - a_pos[1]), 0.0});
    return cached;
  }

  grid::Dims dims_;
  const Geo& geo_;  // caller keeps the geometry alive
  PolyData& out_;
  double iso_ = 0.0;
  EdgeVertexCache<2> edge_vertices_;
};

}  // namespace vizndp::contour::detail
