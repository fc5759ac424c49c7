// Internal marching-cubes cell processor, shared by the full-data filter
// (marching_cubes.cc) and the NDP post-filter's sparse reconstruction
// (sparse_field.cc). Both paths must produce bit-identical geometry, so
// all per-cell logic lives here exactly once.
//
// A cell reaches the processor as corner rows: the 3D rows are (j, k),
// (j+1, k), (j, k+1), (j+1, k+1), and each row holds the corners at i
// and i+1, adjacent both in point ids and in the caller's value array.
// Each row also names the edge-cache slot of its corner at i (the corner
// at i+1 has slot + 1). The dense filter's slots index a two-plane
// window of the grid; the sparse field's are ranks among its sorted
// ids. Either way edge vertices are found in one flat array.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "contour/mc_tables.h"
#include "contour/polydata.h"
#include "grid/dims.h"

namespace vizndp::contour::detail {

// Inside/outside convention used across the library (and by the
// pre-filter's edge classification): a point is inside iff value >= iso.
template <typename T>
bool Inside(T value, double iso) {
  return static_cast<double>(value) >= iso;
}

template <typename T, int kRows>
struct CellRows {
  grid::PointId id[kRows];  // point id of the row's corner at i
  std::int64_t slot[kRows];  // edge-cache slot of that corner
  const T* value[kRows];     // value[r][0] at i, value[r][1] at i+1
};

// Edge key (slot of the edge's lower endpoint * axes + axis) -> output
// point index, reset per isovalue.
template <int kAxes>
class EdgeVertexCache {
 public:
  static constexpr PolyData::Index kNone =
      std::numeric_limits<PolyData::Index>::max();

  void Reset(std::int64_t slots) {
    entries_.assign(static_cast<size_t>(slots * kAxes), kNone);
  }
  // Forgets slots [begin, begin + count) so a sliding window can reuse
  // them.
  void Forget(std::int64_t begin, std::int64_t count) {
    std::fill_n(entries_.begin() + begin * kAxes, count * kAxes, kNone);
  }
  PolyData::Index& At(std::int64_t slot, int axis) {
    return entries_[static_cast<size_t>(slot * kAxes + axis)];
  }

 private:
  std::vector<PolyData::Index> entries_;
};

template <typename T, typename Geo = grid::UniformGeometry>
class CellProcessor {
 public:
  using Rows = CellRows<T, 4>;

  CellProcessor(const grid::Dims& dims, const Geo& geo, PolyData& out)
      : dims_(dims), geo_(geo), out_(out) {}

  // Call before each isovalue pass: edge-vertex identity is per isovalue.
  // Slots of the pass lie in [0, slots).
  void BeginIsovalue(double iso, std::int64_t slots) {
    iso_ = iso;
    edge_vertices_.Reset(slots);
  }

  void ForgetSlots(std::int64_t begin, std::int64_t count) {
    edge_vertices_.Forget(begin, count);
  }

  // Emits triangles for the cell whose corner rows are `rows`.
  void ProcessCell(const Rows& rows) {
    T corner_values[8];
    unsigned case_index = 0;
    for (int c = 0; c < 8; ++c) {
      const auto& off = kCornerOffsets[static_cast<size_t>(c)];
      corner_values[c] = rows.value[off[1] + 2 * off[2]][off[0]];
      if (Inside(corner_values[c], iso_)) {
        case_index |= 1u << c;
      }
    }
    const std::uint16_t edge_mask = kMcEdgeTable[case_index];
    if (edge_mask == 0) return;

    PolyData::Index edge_point[12];
    for (int e = 0; e < 12; ++e) {
      if (edge_mask & (1u << e)) {
        edge_point[e] = VertexOnEdge(e, rows, corner_values);
      }
    }
    const auto& tris = kMcTriTable[case_index];
    for (int t = 0; tris[static_cast<size_t>(t)] != -1; t += 3) {
      out_.AddTriangle(edge_point[tris[static_cast<size_t>(t)]],
                       edge_point[tris[static_cast<size_t>(t + 1)]],
                       edge_point[tris[static_cast<size_t>(t + 2)]]);
    }
  }

 private:
  PolyData::Index VertexOnEdge(int e, const Rows& rows,
                               const T* corner_values) {
    const int ca = kEdgeCorners[static_cast<size_t>(e)][0];
    const int cb = kEdgeCorners[static_cast<size_t>(e)][1];
    const auto& oa = kCornerOffsets[static_cast<size_t>(ca)];
    const auto& ob = kCornerOffsets[static_cast<size_t>(cb)];
    const int ra = oa[1] + 2 * oa[2];
    const int rb = ob[1] + 2 * ob[2];
    grid::PointId pa = rows.id[ra] + oa[0];
    grid::PointId pb = rows.id[rb] + ob[0];
    std::int64_t slot = rows.slot[ra] + oa[0];
    double va = static_cast<double>(corner_values[ca]);
    double vb = static_cast<double>(corner_values[cb]);
    if (pa > pb) {
      std::swap(pa, pb);
      std::swap(va, vb);
      slot = rows.slot[rb] + ob[0];
    }
    // Grid edges are axis-aligned; pb - pa is the stride of the axis.
    const std::int64_t stride = pb - pa;
    const int axis = stride == 1 ? 0 : (stride == dims_.nx ? 1 : 2);

    PolyData::Index& cached = edge_vertices_.At(slot, axis);
    if (cached != EdgeVertexCache<3>::kNone) return cached;

    // va != vb on a crossed edge (see Inside()), so t is well defined.
    const double t = (iso_ - va) / (vb - va);
    const auto a_pos = geo_.PointPosition(dims_, pa);
    const auto b_pos = geo_.PointPosition(dims_, pb);
    const Vec3 p{a_pos[0] + t * (b_pos[0] - a_pos[0]),
                 a_pos[1] + t * (b_pos[1] - a_pos[1]),
                 a_pos[2] + t * (b_pos[2] - a_pos[2])};
    cached = out_.AddPoint(p);
    return cached;
  }

  grid::Dims dims_;
  const Geo& geo_;  // caller keeps the geometry alive
  PolyData& out_;
  double iso_ = 0.0;
  EdgeVertexCache<3> edge_vertices_;
};

}  // namespace vizndp::contour::detail
