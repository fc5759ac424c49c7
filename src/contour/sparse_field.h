// Client-side reconstruction for the NDP post-filter: the delivered
// points as sorted, unique ids plus their values, and a contour pass
// that visits only cells whose eight corners all arrived. By the
// selection invariant (see select.h) those cells include every mixed
// cell, so the result is identical to contouring the full field. Time
// and memory scale with the selection, never with the grid.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "contour/polydata.h"
#include "contour/select.h"
#include "grid/data_array.h"
#include "grid/dims.h"
#include "grid/rectilinear.h"

namespace vizndp::contour {

class SparseField {
 public:
  // An empty field; allocates nothing grid-sized.
  SparseField(grid::Dims dims, grid::DataType type);

  // Adds one delivery (a reply, a stream chunk, a shard's reply) as a
  // run: `values[i]` belongs to point `ids[i]`. Ids must be in range and
  // the value type must match the field's. Costs O(run): the runs are
  // only appended here, and sorted by id once, on the first read, where
  // of repeated ids the latest delivered value wins.
  void Scatter(std::span<const grid::PointId> ids,
               const grid::DataArray& values);

  static SparseField FromSelection(const Selection& selection,
                                   grid::DataType type);

  // The readers below are const, but the first one after a Scatter
  // sorts the delivered runs in place, so a field read from several
  // threads at once must have been read once before.
  bool IsValid(grid::PointId id) const {
    Sort();
    return std::binary_search(ids_.begin(), ids_.end(), id);
  }

  std::int64_t ValidCount() const {
    Sort();
    return static_cast<std::int64_t>(ids_.size());
  }
  const grid::Dims& dims() const { return dims_; }
  grid::DataType type() const { return type_; }

  // Contours the sparse field: marching cubes on 3D grids, marching
  // squares on 2D (nz == 1) grids. Output is bit-identical to the dense
  // filter over the full field the selection was taken from.
  PolyData Contour(const grid::UniformGeometry& geometry,
                   std::span<const double> isovalues) const;

  // Stretched-grid variant: the selection is geometry-independent, so the
  // client may apply rectilinear coordinates it knows locally.
  PolyData Contour(const grid::RectilinearGeometry& geometry,
                   std::span<const double> isovalues) const;

 private:
  // Stable-sorts the delivered points by id and keeps, of repeated
  // ids, the last delivered value. A no-op while the deliveries so far
  // are strictly ascending (a one-shot reply is).
  void Sort() const;
  template <typename Word>
  void SortAs() const;

  template <typename T, typename Geo>
  PolyData ContourT(const Geo& geometry,
                    std::span<const double> isovalues) const;

  // Calls visit(rows) for each cell whose corners were all delivered,
  // in cell-scan (k, j, i) order; kRows is 2 on 2D grids, 4 on 3D.
  template <int kRows, typename T, typename Visit>
  void ForEachCompleteCell(Visit&& visit) const;

  grid::Dims dims_;
  grid::DataType type_;
  // Delivery order; ascending and unique once sorted_.
  mutable std::vector<grid::PointId> ids_;
  mutable Bytes values_;  // values_[r] belongs to ids_[r]
  mutable bool sorted_ = true;
};

}  // namespace vizndp::contour
