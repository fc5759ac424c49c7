#include "contour/sparse_field.h"

#include <cstring>
#include <functional>

#include "common/error.h"
#include "contour/mc_core.h"
#include "contour/ms_core.h"

namespace vizndp::contour {

namespace {

template <typename Word>
Word LoadWord(const Byte* base, size_t index) {
  Word w;
  std::memcpy(&w, base + index * sizeof(Word), sizeof(Word));
  return w;
}

template <typename Word>
void StoreWord(Byte* base, size_t index, Word w) {
  std::memcpy(base + index * sizeof(Word), &w, sizeof(Word));
}

}  // namespace

SparseField::SparseField(grid::Dims dims, grid::DataType type)
    : dims_(dims), type_(type) {}

void SparseField::Scatter(std::span<const grid::PointId> ids,
                          const grid::DataArray& values) {
  VIZNDP_CHECK_MSG(values.type() == type_, "scatter value type mismatch");
  VIZNDP_CHECK_MSG(static_cast<std::int64_t>(ids.size()) == values.size(),
                   "ids/values length mismatch");
  for (const grid::PointId id : ids) {
    VIZNDP_CHECK_MSG(id >= 0 && id < dims_.PointCount(),
                     "scatter id out of range");
  }
  if (ids.empty()) return;
  // A hostile peer's id+value payload need not be ascending.
  sorted_ = sorted_ && (ids_.empty() || ids_.back() < ids.front()) &&
            std::adjacent_find(ids.begin(), ids.end(),
                               std::greater_equal<>()) == ids.end();
  ids_.insert(ids_.end(), ids.begin(), ids.end());
  const ByteSpan raw = values.raw();
  values_.insert(values_.end(), raw.begin(), raw.end());
}

void SparseField::Sort() const {
  if (sorted_) return;
  switch (grid::DataTypeSize(type_)) {
    case 1: SortAs<std::uint8_t>(); break;
    case 4: SortAs<std::uint32_t>(); break;
    default: SortAs<std::uint64_t>(); break;
  }
  sorted_ = true;
}

template <typename Word>
void SparseField::SortAs() const {
  struct Point {
    grid::PointId id;
    Word value;
  };
  std::vector<Point> points(ids_.size());
  for (size_t r = 0; r < points.size(); ++r) {
    points[r] = {ids_[r], LoadWord<Word>(values_.data(), r)};
  }
  std::stable_sort(points.begin(), points.end(),
                   [](const Point& a, const Point& b) { return a.id < b.id; });
  size_t o = 0;
  for (size_t r = 0; r < points.size(); ++r) {
    if (r + 1 < points.size() && points[r + 1].id == points[r].id) continue;
    ids_[o] = points[r].id;
    StoreWord(values_.data(), o, points[r].value);
    ++o;
  }
  ids_.resize(o);
  values_.resize(o * sizeof(Word));
}

SparseField SparseField::FromSelection(const Selection& selection,
                                       grid::DataType type) {
  SparseField field(selection.dims, type);
  field.Scatter(selection.ids, selection.values);
  return field;
}

template <int kRows, typename T, typename Visit>
void SparseField::ForEachCompleteCell(Visit&& visit) const {
  // A complete cell's lowest corner is a delivered id, and cell-scan
  // order is id order, so one pass over the sorted ids finds every
  // complete cell. Row q of the cell starts at id + offset[q]; cursor[q]
  // seeks it, and since the targets only grow with id, each cursor
  // passes every id once.
  const T* values = reinterpret_cast<const T*>(values_.data());
  const grid::PointId* ids = ids_.data();
  const auto n = static_cast<std::int64_t>(ids_.size());
  const grid::PointId nx = dims_.nx;
  const grid::PointId plane = dims_.nx * dims_.ny;
  const grid::PointId offset[4] = {0, nx, plane, plane + nx};
  std::int64_t cursor[4] = {0, 0, 0, 0};
  grid::PointId row_end = 0;  // one past the last id of id's grid row
  bool last_row = false;      // id's grid row is j == ny - 1
  for (std::int64_t r = 0; r + 1 < n; ++r) {
    const grid::PointId id = ids[r];
    if (ids[r + 1] != id + 1) continue;
    if (id >= row_end) {
      const grid::PointId row = id / nx;
      row_end = (row + 1) * nx;
      last_row = row % dims_.ny == dims_.ny - 1;
    }
    // i == nx - 1 or j == ny - 1: id + 1 or id + nx wraps to the next
    // row or plane, so no cell starts here. k == nz - 1 needs no test:
    // id + plane is past the grid, and no delivered id is.
    if (id + 1 == row_end || last_row) continue;
    detail::CellRows<T, kRows> rows{};
    rows.id[0] = id;
    rows.slot[0] = r;
    rows.value[0] = values + r;
    bool complete = true;
    for (int q = 1; q < kRows && complete; ++q) {
      const grid::PointId target = id + offset[q];
      std::int64_t& c = cursor[q];
      while (c < n && ids[c] < target) ++c;
      complete = c + 1 < n && ids[c] == target && ids[c + 1] == target + 1;
      rows.id[q] = target;
      rows.slot[q] = c;
      rows.value[q] = values + c;
    }
    if (complete) visit(rows);
  }
}

template <typename T, typename Geo>
PolyData SparseField::ContourT(const Geo& geometry,
                               std::span<const double> isovalues) const {
  VIZNDP_CHECK_MSG(dims_.nx >= 2 && dims_.ny >= 2 &&
                       (dims_.Is2D() || dims_.nz >= 2),
                   "sparse contour needs at least a 2x2 grid");
  Sort();
  PolyData out;
  // Edge-cache slots are ranks among the delivered ids.
  const auto slots = static_cast<std::int64_t>(ids_.size());
  if (dims_.Is2D()) {
    detail::SquareCellProcessor<T, Geo> processor(dims_, geometry, out);
    for (const double iso : isovalues) {
      processor.BeginIsovalue(iso, slots);
      ForEachCompleteCell<2, T>(
          [&](const auto& rows) { processor.ProcessCell(rows); });
    }
    return out;
  }
  detail::CellProcessor<T, Geo> processor(dims_, geometry, out);
  for (const double iso : isovalues) {
    processor.BeginIsovalue(iso, slots);
    ForEachCompleteCell<4, T>(
        [&](const auto& rows) { processor.ProcessCell(rows); });
  }
  return out;
}

PolyData SparseField::Contour(const grid::UniformGeometry& geometry,
                              std::span<const double> isovalues) const {
  switch (type_) {
    case grid::DataType::Float32:
      return ContourT<float>(geometry, isovalues);
    case grid::DataType::Float64:
      return ContourT<double>(geometry, isovalues);
    default:
      throw Error("sparse contour requires a floating-point field");
  }
}

PolyData SparseField::Contour(const grid::RectilinearGeometry& geometry,
                              std::span<const double> isovalues) const {
  geometry.Validate(dims_);
  switch (type_) {
    case grid::DataType::Float32:
      return ContourT<float>(geometry, isovalues);
    case grid::DataType::Float64:
      return ContourT<double>(geometry, isovalues);
    default:
      throw Error("sparse contour requires a floating-point field");
  }
}

}  // namespace vizndp::contour
