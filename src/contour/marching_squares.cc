#include "contour/marching_squares.h"

#include "common/error.h"
#include "contour/ms_core.h"

namespace vizndp::contour {

namespace {

template <typename T, typename Geo>
PolyData MarchingSquaresT(const grid::Dims& dims, const Geo& geometry,
                          std::span<const T> values,
                          std::span<const double> isovalues) {
  VIZNDP_CHECK_MSG(dims.Is2D(), "marching squares needs nz == 1");
  VIZNDP_CHECK_MSG(static_cast<std::int64_t>(values.size()) ==
                       dims.PointCount(),
                   "field size does not match grid");
  VIZNDP_CHECK_MSG(dims.nx >= 2 && dims.ny >= 2,
                   "marching squares needs at least a 2x2 grid");

  PolyData out;
  detail::SquareCellProcessor<T, Geo> processor(dims, geometry, out);
  const std::int64_t nx = dims.nx;
  const T* v = values.data();
  for (const double iso : isovalues) {
    // Edge-cache slots are a two-row window: row j's points take slots
    // (j & 1) * nx + i.
    processor.BeginIsovalue(iso, 2 * nx);
    for (std::int64_t j = 0; j + 1 < dims.ny; ++j) {
      const std::int64_t lo = (j & 1) * nx;
      const std::int64_t hi = nx - lo;
      if (j > 0) processor.ForgetSlots(hi, nx);  // row j-1's slots
      for (std::int64_t i = 0; i + 1 < dims.nx; ++i) {
        const grid::PointId id = i + nx * j;
        processor.ProcessCell(
            {{id, id + nx}, {lo + i, hi + i}, {v + id, v + id + nx}});
      }
    }
  }
  return out;
}

}  // namespace

PolyData MarchingSquares(const grid::Dims& dims,
                         const grid::UniformGeometry& geometry,
                         std::span<const float> values,
                         std::span<const double> isovalues) {
  return MarchingSquaresT<float>(dims, geometry, values, isovalues);
}

PolyData MarchingSquares(const grid::Dims& dims,
                         const grid::RectilinearGeometry& geometry,
                         std::span<const float> values,
                         std::span<const double> isovalues) {
  geometry.Validate(dims);
  return MarchingSquaresT<float>(dims, geometry, values, isovalues);
}

PolyData MarchingSquares(const grid::Dims& dims,
                         const grid::RectilinearGeometry& geometry,
                         const grid::DataArray& array,
                         std::span<const double> isovalues) {
  switch (array.type()) {
    case grid::DataType::Float32:
      return MarchingSquares(dims, geometry, array.View<float>(), isovalues);
    default:
      geometry.Validate(dims);
      return MarchingSquaresT<double>(dims, geometry, array.View<double>(),
                                      isovalues);
  }
}

PolyData MarchingSquares(const grid::Dims& dims,
                         const grid::UniformGeometry& geometry,
                         std::span<const double> values,
                         std::span<const double> isovalues) {
  return MarchingSquaresT<double>(dims, geometry, values, isovalues);
}

PolyData MarchingSquares(const grid::Dims& dims,
                         const grid::UniformGeometry& geometry,
                         const grid::DataArray& array,
                         std::span<const double> isovalues) {
  switch (array.type()) {
    case grid::DataType::Float32:
      return MarchingSquares(dims, geometry, array.View<float>(), isovalues);
    case grid::DataType::Float64:
      return MarchingSquares(dims, geometry, array.View<double>(), isovalues);
    default:
      throw Error("contouring requires a floating-point array");
  }
}

}  // namespace vizndp::contour
