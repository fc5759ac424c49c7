#include "contour/marching_cubes.h"

#include "common/error.h"
#include "contour/mc_core.h"

namespace vizndp::contour {

namespace {

template <typename T, typename Geo>
PolyData MarchingCubesT(const grid::Dims& dims, const Geo& geometry,
                        std::span<const T> values,
                        std::span<const double> isovalues) {
  VIZNDP_CHECK_MSG(static_cast<std::int64_t>(values.size()) ==
                       dims.PointCount(),
                   "field size does not match grid");
  VIZNDP_CHECK_MSG(dims.nx >= 2 && dims.ny >= 2 && dims.nz >= 2,
                   "marching cubes needs at least a 2x2x2 grid");
  PolyData out;
  detail::CellProcessor<T, Geo> processor(dims, geometry, out);
  const std::int64_t nx = dims.nx;
  const std::int64_t plane = dims.nx * dims.ny;
  const T* v = values.data();
  for (const double iso : isovalues) {
    // Edge-cache slots are a two-plane window: plane k's points take
    // slots (k & 1) * plane + (i + nx * j).
    processor.BeginIsovalue(iso, 2 * plane);
    for (std::int64_t k = 0; k + 1 < dims.nz; ++k) {
      const std::int64_t lo = (k & 1) * plane;
      const std::int64_t hi = plane - lo;
      if (k > 0) processor.ForgetSlots(hi, plane);  // plane k-1's slots
      for (std::int64_t j = 0; j + 1 < dims.ny; ++j) {
        for (std::int64_t i = 0; i + 1 < dims.nx; ++i) {
          const std::int64_t s = i + nx * j;
          const grid::PointId id = s + k * plane;
          processor.ProcessCell({{id, id + nx, id + plane, id + plane + nx},
                                 {lo + s, lo + s + nx, hi + s, hi + s + nx},
                                 {v + id, v + id + nx, v + id + plane,
                                  v + id + plane + nx}});
        }
      }
    }
  }
  return out;
}

}  // namespace

PolyData MarchingCubes(const grid::Dims& dims,
                       const grid::UniformGeometry& geometry,
                       std::span<const float> values,
                       std::span<const double> isovalues) {
  return MarchingCubesT<float>(dims, geometry, values, isovalues);
}

PolyData MarchingCubes(const grid::Dims& dims,
                       const grid::RectilinearGeometry& geometry,
                       std::span<const float> values,
                       std::span<const double> isovalues) {
  geometry.Validate(dims);
  return MarchingCubesT<float>(dims, geometry, values, isovalues);
}

PolyData MarchingCubes(const grid::Dims& dims,
                       const grid::RectilinearGeometry& geometry,
                       std::span<const double> values,
                       std::span<const double> isovalues) {
  geometry.Validate(dims);
  return MarchingCubesT<double>(dims, geometry, values, isovalues);
}

PolyData MarchingCubes(const grid::Dims& dims,
                       const grid::RectilinearGeometry& geometry,
                       const grid::DataArray& array,
                       std::span<const double> isovalues) {
  switch (array.type()) {
    case grid::DataType::Float32:
      return MarchingCubes(dims, geometry, array.View<float>(), isovalues);
    case grid::DataType::Float64:
      return MarchingCubes(dims, geometry, array.View<double>(), isovalues);
    default:
      throw Error("contouring requires a floating-point array");
  }
}

PolyData MarchingCubes(const grid::Dims& dims,
                       const grid::UniformGeometry& geometry,
                       std::span<const double> values,
                       std::span<const double> isovalues) {
  return MarchingCubesT<double>(dims, geometry, values, isovalues);
}

PolyData MarchingCubes(const grid::Dims& dims,
                       const grid::UniformGeometry& geometry,
                       const grid::DataArray& array,
                       std::span<const double> isovalues) {
  switch (array.type()) {
    case grid::DataType::Float32:
      return MarchingCubes(dims, geometry, array.View<float>(), isovalues);
    case grid::DataType::Float64:
      return MarchingCubes(dims, geometry, array.View<double>(), isovalues);
    default:
      throw Error("contouring requires a floating-point array, got " +
                  std::string(grid::DataTypeName(array.type())));
  }
}

}  // namespace vizndp::contour
