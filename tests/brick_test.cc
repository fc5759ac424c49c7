// Bricked VND arrays and the brick-aware pre-filter (the extension that
// attacks the paper's "NDP is lower-bounded by local read time" limit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>

#include "bench_util/testbed.h"
#include "compress/codec.h"
#include "io/vnd_format.h"
#include "ndp/bricked_select.h"
#include "sim/impact.h"
#include "storage/memory_store.h"

namespace vizndp {
namespace {

using io::BrickGrid;

TEST(BrickGrid, CountsAndExtents) {
  const BrickGrid g(grid::Dims{65, 64, 2}, 32);
  EXPECT_EQ(g.nbx, 2);  // 64 cells / 32
  EXPECT_EQ(g.nby, 2);  // 63 cells -> ceil(63/32)
  EXPECT_EQ(g.nbz, 1);  // 1 cell
  EXPECT_EQ(g.BrickCount(), 4);

  const auto e0 = g.BrickExtent(0);
  EXPECT_EQ(e0.x0, 0);
  EXPECT_EQ(e0.x1, 32);  // 32 cells + ghost point
  const auto e1 = g.BrickExtent(1);
  EXPECT_EQ(e1.x0, 32);
  EXPECT_EQ(e1.x1, 64);
  const auto e2 = g.BrickExtent(2);
  EXPECT_EQ(e2.y0, 32);
  EXPECT_EQ(e2.y1, 63);  // clamped at the boundary
}

TEST(BrickGrid, DegenerateAxes) {
  const BrickGrid flat(grid::Dims{10, 10, 1}, 4);
  EXPECT_EQ(flat.nbz, 1);
  const auto e = flat.BrickExtent(0);
  EXPECT_EQ(e.z0, 0);
  EXPECT_EQ(e.z1, 0);
}

TEST(BrickGrid, EveryCellOwnedByExactlyOneBrick) {
  const grid::Dims dims{13, 9, 7};
  const BrickGrid g(dims, 4);
  std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, int> owners;
  for (std::int64_t b = 0; b < g.BrickCount(); ++b) {
    const auto e = g.BrickExtent(b);
    // Cells of a brick: all cells whose lowest corner is within
    // [x0, x1) x [y0, y1) x [z0, z1).
    for (std::int64_t k = e.z0; k < e.z1; ++k)
      for (std::int64_t j = e.y0; j < e.y1; ++j)
        for (std::int64_t i = e.x0; i < e.x1; ++i) ++owners[{i, j, k}];
  }
  EXPECT_EQ(owners.size(),
            static_cast<size_t>((dims.nx - 1) * (dims.ny - 1) * (dims.nz - 1)));
  for (const auto& [cell, count] : owners) {
    ASSERT_EQ(count, 1);
  }
}

grid::Dataset MakeImpact(int n) {
  sim::ImpactConfig cfg;
  cfg.n = n;
  return sim::GenerateImpactTimestep(cfg, 24006, {"v02", "v03"});
}

class BrickRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(BrickRoundTripTest, BrickedFileReadsBackDense) {
  const auto& [codec, edge] = GetParam();
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  const grid::Dataset ds = MakeImpact(21);  // not a multiple of the edge
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec(codec));
  writer.SetBrickSize(edge);
  writer.WriteToStore(store, "data", "b.vnd");

  io::VndReader reader(storage::FileGateway(store, "data").Open("b.vnd"));
  EXPECT_TRUE(reader.HasBricks("v02"));
  const grid::Dataset back = reader.ReadAll();
  EXPECT_EQ(back, ds);
}

INSTANTIATE_TEST_SUITE_P(
    CodecsAndEdges, BrickRoundTripTest,
    ::testing::Combine(::testing::Values("none", "gzip", "lz4"),
                       ::testing::Values(4, 8, 32)));

TEST(Brick, StoredBrickRangeDecompressesToSlab) {
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  grid::Dataset ds(grid::Dims{6, 6, 6});
  std::vector<float> f(216);
  for (size_t i = 0; i < f.size(); ++i) f[i] = static_cast<float>(i);
  ds.AddArray(grid::DataArray::FromVector("f", f));
  io::VndWriter writer(ds);
  writer.SetBrickSize(3);
  writer.WriteToStore(store, "data", "b.vnd");

  io::VndReader reader(storage::FileGateway(store, "data").Open("b.vnd"));
  const BrickGrid g(ds.dims(), 3);
  // Brick 1 covers x cells [3,5): points x in [3,5], y,z in [0,3].
  const auto e = g.BrickExtent(1);
  const io::ArrayMeta* meta = reader.header().Find("f");
  ASSERT_TRUE(meta != nullptr && meta->bricks.has_value());
  const io::BrickEntry& entry = meta->bricks->entries[1];
  const Bytes stored =
      reader.ReadArrayRange("f", entry.offset, entry.stored_size);
  const size_t slab_bytes = static_cast<size_t>(e.PointCount()) * sizeof(float);
  const grid::DataArray slab(
      "f", grid::DataType::Float32,
      compress::MakeCodec(meta->codec)->Decompress(stored, slab_bytes,
                                                   slab_bytes));
  ASSERT_EQ(slab.size(), e.PointCount());
  const auto values = slab.View<float>();
  size_t idx = 0;
  for (std::int64_t k = e.z0; k <= e.z1; ++k)
    for (std::int64_t j = e.y0; j <= e.y1; ++j)
      for (std::int64_t i = e.x0; i <= e.x1; ++i) {
        ASSERT_EQ(values[idx++],
                  f[static_cast<size_t>(ds.dims().Index(i, j, k))]);
      }
}

TEST(Brick, HeaderRecordsMinMax) {
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  const grid::Dataset ds = MakeImpact(16);
  io::VndWriter writer(ds);
  writer.SetBrickSize(8);
  writer.WriteToStore(store, "data", "b.vnd");
  io::VndReader reader(storage::FileGateway(store, "data").Open("b.vnd"));
  const io::ArrayMeta* meta = reader.header().Find("v02");
  ASSERT_TRUE(meta->bricks.has_value());
  const auto [lo, hi] = ds.GetArray("v02").Range();
  double brick_lo = 1e300, brick_hi = -1e300;
  for (const io::BrickEntry& e : meta->bricks->entries) {
    EXPECT_LE(e.min, e.max);
    brick_lo = std::min(brick_lo, e.min);
    brick_hi = std::max(brick_hi, e.max);
  }
  EXPECT_DOUBLE_EQ(brick_lo, lo);
  EXPECT_DOUBLE_EQ(brick_hi, hi);
}

class BrickedSelectTest : public ::testing::TestWithParam<unsigned> {};

// The headline invariant: brick-indexed selection equals dense selection.
TEST_P(BrickedSelectTest, MatchesDenseSelection) {
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  grid::Dataset ds(grid::Dims{18, 14, 11});
  std::mt19937 rng(GetParam());
  std::vector<float> f(static_cast<size_t>(ds.dims().PointCount()));
  for (auto& v : f) v = static_cast<float>(rng() % 1000) / 999.0f;
  ds.AddArray(grid::DataArray::FromVector("f", f));
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(5);
  writer.WriteToStore(store, "data", "b.vnd");

  io::VndReader reader(storage::FileGateway(store, "data").Open("b.vnd"));
  const std::vector<double> isos = {0.2, 0.5, 0.9};
  const contour::Selection dense = contour::SelectInterestingPoints(
      ds.dims(), ds.GetArray("f"), isos);
  ndp::BrickedSelectStats stats;
  const contour::Selection bricked =
      ndp::SelectInterestingPointsBricked(reader, "f", isos, &stats);
  EXPECT_EQ(bricked.ids, dense.ids);
  EXPECT_EQ(bricked.values, dense.values);
  EXPECT_EQ(stats.bricks_total,
            io::BrickGrid(ds.dims(), 5).BrickCount());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BrickedSelectTest,
                         ::testing::Range(5000u, 5010u));

TEST(BrickedSelect, SkipsBricksOutsideTheValueRange) {
  // The asteroid (v03) occupies a tiny corner of the domain: nearly all
  // bricks are constant zero and must never be fetched.
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  const grid::Dataset ds = MakeImpact(32);
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("gzip"));
  writer.SetBrickSize(8);
  writer.WriteToStore(store, "data", "b.vnd");

  io::VndReader reader(storage::FileGateway(store, "data").Open("b.vnd"));
  const std::vector<double> isos = {0.1};
  ndp::BrickedSelectStats stats;
  const contour::Selection sel =
      ndp::SelectInterestingPointsBricked(reader, "v03", isos, &stats);
  EXPECT_GT(sel.ids.size(), 0u);
  EXPECT_GT(stats.bricks_total, 0);
  EXPECT_LT(stats.bricks_read * 4, stats.bricks_total);  // <25% touched
  EXPECT_LT(stats.bytes_read, reader.StoredSize("v03"));
  // And it still matches the dense result.
  const contour::Selection dense = contour::SelectInterestingPoints(
      ds.dims(), reader.ReadArray("v03"), isos);
  EXPECT_EQ(sel.ids, dense.ids);
}

// The brick plan against a brute-force filter over seeded min/max
// tables: isovalues that sit exactly on brick bounds, restrictions, and
// resume cursors. And the resume property a cursor-carrying stream rests
// on: the plan from cursor c is exactly the full plan's suffix after c.
TEST(BrickPlan, MatchesBruteForceAndResumesAsASuffix) {
  std::mt19937 rng(20261017);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  for (int table = 0; table < 40; ++table) {
    io::ArrayMeta meta;
    meta.bricks.emplace();
    const int count = 1 + static_cast<int>(rng() % 64);
    for (int b = 0; b < count; ++b) {
      io::BrickEntry e;
      e.min = value(rng);
      e.max = rng() % 5 == 0 ? e.min : e.min + std::abs(value(rng));
      meta.bricks->entries.push_back(e);
    }
    // Isovalues: random, plus values equal to some brick's min and max.
    const auto& pick =
        meta.bricks->entries[rng() % static_cast<size_t>(count)];
    std::vector<double> isos = {value(rng), pick.min, pick.max};
    isos.resize(1 + rng() % isos.size());
    std::vector<std::int64_t> restriction;
    for (std::int64_t b = 0; b < count + 3; ++b) {
      if (rng() % 2 == 0) restriction.push_back(b);
    }

    for (const bool restricted : {false, true}) {
      const std::vector<std::int64_t>* only =
          restricted ? &restriction : nullptr;
      const std::vector<std::int64_t> full =
          ndp::PlanBricks(meta, isos, only);
      for (std::int64_t cursor = -1; cursor <= count; ++cursor) {
        std::vector<std::int64_t> expect;
        for (std::int64_t b = cursor + 1; b < count; ++b) {
          const io::BrickEntry& e = meta.bricks->entries[static_cast<size_t>(b)];
          const bool listed =
              !restricted || std::find(restriction.begin(), restriction.end(),
                                       b) != restriction.end();
          bool straddles = false;
          for (const double iso : isos) {
            straddles = straddles || (iso > e.min && iso <= e.max);
          }
          if (listed && straddles) expect.push_back(b);
        }
        const std::vector<std::int64_t> plan =
            ndp::PlanBricks(meta, isos, only, cursor);
        EXPECT_EQ(plan, expect) << "table " << table << " cursor " << cursor;
        const std::vector<std::int64_t> suffix(
            std::upper_bound(full.begin(), full.end(), cursor), full.end());
        EXPECT_EQ(plan, suffix) << "table " << table << " cursor " << cursor;
      }
    }
  }
}

TEST(BrickedNdp, EndToEndContourIdenticalAndCheaper) {
  bench_util::Testbed testbed;
  const grid::Dataset ds = MakeImpact(32);
  // Same data twice: monolithic and bricked.
  io::VndWriter mono(ds);
  mono.SetCodec(compress::MakeCodec("lz4"));
  mono.WriteToStore(testbed.store(), testbed.bucket(), "mono.vnd");
  io::VndWriter bricked(ds);
  bricked.SetCodec(compress::MakeCodec("lz4"));
  bricked.SetBrickSize(8);
  bricked.WriteToStore(testbed.store(), testbed.bucket(), "bricked.vnd");

  const std::vector<double> isos = {0.1};
  ndp::NdpLoadStats mono_stats, brick_stats;
  const contour::PolyData a =
      testbed.ndp_client().Contour("mono.vnd", "v02", isos, &mono_stats);
  const contour::PolyData b =
      testbed.ndp_client().Contour("bricked.vnd", "v02", isos, &brick_stats);
  EXPECT_TRUE(a.GeometricallyEquals(b, 0.0));
  EXPECT_EQ(mono_stats.bricks_total, 0);
  EXPECT_GT(brick_stats.bricks_total, 0);
  EXPECT_LT(brick_stats.bricks_read, brick_stats.bricks_total);
  // The server read less off the (modeled) disk on the bricked path.
  EXPECT_LT(brick_stats.stored_bytes, mono_stats.stored_bytes);
}

TEST(BrickedNdp, WorksWithUncompressedBricks) {
  bench_util::Testbed testbed;
  const grid::Dataset ds = MakeImpact(24);
  io::VndWriter writer(ds);
  writer.SetBrickSize(6);
  writer.WriteToStore(testbed.store(), testbed.bucket(), "raw.vnd");
  const contour::PolyData poly =
      testbed.ndp_client().Contour("raw.vnd", "v02", {0.5});
  EXPECT_GT(poly.TriangleCount(), 0u);
}

}  // namespace
}  // namespace vizndp
