#include <gtest/gtest.h>

#include <random>

#include "bench_util/testbed.h"
#include "contour/marching_cubes.h"
#include "io/vnd_format.h"
#include "msgpack/pack.h"
#include "msgpack/unpack.h"
#include "ndp/catalog.h"
#include "ndp/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/elements.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "sim/impact.h"

namespace vizndp::ndp {
namespace {

using bench_util::Testbed;
using bench_util::TestbedConfig;

contour::Selection MakeSelection(unsigned seed, const grid::Dims& dims,
                                 std::vector<float>* field_out = nullptr) {
  std::mt19937 rng(seed);
  std::vector<float> f(static_cast<size_t>(dims.PointCount()));
  for (auto& v : f) v = static_cast<float>(rng() % 1000) / 999.0f;
  const auto array = grid::DataArray::FromVector("f", f);
  const double isos[] = {0.5};
  if (field_out != nullptr) *field_out = std::move(f);
  return contour::SelectInterestingPoints(dims, array, isos);
}

TEST(Varint, RoundTripEdgeCases) {
  const std::uint64_t cases[] = {0,    1,    127,  128,   16383, 16384,
                                 1ull << 32, (1ull << 63), UINT64_MAX};
  for (const std::uint64_t v : cases) {
    Bytes buf;
    AppendVarint(v, buf);
    size_t pos = 0;
    EXPECT_EQ(ReadVarint(buf, pos), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, TruncatedThrows) {
  Bytes buf;
  AppendVarint(1ull << 40, buf);
  buf.pop_back();
  size_t pos = 0;
  EXPECT_THROW(ReadVarint(buf, pos), DecodeError);
}

TEST(Varint, OverflowRejected) {
  Bytes buf(11, 0xFF);  // would exceed 64 bits
  size_t pos = 0;
  EXPECT_THROW(ReadVarint(buf, pos), DecodeError);
}

class EncodingRoundTripTest
    : public ::testing::TestWithParam<SelectionEncoding> {};

TEST_P(EncodingRoundTripTest, DecodeRecoversSelection) {
  const grid::Dims dims{9, 9, 9};
  const contour::Selection sel = MakeSelection(1, dims);
  ASSERT_GT(sel.ids.size(), 0u);
  const Bytes payload = EncodeSelection(sel, GetParam());
  const DecodedSelection back = DecodeSelection(payload, dims);
  EXPECT_EQ(back.ids, sel.ids);
  EXPECT_EQ(back.values.raw().size(), sel.values.raw().size());
  EXPECT_TRUE(std::equal(back.values.raw().begin(), back.values.raw().end(),
                         sel.values.raw().begin()));
}

INSTANTIATE_TEST_SUITE_P(Encodings, EncodingRoundTripTest,
                         ::testing::Values(SelectionEncoding::kIdValue,
                                           SelectionEncoding::kRunLength));

TEST(Encoding, EmptySelection) {
  contour::Selection sel;
  sel.dims = {4, 4, 4};
  sel.total_points = 64;
  sel.values = grid::DataArray("f", grid::DataType::Float32, Bytes{});
  for (const auto e :
       {SelectionEncoding::kIdValue, SelectionEncoding::kRunLength}) {
    const Bytes payload = EncodeSelection(sel, e);
    const DecodedSelection back = DecodeSelection(payload, sel.dims);
    EXPECT_TRUE(back.ids.empty());
  }
}

TEST(Encoding, RunLengthIsSmallerThanIdValueForClusteredIds) {
  const grid::Dims dims{20, 20, 20};
  const contour::Selection sel = MakeSelection(2, dims);
  const size_t idv = EncodeSelection(sel, SelectionEncoding::kIdValue).size();
  const size_t rl = EncodeSelection(sel, SelectionEncoding::kRunLength).size();
  EXPECT_LT(rl, idv);
}

TEST(Encoding, MalformedPayloadsThrow) {
  const grid::Dims dims{4, 4, 4};
  EXPECT_THROW(DecodeSelection(Bytes{0, 0}, dims), DecodeError);
  // Unknown tags. Tags 1 and 2 are the retired delta-varint and bitmap
  // layouts; each payload below is a well-formed empty selection in its
  // retired layout ([tag][type][count = 0], bitmap adds [points][bits]).
  Bytes delta_varint(10, 0);
  delta_varint[0] = 1;
  Bytes bitmap(10 + 8 + 8, 0);
  bitmap[0] = 2;
  StoreLE<std::uint64_t>(64, bitmap.data() + 10);
  Bytes bad(16, 0);
  bad[0] = 99;
  for (const Bytes& payload : {delta_varint, bitmap, bad}) {
    EXPECT_THROW(DecodeSelection(payload, dims), DecodeError)
        << int{payload[0]};
  }
  // Valid header claiming more ids than the payload carries.
  contour::Selection sel;
  sel.dims = dims;
  sel.total_points = 64;
  sel.ids = {1, 2, 3};
  sel.values = grid::DataArray::FromVector(
      "f", std::vector<float>{0.1f, 0.2f, 0.3f});
  Bytes payload = EncodeSelection(sel, SelectionEncoding::kIdValue);
  payload.resize(payload.size() - 5);
  EXPECT_THROW(DecodeSelection(payload, dims), DecodeError);
}

TEST(Encoding, IdsOutsideGridRejected) {
  contour::Selection sel;
  sel.dims = {4, 4, 4};  // 64 points
  sel.total_points = 64;
  sel.ids = {70};
  sel.values = grid::DataArray::FromVector("f", std::vector<float>{1.0f});
  const Bytes payload = EncodeSelection(sel, SelectionEncoding::kIdValue);
  EXPECT_THROW(DecodeSelection(payload, sel.dims), DecodeError);
}

struct PopulatedTestbed {
  Testbed testbed;
  grid::Dataset dataset;
  static constexpr const char* kKey = "ts24006.vnd";

  explicit PopulatedTestbed(const std::string& codec = "none")
      : dataset(MakeImpact()) {
    io::VndWriter writer(dataset);
    writer.SetCodec(compress::MakeCodec(codec));
    writer.WriteToStore(testbed.store(), testbed.bucket(), kKey);
  }

  static grid::Dataset MakeImpact() {
    sim::ImpactConfig cfg;
    cfg.n = 24;
    return sim::GenerateImpactTimestep(cfg, 24006, {"v02", "v03"});
  }
};

TEST(NdpServer, SelectReturnsExpectedMetadata) {
  PopulatedTestbed fx;
  NdpServer server(fx.testbed.LocalGateway());
  const msgpack::Value reply =
      server.Select(PopulatedTestbed::kKey, "v02", {0.1},
                    SelectionEncoding::kRunLength);
  EXPECT_EQ(reply.At("dims").As<msgpack::Array>().at(0).AsInt(), 24);
  EXPECT_EQ(reply.At("dtype").As<std::string>(), "float32");
  EXPECT_GT(reply.At("selected").AsUint(), 0u);
  EXPECT_EQ(reply.At("total_points").AsUint(), 24u * 24 * 24);
  EXPECT_GT(reply.At("payload").As<Bytes>().size(), 0u);
  EXPECT_LT(reply.At("payload").As<Bytes>().size(),
            reply.At("raw_bytes").AsUint());
}

// An ndp.select whose encoding tag is not a served layout gets a typed
// error reply before the server touches storage: the retired tags 1 and
// 2, an unassigned tag, and a tag that truncates to a served one (259 =
// 3 mod 256).
TEST(NdpServer, UnknownEncodingTagRejectedBeforeStorage) {
  PopulatedTestbed fx;
  const auto frame = [](std::int64_t msgid, std::uint64_t tag) {
    msgpack::Array params{msgpack::Value(std::string("data")),
                          msgpack::Value(std::string(PopulatedTestbed::kKey)),
                          msgpack::Value(std::string("v02")),
                          msgpack::Value(msgpack::Array{msgpack::Value(0.1)}),
                          msgpack::Value(tag)};
    return msgpack::Encode(msgpack::Value(msgpack::Array{
        msgpack::Value(rpc::kRequestType), msgpack::Value(msgid),
        msgpack::Value(std::string(kRpcNdpSelect)),
        msgpack::Value(std::move(params))}));
  };
  const auto error_of = [&](std::int64_t msgid, std::uint64_t tag) {
    const msgpack::Value reply =
        msgpack::Decode(fx.testbed.rpc_server().Dispatch(frame(msgid, tag)));
    const msgpack::Value& error = reply.As<msgpack::Array>().at(2);
    return error.IsNil() ? std::string() : error.As<std::string>();
  };
  obs::Counter& bytes_in =
      fx.testbed.ndp_server().metrics().GetCounter("ndp_bytes_in_total");
  std::int64_t msgid = 1;
  for (const std::uint64_t tag : {1u, 2u, 7u, 259u}) {
    SCOPED_TRACE(tag);
    const std::uint64_t before = bytes_in.value();
    EXPECT_NE(error_of(msgid++, tag).find("unknown selection encoding tag"),
              std::string::npos);
    EXPECT_EQ(bytes_in.value(), before);
  }
  // The same frame with a served tag reads storage and succeeds.
  const std::uint64_t before = bytes_in.value();
  EXPECT_EQ(error_of(msgid++, 3), "");
  EXPECT_GT(bytes_in.value(), before);
}

// ndp.stats range-checks its bin count as the 64-bit value it arrives
// as: 2^32 + 5 would narrow to a valid 5. Like a bad ndp.select tag, a
// bad count gets a typed error before the server touches storage.
TEST(NdpServer, StatsBinsOutOfRangeRejectedBeforeNarrowing) {
  PopulatedTestbed fx;
  std::int64_t msgid = 1;
  const auto error_of = [&](msgpack::Value bins) {
    msgpack::Array params{msgpack::Value(std::string("data")),
                          msgpack::Value(std::string(PopulatedTestbed::kKey)),
                          msgpack::Value(std::string("v02")),
                          std::move(bins)};
    const Bytes frame = msgpack::Encode(msgpack::Value(msgpack::Array{
        msgpack::Value(rpc::kRequestType), msgpack::Value(msgid++),
        msgpack::Value(std::string(kRpcNdpStats)),
        msgpack::Value(std::move(params))}));
    const msgpack::Value reply =
        msgpack::Decode(fx.testbed.rpc_server().Dispatch(frame));
    const msgpack::Value& error = reply.As<msgpack::Array>().at(2);
    return error.IsNil() ? std::string() : error.As<std::string>();
  };
  obs::Counter& requests = fx.testbed.ndp_server().metrics().GetCounter(
      "ndp_stats_requests_total");
  for (const msgpack::Value& bins :
       {msgpack::Value((std::uint64_t{1} << 32) + 5),
        msgpack::Value(std::int64_t{-3}), msgpack::Value(std::uint64_t{0}),
        msgpack::Value(std::uint64_t{4097}), msgpack::Value(0.5)}) {
    const std::uint64_t before = requests.value();
    const std::string error = error_of(bins);
    EXPECT_NE(error.find("ndp.stats"), std::string::npos) << error;
    EXPECT_EQ(requests.value(), before);
  }
  EXPECT_EQ(error_of(msgpack::Value(std::uint64_t{5})), "");
  EXPECT_EQ(error_of(msgpack::Value(std::int64_t{4096})), "");
}

TEST(NdpServer, InfoListsArrays) {
  PopulatedTestbed fx("gzip");
  NdpServer server(fx.testbed.LocalGateway());
  const msgpack::Value info = server.Info(PopulatedTestbed::kKey);
  const auto& arrays = info.At("arrays").As<msgpack::Array>();
  ASSERT_EQ(arrays.size(), 2u);
  EXPECT_EQ(arrays.at(0).At("name").As<std::string>(), "v02");
  EXPECT_EQ(arrays.at(0).At("codec").As<std::string>(), "gzip");
}

class NdpEndToEndTest : public ::testing::TestWithParam<std::string> {};

// The core claim: NDP over the emulated testbed returns the same contour
// as the traditional full-read pipeline, for every storage codec.
TEST_P(NdpEndToEndTest, ContourMatchesBaselineExactly) {
  PopulatedTestbed fx(GetParam());
  const std::vector<double> isovalues = {0.1, 0.5};

  // Baseline: remote gateway, full array read, classic marching cubes.
  io::VndReader reader(fx.testbed.RemoteGateway().Open(PopulatedTestbed::kKey));
  const grid::DataArray v02 = reader.ReadArray("v02");
  const contour::PolyData baseline = contour::MarchingCubes(
      reader.header().dims, reader.header().geometry, v02, isovalues);

  // NDP: pre-filter on the storage node, post-filter here.
  NdpLoadStats stats;
  const contour::PolyData ndp = fx.testbed.ndp_client().Contour(
      PopulatedTestbed::kKey, "v02", isovalues, &stats);

  ASSERT_EQ(ndp.TriangleCount(), baseline.TriangleCount());
  EXPECT_TRUE(ndp.GeometricallyEquals(baseline, 0.0));
  EXPECT_GT(stats.selected_points, 0u);
  EXPECT_LT(stats.selected_points, stats.total_points);
  EXPECT_GT(stats.server_read_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Codecs, NdpEndToEndTest,
                         ::testing::Values("none", "gzip", "lz4"));

TEST(NdpEndToEnd, MovesFarFewerBytesThanBaseline) {
  PopulatedTestbed fx;
  const std::vector<double> isovalues = {0.1};

  fx.testbed.link().Reset();
  io::VndReader reader(fx.testbed.RemoteGateway().Open(PopulatedTestbed::kKey));
  (void)reader.ReadArray("v02");
  const std::uint64_t baseline_bytes = fx.testbed.link().bytes_transferred();

  fx.testbed.link().Reset();
  NdpLoadStats stats;
  (void)fx.testbed.ndp_client().Contour(PopulatedTestbed::kKey, "v02",
                                        isovalues, &stats);
  const std::uint64_t ndp_bytes = fx.testbed.link().bytes_transferred();

  // The full v02 array is 24^3 * 4 B = 55 KiB; the selection is a small
  // fraction of it (paper Fig. 6).
  EXPECT_GT(baseline_bytes, 24u * 24 * 24 * 4);
  EXPECT_LT(ndp_bytes * 2, baseline_bytes);
  EXPECT_EQ(stats.payload_bytes + 256, stats.reply_bytes);
}

TEST(NdpEndToEnd, AllEncodingsGiveTheSameContour)
{
  PopulatedTestbed fx;
  const std::vector<double> isovalues = {0.3};
  contour::PolyData reference;
  bool first = true;
  for (const auto encoding :
       {SelectionEncoding::kIdValue, SelectionEncoding::kRunLength}) {
    fx.testbed.ndp_client().SetEncoding(encoding);
    contour::PolyData poly = fx.testbed.ndp_client().Contour(
        PopulatedTestbed::kKey, "v02", isovalues);
    if (first) {
      reference = std::move(poly);
      first = false;
    } else {
      EXPECT_TRUE(poly.GeometricallyEquals(reference, 0.0))
          << SelectionEncodingName(encoding);
    }
  }
}

TEST(NdpEndToEnd, MultiArrayPipelinesShareOneServer) {
  // The paper runs one contour filter instance per array (v02 + v03).
  PopulatedTestbed fx;
  const std::vector<double> isovalues = {0.1};
  NdpLoadStats v02_stats, v03_stats;
  const contour::PolyData water = fx.testbed.ndp_client().Contour(
      PopulatedTestbed::kKey, "v02", isovalues, &v02_stats);
  const contour::PolyData asteroid = fx.testbed.ndp_client().Contour(
      PopulatedTestbed::kKey, "v03", isovalues, &v03_stats);
  EXPECT_GT(water.TriangleCount(), 0u);
  EXPECT_GT(asteroid.TriangleCount(), 0u);
  // Asteroid is far more selective (paper Fig. 6).
  EXPECT_LT(v03_stats.selected_points, v02_stats.selected_points);
}

TEST(NdpEndToEnd, UnknownArrayGivesRpcError) {
  PopulatedTestbed fx;
  EXPECT_THROW(fx.testbed.ndp_client().Contour(PopulatedTestbed::kKey,
                                               "bogus", {0.1}),
               RpcError);
}

TEST(NdpStats, HistogramAndRangeMatchTheArray) {
  PopulatedTestbed fx;
  const NdpClient::ArrayStats stats =
      fx.testbed.ndp_client().Stats(PopulatedTestbed::kKey, "v02", 32);
  const auto [lo, hi] = fx.dataset.GetArray("v02").Range();
  EXPECT_DOUBLE_EQ(stats.min, lo);
  EXPECT_DOUBLE_EQ(stats.max, hi);
  EXPECT_EQ(stats.count, 24u * 24 * 24);
  ASSERT_EQ(stats.histogram.size(), 32u);
  std::uint64_t total = 0;
  for (const auto c : stats.histogram) total += c;
  EXPECT_EQ(total, stats.count);
  // v02 is mostly exact 0 (air) and exact 1 (water): the end bins dominate.
  EXPECT_GT(stats.histogram.front() + stats.histogram.back(),
            stats.count / 2);
}

TEST(NdpStats, SuggestIsovaluesSpansTheDistribution) {
  PopulatedTestbed fx;
  const NdpClient::ArrayStats stats =
      fx.testbed.ndp_client().Stats(PopulatedTestbed::kKey, "v02", 128);
  const std::vector<double> suggested = SuggestIsovalues(stats, 3);
  ASSERT_EQ(suggested.size(), 3u);
  for (const double iso : suggested) {
    EXPECT_GE(iso, stats.min);
    EXPECT_LE(iso, stats.max);
  }
  EXPECT_LE(suggested[0], suggested[1]);
  EXPECT_LE(suggested[1], suggested[2]);
  // Suggested values must produce nonempty contours.
  const contour::PolyData poly = fx.testbed.ndp_client().Contour(
      PopulatedTestbed::kKey, "v02", {suggested[1]});
  EXPECT_GT(poly.TriangleCount(), 0u);
}

TEST(NdpStats, BinCountsMatchKnownSyntheticArray) {
  // 4^3 points with values 0..63: four bins over [0, 63] must each hold
  // exactly 16 values (bin width 15.75; value 63 clamps into the last).
  Testbed testbed;
  grid::Dataset ds(grid::Dims{4, 4, 4});
  std::vector<float> values(64);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(i);
  }
  ds.AddArray(grid::DataArray::FromVector("ramp", values));
  io::VndWriter writer(ds);
  writer.WriteToStore(testbed.store(), testbed.bucket(), "ramp.vnd");

  NdpServer server(testbed.LocalGateway());
  const msgpack::Value reply = server.Stats("ramp.vnd", "ramp", 4);
  EXPECT_DOUBLE_EQ(reply.At("min").AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(reply.At("max").AsDouble(), 63.0);
  EXPECT_EQ(reply.At("count").AsUint(), 64u);
  const auto& histogram = reply.At("histogram").As<msgpack::Array>();
  ASSERT_EQ(histogram.size(), 4u);
  for (const msgpack::Value& bin : histogram) {
    EXPECT_EQ(bin.AsUint(), 16u);
  }
  // No brick index on this file, so the range came from a data pass.
  EXPECT_EQ(obs::FindMetric(server.metrics().Snapshot(),
                            "ndp_stats_index_fastpath_total"),
            nullptr);
}

TEST(NdpStats, BrickIndexedFileUsesHeaderRangeFastPath) {
  Testbed testbed;
  grid::Dataset ds = PopulatedTestbed::MakeImpact();
  io::VndWriter writer(ds);
  writer.SetBrickSize(8);
  writer.WriteToStore(testbed.store(), testbed.bucket(), "bricked.vnd");

  NdpServer server(testbed.LocalGateway());
  const msgpack::Value reply = server.Stats("bricked.vnd", "v02", 16);

  // Same range the data itself gives — but served from the header index.
  const auto [lo, hi] = ds.GetArray("v02").Range();
  EXPECT_DOUBLE_EQ(reply.At("min").AsDouble(), lo);
  EXPECT_DOUBLE_EQ(reply.At("max").AsDouble(), hi);
  const std::vector<obs::MetricSnapshot> metrics = server.metrics().Snapshot();
  const obs::MetricSnapshot* fastpath =
      obs::FindMetric(metrics, "ndp_stats_index_fastpath_total");
  ASSERT_NE(fastpath, nullptr);
  EXPECT_DOUBLE_EQ(fastpath->value, 1.0);
}

TEST(NdpStats, RejectsBadBinCounts) {
  PopulatedTestbed fx;
  EXPECT_THROW(fx.testbed.ndp_client().Stats(PopulatedTestbed::kKey, "v02", 0),
               RpcError);
  EXPECT_THROW(
      fx.testbed.ndp_client().Stats(PopulatedTestbed::kKey, "v02", 100000),
      RpcError);
}

TEST(NdpObservability, MetricsScrapeAgreesWithLoadStats) {
  PopulatedTestbed fx;
  NdpLoadStats stats;
  (void)fx.testbed.ndp_client().Contour(PopulatedTestbed::kKey, "v02", {0.1},
                                        &stats);

  const std::vector<obs::MetricSnapshot> scraped =
      fx.testbed.ndp_client().ScrapeMetrics();

  const obs::MetricSnapshot* bytes_out =
      obs::FindMetric(scraped, "ndp_bytes_out_total");
  ASSERT_NE(bytes_out, nullptr);
  EXPECT_DOUBLE_EQ(bytes_out->value,
                   static_cast<double>(stats.payload_bytes));

  const obs::MetricSnapshot* selected =
      obs::FindMetric(scraped, "ndp_selected_points_total");
  ASSERT_NE(selected, nullptr);
  EXPECT_DOUBLE_EQ(selected->value,
                   static_cast<double>(stats.selected_points));

  // The rpc dispatcher's per-method view of the same single fetch.
  const obs::MetricSnapshot* select_requests =
      obs::FindMetric(scraped, "rpc_requests_total{method=ndp.select}");
  ASSERT_NE(select_requests, nullptr);
  EXPECT_DOUBLE_EQ(select_requests->value, 1.0);
  const obs::MetricSnapshot* select_latency =
      obs::FindMetric(scraped, "rpc_dispatch_seconds{method=ndp.select}");
  ASSERT_NE(select_latency, nullptr);
  EXPECT_EQ(select_latency->count, 1u);

  // Span-derived client phase timings are consistent with the total.
  EXPECT_GT(stats.client_s, 0.0);
  EXPECT_LE(stats.client_decode_s + stats.client_scatter_s, stats.client_s);
}

TEST(NdpObservability, TraceCapturesSplitPipelinePhases) {
  obs::Tracer& tracer = obs::GlobalTracer();
  tracer.Clear();
  tracer.Enable();
  {
    PopulatedTestbed fx("lz4");
    (void)fx.testbed.ndp_client().Contour(PopulatedTestbed::kKey, "v02",
                                          {0.1});
  }
  tracer.Enable(false);
  const std::string json = tracer.ChromeJson();
  tracer.Clear();

  // Server half: read (with the codec nested inside), scan, pack.
  for (const char* span :
       {"ndp.read", "codec.decompress:lz4", "ndp.select.scan", "ndp.pack",
        "rpc.dispatch:ndp.select",
        // Client half: round trip, decode, scatter.
        "rpc.call:ndp.select", "ndp.fetch", "ndp.decode", "ndp.scatter"}) {
    EXPECT_NE(json.find(std::string("\"") + span + "\""), std::string::npos)
        << "missing span: " << span;
  }
  // Both halves render on their own named tracks.
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"client\""), std::string::npos);
}

TEST(Catalog, PutListOpenRoundTrip) {
  Testbed testbed;
  TimestepCatalog catalog(testbed.LocalGateway());
  sim::ImpactConfig cfg;
  cfg.n = 12;
  for (const std::int64_t t : {0LL, 24006LL, 48013LL}) {
    catalog.Put(t, sim::GenerateImpactTimestep(cfg, t, {"v02"}),
                compress::MakeCodec("lz4"));
  }
  EXPECT_EQ(catalog.Timesteps(), (std::vector<std::int64_t>{0, 24006, 48013}));
  EXPECT_TRUE(catalog.Contains(24006));
  EXPECT_FALSE(catalog.Contains(7));
  EXPECT_EQ(catalog.Open(0).header().dims.nx, 12);
}

TEST(Catalog, IgnoresForeignKeys) {
  Testbed testbed;
  testbed.store().Put(testbed.bucket(), "tsXYZ.vnd", ToBytes("junk"));
  testbed.store().Put(testbed.bucket(), "ts12.txt", ToBytes("junk"));
  testbed.store().Put(testbed.bucket(), "other.vnd", ToBytes("junk"));
  TimestepCatalog catalog(testbed.LocalGateway());
  EXPECT_TRUE(catalog.Timesteps().empty());
}

TEST(MovieDriver, BaselineAndNdpProduceIdenticalMovies) {
  Testbed testbed;
  // Storage-side catalog for population + the server; client-side remote
  // catalog for the baseline run.
  TimestepCatalog storage_catalog(testbed.LocalGateway());
  sim::ImpactConfig cfg;
  cfg.n = 16;
  const std::vector<std::int64_t> steps = {0, 24006, 48013};
  for (const std::int64_t t : steps) {
    storage_catalog.Put(t, sim::GenerateImpactTimestep(cfg, t, {"v02"}),
                        compress::MakeCodec("gzip"));
  }

  const ContourMovieDriver driver("v02", {0.1});
  std::vector<contour::PolyData> baseline_frames;
  TimestepCatalog remote_catalog(testbed.RemoteGateway());
  const auto baseline_info = driver.RunBaseline(
      remote_catalog, [&](const ContourMovieDriver::FrameInfo&,
                          const contour::PolyData& poly) {
        baseline_frames.push_back(poly);
      });

  std::vector<contour::PolyData> ndp_frames;
  const auto ndp_info = driver.RunNdp(
      testbed.ndp_client(), steps,
      [&](const ContourMovieDriver::FrameInfo& info,
          const contour::PolyData& poly) {
        EXPECT_TRUE(info.ndp_stats.has_value());
        ndp_frames.push_back(poly);
      });

  ASSERT_EQ(baseline_info.size(), steps.size());
  ASSERT_EQ(ndp_info.size(), steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(baseline_info[i].timestep, ndp_info[i].timestep);
    EXPECT_EQ(baseline_info[i].triangles, ndp_info[i].triangles);
    EXPECT_TRUE(ndp_frames[i].GeometricallyEquals(baseline_frames[i], 0.0));
  }
}

TEST(NdpPipeline, SourceIntegratesWithSinks) {
  PopulatedTestbed fx;
  NdpContourSource source(fx.testbed.ndp_client_ptr(), PopulatedTestbed::kKey,
                          "v02", {0.1});
  pipeline::PolyStatsSink sink;
  sink.SetInputConnection(0, &source);
  sink.Update();
  EXPECT_GT(sink.stats().triangles, 0u);
  EXPECT_GT(source.last_stats().selected_points, 0u);

  // Interactive isovalue change re-runs the NDP fetch.
  source.SetIsovalues({0.5});
  sink.Update();
  EXPECT_EQ(source.execution_count(), 2u);
}

}  // namespace
}  // namespace vizndp::ndp
