// ndpbench — real-clock benchmark of the NDP fetch path over loopback TCP.
//
//   ndpbench setup --workload W --seed S --dir D
//       Generates the workload's dataset files under D/data, contours every
//       request of the workload with the dense filter (the oracle), writes
//       the request plan with the oracle's geometry hashes to D/plan.txt and
//       prints the number of storage nodes the workload runs ("servers: N").
//   ndpbench serve --dir D [--trace 1]
//       One storage node: ndp::NdpServer over TCP on an ephemeral port
//       (printed as "port: N"). Serves until its stdin closes.
//   ndpbench load --workload W --seed S --dir D --ports P,... --pids PID,...
//                 --seconds N [--trace 1]
//       The closed-loop load generator: fetch + SparseField::Contour per
//       request, every geometry checked against the oracle hash. Prints one
//       JSON line of raw samples; run.py turns them into metrics.
//
// Each mode runs in its own process so that the data generation and the
// oracle never touch the load generator's peak RSS, and the servers' CPU
// time can be read from /proc apart from the client's.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cluster/sharded_client.h"
#include "compress/checksum.h"
#include "contour/marching_cubes.h"
#include "contour/select.h"
#include "contour/sparse_field.h"
#include "io/vnd_format.h"
#include "ndp/bricked_select.h"
#include "ndp/ndp_client.h"
#include "ndp/ndp_server.h"
#include "net/reconnect.h"
#include "net/tcp.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/server.h"
#include "sim/impact.h"
#include "sim/nyx.h"
#include "storage/file_gateway.h"
#include "storage/local_store.h"

using namespace vizndp;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workloads. rationale.json records why each exists; this is only the shape.

struct Workload {
  std::string name;
  bool impact = true;     // impact 256^3 v02+v03 LZ4 bricked; else Nyx 192^3
  int servers = 1;        // server processes
  int clients = 1;        // closed-loop client threads, one connection each
  bool sharded = false;   // cluster::ShardedNdpClient over every server
  std::int64_t chunk_bricks = 0;  // streamed replies when > 0
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"impact-bricked", true, 1, 1, false, 0},
      {"nyx-whole-x3", false, 1, 3, false, 0},
      {"impact-sharded-stream", true, 3, 1, true, 16},
  };
  return kWorkloads;
}

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return w;
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

constexpr std::int64_t kImpactEdge = 256;
constexpr std::int64_t kNyxEdge = 192;
constexpr std::int32_t kBrickEdge = 16;
// Two of the paper's nine evaluation timesteps: after the impact, where
// both contour targets have structure (labels 4 and 6 of 0..8).
constexpr int kTimestepIndices[] = {4, 6};
const char* const kImpactArrays[] = {"v02", "v03"};
// Isovalues per impact array, spread evenly over the (0, 1) volume-fraction
// range and jittered by the seed. v02 (water, the paper's main target)
// gets twice v03's share: with equal shares the median would sit exactly
// on the gap between the cheap v03 and the dear v02 fetches and jump from
// run to run; this way both p50 and p90 fall inside a group of v02 fetches.
constexpr int kIsovaluesPerArray[] = {4, 2};

// ---------------------------------------------------------------------------
// Small utilities.

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::runtime_error("unexpected argument " + key);
      }
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string Require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// FNV-1a over the exact bits of every point and triangle, in output
// order: the NDP path must reproduce the dense filter bit for bit.
std::uint64_t HashGeometry(const contour::PolyData& poly) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  const std::uint64_t counts[2] = {poly.PointCount(), poly.TriangleCount()};
  mix(counts, sizeof(counts));
  for (const contour::Vec3& p : poly.points()) {
    const double xyz[3] = {p.x, p.y, p.z};
    mix(xyz, sizeof(xyz));
  }
  for (const auto& t : poly.triangles()) mix(t.data(), sizeof(t));
  return h;
}

// utime + stime of a whole process (all threads), in seconds.
double ProcessCpuSeconds(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string line;
  std::getline(in, line);
  const size_t close = line.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read /proc/" + pid + "/stat");
  }
  std::istringstream fields(line.substr(close + 2));
  std::string f;
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int field = 3; field <= 15 && fields >> f; ++field) {
    if (field == 14) utime = std::stoull(f);
    if (field == 15) stime = std::stoull(f);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::uint64_t PeakRssKb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The request plan shared by setup and load.

struct Request {
  std::string key;
  std::string array;
  double iso = 0;
  std::uint64_t hash = 0;  // of the dense filter's geometry
};

std::vector<Request> ReadPlan(const std::filesystem::path& dir) {
  std::ifstream in(dir / "plan.txt");
  std::vector<Request> plan;
  std::string iso;
  Request r;
  while (in >> r.key >> r.array >> iso >> r.hash) {
    r.iso = std::strtod(iso.c_str(), nullptr);
    plan.push_back(r);
  }
  if (plan.empty()) throw std::runtime_error("empty plan in " + dir.string());
  return plan;
}

// Runs `tasks` on up to four threads (the machine budget); rethrows the
// first failure.
void RunParallel(const std::vector<std::function<void()>>& tasks) {
  std::atomic<size_t> next{0};
  std::vector<std::exception_ptr> errors(tasks.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < std::min<size_t>(4, tasks.size()); ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < tasks.size();) {
        try {
          tasks[i]();
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

int CmdSetup(const Args& args) {
  const Workload& w = FindWorkload(args.Require("workload"));
  const std::uint64_t seed = std::stoull(args.Require("seed"));
  const std::filesystem::path dir = args.Require("dir");
  storage::LocalObjectStore store(dir);
  store.CreateBucket("data");
  std::mt19937_64 rng(seed);
  std::vector<Request> plan;
  // Generation runs one task per (file, array); the VND files are
  // written once all arrays of a file exist.
  struct File {
    std::string key;
    std::string codec;
    std::int32_t brick_edge = 0;
    std::vector<grid::Dataset> arrays;  // one single-array dataset each
  };
  std::vector<File> files;
  std::vector<std::function<void()>> generate;

  if (w.impact) {
    sim::ImpactConfig cfg;
    cfg.n = kImpactEdge;
    cfg.seed = seed;
    const std::vector<std::int64_t> labels = sim::ImpactTimestepLabels(cfg);
    std::uniform_real_distribution<double> jitter(-0.05, 0.05);
    files.reserve(std::size(kTimestepIndices));
    for (const int ti : kTimestepIndices) {
      const std::int64_t t = labels[static_cast<size_t>(ti)];
      File& f = files.emplace_back(File{"impact_t" + std::to_string(t) +
                                            ".vnd",
                                        "lz4", kBrickEdge, {}});
      f.arrays.resize(std::size(kImpactArrays));
      for (size_t a = 0; a < std::size(kImpactArrays); ++a) {
        generate.push_back([cfg, t, a, &out = f.arrays[a]] {
          out = sim::GenerateImpactTimestep(cfg, t, {kImpactArrays[a]});
        });
        const int count = kIsovaluesPerArray[a];
        for (int k = 0; k < count; ++k) {
          const double iso = (k + 1) / static_cast<double>(count + 1) +
                             jitter(rng);
          plan.push_back(Request{f.key, kImpactArrays[a], iso});
        }
      }
    }
  } else {
    sim::NyxConfig cfg;
    cfg.n = kNyxEdge;
    cfg.seed = seed;
    File& f = files.emplace_back(File{"nyx.vnd", "gzip", 0, {}});
    f.arrays.resize(1);
    generate.push_back([cfg, &out = f.arrays[0]] {
      out = sim::GenerateNyx(cfg, {"baryon_density"});
    });
    plan.push_back(Request{"nyx.vnd", "baryon_density", sim::kHaloThreshold});
  }
  const auto t0 = Clock::now();
  RunParallel(generate);
  const auto t_gen = Clock::now();
  std::vector<std::function<void()>> writes;
  for (File& f : files) {
    writes.push_back([&store, &f] {
      grid::Dataset ds(f.arrays.front().dims(), f.arrays.front().geometry());
      for (const grid::Dataset& one : f.arrays) ds.AddArray(one.ArrayAt(0));
      io::VndWriter writer(ds);
      writer.SetCodec(compress::MakeCodec(f.codec));
      writer.SetBrickSize(f.brick_edge);
      writer.WriteToStore(store, "data", f.key);
    });
  }
  RunParallel(writes);
  const auto t1 = Clock::now();

  // Oracle: the dense filter over each array read back from its stored
  // file, so a write/read defect shows too. One task per array.
  const storage::FileGateway gateway(store, "data");
  std::map<std::pair<std::string, std::string>, std::vector<Request*>> by_array;
  for (Request& r : plan) by_array[{r.key, r.array}].push_back(&r);
  std::vector<std::function<void()>> oracles;
  for (auto& [id, requests] : by_array) {
    oracles.push_back([&gateway, &id = id, &requests = requests] {
      const io::VndReader reader(gateway.Open(id.first));
      const grid::DataArray data = reader.ReadArray(id.second);
      for (Request* r : requests) {
        const double isos[1] = {r->iso};
        const contour::PolyData poly = contour::MarchingCubes(
            reader.header().dims, reader.header().geometry, data, isos);
        r->hash = HashGeometry(poly);
      }
    });
  }
  RunParallel(oracles);
  const auto t2 = Clock::now();
  std::fprintf(stderr, "setup %s: generate %.2f s, write %.2f s, oracle %.2f s\n",
               w.name.c_str(), Ms(t_gen - t0) / 1e3, Ms(t1 - t_gen) / 1e3,
               Ms(t2 - t1) / 1e3);

  std::ofstream out(dir / "plan.txt");
  for (const Request& r : plan) {
    char iso[64];
    std::snprintf(iso, sizeof(iso), "%.17g", r.iso);
    out << r.key << ' ' << r.array << ' ' << iso << ' ' << r.hash << '\n';
  }
  if (!out.good()) return 1;
  // run.py starts this many storage nodes on the data.
  std::printf("servers: %d\n", w.servers);
  return 0;
}

// ---------------------------------------------------------------------------
// Storage node.

int CmdServe(const Args& args) {
  if (args.Get("trace", "0") == "1") obs::GlobalTracer().Enable();
  storage::LocalObjectStore store(args.Require("dir"));
  store.CreateBucket("data");
  rpc::Server rpc_server;
  ndp::NdpServer ndp_server(storage::FileGateway(store, "data"));
  ndp_server.SetMemoryBudget(&rpc_server.memory_budget());
  ndp_server.Bind(rpc_server);
  rpc::TcpRpcServer tcp(rpc_server, 0);
  std::printf("port: %u\n", tcp.port());
  std::fflush(stdout);
  // The parent holds our stdin; its end closing (normal stop or the
  // parent dying) stops the server, so no node outlives a run.
  char buf[256];
  while (std::fread(buf, 1, sizeof(buf), stdin) > 0) {
  }
  tcp.Stop();
  return 0;
}

// ---------------------------------------------------------------------------
// Load generator.

// Counts the bytes of every frame the client receives: the exact reply
// volume on the wire, summed over every connection of a fetch.
class CountingTransport final : public net::Transport {
 public:
  CountingTransport(net::TransportPtr inner, std::atomic<std::uint64_t>& rx)
      : inner_(std::move(inner)), rx_(rx) {}
  void Send(ByteSpan frame) override { inner_->Send(frame); }
  Bytes Receive(net::Deadline deadline) override {
    Bytes frame = inner_->Receive(deadline);
    rx_.fetch_add(frame.size(), std::memory_order_relaxed);
    return frame;
  }
  void Close() override { inner_->Close(); }

 private:
  net::TransportPtr inner_;
  std::atomic<std::uint64_t>& rx_;
};

// One closed-loop user: a fetcher over its own connection(s).
struct Client {
  std::shared_ptr<ndp::NdpFetcher> fetcher;
  std::atomic<std::uint64_t> rx_bytes{0};
  std::vector<size_t> order;  // seeded request sequence, cycled
  size_t next = 0;
};

struct Sample {
  double load_ms = 0;
  double geometry_ms = 0;
  std::uint64_t reply_bytes = 0;
  bool ok = false;
};

// Per-layer quantities of traced fetches, summed over fetches.
using LayerSums = std::map<std::string, double>;

// Half-open microsecond intervals, kept sorted and disjoint.
using Intervals = std::vector<std::pair<std::int64_t, std::int64_t>>;

Intervals Union(Intervals v) {
  std::sort(v.begin(), v.end());
  Intervals out;
  for (const auto& iv : v) {
    if (iv.second <= iv.first) continue;
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

// a minus b; both sorted and disjoint.
Intervals Subtract(const Intervals& a, const Intervals& b) {
  Intervals out;
  size_t j = 0;
  for (auto [s, e] : a) {
    while (j < b.size() && b[j].second <= s) ++j;
    size_t k = j;
    while (s < e && k < b.size() && b[k].first < e) {
      if (b[k].first > s) out.emplace_back(s, b[k].first);
      s = std::max(s, b[k].second);
      ++k;
    }
    if (s < e) out.emplace_back(s, e);
  }
  return out;
}

std::int64_t Measure(const Intervals& v, std::int64_t lo, std::int64_t hi) {
  std::int64_t total = 0;
  for (const auto& [s, e] : v) {
    total += std::max<std::int64_t>(0, std::min(e, hi) - std::max(s, lo));
  }
  return total;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Spans that stand for a named layer of the fetch. Time in any other
// span's self time (rpc.call, ndp.select, ndp.read, ...) is
// unattributed unless a replay accounts for it.
bool IsLayerSpan(const std::string& name) {
  return name == "gateway.read" || StartsWith(name, "codec.decompress:") ||
         name == "ndp.select.scan" || name == "ndp.pack" ||
         StartsWith(name, "wire:") || name == "ndp.decode" ||
         name == "ndp.scatter" || name == "cluster.merge";
}

// Replayed per-request costs of layers that have no span of their own.
struct Replay {
  double scan_ms = 0;            // bricked: BrickedSelectStats.scan_seconds
  double scanned_points = 0;     // points the scan visited
  double crc_ms = 0;             // compress::Crc32 over the bytes read
  double decompressed_bytes = 0; // raw bytes the codec produced
  double field_ms = 0;           // SparseField constructor alone
  double scatter_ms = 0;         // SparseField::Scatter of the selection
};

// Replayed results land here so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

template <typename F>
double MedianMs(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    t.push_back(Ms(Clock::now() - t0));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

Replay ReplayRequest(const storage::FileGateway& gateway, const Request& r) {
  const io::VndReader reader(gateway.Open(r.key));
  const io::ArrayMeta& meta = *reader.header().Find(r.array);
  const grid::Dims dims = reader.header().dims;
  const double isos[1] = {r.iso};
  const Bytes stored = reader.ReadArrayRange(r.array, 0, meta.stored_size);
  constexpr int kReps = 3;
  Replay out;
  contour::Selection sel;
  if (meta.bricks.has_value()) {
    std::vector<double> scan;
    for (int i = 0; i < kReps; ++i) {
      ndp::BrickedSelectStats stats;
      sel = ndp::SelectInterestingPointsBricked(reader, r.array, isos, &stats);
      scan.push_back(stats.scan_seconds * 1e3);
    }
    std::sort(scan.begin(), scan.end());
    out.scan_ms = scan[scan.size() / 2];
    // The bricks the server reads: the straddle predicate of
    // bricked_select.cc over the header's per-brick min/max.
    const io::BrickGrid bgrid(dims, meta.bricks->edge);
    std::vector<ByteSpan> bricks;
    for (std::int64_t b = 0; b < bgrid.BrickCount(); ++b) {
      const io::BrickEntry& e = meta.bricks->entries[static_cast<size_t>(b)];
      if (!(e.min < r.iso && e.max >= r.iso)) continue;
      const double points = static_cast<double>(bgrid.BrickExtent(b).PointCount());
      out.scanned_points += points;
      out.decompressed_bytes += points * grid::DataTypeSize(meta.type);
      bricks.push_back(ByteSpan(stored).subspan(e.offset, e.stored_size));
    }
    out.crc_ms = MedianMs(kReps, [&] {
      for (const ByteSpan b : bricks) g_sink = compress::Crc32(b);
    });
  } else {
    const grid::DataArray data = reader.ReadArray(r.array);
    sel = contour::SelectInterestingPoints(dims, data, isos);
    out.scanned_points = static_cast<double>(dims.PointCount());
    out.decompressed_bytes = static_cast<double>(meta.raw_size);
    out.crc_ms = MedianMs(kReps, [&] { g_sink = compress::Crc32(stored); });
  }
  out.field_ms = MedianMs(kReps, [&] {
    const contour::SparseField field(dims, meta.type);
    g_sink = static_cast<std::uint64_t>(field.ValidCount());
  });
  std::vector<double> scatter;
  for (int i = 0; i < kReps; ++i) {
    contour::SparseField field(dims, meta.type);
    const auto t0 = Clock::now();
    field.Scatter(sel.ids, sel.values);
    scatter.push_back(Ms(Clock::now() - t0));
  }
  std::sort(scatter.begin(), scatter.end());
  out.scatter_ms = scatter[scatter.size() / 2];
  return out;
}

// Folds one traced fetch's merged span forest (client, server and wire
// tracks, clock-aligned) into per-layer sums.
void FoldTrace(const std::vector<obs::DrainedEvent>& events,
               const ndp::NdpLoadStats& stats, const Replay& replay,
               LayerSums& sums) {
  std::map<std::uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < events.size(); ++i) {
    children[events[i].parent_span_id].push_back(i);
  }
  auto interval = [&](size_t i) {
    const auto s = static_cast<std::int64_t>(events[i].start_us);
    return std::make_pair(s, s + static_cast<std::int64_t>(events[i].dur_us));
  };
  Intervals layer;
  Intervals other;
  std::vector<double> self_ms(events.size(), 0);
  const obs::DrainedEvent* root = nullptr;
  std::vector<double> shards;
  double decode_ms = 0;
  auto& s = sums;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::DrainedEvent& e = events[i];
    Intervals kids;
    if (e.span_id != 0) {
      const auto it = children.find(e.span_id);
      if (it != children.end()) {
        for (const size_t c : it->second) kids.push_back(interval(c));
      }
    }
    const Intervals self = Subtract({interval(i)}, Union(kids));
    const auto [lo, hi] = interval(i);
    self_ms[i] = static_cast<double>(Measure(self, lo, hi)) / 1e3;
    Intervals& bucket = IsLayerSpan(e.name) ? layer : other;
    bucket.insert(bucket.end(), self.begin(), self.end());
    const double ms = static_cast<double>(e.dur_us) / 1e3;
    const std::string& n = e.name;
    if (n == "gateway.read") s["storage.read_ms"] += ms;
    if (n == "ndp.read") s["io.read_self_ms"] += self_ms[i];
    if (StartsWith(n, "codec.decompress:")) s["compress.decompress_ms"] += ms;
    if (n == "ndp.select.scan") s["span.scan_ms"] += ms;
    if (n == "ndp.select" || n == "ndp.select.stream") s["ndp.select_ms"] += ms;
    if (n == "ndp.pack") s["ndp.pack_ms"] += ms;
    if (n == "ndp.decode") decode_ms += ms;
    if (n == "ndp.scatter" || n == "cluster.merge") s["ndp.scatter_ms"] += ms;
    if (n == "bench.contour") s["contour.mc_ms"] += ms;
    if (StartsWith(n, "wire:")) s["rpc.wire_ms"] += ms;
    if (StartsWith(n, "rpc.attempt:") || StartsWith(n, "rpc.stream:")) {
      s["rpc.outside_handler_ms"] += ms;
    }
    if (StartsWith(n, "rpc.dispatch:")) s["rpc.outside_handler_ms"] -= ms;
    if (n == "ndp.stream.chunk") s["ndp.stream_chunk_ms"] += ms;
    if (n == "cluster.fetch") s["cluster.fetch_ms"] += ms;
    if (StartsWith(n, "cluster.shard")) shards.push_back(ms);
    if (n == "rpc.call:ndp.info") s["cluster.info_ms"] += ms;
    if (n == "ndp.fetch" || n == "cluster.fetch") {
      if (root == nullptr || e.start_us < root->start_us) root = &e;
    }
  }
  if (!shards.empty()) {
    std::sort(shards.begin(), shards.end());
    s["cluster.shard_max_ms"] += shards.back();
    const double median = shards[shards.size() / 2];
    s["cluster.shard_skew"] += median > 0 ? shards.back() / median : 1.0;
  }
  if (root == nullptr) throw std::runtime_error("traced fetch has no root");
  const auto root_index = static_cast<size_t>(root - events.data());
  // The dense SparseField: the fetch root's own time (no child span
  // covers it on the monolithic path).
  s["contour.sparse_field_ms"] += self_ms[root_index];
  s["ndp.decode_ms"] += decode_ms;

  // Coverage: the share of the fetch's wall time that a layer span or a
  // replay of a span-less layer accounts for. Replays can only claim time
  // that sits in some non-layer span's self time.
  const Intervals covered = Union(layer);
  const Intervals rest = Subtract(Union(other), covered);
  const auto lo = static_cast<std::int64_t>(root->start_us);
  const auto hi = lo + static_cast<std::int64_t>(root->dur_us);
  double unspanned = replay.crc_ms;
  if (stats.bricks_total > 0) unspanned += replay.scan_ms;
  if (root->name == "ndp.fetch") unspanned += replay.field_ms;
  s["obs.covered_ms"] += static_cast<double>(Measure(covered, lo, hi)) / 1e3 +
                         std::min(unspanned, static_cast<double>(
                                                 Measure(rest, lo, hi)) / 1e3);
  s["obs.root_ms"] += static_cast<double>(root->dur_us) / 1e3;

  s["obs.stats_gap_ms"] += stats.client_decode_s * 1e3 - decode_ms;

  s["storage.bytes_read"] += static_cast<double>(stats.stored_bytes);
  s["io.bricks"] += static_cast<double>(stats.bricks_read);
  s["io.bricks_total"] += static_cast<double>(stats.bricks_total);
  s["ndp.payload_bytes"] += static_cast<double>(stats.payload_bytes);
  s["contour.selected_points"] += static_cast<double>(stats.selected_points);
  s["ndp.stream_chunks"] += static_cast<double>(stats.stream_chunks);
  s["replay.scan_ms"] += replay.scan_ms;
  s["replay.scanned_points"] += replay.scanned_points;
  s["compress.crc_ms"] += replay.crc_ms;
  s["replay.decompressed_bytes"] += replay.decompressed_bytes;
  s["contour.sparse_field_replay_ms"] += replay.field_ms;
  s["contour.scatter_replay_ms"] += replay.scatter_ms;
}

// Client-side counters (rpc::Client and the sharded client count into
// the process default registry).
struct ClientCounters {
  double retries = 0;
  double busy = 0;
  double hedges = 0;
  double failovers = 0;
};

ClientCounters ReadCounters() {
  obs::Registry& reg = obs::DefaultRegistry();
  auto value = [&reg](const char* name, const obs::Labels& labels = {}) {
    return static_cast<double>(reg.GetCounter(name, labels).value());
  };
  ClientCounters out;
  for (const char* m : {"ndp.select", "ndp.info"}) {
    out.retries += value("rpc_retries_total", {{"method", m}});
    out.busy += value("rpc_busy_total", {{"method", m}});
  }
  // A streamed select resumes from its cursor instead of retrying whole.
  out.retries += value("ndp_stream_resume_total");
  out.hedges = value("ndp_hedge_launched_total");
  out.failovers = value("cluster_failover_total");
  return out;
}

struct Phase {
  std::vector<Sample> samples;
  double elapsed_s = 0;
  double server_cpu_s = 0;
  double client_cpu_s = 0;
  ClientCounters counters;  // deltas over the phase
};

struct Loader {
  Loader(std::vector<Request> p, std::vector<std::string> pids)
      : plan(std::move(p)), server_pids(std::move(pids)) {}

  std::vector<Request> plan;
  std::vector<std::string> server_pids;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Replay> replays;  // per plan entry; traced phases only
  LayerSums layers;
  double traced_fetches = 0;
  std::mutex mu;

  Sample RunOne(Client& c, bool traced) {
    const size_t idx = c.order[c.next++ % c.order.size()];
    const Request& r = plan[idx];
    const std::vector<double> isos = {r.iso};
    std::optional<obs::ScopedTraceContext> scope;
    if (traced) scope.emplace(obs::TraceContext::Mint(/*sampled=*/true));
    const std::uint64_t rx0 = c.rx_bytes.load();
    Sample out;
    ndp::NdpLoadStats stats;
    const auto t0 = Clock::now();
    grid::UniformGeometry geometry;
    const contour::SparseField field =
        c.fetcher->FetchSparseField(r.key, r.array, isos, &geometry, &stats);
    const auto t1 = Clock::now();
    contour::PolyData poly;
    {
      obs::Span span("bench.contour");
      poly = field.Contour(geometry, isos);
    }
    const auto t2 = Clock::now();
    out.load_ms = Ms(t1 - t0);
    out.geometry_ms = Ms(t2 - t0);
    out.reply_bytes = c.rx_bytes.load() - rx0;
    out.ok = HashGeometry(poly) == r.hash;
    if (traced) {
      const std::uint64_t trace_id = obs::CurrentTraceContext().trace_id;
      scope.reset();
      const std::vector<obs::DrainedEvent> events =
          obs::GlobalTracer().Extract(trace_id);
      std::lock_guard lock(mu);
      FoldTrace(events, stats, replays[idx], layers);
      layers["contour.triangles"] += static_cast<double>(poly.TriangleCount());
      traced_fetches += 1;
    }
    return out;
  }

  // Every client runs its closed loop until `seconds` have passed; each
  // finishes the request it is in.
  Phase Run(double seconds, bool traced) {
    obs::GlobalTracer().Enable(traced);
    Phase phase;
    std::vector<double> cpu0;
    for (const auto& pid : server_pids) cpu0.push_back(ProcessCpuSeconds(pid));
    const double self0 = ProcessCpuSeconds("self");
    const ClientCounters counters0 = ReadCounters();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::vector<Sample>> per(clients.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < clients.size(); ++i) {
      threads.emplace_back([&, i] {
        Client& c = *clients[i];
        // Whole passes over the request sequence, so every request has
        // the same weight in every run's percentiles.
        do {
          try {
            per[i].push_back(RunOne(c, traced));
          } catch (const std::exception& e) {
            // A failed fetch counts as failed; the connection may be
            // unusable, so this client stops.
            std::fprintf(stderr, "fetch failed: %s\n", e.what());
            per[i].push_back(Sample{});
            return;
          }
        } while (Clock::now() < deadline || c.next % c.order.size() != 0);
      });
    }
    for (auto& t : threads) t.join();
    phase.elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    phase.client_cpu_s = ProcessCpuSeconds("self") - self0;
    const ClientCounters counters1 = ReadCounters();
    phase.counters.retries = counters1.retries - counters0.retries;
    phase.counters.busy = counters1.busy - counters0.busy;
    phase.counters.hedges = counters1.hedges - counters0.hedges;
    phase.counters.failovers = counters1.failovers - counters0.failovers;
    for (size_t i = 0; i < server_pids.size(); ++i) {
      phase.server_cpu_s += ProcessCpuSeconds(server_pids[i]) - cpu0[i];
    }
    for (auto& v : per) {
      phase.samples.insert(phase.samples.end(), v.begin(), v.end());
    }
    obs::GlobalTracer().Enable(false);
    return phase;
  }
};

void PrintSamples(std::ostream& os, const char* name,
                  const std::vector<Sample>& samples,
                  double Sample::*field) {
  os << '"' << name << "\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", samples[i].*field);
    os << (i ? "," : "") << buf;
  }
  os << ']';
}

void PrintPhase(std::ostream& os, const char* name, const Phase& p) {
  std::uint64_t bytes = 0;
  std::uint64_t failed = 0;
  for (const Sample& s : p.samples) {
    bytes += s.reply_bytes;
    failed += s.ok ? 0 : 1;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"fetches\":%zu,\"failed\":%llu,\"elapsed_s\":%.6f,"
                "\"reply_bytes\":%llu,\"server_cpu_s\":%.4f,"
                "\"client_cpu_s\":%.4f,\"retries\":%.0f,\"busy\":%.0f,"
                "\"failovers\":%.0f,",
                name, p.samples.size(), static_cast<unsigned long long>(failed),
                p.elapsed_s, static_cast<unsigned long long>(bytes),
                p.server_cpu_s, p.client_cpu_s, p.counters.retries,
                p.counters.busy, p.counters.failovers);
  os << buf;
  PrintSamples(os, "load_ms", p.samples, &Sample::load_ms);
  os << ',';
  PrintSamples(os, "geometry_ms", p.samples, &Sample::geometry_ms);
  os << '}';
}

Phase Merge(const std::vector<Phase>& phases) {
  Phase out;
  for (const Phase& p : phases) {
    out.samples.insert(out.samples.end(), p.samples.begin(), p.samples.end());
    out.elapsed_s += p.elapsed_s;
    out.server_cpu_s += p.server_cpu_s;
    out.client_cpu_s += p.client_cpu_s;
    out.counters.retries += p.counters.retries;
    out.counters.busy += p.counters.busy;
    out.counters.hedges += p.counters.hedges;
    out.counters.failovers += p.counters.failovers;
  }
  return out;
}

int CmdLoad(const Args& args) {
  const Workload& w = FindWorkload(args.Require("workload"));
  const std::uint64_t seed = std::stoull(args.Require("seed"));
  const std::filesystem::path dir = args.Require("dir");
  const double seconds = std::stod(args.Require("seconds"));
  const bool trace = args.Get("trace", "0") == "1";
  const std::vector<std::string> ports = Split(args.Require("ports"), ',');
  Loader loader(ReadPlan(dir), Split(args.Require("pids"), ','));
  if (static_cast<int>(ports.size()) != w.servers) {
    throw std::runtime_error("wrong number of server ports");
  }

  std::mt19937_64 rng(seed ^ 0x6c6f6164ull);
  for (int i = 0; i < w.clients; ++i) {
    auto c = std::make_unique<Client>();
    std::vector<std::shared_ptr<ndp::NdpClient>> nodes;
    for (const std::string& port : ports) {
      // Configured like `vizndp_tool fetch --retries 1` against a tier:
      // a dropped connection is re-dialed and the idempotent call retried
      // once. Retries are counted (rpc.retries), not hidden.
      auto dial = [p = static_cast<std::uint16_t>(std::stoi(port))] {
        return net::TcpConnect("127.0.0.1", p);
      };
      ndp::NdpClientOptions options;
      options.retry.max_attempts = 2;
      auto rpc = std::make_shared<rpc::Client>(
          std::make_unique<CountingTransport>(
              std::make_unique<net::ReconnectingTransport>(dial),
              c->rx_bytes));
      nodes.push_back(std::make_shared<ndp::NdpClient>(rpc, "data", options));
    }
    if (w.sharded) {
      auto sharded = std::make_shared<cluster::ShardedNdpClient>(
          nodes, /*replicas=*/2);
      if (w.chunk_bricks > 0) {
        ndp::StreamOptions stream;
        stream.chunk_bricks = w.chunk_bricks;
        sharded->SetStream(stream);
      }
      c->fetcher = sharded;
    } else {
      c->fetcher = nodes.front();
    }
    for (size_t k = 0; k < loader.plan.size(); ++k) c->order.push_back(k);
    std::shuffle(c->order.begin(), c->order.end(), rng);
    loader.clients.push_back(std::move(c));
  }

  // Warm-up: every client fetches every request once (page cache, lazy
  // connection and catalog state, the sharded client's info cache).
  for (size_t k = 0; k < loader.plan.size(); ++k) {
    for (auto& c : loader.clients) {
      if (!loader.RunOne(*c, false).ok) {
        throw std::runtime_error("warm-up geometry mismatch");
      }
    }
  }

  std::ostringstream os;
  os << '{';
  if (!trace) {
    PrintPhase(os, "untraced", loader.Run(seconds, false));
  } else {
    storage::LocalObjectStore store(dir);
    const storage::FileGateway gateway(store, "data");
    for (const Request& r : loader.plan) {
      loader.replays.push_back(ReplayRequest(gateway, r));
    }
    // Alternating untraced and traced blocks, so drift on the machine
    // lands on both sides of the tracing-overhead comparison.
    constexpr int kBlocks = 4;
    std::vector<Phase> untraced;
    std::vector<Phase> traced;
    for (int b = 0; b < kBlocks; ++b) {
      const bool on = b % 2 == 1;
      (on ? traced : untraced).push_back(loader.Run(seconds / kBlocks, on));
    }
    const Phase on = Merge(traced);
    loader.layers["rpc.retries"] = on.counters.retries;
    loader.layers["rpc.busy"] = on.counters.busy;
    loader.layers["cluster.hedges"] = on.counters.hedges;
    loader.layers["cluster.failovers"] = on.counters.failovers;
    PrintPhase(os, "untraced", Merge(untraced));
    os << ',';
    PrintPhase(os, "traced", on);
    os << ",\"traced_fetches\":" << loader.traced_fetches << ",\"layers\":{";
    bool first = true;
    for (const auto& [name, value] : loader.layers) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", value);
      os << (first ? "" : ",") << '"' << name << "\":" << buf;
      first = false;
    }
    os << '}';
  }
  os << ",\"client_peak_rss_kb\":" << PeakRssKb("self") << '}';
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: ndpbench setup|serve|load --key value ...\n");
    return 2;
  }
  try {
    const Args args(argc, argv);
    const std::string mode = argv[1];
    if (mode == "setup") return CmdSetup(args);
    if (mode == "serve") return CmdServe(args);
    if (mode == "load") return CmdLoad(args);
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ndpbench %s: %s\n", argv[1], e.what());
    return 1;
  }
}
