#include "ndp/ndp_client.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/error.h"
#include "contour/contour_filter.h"
#include "io/vnd_format.h"
#include "obs/context.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace vizndp::ndp {

using msgpack::Array;
using msgpack::Value;

NdpClient::NdpClient(std::shared_ptr<rpc::Client> client, std::string bucket,
                     const NdpClientOptions& options)
    : client_(std::move(client)),
      bucket_(std::move(bucket)),
      options_(options) {
  if (options_.retry.enabled()) {
    client_->SetRetryPolicy(options_.retry);
  }
}

contour::PolyData NdpFetcher::Contour(const std::string& key,
                                      const std::string& array,
                                      const std::vector<double>& isovalues,
                                      NdpLoadStats* stats) {
  grid::UniformGeometry geometry;
  const contour::SparseField field =
      FetchSparseField(key, array, isovalues, &geometry, stats);
  return field.Contour(geometry, isovalues);
}

namespace {

// ndp.select's positional params. The restriction slot (index 5) is
// present only when restricted or streamed — a stream always sends it,
// possibly Nil, so the stream map lands at its fixed position 6.
Array SelectParams(const std::string& bucket, const std::string& key,
                   const std::string& array,
                   const std::vector<double>& isovalues,
                   SelectionEncoding encoding,
                   const std::vector<std::int64_t>* only_bricks,
                   const StreamParams* stream) {
  Array isos;
  for (const double v : isovalues) isos.emplace_back(v);
  Array params{Value(bucket), Value(key), Value(array), Value(std::move(isos)),
               Value(static_cast<std::uint64_t>(encoding))};
  if (only_bricks != nullptr || stream != nullptr) {
    params.push_back(only_bricks != nullptr
                         ? BrickRestrictionToValue(*only_bricks)
                         : Value());
  }
  if (stream != nullptr) params.push_back(StreamParamsToValue(*stream));
  return params;
}

// A one-shot reply's shape in stream-header form: what a stream's
// header chunk would have said, covering the bricks the server read.
StreamHeader HeaderFromReply(const Value& reply) {
  StreamHeader h;
  const auto& dims_v = reply.At("dims").As<Array>();
  h.dims = grid::Dims{dims_v.at(0).AsInt(), dims_v.at(1).AsInt(),
                      dims_v.at(2).AsInt()};
  const auto& o = reply.At("origin").As<Array>();
  const auto& s = reply.At("spacing").As<Array>();
  for (size_t i = 0; i < 3; ++i) {
    h.origin[i] = o.at(i).AsDouble();
    h.spacing[i] = s.at(i).AsDouble();
  }
  h.dtype = grid::DataTypeFromName(reply.At("dtype").As<std::string>());
  h.bricks_total = reply.At("bricks_total").AsInt();
  h.stream_bricks = reply.At("bricks_read").AsInt();
  h.total_points = static_cast<std::int64_t>(reply.At("total_points").AsUint());
  return h;
}

bool SameGrid(const StreamHeader& a, const StreamHeader& b) {
  return a.dims.nx == b.dims.nx && a.dims.ny == b.dims.ny &&
         a.dims.nz == b.dims.nz && a.dtype == b.dtype;
}

// The first reply's header stays authoritative (a resumed stream's
// stream_bricks counts only its tail), but every later one must describe
// the same grid — a replica with different data is corruption, not
// recovery.
void AcceptHeader(const StreamHeader& h, SelectAccumulator& acc) {
  if (!acc.got_header) {
    acc.got_header = true;
    acc.header = h;
  } else if (!SameGrid(h, acc.header)) {
    throw DecodeError("stream resume: header shape mismatch");
  }
}

// The server's summary of one reply — a stream's terminal or a one-shot
// reply. A resumed stream keeps its last attempt's.
void FoldSummary(const Value& terminal, SelectAccumulator& acc) {
  acc.stored_bytes = terminal.At("stored_bytes").AsUint();
  acc.raw_bytes = terminal.At("raw_bytes").AsUint();
  acc.bricks_read = terminal.At("bricks_read").AsInt();
  acc.server_read_s = terminal.At("read_s").AsDouble();
  acc.server_select_s = terminal.At("select_s").AsDouble();
}

}  // namespace

grid::UniformGeometry SelectAccumulator::geometry() const {
  grid::UniformGeometry g;
  g.origin = {header.origin[0], header.origin[1], header.origin[2]};
  g.spacing = {header.spacing[0], header.spacing[1], header.spacing[2]};
  return g;
}

void SelectAccumulator::AddTo(NdpLoadStats& stats) const {
  stats.stored_bytes += stored_bytes;
  stats.raw_bytes = std::max(stats.raw_bytes, raw_bytes);
  stats.payload_bytes += payload_bytes;
  // Approximate frame bytes: payload dominates; metadata is ~200 B per
  // frame (a stream adds its header and terminal frames).
  stats.reply_bytes += payload_bytes + 256 * (stats.streamed ? chunks + 2 : 1);
  stats.total_points = std::max(
      stats.total_points, static_cast<std::uint64_t>(header.total_points));
  stats.bricks_total = std::max(stats.bricks_total, header.bricks_total);
  stats.bricks_read += bricks_read;
  stats.server_read_s = std::max(stats.server_read_s, server_read_s);
  stats.server_select_s = std::max(stats.server_select_s, server_select_s);
  stats.client_decode_s += decode_s;
  if (stats.streamed) {
    stats.stream_chunks += chunks;
    stats.stream_resumes += resumes;
    stats.stream_cancelled = stats.stream_cancelled || cancelled;
  }
}

void FieldMerge::Scatter(const StreamHeader& header,
                         const DecodedSelection& sel, const char* span) {
  std::lock_guard lk(mu_);
  obs::Span scatter_span(span);
  if (!field_.has_value()) {
    header_ = header;
    field_.emplace(header.dims, header.dtype);
  } else if (!SameGrid(header, header_)) {
    throw Error("shards disagree on dataset shape — mixed replicas?");
  }
  field_->Scatter(sel.ids, sel.values);
  scatter_span.End();
  scatter_s_ += scatter_span.ElapsedSeconds();
}

contour::SparseField FieldMerge::Take(const StreamHeader& header) {
  std::lock_guard lk(mu_);
  if (!field_.has_value()) return contour::SparseField(header.dims, header.dtype);
  return std::move(*field_);
}

double FieldMerge::scatter_s() const {
  std::lock_guard lk(mu_);
  return scatter_s_;
}

void NdpClient::FoldPayload(ByteSpan payload, std::int64_t bricks,
                            obs::Span& decode_span, SelectAccumulator& acc,
                            const DeliverFn& deliver) {
  DecodedSelection sel = DecodeSelection(payload, acc.header.dims);
  decode_span.End();
  acc.decode_s += decode_span.ElapsedSeconds();
  acc.chunks += 1;
  acc.bricks_done += bricks;
  acc.shipped_points += sel.ids.size();
  acc.payload_bytes += payload.size();
  deliver(std::move(sel));
  if (progress_) {
    progress_(StreamProgress{acc.chunks, acc.bricks_done,
                             acc.header.stream_bricks, acc.shipped_points,
                             acc.resumes});
  }
}

void NdpClient::FoldReply(const Value& reply, SelectAccumulator& acc,
                          const DeliverFn& deliver) {
  obs::Span decode_span("ndp.decode");
  AcceptHeader(HeaderFromReply(reply), acc);
  FoldSummary(reply, acc);
  FoldPayload(reply.At("payload").As<Bytes>(), reply.At("bricks_read").AsInt(),
              decode_span, acc, deliver);
}

void NdpClient::StreamOnce(const std::string& key, const std::string& array,
                           const std::vector<double>& isovalues,
                           const std::vector<std::int64_t>* only_bricks,
                           SelectAccumulator& acc, const DeliverFn& deliver) {
  const StreamParams sp{stream_.chunk_bricks, acc.cursor};
  StreamDecoder decoder(acc.cursor);
  rpc::Client::StreamCallOptions copts;
  copts.timeout = options_.call_timeout;
  copts.chunk_timeout = stream_.chunk_timeout;
  bool cancelled = false;
  const Value terminal = client_->CallStreaming(
      kRpcNdpSelect,
      SelectParams(bucket_, key, array, isovalues, encoding_, only_bricks, &sp),
      copts,
      [&](const Value& chunk_map) -> bool {
        obs::Span decode_span("ndp.decode");
        const std::optional<StreamChunk> data = decoder.Feed(chunk_map);
        if (!data.has_value()) {
          AcceptHeader(decoder.header(), acc);
          decode_span.End();
          acc.decode_s += decode_span.ElapsedSeconds();
          return true;
        }
        if (cancel_ && cancel_()) return false;
        FoldPayload(data->payload, data->bricks, decode_span, acc, deliver);
        acc.cursor = data->cursor;
        return true;
      },
      &cancelled);
  if (cancelled) {
    acc.cancelled = true;
  } else if (!decoder.got_header()) {
    // A one-shot reply: an unbricked array, or a pre-streaming server.
    // After a resume it re-covers bricks already delivered, which the
    // duplicate-invariant Scatter absorbs.
    FoldReply(terminal, acc, deliver);
  } else {
    decoder.Finish();
    FoldSummary(terminal, acc);
  }
}

void NdpClient::Select(const std::string& key, const std::string& array,
                       const std::vector<double>& isovalues,
                       const std::vector<std::int64_t>* only_bricks,
                       bool streamed, SelectAccumulator& acc,
                       const DeliverFn& deliver) {
  obs::Span span("ndp.partial");
  if (!streamed) {
    const Value reply = client_->Call(
        kRpcNdpSelect,
        SelectParams(bucket_, key, array, isovalues, encoding_, only_bricks,
                     nullptr),
        CallOpts());
    span.End();
    FoldReply(reply, acc, deliver);
    return;
  }
  for (int attempt = 0;; ++attempt) {
    try {
      StreamOnce(key, array, isovalues, only_bricks, acc, deliver);
      return;
    } catch (const Error& e) {
      // Resumable: the stream died (deadline, stall, peer gone, a
      // transient I/O blip) but the cursor survived. Anything else —
      // application errors, corruption — propagates; a different data
      // copy, not a retry, is the recovery for those.
      const bool resumable = dynamic_cast<const TimeoutError*>(&e) !=
                                 nullptr ||
                             dynamic_cast<const PeerClosedError*>(&e) !=
                                 nullptr ||
                             dynamic_cast<const TransientIoError*>(&e) !=
                                 nullptr;
      if (!resumable || attempt >= stream_.max_resumes) throw;
      acc.resumes += 1;
      obs::DefaultRegistry().GetCounter("ndp_stream_resume_total")
          .Increment();
      obs::GlobalEventLog().Append(
          "ndp.stream_resume",
          "key=" + key + " cursor=" + std::to_string(acc.cursor));
      net::BackoffSleep(options_.retry, attempt + 1,
                        net::MixBits(0x73747265616Dull));
    }
  }
}

PartialFetch NdpClient::FetchPartial(const std::string& key,
                                     const std::string& array,
                                     const std::vector<double>& isovalues,
                                     const std::vector<std::int64_t>* bricks) {
  PartialFetch out;
  Select(key, array, isovalues, bricks, /*streamed=*/false, out.acc,
         [&](DecodedSelection&& sel) { out.selection = std::move(sel); });
  return out;
}

contour::SparseField NdpClient::FetchSparseField(
    const std::string& key, const std::string& array,
    const std::vector<double>& isovalues, grid::UniformGeometry* geometry,
    NdpLoadStats* stats) {
  // Trace root: when someone is collecting (tracer enabled) and no outer
  // scope minted one already (NdpContourSource does, so its fallback
  // shares the trace), this fetch becomes one end-to-end distributed
  // trace. With tracing off nothing is minted and the RPC frames keep
  // the pre-tracing wire shape.
  std::optional<obs::ScopedTraceContext> root;
  if (obs::GlobalTracer().enabled() && !obs::CurrentTraceContext().valid()) {
    root.emplace(obs::TraceContext::Mint(/*sampled=*/true));
  }
  obs::Span total_span("ndp.fetch");
  const bool streamed = stream_.chunk_bricks > 0;
  SelectAccumulator acc;
  FieldMerge merge;
  Select(key, array, isovalues, nullptr, streamed, acc,
         [&](DecodedSelection&& sel) { merge.Scatter(acc.header, sel); });
  VIZNDP_CHECK_MSG(acc.got_header, "select produced neither header nor data");
  contour::SparseField field = merge.Take(acc.header);
  if (geometry != nullptr) *geometry = acc.geometry();
  if (stats != nullptr) {
    *stats = NdpLoadStats{};
    stats->trace_id = obs::CurrentTraceContext().trace_id;
    stats->streamed = streamed;
    acc.AddTo(*stats);
    // Deduplicated: stream chunks may ship boundary points twice.
    stats->selected_points = static_cast<std::uint64_t>(field.ValidCount());
    stats->client_scatter_s = merge.scatter_s();
    total_span.End();
    stats->client_s = total_span.ElapsedSeconds();
  }
  return field;
}

NdpClient::ArrayStats NdpClient::Stats(const std::string& key,
                                       const std::string& array, int bins) {
  const Value reply =
      client_->Call(kRpcNdpStats, Array{Value(bucket_), Value(key),
                                        Value(array), Value(bins)},
                    CallOpts());
  ArrayStats stats;
  stats.min = reply.At("min").AsDouble();
  stats.max = reply.At("max").AsDouble();
  stats.count = reply.At("count").AsUint();
  for (const Value& c : reply.At("histogram").As<Array>()) {
    stats.histogram.push_back(c.AsUint());
  }
  return stats;
}

NdpClient::FileInfo NdpClient::Info(const std::string& key) {
  const Value reply = client_->Call(
      kRpcNdpInfo, Array{Value(bucket_), Value(key)}, CallOpts());
  FileInfo info;
  const auto& dims_v = reply.At("dims").As<Array>();
  info.dims = grid::Dims{dims_v.at(0).AsInt(), dims_v.at(1).AsInt(),
                         dims_v.at(2).AsInt()};
  for (const Value& v : reply.At("arrays").As<Array>()) {
    FileInfo::Array a;
    a.name = v.At("name").As<std::string>();
    a.raw_size = v.At("raw_size").AsUint();
    a.stored_size = v.At("stored_size").AsUint();
    // Pre-sharding servers don't report the brick decomposition; treat
    // their arrays as monolithic (no sub-request sharding).
    if (const Value* b = v.Find("bricks")) a.brick_count = b->AsInt();
    if (const Value* e = v.Find("brick_edge")) {
      a.brick_edge = static_cast<std::int32_t>(e->AsInt());
    }
    info.arrays.push_back(std::move(a));
  }
  return info;
}

std::vector<obs::MetricSnapshot> NdpClient::ScrapeMetrics() {
  const Value reply = client_->Call(kRpcNdpMetrics, Array{}, CallOpts());
  std::vector<obs::MetricSnapshot> out;
  for (const Value& v : reply.As<Array>()) {
    obs::MetricSnapshot s;
    s.name = v.At("name").As<std::string>();
    s.kind = obs::MetricKindFromName(v.At("kind").As<std::string>());
    s.value = v.At("value").AsDouble();
    if (const Value* count = v.Find("count")) s.count = count->AsUint();
    if (const Value* bounds = v.Find("bounds")) {
      for (const Value& b : bounds->As<Array>()) {
        s.bounds.push_back(b.AsDouble());
      }
    }
    if (const Value* buckets = v.Find("buckets")) {
      for (const Value& b : buckets->As<Array>()) {
        s.buckets.push_back(b.AsUint());
      }
    }
    if (const Value* ev = v.Find("exemplar_value")) {
      s.exemplar_value = ev->AsDouble();
    }
    if (const Value* et = v.Find("exemplar_trace")) {
      s.exemplar_trace_id = et->AsUint();
    }
    if (const Value* ws = v.Find("window_s")) {
      s.window_seconds = ws->AsDouble();
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string NdpClient::ScrapeMetricsFormatted(const std::string& format) {
  const Value reply =
      client_->Call(kRpcNdpMetrics, Array{Value(format)}, CallOpts());
  return reply.As<std::string>();
}

NdpClient::HealthReport NdpClient::Health(std::uint64_t view_epoch) {
  Array params;
  if (view_epoch != 0) params.emplace_back(view_epoch);
  const Value reply =
      client_->Call(kRpcNdpHealth, std::move(params), CallOpts());
  HealthReport report;
  report.draining = reply.At("draining").As<bool>();
  report.inflight = reply.At("inflight").AsInt();
  report.mem_in_use = reply.At("mem_in_use").AsUint();
  report.mem_limit = reply.At("mem_limit").AsUint();
  // Optional keys: absent on pre-self-healing servers.
  if (const Value* v = reply.Find("node_id")) report.node_id = v->AsUint();
  if (const Value* v = reply.Find("view_epoch")) {
    report.view_epoch = v->AsUint();
  }
  for (const Value& v : reply.At("requests").As<Array>()) {
    HealthReport::Request r;
    r.method = v.At("method").As<std::string>();
    r.trace_id = v.At("trace_id").AsUint();
    r.age_us = v.At("age_us").AsUint();
    report.requests.push_back(std::move(r));
  }
  if (const Value* v = reply.Find("wall_s")) report.wall_s = v->AsDouble();
  if (const Value* v = reply.Find("uptime_s")) {
    report.uptime_s = v->AsDouble();
  }
  if (const Value* window = reply.Find("window")) {
    report.window_present = true;
    report.window_seconds = window->At("seconds").AsDouble();
    report.window_count = window->At("count").AsUint();
    report.window_p50 = window->At("p50").AsDouble();
    report.window_p95 = window->At("p95").AsDouble();
    report.window_p99 = window->At("p99").AsDouble();
  }
  if (const Value* slo = reply.Find("slo")) {
    for (const Value& v : slo->As<Array>()) {
      HealthReport::Slo s;
      s.name = v.At("name").As<std::string>();
      s.budget_remaining = v.At("budget_remaining").AsDouble();
      s.burn_short = v.At("burn_short").AsDouble();
      s.burn_long = v.At("burn_long").AsDouble();
      s.alerting = v.At("alerting").As<bool>();
      report.slo.push_back(std::move(s));
    }
  }
  if (const Value* scrub = reply.Find("scrub")) {
    report.scrub_present = true;
    report.scrub_running = scrub->At("running").As<bool>();
    report.scrub_passes = scrub->At("passes").AsUint();
    report.scrub_bricks_checked = scrub->At("bricks_checked").AsUint();
    report.scrub_corrupt_found = scrub->At("corrupt_found").AsUint();
    report.scrub_readmitted = scrub->At("readmitted").AsUint();
    report.scrub_quarantined = scrub->At("quarantined").AsUint();
  }
  return report;
}

// Picks `k` contour values at evenly spaced quantiles of the value
// distribution (excluding the extremes, as the paper's sweep does).
std::vector<double> SuggestIsovalues(const NdpClient::ArrayStats& stats,
                                     int k) {
  std::vector<double> out;
  if (stats.count == 0 || stats.histogram.empty() || k < 1) return out;
  const double step = 1.0 / (k + 1);
  std::uint64_t seen = 0;
  size_t bin = 0;
  for (int i = 1; i <= k; ++i) {
    const auto target =
        static_cast<std::uint64_t>(step * i * static_cast<double>(stats.count));
    while (bin + 1 < stats.histogram.size() &&
           seen + stats.histogram[bin] < target) {
      seen += stats.histogram[bin];
      ++bin;
    }
    out.push_back(stats.BinLow(bin) +
                  0.5 * (stats.max - stats.min) /
                      static_cast<double>(stats.histogram.size()));
  }
  return out;
}

pipeline::DataObjectPtr NdpContourSource::Execute(
    const std::vector<pipeline::DataObjectPtr>&) {
  // Mint the trace root here rather than in FetchSparseField, so a
  // degraded execution keeps its whole story — failed NDP attempts AND
  // the baseline fallback — under one trace_id.
  std::optional<obs::ScopedTraceContext> root;
  if (obs::GlobalTracer().enabled() && !obs::CurrentTraceContext().valid()) {
    root.emplace(obs::TraceContext::Mint(/*sampled=*/true));
  }
  try {
    return std::make_shared<pipeline::DataObject>(
        client_->Contour(key_, array_, isovalues_, &stats_));
  } catch (const RpcError&) {
    // The server answered: this is an application error (bad key, bad
    // array name, exhausted busy retries) that the baseline read would
    // hit too. Don't mask it. (BusyError lands here by design: a
    // saturated server does not mean the *store* is bad.)
    throw;
  } catch (const Error& e) {
    // Timeout / peer gone / corrupt frame after the client's retries —
    // or CorruptDataError, meaning the store itself failed every
    // server-side recovery step: the smart path is unreachable, so
    // degrade to the full read (possibly against a different replica).
    if (!fallback_.has_value()) throw;
    obs::DefaultRegistry().GetCounter("ndp_fallback_total").Increment();
    obs::GlobalEventLog().Append("ndp.fallback", "key=" + key_);
    std::fprintf(stderr,
                 "[vizndp] warning: NDP path for '%s' unavailable (%s); "
                 "falling back to baseline full-array read\n",
                 key_.c_str(), e.what());
    return std::make_shared<pipeline::DataObject>(BaselineContour());
  }
}

// The traditional pipeline in miniature: fetch the whole array through
// the gateway, contour locally. Geometry matches the NDP path exactly —
// both ultimately run the same marching-cubes tables over the same
// values (tests/fault_test.cc holds this bit-identical).
contour::PolyData NdpContourSource::BaselineContour() {
  obs::Span span("ndp.fallback:" + key_);
  io::VndReader reader(fallback_->Open(key_));
  const grid::DataArray data = reader.ReadArray(array_);

  stats_ = NdpLoadStats{};
  stats_.used_fallback = true;
  stats_.trace_id = obs::CurrentTraceContext().trace_id;
  stats_.stored_bytes = reader.StoredSize(array_);
  stats_.raw_bytes = static_cast<std::uint64_t>(data.byte_size());
  stats_.total_points = static_cast<std::uint64_t>(
      reader.header().dims.PointCount());
  stats_.selected_points = stats_.total_points;  // full read: everything

  contour::ContourFilter filter(isovalues_);
  contour::PolyData poly =
      filter.Execute(reader.header().dims, reader.header().geometry, data);
  span.End();
  stats_.client_s = span.ElapsedSeconds();
  return poly;
}

}  // namespace vizndp::ndp
