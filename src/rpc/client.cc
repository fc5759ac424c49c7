#include "rpc/client.h"

#include <algorithm>
#include <optional>

#include "common/error.h"
#include "msgpack/pack.h"
#include "msgpack/unpack.h"
#include "obs/context.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"
#include "rpc/protocol.h"
#include "rpc/trace_wire.h"

namespace vizndp::rpc {

namespace {

std::uint64_t MethodSalt(const std::string& method) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : method) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

std::string EventDetail(const std::string& method, int attempt) {
  return "method=" + method + " attempt=" + std::to_string(attempt);
}

// Folds one attempt's reply piggyback into the local tracer: the server
// spans land clock-aligned on their original tracks, and the two wire
// legs appear as pseudo-spans parented under the attempt span. Malformed
// piggybacks are ignored — trace material must never fail a call.
void MergeReplyPiggyback(const msgpack::Value& piggyback, std::uint64_t t0,
                         std::uint64_t t3, const obs::TraceContext& ctx,
                         obs::Tracer& tracer) {
  if (!piggyback.Is<msgpack::Map>()) return;
  const msgpack::Value* recv = piggyback.Find(kPiggybackRecvKey);
  const msgpack::Value* send = piggyback.Find(kPiggybackSendKey);
  if (recv == nullptr || send == nullptr || !recv->IsInteger() ||
      !send->IsInteger()) {
    return;
  }
  obs::RemoteAttemptTrace attempt;
  attempt.t0_client_send_us = t0;
  attempt.t3_client_recv_us = t3;
  attempt.t1_server_recv_us = recv->AsUint();
  attempt.t2_server_send_us = send->AsUint();
  attempt.has_server_times = true;
  if (const msgpack::Value* spans = piggyback.Find(kPiggybackSpansKey)) {
    attempt.server_events = EventsFromValue(*spans);
  }
  obs::MergeRemoteAttempt(tracer, attempt, ctx.trace_id, ctx.span_id);
}

// Maps a typed-prefix remote error string back to its exception type
// (the inverse of the server's catch ladder; see rpc/protocol.h).
[[noreturn]] void ThrowRemoteError(const std::string& method,
                                   const std::string& remote) {
  if (remote.starts_with(kBusyErrorPrefix)) {
    throw BusyError("server busy calling '" + method +
                    "': " + remote.substr(kBusyErrorPrefix.size()));
  }
  if (remote.starts_with(kCorruptErrorPrefix)) {
    throw CorruptDataError("remote data corruption calling '" + method +
                           "': " +
                           remote.substr(kCorruptErrorPrefix.size()));
  }
  if (remote.starts_with(kTransientIoErrorPrefix)) {
    throw TransientIoError(
        "remote I/O error calling '" + method +
        "': " + remote.substr(kTransientIoErrorPrefix.size()));
  }
  if (remote.starts_with(kIoErrorPrefix)) {
    throw IoError("remote I/O error calling '" + method +
                  "': " + remote.substr(kIoErrorPrefix.size()));
  }
  throw RpcError("remote error calling '" + method + "': " + remote);
}

}  // namespace

// One exchange: send the request, then receive until *our* terminal
// response arrives. Frames with an older msgid are stale leftovers — a
// duplicated frame, a reply that outlived its timed-out attempt, a chunk
// of an abandoned stream — and are discarded rather than treated as a
// protocol violation.
std::optional<msgpack::Value> Client::Exchange(
    const std::string& method, const msgpack::Array& params,
    net::Deadline deadline, const ChunkCallback* on_chunk,
    std::chrono::milliseconds chunk_timeout) {
  obs::Tracer& tracer = obs::GlobalTracer();
  const std::uint64_t msgid = next_msgid_++;

  msgpack::Array request;
  request.emplace_back(kRequestType);
  request.emplace_back(msgid);
  request.emplace_back(method);
  request.push_back(msgpack::Value(msgpack::Array(params)));
  // The caller's span (rpc.attempt or rpc.stream) installed itself as the
  // thread's current span, so the ctx sent over the wire parents the
  // server's dispatch span under it. Only sampled contexts travel: with
  // tracing off the frame keeps the pre-tracing 4-element shape old
  // servers require.
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  const bool traced = ctx.valid() && ctx.sampled;
  if (traced) request.push_back(ContextToValue(ctx));
  const std::uint64_t t0 = tracer.NowMicros();
  transport_->Send(msgpack::Encode(msgpack::Value(std::move(request))));

  bool cancel_sent = false;
  for (;;) {
    // Per-frame deadline: the sooner of the overall deadline and the
    // chunk progress deadline, remembering which one is binding so a
    // wedged stream surfaces as StreamStallError (resumable from the
    // caller's cursor), not a plain timeout.
    net::Deadline frame_deadline = deadline;
    bool stall_binding = false;
    if (chunk_timeout.count() > 0) {
      const net::Deadline stall =
          std::chrono::steady_clock::now() + chunk_timeout;
      if (stall < frame_deadline) {
        frame_deadline = stall;
        stall_binding = true;
      }
    }
    Bytes reply;
    try {
      reply = transport_->Receive(frame_deadline);
    } catch (const TimeoutError&) {
      if (!stall_binding) throw;
      metrics()
          .GetCounter("rpc_stream_stalls_total", {{"method", method}})
          .Increment();
      obs::GlobalEventLog().Append("rpc.stream_stall", "method=" + method);
      throw StreamStallError("stream '" + method +
                             "' stalled: no frame within " +
                             std::to_string(chunk_timeout.count()) + " ms");
    }
    const std::uint64_t t3 = tracer.NowMicros();
    msgpack::Value response = msgpack::Decode(reply);
    auto& fields = response.AsMutable<msgpack::Array>();
    if (fields.size() < 2) throw RpcError("malformed RPC frame");
    const std::int64_t type = fields[0].AsInt();
    // A one-shot call never gets chunks of its own: any chunk is left
    // over from an abandoned stream on this connection (the caller
    // resumed after a stall), stale by construction.
    const bool stray_chunk = type == kChunkType && on_chunk == nullptr;
    if (stray_chunk || fields[1].AsUint() < msgid) {
      metrics().GetCounter("rpc_stale_replies_total").Increment();
      obs::GlobalEventLog().Append("rpc.stale_reply", "method=" + method);
      continue;
    }
    if (fields[1].AsUint() != msgid) {
      throw RpcError("RPC response msgid mismatch");
    }
    if (type == kChunkType) {
      if (fields.size() < 3) throw RpcError("malformed chunk frame");
      if (!cancel_sent && !(*on_chunk)(fields[2])) {
        msgpack::Array cancel;
        cancel.emplace_back(kCancelType);
        cancel.emplace_back(msgid);
        transport_->Send(msgpack::Encode(msgpack::Value(std::move(cancel))));
        cancel_sent = true;
        // Keep draining: the terminal frame must be consumed so the
        // connection stays framed for the next call.
      }
      continue;
    }
    if (type != kResponseType || fields.size() < 4) {
      throw RpcError("malformed RPC response");
    }
    // Merge the piggyback *before* error handling: a busy or corrupt
    // reply still cost a round trip, and its server span + wire legs
    // belong in the trace exactly because the attempt failed.
    if (traced && fields.size() >= 5) {
      MergeReplyPiggyback(fields[4], t0, t3, ctx, tracer);
    }
    if (!fields[2].IsNil()) {
      const std::string& remote = fields[2].As<std::string>();
      // The abort we asked for: an acknowledgement, not an error.
      if (cancel_sent && remote.starts_with(kCancelledErrorPrefix)) {
        return std::nullopt;
      }
      // Well-known prefixes carry typed errors across the string-only
      // error slot (see rpc/protocol.h).
      ThrowRemoteError(method, remote);
    }
    return std::move(fields[3]);
  }
}

msgpack::Value Client::Call(const std::string& method, msgpack::Array params,
                            const CallOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  // One span per logical call on the "client" trace track; each attempt
  // nests inside it, and the matching server-side "rpc.dispatch:" span
  // nests inside the attempt.
  obs::Tracer& tracer = obs::GlobalTracer();
  if (tracer.enabled()) tracer.SetThreadTrack("client");
  obs::Span span("rpc.call:" + method, tracer);

  const auto timeout =
      options.timeout.count() > 0 ? options.timeout : default_timeout_;
  const int attempts =
      options.idempotent ? std::max(retry_.max_attempts, 1) : 1;
  const std::uint64_t salt = MethodSalt(method);

  for (int attempt = 1;; ++attempt) {
    try {
      // Each attempt is a distinct tagged child span of the rpc.call
      // span, so a retried request renders as N attempt boxes, failures
      // included.
      obs::Span attempt_span("rpc.attempt:" + method, tracer);
      return *Exchange(method, params, net::DeadlineAfter(timeout));
    } catch (const TimeoutError&) {
      metrics().GetCounter("rpc_timeouts_total", {{"method", method}})
          .Increment();
      obs::GlobalEventLog().Append("rpc.timeout", EventDetail(method, attempt));
      if (attempt >= attempts) {
        throw TimeoutError("rpc call '" + method + "' timed out after " +
                           std::to_string(attempt) + " attempt(s)");
      }
    } catch (const BusyError&) {
      // The server shed the request *before* running the handler, so a
      // retry is safe even for non-idempotent calls; back off and let the
      // overload clear.
      metrics().GetCounter("rpc_busy_total", {{"method", method}}).Increment();
      obs::GlobalEventLog().Append("rpc.busy", EventDetail(method, attempt));
      if (attempt >= std::max(retry_.max_attempts, 1)) throw;
    } catch (const RpcError&) {
      // The server is alive and reported an application error (or sent a
      // malformed reply): retrying would repeat the same failure.
      throw;
    } catch (const CorruptDataError&) {
      // The server already exhausted its own recovery ladder (re-read,
      // whole-blob fallback); retrying reads the same bad bytes. Let the
      // caller decide (NdpContourSource falls back to the baseline path).
      throw;
    } catch (const PeerClosedError&) {
      // Listed before IoError (its base): a closed peer is transport
      // loss, retryable for idempotent calls like any other Error.
      metrics()
          .GetCounter("rpc_transport_errors_total", {{"method", method}})
          .Increment();
      obs::GlobalEventLog().Append("rpc.transport_error",
                                   EventDetail(method, attempt));
      if (attempt >= attempts) throw;
    } catch (const TransientIoError&) {
      // The *remote store* flaked and the server's own retry budget ran
      // out; another attempt reruns the whole server-side ladder, so for
      // idempotent calls it is worth one more backoff cycle.
      metrics()
          .GetCounter("rpc_remote_io_total", {{"method", method}})
          .Increment();
      obs::GlobalEventLog().Append("rpc.remote_io", EventDetail(method, attempt));
      if (attempt >= attempts) throw;
    } catch (const IoError&) {
      // Permanent remote storage failure (missing object, dead device):
      // a retry rereads the same absence. Never retried.
      throw;
    } catch (const Error&) {
      // Transport-level loss (peer closed, corrupt frame): retryable for
      // idempotent calls. A ReconnectingTransport re-dials underneath.
      metrics()
          .GetCounter("rpc_transport_errors_total", {{"method", method}})
          .Increment();
      obs::GlobalEventLog().Append("rpc.transport_error",
                                   EventDetail(method, attempt));
      if (attempt >= attempts) throw;
    }
    metrics().GetCounter("rpc_retries_total", {{"method", method}})
        .Increment();
    obs::GlobalEventLog().Append("rpc.retry", EventDetail(method, attempt + 1));
    net::BackoffSleep(retry_, attempt, salt);
  }
}

msgpack::Value Client::CallStreaming(const std::string& method,
                                     msgpack::Array params,
                                     const StreamCallOptions& options,
                                     const ChunkCallback& on_chunk,
                                     bool* cancelled_out) {
  std::lock_guard<std::mutex> lock(mu_);
  obs::Tracer& tracer = obs::GlobalTracer();
  if (tracer.enabled()) tracer.SetThreadTrack("client");
  obs::Span span("rpc.stream:" + method, tracer);
  if (cancelled_out != nullptr) *cancelled_out = false;

  const auto timeout =
      options.timeout.count() > 0 ? options.timeout : default_timeout_;
  std::optional<msgpack::Value> result;
  try {
    result = Exchange(method, params, net::DeadlineAfter(timeout), &on_chunk,
                      options.chunk_timeout);
  } catch (const StreamStallError&) {
    throw;
  } catch (const TimeoutError&) {
    metrics().GetCounter("rpc_timeouts_total", {{"method", method}})
        .Increment();
    obs::GlobalEventLog().Append("rpc.timeout", EventDetail(method, 1));
    throw TimeoutError("rpc stream '" + method + "' ran past its overall " +
                       "deadline");
  }
  if (!result.has_value()) {
    if (cancelled_out != nullptr) *cancelled_out = true;
    return msgpack::Value();
  }
  return std::move(*result);
}

}  // namespace vizndp::rpc
