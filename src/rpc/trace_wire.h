// msgpack marshalling for the trace material that crosses the RPC wire:
// the request ctx map and the reply piggyback's span list. Span maps
// carry name/track/ts/dur keys plus the distributed identity
// ("trace"/"span"/"parent"); readers tolerate the ids being absent.
#pragma once

#include <vector>

#include "msgpack/value.h"
#include "obs/context.h"
#include "obs/trace.h"

namespace vizndp::rpc {

// {"trace_id": u64, "span_id": u64} — the request's 5th element.
msgpack::Value ContextToValue(const obs::TraceContext& ctx);

// Inverse; returns an invalid (trace_id 0) context when `v` is not a
// well-formed ctx map. A parsed context is sampled by definition — the
// sender only attaches sampled contexts.
obs::TraceContext ContextFromValue(const msgpack::Value& v);

// Span list as an array of maps, and back. Unknown keys are ignored,
// missing id keys default to 0 (untagged).
msgpack::Value EventsToValue(const std::vector<obs::DrainedEvent>& events);
std::vector<obs::DrainedEvent> EventsFromValue(const msgpack::Value& v);

}  // namespace vizndp::rpc
