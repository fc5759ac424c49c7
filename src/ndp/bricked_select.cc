#include "ndp/bricked_select.h"

#include <algorithm>
#include <chrono>

#include "common/error.h"
#include "compress/checksum.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace vizndp::ndp {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

template <typename T>
contour::Selection BrickedSelectT(const io::VndReader& reader,
                                  const std::string& array,
                                  const io::ArrayMeta& meta,
                                  std::span<const double> isovalues,
                                  BrickedSelectStats* stats,
                                  const std::vector<std::int64_t>& needed,
                                  const storage::QuarantineSet* quarantine,
                                  const std::string& quarantine_key) {
  const grid::Dims dims = reader.header().dims;
  const io::BrickGrid bgrid(dims, meta.bricks->edge);

  // (id, value) pairs from every straddling brick; ghost points selected
  // by two bricks dedup after the sort (their values are identical).
  std::vector<std::pair<grid::PointId, T>> picked;
  BrickedSelectStats local;
  local.bricks_total = bgrid.BrickCount();
  // `needed` is ascending: brick ids order like their blob offsets.
  local.bricks_read = static_cast<std::int64_t>(needed.size());

  const compress::CodecPtr codec = compress::MakeCodec(meta.codec);
  const bool has_crc = meta.bricks->has_crc;

  // Decompress + scan one brick whose stored bytes already verified.
  auto scan_brick = [&](std::int64_t b, ByteSpan brick_bytes) {
    const io::BrickGrid::Extent e = bgrid.BrickExtent(b);
    const size_t slab_bytes = static_cast<size_t>(e.PointCount()) * sizeof(T);
    const auto t_decompress = std::chrono::steady_clock::now();
    Bytes raw;
    try {
      raw = codec->Decompress(brick_bytes, slab_bytes, slab_bytes);
    } catch (const DecodeError& err) {
      // v1 files carry no brick CRC, so corruption surfaces here
      // instead; route it into the same recovery ladder.
      throw CorruptDataError(std::string("brick decode failed: ") +
                             err.what());
    }
    if (raw.size() != slab_bytes) {
      throw CorruptDataError("brick decompressed to wrong size: " + array);
    }
    const grid::DataArray slab(array, meta.type, std::move(raw));
    local.read_seconds += SecondsSince(t_decompress);

    const auto t_scan = std::chrono::steady_clock::now();
    const grid::Dims slab_dims{e.x1 - e.x0 + 1, e.y1 - e.y0 + 1,
                               e.z1 - e.z0 + 1};
    const contour::Selection slab_selection =
        contour::SelectInterestingPoints(slab_dims, slab, isovalues);
    const auto values = slab_selection.values.template View<T>();
    for (size_t i = 0; i < slab_selection.ids.size(); ++i) {
      const auto c = slab_dims.Coords(slab_selection.ids[i]);
      picked.emplace_back(dims.Index(e.x0 + c[0], e.y0 + c[1], e.z0 + c[2]),
                          values[i]);
    }
    local.scan_seconds += SecondsSince(t_scan);
  };

  // One individual read of brick `b`, verified before the decoder sees
  // it: the recovery rung of a brick that failed its CRC inside a run,
  // and the only read of a quarantined brick. Persistent corruption
  // throws CorruptDataError and the caller falls back to the whole-blob
  // path.
  auto read_verified = [&](std::int64_t b) {
    const io::BrickEntry& entry =
        meta.bricks->entries[static_cast<size_t>(b)];
    Bytes stored =
        reader.ReadArrayRange(array, entry.offset, entry.stored_size);
    local.bytes_read += stored.size();
    if (has_crc && compress::Crc32(stored) != entry.crc32) {
      throw CorruptDataError("brick CRC mismatch on verified read: " + array +
                             " brick " + std::to_string(b));
    }
    return stored;
  };

  // Bricks the scrubber quarantined leave the coalesced runs: their
  // stored bytes are known bad, so reading them with their neighbors
  // would poison the run and prepay a doomed read+decompress. Each goes
  // straight to the verified read. A brick healed by a clean re-Put
  // (which the scrubber has not yet re-admitted) verifies there and
  // serves normally.
  const auto quarantined = [&](std::int64_t b) {
    return quarantine != nullptr && !quarantine_key.empty() &&
           quarantine->Contains(quarantine_key, array, b);
  };

  size_t cursor = 0;
  while (cursor < needed.size()) {
    const std::int64_t head = needed[cursor];
    if (quarantined(head)) {
      ++local.quarantine_skips;
      obs::DefaultRegistry()
          .GetCounter("ndp_quarantine_skip_total")
          .Increment();
      obs::GlobalEventLog().Append(
          "ndp.quarantine_skip",
          "array=" + array + " brick=" + std::to_string(head));
      const auto t_read = std::chrono::steady_clock::now();
      const Bytes stored = read_verified(head);
      local.read_seconds += SecondsSince(t_read);
      scan_brick(head, ByteSpan(stored));
      ++cursor;
      continue;
    }
    // Coalesce runs of consecutive bricks (their blobs are contiguous by
    // construction) into one ranged read: object-store access latency,
    // not bandwidth, dominates small-brick reads otherwise. A
    // quarantined brick ends the run.
    size_t run_end = cursor + 1;
    while (run_end < needed.size() &&
           needed[run_end] == needed[run_end - 1] + 1 &&
           !quarantined(needed[run_end])) {
      ++run_end;
    }
    const io::BrickEntry& first =
        meta.bricks->entries[static_cast<size_t>(head)];
    const io::BrickEntry& last =
        meta.bricks->entries[static_cast<size_t>(needed[run_end - 1])];
    const std::uint64_t run_bytes =
        last.offset + last.stored_size - first.offset;

    const auto t_read = std::chrono::steady_clock::now();
    const Bytes run = reader.ReadArrayRange(array, first.offset, run_bytes);
    local.read_seconds += SecondsSince(t_read);
    local.bytes_read += run_bytes;

    for (size_t r = cursor; r < run_end; ++r) {
      const std::int64_t b = needed[r];
      const io::BrickEntry& entry =
          meta.bricks->entries[static_cast<size_t>(b)];

      // Verify-then-decompress, with one recovery re-read. The brick CRC
      // (format v2) is checked *before* the decoder touches the bytes;
      // on mismatch the brick alone is fetched again through the
      // verified read — a transient flip heals there.
      const auto t_decompress = std::chrono::steady_clock::now();
      ByteSpan brick_bytes = ByteSpan(run).subspan(
          entry.offset - first.offset, entry.stored_size);
      Bytes reread;
      if (has_crc && compress::Crc32(brick_bytes) != entry.crc32) {
        ++local.corrupt_bricks;
        obs::DefaultRegistry().GetCounter("corrupt_brick_total").Increment();
        obs::GlobalEventLog().Append(
            "ndp.corrupt_brick",
            "array=" + array + " brick=" + std::to_string(b));
        ++local.brick_rereads;
        obs::DefaultRegistry().GetCounter("brick_reread_total").Increment();
        obs::GlobalEventLog().Append(
            "ndp.brick_reread",
            "array=" + array + " brick=" + std::to_string(b));
        reread = read_verified(b);
        brick_bytes = ByteSpan(reread);
      }
      local.read_seconds += SecondsSince(t_decompress);
      scan_brick(b, brick_bytes);
    }
    cursor = run_end;
  }

  std::sort(picked.begin(), picked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  picked.erase(std::unique(picked.begin(), picked.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               picked.end());

  contour::Selection out;
  out.dims = dims;
  out.total_points = dims.PointCount();
  out.ids.reserve(picked.size());
  std::vector<T> values;
  values.reserve(picked.size());
  for (const auto& [id, value] : picked) {
    out.ids.push_back(id);
    values.push_back(value);
  }
  out.values = grid::DataArray::FromVector(array, std::move(values));
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace

std::vector<std::int64_t> PlanBricks(
    const io::ArrayMeta& meta, std::span<const double> isovalues,
    const std::vector<std::int64_t>* restriction, std::int64_t resume_after) {
  VIZNDP_CHECK_MSG(meta.bricks.has_value(),
                   "array '" + meta.name + "' is not bricked");
  const std::vector<io::BrickEntry>& entries = meta.bricks->entries;
  const auto count = static_cast<std::int64_t>(entries.size());
  std::vector<std::int64_t> plan;
  const auto consider = [&](std::int64_t b) {
    if (b <= resume_after || b >= count) return;
    const io::BrickEntry& e = entries[static_cast<size_t>(b)];
    for (const double iso : isovalues) {
      if (e.min < iso && e.max >= iso) {
        plan.push_back(b);
        return;
      }
    }
  };
  if (restriction != nullptr) {
    for (const std::int64_t b : *restriction) consider(b);
  } else {
    for (std::int64_t b = 0; b < count; ++b) consider(b);
  }
  return plan;
}

contour::Selection SelectInterestingPointsBricked(
    const io::VndReader& reader, const std::string& array,
    std::span<const double> isovalues, BrickedSelectStats* stats,
    const std::vector<std::int64_t>* planned,
    const storage::QuarantineSet* quarantine,
    const std::string& quarantine_key) {
  const io::ArrayMeta* meta = reader.header().Find(array);
  VIZNDP_CHECK_MSG(meta != nullptr, "no array '" + array + "' in VND file");
  VIZNDP_CHECK_MSG(meta->bricks.has_value(),
                   "array '" + array + "' is not bricked");
  const std::vector<std::int64_t> bricks =
      planned != nullptr ? *planned : PlanBricks(*meta, isovalues);
  switch (meta->type) {
    case grid::DataType::Float32:
      return BrickedSelectT<float>(reader, array, *meta, isovalues, stats,
                                   bricks, quarantine, quarantine_key);
    case grid::DataType::Float64:
      return BrickedSelectT<double>(reader, array, *meta, isovalues, stats,
                                    bricks, quarantine, quarantine_key);
    default:
      throw Error("selection requires a floating-point array");
  }
}

}  // namespace vizndp::ndp
