// Brick-aware pre-filter: uses the VND brick index (per-brick min/max)
// to fetch and decompress only the bricks that can contain isovalue
// crossings. This attacks the bound the paper's conclusion calls out —
// "this speedup is upperbounded by local data read times" — because the
// storage node no longer reads or decompresses the whole array.
//
// Exactness: a grid cell belongs to exactly one brick (bricks own
// disjoint cell ranges and store a one-point ghost layer), and a skipped
// brick's [min, max] bounds every cell inside it, so skipped bricks
// contain no mixed cells. The resulting selection is identical to the
// dense SelectInterestingPoints.
#pragma once

#include <span>
#include <vector>

#include "contour/select.h"
#include "io/vnd_format.h"
#include "storage/scrubber.h"

namespace vizndp::ndp {

struct BrickedSelectStats {
  std::int64_t bricks_total = 0;
  std::int64_t bricks_read = 0;
  std::uint64_t bytes_read = 0;  // compressed brick bytes fetched
  std::int64_t corrupt_bricks = 0;  // bricks that failed their CRC
  std::int64_t brick_rereads = 0;   // recovery re-reads issued
  std::int64_t quarantine_skips = 0;  // bricks served via the skip path
  double read_seconds = 0;       // fetch + decompress (measured)
  double scan_seconds = 0;       // per-brick selection scans (measured)
};

// Integrity: each brick is CRC-verified before decompression (format v2
// files). A failing brick is re-read from the store once — transient
// corruption (a flipped bit on the wire or in a cache) heals here — and
// a brick that fails twice throws CorruptDataError, at which point the
// caller (NdpServer) falls back to the whole-blob read for the array.
// Both events are counted in the stats and in obs::DefaultRegistry()
// (corrupt_brick_total / brick_reread_total).
//
// The brick plan: ids of `meta`'s bricks whose [min, max] straddles some
// isovalue (iso in (min, max]), ascending, kept only if listed in the
// sorted `restriction` (nullptr = every brick; ids past the brick count
// name nothing) and strictly above `resume_after` (-1 = from the start).
// The single source of the brick set: one-shot, streamed, resumed and
// shard-restricted selects all read exactly these bricks, so a stream
// resumed from cursor C on any replica covers the suffix of the plan
// after C. Requires a bricked array.
//
// Sharding: the restricted selection equals the unrestricted one
// filtered to points owned by (or on the ghost boundary of) the listed
// bricks, so the union of selections over a partition of the brick
// space, with boundary duplicates dropped by id, is exactly the full
// selection.
std::vector<std::int64_t> PlanBricks(
    const io::ArrayMeta& meta, std::span<const double> isovalues,
    const std::vector<std::int64_t>* restriction = nullptr,
    std::int64_t resume_after = -1);

// Reads, verifies and scans the `planned` bricks (a PlanBricks result or
// any ascending slice of one; nullptr = PlanBricks(meta, isovalues)).
//
// Quarantine: bricks the scrubber flagged corrupt-at-rest (`quarantine`
// keyed by `quarantine_key`) are excluded from the coalesced runs —
// their stored bytes are *known* bad, so the read+CRC-fail+re-read
// cycle is a doomed prepayment. Each skips straight to the recovery
// rung: one individual verified read (ndp_quarantine_skip_total +
// "ndp.quarantine_skip"). If the object was re-Put clean since the
// scrub, that read verifies and the brick serves normally; otherwise
// CorruptDataError propagates immediately. nullptr disables the check.
contour::Selection SelectInterestingPointsBricked(
    const io::VndReader& reader, const std::string& array,
    std::span<const double> isovalues, BrickedSelectStats* stats = nullptr,
    const std::vector<std::int64_t>* planned = nullptr,
    const storage::QuarantineSet* quarantine = nullptr,
    const std::string& quarantine_key = {});

}  // namespace vizndp::ndp
