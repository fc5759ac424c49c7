// VND ("vizndp dataset") container format — the stand-in for the paper's
// VTK data files. Design goals taken from the paper's needs:
//   * multiple named data arrays per timestep file (xRage writes 11);
//   * per-array compression with a recorded codec ("none"/"gzip"/"lz4"),
//     matching VTK's native per-array compressor support;
//   * array *selection*: the directory is at the front, so a reader can
//     fetch exactly one array with a ranged read instead of the file.
//
// Layout (all little-endian):
//   bytes 0..3   magic "VNDF"
//   bytes 4..7   u32 format version (2; v1 files still read)
//   bytes 8..11  u32 header byte count H
//   bytes 12..12+H-1  header: one msgpack map (see below)
//   then the array blobs, at header-recorded offsets from the blob base.
//
// Header map:
//   {"dims": [nx, ny, nz], "origin": [x, y, z], "spacing": [x, y, z],
//    "arrays": [{"name": str, "type": str, "codec": str,
//                "raw_size": u64, "stored_size": u64,
//                "offset": u64, "crc32": u32,
//                ?"brick_edge": u32,
//                ?"bricks": [[offset, size, min, max, crc32], ...]}, ...]}
//
// Format v2 adds the per-brick crc32 (v1 brick entries are 4-tuples with
// no checksum): the bricked fast path reads a handful of bricks, never
// the whole blob, so without it a flipped bit inside one compressed
// brick sailed straight into the decoder. Readers verify whichever
// checksums the file carries *before* decompressing and throw
// CorruptDataError on mismatch; the whole-blob crc32 is retained in both
// versions. Every header field is validated against the file size on
// open, so a hostile header cannot drive out-of-range ranged reads or
// oversized allocations.
//
// Bricked arrays (optional, VndWriter::SetBrickSize): the blob is a
// concatenation of independently compressed bricks covering point slabs
// of `brick_edge` cells per axis plus one ghost point layer, each with
// its value min/max recorded in the header. A reader can then fetch and
// decompress only the bricks whose [min, max] straddles an isovalue —
// which is how the NDP pre-filter sidesteps the paper's "lower-bounded
// by local read time" limit (see src/ndp/bricked_select.h).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "grid/dataset.h"
#include "storage/file_gateway.h"

namespace vizndp::io {

struct BrickEntry {
  std::uint64_t offset = 0;  // from the array's own blob start
  std::uint64_t stored_size = 0;
  double min = 0.0;
  double max = 0.0;
  std::uint32_t crc32 = 0;  // of the stored brick bytes (format v2+)
};

// Brick decomposition of one array. Bricks partition the *cells* into
// cubes of `edge` per axis; each brick stores the covering point slab
// (cells + one ghost layer), so any cell is fully contained in exactly
// one brick.
struct BrickIndex {
  std::int32_t edge = 0;
  // False for v1 files: entries carry no crc32, so per-brick reads
  // cannot be integrity-checked (the whole-blob CRC still is).
  bool has_crc = false;
  std::vector<BrickEntry> entries;  // bi + nbx * (bj + nby * bk) order
};

struct ArrayMeta {
  std::string name;
  grid::DataType type = grid::DataType::Float32;
  std::string codec;
  std::uint64_t raw_size = 0;     // decompressed bytes (dense array)
  std::uint64_t stored_size = 0;  // bytes in the file
  std::uint64_t offset = 0;       // from the blob base
  std::uint32_t crc32 = 0;        // of the *stored* (possibly compressed) blob
  std::optional<BrickIndex> bricks;
};

// Brick grid arithmetic shared by the writer, reader, and the brick-aware
// pre-filter.
struct BrickGrid {
  grid::Dims dims;
  std::int32_t edge = 0;
  std::int64_t nbx = 0, nby = 0, nbz = 0;

  BrickGrid(const grid::Dims& d, std::int32_t brick_edge);

  std::int64_t BrickCount() const { return nbx * nby * nbz; }

  struct Extent {
    // Inclusive point ranges of the brick's slab (cells + ghost layer).
    std::int64_t x0, x1, y0, y1, z0, z1;
    std::int64_t PointCount() const {
      return (x1 - x0 + 1) * (y1 - y0 + 1) * (z1 - z0 + 1);
    }
  };

  Extent BrickExtent(std::int64_t brick) const;
};

struct VndHeader {
  grid::Dims dims;
  grid::UniformGeometry geometry;
  std::vector<ArrayMeta> arrays;

  const ArrayMeta* Find(const std::string& name) const;
  // Offset of the blob base from the start of the file.
  std::uint64_t blob_base = 0;
  // Format version the file was written with (1 or 2).
  std::uint32_t version = 2;
};

class VndWriter {
 public:
  explicit VndWriter(const grid::Dataset& dataset) : dataset_(dataset) {}

  // Codec applied to arrays without a per-array override.
  void SetCodec(compress::CodecPtr codec) { default_codec_ = std::move(codec); }
  void SetArrayCodec(const std::string& array, compress::CodecPtr codec);

  // Enables bricked storage (0 = monolithic, the default). Typical edges:
  // 16-64 cells. Applies to every array in the file.
  void SetBrickSize(std::int32_t edge) { brick_edge_ = edge; }

  // Format version to emit (2, the default, adds per-brick checksums;
  // 1 reproduces the legacy layout for back-compat tests and tooling).
  void SetFormatVersion(std::uint32_t version);

  Bytes Serialize() const;

  // Serializes and stores as `bucket/key` in one call.
  void WriteToStore(storage::ObjectStore& store, const std::string& bucket,
                    const std::string& key) const;

 private:
  const grid::Dataset& dataset_;
  compress::CodecPtr default_codec_ = std::make_shared<compress::NullCodec>();
  std::vector<std::pair<std::string, compress::CodecPtr>> overrides_;
  std::int32_t brick_edge_ = 0;
  std::uint32_t version_ = 2;
};

class VndReader {
 public:
  // Fetches and parses the header (two small ranged reads); array payloads
  // are read lazily, so unselected arrays never leave the store.
  explicit VndReader(storage::GatewayFile file);

  const VndHeader& header() const { return header_; }

  std::vector<std::string> ArrayNames() const;

  // Ranged-reads, integrity-checks, and decompresses one array (bricked
  // arrays are reassembled into the dense layout).
  grid::DataArray ReadArray(const std::string& name) const;

  bool HasBricks(const std::string& name) const;

  // Raw ranged read within one array's stored blob (offsets relative to
  // the blob start). Used to coalesce multi-brick fetches.
  Bytes ReadArrayRange(const std::string& name, std::uint64_t offset,
                       std::uint64_t length) const;

  // The paper's "data array selection": reads only `names`.
  grid::Dataset ReadSelected(const std::vector<std::string>& names) const;

  grid::Dataset ReadAll() const;

  // Bytes a ReadArray(name) call will fetch from the store (compressed
  // size) — what the baseline setup must move over the network.
  std::uint64_t StoredSize(const std::string& name) const;

 private:
  storage::GatewayFile file_;
  VndHeader header_;
};

// Parses a header from a full in-memory file image (tests, tools).
VndHeader ParseVndHeader(ByteSpan file_image);

}  // namespace vizndp::io
