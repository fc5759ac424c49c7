#include "io/vnd_format.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "compress/checksum.h"
#include "msgpack/pack.h"
#include "msgpack/unpack.h"

namespace vizndp::io {

namespace {

constexpr Byte kMagic[4] = {'V', 'N', 'D', 'F'};
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kVersionLatest = 2;  // adds per-brick crc32
constexpr size_t kPreambleSize = 12;  // magic + version + header size

msgpack::Array DoubleTriple(const std::array<double, 3>& v) {
  return {msgpack::Value(v[0]), msgpack::Value(v[1]), msgpack::Value(v[2])};
}

std::array<double, 3> TripleFromValue(const msgpack::Value& v) {
  const auto& a = v.As<msgpack::Array>();
  VIZNDP_CHECK(a.size() == 3);
  return {a[0].AsDouble(), a[1].AsDouble(), a[2].AsDouble()};
}

}  // namespace

BrickGrid::BrickGrid(const grid::Dims& d, std::int32_t brick_edge)
    : dims(d), edge(brick_edge) {
  VIZNDP_CHECK_MSG(edge > 0, "brick edge must be positive");
  const auto bricks_along = [&](std::int64_t n) {
    const std::int64_t cells = std::max<std::int64_t>(0, n - 1);
    return std::max<std::int64_t>(1, (cells + edge - 1) / edge);
  };
  nbx = bricks_along(d.nx);
  nby = bricks_along(d.ny);
  nbz = bricks_along(d.nz);
}

BrickGrid::Extent BrickGrid::BrickExtent(std::int64_t brick) const {
  VIZNDP_CHECK(brick >= 0 && brick < BrickCount());
  const std::int64_t bi = brick % nbx;
  const std::int64_t bj = (brick / nbx) % nby;
  const std::int64_t bk = brick / (nbx * nby);
  const auto span = [&](std::int64_t b, std::int64_t n, std::int64_t* lo,
                        std::int64_t* hi) {
    const std::int64_t cells = std::max<std::int64_t>(0, n - 1);
    *lo = b * edge;
    // Last point = last owned cell + 1 (the ghost layer), clamped for
    // degenerate axes (n == 1).
    *hi = std::min<std::int64_t>(cells, (b + 1) * edge);
    if (n == 1) *hi = 0;
  };
  Extent e{};
  span(bi, dims.nx, &e.x0, &e.x1);
  span(bj, dims.ny, &e.y0, &e.y1);
  span(bk, dims.nz, &e.z0, &e.z1);
  return e;
}

namespace {

// Row-by-row copies between the dense array and a brick's point slab
// (row-major within the slab, x fastest; byte rows so every element type
// works).
template <typename RowFn>
void ForEachSlabRow(const grid::Dims& dims, const BrickGrid::Extent& e,
                    size_t elem_size, RowFn&& row) {
  const auto row_bytes =
      static_cast<size_t>(e.x1 - e.x0 + 1) * elem_size;
  size_t slab_off = 0;
  for (std::int64_t k = e.z0; k <= e.z1; ++k) {
    for (std::int64_t j = e.y0; j <= e.y1; ++j) {
      const auto dense_off =
          static_cast<size_t>(dims.Index(e.x0, j, k)) * elem_size;
      row(dense_off, slab_off, row_bytes);
      slab_off += row_bytes;
    }
  }
}

Bytes ExtractSlab(const grid::Dims& dims, const BrickGrid::Extent& e,
                  size_t elem_size, ByteSpan dense) {
  Bytes slab(static_cast<size_t>(e.PointCount()) * elem_size);
  ForEachSlabRow(dims, e, elem_size,
                 [&](size_t dense_off, size_t slab_off, size_t n) {
                   std::memcpy(slab.data() + slab_off, dense.data() + dense_off,
                               n);
                 });
  return slab;
}

void DepositSlab(const grid::Dims& dims, const BrickGrid::Extent& e,
                 size_t elem_size, ByteSpan slab, Bytes& dense) {
  ForEachSlabRow(dims, e, elem_size,
                 [&](size_t dense_off, size_t slab_off, size_t n) {
                   std::memcpy(dense.data() + dense_off, slab.data() + slab_off,
                               n);
                 });
}

}  // namespace

const ArrayMeta* VndHeader::Find(const std::string& name) const {
  const auto it = std::find_if(arrays.begin(), arrays.end(),
                               [&](const ArrayMeta& m) { return m.name == name; });
  return it == arrays.end() ? nullptr : &*it;
}

void VndWriter::SetArrayCodec(const std::string& array,
                              compress::CodecPtr codec) {
  overrides_.emplace_back(array, std::move(codec));
}

void VndWriter::SetFormatVersion(std::uint32_t version) {
  VIZNDP_CHECK_MSG(version == kVersionV1 || version == kVersionLatest,
                   "unsupported VND format version " + std::to_string(version));
  version_ = version;
}

Bytes VndWriter::Serialize() const {
  // Compress every array first so offsets and sizes are known.
  struct Blob {
    ArrayMeta meta;
    Bytes stored;
  };
  std::vector<Blob> blobs;
  std::uint64_t offset = 0;
  for (size_t i = 0; i < dataset_.ArrayCount(); ++i) {
    const grid::DataArray& array = dataset_.ArrayAt(i);
    compress::CodecPtr codec = default_codec_;
    for (const auto& [name, c] : overrides_) {
      if (name == array.name()) codec = c;
    }
    Blob blob;
    std::optional<BrickIndex> bricks;
    // The whole-blob CRC accumulates incrementally as bricks are
    // appended — the writer never needs a second pass over a blob that
    // may be most of the file.
    compress::Crc32Stream blob_crc;
    if (brick_edge_ > 0) {
      const BrickGrid bgrid(dataset_.dims(), brick_edge_);
      BrickIndex index;
      index.edge = brick_edge_;
      index.has_crc = version_ >= 2;
      index.entries.reserve(static_cast<size_t>(bgrid.BrickCount()));
      const size_t elem = grid::DataTypeSize(array.type());
      std::uint64_t brick_offset = 0;
      for (std::int64_t b = 0; b < bgrid.BrickCount(); ++b) {
        const BrickGrid::Extent e = bgrid.BrickExtent(b);
        const Bytes slab = ExtractSlab(dataset_.dims(), e, elem, array.raw());
        const grid::DataArray slab_array("", array.type(), slab);
        const auto [lo, hi] = slab_array.Range();
        const Bytes stored = codec->Compress(slab);
        const std::uint32_t brick_crc =
            index.has_crc ? compress::Crc32(stored) : 0;
        index.entries.push_back(
            {brick_offset, stored.size(), lo, hi, brick_crc});
        brick_offset += stored.size();
        blob_crc.Update(stored);
        blob.stored.insert(blob.stored.end(), stored.begin(), stored.end());
      }
      bricks = std::move(index);
    } else {
      blob.stored = codec->Compress(array.raw());
      blob_crc.Update(blob.stored);
    }
    blob.meta = ArrayMeta{
        .name = array.name(),
        .type = array.type(),
        .codec = codec->name(),
        .raw_size = static_cast<std::uint64_t>(array.byte_size()),
        .stored_size = blob.stored.size(),
        .offset = offset,
        .crc32 = blob_crc.value(),
        .bricks = std::move(bricks),
    };
    offset += blob.stored.size();
    blobs.push_back(std::move(blob));
  }

  // Header.
  msgpack::Map header;
  header.emplace_back(msgpack::Value("dims"),
                      msgpack::Value(msgpack::Array{
                          msgpack::Value(dataset_.dims().nx),
                          msgpack::Value(dataset_.dims().ny),
                          msgpack::Value(dataset_.dims().nz)}));
  header.emplace_back(msgpack::Value("origin"),
                      msgpack::Value(DoubleTriple(dataset_.geometry().origin)));
  header.emplace_back(msgpack::Value("spacing"),
                      msgpack::Value(DoubleTriple(dataset_.geometry().spacing)));
  msgpack::Array arrays;
  for (const Blob& blob : blobs) {
    msgpack::Map m;
    m.emplace_back(msgpack::Value("name"), msgpack::Value(blob.meta.name));
    m.emplace_back(msgpack::Value("type"),
                   msgpack::Value(std::string(grid::DataTypeName(blob.meta.type))));
    m.emplace_back(msgpack::Value("codec"), msgpack::Value(blob.meta.codec));
    m.emplace_back(msgpack::Value("raw_size"),
                   msgpack::Value(blob.meta.raw_size));
    m.emplace_back(msgpack::Value("stored_size"),
                   msgpack::Value(blob.meta.stored_size));
    m.emplace_back(msgpack::Value("offset"), msgpack::Value(blob.meta.offset));
    m.emplace_back(msgpack::Value("crc32"),
                   msgpack::Value(std::uint64_t{blob.meta.crc32}));
    if (blob.meta.bricks) {
      m.emplace_back(msgpack::Value("brick_edge"),
                     msgpack::Value(std::int64_t{blob.meta.bricks->edge}));
      msgpack::Array entries;
      entries.reserve(blob.meta.bricks->entries.size());
      for (const BrickEntry& entry : blob.meta.bricks->entries) {
        msgpack::Array fields{
            msgpack::Value(entry.offset), msgpack::Value(entry.stored_size),
            msgpack::Value(entry.min), msgpack::Value(entry.max)};
        if (blob.meta.bricks->has_crc) {
          fields.push_back(msgpack::Value(std::uint64_t{entry.crc32}));
        }
        entries.push_back(msgpack::Value(std::move(fields)));
      }
      m.emplace_back(msgpack::Value("bricks"),
                     msgpack::Value(std::move(entries)));
    }
    arrays.push_back(msgpack::Value(std::move(m)));
  }
  header.emplace_back(msgpack::Value("arrays"),
                      msgpack::Value(std::move(arrays)));
  const Bytes header_bytes =
      msgpack::Encode(msgpack::Value(std::move(header)));

  Bytes out;
  out.reserve(kPreambleSize + header_bytes.size() + offset);
  out.insert(out.end(), kMagic, kMagic + 4);
  AppendLE<std::uint32_t>(version_, out);
  AppendLE<std::uint32_t>(static_cast<std::uint32_t>(header_bytes.size()), out);
  out.insert(out.end(), header_bytes.begin(), header_bytes.end());
  for (const Blob& blob : blobs) {
    out.insert(out.end(), blob.stored.begin(), blob.stored.end());
  }
  return out;
}

void VndWriter::WriteToStore(storage::ObjectStore& store,
                             const std::string& bucket,
                             const std::string& key) const {
  store.Put(bucket, key, Serialize());
}

namespace {

[[noreturn]] void FailHeader(const std::string& what) {
  throw DecodeError("invalid VND header: " + what);
}

std::uint64_t CheckedMul(std::uint64_t a, std::uint64_t b,
                         const char* what) {
  if (b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b) {
    FailHeader(what);
  }
  return a * b;
}

// Cross-checks every header field against the physical file size, so a
// hostile header can neither drive out-of-range ranged reads nor claim
// sizes whose allocation alone would take the process down. Called on
// every open; a header that passes here is safe to hand to the reader's
// arithmetic (offsets sum without overflow, bricks stay inside their
// array, raw sizes match the grid).
void ValidateHeader(const VndHeader& h, std::uint64_t file_size) {
  if (h.dims.nx < 1 || h.dims.ny < 1 || h.dims.nz < 1) {
    FailHeader("non-positive dims");
  }
  const std::uint64_t points =
      CheckedMul(CheckedMul(static_cast<std::uint64_t>(h.dims.nx),
                            static_cast<std::uint64_t>(h.dims.ny),
                            "dims overflow"),
                 static_cast<std::uint64_t>(h.dims.nz), "dims overflow");

  const std::uint64_t blob_bytes = file_size - h.blob_base;
  std::uint64_t prev_end = 0;
  for (const ArrayMeta& m : h.arrays) {
    const std::uint64_t expected_raw =
        CheckedMul(points, grid::DataTypeSize(m.type),
                   ("raw size overflow: " + m.name).c_str());
    if (m.raw_size != expected_raw) {
      FailHeader("raw_size disagrees with dims: " + m.name);
    }
    if (m.raw_size > compress::kDefaultDecompressBudget) {
      FailHeader("array exceeds decompress budget: " + m.name);
    }
    if (m.offset < prev_end) {
      FailHeader("array blobs overlap or are out of order: " + m.name);
    }
    if (m.stored_size > blob_bytes || m.offset > blob_bytes - m.stored_size) {
      FailHeader("array blob overruns file: " + m.name);
    }
    prev_end = m.offset + m.stored_size;

    if (m.bricks.has_value()) {
      if (m.bricks->edge < 1) FailHeader("non-positive brick edge: " + m.name);
      const BrickGrid bgrid(h.dims, m.bricks->edge);
      if (static_cast<std::int64_t>(m.bricks->entries.size()) !=
          bgrid.BrickCount()) {
        FailHeader("brick index size disagrees with dims: " + m.name);
      }
      std::uint64_t prev_brick_end = 0;
      for (const BrickEntry& entry : m.bricks->entries) {
        if (entry.offset < prev_brick_end) {
          FailHeader("bricks overlap or are out of order: " + m.name);
        }
        if (entry.stored_size > m.stored_size ||
            entry.offset > m.stored_size - entry.stored_size) {
          FailHeader("brick overruns array blob: " + m.name);
        }
        prev_brick_end = entry.offset + entry.stored_size;
      }
    }
  }
}

VndHeader ParseHeaderBytes(ByteSpan preamble, ByteSpan header_bytes,
                           std::uint64_t file_size) {
  if (preamble.size() < kPreambleSize ||
      std::memcmp(preamble.data(), kMagic, 4) != 0) {
    throw DecodeError("not a VND file (bad magic)");
  }
  const std::uint32_t version = LoadLE<std::uint32_t>(preamble.data() + 4);
  if (version != kVersionV1 && version != kVersionLatest) {
    throw DecodeError("unsupported VND version " + std::to_string(version));
  }

  const msgpack::Value root = msgpack::Decode(header_bytes);
  VndHeader h;
  h.version = version;
  const auto& dims = root.At("dims").As<msgpack::Array>();
  if (dims.size() != 3) FailHeader("dims must have three axes");
  h.dims = {dims[0].AsInt(), dims[1].AsInt(), dims[2].AsInt()};
  h.geometry.origin = TripleFromValue(root.At("origin"));
  h.geometry.spacing = TripleFromValue(root.At("spacing"));
  for (const msgpack::Value& item : root.At("arrays").As<msgpack::Array>()) {
    ArrayMeta m;
    m.name = item.At("name").As<std::string>();
    m.type = grid::DataTypeFromName(item.At("type").As<std::string>());
    m.codec = item.At("codec").As<std::string>();
    m.raw_size = item.At("raw_size").AsUint();
    m.stored_size = item.At("stored_size").AsUint();
    m.offset = item.At("offset").AsUint();
    m.crc32 = static_cast<std::uint32_t>(item.At("crc32").AsUint());
    if (const msgpack::Value* edge = item.Find("brick_edge")) {
      BrickIndex index;
      index.edge = static_cast<std::int32_t>(edge->AsInt());
      index.has_crc = version >= 2;
      const size_t entry_fields = version >= 2 ? 5 : 4;
      for (const msgpack::Value& entry : item.At("bricks").As<msgpack::Array>()) {
        const auto& fields = entry.As<msgpack::Array>();
        if (fields.size() != entry_fields) {
          FailHeader("malformed brick entry: " + m.name);
        }
        BrickEntry e{fields[0].AsUint(), fields[1].AsUint(),
                     fields[2].AsDouble(), fields[3].AsDouble(), 0};
        if (index.has_crc) {
          e.crc32 = static_cast<std::uint32_t>(fields[4].AsUint());
        }
        index.entries.push_back(e);
      }
      m.bricks = std::move(index);
    }
    h.arrays.push_back(std::move(m));
  }
  h.blob_base = kPreambleSize + header_bytes.size();
  ValidateHeader(h, file_size);
  return h;
}

}  // namespace

VndHeader ParseVndHeader(ByteSpan file_image) {
  if (file_image.size() < kPreambleSize) {
    throw DecodeError("VND file too short");
  }
  const std::uint32_t header_size =
      LoadLE<std::uint32_t>(file_image.data() + 8);
  if (kPreambleSize + header_size > file_image.size()) {
    throw DecodeError("VND header overruns file");
  }
  return ParseHeaderBytes(file_image.first(kPreambleSize),
                          file_image.subspan(kPreambleSize, header_size),
                          file_image.size());
}

VndReader::VndReader(storage::GatewayFile file) : file_(std::move(file)) {
  const Bytes preamble = file_.ReadAt(0, kPreambleSize);
  if (preamble.size() < kPreambleSize) {
    throw DecodeError("VND file too short");
  }
  const std::uint32_t header_size = LoadLE<std::uint32_t>(preamble.data() + 8);
  if (kPreambleSize + header_size > file_.size()) {
    throw DecodeError("VND header overruns file");
  }
  const Bytes header_bytes = file_.ReadAt(kPreambleSize, header_size);
  if (header_bytes.size() < header_size) {
    throw DecodeError("VND header truncated");
  }
  header_ = ParseHeaderBytes(preamble, header_bytes, file_.size());
}

std::vector<std::string> VndReader::ArrayNames() const {
  std::vector<std::string> names;
  names.reserve(header_.arrays.size());
  for (const ArrayMeta& m : header_.arrays) names.push_back(m.name);
  return names;
}

std::uint64_t VndReader::StoredSize(const std::string& name) const {
  const ArrayMeta* meta = header_.Find(name);
  VIZNDP_CHECK_MSG(meta != nullptr, "no array '" + name + "' in VND file");
  return meta->stored_size;
}

grid::DataArray VndReader::ReadArray(const std::string& name) const {
  const ArrayMeta* meta = header_.Find(name);
  VIZNDP_CHECK_MSG(meta != nullptr, "no array '" + name + "' in VND file");
  const Bytes stored =
      file_.ReadAt(header_.blob_base + meta->offset, meta->stored_size);
  if (stored.size() != meta->stored_size) {
    throw CorruptDataError("array blob truncated: " + name);
  }
  if (compress::Crc32(stored) != meta->crc32) {
    throw CorruptDataError("array blob CRC mismatch: " + name);
  }
  const compress::CodecPtr codec = compress::MakeCodec(meta->codec);
  if (!meta->bricks) {
    Bytes raw = codec->Decompress(stored, meta->raw_size, meta->raw_size);
    if (raw.size() != meta->raw_size) {
      throw CorruptDataError("array decompressed to wrong size: " + name);
    }
    return grid::DataArray(name, meta->type, std::move(raw));
  }

  // Bricked: decompress every brick and deposit its slab (ghost layers
  // overlap with identical values, so order does not matter). The
  // whole-blob CRC above already covers every brick.
  const BrickGrid bgrid(header_.dims, meta->bricks->edge);
  const size_t elem = grid::DataTypeSize(meta->type);
  Bytes dense(meta->raw_size);
  if (bgrid.BrickCount() !=
      static_cast<std::int64_t>(meta->bricks->entries.size())) {
    throw DecodeError("brick index size mismatch: " + name);
  }
  for (std::int64_t b = 0; b < bgrid.BrickCount(); ++b) {
    const BrickEntry& entry =
        meta->bricks->entries[static_cast<size_t>(b)];
    if (entry.offset + entry.stored_size > stored.size()) {
      throw DecodeError("brick overruns array blob: " + name);
    }
    const BrickGrid::Extent e = bgrid.BrickExtent(b);
    const size_t slab_bytes = static_cast<size_t>(e.PointCount()) * elem;
    const Bytes slab = codec->Decompress(
        ByteSpan(stored).subspan(entry.offset, entry.stored_size), slab_bytes,
        slab_bytes);
    if (slab.size() != slab_bytes) {
      throw CorruptDataError("brick decompressed to wrong size: " + name);
    }
    DepositSlab(header_.dims, e, elem, slab, dense);
  }
  return grid::DataArray(name, meta->type, std::move(dense));
}

Bytes VndReader::ReadArrayRange(const std::string& name, std::uint64_t offset,
                                std::uint64_t length) const {
  const ArrayMeta* meta = header_.Find(name);
  VIZNDP_CHECK_MSG(meta != nullptr, "no array '" + name + "' in VND file");
  VIZNDP_CHECK_MSG(offset + length <= meta->stored_size,
                   "range overruns array blob: " + name);
  Bytes out =
      file_.ReadAt(header_.blob_base + meta->offset + offset, length);
  if (out.size() != length) {
    throw DecodeError("array range truncated: " + name);
  }
  return out;
}

bool VndReader::HasBricks(const std::string& name) const {
  const ArrayMeta* meta = header_.Find(name);
  VIZNDP_CHECK_MSG(meta != nullptr, "no array '" + name + "' in VND file");
  return meta->bricks.has_value();
}

grid::Dataset VndReader::ReadSelected(
    const std::vector<std::string>& names) const {
  grid::Dataset out(header_.dims, header_.geometry);
  for (const std::string& name : names) {
    out.AddArray(ReadArray(name));
  }
  return out;
}

grid::Dataset VndReader::ReadAll() const { return ReadSelected(ArrayNames()); }

}  // namespace vizndp::io
