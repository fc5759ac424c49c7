// Ablation B: pre-filter payload encodings. Compares the two wire
// layouts — id+value (the paper's shape, 12 B/point for float32) and
// run-length ids (the serving default) — across the selectivity regimes
// the timestep series produces: bytes per selected point, absolute
// payload size, and encode+decode CPU time.
//
// Expected shape: run-length is the smaller payload at every timestep;
// the selection marks whole cell corners, so ids come in x-contiguous
// runs and cost well under one byte per point next to the 8-byte ids of
// id+value.
#include "bench_common.h"

#include "contour/select.h"
#include "ndp/protocol.h"

using namespace vizndp;
using namespace vizndp::bench;

int main() {
  const BenchParams params;
  sim::ImpactConfig cfg;
  cfg.n = params.n;
  const auto labels = sim::ImpactTimestepLabels(cfg, 3);

  bench_util::Table table({"timestep", "selectivity", "encoding", "payload",
                           "B/point", "encode", "decode"});
  for (const std::int64_t t : labels) {
    const grid::Dataset ds = sim::GenerateImpactTimestep(cfg, t, {"v02"});
    const double isos[] = {0.1};
    const contour::Selection sel =
        contour::SelectInterestingPoints(ds.dims(), ds.GetArray("v02"), isos);
    for (const auto encoding : {ndp::SelectionEncoding::kIdValue,
                                ndp::SelectionEncoding::kRunLength}) {
      bench_util::Stopwatch enc_sw;
      const Bytes payload = ndp::EncodeSelection(sel, encoding);
      const double enc_s = enc_sw.Seconds();
      bench_util::Stopwatch dec_sw;
      const ndp::DecodedSelection back =
          ndp::DecodeSelection(payload, ds.dims());
      const double dec_s = dec_sw.Seconds();
      if (back.ids != sel.ids) {
        std::cerr << "ENCODING BUG: round trip mismatch\n";
        return 1;
      }
      char per_point[32];
      std::snprintf(per_point, sizeof(per_point), "%.2f",
                    sel.ids.empty()
                        ? 0.0
                        : static_cast<double>(payload.size()) /
                              static_cast<double>(sel.ids.size()));
      table.AddRow({std::to_string(t),
                    bench_util::FormatPermille(sel.SelectivityPermille()),
                    ndp::SelectionEncodingName(encoding),
                    bench_util::FormatBytes(payload.size()), per_point,
                    bench_util::FormatSeconds(enc_s),
                    bench_util::FormatSeconds(dec_s)});
    }
  }
  std::cout << "Ablation B — selection payload encodings (v02, contour 0.1)\n";
  table.Print(std::cout);
  table.WriteCsv(bench_util::ResultsDir() + "/abl_encoding.csv");
  return 0;
}
