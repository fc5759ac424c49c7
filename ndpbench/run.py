#!/usr/bin/env python3
"""Real-clock benchmark of the NDP fetch path.

    python3 ndpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a vizndp checkout. It builds ndpbench/ (and the
libraries it links from src/) into .bench_build/, sets the workload up
(dataset generation, dense-filter oracle, storage-node processes on
loopback TCP), drives the closed-loop load generator for S seconds and
prints every metric by name, unit and sample count. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(from a separate traced phase; see BENCHMARK.json for their meaning).
The exit code is non-zero when any fetch failed or its geometry did not
match the oracle.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "ndpbench"
WORK = ROOT / ".bench_build" / "work"
BINARY = BUILD / "ndpbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("run from the root of a vizndp checkout")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE
                            not in cache.read_text()):
        shutil.rmtree(BUILD)  # configured for another checkout
    if not cache.is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j4"],
                   stdout=sys.stderr, check=True)


class Servers:
    """Storage-node processes; each stops when its stdin closes."""

    def __init__(self, count, data_dir, trace):
        self.procs = []
        self.ports = []
        try:
            for _ in range(count):
                p = subprocess.Popen(
                    [str(BINARY), "serve", "--dir", str(data_dir),
                     "--trace", str(trace)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True)
                self.procs.append(p)
                line = p.stdout.readline()
                if not line.startswith("port: "):
                    raise RuntimeError("server did not start: %r" % line)
                self.ports.append(line.split()[1])
        except BaseException:
            self.stop()
            raise

    def pids(self):
        return [str(p.pid) for p in self.procs]

    def peak_rss_kb(self):
        peaks = []
        for pid in self.pids():
            with open("/proc/%s/status" % pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]))
        return max(peaks)

    def stop(self):
        for p in self.procs:
            try:
                p.stdin.close()
            except OSError:
                pass
        for p in self.procs:
            try:
                p.wait(timeout=15)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            p.stdout.close()
        self.procs = []


def setup(work, workload, seed, trace):
    """Generates the data, runs the oracle and starts the servers."""
    work.mkdir(parents=True)
    out = subprocess.run([str(BINARY), "setup", "--workload", workload,
                          "--seed", str(seed), "--dir", str(work)],
                         stdout=subprocess.PIPE, text=True, check=True,
                         timeout=170).stdout
    servers = int(out.split("servers:")[1])
    return Servers(servers, work, trace)


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(phase, client_peak_kb, server_peak_kb, setup_s):
    n = phase["fetches"]
    load, geom = phase["load_ms"], phase["geometry_ms"]
    return {
        "load_p50_ms": (quantile(load, 0.5), "ms", n),
        "load_p90_ms": (quantile(load, 0.9), "ms", n),
        "geometry_p50_ms": (quantile(geom, 0.5), "ms", n),
        "geometry_p90_ms": (quantile(geom, 0.9), "ms", n),
        "fetches_per_s": (n / phase["elapsed_s"], "1/s", n),
        "reply_bytes_per_fetch": (phase["reply_bytes"] / n, "B", n),
        "server_cpu_ms_per_fetch": (phase["server_cpu_s"] * 1e3 / n, "ms", n),
        "server_peak_rss_mb": (server_peak_kb / 1024.0, "MB", 1),
        "client_peak_rss_mb": (client_peak_kb / 1024.0, "MB", 1),
        "setup_s": (setup_s, "s", 1),
    }


def per_layer(result):
    L = result["layers"]
    n = result["traced_fetches"]
    untraced, traced = result["untraced"], result["traced"]

    def get(key):
        return L.get(key, 0.0) / n

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    scan_ms = get("span.scan_ms") + get("replay.scan_ms")
    decompress_ms = get("compress.decompress_ms")
    m = {
        "storage.read_ms": (get("storage.read_ms"), "ms"),
        "storage.bytes_read": (get("storage.bytes_read"), "B"),
        "io.read_self_ms": (get("io.read_self_ms"), "ms"),
        "io.bricks_read_ratio": (ratio(L.get("io.bricks", 0),
                                       L.get("io.bricks_total", 0)), "ratio"),
        "compress.decompress_ms": (decompress_ms, "ms"),
        "compress.decompress_mb_s": (
            ratio(get("replay.decompressed_bytes") / 1e6,
                  decompress_ms / 1e3), "MB/s"),
        "compress.crc_ms": (get("compress.crc_ms"), "ms"),
        "contour.scan_ms": (scan_ms, "ms"),
        "contour.scan_mpts_s": (
            ratio(get("replay.scanned_points") / 1e6, scan_ms / 1e3),
            "Mpts/s"),
        "ndp.select_ms": (get("ndp.select_ms"), "ms"),
        "ndp.pack_ms": (get("ndp.pack_ms"), "ms"),
        "ndp.payload_bytes": (get("ndp.payload_bytes"), "B"),
        "ndp.bytes_per_point": (ratio(L.get("ndp.payload_bytes", 0),
                                      L.get("contour.selected_points", 0)),
                                "B/point"),
        "contour.selected_points": (get("contour.selected_points"), "count"),
        "ndp.decode_ms": (get("ndp.decode_ms"), "ms"),
        "ndp.scatter_ms": (get("ndp.scatter_ms"), "ms"),
        "contour.sparse_field_ms": (get("contour.sparse_field_ms"), "ms"),
        "contour.sparse_field_replay_ms": (
            get("contour.sparse_field_replay_ms"), "ms"),
        "contour.scatter_replay_ms": (get("contour.scatter_replay_ms"), "ms"),
        "contour.mc_ms": (get("contour.mc_ms"), "ms"),
        "contour.triangles": (get("contour.triangles"), "count"),
        "rpc.wire_ms": (get("rpc.wire_ms"), "ms"),
        "rpc.outside_handler_ms": (get("rpc.outside_handler_ms"), "ms"),
        "rpc.retries": (get("rpc.retries"), "count"),
        "rpc.busy": (get("rpc.busy"), "count"),
        "ndp.stream_chunks": (get("ndp.stream_chunks"), "count"),
        "ndp.stream_chunk_ms": (get("ndp.stream_chunk_ms"), "ms"),
        "cluster.fetch_ms": (get("cluster.fetch_ms"), "ms"),
        "cluster.shard_max_ms": (get("cluster.shard_max_ms"), "ms"),
        "cluster.shard_skew": (get("cluster.shard_skew"), "ratio"),
        "cluster.info_ms": (get("cluster.info_ms"), "ms"),
        "cluster.hedges": (get("cluster.hedges"), "count"),
        "cluster.failovers": (get("cluster.failovers"), "count"),
        "client.cpu_ms_per_fetch": (
            untraced["client_cpu_s"] * 1e3 / untraced["fetches"], "ms"),
        "obs.coverage": (ratio(L.get("obs.covered_ms", 0),
                               L.get("obs.root_ms", 0)), "ratio"),
        "obs.trace_overhead_pct": (
            (quantile(traced["load_ms"], 0.5) /
             quantile(untraced["load_ms"], 0.5) - 1.0) * 100.0, "%"),
        "obs.stats_gap_ms": (get("obs.stats_gap_ms"), "ms"),
    }
    return {k: (v, unit, int(n)) for k, (v, unit) in m.items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an error, so the finally below stops the servers
    # and subprocess.run kills the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build()
    work = WORK / ("%s-%d" % (args.workload, os.getpid()))
    servers = None
    try:
        t0 = time.perf_counter()
        servers = setup(work, args.workload, args.seed, args.trace)
        setup_s = time.perf_counter() - t0
        load = subprocess.run(
            [str(BINARY), "load", "--workload", args.workload,
             "--seed", str(args.seed), "--dir", str(work),
             "--ports", ",".join(servers.ports),
             "--pids", ",".join(servers.pids()),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=170)
        if load.returncode != 0:
            raise SystemExit("load generator failed (exit %d)"
                             % load.returncode)
        result = json.loads(load.stdout.strip().splitlines()[-1])
        server_peak_kb = servers.peak_rss_kb()
    finally:
        if servers is not None:
            servers.stop()
        shutil.rmtree(work, ignore_errors=True)

    phases = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(p["fetches"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result["untraced"], result["client_peak_rss_kb"],
                             server_peak_kb, setup_s)
    print("workload %s seed %d: %d fetches, %d failed (failed_ratio %.6f); "
          "rpc retries %d, busy %d, failovers %d"
          % (args.workload, args.seed, attempted, failed, failed / attempted,
             sum(p["retries"] for p in phases), sum(p["busy"] for p in phases),
             sum(p["failovers"] for p in phases)))
    for name, (value, unit, n) in metrics.items():
        print("%-32s %14.4f %-8s n=%d" % (name, value, unit, n))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
