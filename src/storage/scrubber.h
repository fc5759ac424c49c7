// Background scrub-and-quarantine: a low-priority thread that walks the
// served catalog at a jittered cadence, re-verifies stored integrity
// (per-brick CRCs, via a format-aware verifier callback), and tracks
// bricks that fail in a QuarantineSet the serving path consults. A
// quarantined brick skips the doomed read+decompress on the hot path and
// goes straight to the recovery ladder; once the object is re-Put with
// clean bytes, the next scrub pass verifies it and re-admits the brick.
//
// The scrubber itself is format-agnostic (the storage library cannot
// depend on the VND reader, which lives above it): the verifier callback
// — ndp::MakeVndScrubVerifier in src/ndp/scrub_verify.h — owns the
// format knowledge, the quarantine bookkeeping, and the MemoryBudget
// courtesy reservations.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "storage/file_gateway.h"

namespace vizndp::storage {

// One quarantined brick: (object key, array name, brick id).
struct BrickRef {
  std::string key;
  std::string array;
  std::int64_t brick = 0;

  friend bool operator<(const BrickRef& a, const BrickRef& b) {
    return std::tie(a.key, a.array, a.brick) <
           std::tie(b.key, b.array, b.brick);
  }
  friend bool operator==(const BrickRef& a, const BrickRef& b) {
    return std::tie(a.key, a.array, a.brick) ==
           std::tie(b.key, b.array, b.brick);
  }
};

// Thread-safe set of bricks known corrupt at rest. Shared between the
// scrubber (writer) and bricked_select (reader); also keeps the
// `scrub_quarantined` gauge in the default registry current.
class QuarantineSet {
 public:
  // Returns true when the brick was newly quarantined.
  bool Add(const BrickRef& brick);
  // Returns true when the brick was present (re-admission).
  bool Remove(const BrickRef& brick);
  bool Contains(const std::string& key, const std::string& array,
                std::int64_t brick) const;
  size_t size() const;
  std::vector<BrickRef> Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::set<BrickRef> bricks_;
};

// Per-object verification outcome, aggregated into ScrubStatus.
struct ScrubObjectReport {
  std::uint64_t bricks_checked = 0;
  std::uint64_t corrupt = 0;      // bricks whose CRC failed this pass
  std::uint64_t quarantined = 0;  // newly added to the quarantine
  std::uint64_t readmitted = 0;   // verified clean and removed
  std::uint64_t budget_skips = 0;  // bricks skipped under memory pressure
};

// Verifies one object, updating the quarantine as a side effect.
using ScrubVerifier = std::function<ScrubObjectReport(const std::string& key)>;

struct ScrubberOptions {
  // Base sleep between passes; actual sleep is uniform in
  // [period / 2, period], seeded so runs replay. Only `.vnd` keys are
  // scrubbed.
  std::chrono::milliseconds period{5000};
};

// Cumulative scrub state, surfaced through ndp.health.
struct ScrubStatus {
  std::uint64_t passes = 0;
  std::uint64_t objects_checked = 0;
  std::uint64_t bricks_checked = 0;
  std::uint64_t corrupt_found = 0;
  std::uint64_t readmitted = 0;
  std::uint64_t budget_skips = 0;
  std::uint64_t quarantined_now = 0;  // current quarantine size
  bool running = false;
};

class Scrubber {
 public:
  // `quarantine` must outlive the scrubber; the verifier typically holds
  // a reference to the same set.
  Scrubber(FileGateway gateway, ScrubVerifier verifier,
           QuarantineSet& quarantine, ScrubberOptions options = {});
  ~Scrubber();

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  void Start();
  void Stop();

  // Runs one synchronous pass over the catalog on the calling thread —
  // the deterministic entry point tests and the chaos harness use.
  // Safe alongside a running background thread.
  ScrubObjectReport RunPassNow();

  ScrubStatus status() const;

 private:
  void ThreadMain();
  std::chrono::milliseconds NextSleep(std::uint64_t pass);

  FileGateway gateway_;
  ScrubVerifier verifier_;
  QuarantineSet& quarantine_;
  ScrubberOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  ScrubStatus status_;
  std::thread thread_;
};

}  // namespace vizndp::storage
