// Background cluster self-healing: a monitor thread probes every node's
// ndp.health on a jittered timer and drives the per-node state machine
// in fleet_view.h (live → suspect → dead → rejoining → live) with
// suspicion counters that build on failure and decay on success — one
// slow probe demotes, it does not excommunicate.
//
// Every state change publishes a fresh epoch-stamped FleetView to the
// sink (normally ShardedNdpClient::SetFleetView), which recomputes the
// rendezvous placement over the usable nodes only: a dead node's bricks
// re-spread across the survivors, and a restarted node is re-admitted
// after `rejoin_after` consecutive healthy probes. Node identity in the
// health reply catches silent restarts (kill+restart inside one probe
// period): a changed identity walks the node back through the rejoin
// gate instead of trusting it blindly.
//
// The monitor owns its *own* probe clients — probes never share a
// connection (or an rpc::Client call slot) with data fetches, so a
// healthy fleet pays nothing on the fetch path for being watched.
//
// Audit trail: cluster_probe_total{result}, cluster_node_state_changes_
// total{to}, cluster_rejoin_total, the cluster_view_epoch gauge, and
// cluster.probe / cluster.view_change / cluster.rejoin journal events —
// exactly one view_change event per published epoch.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/fleet_view.h"
#include "ndp/ndp_client.h"

namespace vizndp::cluster {

struct HealthMonitorOptions {
  // Probe sweep interval; each sleep is jittered by ±25 % (see
  // net::JitteredPeriod) so N monitors with different seeds never sweep
  // in lockstep.
  std::chrono::milliseconds period{100};
  std::uint64_t seed = 1;
  // Consecutive failed probes before live → suspect, and total suspicion
  // before suspect → dead. Healthy probes decay suspicion by one.
  int suspect_after = 1;
  int dead_after = 3;
  // Consecutive healthy probes before a dead node is re-admitted.
  int rejoin_after = 2;
};

class HealthMonitor {
 public:
  using ViewSink = std::function<void(std::shared_ptr<const FleetView>)>;

  // `probes[i]` must talk to server i of the fleet the sink's client
  // routes over, on its own dedicated connection, with a finite
  // call_timeout (a probe of a dead node must fail, not hang).
  explicit HealthMonitor(std::vector<std::shared_ptr<ndp::NdpClient>> probes,
                         HealthMonitorOptions options = {});
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Receives every published view, including the initial all-live one.
  // Set before Start().
  void SetViewSink(ViewSink sink);

  // Publishes the initial view (epoch 1, all nodes live) and starts the
  // probe thread. Stop() is idempotent and implied by destruction.
  void Start();
  void Stop();
  bool running() const;

  // Latest published view; never null after Start().
  std::shared_ptr<const FleetView> view() const;

  // One synchronous probe sweep over all nodes; returns true when the
  // sweep published a new view. The probe thread calls this on its
  // timer; tests and the chaos harness may call it instead of Start()
  // to drive the state machine deterministically (not concurrently with
  // a running probe thread).
  bool ProbeOnce();

  // Per-node state-machine cell, exposed for unit tests.
  struct NodeCell {
    NodeState state = NodeState::kLive;
    int suspicion = 0;            // failure pressure, decays on success
    int healthy_streak = 0;       // consecutive ok probes while rejoining
    std::uint64_t identity = 0;   // last node_id seen in a health reply
  };

  // Applies one probe result to a cell; returns true when the state
  // changed. Pure state machine — no I/O, no registry.
  static bool Advance(NodeCell& cell, bool healthy,
                      const HealthMonitorOptions& options);

 private:
  void Publish();
  void Loop();

  std::vector<std::shared_ptr<ndp::NdpClient>> probes_;
  HealthMonitorOptions options_;

  std::mutex probe_mu_;  // serializes ProbeOnce (cells_ is its state)
  std::vector<NodeCell> cells_;

  mutable std::mutex mu_;  // guards view_, sink_, epoch_
  std::shared_ptr<const FleetView> view_;
  ViewSink sink_;
  std::uint64_t epoch_ = 0;

  mutable std::mutex run_mu_;
  std::condition_variable run_cv_;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace vizndp::cluster
