// Blockserver fleet simulator (§5.5 "Outsourcing").
//
// The production problem: load balancers assign requests to blockservers
// uniformly at random without inspecting them; a 16-core blockserver is
// saturated by 2 simultaneous Lepton conversions, yet routinely receives 15
// at once during peak — so conversion latency collapses unless overloaded
// machines can "outsource" conversions elsewhere. The paper evaluates three
// strategies (Fig 9/10): Control (none), To-Self (re-route to a random
// other blockserver, power-of-two-choices style), and To-Dedicated (a
// separate Lepton-only cluster), with outsourcing triggered when local
// concurrent conversions exceed a threshold (3 or 4), at a 7.9% transport
// overhead. This file only models latencies; the live §6.6 router over real
// daemons is FleetClient (fleet_client.h).
#pragma once

#include <cstdint>
#include <vector>

#include "storage/event_sim.h"
#include "storage/workload.h"
#include "util/rng.h"
#include "util/stats.h"

namespace lepton::storage {

enum class OutsourcePolicy { kControl, kToSelf, kToDedicated };

struct FleetConfig {
  int blockservers = 128;
  int dedicated = 12;           // Lepton-only machines (To-Dedicated)
  int cores_per_server = 16;    // §5.5
  OutsourcePolicy policy = OutsourcePolicy::kControl;
  int threshold = 4;            // outsource if > threshold-1 concurrent (§5.5)
  double outsource_overhead = 0.079;  // §5.5: 7.9%
  // Conversion service time: a 2-conversions-saturate-16-cores machine
  // encodes a median 1.5 MB file in ~170 ms (§4.1). §5.5's "average of 5
  // encodes/s during the Thursday peak" reads as a per-blockserver rate
  // (fleet-wide Lepton ingests thousands of images/s at 2-12 GiB/s, §5.4);
  // benches set WorkloadModel::peak_encode_rate ≈ 4-8 × blockservers.
  double base_encode_s_per_mb = 0.113;
  double timeout_s = 30.0;      // §6.6 decodes exceeding the timeout window
  double sim_start_hour = 0.0;  // offset into the week (peak is 19:00 Mon)
  std::uint64_t seed = 915;     // Sept 15, the day of Figure 9
};

struct FleetMetrics {
  // Latency percentiles of conversions started near peak / at peak.
  util::Percentiles latency_near_peak;
  util::Percentiles latency_at_peak;
  util::Percentiles latency_all;
  // Per-sample-interval p99 across machines of concurrent conversions.
  std::vector<double> concurrency_p99_series;
  std::vector<double> series_time_hours;
  std::uint64_t conversions = 0;
  std::uint64_t outsourced = 0;
  std::uint64_t timeouts = 0;  // §6.6: escalate to the requeue pipeline
};

// Simulates `days` days of conversion traffic and returns the metrics
// behind Figures 9 and 10.
FleetMetrics simulate_fleet(const FleetConfig& cfg, const WorkloadModel& wl,
                            double days);

}  // namespace lepton::storage
