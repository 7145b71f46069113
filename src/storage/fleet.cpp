#include "storage/fleet.h"

#include <algorithm>

namespace lepton::storage {
namespace {

struct Server {
  int active = 0;        // concurrent Lepton conversions
  double bg_load = 1.0;  // non-Lepton work multiplier (blockservers only)
};

}  // namespace

FleetMetrics simulate_fleet(const FleetConfig& cfg, const WorkloadModel& wl,
                            double days) {
  EventSim sim;
  util::Rng rng(cfg.seed);
  FleetMetrics out;

  std::vector<Server> servers(
      static_cast<std::size_t>(cfg.blockservers + cfg.dedicated));
  for (int i = 0; i < cfg.blockservers; ++i) {
    servers[static_cast<std::size_t>(i)].bg_load = rng.uniform(1.0, 1.3);
  }

  const double horizon = days * kDay;
  const double start = cfg.sim_start_hour * kHour;
  const double lambda_max = wl.encode_rate(19 * kHour);  // diurnal max

  // Batched arrivals: album/camera-roll uploads produce runs of photos in
  // quick succession; the load balancer sprays them per-request, but the
  // *rate* bursts are what pile conversions onto unlucky machines (§5.5
  // "routinely get 15 encodes at once during peak").
  const double batch_mean = 4.0;

  std::function<void()> schedule_arrival = [&] {
    double dt = rng.exponential(batch_mean / lambda_max);
    sim.after(dt, [&] {
      double t = start + sim.now();
      if (sim.now() >= horizon) return;
      schedule_arrival();
      // Thinning for the diurnal/weekly rate.
      if (!rng.chance(wl.encode_rate(t) / lambda_max)) return;
      int batch = 1 + static_cast<int>(rng.exponential(batch_mean - 1));
      for (int b = 0; b < batch; ++b) {
        // ---- random load balancing ----
        auto target = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(cfg.blockservers)));
        bool outsourced = false;
        if (cfg.policy != OutsourcePolicy::kControl &&
            servers[target].active + 1 > cfg.threshold) {
          outsourced = true;
          if (cfg.policy == OutsourcePolicy::kToSelf) {
            // Power-of-two-choices among the blockserver fleet (§5.5).
            auto a = static_cast<std::size_t>(
                rng.below(static_cast<std::uint64_t>(cfg.blockservers)));
            auto c = static_cast<std::size_t>(
                rng.below(static_cast<std::uint64_t>(cfg.blockservers)));
            target = servers[a].active <= servers[c].active ? a : c;
          } else {
            target = static_cast<std::size_t>(
                cfg.blockservers +
                static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(cfg.dedicated))));
          }
        }
        Server& sv = servers[target];
        sv.active += 1;
        // Two conversions saturate a machine (§5.5): beyond that they share.
        double contention =
            std::max(1.0, static_cast<double>(sv.active) / 2.0);
        double size_mb = wl.sample_file_mb(rng);
        double service = cfg.base_encode_s_per_mb * size_mb * contention *
                         sv.bg_load * rng.uniform(0.85, 1.25);
        if (outsourced) service *= 1.0 + cfg.outsource_overhead;

        double started = sim.now();
        double diurnal_level = WorkloadModel::diurnal(start + started);
        sim.after(service, [&out, &servers, target, started, service,
                            diurnal_level, &cfg, &sim] {
          servers[target].active -= 1;
          double latency = sim.now() - started;
          out.latency_all.add(latency);
          if (diurnal_level >= 0.97) {
            out.latency_at_peak.add(latency);
          } else if (diurnal_level >= 0.85) {
            out.latency_near_peak.add(latency);
          }
          if (latency > cfg.timeout_s) ++out.timeouts;
          ++out.conversions;
          (void)service;
        });
        if (outsourced) ++out.outsourced;
      }
    });
  };
  schedule_arrival();

  // Concurrency sampler: every simulated minute, p99 across machines of
  // concurrent conversions (the Figure 9 metric).
  std::function<void()> sample = [&] {
    sim.after(60.0, [&] {
      if (sim.now() >= horizon) return;
      util::Percentiles p;
      for (int i = 0; i < cfg.blockservers; ++i) {
        p.add(servers[static_cast<std::size_t>(i)].active);
      }
      out.concurrency_p99_series.push_back(p.percentile(99));
      out.series_time_hours.push_back((start + sim.now()) / kHour);
      sample();
    });
  };
  sample();

  sim.run_until(horizon);
  return out;
}

}  // namespace lepton::storage
