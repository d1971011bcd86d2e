#include "bench.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

const std::vector<Metric_def>& end_to_end_metrics()
{
    static const std::vector<Metric_def> defs = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"flit_hops_per_s", "1/s"},
        {"sim_cycles_per_s", "1/s"},
        {"ops_per_s", "1/s"},
        {"op_ms_p50", "ms"},
        {"op_ms_p90", "ms"},
        {"peak_rss_mib", "MiB"},
        {"ok_ops_frac", "frac"},
        {"sim_latency_cycles", "cycles"},
        {"sim_accepted_flits_per_node_cycle", "flits/node/cyc"},
    };
    return defs;
}

const std::vector<Metric_def>& per_layer_metrics()
{
    static const std::vector<Metric_def> defs = {
        {"topology.routes_ms", "ms"},
        {"topology.route_hops", "count"},
        {"topology.mcast_trees_ms", "ms"},
        {"arch.build_ms", "ms"},
        {"arch.flits_routed", "count"},
        {"arch.router_blocked_entries", "count"},
        {"arch.pool_high_water", "count"},
        {"arch.mcast_forks", "count"},
        {"arch.mcast_deliveries", "count"},
        {"arch.retransmissions", "count"},
        {"arch.packets_replayed", "count"},
        {"arch.packets_dropped", "count"},
        {"sim.advance_ms_p50", "ms"},
        {"sim.ns_per_flit_hop", "ns"},
        {"sim.cross_shard_wakes", "count"},
        {"sim.idle_shard_skips", "count"},
        {"sim.skip_ahead_cycles_frac", "frac"},
        {"sim.active_components_mean", "count"},
        {"sim.drain_ms", "ms"},
        {"traffic.sources_ms", "ms"},
        {"collective.driver_ms", "ms"},
        {"collective.run_ms_p50", "ms"},
        {"collective.completion_cycles_p50", "cycles"},
        {"collective.host_ns_per_cycle", "ns"},
        {"explore.point_ms_p50", "ms"},
        {"explore.point_ms_p90", "ms"},
        {"explore.worker_idle_frac", "frac"},
        {"explore.result_ms", "ms"},
        {"explore.points_retried", "count"},
        {"explore.points_failed", "count"},
        {"explore.early_stop_saved_frac", "frac"},
        {"telemetry.capture_us", "us"},
    };
    return defs;
}

double percentile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

} // namespace perfbench
