// The three benchmark workloads. Each drives the engine only through its
// public API (Noc_builder, Noc_system::advance/measure/drain,
// Collective_driver, Sweep_runner, Telemetry_registry) and hands it only
// inputs generated from the workload seed: Bernoulli source seeds,
// collective roots and the sweep's base seed (from which the engine derives
// every point's fault plan).
//
// Why each workload exists, and which per-layer metric should move which
// end-to-end metric on it, is documented in perfbench/README.md.
#include "bench.h"

#include "arch/noc_builder.h"
#include "collective/collective.h"
#include "common/rng.h"
#include "explore/sweep_runner.h"
#include "telemetry/registry.h"
#include "topology/mesh.h"
#include "topology/multicast.h"
#include "topology/routing.h"
#include "traffic/patterns.h"
#include "traffic/synthetic.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

using namespace noc;

namespace {

constexpr std::uint32_t kPacketFlits = 4;

std::uint64_t exact(double integral_sum)
{
    return static_cast<std::uint64_t>(integral_sum);
}

std::uint64_t route_hops(const Route_set& routes)
{
    std::uint64_t hops = 0;
    const int n = routes.core_count();
    for (int s = 0; s < n; ++s)
        for (int d = 0; d < n; ++d)
            hops += routes
                        .at(Core_id{static_cast<std::uint32_t>(s)},
                            Core_id{static_cast<std::uint32_t>(d)})
                        .size();
    return hops;
}

/// Per-core Bernoulli source seeds drawn from the workload seed.
std::vector<std::uint64_t> source_seeds(std::uint64_t seed, int cores)
{
    Rng rng(seed);
    std::vector<std::uint64_t> out(static_cast<std::size_t>(cores));
    for (auto& s : out) s = rng.next_u64();
    return out;
}

void attach_sources(Noc_system& sys, double rate,
                    const std::vector<std::uint64_t>& seeds)
{
    const int cores = sys.topology().core_count();
    std::shared_ptr<const Dest_pattern> pattern(make_uniform_pattern(cores));
    for (int c = 0; c < cores; ++c) {
        const Core_id core{static_cast<std::uint32_t>(c)};
        Bernoulli_source::Params sp;
        sp.flits_per_cycle = rate;
        sp.packet_size_flits = kPacketFlits;
        sp.seed = seeds[static_cast<std::size_t>(c)];
        sys.ni(core).set_source(
            std::make_unique<Bernoulli_source>(core, sp, pattern));
    }
}

std::string digest_seeds(const std::vector<std::uint64_t>& seeds)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t s : seeds) h = (h ^ s) * 0x100000001b3ull;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/// Counters read through a Telemetry_registry at op boundaries, summed
/// over the components that own them.
class Counter_view {
public:
    struct Counts {
        std::uint64_t routed = 0;
        std::uint64_t blocked = 0;
        std::uint64_t mcast_forks = 0;
        std::uint64_t mcast_delivered = 0;
        std::uint64_t idle_shard_skips = 0;
        std::uint64_t skip_ahead_cycles = 0;
        std::uint64_t cross_shard_wakes = 0;
        std::uint64_t active_components = 0;
        std::uint64_t pool_high_water = 0;
    };

    explicit Counter_view(const Noc_system& sys)
    {
        sys.attach_telemetry(registry_);
        for (std::size_t i = 0; i < registry_.entry_count(); ++i) {
            const std::string& n = registry_.entry(i).name;
            if (ends_with(n, ".routed")) routed_.push_back(i);
            else if (ends_with(n, ".blocked")) blocked_.push_back(i);
            else if (ends_with(n, ".mcast_forks")) forks_.push_back(i);
            else if (ends_with(n, ".mcast_delivered")) mdeliv_.push_back(i);
        }
    }

    /// Capture the whole surface and fold it; `capture_s` receives the
    /// host time the capture took.
    Counts read(double& capture_s)
    {
        const double t0 = now_s();
        registry_.capture_into(values_);
        capture_s = now_s() - t0;
        Counts c;
        c.routed = sum(routed_);
        c.blocked = sum(blocked_);
        c.mcast_forks = sum(forks_);
        c.mcast_delivered = sum(mdeliv_);
        c.idle_shard_skips = named("kernel.idle_shard_skips");
        c.skip_ahead_cycles = named("kernel.skip_ahead_cycles");
        c.cross_shard_wakes = named("kernel.cross_shard_wakes");
        c.active_components = named("kernel.active_components");
        c.pool_high_water = named("pool.high_water");
        return c;
    }

private:
    static bool ends_with(const std::string& s, const char* suffix)
    {
        const std::size_t n = std::strlen(suffix);
        return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
    }
    std::uint64_t sum(const std::vector<std::size_t>& idx) const
    {
        std::uint64_t t = 0;
        for (std::size_t i : idx) t += values_[i];
        return t;
    }
    std::uint64_t named(const char* name) const
    {
        const std::size_t i = registry_.find(name);
        return i == Telemetry_registry::npos ? 0 : values_[i];
    }

    Telemetry_registry registry_;
    std::vector<std::uint64_t> values_;
    std::vector<std::size_t> routed_, blocked_, forks_, mdeliv_;
};

/// Layer counts accumulated over one traced pass.
struct Layer_sampler {
    std::vector<double> capture_us;
    double active_sum = 0.0;
    std::uint64_t samples = 0;
    Counter_view::Counts last;

    void sample(Tracer& tracer, Counter_view& view)
    {
        Tracer::Scope s(tracer, "telemetry.capture");
        double capture_s = 0.0;
        last = view.read(capture_s);
        capture_us.push_back(capture_s * 1e6);
        active_sum += static_cast<double>(last.active_components);
        ++samples;
    }

    void fill(std::map<std::string, double>& layer, std::uint64_t cycles) const
    {
        layer["arch.flits_routed"] = static_cast<double>(last.routed);
        layer["arch.router_blocked_entries"] =
            static_cast<double>(last.blocked);
        layer["arch.pool_high_water"] =
            static_cast<double>(last.pool_high_water);
        layer["arch.mcast_forks"] = static_cast<double>(last.mcast_forks);
        layer["arch.mcast_deliveries"] =
            static_cast<double>(last.mcast_delivered);
        layer["sim.cross_shard_wakes"] =
            static_cast<double>(last.cross_shard_wakes);
        layer["sim.idle_shard_skips"] =
            static_cast<double>(last.idle_shard_skips);
        layer["sim.skip_ahead_cycles_frac"] =
            cycles == 0 ? 0.0
                        : static_cast<double>(last.skip_ahead_cycles) /
                              static_cast<double>(cycles);
        layer["sim.active_components_mean"] =
            samples == 0 ? 0.0 : active_sum / static_cast<double>(samples);
        layer["telemetry.capture_us"] = median(capture_us);
    }
};

/// Set-up timings of the mesh workloads: the last set-up recorded.
void fill_setup_layers(const Tracer& tracer,
                       std::map<std::string, double>& layer)
{
    auto one = [&](const char* span) {
        const auto d = tracer.durations_ms(span);
        return d.empty() ? 0.0 : d.back();
    };
    layer["topology.routes_ms"] = one("topology.routes");
    layer["topology.mcast_trees_ms"] = one("topology.mcast_trees");
    layer["arch.build_ms"] = one("arch.build");
    layer["traffic.sources_ms"] = one("traffic.sources");
}

Op_fingerprint system_fingerprint(const Noc_system& sys)
{
    Op_fingerprint f;
    f.packets_delivered = sys.stats().packets_delivered();
    f.flits_routed = sys.total_flits_routed();
    f.latency_sum = exact(sys.stats().packet_latency().sum());
    f.network_latency_sum = exact(sys.stats().network_latency().sum());
    return f;
}

// ---------------------------------------------------------------------------
// mesh32_sat_sharded2 — saturated 32x32 mesh on the 2-shard kernel.

class Mesh_saturated final : public Workload {
public:
    static constexpr int kSide = 32;
    static constexpr double kRate = 0.5;
    static constexpr std::uint32_t kShards = 2;
    static constexpr Cycle kWarmup = 300;
    static constexpr Cycle kOpCycles = 100;
    static constexpr int kOps = 60;

    explicit Mesh_saturated(std::uint64_t seed)
        : seeds_(source_seeds(seed, kSide * kSide))
    {
    }

    std::string inputs_digest() const override
    {
        return "sources=" + digest_seeds(seeds_);
    }

    void setup(Tracer& tracer) override
    {
        sys_ = build(Kernel_mode::sharded, tracer);
        if (tracer.enabled()) hops_ = route_hops(sys_->routes());
    }

    Pass_result run_pass(Tracer& tracer) override
    {
        Pass_result r = run(*sys_, tracer);
        if (tracer.enabled())
            r.layer["topology.route_hops"] = static_cast<double>(hops_);
        sys_.reset();
        return r;
    }

    Pass_result run_reference() override
    {
        Tracer off;
        auto sys = build(Kernel_mode::activity_gated, off);
        return run(*sys, off);
    }

private:
    std::unique_ptr<Noc_system> build(Kernel_mode mode, Tracer& tracer) const
    {
        Mesh_params mp;
        mp.width = kSide;
        mp.height = kSide;
        Topology topo = [&] {
            Tracer::Scope s(tracer, "topology.mesh");
            return make_mesh(mp);
        }();
        Route_set routes = [&] {
            Tracer::Scope s(tracer, "topology.routes");
            return xy_routes(topo, mp);
        }();
        std::unique_ptr<Noc_system> sys;
        {
            Tracer::Scope s(tracer, "arch.build");
            Noc_builder b;
            b.topology(std::move(topo)).routes(std::move(routes));
            if (mode == Kernel_mode::sharded)
                b.partition(Partition_plan::contiguous(kShards));
            else
                b.schedule(mode);
            sys = b.build();
        }
        {
            Tracer::Scope s(tracer, "traffic.sources");
            attach_sources(*sys, kRate, seeds_);
        }
        return sys;
    }

    static Pass_result run(Noc_system& sys, Tracer& tracer)
    {
        Pass_result r;
        const std::size_t first_span = tracer.spans().size();
        std::unique_ptr<Counter_view> view;
        Layer_sampler layers;
        if (tracer.enabled()) view = std::make_unique<Counter_view>(sys);

        sys.open_measurement(kWarmup + kOps * kOpCycles);
        {
            Tracer::Scope s(tracer, "sim.warmup");
            sys.advance(kWarmup);
        }
        const std::uint64_t hops0 = sys.total_flits_routed();
        for (int i = 0; i < kOps; ++i) {
            tracer.set_op(static_cast<std::uint64_t>(i));
            Tracer::Scope op(tracer, "bench.op");
            const double t0 = now_s();
            {
                Tracer::Scope s(tracer, "sim.advance");
                sys.advance(kOpCycles);
            }
            r.op_ms.push_back((now_s() - t0) * 1e3);
            r.fingerprints.push_back(system_fingerprint(sys));
            if (view) layers.sample(tracer, *view);
        }
        tracer.set_op(Tracer::no_op);
        r.flit_hops = sys.total_flits_routed();
        r.sim_cycles = kWarmup + kOps * kOpCycles;
        r.sim_latency_cycles = sys.stats().packet_latency().mean();
        r.sim_accepted_flits_per_node_cycle =
            sys.stats().accepted_flits_per_cycle() /
            sys.topology().core_count();
        if (view) {
            layers.fill(r.layer, r.sim_cycles);
            fill_setup_layers(tracer, r.layer);
            const auto adv = tracer.durations_ms("sim.advance", first_span);
            double adv_ms = 0.0;
            for (double d : adv) adv_ms += d;
            r.layer["sim.advance_ms_p50"] = median(adv);
            r.layer["sim.ns_per_flit_hop"] =
                adv_ms * 1e6 /
                static_cast<double>(r.flit_hops - hops0);
        }
        return r;
    }

    std::vector<std::uint64_t> seeds_;
    std::unique_ptr<Noc_system> sys_;
    std::uint64_t hops_ = 0; ///< route hops of the set, traced set-ups only
};

// ---------------------------------------------------------------------------
// mesh8_collectives_lowload — back-to-back collectives on a quiet 8x8 mesh.

class Mesh_collectives final : public Workload {
public:
    static constexpr int kSide = 8;
    static constexpr double kRate = 0.05;
    static constexpr Cycle kWarmup = 500;
    static constexpr Cycle kChunk = 32;
    static constexpr Cycle kMaxOpCycles = 200'000;
    static constexpr Cycle kDrainLimit = 100'000;
    static constexpr int kOps = 40;

    explicit Mesh_collectives(std::uint64_t seed)
        : seeds_(source_seeds(seed, kSide * kSide))
    {
        // Kinds cycle in a fixed order; the root of every op comes from
        // the seed (allgather has none).
        static constexpr Collective_kind kinds[] = {
            Collective_kind::broadcast, Collective_kind::reduce,
            Collective_kind::allreduce, Collective_kind::allgather};
        Rng rng(seed ^ 0x5bd1e995ull);
        for (int i = 0; i < kOps; ++i) {
            Collective_config c;
            // Payloads stay at the default 4 flits: a multicast packet may
            // not be longer than the router buffer depth.
            c.kind = kinds[i % 4];
            c.root = Core_id{static_cast<std::uint32_t>(
                rng.next_below(kSide * kSide))};
            ops_.push_back(c);
        }
    }

    std::string inputs_digest() const override
    {
        std::string roots;
        for (const auto& c : ops_)
            roots += std::to_string(c.root.get()) + ",";
        return "sources=" + digest_seeds(seeds_) + " roots=" + roots;
    }

    void setup(Tracer& tracer) override
    {
        sys_ = build(Kernel_mode::activity_gated, tracer);
        if (tracer.enabled()) hops_ = route_hops(sys_->routes());
    }

    Pass_result run_pass(Tracer& tracer) override
    {
        Pass_result r = run(*sys_, tracer);
        if (tracer.enabled())
            r.layer["topology.route_hops"] = static_cast<double>(hops_);
        sys_.reset();
        return r;
    }

    Pass_result run_reference() override
    {
        Tracer off;
        auto sys = build(Kernel_mode::reference, off);
        return run(*sys, off);
    }

private:
    std::unique_ptr<Noc_system> build(Kernel_mode mode, Tracer& tracer) const
    {
        Mesh_params mp;
        mp.width = kSide;
        mp.height = kSide;
        Topology topo = [&] {
            Tracer::Scope s(tracer, "topology.mesh");
            return make_mesh(mp);
        }();
        Route_set routes = [&] {
            Tracer::Scope s(tracer, "topology.routes");
            return xy_routes(topo, mp);
        }();
        std::unique_ptr<Noc_system> sys;
        {
            Tracer::Scope s(tracer, "arch.build");
            sys = Noc_builder{}
                      .topology(std::move(topo))
                      .routes(std::move(routes))
                      .schedule(mode)
                      .build();
        }
        {
            // The all-cores destination set every broadcast-shaped phase
            // rides; each op's driver reinstalls the same trees.
            Tracer::Scope s(tracer, "topology.mcast_trees");
            std::vector<std::vector<Core_id>> dsets(1);
            for (int c = 0; c < kSide * kSide; ++c)
                dsets[0].push_back(Core_id{static_cast<std::uint32_t>(c)});
            sys->set_mcast_routes(multicast_routes(
                sys->topology(), sys->routes(), dsets,
                sys->params().route_vcs));
        }
        {
            Tracer::Scope s(tracer, "traffic.sources");
            attach_sources(*sys, kRate, seeds_);
        }
        return sys;
    }

    Pass_result run(Noc_system& sys, Tracer& tracer) const
    {
        Pass_result r;
        const std::size_t first_span = tracer.spans().size();
        std::unique_ptr<Counter_view> view;
        Layer_sampler layers;
        if (tracer.enabled()) view = std::make_unique<Counter_view>(sys);
        std::vector<double> completion, run_ms, driver_ms;
        double collective_s = 0.0;
        Cycle collective_cycles = 0;

        sys.open_measurement(invalid_cycle / 4);
        {
            Tracer::Scope s(tracer, "sim.warmup");
            sys.advance(kWarmup);
        }
        // The previous op's driver stays alive until the next one has
        // taken over the delivery listeners.
        std::unique_ptr<Collective_driver> driver;
        for (int i = 0; i < kOps; ++i) {
            tracer.set_op(static_cast<std::uint64_t>(i));
            Tracer::Scope op(tracer, "bench.op");
            const double t0 = now_s();
            {
                Tracer::Scope s(tracer, "collective.driver");
                driver = std::make_unique<Collective_driver>(
                    sys, ops_[static_cast<std::size_t>(i)]);
            }
            const double t1 = now_s();
            const Cycle began = sys.kernel().now();
            {
                Tracer::Scope s(tracer, "collective.start");
                driver->start();
            }
            while (!driver->done() &&
                   sys.kernel().now() - began < kMaxOpCycles) {
                Tracer::Scope s(tracer, "sim.advance");
                sys.advance(kChunk);
            }
            const double t2 = now_s();
            r.op_ms.push_back((t2 - t0) * 1e3);
            driver_ms.push_back((t1 - t0) * 1e3);
            run_ms.push_back((t2 - t1) * 1e3);
            collective_s += t2 - t1;
            collective_cycles += sys.kernel().now() - began;
            Op_fingerprint f = system_fingerprint(sys);
            f.completed = driver->done();
            if (f.completed) f.completion_cycles = driver->completion_cycle() - began;
            completion.push_back(static_cast<double>(f.completion_cycles));
            r.fingerprints.push_back(f);
            if (view) layers.sample(tracer, *view);
        }
        tracer.set_op(Tracer::no_op);
        sys.close_measurement();
        bool drained = false;
        {
            Tracer::Scope s(tracer, "sim.drain");
            drained = sys.drain(kDrainLimit);
        }
        // A pass that cannot drain fails its last op.
        if (!drained) r.fingerprints.back().completed = false;
        r.flit_hops = sys.total_flits_routed();
        r.sim_cycles = sys.kernel().now();
        r.sim_latency_cycles = sys.stats().packet_latency().mean();
        r.sim_accepted_flits_per_node_cycle =
            sys.stats().accepted_flits_per_cycle() /
            sys.topology().core_count();
        if (view) {
            layers.fill(r.layer, sys.kernel().now());
            fill_setup_layers(tracer, r.layer);
            const auto adv = tracer.durations_ms("sim.advance", first_span);
            double adv_ms = 0.0;
            for (double d : adv) adv_ms += d;
            r.layer["sim.advance_ms_p50"] = median(adv);
            r.layer["sim.ns_per_flit_hop"] =
                adv_ms * 1e6 / static_cast<double>(r.flit_hops);
            const auto drain = tracer.durations_ms("sim.drain", first_span);
            r.layer["sim.drain_ms"] = drain.empty() ? 0.0 : drain.back();
            r.layer["collective.driver_ms"] = median(driver_ms);
            r.layer["collective.run_ms_p50"] = median(run_ms);
            r.layer["collective.completion_cycles_p50"] = median(completion);
            r.layer["collective.host_ns_per_cycle"] =
                collective_s * 1e9 / static_cast<double>(collective_cycles);
        }
        return r;
    }

    std::vector<std::uint64_t> seeds_;
    std::vector<Collective_config> ops_;
    std::unique_ptr<Noc_system> sys_;
    std::uint64_t hops_ = 0; ///< route hops of the set, traced set-ups only
};

// ---------------------------------------------------------------------------
// sweep8_faults_w2 — an 8x8 mesh/torus sweep with a fault axis on a
// 2-worker Sweep_runner.

/// Every field of a Load_point, bit-exact, as one FNV-1a hash.
std::uint64_t hash_load_point(const Load_point& lp)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
    };
    auto d = [&mix](double v) { mix(&v, sizeof v); };
    auto u = [&mix](std::uint64_t v) { mix(&v, sizeof v); };
    d(lp.offered_flits_per_node_cycle);
    d(lp.accepted_flits_per_node_cycle);
    d(lp.avg_packet_latency);
    d(lp.avg_network_latency);
    d(lp.p99_estimate);
    d(lp.max_latency);
    u(lp.packets);
    u(lp.drained ? 1 : 0);
    u(lp.packets_dropped);
    u(lp.packets_unreachable);
    u(lp.corrupted_flits);
    u(lp.retransmissions);
    u(lp.recoveries);
    d(lp.avg_time_to_recover);
    u(lp.packets_replayed);
    u(lp.live_switchovers);
    d(lp.availability);
    d(lp.connected_availability);
    u(lp.early_stopped ? 1 : 0);
    u(lp.measured_cycles);
    u(lp.collective_completion_cycles);
    u(lp.collective_completed ? 1 : 0);
    return h;
}

class Sweep_faults final : public Workload {
public:
    static constexpr std::uint32_t kWorkers = 2;

    explicit Sweep_faults(std::uint64_t seed) : spec_(make_spec(seed))
    {
        // Mean route length per design, for the flit-hop estimate.
        for (const Design_variant& d : spec_.designs) {
            const Topology topo = make_sweep_topology(d);
            const Route_set routes = make_sweep_routes(d, topo);
            const int n = topo.core_count();
            mean_hops_.push_back(static_cast<double>(route_hops(routes)) /
                                 (static_cast<double>(n) * (n - 1)));
        }
        runner_.set_point_done_hook([this] {
            last_done_s_.store(now_s(), std::memory_order_relaxed);
        });
    }

    std::string inputs_digest() const override
    {
        std::string s = "base_seed=" + std::to_string(spec_.base.seed) +
                        " point_seeds=";
        std::vector<std::uint64_t> seeds;
        for (const Sweep_point& p : spec_.enumerate()) seeds.push_back(p.seed);
        return s + digest_seeds(seeds);
    }

    /// Set-up a sweep point pays before its first cycle, done here once
    /// per design through the same public calls: topology, routes, the
    /// point's fault plan, the system and its sources.
    void setup(Tracer& tracer) override
    {
        const std::vector<Sweep_point> points = spec_.enumerate();
        hops_ = 0;
        capture_us_ = 0.0;
        for (std::uint32_t di = 0; di < spec_.designs.size(); ++di) {
            const Design_variant& d = spec_.designs[di];
            const Sweep_point* p = nullptr;
            for (const Sweep_point& q : points)
                if (q.design == di && q.scenario + 1 == spec_.scenario_count())
                    p = &q;
            Topology topo = [&] {
                Tracer::Scope s(tracer, "topology.mesh");
                return make_sweep_topology(d);
            }();
            Route_set routes = [&] {
                Tracer::Scope s(tracer, "topology.routes");
                return make_sweep_routes(d, topo);
            }();
            if (tracer.enabled()) hops_ += route_hops(routes);
            std::unique_ptr<Noc_system> sys;
            {
                Tracer::Scope s(tracer, "arch.build");
                const Sweep_config cfg =
                    point_config(spec_, d, p->seed, &topo, p->scenario);
                sys = Noc_builder{}
                          .topology(std::move(topo))
                          .routes(std::move(routes))
                          .params(d.params)
                          .options(cfg.build)
                          .build();
            }
            {
                Tracer::Scope s(tracer, "traffic.sources");
                attach_sources(*sys, p->load,
                               source_seeds(p->seed, d.width * d.height));
            }
            if (tracer.enabled()) {
                Counter_view view(*sys);
                double capture_s = 0.0;
                Tracer::Scope s(tracer, "telemetry.capture");
                (void)view.read(capture_s);
                capture_us_ += capture_s * 1e6;
            }
        }
    }

    Pass_result run_pass(Tracer& tracer) override
    {
        const std::size_t first_span = tracer.spans().size();
        const double t0 = now_s();
        Sweep_result res;
        {
            Tracer::Scope s(tracer, "explore.sweep");
            res = runner_.run(spec_);
            const double t1 = now_s();
            tracer.add("explore.result",
                       last_done_s_.load(std::memory_order_relaxed), t1);
        }
        const double wall = now_s() - t0;
        Pass_result r = summarize(res);
        if (tracer.enabled()) fill_layers(tracer, first_span, res, wall, r);
        return r;
    }

    Pass_result run_reference() override
    {
        Sweep_spec ref = spec_;
        ref.base.build.kernel_mode = Kernel_mode::reference;
        return summarize(runner_.run(ref));
    }

private:
    /// Fault scenarios drawn per point from the seed, so one fault's
    /// position would swing a whole pass: each shape is replicated
    /// kReplicas times (each replica hits other links and routers) and the
    /// loads stay low enough that every faulted point drains.
    static constexpr int kReplicas = 6;

    static Sweep_spec make_spec(std::uint64_t seed)
    {
        Sweep_spec spec;
        spec.name = "perfbench_sweep8_faults";
        spec.base.seed = seed;
        spec.base.warmup = 1'000;
        spec.base.measure = 2'000;
        spec.base.drain_limit = 40'000;
        // Early-stop checks every 500 cycles against a cap a little above
        // the zero-load latency (~19 cycles), so points whose latency is
        // still climbing after a permanent fault are cut short.
        spec.base.early_stop_check = 500;
        spec.latency_cap = 24.0;
        spec.add_mesh(8, 8);
        Network_params torus_params;
        torus_params.route_vcs = 2;
        spec.add_torus(8, 8, torus_params, "vc2");
        spec.add_synthetic(Sweep_pattern_kind::uniform);
        for (int k = 0; k < kReplicas; ++k) {
            const std::string n = std::to_string(k);
            spec.add_fault_scenario("transient" + n, 16, 0);
            spec.add_fault_scenario("link" + n, 0, 1);
            Fault_scenario& router =
                spec.add_fault_scenario("router_replay" + n, 0, 0);
            router.router_death_count = 1;
            router.replay = true;
        }
        spec.loads = {0.03, 0.05, 0.07};
        return spec;
    }

    Pass_result summarize(const Sweep_result& res) const
    {
        Pass_result r;
        double lat_weighted = 0.0;
        std::uint64_t packets = 0;
        double accepted = 0.0;
        double hops = 0.0;
        std::uint64_t points = 0;
        for (const Design_curve& c : res.curves) {
            const Design_variant& d = spec_.designs[c.design];
            const double nodes = static_cast<double>(d.width * d.height);
            for (const Point_result& p : c.points) {
                Op_fingerprint f;
                f.packets_delivered = p.load.packets;
                f.result_hash = hash_load_point(p.load);
                f.completed = p.error.empty() && p.load.drained;
                r.op_ms.push_back(p.wall_seconds * 1e3);
                r.fingerprints.push_back(f);
                lat_weighted += p.load.avg_packet_latency *
                                static_cast<double>(p.load.packets);
                packets += p.load.packets;
                accepted += p.load.accepted_flits_per_node_cycle;
                // Delivered flits times the design's mean route length:
                // Load_point carries no hop count, so this estimates the
                // flit-hops of the measurement window.
                const double delivered = p.load.accepted_flits_per_node_cycle *
                                         nodes *
                                         static_cast<double>(
                                             p.load.measured_cycles);
                hops += delivered * mean_hops_[c.design];
                r.sim_cycles += spec_.base.warmup + p.load.measured_cycles;
                ++points;
            }
        }
        r.flit_hops = static_cast<std::uint64_t>(hops);
        r.sim_latency_cycles =
            packets == 0 ? 0.0 : lat_weighted / static_cast<double>(packets);
        r.sim_accepted_flits_per_node_cycle =
            points == 0 ? 0.0 : accepted / static_cast<double>(points);
        r.pass_digest = res.to_json();
        return r;
    }

    void fill_layers(const Tracer& tracer, std::size_t first_span,
                     const Sweep_result& res, double wall,
                     Pass_result& r) const
    {
        std::vector<double> point_ms;
        double busy_s = 0.0;
        std::uint64_t retried = 0, failed = 0, measured = 0, scheduled = 0;
        std::uint64_t retrans = 0, replayed = 0, dropped = 0;
        for (const Design_curve& c : res.curves)
            for (const Point_result& p : c.points) {
                point_ms.push_back(p.wall_seconds * 1e3);
                busy_s += p.wall_seconds;
                retried += p.retried ? 1 : 0;
                failed += p.error.empty() ? 0 : 1;
                measured += p.load.measured_cycles;
                scheduled += spec_.base.measure;
                retrans += p.load.retransmissions;
                replayed += p.load.packets_replayed;
                dropped += p.load.packets_dropped;
            }
        // Set-up spans were recorded just before this pass.
        std::size_t setup_from = 0;
        for (std::size_t i = first_span; i-- > 0;)
            if (std::strcmp(tracer.spans()[i].name, "bench.setup") == 0) {
                setup_from = i;
                break;
            }
        auto total = [&](const char* name) {
            double t = 0.0;
            for (double d : tracer.durations_ms(name, setup_from)) t += d;
            return t;
        };
        r.layer["topology.routes_ms"] = total("topology.routes");
        r.layer["topology.route_hops"] = static_cast<double>(hops_);
        r.layer["arch.build_ms"] = total("arch.build");
        r.layer["traffic.sources_ms"] = total("traffic.sources");
        r.layer["telemetry.capture_us"] = capture_us_;
        r.layer["arch.retransmissions"] = static_cast<double>(retrans);
        r.layer["arch.packets_replayed"] = static_cast<double>(replayed);
        r.layer["arch.packets_dropped"] = static_cast<double>(dropped);
        r.layer["explore.point_ms_p50"] = percentile(point_ms, 0.5);
        r.layer["explore.point_ms_p90"] = percentile(point_ms, 0.9);
        r.layer["explore.worker_idle_frac"] =
            1.0 - busy_s / (kWorkers * wall);
        const auto result = tracer.durations_ms("explore.result", first_span);
        r.layer["explore.result_ms"] = result.empty() ? 0.0 : result.back();
        r.layer["explore.points_retried"] = static_cast<double>(retried);
        r.layer["explore.points_failed"] = static_cast<double>(failed);
        r.layer["explore.early_stop_saved_frac"] =
            1.0 - static_cast<double>(measured) /
                      static_cast<double>(scheduled);
    }

    Sweep_spec spec_;
    std::vector<double> mean_hops_;
    /// Written by the runner's point-done hook from either worker.
    std::atomic<double> last_done_s_{0.0};
    std::uint64_t hops_ = 0; ///< route hops of both designs, traced set-ups
    double capture_us_ = 0.0;
    /// Declared last: its workers call back into the members above.
    Sweep_runner runner_{kWorkers};
};

} // namespace

std::string Op_fingerprint::str() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "delivered=%llu routed=%llu lat_sum=%llu net_lat_sum=%llu "
                  "completion=%llu result=%016llx",
                  static_cast<unsigned long long>(packets_delivered),
                  static_cast<unsigned long long>(flits_routed),
                  static_cast<unsigned long long>(latency_sum),
                  static_cast<unsigned long long>(network_latency_sum),
                  static_cast<unsigned long long>(completion_cycles),
                  static_cast<unsigned long long>(result_hash));
    return buf;
}

const std::vector<std::string>& workload_names()
{
    static const std::vector<std::string> names = {
        "mesh32_sat_sharded2", "mesh8_collectives_lowload",
        "sweep8_faults_w2"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed)
{
    if (name == "mesh32_sat_sharded2")
        return std::make_unique<Mesh_saturated>(seed);
    if (name == "mesh8_collectives_lowload")
        return std::make_unique<Mesh_collectives>(seed);
    if (name == "sweep8_faults_w2") return std::make_unique<Sweep_faults>(seed);
    throw std::invalid_argument{"unknown workload: " + name};
}

} // namespace perfbench
