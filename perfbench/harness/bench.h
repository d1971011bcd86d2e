// Shared vocabulary of the benchmark harness: the workload interface, the
// per-op output fingerprint and the metric tables.
//
// A run is a sequence of PASSES. A pass is a fixed amount of work on a
// freshly set-up system — the same inputs every pass, derived from the
// workload seed — run by one closed-loop client: each op starts when the
// previous one has finished. Passes repeat until the run's time budget is
// spent, so every timing metric is a median over passes or ops, and every
// simulated metric is a property of the pass, identical on every pass and
// every run with the same seed.
#pragma once

#include "trace.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Exact-integer simulated results an op leaves behind, compared against
/// the same op on another kernel schedule (the engine's bit-identity
/// invariant). Cumulative counters are read at the op's end.
struct Op_fingerprint {
    std::uint64_t packets_delivered = 0;
    std::uint64_t flits_routed = 0;
    std::uint64_t latency_sum = 0;         ///< packet latency, cycles
    std::uint64_t network_latency_sum = 0; ///< network latency, cycles
    std::uint64_t completion_cycles = 0;   ///< collective ops
    std::uint64_t result_hash = 0;         ///< sweep ops: serialized point
    /// False when the op threw, failed to drain or failed to complete; such
    /// an op is not ok even if the reference failed the same way.
    bool completed = true;

    bool operator==(const Op_fingerprint&) const = default;
    [[nodiscard]] std::string str() const;
};

/// What one pass measured. Layer values are filled on traced passes only.
struct Pass_result {
    std::vector<double> op_ms;
    std::vector<Op_fingerprint> fingerprints;
    /// Simulated work the timed phase did.
    std::uint64_t flit_hops = 0;
    std::uint64_t sim_cycles = 0;
    double sim_latency_cycles = 0.0;
    double sim_accepted_flits_per_node_cycle = 0.0;
    /// Whole-pass check beyond the per-op fingerprints (sweep: the
    /// serialized result); compared like a fingerprint.
    std::string pass_digest;
    std::map<std::string, double> layer;
};

class Workload {
public:
    virtual ~Workload() = default;
    /// A printable digest of the inputs generated from the seed (source
    /// seeds, roots, fault plan) — what the engine receives.
    [[nodiscard]] virtual std::string inputs_digest() const = 0;
    /// Build the pass's system(s): everything before the first simulated
    /// cycle. Timed by the caller as one set-up sample.
    virtual void setup(Tracer& tracer) = 0;
    /// One pass on what setup() built; releases it afterwards.
    virtual Pass_result run_pass(Tracer& tracer) = 0;
    /// The same pass on the reference schedule (untimed), for the check.
    virtual Pass_result run_reference() = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);
[[nodiscard]] const std::vector<std::string>& workload_names();

struct Metric_def {
    const char* name;
    const char* unit;
};
/// End-to-end metrics, printed by untraced runs (the same on every
/// workload).
[[nodiscard]] const std::vector<Metric_def>& end_to_end_metrics();
/// Per-layer metrics, printed by traced runs. A layer a workload does not
/// exercise reads 0 there.
[[nodiscard]] const std::vector<Metric_def>& per_layer_metrics();

/// Linear-interpolated percentile (q in [0, 1]) of `v` (copied, sorted).
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

} // namespace perfbench
