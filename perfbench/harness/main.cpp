// noc_perfbench — the repository benchmark harness.
//
//   noc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <file>] [--tamper-reference]
//   noc_perfbench --list-metrics | --inputs-only --workload <w> --seed <n>
//
// Runs fixed-work passes of one workload until --seconds of timed work are
// spent, re-runs one pass on the reference schedule and checks every op
// against it, prints a table and, as its last line, one JSON record.
// perfbench/run.py builds this binary and turns that record into the
// benchmark's result line. With --trace 1, odd passes record spans and
// counters and even passes run bare, so the record also carries the
// tracing overhead (traced minus untraced pass wall time).
#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#ifndef NOC_PERFBENCH_COMPILER
#define NOC_PERFBENCH_COMPILER "unknown"
#endif
#ifndef NOC_PERFBENCH_CXX_FLAGS
#define NOC_PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tamper_reference = false;
    bool list_metrics = false;
    bool inputs_only = false;
    std::string spans_path;
};

[[noreturn]] void usage(const char* why)
{
    std::fprintf(stderr,
                 "noc_perfbench: %s\nusage: noc_perfbench --workload <w> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <file>] "
                 "[--tamper-reference] | --list-metrics | --inputs-only "
                 "--workload <w> --seed <n>\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload") o.workload = value();
            else if (a == "--seed") o.seed = std::stoull(value());
            else if (a == "--seconds") o.seconds = std::stod(value());
            else if (a == "--trace") o.trace = std::stoi(value()) != 0;
            else if (a == "--spans") o.spans_path = value();
            else if (a == "--tamper-reference") o.tamper_reference = true;
            else if (a == "--list-metrics") o.list_metrics = true;
            else if (a == "--inputs-only") o.inputs_only = true;
            else usage(("unknown argument " + a).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (!o.list_metrics && o.workload.empty()) usage("--workload is required");
    if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    return o;
}

std::string json_str(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
            continue;
        }
        out += c;
    }
    return out + "\"";
}

std::string json_num(double v)
{
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void list_metrics()
{
    auto list = [](const std::vector<Metric_def>& defs) {
        std::string s = "[";
        for (std::size_t i = 0; i < defs.size(); ++i)
            s += std::string(i ? ", " : "") + "[" + json_str(defs[i].name) +
                 ", " + json_str(defs[i].unit) + "]";
        return s + "]";
    };
    std::string w = "[";
    for (std::size_t i = 0; i < workload_names().size(); ++i)
        w += std::string(i ? ", " : "") + json_str(workload_names()[i]);
    std::printf("{\"end_to_end\": %s, \"per_layer\": %s, \"workloads\": %s}\n",
                list(end_to_end_metrics()).c_str(),
                list(per_layer_metrics()).c_str(), (w + "]").c_str());
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: it keeps the high water of the process before exec, i.e.
/// of whatever launched the benchmark.
double peak_rss_mib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

struct Pass {
    bool traced = false;
    double setup_s = 0.0;
    double wall_s = 0.0;
    Pass_result result;
};

int run(const Options& o)
{
    auto workload = make_workload(o.workload, o.seed);
    if (o.inputs_only) {
        std::printf("%s\n", workload->inputs_digest().c_str());
        return 0;
    }

    // --- timed passes --------------------------------------------------------
    // Untraced runs need 3 passes for a median; traced runs alternate bare
    // and traced passes and need 2 of each.
    const std::size_t min_passes = o.trace ? 4 : 3;
    Tracer tracer;
    std::vector<Pass> passes;
    std::vector<std::string> failures;
    double timed_s = 0.0;
    while (passes.size() < min_passes || timed_s < o.seconds) {
        Pass p;
        p.traced = o.trace && passes.size() % 2 == 1;
        tracer.set_enabled(p.traced);
        try {
            double t0 = now_s();
            {
                Tracer::Scope s(tracer, "bench.setup");
                workload->setup(tracer);
            }
            p.setup_s = now_s() - t0;
            t0 = now_s();
            {
                Tracer::Scope s(tracer, "bench.pass");
                p.result = workload->run_pass(tracer);
            }
            p.wall_s = now_s() - t0;
        } catch (const std::exception& e) {
            failures.push_back(std::string("pass threw: ") + e.what());
            break;
        }
        timed_s += p.wall_s;
        passes.push_back(std::move(p));
    }
    tracer.set_enabled(false);
    const double rss_mib = peak_rss_mib();

    // --- output check against the reference schedule -------------------------
    Pass_result ref;
    if (failures.empty()) {
        try {
            ref = workload->run_reference();
        } catch (const std::exception& e) {
            failures.push_back(std::string("reference threw: ") + e.what());
        }
    }
    if (o.tamper_reference && !ref.fingerprints.empty())
        ref.fingerprints.front().packets_delivered += 1;
    std::uint64_t attempted = failures.empty() ? 0 : 1;
    std::uint64_t failed = attempted;
    for (std::size_t pi = 0; pi < passes.size(); ++pi) {
        const Pass_result& r = passes[pi].result;
        const bool pass_ok =
            r.pass_digest == ref.pass_digest &&
            r.fingerprints.size() == ref.fingerprints.size() &&
            r.sim_latency_cycles == ref.sim_latency_cycles &&
            r.sim_accepted_flits_per_node_cycle ==
                ref.sim_accepted_flits_per_node_cycle;
        if (!pass_ok && failures.size() < 8)
            failures.push_back("pass " + std::to_string(pi) +
                               ": pass result differs from the reference");
        for (std::size_t i = 0; i < r.fingerprints.size(); ++i) {
            ++attempted;
            const bool ok = pass_ok && r.fingerprints[i].completed &&
                            r.fingerprints[i] == ref.fingerprints[i];
            if (ok) continue;
            ++failed;
            if (failures.size() < 8 && i < ref.fingerprints.size())
                failures.push_back("pass " + std::to_string(pi) + " op " +
                                   std::to_string(i) + ": " +
                                   r.fingerprints[i].str() + " vs reference " +
                                   ref.fingerprints[i].str());
        }
    }
    if (attempted == 0) attempted = 1, failed = 1;

    // --- end-to-end metrics (untraced passes) --------------------------------
    std::vector<double> setup, wall, hops_rate, cycles_rate, ops_rate, op_ms,
        traced_wall;
    for (const Pass& p : passes) {
        if (p.traced) {
            traced_wall.push_back(p.wall_s);
            continue;
        }
        double ops_s = 0.0;
        for (double ms : p.result.op_ms) ops_s += ms / 1e3;
        setup.push_back(p.setup_s);
        wall.push_back(p.wall_s);
        hops_rate.push_back(static_cast<double>(p.result.flit_hops) / p.wall_s);
        cycles_rate.push_back(static_cast<double>(p.result.sim_cycles) /
                              p.wall_s);
        ops_rate.push_back(static_cast<double>(p.result.op_ms.size()) / ops_s);
        op_ms.insert(op_ms.end(), p.result.op_ms.begin(), p.result.op_ms.end());
    }
    // The highest percentile up to p90 with at least ten samples beyond it.
    const double n_ops = static_cast<double>(op_ms.size());
    const double tail_q =
        n_ops > 0 ? std::max(0.5, std::min(0.9, 1.0 - 10.0 / n_ops)) : 0.9;
    std::map<std::string, double> e2e;
    e2e["setup_s"] = median(setup);
    e2e["wall_s"] = median(wall);
    e2e["flit_hops_per_s"] = median(hops_rate);
    e2e["sim_cycles_per_s"] = median(cycles_rate);
    e2e["ops_per_s"] = median(ops_rate);
    e2e["op_ms_p50"] = percentile(op_ms, 0.5);
    e2e["op_ms_p90"] = percentile(op_ms, tail_q);
    e2e["peak_rss_mib"] = rss_mib;
    e2e["ok_ops_frac"] =
        static_cast<double>(attempted - failed) / static_cast<double>(attempted);
    const Pass_result* first = passes.empty() ? nullptr : &passes[0].result;
    e2e["sim_latency_cycles"] = first ? first->sim_latency_cycles : 0.0;
    e2e["sim_accepted_flits_per_node_cycle"] =
        first ? first->sim_accepted_flits_per_node_cycle : 0.0;

    // --- per-layer metrics (traced passes) -----------------------------------
    std::map<std::string, double> layer;
    for (const Metric_def& m : per_layer_metrics()) {
        std::vector<double> v;
        for (const Pass& p : passes) {
            if (!p.traced) continue;
            const auto it = p.result.layer.find(m.name);
            v.push_back(it == p.result.layer.end() ? 0.0 : it->second);
        }
        layer[m.name] = median(v);
    }
    const double overhead_s =
        o.trace ? median(traced_wall) - median(wall) : 0.0;

    // --- report --------------------------------------------------------------
    std::printf("workload %s  seed %llu  passes %zu (%zu traced)  ops %zu  "
                "timed %.2f s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                passes.size(), traced_wall.size(), op_ms.size(), timed_s);
    const std::size_t samples_per_pass =
        first ? first->op_ms.size() : std::size_t{0};
    if (!o.trace) {
        std::printf("%-36s %16s  %-15s %s\n", "end-to-end metric", "value",
                    "unit", "samples");
        for (const Metric_def& m : end_to_end_metrics()) {
            std::string samples;
            const std::string name = m.name;
            if (name == "setup_s") samples = std::to_string(setup.size()) + " set-ups";
            else if (name.rfind("op_ms", 0) == 0) samples = std::to_string(op_ms.size()) + " ops";
            else if (name == "ok_ops_frac") samples = std::to_string(attempted) + " ops";
            else if (name.rfind("sim_", 0) == 0 && name != "sim_cycles_per_s")
                samples = "exact per seed";
            else if (name == "peak_rss_mib") samples = "process peak";
            else samples = std::to_string(wall.size()) + " passes";
            if (name == "op_ms_p90") {
                char q[64];
                std::snprintf(q, sizeof q, " (p%.1f, %.0f beyond)",
                              tail_q * 100.0, std::floor(n_ops * (1.0 - tail_q)));
                samples += q;
            }
            std::printf("%-36s %16.6g  %-15s %s\n", m.name, e2e[m.name], m.unit,
                        samples.c_str());
        }
    } else {
        std::printf("%-36s %16s  %s\n", "per-layer metric", "value", "unit");
        for (const Metric_def& m : per_layer_metrics())
            std::printf("%-36s %16.6g  %s\n", m.name, layer[m.name], m.unit);
        std::printf("self time per module, ms per traced pass:\n");
        for (const auto& [module, ms] : tracer.self_ms_by_module())
            std::printf("  %-12s %12.3f\n", module.c_str(),
                        ms / static_cast<double>(traced_wall.size()));
        std::printf("tracing overhead: %.6f s per pass (traced wall %.6f s, "
                    "untraced wall %.6f s)\n",
                    overhead_s, median(traced_wall), median(wall));
    }
    for (const std::string& f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    if (!o.spans_path.empty() && o.trace) {
        std::ofstream out(o.spans_path);
        out << tracer.to_json();
    }

    const auto& defs = o.trace ? per_layer_metrics() : end_to_end_metrics();
    auto& values = o.trace ? layer : e2e;
    std::string metrics = "{";
    for (std::size_t i = 0; i < defs.size(); ++i)
        metrics += std::string(i ? ", " : "") + json_str(defs[i].name) +
                   ": {\"value\": " + json_num(values[defs[i].name]) +
                   ", \"unit\": " + json_str(defs[i].unit) + "}";
    metrics += "}";
    std::string self = "{";
    for (const auto& [module, ms] : tracer.self_ms_by_module())
        self += std::string(self.size() > 1 ? ", " : "") + json_str(module) +
                ": " + json_num(ms);
    self += "}";
    std::string fails = "[";
    for (std::size_t i = 0; i < failures.size(); ++i)
        fails += std::string(i ? ", " : "") + json_str(failures[i]);
    fails += "]";
    std::string ops_list = "[";
    for (std::size_t i = 0; i < op_ms.size(); ++i)
        ops_list += std::string(i ? ", " : "") + json_num(op_ms[i]);
    ops_list += "]";
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
        "\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, "
        "\"samples\": {\"passes\": %zu, \"traced_passes\": %zu, "
        "\"ops\": %zu, \"ops_per_pass\": %zu, \"setups\": %zu, "
        "\"op_ms_tail_quantile\": %s}, \"tracing_overhead_s\": %s, "
        "\"layer_self_ms\": %s, \"inputs\": %s, \"failures\": %s, "
        "\"op_ms\": %s, "
        "\"build\": {\"compiler\": %s, \"cxx_flags\": %s}}\n",
        json_str(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
        o.trace ? 1 : 0, failed == 0 ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), metrics.c_str(),
        passes.size(), traced_wall.size(), op_ms.size(), samples_per_pass,
        setup.size(), json_num(tail_q).c_str(), json_num(overhead_s).c_str(),
        self.c_str(), json_str(workload->inputs_digest()).c_str(),
        fails.c_str(), ops_list.c_str(), json_str(NOC_PERFBENCH_COMPILER).c_str(),
        json_str(NOC_PERFBENCH_CXX_FLAGS).c_str());
    return failed == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv)
{
    const perfbench::Options o = perfbench::parse(argc, argv);
    if (o.list_metrics) {
        perfbench::list_metrics();
        return 0;
    }
    try {
        return perfbench::run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "noc_perfbench: %s\n", e.what());
        return 2;
    }
}
