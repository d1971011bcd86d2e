// Span recorder for the traced run.
//
// The benchmark times each layer from outside, around its own calls into
// the engine's public API. A span has a name ("<module>.<what>"), start and
// end on the steady clock, the span that was open when it began (its
// parent) and the id of the op it belongs to. Spans stay in memory and are
// written out once the run ends; a disabled recorder records nothing and
// costs one branch per scope.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

class Tracer {
public:
    static constexpr std::int32_t no_parent = -1;
    static constexpr std::uint64_t no_op = ~std::uint64_t{0};

    struct Span {
        const char* name = "";
        double start = 0.0;
        double end = 0.0;
        std::int32_t parent = no_parent;
        std::uint64_t op = no_op;
    };

    /// RAII scope: opens a span on construction, closes it on destruction.
    class Scope {
    public:
        Scope(Tracer& t, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        std::int32_t index_;
    };

    void set_enabled(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }
    /// Op id stamped on spans opened from now on (no_op between ops).
    void set_op(std::uint64_t op) { op_ = op; }

    /// Record an interval measured elsewhere (e.g. by a completion hook)
    /// as a child of the innermost open span.
    void add(const char* name, double start, double end);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    /// Durations (ms) of every span named `name`, in recording order.
    [[nodiscard]] std::vector<double> durations_ms(const std::string& name,
                                                   std::size_t from = 0) const;
    /// Self time per module (the span name up to its first '.'), in ms:
    /// each span's duration minus the part its child spans cover.
    [[nodiscard]] std::map<std::string, double> self_ms_by_module() const;
    /// Spans as a JSON array.
    [[nodiscard]] std::string to_json() const;

private:
    bool enabled_ = false;
    std::uint64_t op_ = no_op;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_; ///< stack of open span indices
};

} // namespace perfbench
