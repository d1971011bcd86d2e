#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

double now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Scope::Scope(Tracer& t, const char* name) : tracer_(&t), index_(-1)
{
    if (!t.enabled_) return;
    index_ = static_cast<std::int32_t>(t.spans_.size());
    const std::int32_t parent = t.open_.empty() ? no_parent : t.open_.back();
    t.spans_.push_back(Span{name, now_s(), 0.0, parent, t.op_});
    t.open_.push_back(index_);
}

Tracer::Scope::~Scope()
{
    if (index_ < 0) return;
    tracer_->spans_[static_cast<std::size_t>(index_)].end = now_s();
    tracer_->open_.pop_back();
}

void Tracer::add(const char* name, double start, double end)
{
    if (!enabled_) return;
    const std::int32_t parent = open_.empty() ? no_parent : open_.back();
    spans_.push_back(Span{name, start, end, parent, op_});
}

std::vector<double> Tracer::durations_ms(const std::string& name,
                                         std::size_t from) const
{
    std::vector<double> out;
    for (std::size_t i = from; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            out.push_back((spans_[i].end - spans_[i].start) * 1e3);
    return out;
}

std::map<std::string, double> Tracer::self_ms_by_module() const
{
    // Children of one span never overlap (the benchmark is one closed-loop
    // client), so the covered part is the sum of their durations.
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent != no_parent)
            child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string name = spans_[i].name;
        const std::string module = name.substr(0, name.find('.'));
        out[module] +=
            (spans_[i].end - spans_[i].start - child_s[i]) * 1e3;
    }
    return out;
}

std::string Tracer::to_json() const
{
    std::string out = "[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                      "\"end_s\": %.9f, \"parent\": %d, \"op\": %lld}",
                      i == 0 ? "" : ",", i, s.name, s.start, s.end, s.parent,
                      s.op == no_op ? -1LL : static_cast<long long>(s.op));
        out += buf;
    }
    out += "\n]\n";
    return out;
}

} // namespace perfbench
