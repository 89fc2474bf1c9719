#include "tracer.h"

#include <cstdio>
#include <stdexcept>

namespace e2e {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

uint32_t
Tracer::begin(const char* name)
{
    Span s;
    s.name = name;
    s.id = uint32_t(spans_.size()) + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.start_us = nowUs();
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
}

void
Tracer::end(uint32_t id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("tracer: spans closed out of order");
    open_.pop_back();
    spans_[id - 1].end_us = nowUs();
}

double
Tracer::totalMs(const std::string& name) const
{
    double us = 0.0;
    for (const Span& s : spans_)
        if (name == s.name)
            us += s.durationUs();
    return us / 1000.0;
}

size_t
Tracer::count(const std::string& name) const
{
    size_t n = 0;
    for (const Span& s : spans_)
        if (name == s.name)
            ++n;
    return n;
}

double
Tracer::childTotalMs(const std::string& parent,
                     const std::string& child) const
{
    double us = 0.0;
    for (const Span& s : spans_)
        if (s.parent != 0 && child == s.name &&
            parent == spans_[s.parent - 1].name)
            us += s.durationUs();
    return us / 1000.0;
}

size_t
Tracer::childCount(const std::string& parent, const std::string& child) const
{
    size_t n = 0;
    for (const Span& s : spans_)
        if (s.parent != 0 && child == s.name &&
            parent == spans_[s.parent - 1].name)
            ++n;
    return n;
}

bool
Tracer::writeChrome(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%u,\"parent\":%u}}%s\n",
                     s.name, s.start_us, s.durationUs(), s.id, s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace e2e
