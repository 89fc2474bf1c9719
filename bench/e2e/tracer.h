/**
 * @file
 * In-memory span recorder for the end-to-end benchmark's traced run.
 *
 * Every span wraps one call the driver makes into a public library
 * function (a search, a fleet window, a ground-truth replay, a store
 * operation...), so the per-layer split is measured from outside the
 * library: nothing under src/ is instrumented. Spans are kept in memory
 * and written once, at exit, as a Chrome trace (chrome://tracing or
 * ui.perfetto.dev).
 *
 * Single-threaded by design: only the driver thread opens and closes
 * spans. The one span source that sits inside a library call — the
 * node-search PerformanceModel decorator — is reached from the driver
 * thread too, because SimulatedServer measures its jobs serially on the
 * caller's thread.
 */

#ifndef CLITE_BENCH_E2E_TRACER_H
#define CLITE_BENCH_E2E_TRACER_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/** One closed (or still open) interval. */
struct Span
{
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    uint32_t id = 0;     ///< 1-based; 0 means "no span".
    uint32_t parent = 0; ///< Enclosing span's id, 0 at top level.

    double durationUs() const { return end_us - start_us; }
};

class Tracer
{
  public:
    Tracer();

    /** Open a span nested in the innermost open one. @return Its id. */
    uint32_t begin(const char* name);

    /** Close span @p id (must be the innermost open span). */
    void end(uint32_t id);

    const std::vector<Span>& spans() const { return spans_; }

    /** Total duration of spans named @p name, in milliseconds. */
    double totalMs(const std::string& name) const;

    /** Number of spans named @p name. */
    size_t count(const std::string& name) const;

    /**
     * Total duration of spans named @p child whose parent is a span
     * named @p parent, in milliseconds.
     */
    double childTotalMs(const std::string& parent,
                        const std::string& child) const;

    /** Number of spans named @p child under a span named @p parent. */
    size_t childCount(const std::string& parent,
                      const std::string& child) const;

    /** Write the spans as Chrome trace JSON. @return False on I/O error. */
    bool writeChrome(const std::string& path) const;

  private:
    double nowUs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<uint32_t> open_;
};

/** RAII span; a no-op when the tracer is null (the untraced run). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer* tracer, const char* name)
        : tracer_(tracer), id_(tracer ? tracer->begin(name) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer* tracer_;
    uint32_t id_;
};

} // namespace e2e

#endif // CLITE_BENCH_E2E_TRACER_H
