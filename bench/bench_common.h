// Shared helpers for the figure/table reproduction harnesses.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation (§5) and prints it as text. `HOMA_BENCH_SCALE=full` switches
// from the quick preset (minutes for the whole suite) to paper-scale
// message counts.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/sweep.h"
#include "stats/report.h"

namespace homa::bench {

inline bool fullScale() {
    const char* env = std::getenv("HOMA_BENCH_SCALE");
    return env != nullptr && std::strcmp(env, "full") == 0;
}

/// Scenario override for the figure benches: HOMA_SCENARIO takes any
/// scenarioFromSpec spec — a pattern with its keys plus modifiers, e.g.
/// "incast:hotspots=4+on-off:on_us=50" or "trace:path=FILE"; keys left
/// out keep their ScenarioConfig defaults.
inline ScenarioConfig scenarioFromEnv() {
    ScenarioConfig s;
    std::string err;
    const char* env = std::getenv("HOMA_SCENARIO");
    if (env != nullptr && !scenarioFromSpec(env, s, &err)) {
        std::fprintf(stderr, "HOMA_SCENARIO '%s': %s\n", env, err.c_str());
        std::exit(2);
    }
    if (s.serving.enabled()) {
        std::fprintf(stderr,
                     "HOMA_SCENARIO with tenants: serving scenarios run "
                     "the RPC harness, not the message-level benches; use "
                     "example_run_experiment --tenants / bench_serving "
                     "instead\n");
        std::exit(2);
    }
    if (s.kind == TrafficPatternKind::ClosedLoop ||
        s.kind == TrafficPatternKind::Dag ||
        s.kind == TrafficPatternKind::TraceReplay) {
        // These modes set their own rate, so a bench's load axis
        // collapses: points differing only in load run identical
        // experiments.
        std::fprintf(stderr,
                     "note: %s ignores per-point load; rows labelled with "
                     "different loads will coincide\n", patternName(s.kind));
    }
    return s;
}

/// Sweep thread count for the figure benches: HOMA_SWEEP_THREADS, default
/// all cores (SweepRunner's results are identical either way).
inline SweepOptions sweepOptionsFromEnv() {
    SweepOptions opts;
    const char* env = std::getenv("HOMA_SWEEP_THREADS");
    if (env != nullptr) {
        char* end = nullptr;
        const long n = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || n < 1 || n > 4096) {
            std::fprintf(stderr,
                         "HOMA_SWEEP_THREADS: expected a thread count, "
                         "got '%s'\n", env);
            std::exit(2);
        }
        opts.threads = static_cast<int>(n);
    }
    return opts;
}

inline void printSweepFooter(const SweepOutcome& sweep) {
    std::printf("sweep: %zu points on %d threads in %.1f s\n\n",
                sweep.results.size(), sweep.threadsUsed, sweep.wallSeconds);
}

/// Traffic generation window for one-way simulation experiments.
inline Duration simWindow() {
    return fullScale() ? milliseconds(150) : milliseconds(8);
}

/// Window for RPC (implementation-style) experiments. Heavy-tailed
/// workloads need longer windows to issue a statistically useful number of
/// RPCs (W5's mean RPC moves ~2.4 MB, so arrivals are ~millisecond-scale).
inline Duration rpcWindow(WorkloadId wl) {
    Duration base;
    switch (wl) {
        case WorkloadId::W4: base = milliseconds(80); break;
        case WorkloadId::W5: base = milliseconds(400); break;
        default: base = milliseconds(25); break;
    }
    return fullScale() ? 8 * base : base;
}

inline void printHeader(const std::string& what, const std::string& paperRef) {
    std::printf("%s", banner(what).c_str());
    std::printf("Reproduces: %s\n", paperRef.c_str());
    std::printf("Scale: %s (set HOMA_BENCH_SCALE=full for paper-scale runs)\n",
                fullScale() ? "full" : "quick");
    const char* scenario = std::getenv("HOMA_SCENARIO");
    if (scenario != nullptr) std::printf("Scenario: %s\n", scenario);
    std::printf("\n");
}

/// Print per-decile slowdown rows for several labelled trackers side by
/// side (the paper's Figures 8/9/12/13 as a table: one column per curve).
inline void printSlowdownTable(
    const SizeDistribution& dist,
    const std::vector<std::pair<std::string, const SlowdownTracker*>>& curves,
    bool tail /* true: p99, false: median */) {
    std::vector<std::string> header{"size<="};
    for (const auto& [name, tracker] : curves) header.push_back(name);
    Table table(header);
    const auto& deciles = dist.deciles();
    std::vector<std::vector<SlowdownRow>> rows;
    rows.reserve(curves.size());
    for (const auto& [name, tracker] : curves) rows.push_back(tracker->rows());
    for (int i = 0; i < 10; i++) {
        std::vector<std::string> row{Table::bytes(deciles[i])};
        for (const auto& r : rows) {
            row.push_back(Table::num(tail ? r[i].p99 : r[i].median));
        }
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.format().c_str());
}

}  // namespace homa::bench
