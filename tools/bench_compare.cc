// CI perf-regression gate over the BENCH_*.json artifacts.
//
//   bench_compare [--tolerance F] <baseline.json> <current.json> [more pairs...]
//   bench_compare --fidelity [--tolerance F] <artifact.json> [more...]
//
// Compares each current benchmark artifact against its checked-in
// baseline (bench/baselines/) and exits non-zero when a hot-path metric
// regressed by more than the tolerance (default 0.15 = 15%; override with
// --tolerance or the HOMA_BENCH_TOLERANCE env var — CI uses a looser
// value when baseline and current come from different machines).
//
// When a speedup gate cannot run because the current machine is
// core-starved, the skip is *written back* into the current artifact
// ("speedup_gate_skipped": true plus a reason) so downstream consumers
// (artifact uploads, bench_trajectory) see an explicit skip instead of a
// silently ungated number.
//
// The formats are recognized by content:
//  * Google-benchmark JSON (bench_micro_sched -> BENCH_sched.json):
//    per-benchmark cpu_time must not grow past baseline * (1 + tol), the
//    fitted BigO cpu_coefficient likewise, and the complexity-class
//    string must not change. Note: the micro benches *pin* their class
//    via ->Complexity(oLogN), so big_o is declared metadata — a real
//    complexity regression is caught by the large-N cpu_time entries and
//    the fitted coefficient exploding, while the string equality only
//    guards deliberate re-pinning. Baseline benchmarks that disappeared
//    fail; new ones are ignored.
//  * sweep_speedup JSON (BENCH_sweep.json): the 1-vs-N determinism flag
//    must be true (a hard failure at any tolerance), and the parallel
//    speedup must not drop below baseline * (1 - tol). The speedup gate
//    is skipped when the current artifact reports < 2 hardware cores —
//    a time-sliced runner measures the scheduler, not the sweep.
//  * parallel_speedup JSON (BENCH_parallel.json, the in-simulation
//    parallel engine): the serial-vs-parallel identity flag hard-fails
//    at any tolerance; the speedup gate runs only on machines reporting
//    >= 4 hardware cores (the bench's curve uses 4 workers).
//  * fluid_speedup JSON (BENCH_fluid.json, the flow-level fast path):
//    the all-packet identity flag hard-fails at any tolerance, the
//    hybrid speedup must clear a 10x floor (both runs are serial on the
//    same machine, so the ratio is immune to core starvation) and must
//    not drop below baseline * (1 - tol).
//  * serving JSON (BENCH_serving.json, the multi-tenant RPC serving
//    harness): the hedge-conservation / serial-vs-parallel / sweep
//    identity flags hard-fail at any tolerance, power-of-two-choices
//    p99 slowdown must stay *strictly below* random selection, and the
//    p2c tail must not drift past baseline * (1 + tol). All numbers are
//    deterministic simulation outputs, so no core-count escape applies.
//
// In both pairing modes an artifact whose schema the gate does not
// recognize is a FAILURE with an "unrecognized schema" message, never a
// silent skip — a new BENCH_*.json cannot drop out of CI unnoticed.
//
// --fidelity mode takes bare artifacts (no baseline pairing), dispatches
// on the "bench" field (fluid_speedup -> fidelity bands, serving -> its
// self-contained hard gates), and gates
// each fluid_speedup artifact's "fidelity" entries self-contained: the
// hybrid run's overall slowdown p50 must stay within --tolerance
// (default 0.25 in this mode) of the packet run's, and the hybrid p99
// within a fixed 2.5x band either way — the fluid model's max-min
// sharing legitimately reshapes the tail that Homa's SRPT compresses,
// and the band is where the FluidFidelity unit suite pins it. Both runs
// are simulations, so the numbers are machine-independent and the bands
// need no cross-machine slack.
//
// Standard library only — this tool must build with a bare g++ in CI.
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "bench_json.h"

namespace {

using benchjson::Json;
using benchjson::loadJson;

// ------------------------------------------------------------ comparing

int failures = 0;

void fail(const char* fmt, ...) {
    std::va_list args;
    va_start(args, fmt);
    std::fputs("FAIL: ", stderr);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
    va_end(args);
    failures++;
}

/// Satellite of the speedup gates: when one is skipped (core-starved
/// runner), record the skip *inside the compared artifact* so whoever
/// consumes it downstream (CI artifact uploads, bench_trajectory) sees
/// "this number was never gated" instead of a silent pass. Inserts
/// "speedup_gate_skipped": true and the reason before the closing brace;
/// idempotent, and best-effort — a read-only artifact only loses the
/// annotation, not the gate's exit code.
void annotateSkip(const std::string& curPath, const std::string& reason) {
    std::ifstream in(curPath);
    if (!in) return;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    if (text.find("\"speedup_gate_skipped\"") != std::string::npos) return;
    const size_t brace = text.rfind('}');
    if (brace == std::string::npos) return;
    // Comma unless the object is empty.
    size_t last = brace;
    while (last > 0 && std::isspace(static_cast<unsigned char>(
                           text[last - 1])) != 0) {
        last--;
    }
    const bool needComma = last > 0 && text[last - 1] != '{';
    std::string note = needComma ? ",\n" : "\n";
    note += "  \"speedup_gate_skipped\": true,\n";
    note += "  \"speedup_gate_skip_reason\": \"" + reason + "\"\n";
    text = text.substr(0, last) + note + text.substr(brace);
    std::ofstream out(curPath, std::ios::trunc);
    if (!out) return;
    out << text;
}

/// Index google-benchmark entries by name, split by run_type.
std::map<std::string, const Json*> benchmarksByName(const Json& doc,
                                                    const char* runType) {
    std::map<std::string, const Json*> out;
    const Json* list = doc.get("benchmarks");
    if (list == nullptr || list->kind != Json::Array) return out;
    for (const Json& b : list->items) {
        if (b.str("run_type") == runType) out.emplace(b.str("name"), &b);
    }
    return out;
}

void compareGoogleBenchmark(const std::string& basePath, const Json& base,
                            const std::string& curPath, const Json& cur,
                            double tolerance) {
    const auto baseIters = benchmarksByName(base, "iteration");
    const auto curIters = benchmarksByName(cur, "iteration");
    for (const auto& [name, b] : baseIters) {
        const auto it = curIters.find(name);
        if (it == curIters.end()) {
            fail("%s: benchmark '%s' present in baseline %s but missing",
                 curPath.c_str(), name.c_str(), basePath.c_str());
            continue;
        }
        const double baseTime = b->num("cpu_time");
        const double curTime = it->second->num("cpu_time");
        if (baseTime <= 0) continue;
        const double ratio = curTime / baseTime;
        if (ratio > 1.0 + tolerance) {
            fail("%s: '%s' cpu_time %.1f ns vs baseline %.1f ns "
                 "(%.0f%% slower, tolerance %.0f%%)",
                 curPath.c_str(), name.c_str(), curTime, baseTime,
                 100.0 * (ratio - 1.0), 100.0 * tolerance);
        } else {
            std::printf("ok: %-40s %10.1f ns vs %10.1f ns (%+.1f%%)\n",
                        name.c_str(), curTime, baseTime,
                        100.0 * (ratio - 1.0));
        }
    }
    // BigO aggregates. The class string is pinned by the bench source, so
    // its equality only guards deliberate re-pinning; the *fitted*
    // coefficient is a measurement — a complexity regression inflates it
    // (the fit is dominated by the largest N) far beyond any tolerance.
    const auto baseAggr = benchmarksByName(base, "aggregate");
    const auto curAggr = benchmarksByName(cur, "aggregate");
    for (const auto& [name, b] : baseAggr) {
        if (b->str("aggregate_name") != "BigO") continue;
        const auto it = curAggr.find(name);
        if (it == curAggr.end()) {
            fail("%s: BigO aggregate '%s' missing vs baseline",
                 curPath.c_str(), name.c_str());
            continue;
        }
        const std::string baseO = b->str("big_o");
        const std::string curO = it->second->str("big_o");
        if (baseO != curO) {
            fail("%s: '%s' complexity class changed: %s -> %s "
                 "(update bench/baselines/ if intentional)",
                 curPath.c_str(), name.c_str(), baseO.c_str(), curO.c_str());
            continue;
        }
        const double baseCoef = b->num("cpu_coefficient");
        const double curCoef = it->second->num("cpu_coefficient");
        if (baseCoef > 0 && curCoef / baseCoef > 1.0 + tolerance) {
            fail("%s: '%s' fitted %s coefficient %.1f vs baseline %.1f "
                 "(%.0f%% worse, tolerance %.0f%%)",
                 curPath.c_str(), name.c_str(), curO.c_str(), curCoef,
                 baseCoef, 100.0 * (curCoef / baseCoef - 1.0),
                 100.0 * tolerance);
        } else {
            std::printf("ok: %-40s complexity %s, coefficient %.1f\n",
                        name.c_str(), curO.c_str(), curCoef);
        }
    }
}

void compareSweep(const std::string& basePath, const Json& base,
                  const std::string& curPath, const Json& cur,
                  double tolerance) {
    const Json* identical = cur.get("results_identical_across_thread_counts");
    if (identical == nullptr || identical->kind != Json::Bool ||
        !identical->boolean) {
        fail("%s: results_identical_across_thread_counts is not true — the "
             "parallel sweep runner broke determinism", curPath.c_str());
    } else {
        std::printf("ok: sweep results identical across thread counts\n");
    }
    // A single-core runner cannot show parallel speedup — the two passes
    // time-slice one CPU and the "parallel" run merely adds scheduling
    // overhead (historically measured ~0.8x). The artifact records the
    // core count precisely so this gate can tell a starved machine from a
    // real regression; artifacts predating the field (no hardware_cores
    // key) are still gated.
    const Json* cores = cur.get("hardware_cores");
    if (cores != nullptr && cores->kind == Json::Number &&
        cores->number < 2) {
        char reason[128];
        std::snprintf(reason, sizeof(reason),
                      "sweep speedup gate needs >= 2 hardware cores, "
                      "runner had %.0f", cores->number);
        std::printf("skip: %s\n", reason);
        annotateSkip(curPath, reason);
        return;
    }
    const double baseSpeedup = base.num("speedup");
    const double curSpeedup = cur.num("speedup");
    if (baseSpeedup > 0) {
        if (curSpeedup < baseSpeedup * (1.0 - tolerance)) {
            fail("%s: sweep speedup %.3f vs baseline %.3f in %s "
                 "(tolerance %.0f%%)",
                 curPath.c_str(), curSpeedup, baseSpeedup, basePath.c_str(),
                 100.0 * tolerance);
        } else {
            std::printf("ok: sweep speedup %.3f vs baseline %.3f\n",
                        curSpeedup, baseSpeedup);
        }
    }
}

void compareParallel(const std::string& basePath, const Json& base,
                     const std::string& curPath, const Json& cur,
                     double tolerance) {
    // Identity first: a parallel run that diverges from serial is a
    // correctness bug, failed at any tolerance.
    const Json* identical = cur.get("results_identical_across_thread_counts");
    if (identical == nullptr || identical->kind != Json::Bool ||
        !identical->boolean) {
        fail("%s: results_identical_across_thread_counts is not true — the "
             "parallel simulation engine broke determinism", curPath.c_str());
    } else {
        std::printf("ok: parallel simulation identical to serial at every "
                    "thread count\n");
    }
    // Speedup is hardware-dependent: only gate it where the engine had at
    // least 4 real cores to spread shards over (the curve runs 4 workers).
    const double cores = cur.num("hardware_cores");
    if (cores < 4) {
        char reason[128];
        std::snprintf(reason, sizeof(reason),
                      "parallel speedup gate needs >= 4 hardware cores, "
                      "runner had %.0f", cores);
        std::printf("skip: %s\n", reason);
        annotateSkip(curPath, reason);
        return;
    }
    const double baseSpeedup = base.num("speedup");
    const double curSpeedup = cur.num("speedup");
    if (baseSpeedup > 0) {
        if (curSpeedup < baseSpeedup * (1.0 - tolerance)) {
            fail("%s: parallel engine speedup %.3f vs baseline %.3f in %s "
                 "(tolerance %.0f%%)",
                 curPath.c_str(), curSpeedup, baseSpeedup, basePath.c_str(),
                 100.0 * tolerance);
        } else {
            std::printf("ok: parallel engine speedup %.3f vs baseline %.3f\n",
                        curSpeedup, baseSpeedup);
        }
    }
}

void compareFluid(const std::string& basePath, const Json& base,
                  const std::string& curPath, const Json& cur,
                  double tolerance) {
    // Identity first: an "all-packet" threshold that changes results
    // means the interception hook is not transparent — a correctness
    // bug, failed at any tolerance.
    const Json* identical = cur.get("all_packet_identical");
    if (identical == nullptr || identical->kind != Json::Bool ||
        !identical->boolean) {
        fail("%s: all_packet_identical is not true — a never-admitting "
             "fluid threshold must replay byte-identical to a run "
             "without the engine", curPath.c_str());
    } else {
        std::printf("ok: all-packet fluid threshold byte-identical to "
                    "disabled engine\n");
    }
    // The 10x floor is the headline claim; serial-vs-serial on one
    // machine, so no core-count escape hatch applies.
    const double curSpeedup = cur.num("speedup");
    constexpr double kFloor = 10.0;
    if (curSpeedup < kFloor) {
        fail("%s: fluid speedup %.1fx at %.0f hosts is below the %.0fx "
             "floor", curPath.c_str(), curSpeedup, cur.num("hosts"),
             kFloor);
    } else {
        std::printf("ok: fluid speedup %.1fx at %.0f hosts (floor %.0fx)\n",
                    curSpeedup, cur.num("hosts"), kFloor);
    }
    const double baseSpeedup = base.num("speedup");
    if (baseSpeedup > 0) {
        if (curSpeedup < baseSpeedup * (1.0 - tolerance)) {
            fail("%s: fluid speedup %.3f vs baseline %.3f in %s "
                 "(tolerance %.0f%%)",
                 curPath.c_str(), curSpeedup, baseSpeedup, basePath.c_str(),
                 100.0 * tolerance);
        } else {
            std::printf("ok: fluid speedup %.3f vs baseline %.3f\n",
                        curSpeedup, baseSpeedup);
        }
    }
}

/// Serving hard gates, shared by the pair-mode compare and --fidelity:
/// identity/conservation flags hard-fail at any tolerance, and the
/// headline power-of-two-choices claim — p2c p99 slowdown strictly below
/// random — is self-contained (both numbers are deterministic simulation
/// outputs recorded side by side in the artifact).
void checkServingGates(const std::string& path, const Json& doc) {
    for (const char* flag :
         {"hedge_conservation_holds", "sweep_identical"}) {
        const Json* v = doc.get(flag);
        if (v == nullptr || v->kind != Json::Bool || !v->boolean) {
            fail("%s: %s is not true — the serving harness broke its "
                 "invariants", path.c_str(), flag);
        } else {
            std::printf("ok: %s\n", flag);
        }
    }
    const double p2cP99 = doc.num("p2c_p99_slowdown");
    const double randP99 = doc.num("random_p99_slowdown");
    if (p2cP99 <= 0 || randP99 <= 0) {
        fail("%s: missing p2c/random p99 slowdown metrics", path.c_str());
    } else if (p2cP99 >= randP99) {
        fail("%s: power-of-two-choices p99 slowdown %.3f is not strictly "
             "below random %.3f — the selector lost its tail win",
             path.c_str(), p2cP99, randP99);
    } else {
        std::printf("ok: p2c p99 slowdown %.3f < random %.3f "
                    "(tail win %.2fx)\n", p2cP99, randP99, randP99 / p2cP99);
    }
}

void compareServing(const std::string& basePath, const Json& base,
                    const std::string& curPath, const Json& cur,
                    double tolerance) {
    checkServingGates(curPath, cur);
    // Baseline drift: the simulated tail numbers are machine-independent
    // (no wall clock involved), so the tolerance guards intentional
    // harness changes, not runner noise.
    const double bas04 = base.num("p2c_p99_slowdown");
    const double cur04 = cur.num("p2c_p99_slowdown");
    if (bas04 > 0 && cur04 > bas04 * (1.0 + tolerance)) {
        fail("%s: p2c p99 slowdown %.3f vs baseline %.3f in %s "
             "(%.0f%% worse, tolerance %.0f%%)",
             curPath.c_str(), cur04, bas04, basePath.c_str(),
             100.0 * (cur04 / bas04 - 1.0), 100.0 * tolerance);
    } else if (bas04 > 0) {
        std::printf("ok: p2c p99 slowdown %.3f vs baseline %.3f\n", cur04,
                    bas04);
    }
}

/// --fidelity: gate one fluid_speedup artifact's hybrid-vs-packet
/// slowdown percentiles, self-contained (both numbers are simulation
/// outputs recorded side by side in the artifact).
void checkFidelity(const std::string& path, const Json& doc,
                   double p50Tolerance) {
    constexpr double kP99Band = 2.5;
    const Json* list = doc.get("fidelity");
    if (list == nullptr || list->kind != Json::Array || list->items.empty()) {
        fail("%s: no fidelity entries to gate", path.c_str());
        return;
    }
    for (const Json& e : list->items) {
        const std::string name = e.str("scenario");
        const double pp50 = e.num("packet_p50");
        const double hp50 = e.num("hybrid_p50");
        const double pp99 = e.num("packet_p99");
        const double hp99 = e.num("hybrid_p99");
        if (pp50 <= 0 || pp99 <= 0) {
            fail("%s: '%s' has non-positive packet percentiles",
                 path.c_str(), name.c_str());
            continue;
        }
        if (std::fabs(hp50 - pp50) > p50Tolerance * pp50) {
            fail("%s: '%s' fidelity drift at p50: hybrid %.3f vs packet "
                 "%.3f (tolerance %.0f%%)", path.c_str(), name.c_str(),
                 hp50, pp50, 100.0 * p50Tolerance);
        } else if (hp99 > pp99 * kP99Band || hp99 < pp99 / kP99Band) {
            fail("%s: '%s' fidelity drift at p99: hybrid %.3f vs packet "
                 "%.3f (band %.1fx)", path.c_str(), name.c_str(), hp99,
                 pp99, kP99Band);
        } else {
            std::printf("ok: %-12s p50 %.3f vs %.3f, p99 %.3f vs %.3f "
                        "(hybrid vs packet)\n", name.c_str(), hp50, pp50,
                        hp99, pp99);
        }
    }
}

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: bench_compare [--tolerance F] "
                 "[--skip-missing-current] "
                 "<baseline.json> <current.json> [more pairs...]\n"
                 "       bench_compare --fidelity [--tolerance F] "
                 "<artifact.json> [more...]\n");
    std::exit(2);
}

bool parseTolerance(const char* text, double& out) {
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= 0) || v > 10) return false;
    out = v;
    return true;
}

bool fileExists(const std::string& path) {
    std::ifstream in(path);
    return static_cast<bool>(in);
}

}  // namespace

int main(int argc, char** argv) {
    double tolerance = 0.15;
    bool toleranceSet = false;
    bool skipMissingCurrent = false;
    bool fidelity = false;
    if (const char* env = std::getenv("HOMA_BENCH_TOLERANCE")) {
        if (!parseTolerance(env, tolerance)) {
            std::fprintf(stderr,
                         "bench_compare: HOMA_BENCH_TOLERANCE must be a "
                         "number in [0, 10], got '%s'\n", env);
            return 2;
        }
        toleranceSet = true;
    }
    std::vector<std::string> paths;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--tolerance") == 0) {
            if (i + 1 >= argc || !parseTolerance(argv[i + 1], tolerance)) {
                usage();
            }
            toleranceSet = true;
            i++;
        } else if (std::strcmp(argv[i], "--skip-missing-current") == 0) {
            skipMissingCurrent = true;
        } else if (std::strcmp(argv[i], "--fidelity") == 0) {
            fidelity = true;
        } else {
            paths.push_back(argv[i]);
        }
    }
    if (paths.empty()) usage();

    if (fidelity) {
        // Fidelity bands are simulation-vs-simulation, so the default is
        // the unit suite's p50 band, not the cross-machine perf default.
        const double p50Tol = toleranceSet ? tolerance : 0.25;
        for (const std::string& path : paths) {
            if (skipMissingCurrent && !fileExists(path)) {
                std::printf("skip: %s not present (benches have not run "
                            "on this machine)\n", path.c_str());
                continue;
            }
            Json doc;
            if (!loadJson(path, doc)) {
                failures++;
                continue;
            }
            std::printf("--- fidelity gate: %s (p50 tolerance %.0f%%) ---\n",
                        path.c_str(), 100.0 * p50Tol);
            // Dispatch on the artifact's declared schema; an artifact the
            // gate does not understand is a failure, not a silent skip —
            // otherwise a new BENCH_*.json drops out of CI unnoticed.
            const std::string kind = doc.str("bench");
            if (kind == "fluid_speedup") {
                checkFidelity(path, doc, p50Tol);
            } else if (kind == "serving") {
                checkServingGates(path, doc);
            } else {
                fail("%s: unrecognized schema '%s' — artifact not gated "
                     "(teach bench_compare its format or drop it)",
                     path.c_str(), kind.c_str());
            }
        }
        if (failures > 0) {
            std::fprintf(stderr, "bench_compare: %d fidelity failure(s)\n",
                         failures);
            return 1;
        }
        std::printf("bench_compare: all fidelity bands hold\n");
        return 0;
    }

    if (paths.size() % 2 != 0) usage();

    for (size_t i = 0; i < paths.size(); i += 2) {
        const std::string& basePath = paths[i];
        const std::string& curPath = paths[i + 1];
        // ctest registers the gate against the gitignored bench outputs,
        // which a fresh checkout does not have — skipping (loudly) beats
        // freezing a fallback path at configure time.
        if (skipMissingCurrent && !fileExists(curPath)) {
            std::printf("skip: %s not present (benches have not run on "
                        "this machine)\n", curPath.c_str());
            continue;
        }
        Json base, cur;
        if (!loadJson(basePath, base) || !loadJson(curPath, cur)) {
            failures++;
            continue;
        }
        std::printf("--- %s vs baseline %s (tolerance %.0f%%) ---\n",
                    curPath.c_str(), basePath.c_str(), 100.0 * tolerance);
        if (base.get("benchmarks") != nullptr) {
            compareGoogleBenchmark(basePath, base, curPath, cur, tolerance);
        } else if (base.str("bench") == "sweep_speedup") {
            compareSweep(basePath, base, curPath, cur, tolerance);
        } else if (base.str("bench") == "parallel_speedup") {
            compareParallel(basePath, base, curPath, cur, tolerance);
        } else if (base.str("bench") == "fluid_speedup") {
            compareFluid(basePath, base, curPath, cur, tolerance);
        } else if (base.str("bench") == "serving") {
            compareServing(basePath, base, curPath, cur, tolerance);
        } else {
            fail("%s: unrecognized schema '%s' — artifact not gated "
                 "(teach bench_compare its format or drop it)",
                 basePath.c_str(), base.str("bench").c_str());
        }
    }
    if (failures > 0) {
        std::fprintf(stderr, "bench_compare: %d regression(s)\n", failures);
        return 1;
    }
    std::printf("bench_compare: all metrics within tolerance\n");
    return 0;
}
