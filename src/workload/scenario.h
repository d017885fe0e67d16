// Traffic scenarios: who talks to whom, and at what relative rate.
//
// The paper's evaluation (§5.2) uses uniform-random Poisson traffic, but
// receiver-driven scheduling is stressed hardest by *skewed* matrices:
// fan-in hotspots (incast), rack-local locality, and heavy-tailed sender
// popularity. `TrafficPattern` is the seam behind `TrafficGenerator` that
// owns destination choice and per-sender rate weighting; `ScenarioConfig`
// selects and parameterizes a pattern and rides inside `TrafficConfig`, so
// every experiment, bench, and the sweep runner can pick a scenario.
//
// All patterns are deterministic given (config, seed): pattern-internal
// randomness (permutations, hotspot placement, popularity ranks) is fixed
// at construction from the seed the generator passes in.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "sim/packet.h"
#include "sim/random.h"
#include "sim/time.h"
#include "workload/rpc_dag.h"
#include "workload/serving.h"

namespace homa {

enum class TrafficPatternKind {
    Uniform,        // destinations uniform over the other hosts (the paper)
    Permutation,    // fixed random derangement: host i always sends to p(i)
    RackSkew,       // rackLocalFraction of messages stay inside the rack
    Incast,         // N-to-1 fan-in groups aimed at a few hot receivers
    ParetoSenders,  // sender popularity ~ rank^-alpha, destinations uniform
    TraceReplay,    // explicit (time, src, dst, size) schedule from text
    ClosedLoop,     // W outstanding messages per host; next issues on delivery
    Dag,            // fan-out/fan-in RPC trees (partition-aggregate)
};

/// Returns the canonical name of a pattern ("uniform", "closed-loop", ...).
const char* patternName(TrafficPatternKind kind);
/// Parses a pattern name (as printed by patternName, case-sensitive);
/// returns false and leaves `out` untouched on unknown names.
bool patternFromName(const std::string& name, TrafficPatternKind& out);

/// Distribution family for ON-OFF burst/idle period durations.
enum class OnOffDist {
    Exponential,  // memoryless periods (classic interrupted Poisson process)
    Pareto,       // heavy-tailed periods (self-similar traffic, shape > 1)
};

/// Returns "exp" or "pareto".
const char* onOffDistName(OnOffDist d);
/// Parses an ON-OFF distribution name; false on unknown names.
bool onOffDistFromName(const std::string& name, OnOffDist& out);

/// Bursty arrival modulation, composable with every Poisson pattern and
/// with closed-loop clients. Each host alternates independent ON (burst)
/// and OFF (idle) periods. Poisson patterns run their arrival process on
/// the host's ON-time clock with the rate boosted by 1/dutyCycle, so the
/// *average* offered load stays calibrated to TrafficConfig::load while
/// bursts transmit well above it. Closed-loop clients simply pause issuing
/// during OFF periods and refill their window when the burst starts.
struct OnOffConfig {
    bool enabled = false;
    Duration onMean = microseconds(100);   // mean burst duration
    Duration offMean = microseconds(300);  // mean idle duration
    OnOffDist dist = OnOffDist::Exponential;
    double paretoShape = 1.5;  // Pareto period shape (must be > 1)

    /// Long-run fraction of time a host spends in a burst.
    double dutyCycle() const {
        return static_cast<double>(onMean) /
               static_cast<double>(onMean + offMean);
    }
};

struct ScenarioConfig {
    TrafficPatternKind kind = TrafficPatternKind::Uniform;

    // Incast: `hotspots` hot receivers (capped at half the cluster); each
    // is the target of a fan-in group of `hotspotDegree` dedicated senders
    // (0 = all non-hot hosts join a group; capped at the senders available
    // per hotspot). A group sender aims `hotspotFraction` of its messages
    // at its hotspot and spreads the rest uniformly; hosts outside every
    // group send uniform background traffic.
    int hotspots = 1;
    int hotspotDegree = 16;
    double hotspotFraction = 1.0;

    // RackSkew: fraction of messages that pick an intra-rack destination.
    double rackLocalFraction = 0.8;

    // ParetoSenders: weight of the k-th most popular sender ~ k^-alpha.
    double paretoAlpha = 1.2;

    // TraceReplay: lines of "<time_us> <src> <dst> <size_bytes>"
    // (blank lines and '#' comments ignored). `traceText` takes precedence
    // over `tracePath`; times are offsets from the generator's start time.
    std::string tracePath;
    std::string traceText;

    // ClosedLoop: each host keeps `closedLoopWindow` messages outstanding
    // (destinations uniform) and issues the next one only when a previous
    // delivery completes, after an optional exponential think time with
    // mean `thinkTime`. The offered load is endogenous — `load` is ignored.
    int closedLoopWindow = 4;
    Duration thinkTime = 0;

    // Dag: fan-out/fan-in request trees (see workload/rpc_dag.h). Roots
    // run closed-loop — `dag.window` trees outstanding each — so `load`
    // is ignored, like ClosedLoop.
    DagConfig dag;

    // ON-OFF burst/idle modulation; composes with every pattern above
    // except TraceReplay (which carries its own explicit timing).
    OnOffConfig onOff;

    // Fault injection (sim/fault.h): link flaps, switch death, degraded
    // links, scheduled deterministically on the event loops. Composes
    // with every pattern; runExperiment builds a FaultTimeline from these
    // and reports FaultStats in ExperimentResult::faults.
    std::vector<FaultSpec> faults;

    // TOR uplink choice: false = the paper's per-packet random spraying;
    // true = deterministic per-message ECMP hash over the *alive* uplinks
    // so a dead aggregation switch reroutes instead of blackholing.
    bool ecmpUplinks = false;

    // Topology override ("topo:" modifier): a parseTopoSpec body applied
    // over the experiment's base NetworkConfig by runExperiment, e.g.
    // "racks=8,hosts=4,aggr=2,core=2,oversub=4". Empty = run the base
    // topology untouched.
    std::string topoSpec;

    // Multi-tenant serving ("tenants:" / "replicas:" modifiers): tenant
    // fleets with their own workloads and arrival modes against named
    // replica groups, run by the RPC harness (runRpcExperiment) rather
    // than the message-level generator — the CLI dispatches on
    // serving.enabled(). Composes with "topo:" only: the serving harness
    // owns its arrival processes (no on-off), runs the paper's per-packet
    // spraying (no ecmp), and its per-call accounting assumes the packet
    // engine (no fluid, no faults). The pattern segment must be
    // "uniform" (the placeholder — tenants override destination choice
    // entirely).
    ServingConfig serving;

    // Fluid fast path ("fluid:" modifier): messages with length >= this
    // many bytes are simulated as flow-level fluid transfers (sim/fluid.h)
    // instead of packet by packet; 0 sends everything fluid, -1 (default)
    // disables the engine. Fluid runs are serial (any thread count yields
    // byte-identical results). Does not compose with fault injection:
    // fluid flows never touch the switches faults act on, so a hybrid
    // fault run would break conservation silently — the spec parser
    // rejects the combination and runExperiment aborts on it.
    int64_t fluidThresholdBytes = -1;
};

/// Parses a scenario spec — the one grammar behind HOMA_SCENARIO, the
/// runner's scenario flags (each desugars to a fragment of a spec; see
/// docs/SCENARIOS.md for the flag-to-key table) and programmatic users.
///
///   <pattern>[:k=v,...][+<modifier>[:<body>]]...
///
/// The first segment names the pattern; its keys are
///   incast       hotspots, degree, fraction
///   rack-skew    local
///   pareto       alpha
///   closed-loop  window, think_us
///   trace        path (required)
///   dag          fanout, depth, window, roots, req, resp, straggler,
///                factor, join
/// (uniform and permutation take none; unset keys keep the
/// ScenarioConfig defaults). A comma-separated piece without '=' continues
/// the previous value, so lists (resp=16000,2000 or resp=16000/2000) and
/// paths may hold commas. Modifiers: "on-off[:on_us=,off_us=,dist=exp|
/// pareto,shape=]", "ecmp", "topo:<body>" (parseTopoSpec; at most one),
/// "fluid:<bytes>" (a non-negative integer; at most one), any number of
/// "fault:<body>" (parseFaultSpec), "tenants:<body>" (parseTenantsSpec;
/// at most one) and "replicas:<body>" (parseReplicasSpec).
///
/// Composition rules, checked here once for every caller: trace takes no
/// on-off; fluid takes no faults; ecmp needs uplinks (a single-rack topo
/// has none); tenants need the "uniform" placeholder pattern and take
/// none of on-off, ecmp, fluid or faults; replicas need tenants. Ranges:
/// closed-loop window >= 1, on_us > 0, off_us >= 0, pareto shape > 1,
/// fractions in [0, 1], the dag limits of validateDagConfig.
///
/// Returns false and leaves `out` untouched on malformed specs, with a
/// human-readable reason in *err (if given).
bool scenarioFromSpec(const std::string& spec, ScenarioConfig& out,
                      std::string* err = nullptr);

/// Canonical spec of a scenario: the pattern with its non-default keys,
/// then every set modifier. scenarioFromSpec(scenarioToSpec(s)) rebuilds
/// `s` for any config scenarioFromSpec accepts, except that fault
/// segments keep faultSpecToString's precision (durations to the ns,
/// bw/drop to 6 significant digits) and traceText, which has no spec
/// form, is not printed.
std::string scenarioToSpec(const ScenarioConfig& s);

/// Strict whole-string number parsers behind the spec grammar, shared
/// with the runner's numeric flags so `--load abc` errors instead of
/// throwing. parseSpecUint64 takes digits only (no sign, so "-1" cannot
/// wrap); parseSpecBytes additionally enforces [1, 2^32); parseSpecDouble
/// rejects non-finite values. No range checks beyond that.
bool parseSpecInt(const std::string& text, int& out);
bool parseSpecInt64(const std::string& text, int64_t& out);
bool parseSpecUint64(const std::string& text, uint64_t& out);
bool parseSpecBytes(const std::string& text, uint32_t& out);
bool parseSpecDouble(const std::string& text, double& out);
/// "_us" keys: non-negative microseconds (at most 1000 s), rounded to the
/// clock tick so a printed duration parses back to the same tick.
bool parseSpecMicros(const std::string& text, Duration& out);
/// Shortest decimal that parses back to exactly `v`, with no '+' (the
/// segment separator): "0.8", "1e20".
std::string formatSpecNumber(double v);
/// Splits on `sep`, keeping empty fields (they become parse errors
/// downstream, with better messages than silent dropping would give).
std::vector<std::string> splitSpec(const std::string& text, char sep);

/// One trace-replay record; `at` is an offset from TrafficConfig::start.
struct TraceRecord {
    Duration at = 0;
    HostId src = 0;
    HostId dst = 0;
    uint32_t size = 0;
};

/// Parses trace text. Aborts (assert/fprintf+exit) on malformed lines or
/// out-of-range hosts when `hostCount` > 0.
std::vector<TraceRecord> parseTrace(const std::string& text,
                                    int hostCount = 0);
std::vector<TraceRecord> loadTraceFile(const std::string& path,
                                       int hostCount = 0);

/// Per-host ON-OFF state machine: a lazily generated alternating sequence
/// of burst and idle periods, deterministic given (config, seed).
///
/// Two query styles, one per arrival mode (a given host uses exactly one):
///  * `advance(onDelay)` — Poisson mode. Maps a delay measured on the
///    host's ON-time clock to the wall-clock instant reached, starting
///    from the previous arrival. Running the arrival process on the
///    ON-clock (at rate base/dutyCycle) keeps the long-run rate calibrated.
///  * `gate(now)` — closed-loop mode. Returns `now` when the host is mid-
///    burst, else the start of the next burst. Queries must be issued with
///    non-decreasing `now` (event-loop time, which is monotonic).
///
/// The initial phase is sampled from the stationary distribution for
/// exponential periods (exact, by memorylessness); for Pareto periods the
/// same draw is an approximation, which a long window amortizes away.
class OnOffModulator {
public:
    OnOffModulator(const OnOffConfig& cfg, Time start, uint64_t seed);

    /// Advance `onDelay` of ON time past the previous mapped instant and
    /// return the wall-clock time reached (OFF periods are skipped whole).
    Time advance(Duration onDelay);

    /// `now` when ON at `now`; otherwise the start of the next ON period.
    Time gate(Time now);

private:
    Duration samplePeriod(bool on);

    OnOffConfig cfg_;
    Rng rng_;
    bool on_;
    Time periodEnd_;  // wall-clock end of the current period
    Time cursor_;     // last wall-clock instant mapped by advance()
};

/// Destination choice and sender rate weighting for Poisson scenarios.
class TrafficPattern {
public:
    virtual ~TrafficPattern() = default;

    virtual TrafficPatternKind kind() const = 0;

    /// Relative Poisson arrival weight of host h; 0 = host never sends.
    /// The generator normalizes weights so the aggregate offered load is
    /// independent of the pattern, and water-fills so no single sender is
    /// asked to offer more than its line rate (excess redistributes over
    /// the unclamped hosts) — skew patterns saturate their top senders
    /// instead of demanding the physically impossible.
    virtual double senderWeight(HostId) const { return 1.0; }

    /// Pick a destination for a message from `src`; never returns `src`.
    virtual HostId pickDestination(HostId src, Rng& rng) const = 0;
};

/// Builds the pattern for a scenario (TraceReplay has no pattern; the
/// generator replays records directly — calling this for it aborts).
std::unique_ptr<TrafficPattern> makeTrafficPattern(const ScenarioConfig& cfg,
                                                   int hostCount,
                                                   int hostsPerRack,
                                                   uint64_t seed);

}  // namespace homa
