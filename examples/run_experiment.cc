// Command-line experiment runner: the repo's Swiss-army knife.
//
//   example_run_experiment --workload W3 --protocol Homa --load 0.8 --window-ms 10
//
// Run knobs (protocol, workload, load, seed, Homa parameters) fill the
// ExperimentConfig directly. Scenario flags (--pattern and its knobs,
// --trace, --on-off, --fault, --ecmp, --fluid, --topo, --single-rack,
// --tenants, --replicas) are sugar: each desugars to a fragment of one
// scenario spec, which scenarioFromSpec parses and validates once — the
// grammar HOMA_SCENARIO takes (docs/SCENARIOS.md maps every flag to its
// spec key).
//
// Prints the slowdown-by-decile table, utilization, queue occupancy, and
// priority usage for any protocol/workload/parameter combination — every
// figure in bench/ is a scripted set of these runs.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "driver/experiment.h"
#include "driver/rpc_experiment.h"
#include "stats/report.h"

using namespace homa;

namespace {

[[noreturn]] void usage() {
    std::fprintf(
        stderr,
        "usage: example_run_experiment [options]\n"
        "  --workload W1..W5       message size distribution (default W3)\n"
        "  --protocol NAME         Homa|Basic|pHost|PIAS|pFabric|NDP|\n"
        "                          Stream-SC|Stream-MC (default Homa)\n"
        "  --load F                offered load fraction (default 0.8)\n"
        "  --window-ms N           traffic generation window (default 10)\n"
        "  --seed N                RNG seed (default 99)\n"
        "  --sim-threads N         parallel engine: shard the simulation\n"
        "                          across N threads (default 1 = serial;\n"
        "                          results are identical either way)\n"
        "  Homa knobs: --wire-priorities N, --sched N, --unsched N,\n"
        "              --cutoff BYTES, --unsched-bytes N, --reservation F,\n"
        "              --overcommit N, --no-incast-control,\n"
        "              --grant-policy srpt|fifo|rr|unlimited\n"
        "  --wasted-bw             sample the Figure 16 wasted-bw probe\n"
        "scenario flags: each is a fragment of one scenario spec (the\n"
        "HOMA_SCENARIO grammar; docs/SCENARIOS.md). A knob joins its\n"
        "segment only when --pattern/--trace/--on-off names that segment.\n"
        "  --pattern NAME          the pattern segment: uniform|permutation|\n"
        "                          rack-skew|incast|pareto|trace|closed-loop|\n"
        "                          dag (default uniform)\n"
        "  --hotspots N            incast:hotspots — hot receivers (1)\n"
        "  --hotspot-degree N      incast:degree — senders per hotspot (16)\n"
        "  --hotspot-fraction F    incast:fraction — share to hotspot (1)\n"
        "  --rack-local F          rack-skew:local — intra-rack share (0.8)\n"
        "  --pareto-alpha F        pareto:alpha — popularity exponent (1.2)\n"
        "  --trace FILE            trace:path — replay '<us> <src> <dst>\n"
        "                          <bytes>' lines (names the trace pattern)\n"
        "  --window N              closed-loop:window — outstanding\n"
        "                          messages per host (4; --load ignored)\n"
        "  --think-us F            closed-loop:think_us — mean think time (0)\n"
        "  --dag-fanout N          dag:fanout — children per node (8)\n"
        "  --dag-depth N           dag:depth — levels below the root (2)\n"
        "  --dag-window N          dag:window — trees per root (1)\n"
        "  --dag-roots N           dag:roots — coordinators (0 = all)\n"
        "  --dag-req BYTES         dag:req — request bytes per edge (320)\n"
        "  --dag-stage-sizes LIST  dag:resp — per-stage response bytes,\n"
        "                          root-to-leaf, e.g. 16000,2000 (default:\n"
        "                          sample the workload per node)\n"
        "  --dag-join F            dag:join — second-parent fraction (0)\n"
        "  --dag-straggler F       dag:straggler — straggling leaves (0)\n"
        "  --dag-straggler-factor F  dag:factor — straggler size x (10)\n"
        "  --on-off                +on-off — per-host burst/idle periods\n"
        "  --on-us F / --off-us F  on-off:on_us / off_us — mean burst /\n"
        "                          idle duration (100 / 300)\n"
        "  --on-off-dist NAME      on-off:dist — exp|pareto (exp)\n"
        "  --on-off-shape F        on-off:shape — pareto shape > 1 (1.5)\n"
        "  --fault SPEC            +fault:SPEC (repeatable), e.g.\n"
        "                          'flap=aggr0,at=5ms,for=1ms',\n"
        "                          'kill=aggr1,at=3ms',\n"
        "                          'degrade=host3,at=1ms,for=5ms,bw=0.5,\n"
        "                          delay=10us,drop=0.01',\n"
        "                          'flap-train=aggr2,count=5,gap=2ms,\n"
        "                          for=500us'\n"
        "  --ecmp                  +ecmp — per-message ECMP uplink hash\n"
        "                          over alive uplinks (default: per-packet\n"
        "                          spraying)\n"
        "  --fluid BYTES           +fluid:BYTES — messages >= BYTES run as\n"
        "                          fluid flows (0 = all; always serial)\n"
        "  --topo SPEC             +topo:SPEC — topology override, k=v of\n"
        "                          racks, hosts (per rack), aggr (per pod),\n"
        "                          core, oversub, pods, e.g.\n"
        "                          'racks=8,hosts=4,aggr=2,core=2,oversub=4'\n"
        "  --single-rack           +topo:racks=1,hosts=16,aggr=0 — the\n"
        "                          16-host cluster\n"
        "  --tenants SPEC          +tenants:SPEC — multi-tenant serving on\n"
        "                          the RPC harness: ';'-separated tenants of\n"
        "                          k=v — name, wl, mode (open|closed), load,\n"
        "                          window, think_us, clients, group\n"
        "  --replicas SPEC         +replicas:SPEC — replica groups: name,\n"
        "                          n (0 = rest), lb (rr|random|p2c), hedge\n"
        "                          (off|pNN), hedge_floor_us, hedge_min\n");
    std::exit(2);
}

// Parses a numeric flag value with the spec grammar's strict parsers: a
// typo gets the usage message, not an uncaught exception.
template <typename T>
T number(const std::string& flag, const std::string& text,
         bool (*parse)(const std::string&, T&)) {
    T value{};
    if (!parse(text, value)) {
        std::fprintf(stderr, "%s: expected a number, got '%s'\n",
                     flag.c_str(), text.c_str());
        usage();
    }
    return value;
}

Protocol parseProtocol(const std::string& s) {
    for (Protocol p : {Protocol::Homa, Protocol::Basic, Protocol::PHost,
                       Protocol::Pias, Protocol::PFabric, Protocol::Ndp,
                       Protocol::StreamSC, Protocol::StreamMC}) {
        if (s == protocolName(p)) return p;
    }
    std::fprintf(stderr, "unknown protocol: %s\n", s.c_str());
    usage();
}

WorkloadId parseWorkload(const std::string& s) {
    for (WorkloadId id : kAllWorkloads) {
        if (s == workload(id).name()) return id;
    }
    std::fprintf(stderr, "unknown workload: %s\n", s.c_str());
    usage();
}

// Scenario knob flags: each sets one key of one spec segment.
struct Knob {
    const char* flag;
    const char* head;
    const char* key;
};

constexpr Knob kKnobs[] = {
    {"--hotspots", "incast", "hotspots"},
    {"--hotspot-degree", "incast", "degree"},
    {"--hotspot-fraction", "incast", "fraction"},
    {"--rack-local", "rack-skew", "local"},
    {"--pareto-alpha", "pareto", "alpha"},
    {"--trace", "trace", "path"},
    {"--window", "closed-loop", "window"},
    {"--think-us", "closed-loop", "think_us"},
    {"--dag-fanout", "dag", "fanout"},
    {"--dag-depth", "dag", "depth"},
    {"--dag-window", "dag", "window"},
    {"--dag-roots", "dag", "roots"},
    {"--dag-req", "dag", "req"},
    {"--dag-stage-sizes", "dag", "resp"},
    {"--dag-join", "dag", "join"},
    {"--dag-straggler", "dag", "straggler"},
    {"--dag-straggler-factor", "dag", "factor"},
    {"--on-us", "on-off", "on_us"},
    {"--off-us", "on-off", "off_us"},
    {"--on-off-dist", "on-off", "dist"},
    {"--on-off-shape", "on-off", "shape"},
};

// NetworkConfig::singleRack16() as a topo body over the fat-tree base.
constexpr const char* kSingleRackTopo = "racks=1,hosts=16,aggr=0";

}  // namespace

int main(int argc, char** argv) {
    ExperimentConfig cfg;
    cfg.traffic.stop = milliseconds(10);

    int sched = 0, unsched = 0;
    // The scenario spec's parts: the heads the command line names (the
    // pattern via --pattern/--trace, then on-off), each knob's (head,
    // "k=v"), and the keyless segments in flag order.
    std::vector<std::string> patterns, named;
    std::vector<std::pair<std::string, std::string>> keys;
    std::vector<std::string> modifiers;
    // Run flags the serving harness has no use for.
    std::vector<std::string> messageOnly;
    auto addName = [](std::vector<std::string>& heads, const std::string& h) {
        if (std::find(heads.begin(), heads.end(), h) == heads.end()) {
            heads.push_back(h);
        }
    };
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        const Knob* knob = std::find_if(
            std::begin(kKnobs), std::end(kKnobs),
            [&arg](const Knob& k) { return arg == k.flag; });
        if (knob != std::end(kKnobs)) {
            keys.emplace_back(knob->head,
                              std::string(knob->key) + "=" + next());
            // The one knob that names its segment: a file is a trace.
            if (arg == "--trace") addName(patterns, "trace");
        } else if (arg == "--pattern") {
            addName(patterns, next());
        } else if (arg == "--on-off") {
            addName(named, "on-off");
        } else if (arg == "--ecmp") {
            modifiers.push_back("ecmp");
        } else if (arg == "--fluid") {
            modifiers.push_back("fluid:" + next());
        } else if (arg == "--fault") {
            modifiers.push_back("fault:" + next());
        } else if (arg == "--topo") {
            modifiers.push_back("topo:" + next());
        } else if (arg == "--single-rack") {
            modifiers.push_back(std::string("topo:") + kSingleRackTopo);
        } else if (arg == "--tenants") {
            modifiers.push_back("tenants:" + next());
        } else if (arg == "--replicas") {
            modifiers.push_back("replicas:" + next());
        } else if (arg == "--workload") {
            cfg.traffic.workload = parseWorkload(next());
            messageOnly.push_back(arg);
        } else if (arg == "--protocol") {
            cfg.proto.kind = parseProtocol(next());
        } else if (arg == "--load") {
            cfg.traffic.load = number(arg, next(), parseSpecDouble);
            messageOnly.push_back(arg);
        } else if (arg == "--window-ms") {
            cfg.traffic.stop = milliseconds(number(arg, next(), parseSpecInt));
        } else if (arg == "--seed") {
            cfg.traffic.seed = number(arg, next(), parseSpecUint64);
        } else if (arg == "--sim-threads") {
            cfg.parallel.threads = number(arg, next(), parseSpecInt);
            messageOnly.push_back(arg);
        } else if (arg == "--wire-priorities") {
            cfg.proto.homa.wirePriorities = number(arg, next(), parseSpecInt);
        } else if (arg == "--sched") {
            sched = number(arg, next(), parseSpecInt);
        } else if (arg == "--unsched") {
            unsched = number(arg, next(), parseSpecInt);
        } else if (arg == "--cutoff") {
            cfg.proto.homa.explicitCutoffs.push_back(
                number(arg, next(), parseSpecBytes));
        } else if (arg == "--unsched-bytes") {
            cfg.proto.homa.unschedBytesLimit =
                number(arg, next(), parseSpecInt64);
        } else if (arg == "--reservation") {
            cfg.proto.homa.oldestReservation =
                number(arg, next(), parseSpecDouble);
        } else if (arg == "--overcommit") {
            cfg.proto.homa.overcommitDegree = number(arg, next(), parseSpecInt);
        } else if (arg == "--grant-policy") {
            const std::string name = next();
            bool found = false;
            for (GrantPolicy p : {GrantPolicy::Srpt, GrantPolicy::Fifo,
                                  GrantPolicy::RoundRobin,
                                  GrantPolicy::Unlimited}) {
                if (name == grantPolicyName(p)) {
                    cfg.proto.homa.grantPolicy = p;
                    found = true;
                }
            }
            if (!found) {
                std::fprintf(stderr, "unknown grant policy: %s\n", name.c_str());
                usage();
            }
        } else if (arg == "--no-incast-control") {
            cfg.proto.homa.incastControl = false;
        } else if (arg == "--wasted-bw") {
            cfg.measureWastedBandwidth = true;
            messageOnly.push_back(arg);
        } else {
            usage();
        }
    }

    // Assemble the spec: the pattern first, each named head with its keys,
    // then keys whose segment no flag named — left bare, which the parser
    // rejects, so a knob never implies its segment — then the modifiers.
    if (patterns.empty()) patterns.push_back("uniform");
    named.insert(named.begin(), patterns.begin(), patterns.end());
    std::string spec;
    for (const std::string& head : named) {
        std::string seg = head;
        for (const auto& [h, kv] : keys) {
            if (h == head) seg += (seg.size() == head.size() ? ":" : ",") + kv;
        }
        spec += (spec.empty() ? "" : "+") + seg;
    }
    for (const auto& [h, kv] : keys) {
        if (std::find(named.begin(), named.end(), h) == named.end()) {
            spec += "+" + kv;
        }
    }
    for (const std::string& m : modifiers) spec += "+" + m;

    const ScenarioConfig& s = cfg.traffic.scenario;
    std::string err;
    if (!scenarioFromSpec(spec, cfg.traffic.scenario, &err)) {
        std::fprintf(stderr, "scenario '%s': %s\n", spec.c_str(), err.c_str());
        usage();
    }
    // The final topology (the fat-tree base the parser validated the topo
    // segment against); runExperiment applies the same segment itself.
    NetworkConfig net = cfg.net;
    if (!s.topoSpec.empty() && !parseTopoSpec(s.topoSpec, net, &err)) {
        std::fprintf(stderr, "--topo '%s': %s\n", s.topoSpec.c_str(),
                     err.c_str());
        usage();
    }
    for (const FaultSpec& fault : s.faults) {
        const std::string why = validateFaultSpec(fault, net);
        if (!why.empty()) {
            std::fprintf(stderr, "--fault '%s': %s\n",
                         faultSpecToString(fault).c_str(), why.c_str());
            usage();
        }
    }
    if (unsched > 0) cfg.proto.homa.unschedPriorities = unsched;
    if (sched > 0) {
        cfg.proto.homa.logicalPriorities =
            sched + std::max(1, cfg.proto.homa.unschedPriorities);
        if (cfg.proto.homa.unschedPriorities == 0) {
            cfg.proto.homa.unschedPriorities = 1;
            cfg.proto.homa.logicalPriorities = sched + 1;
        }
    }

    if (s.serving.enabled()) {
        if (!messageOnly.empty()) {
            std::fprintf(stderr,
                         "%s does not apply to --tenants: tenants carry "
                         "their own workloads and loads, and the serving "
                         "harness runs serially without the message-level "
                         "probes\n",
                         messageOnly.front().c_str());
            usage();
        }
        RpcExperimentConfig rc;
        // The RPC harness defaults to the paper's single-switch cluster
        // (§5.1); --topo / --single-rack override it like everywhere else.
        rc.net = s.topoSpec.empty() ? NetworkConfig::singleRack16() : net;
        rc.proto = cfg.proto;
        rc.seed = cfg.traffic.seed;
        rc.stop = cfg.traffic.stop;
        rc.serving = s.serving;
        const std::string why =
            validateServingConfig(rc.serving, rc.net.hostCount());
        if (!why.empty()) {
            std::fprintf(stderr, "bad serving config: %s\n", why.c_str());
            usage();
        }
        const auto groups = rc.serving.effectiveGroups();
        std::printf(
            "%s on %s, serving %zu tenants (%d clients), window %.0f ms, "
            "seed %llu\n",
            protocolName(rc.proto.kind), topologySummary(rc.net).c_str(),
            rc.serving.tenants.size(), rc.serving.totalClients(),
            toSeconds(rc.stop) * 1e3,
            static_cast<unsigned long long>(rc.seed));
        std::printf("replica groups: %s\n\n",
                    replicasSpecToString(groups).c_str());

        RpcExperimentResult r = runRpcExperiment(rc);

        Table t({"tenant", "mode", "clients", "ops", "ops/s", "Gbps",
                 "p50 us", "p99 us", "slow p99", "hedged", "won"});
        for (size_t i = 0; i < rc.serving.tenants.size(); i++) {
            const TenantConfig& tc = rc.serving.tenants[i];
            const int ti = static_cast<int>(i);
            const TenantHedgeStats& h = r.tenants->hedges(ti);
            t.addRow({tc.name, arrivalModeName(tc.mode),
                      std::to_string(tc.clients),
                      std::to_string(r.tenants->completed(ti)),
                      std::to_string(
                          static_cast<long long>(r.tenants->opsPerSec(ti))),
                      Table::num(r.tenants->gbps(ti)),
                      Table::num(r.tenants->latencyPercentileUs(ti, 0.50)),
                      Table::num(r.tenants->latencyPercentileUs(ti, 0.99)),
                      Table::num(r.tenants->slowdownPercentile(ti, 0.99)),
                      std::to_string(h.issued), std::to_string(h.won)});
        }
        std::printf("%s\n", t.format().c_str());

        const ServingStats& s = r.serving;
        std::printf(
            "logical RPCs: %llu issued, %llu completed in window, "
            "keptUp=%s\n",
            static_cast<unsigned long long>(s.logicalIssued),
            static_cast<unsigned long long>(r.completed),
            r.keptUp ? "yes" : "no");
        std::printf(
            "calls: %llu issued (%llu hedges), %llu responses consumed, "
            "%llu retries\n",
            static_cast<unsigned long long>(s.callsIssued),
            static_cast<unsigned long long>(s.hedgesIssued),
            static_cast<unsigned long long>(s.responsesConsumed),
            static_cast<unsigned long long>(r.retries));
        std::printf(
            "hedges: %llu issued = %llu won + %llu cancelled + %llu "
            "failed; primaries cancelled: %llu\n",
            static_cast<unsigned long long>(s.hedgesIssued),
            static_cast<unsigned long long>(s.hedgesWon),
            static_cast<unsigned long long>(s.hedgesCancelled),
            static_cast<unsigned long long>(s.hedgesFailed),
            static_cast<unsigned long long>(s.primariesCancelled));
        std::printf(
            "bytes: %lld issued = %lld consumed + %lld refunded + %lld "
            "unresolved\n",
            static_cast<long long>(s.issuedBytes),
            static_cast<long long>(s.consumedBytes),
            static_cast<long long>(s.refundedBytes),
            static_cast<long long>(s.unresolvedBytes));
        return 0;
    }

    const SizeDistribution& dist = workload(cfg.traffic.workload);
    // Trace replay and closed loop ignore --load (the schedule or the
    // window sets the rate itself).
    std::string loadStr = "load n/a (trace-driven)";
    if (s.kind == TrafficPatternKind::ClosedLoop) {
        loadStr = "load n/a (closed loop, W=";
        loadStr += std::to_string(s.closedLoopWindow);
        loadStr += ')';
    } else if (s.kind == TrafficPatternKind::Dag) {
        char dagStr[96];
        std::snprintf(dagStr, sizeof(dagStr),
                      "load n/a (dag, fanout %d depth %d, W=%d)",
                      s.dag.fanout, s.dag.depth, s.dag.window);
        loadStr = dagStr;
    } else if (s.kind != TrafficPatternKind::TraceReplay) {
        loadStr = "load ";
        loadStr += std::to_string(static_cast<int>(100 * cfg.traffic.load));
        loadStr += '%';
    }
    std::printf(
        "%s on %s, %s, scenario %s, %s, window %.0f ms, seed %llu\n\n",
        protocolName(cfg.proto.kind), topologySummary(net).c_str(),
        dist.name().c_str(), scenarioToSpec(s).c_str(), loadStr.c_str(),
        toSeconds(cfg.traffic.stop) * 1e3,
        static_cast<unsigned long long>(cfg.traffic.seed));

    ExperimentResult r = runExperiment(cfg);

    Table t({"size<=", "count", "p50 slowdown", "p99 slowdown"});
    for (const auto& row : r.slowdown->rows()) {
        t.addRow({Table::bytes(row.bucketMaxSize), std::to_string(row.count),
                  Table::num(row.median), Table::num(row.p99)});
    }
    std::printf("%s\n", t.format().c_str());

    std::printf("messages: %llu generated, %llu delivered, keptUp=%s\n",
                static_cast<unsigned long long>(r.generated),
                static_cast<unsigned long long>(r.delivered),
                r.keptUp ? "yes" : "no");
    std::printf("downlink utilization: %.1f%%   drops: %llu   trims: %llu\n",
                100 * r.downlinkUtilization,
                static_cast<unsigned long long>(r.switchDrops),
                static_cast<unsigned long long>(r.switchTrims));
    if (cfg.measureWastedBandwidth) {
        std::printf("wasted receiver bandwidth: %.1f%%\n",
                    100 * r.wastedBandwidth);
    }
    std::printf("queues (mean/max KB): TOR->host %.1f/%.0f, core %.1f/%.0f\n",
                r.torDown.meanBytes / 1e3,
                static_cast<double>(r.torDown.maxBytes) / 1e3,
                r.torUp.meanBytes / 1e3,
                static_cast<double>(r.torUp.maxBytes) / 1e3);
    if (r.coreSwitches > 0) {
        std::printf(
            "core tier queues (mean/max KB): aggr->core %.1f/%.0f, "
            "core->aggr %.1f/%.0f\n",
            r.aggrUp.meanBytes / 1e3,
            static_cast<double>(r.aggrUp.maxBytes) / 1e3,
            r.coreDown.meanBytes / 1e3,
            static_cast<double>(r.coreDown.maxBytes) / 1e3);
        std::printf("link busy fraction: TOR->aggr %.1f%%, aggr->core %.1f%%\n",
                    100 * r.aggrLinkUtilization, 100 * r.coreLinkUtilization);
    }
    std::printf("priority usage (%% of downlink): ");
    for (int p = 0; p < kPriorityLevels; p++) {
        std::printf("P%d=%.1f ", p, 100 * r.prioUsage[p]);
    }
    std::printf("\n");
    if (r.fluid) {
        const FluidStats& fl = *r.fluid;
        std::printf(
            "fluid regime (>= %lld bytes): %llu flows (%llu delivered), "
            "%.1f MB wire, peak %llu concurrent, %llu rate solves\n",
            static_cast<long long>(fl.thresholdBytes),
            static_cast<unsigned long long>(fl.flows),
            static_cast<unsigned long long>(fl.delivered),
            static_cast<double>(fl.wireBytes) / 1e6,
            static_cast<unsigned long long>(fl.maxConcurrent),
            static_cast<unsigned long long>(fl.solves));
        if (fl.delivered > 0) {
            std::printf(
                "  fluid slowdown: p50 %.2f, p99 %.2f, mean %.2f\n",
                fl.slowP50, fl.slowP99, fl.slowMean);
        }
    }
    if (r.faults) {
        const FaultStats& f = *r.faults;
        std::printf(
            "faults: %llu flaps, %llu kills, %llu degrades scheduled\n",
            static_cast<unsigned long long>(f.linkDownEvents),
            static_cast<unsigned long long>(f.switchKills),
            static_cast<unsigned long long>(f.degradeEvents));
        std::printf(
            "  fault drops: %llu on-wire, %llu degraded-loss, %llu "
            "dead-switch ingress, %llu flushed at death\n",
            static_cast<unsigned long long>(f.wireDrops),
            static_cast<unsigned long long>(f.probDrops),
            static_cast<unsigned long long>(f.deadIngressDrops),
            static_cast<unsigned long long>(f.flushDrops));
    }
    if (r.closedLoop) {
        const ClosedLoopTracker& cl = *r.closedLoop;
        std::printf(
            "closed loop: %llu ops in window (%.0f ops/s, %.2f Gbps), "
            "peak outstanding %d/%d\n",
            static_cast<unsigned long long>(cl.totalCompleted()),
            cl.aggregateOpsPerSec(), cl.aggregateGbps(), r.maxOutstanding,
            s.closedLoopWindow);
        std::printf(
            "  per-client ops: min %llu / max %llu;   latency (us): "
            "p50 %.1f, p99 %.1f, mean %.1f\n",
            static_cast<unsigned long long>(cl.minClientCompleted()),
            static_cast<unsigned long long>(cl.maxClientCompleted()),
            cl.latencyPercentileUs(0.50), cl.latencyPercentileUs(0.99),
            cl.latencyMeanUs());
    }
    if (r.dag) {
        const DagTracker& dag = *r.dag;
        std::printf(
            "dag: %llu trees in window (%.0f trees/s, %.2f Gbps, %llu "
            "nodes), peak outstanding %d/%d\n",
            static_cast<unsigned long long>(dag.trees()), dag.treesPerSec(),
            dag.aggregateGbps(),
            static_cast<unsigned long long>(dag.totalNodes()),
            r.maxOutstanding, s.dag.window);
        std::printf(
            "  tree completion (us): p50 %.1f, p99 %.1f, mean %.1f;   "
            "tree slowdown: p50 %.2f, p99 %.2f\n",
            dag.completionPercentileUs(0.50), dag.completionPercentileUs(0.99),
            dag.completionMeanUs(), dag.slowdownPercentile(0.50),
            dag.slowdownPercentile(0.99));
        std::printf(
            "  trees per root: min %llu / max %llu\n",
            static_cast<unsigned long long>(dag.minRootTrees()),
            static_cast<unsigned long long>(dag.maxRootTrees()));
    }
    return 0;
}
