// The scenario spec grammar as one unit: per-segment keys, the
// composition rules, and seeded properties of the printer/parser pair —
// scenarioFromSpec(scenarioToSpec(s)) rebuilds random valid configs of
// every pattern, and mutated specs fail with a message instead of
// crashing or half-applying.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/random.h"
#include "workload/scenario.h"

namespace homa {
namespace {

TEST(ScenarioSpecKeys, PatternAndOnOffKeysSetTheirFields) {
    ScenarioConfig s;
    ASSERT_TRUE(
        scenarioFromSpec("incast:hotspots=4,degree=8,fraction=0.5", s));
    EXPECT_EQ(s.kind, TrafficPatternKind::Incast);
    EXPECT_EQ(s.hotspots, 4);
    EXPECT_EQ(s.hotspotDegree, 8);
    EXPECT_DOUBLE_EQ(s.hotspotFraction, 0.5);
    ASSERT_TRUE(scenarioFromSpec("rack-skew:local=0.9", s));
    EXPECT_DOUBLE_EQ(s.rackLocalFraction, 0.9);
    ASSERT_TRUE(scenarioFromSpec("pareto:alpha=1.5", s));
    EXPECT_DOUBLE_EQ(s.paretoAlpha, 1.5);
    ASSERT_TRUE(scenarioFromSpec("closed-loop:window=8,think_us=2.5", s));
    EXPECT_EQ(s.closedLoopWindow, 8);
    EXPECT_EQ(s.thinkTime, 2500 * kNanosecond);
    // A piece without '=' continues the previous value: paths and lists
    // may hold commas.
    ASSERT_TRUE(scenarioFromSpec("trace:path=traces/a,b.trace", s));
    EXPECT_EQ(s.tracePath, "traces/a,b.trace");
    ASSERT_TRUE(scenarioFromSpec("dag:resp=16000,2000,depth=2", s));
    EXPECT_EQ(s.dag.stageResponseBytes,
              (std::vector<uint32_t>{16000, 2000}));
    EXPECT_EQ(s.dag.depth, 2);
    ASSERT_TRUE(scenarioFromSpec(
        "incast:hotspots=2+on-off:on_us=50,off_us=150,dist=pareto,shape=2",
        s));
    EXPECT_EQ(s.hotspots, 2);
    EXPECT_TRUE(s.onOff.enabled);
    EXPECT_EQ(s.onOff.onMean, microseconds(50));
    EXPECT_EQ(s.onOff.offMean, microseconds(150));
    EXPECT_EQ(s.onOff.dist, OnOffDist::Pareto);
    EXPECT_DOUBLE_EQ(s.onOff.paretoShape, 2.0);
}

TEST(ScenarioSpecKeys, RejectionsNameTheProblem) {
    struct Case {
        const char* spec;
        const char* expect;
    };
    const Case cases[] = {
        {"incast:fanout=2", "fanout is a key of dag"},
        {"uniform:hotspots=2", "uniform takes no keys"},
        {"uniform+hotspots=2", "outside its segment"},
        {"incast:hotspots=x", "expected an integer, got 'x'"},
        {"dag+closed-loop:window=3", "a spec names one pattern"},
        {"closed-loop:window=0", "window must be >= 1"},
        {"closed-loop:think_us=-1", "non-negative microseconds"},
        {"uniform+on-off:on_us=0", "on_us > 0"},
        {"uniform+on-off:dist=pareto,shape=1", "shape"},
        {"uniform+on-off:dist=weibull", "exp or pareto"},
        {"trace", "needs a schedule"},
        {"uniform+ecmp+topo:racks=1", "no uplinks"},
        {"uniform+topo:racks=2+topo:racks=4", "at most one topo"},
        {"on-off", "cannot come first"},
        {"dag:fanout=100,depth=3", "bad dag config"},
    };
    for (const Case& c : cases) {
        ScenarioConfig untouched;
        untouched.kind = TrafficPatternKind::RackSkew;
        std::string err;
        EXPECT_FALSE(scenarioFromSpec(c.spec, untouched, &err)) << c.spec;
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << c.spec << " gave: " << err;
        EXPECT_EQ(untouched.kind, TrafficPatternKind::RackSkew);
    }
}

// ------------------------------------------------------------ properties

// Every field a spec can express.
void expectSameScenario(const ScenarioConfig& a, const ScenarioConfig& b,
                        const std::string& spec) {
    SCOPED_TRACE(spec);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.hotspots, b.hotspots);
    EXPECT_EQ(a.hotspotDegree, b.hotspotDegree);
    EXPECT_EQ(a.hotspotFraction, b.hotspotFraction);
    EXPECT_EQ(a.rackLocalFraction, b.rackLocalFraction);
    EXPECT_EQ(a.paretoAlpha, b.paretoAlpha);
    EXPECT_EQ(a.tracePath, b.tracePath);
    EXPECT_EQ(a.closedLoopWindow, b.closedLoopWindow);
    EXPECT_EQ(a.thinkTime, b.thinkTime);
    EXPECT_EQ(a.dag.fanout, b.dag.fanout);
    EXPECT_EQ(a.dag.depth, b.dag.depth);
    EXPECT_EQ(a.dag.window, b.dag.window);
    EXPECT_EQ(a.dag.roots, b.dag.roots);
    EXPECT_EQ(a.dag.requestBytes, b.dag.requestBytes);
    EXPECT_EQ(a.dag.stageResponseBytes, b.dag.stageResponseBytes);
    EXPECT_EQ(a.dag.stragglerFraction, b.dag.stragglerFraction);
    EXPECT_EQ(a.dag.stragglerFactor, b.dag.stragglerFactor);
    EXPECT_EQ(a.dag.joinFraction, b.dag.joinFraction);
    EXPECT_EQ(a.onOff.enabled, b.onOff.enabled);
    EXPECT_EQ(a.onOff.onMean, b.onOff.onMean);
    EXPECT_EQ(a.onOff.offMean, b.onOff.offMean);
    EXPECT_EQ(a.onOff.dist, b.onOff.dist);
    EXPECT_EQ(a.onOff.paretoShape, b.onOff.paretoShape);
    EXPECT_EQ(a.ecmpUplinks, b.ecmpUplinks);
    EXPECT_EQ(a.topoSpec, b.topoSpec);
    EXPECT_EQ(a.fluidThresholdBytes, b.fluidThresholdBytes);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (size_t i = 0; i < a.faults.size(); i++) {
        const FaultSpec& f = a.faults[i];
        const FaultSpec& g = b.faults[i];
        EXPECT_EQ(f.kind, g.kind);
        EXPECT_EQ(f.targetKind, g.targetKind);
        EXPECT_EQ(f.targetIndex, g.targetIndex);
        EXPECT_EQ(f.at, g.at);
        EXPECT_EQ(f.duration, g.duration);
        EXPECT_EQ(f.bwFactor, g.bwFactor);
        EXPECT_EQ(f.extraDelay, g.extraDelay);
        EXPECT_EQ(f.dropProb, g.dropProb);
        EXPECT_EQ(f.count, g.count);
        EXPECT_EQ(f.gap, g.gap);
    }
    ASSERT_EQ(a.serving.tenants.size(), b.serving.tenants.size());
    for (size_t i = 0; i < a.serving.tenants.size(); i++) {
        const TenantConfig& t = a.serving.tenants[i];
        const TenantConfig& u = b.serving.tenants[i];
        EXPECT_EQ(t.name, u.name);
        EXPECT_EQ(t.workload, u.workload);
        EXPECT_EQ(t.mode, u.mode);
        EXPECT_EQ(t.load, u.load);
        EXPECT_EQ(t.window, u.window);
        EXPECT_EQ(t.think, u.think);
        EXPECT_EQ(t.clients, u.clients);
        EXPECT_EQ(t.group, u.group);
    }
    ASSERT_EQ(a.serving.groups.size(), b.serving.groups.size());
    for (size_t i = 0; i < a.serving.groups.size(); i++) {
        const ReplicaGroupConfig& g = a.serving.groups[i];
        const ReplicaGroupConfig& h = b.serving.groups[i];
        EXPECT_EQ(g.name, h.name);
        EXPECT_EQ(g.replicas, h.replicas);
        EXPECT_EQ(g.policy, h.policy);
        EXPECT_EQ(g.hedgePercentile, h.hedgePercentile);
        EXPECT_EQ(g.hedgeFloor, h.hedgeFloor);
        EXPECT_EQ(g.hedgeMinSamples, h.hedgeMinSamples);
    }
}

constexpr TrafficPatternKind kAllPatterns[] = {
    TrafficPatternKind::Uniform,       TrafficPatternKind::Permutation,
    TrafficPatternKind::RackSkew,      TrafficPatternKind::Incast,
    TrafficPatternKind::ParetoSenders, TrafficPatternKind::TraceReplay,
    TrafficPatternKind::ClosedLoop,    TrafficPatternKind::Dag,
};

// Whole nanoseconds: faultSpecToString prints durations to the ns (and
// bw/drop to 6 significant digits), so fault values stay on that grain.
std::string nsText(Rng& rng, int64_t maxNs) {
    return std::to_string(rng.range(1, maxNs)) + "ns";
}

FaultSpec randomFault(Rng& rng) {
    static const char* kTargets[] = {"host", "tor", "aggr", "core"};
    std::string body;
    const std::string target =
        kTargets[rng.below(4)] + std::to_string(rng.below(20));
    const std::string at = ",at=" + nsText(rng, 10'000'000);
    switch (rng.below(4)) {
        case 0:
            body = "flap=" + target + at + ",for=" + nsText(rng, 5'000'000);
            break;
        case 1:
            body = "kill=" + target + at;
            break;
        case 2:
            body = "degrade=" + target + at +
                   ",bw=" + std::to_string(rng.range(1, 100)) + "e-2" +
                   ",drop=" + std::to_string(rng.below(1000)) + "e-3";
            if (rng.chance(0.5)) body += ",for=" + nsText(rng, 5'000'000);
            if (rng.chance(0.5)) body += ",delay=" + nsText(rng, 100'000);
            break;
        default:
            body = "flap-train=" + target + at +
                   ",count=" + std::to_string(rng.range(1, 10)) +
                   ",gap=" + nsText(rng, 5'000'000) +
                   ",for=" + nsText(rng, 1'000'000);
            break;
    }
    FaultSpec f;
    std::string err;
    EXPECT_TRUE(parseFaultSpec(body, f, &err)) << body << ": " << err;
    return f;
}

// Tenants and groups (names and references well-formed, values
// arbitrary: the serving printers are exact).
ServingConfig randomServing(Rng& rng) {
    ServingConfig sv;
    const int groups = static_cast<int>(rng.below(3));
    for (int g = 0; g < groups; g++) {
        ReplicaGroupConfig grp;
        grp.name = "g" + std::to_string(g);
        grp.replicas = static_cast<int>(rng.below(5));
        grp.policy = static_cast<LbPolicy>(rng.below(3));
        if (rng.chance(0.5)) {
            grp.hedgePercentile = static_cast<double>(rng.range(1, 99)) / 100;
            grp.hedgeFloor = rng.range(0, 1'000'000'000);
            grp.hedgeMinSamples = static_cast<int>(rng.range(1, 64));
        }
        sv.groups.push_back(grp);
    }
    const int tenants = static_cast<int>(rng.range(1, 3));
    for (int t = 0; t < tenants; t++) {
        TenantConfig tc;
        tc.name = "t" + std::to_string(t);
        tc.workload = kAllWorkloads[rng.below(5)];
        if (rng.chance(0.5)) {
            tc.mode = ArrivalMode::Closed;
            tc.window = static_cast<int>(rng.range(1, 16));
            tc.think = rng.range(0, 1'000'000'000);
        } else {
            tc.load = rng.uniform(0.01, 1.5);
        }
        tc.clients = static_cast<int>(rng.range(1, 4));
        if (groups > 0 && rng.chance(0.5)) {
            tc.group = "g" + std::to_string(rng.below(groups));
        }
        sv.tenants.push_back(tc);
    }
    return sv;
}

ScenarioConfig randomScenario(TrafficPatternKind kind, Rng& rng) {
    ScenarioConfig s;
    s.kind = kind;
    switch (kind) {
        case TrafficPatternKind::Incast:
            s.hotspots = static_cast<int>(rng.range(1, 8));
            s.hotspotDegree = static_cast<int>(rng.range(0, 32));
            s.hotspotFraction = rng.uniform();
            break;
        case TrafficPatternKind::RackSkew:
            s.rackLocalFraction = rng.uniform();
            break;
        case TrafficPatternKind::ParetoSenders:
            s.paretoAlpha = rng.uniform(0.1, 3.0);
            break;
        case TrafficPatternKind::TraceReplay:
            s.tracePath = "traces/t" + std::to_string(rng.below(100)) +
                          (rng.chance(0.5) ? ",x.trace" : ".trace");
            break;
        case TrafficPatternKind::ClosedLoop:
            s.closedLoopWindow = static_cast<int>(rng.range(1, 64));
            s.thinkTime = rng.range(0, 1'000'000'000);
            break;
        case TrafficPatternKind::Dag:
            s.dag.fanout = static_cast<int>(rng.range(1, 6));
            s.dag.depth = static_cast<int>(rng.range(1, 3));
            s.dag.window = static_cast<int>(rng.range(1, 4));
            s.dag.roots = static_cast<int>(rng.range(0, 8));
            s.dag.requestBytes = static_cast<uint32_t>(rng.range(1, 1'000'000));
            for (int i = static_cast<int>(rng.below(4)); i > 0; i--) {
                s.dag.stageResponseBytes.push_back(
                    static_cast<uint32_t>(rng.range(1, 100'000)));
            }
            s.dag.stragglerFraction = rng.uniform();
            s.dag.stragglerFactor = rng.uniform(1.0, 50.0);
            s.dag.joinFraction = rng.uniform();
            break;
        default:
            break;
    }
    static const char* kTopos[] = {
        "racks=8,hosts=4,aggr=2,core=2,oversub=4", "racks=2,hosts=8",
        "racks=1,hosts=16,aggr=0", "racks=4,hosts=4,aggr=2,core=1,oversub=2.5"};
    if (rng.chance(0.3)) s.topoSpec = kTopos[rng.below(4)];
    if (kind == TrafficPatternKind::Uniform && rng.chance(0.4)) {
        s.serving = randomServing(rng);  // tenants take topo: only
        return s;
    }
    if (kind != TrafficPatternKind::TraceReplay && rng.chance(0.5)) {
        s.onOff.enabled = true;
        s.onOff.onMean = rng.range(1, 1'000'000'000);
        s.onOff.offMean = rng.range(0, 1'000'000'000);
        s.onOff.dist = rng.chance(0.5) ? OnOffDist::Pareto
                                       : OnOffDist::Exponential;
        s.onOff.paretoShape = rng.uniform(1.01, 4.0);
    }
    s.ecmpUplinks = s.topoSpec != kTopos[2] && rng.chance(0.3);
    if (rng.chance(0.3)) {
        s.fluidThresholdBytes = rng.range(0, 1'000'000);
    } else {
        for (int i = static_cast<int>(rng.below(3)); i > 0; i--) {
            s.faults.push_back(randomFault(rng));
        }
    }
    return s;
}

TEST(ScenarioSpecProperty, PrinterAndParserAreInversesForEveryPattern) {
    for (uint64_t seed : {1, 2, 3}) {
        Rng rng(seed);
        for (int i = 0; i < 2000; i++) {
            const ScenarioConfig s =
                randomScenario(kAllPatterns[i % 8], rng);
            const std::string spec = scenarioToSpec(s);
            ScenarioConfig parsed;
            std::string err;
            ASSERT_TRUE(scenarioFromSpec(spec, parsed, &err))
                << spec << ": " << err;
            expectSameScenario(s, parsed, spec);
            if (HasFailure()) return;
        }
    }
}

std::string mutate(const std::string& spec, Rng& rng) {
    static const std::string kChars =
        "+:,=/;-._0123456789abcdefghijklmnopqrstuvwxyzWpe ";
    std::string m = spec;
    const size_t at = rng.below(m.size() + 1);
    const char c = kChars[rng.below(kChars.size())];
    switch (rng.below(5)) {
        case 0:
            if (at < m.size()) m.erase(at, 1);
            break;
        case 1:
            m.insert(at, 1, c);
            break;
        case 2:
            if (at < m.size()) m[at] = c;
            break;
        case 3:
            m.resize(at);
            break;
        default: {
            // Repeat one '+'-segment: duplicates and misplaced heads.
            const std::vector<std::string> segs = splitSpec(m, '+');
            m += "+" + segs[rng.below(segs.size())];
            break;
        }
    }
    return m;
}

TEST(ScenarioSpecProperty, MutatedSpecsFailWithAMessageOrStayCanonical) {
    int rejected = 0, total = 0;
    for (uint64_t seed : {11, 12, 13}) {
        Rng rng(seed);
        for (int i = 0; i < 1500; i++) {
            const std::string spec =
                scenarioToSpec(randomScenario(kAllPatterns[i % 8], rng));
            for (int j = 0; j < 4; j++) {
                const std::string m = mutate(spec, rng);
                ScenarioConfig out;
                out.kind = TrafficPatternKind::RackSkew;
                out.rackLocalFraction = 0.25;
                std::string err;
                total++;
                if (!scenarioFromSpec(m, out, &err)) {
                    rejected++;
                    EXPECT_FALSE(err.empty()) << m;
                    EXPECT_EQ(out.kind, TrafficPatternKind::RackSkew) << m;
                    EXPECT_EQ(out.rackLocalFraction, 0.25) << m;
                    continue;
                }
                // An accepted mutant prints to a spec that parses back to
                // the same canonical form.
                const std::string canonical = scenarioToSpec(out);
                ScenarioConfig again;
                ASSERT_TRUE(scenarioFromSpec(canonical, again, &err))
                    << m << " printed as " << canonical << ": " << err;
                EXPECT_EQ(scenarioToSpec(again), canonical) << m;
            }
            if (HasFailure()) return;
        }
    }
    // Most single edits break a spec; the property is not vacuous.
    EXPECT_GT(rejected, total / 4);
}

}  // namespace
}  // namespace homa
