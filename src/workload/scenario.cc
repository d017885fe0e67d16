#include "workload/scenario.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace homa {

const char* patternName(TrafficPatternKind kind) {
    switch (kind) {
        case TrafficPatternKind::Uniform: return "uniform";
        case TrafficPatternKind::Permutation: return "permutation";
        case TrafficPatternKind::RackSkew: return "rack-skew";
        case TrafficPatternKind::Incast: return "incast";
        case TrafficPatternKind::ParetoSenders: return "pareto";
        case TrafficPatternKind::TraceReplay: return "trace";
        case TrafficPatternKind::ClosedLoop: return "closed-loop";
        case TrafficPatternKind::Dag: return "dag";
    }
    return "?";
}

bool patternFromName(const std::string& name, TrafficPatternKind& out) {
    for (TrafficPatternKind k :
         {TrafficPatternKind::Uniform, TrafficPatternKind::Permutation,
          TrafficPatternKind::RackSkew, TrafficPatternKind::Incast,
          TrafficPatternKind::ParetoSenders, TrafficPatternKind::TraceReplay,
          TrafficPatternKind::ClosedLoop, TrafficPatternKind::Dag}) {
        if (name == patternName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const char* onOffDistName(OnOffDist d) {
    switch (d) {
        case OnOffDist::Exponential: return "exp";
        case OnOffDist::Pareto: return "pareto";
    }
    return "?";
}

bool onOffDistFromName(const std::string& name, OnOffDist& out) {
    for (OnOffDist d : {OnOffDist::Exponential, OnOffDist::Pareto}) {
        if (name == onOffDistName(d)) {
            out = d;
            return true;
        }
    }
    return false;
}

bool parseSpecInt64(const std::string& v, int64_t& out) {
    if (v.empty()) return false;
    char* end = nullptr;
    errno = 0;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE) return false;
    out = n;
    return true;
}

bool parseSpecInt(const std::string& v, int& out) {
    int64_t n = 0;
    if (!parseSpecInt64(v, n) || n < INT_MIN || n > INT_MAX) return false;
    out = static_cast<int>(n);
    return true;
}

bool parseSpecUint64(const std::string& v, uint64_t& out) {
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
        return false;
    }
    errno = 0;
    const unsigned long long n = std::strtoull(v.c_str(), nullptr, 10);
    if (errno == ERANGE) return false;
    out = n;
    return true;
}

bool parseSpecBytes(const std::string& v, uint32_t& out) {
    uint64_t n = 0;
    if (!parseSpecUint64(v, n) || n < 1 || n > 0xFFFFFFFFull) return false;
    out = static_cast<uint32_t>(n);
    return true;
}

bool parseSpecDouble(const std::string& v, double& out) {
    if (v.empty()) return false;
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (*end != '\0' || !std::isfinite(d)) return false;
    out = d;
    return true;
}

std::vector<std::string> splitSpec(const std::string& text, char sep) {
    std::vector<std::string> out;
    size_t pos = 0;
    for (;;) {
        const size_t at = std::min(text.find(sep, pos), text.size());
        out.push_back(text.substr(pos, at - pos));
        if (at == text.size()) return out;
        pos = at + 1;
    }
}

bool parseSpecMicros(const std::string& v, Duration& out) {
    double us = 0;
    if (!parseSpecDouble(v, us) || us < 0 || us > 1e9) return false;
    out = std::llround(us * static_cast<double>(kMicrosecond));
    return true;
}

std::string formatSpecNumber(double v) {
    char buf[32];
    for (int digits = 6; digits <= 17; digits++) {
        std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
        if (std::strtod(buf, nullptr) == v) break;
    }
    std::string s = buf;
    s.erase(std::remove(s.begin(), s.end(), '+'), s.end());  // "1e+20"
    return s;
}

namespace {

bool parseByteList(const std::string& v, std::vector<uint32_t>& out) {
    std::vector<uint32_t> list;
    for (const std::string& item : splitSpec(v, v.find('/') == std::string::npos
                                                  ? ','
                                                  : '/')) {
        uint32_t bytes = 0;
        if (!parseSpecBytes(item, bytes)) return false;
        list.push_back(bytes);
    }
    out = std::move(list);
    return true;
}

std::string fmtByteList(const std::vector<uint32_t>& list) {
    std::string s;
    for (uint32_t b : list) s += (s.empty() ? "" : "/") + std::to_string(b);
    return s;
}

// One k=v key of a keyed segment head: what its value must look like, and
// how it writes into / reads from the config (the reader drives
// scenarioToSpec, so every key round-trips by construction). Pattern
// heads come first, so a key's first owner is the pattern it names.
struct SpecKey {
    const char* head;
    const char* key;
    const char* expect;
    bool (*set)(const std::string& value, ScenarioConfig& s);
    std::string (*get)(const ScenarioConfig& s);
};

const SpecKey kSpecKeys[] = {
    {"incast", "hotspots", "an integer",
     [](auto& v, auto& s) { return parseSpecInt(v, s.hotspots); },
     [](auto& s) { return std::to_string(s.hotspots); }},
    {"incast", "degree", "an integer",
     [](auto& v, auto& s) { return parseSpecInt(v, s.hotspotDegree); },
     [](auto& s) { return std::to_string(s.hotspotDegree); }},
    {"incast", "fraction", "a number",
     [](auto& v, auto& s) { return parseSpecDouble(v, s.hotspotFraction); },
     [](auto& s) { return formatSpecNumber(s.hotspotFraction); }},
    {"rack-skew", "local", "a number",
     [](auto& v, auto& s) { return parseSpecDouble(v, s.rackLocalFraction); },
     [](auto& s) { return formatSpecNumber(s.rackLocalFraction); }},
    {"pareto", "alpha", "a number",
     [](auto& v, auto& s) { return parseSpecDouble(v, s.paretoAlpha); },
     [](auto& s) { return formatSpecNumber(s.paretoAlpha); }},
    {"trace", "path", "a file path",
     [](auto& v, auto& s) { s.tracePath = v; return !v.empty(); },
     [](auto& s) { return s.tracePath; }},
    {"closed-loop", "window", "an integer",
     [](auto& v, auto& s) { return parseSpecInt(v, s.closedLoopWindow); },
     [](auto& s) { return std::to_string(s.closedLoopWindow); }},
    {"closed-loop", "think_us", "non-negative microseconds",
     [](auto& v, auto& s) { return parseSpecMicros(v, s.thinkTime); },
     [](auto& s) { return formatSpecNumber(toMicros(s.thinkTime)); }},
    {"dag", "fanout", "an integer",
     [](auto& v, auto& s) { return parseSpecInt(v, s.dag.fanout); },
     [](auto& s) { return std::to_string(s.dag.fanout); }},
    {"dag", "depth", "an integer",
     [](auto& v, auto& s) { return parseSpecInt(v, s.dag.depth); },
     [](auto& s) { return std::to_string(s.dag.depth); }},
    {"dag", "window", "an integer",
     [](auto& v, auto& s) { return parseSpecInt(v, s.dag.window); },
     [](auto& s) { return std::to_string(s.dag.window); }},
    {"dag", "roots", "an integer",
     [](auto& v, auto& s) { return parseSpecInt(v, s.dag.roots); },
     [](auto& s) { return std::to_string(s.dag.roots); }},
    {"dag", "req", "bytes in [1, 2^32)",
     [](auto& v, auto& s) { return parseSpecBytes(v, s.dag.requestBytes); },
     [](auto& s) { return std::to_string(s.dag.requestBytes); }},
    {"dag", "resp", "a '/'- or ','-separated list of bytes in [1, 2^32)",
     [](auto& v, auto& s) {
         return parseByteList(v, s.dag.stageResponseBytes);
     },
     [](auto& s) { return fmtByteList(s.dag.stageResponseBytes); }},
    {"dag", "straggler", "a number",
     [](auto& v, auto& s) {
         return parseSpecDouble(v, s.dag.stragglerFraction);
     },
     [](auto& s) { return formatSpecNumber(s.dag.stragglerFraction); }},
    {"dag", "factor", "a number",
     [](auto& v, auto& s) { return parseSpecDouble(v, s.dag.stragglerFactor); },
     [](auto& s) { return formatSpecNumber(s.dag.stragglerFactor); }},
    {"dag", "join", "a number",
     [](auto& v, auto& s) { return parseSpecDouble(v, s.dag.joinFraction); },
     [](auto& s) { return formatSpecNumber(s.dag.joinFraction); }},
    {"on-off", "on_us", "non-negative microseconds",
     [](auto& v, auto& s) { return parseSpecMicros(v, s.onOff.onMean); },
     [](auto& s) { return formatSpecNumber(toMicros(s.onOff.onMean)); }},
    {"on-off", "off_us", "non-negative microseconds",
     [](auto& v, auto& s) { return parseSpecMicros(v, s.onOff.offMean); },
     [](auto& s) { return formatSpecNumber(toMicros(s.onOff.offMean)); }},
    {"on-off", "dist", "exp or pareto",
     [](auto& v, auto& s) { return onOffDistFromName(v, s.onOff.dist); },
     [](auto& s) { return std::string(onOffDistName(s.onOff.dist)); }},
    {"on-off", "shape", "a number",
     [](auto& v, auto& s) { return parseSpecDouble(v, s.onOff.paretoShape); },
     [](auto& s) { return formatSpecNumber(s.onOff.paretoShape); }},
};

// "a, b, c": the heads that own `key`, or the keys `head` takes.
std::string keyOwners(const std::string& key) {
    std::string s;
    for (const SpecKey& k : kSpecKeys) {
        if (key == k.key) s += (s.empty() ? "" : ", ") + std::string(k.head);
    }
    return s;
}

std::string keysOf(const std::string& head) {
    std::string s;
    for (const SpecKey& k : kSpecKeys) {
        if (head == k.head) s += (s.empty() ? "" : ", ") + std::string(k.key);
    }
    return s;
}

// Applies a keyed segment's "k=v,k=v" body. A piece without '=' continues
// the previous value, so lists and paths may hold commas.
bool applyKeys(const std::string& head, const std::string& body,
               ScenarioConfig& s, std::string& why) {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const std::string& piece : splitSpec(body, ',')) {
        const size_t eq = piece.find('=');
        if (eq != std::string::npos) {
            pairs.emplace_back(piece.substr(0, eq), piece.substr(eq + 1));
        } else if (!pairs.empty()) {
            pairs.back().second += "," + piece;
        } else {
            why = head + ": expected k=v, got '" + piece + "'";
            return false;
        }
    }
    for (const auto& [key, value] : pairs) {
        const SpecKey* spec = nullptr;
        for (const SpecKey& k : kSpecKeys) {
            if (head == k.head && key == k.key) spec = &k;
        }
        if (spec == nullptr) {
            const std::string keys = keysOf(head);
            const std::string owners = keyOwners(key);
            why = "unknown " + head + " key '" + key + "' (" +
                  (keys.empty() ? head + " takes no keys" : "keys: " + keys) +
                  (owners.empty() ? ""
                                  : "; " + key + " is a key of " + owners) +
                  ")";
            return false;
        }
        if (!spec->set(value, s)) {
            why = head + " key " + key + ": expected " + spec->expect +
                  ", got '" + value + "'";
            return false;
        }
    }
    return true;
}

// Why a segment cannot ride along with tenants; any other pattern gets
// the generic reason.
const std::pair<const char*, const char*> kServingClashes[] = {
    {"dag", "serving mode and dag mode are separate RPC harnesses"},
    {"trace", "tenants issue their own RPCs, a replayed schedule cannot"},
    {"closed-loop",
     "closed-loop tenants set mode=closed,window=N,think_us=F in the "
     "tenant spec"},
    {"on-off", "each tenant carries its own arrival mode"},
    {"fault", "the serving harness's call ledgers assume a fault-free fabric"},
    {"fluid", "serving runs account per RPC on the packet engine"},
    {"ecmp", "the RPC harness runs the paper's per-packet spraying"},
};

std::string servingClash(const std::string& head, const std::string& what) {
    std::string reason = "tenant configs own destination choice and "
                         "arrival modes";
    for (const auto& [h, why] : kServingClashes) {
        if (head == h) reason = why;
    }
    return "tenants do not compose with " + what + ": " + reason;
}

}  // namespace

bool scenarioFromSpec(const std::string& spec, ScenarioConfig& out,
                      std::string* err) {
    auto fail = [err](const std::string& why) {
        if (err) *err = why;
        return false;
    };
    // Split on '+': the first segment is the pattern, the rest modifiers.
    const std::vector<std::string> segs = splitSpec(spec, '+');
    const bool serving =
        std::any_of(segs.begin(), segs.end(), [](const std::string& seg) {
            return seg.rfind("tenants:", 0) == 0;
        });

    ScenarioConfig parsed;
    bool singleRackTopo = false;
    std::string why;
    for (size_t i = 0; i < segs.size(); i++) {
        const std::string& seg = segs[i];
        const size_t colon = seg.find(':');
        const bool keyed = colon != std::string::npos;
        const std::string head = seg.substr(0, colon);
        const std::string body = keyed ? seg.substr(colon + 1) : "";
        if (!keyed && seg.find('=') != std::string::npos) {
            // "incast+hotspots=2": a key cut off from its segment head.
            const std::string key = seg.substr(0, seg.find('='));
            const std::string owners = keyOwners(key);
            const std::string owner = owners.substr(0, owners.find(','));
            if (serving && !owner.empty()) {
                return fail(servingClash(owner,
                                         owner + " key '" + seg + "'"));
            }
            return fail("key '" + seg + "' is outside its segment: keys "
                        "follow their segment head and ':'" +
                        (owners.empty() ? std::string()
                                        : " (" + key + " is a key of " +
                                              owners + ")"));
        }
        TrafficPatternKind kind = TrafficPatternKind::Uniform;
        const bool isPattern = patternFromName(head, kind);
        if (i == 0) {
            if (!isPattern) {
                for (const char* mod : {"on-off", "ecmp", "topo", "fluid",
                                        "fault", "tenants", "replicas"}) {
                    if (head == mod) {
                        return fail("a " + head + " segment cannot come "
                                    "first: a spec starts with its pattern "
                                    "(e.g. \"uniform+" + seg + "\")");
                    }
                }
                return fail("unknown pattern '" + head + "'");
            }
            parsed.kind = kind;
            if (keyed && !applyKeys(head, body, parsed, why)) return fail(why);
        } else if (isPattern) {
            return fail("pattern '" + head + "' after pattern '" +
                        patternName(parsed.kind) +
                        "': a spec names one pattern, in its first segment");
        } else if (head == "on-off") {
            parsed.onOff.enabled = true;
            if (keyed && !applyKeys(head, body, parsed, why)) return fail(why);
        } else if (seg == "ecmp") {
            parsed.ecmpUplinks = true;
        } else if (head == "fault" && keyed) {
            FaultSpec fs;
            std::string ferr;
            if (!parseFaultSpec(body, fs, &ferr)) {
                return fail("bad fault spec '" + body + "': " + ferr);
            }
            parsed.faults.push_back(fs);
        } else if (head == "topo" && keyed) {
            if (!parsed.topoSpec.empty()) {
                return fail("at most one topo: segment per scenario (got '" +
                            parsed.topoSpec + "' and '" + body + "')");
            }
            // Eager validation against the default base so a bad spec fails
            // at parse time, not mid-experiment. The stored body re-applies
            // over the experiment's actual base config in runExperiment.
            NetworkConfig probe = NetworkConfig::fatTree144();
            std::string terr;
            if (!parseTopoSpec(body, probe, &terr)) {
                return fail("bad topo spec '" + body + "': " + terr);
            }
            parsed.topoSpec = body;
            singleRackTopo = probe.singleRack();
        } else if (head == "fluid" && keyed) {
            if (parsed.fluidThresholdBytes >= 0) {
                return fail("at most one fluid: segment per scenario");
            }
            if (body.find_first_not_of("0123456789") != std::string::npos ||
                !parseSpecInt64(body, parsed.fluidThresholdBytes)) {
                return fail("bad fluid threshold '" + body +
                            "' (expected a non-negative byte count, e.g. "
                            "fluid:20000; 0 = everything fluid)");
            }
        } else if (head == "tenants" && keyed) {
            if (!parsed.serving.tenants.empty()) {
                return fail("at most one tenants: segment per scenario");
            }
            std::string terr;
            if (!parseTenantsSpec(body, parsed.serving.tenants, &terr)) {
                return fail("bad tenants spec '" + body + "': " + terr);
            }
        } else if (head == "replicas" && keyed) {
            if (!parsed.serving.groups.empty()) {
                return fail("at most one replicas: segment per scenario");
            }
            std::string rerr;
            if (!parseReplicasSpec(body, parsed.serving.groups, &rerr)) {
                return fail("bad replicas spec '" + body + "': " + rerr);
            }
        } else {
            return fail("unknown scenario modifier '" + seg +
                        "' (expected on-off[:...], ecmp, topo:..., "
                        "fluid:<bytes>, fault:..., tenants:..., or "
                        "replicas:...)");
        }
    }

    if (parsed.serving.enabled()) {
        if (parsed.kind != TrafficPatternKind::Uniform) {
            const std::string name = patternName(parsed.kind);
            return fail(servingClash(
                name, "pattern '" + name + "' (they require the 'uniform' "
                      "pattern placeholder)"));
        }
        if (parsed.onOff.enabled) return fail(servingClash("on-off", "on-off"));
        if (!parsed.faults.empty()) {
            return fail(servingClash("fault", "fault injection"));
        }
        if (parsed.fluidThresholdBytes >= 0) {
            return fail(servingClash("fluid", "fluid"));
        }
        if (parsed.ecmpUplinks) return fail(servingClash("ecmp", "ecmp"));
        // Validate group references eagerly (host counts are checked at
        // run time against the actual topology).
        for (const TenantConfig& t : parsed.serving.tenants) {
            if (tenantGroupIndex(parsed.serving, t) < 0) {
                return fail("tenant '" + t.name + "' references unknown "
                            "replica group '" + t.group + "'");
            }
        }
    }
    if (!parsed.serving.groups.empty() && parsed.serving.tenants.empty()) {
        return fail("a replicas: segment requires a tenants: segment "
                    "(replica groups without tenants serve nobody)");
    }
    if (parsed.kind == TrafficPatternKind::TraceReplay) {
        if (parsed.tracePath.empty()) {
            return fail("pattern 'trace' needs a schedule: "
                        "trace:path=<file>");
        }
        if (parsed.onOff.enabled) {
            return fail("trace does not compose with on-off: the trace "
                        "carries its own timing");
        }
    }
    if (parsed.fluidThresholdBytes >= 0 && !parsed.faults.empty()) {
        return fail("fluid does not compose with fault injection: fluid "
                    "flows bypass the switches faults act on");
    }
    if (parsed.ecmpUplinks && singleRackTopo) {
        return fail("ecmp does not compose with the single-rack topo '" +
                    parsed.topoSpec + "': a single rack has no uplinks to "
                    "hash across");
    }
    if (parsed.closedLoopWindow < 1) {
        return fail("closed-loop window must be >= 1");
    }
    const OnOffConfig& onOff = parsed.onOff;
    if (onOff.onMean <= 0 ||
        (onOff.dist == OnOffDist::Pareto && onOff.paretoShape <= 1.0)) {
        return fail("on-off needs on_us > 0 and, for dist=pareto, a shape "
                    "> 1");
    }
    if (const char* bad = validateDagConfig(parsed.dag)) {
        return fail(std::string("bad dag config: ") + bad);
    }
    out = parsed;
    return true;
}

std::string scenarioToSpec(const ScenarioConfig& s) {
    const ScenarioConfig defaults;
    // "<head>[:k=v,...]" over the keys that differ from the defaults.
    auto keyed = [&](const std::string& head) {
        std::string seg = head;
        for (const SpecKey& k : kSpecKeys) {
            if (head != k.head || k.get(s) == k.get(defaults)) continue;
            seg += (seg.size() == head.size() ? ":" : ",") +
                   std::string(k.key) + "=" + k.get(s);
        }
        return seg;
    };
    std::string spec = keyed(patternName(s.kind));
    if (s.onOff.enabled) spec += "+" + keyed("on-off");
    if (s.ecmpUplinks) spec += "+ecmp";
    if (!s.topoSpec.empty()) spec += "+topo:" + s.topoSpec;
    if (s.fluidThresholdBytes >= 0) {
        spec += "+fluid:" + std::to_string(s.fluidThresholdBytes);
    }
    for (const FaultSpec& f : s.faults) spec += "+fault:" + faultSpecToString(f);
    if (!s.serving.tenants.empty()) {
        spec += "+tenants:" + tenantsSpecToString(s.serving.tenants);
    }
    if (!s.serving.groups.empty()) {
        spec += "+replicas:" + replicasSpecToString(s.serving.groups);
    }
    return spec;
}

OnOffModulator::OnOffModulator(const OnOffConfig& cfg, Time start,
                               uint64_t seed)
    : cfg_(cfg), rng_(seed) {
    assert(cfg_.onMean > 0 && cfg_.offMean >= 0);
    assert(cfg_.dist != OnOffDist::Pareto || cfg_.paretoShape > 1.0);
    // Stationary initial phase: ON with probability dutyCycle, and the
    // residual period life re-sampled from the full-period distribution
    // (exact for exponential periods, by memorylessness).
    on_ = rng_.chance(cfg_.dutyCycle());
    periodEnd_ = start + samplePeriod(on_);
    cursor_ = start;
}

Duration OnOffModulator::samplePeriod(bool on) {
    const double mean = toSeconds(on ? cfg_.onMean : cfg_.offMean);
    double seconds;
    if (cfg_.dist == OnOffDist::Exponential) {
        seconds = rng_.exponential(mean);
    } else {
        // Pareto with mean `mean` and shape a: scale xm = mean*(a-1)/a,
        // sample xm * u^(-1/a) with u uniform in (0, 1].
        const double a = cfg_.paretoShape;
        const double xm = mean * (a - 1.0) / a;
        const double u = 1.0 - rng_.uniform();  // (0, 1]
        seconds = xm * std::pow(u, -1.0 / a);
    }
    return std::max<Duration>(
        1, static_cast<Duration>(seconds * static_cast<double>(kSecond)));
}

Time OnOffModulator::advance(Duration onDelay) {
    for (;;) {
        if (on_) {
            const Duration available = periodEnd_ - cursor_;
            if (onDelay < available) {
                cursor_ += onDelay;
                return cursor_;
            }
            onDelay -= available;
        }
        // Burst exhausted (or currently idle): skip to the next period.
        cursor_ = periodEnd_;
        on_ = !on_;
        periodEnd_ = cursor_ + samplePeriod(on_);
    }
}

Time OnOffModulator::gate(Time now) {
    while (periodEnd_ <= now) {
        on_ = !on_;
        periodEnd_ += samplePeriod(on_);
    }
    return on_ ? now : periodEnd_;
}

namespace {

[[noreturn]] void traceError(size_t line, const char* what) {
    std::fprintf(stderr, "trace line %zu: %s\n", line, what);
    std::exit(2);
}

/// Uniform destination over all hosts except `src`.
HostId uniformDst(HostId src, int hostCount, Rng& rng) {
    return uniformHostExcept(hostCount, src, rng);
}

class UniformPattern final : public TrafficPattern {
public:
    explicit UniformPattern(int hostCount) : hosts_(hostCount) {}
    TrafficPatternKind kind() const override {
        return TrafficPatternKind::Uniform;
    }
    HostId pickDestination(HostId src, Rng& rng) const override {
        return uniformDst(src, hosts_, rng);
    }

private:
    int hosts_;
};

class PermutationPattern final : public TrafficPattern {
public:
    PermutationPattern(int hostCount, uint64_t seed) : dst_(hostCount) {
        // Sattolo's algorithm: a uniform single-cycle permutation, so no
        // host sends to itself and every host receives from exactly one.
        Rng rng(seed);
        std::vector<HostId> p(hostCount);
        for (int i = 0; i < hostCount; i++) p[i] = static_cast<HostId>(i);
        for (int i = hostCount - 1; i > 0; i--) {
            const int j = static_cast<int>(rng.below(static_cast<uint64_t>(i)));
            std::swap(p[i], p[j]);
        }
        dst_ = std::move(p);
    }
    TrafficPatternKind kind() const override {
        return TrafficPatternKind::Permutation;
    }
    HostId pickDestination(HostId src, Rng&) const override {
        return dst_[src];
    }

private:
    std::vector<HostId> dst_;
};

class RackSkewPattern final : public TrafficPattern {
public:
    RackSkewPattern(int hostCount, int hostsPerRack, double localFraction)
        : hosts_(hostCount),
          perRack_(hostsPerRack),
          local_(perRack_ > 1 ? localFraction : 0.0) {}
    TrafficPatternKind kind() const override {
        return TrafficPatternKind::RackSkew;
    }
    HostId pickDestination(HostId src, Rng& rng) const override {
        if (rng.chance(local_)) {
            const HostId rackBase = src / perRack_ * perRack_;
            HostId dst = rackBase + static_cast<HostId>(rng.below(perRack_ - 1));
            if (dst >= src) dst++;
            return dst;
        }
        return uniformDst(src, hosts_, rng);
    }

private:
    int hosts_;
    int perRack_;
    double local_;
};

class IncastPattern final : public TrafficPattern {
public:
    IncastPattern(const ScenarioConfig& cfg, int hostCount)
        : hosts_(hostCount), fraction_(cfg.hotspotFraction) {
        // Every hotspot needs at least one dedicated sender, so the
        // hotspot count caps at half the cluster and the fan-in degree at
        // the senders available per hotspot. Hot receivers are hosts
        // [0, hot); their senders are assigned round-robin from the
        // remaining hosts so groups span racks.
        const int hot = std::clamp(cfg.hotspots, 1, hostCount / 2);
        const int perHot = (hostCount - hot) / hot;  // >= 1
        int degree = cfg.hotspotDegree <= 0 ? perHot : cfg.hotspotDegree;
        degree = std::clamp(degree, 1, perHot);
        target_.assign(hostCount, kNone);
        for (int i = 0; i < hot * degree; i++) {
            target_[hot + i] = static_cast<HostId>(i % hot);
        }
    }
    TrafficPatternKind kind() const override {
        return TrafficPatternKind::Incast;
    }
    HostId pickDestination(HostId src, Rng& rng) const override {
        const HostId hot = target_[src];
        if (hot != kNone && rng.chance(fraction_)) return hot;
        return uniformDst(src, hosts_, rng);
    }
    /// Fan-in target of `src`, or -1 when `src` is background traffic.
    HostId targetOf(HostId src) const { return target_[src]; }

private:
    static constexpr HostId kNone = -1;
    int hosts_;
    double fraction_;
    std::vector<HostId> target_;
};

class ParetoSendersPattern final : public TrafficPattern {
public:
    ParetoSendersPattern(int hostCount, double alpha, uint64_t seed)
        : hosts_(hostCount), weight_(hostCount) {
        // Popularity rank is a deterministic shuffle of the hosts; the
        // k-th most popular sender gets weight (k+1)^-alpha. The generator
        // renormalizes, so only relative magnitudes matter here.
        Rng rng(seed);
        std::vector<int> rank(hostCount);
        for (int i = 0; i < hostCount; i++) rank[i] = i;
        for (int i = hostCount - 1; i > 0; i--) {
            const int j =
                static_cast<int>(rng.below(static_cast<uint64_t>(i + 1)));
            std::swap(rank[i], rank[j]);
        }
        for (int i = 0; i < hostCount; i++) {
            weight_[rank[i]] = std::pow(static_cast<double>(i + 1), -alpha);
        }
    }
    TrafficPatternKind kind() const override {
        return TrafficPatternKind::ParetoSenders;
    }
    double senderWeight(HostId h) const override { return weight_[h]; }
    HostId pickDestination(HostId src, Rng& rng) const override {
        return uniformDst(src, hosts_, rng);
    }

private:
    int hosts_;
    std::vector<double> weight_;
};

// Closed-loop clients pick servers uniformly (the §5.1 client/server echo
// setup); the arrival process — window refill on delivery — lives in
// TrafficGenerator, which keys off kind() == ClosedLoop.
class ClosedLoopPattern final : public TrafficPattern {
public:
    explicit ClosedLoopPattern(int hostCount) : hosts_(hostCount) {}
    TrafficPatternKind kind() const override {
        return TrafficPatternKind::ClosedLoop;
    }
    HostId pickDestination(HostId src, Rng& rng) const override {
        return uniformDst(src, hosts_, rng);
    }

private:
    int hosts_;
};

// Dag destinations are chosen per tree node by the DagEngine (uniform,
// never the parent's host); the pattern object only carries the kind.
class DagPattern final : public TrafficPattern {
public:
    explicit DagPattern(int hostCount) : hosts_(hostCount) {}
    TrafficPatternKind kind() const override {
        return TrafficPatternKind::Dag;
    }
    HostId pickDestination(HostId src, Rng& rng) const override {
        return uniformDst(src, hosts_, rng);
    }

private:
    int hosts_;
};

}  // namespace

std::vector<TraceRecord> parseTrace(const std::string& text, int hostCount) {
    std::vector<TraceRecord> out;
    std::istringstream in(text);
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        lineNo++;
        const size_t hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos) {
            continue;  // blank or comment-only line
        }
        std::istringstream fields(line);
        double timeUs;
        int64_t src, dst, size;
        if (!(fields >> timeUs >> src >> dst >> size)) {
            traceError(lineNo, "expected '<time_us> <src> <dst> <size>'");
        }
        if (timeUs < 0 || size <= 0 || size > 0xFFFFFFFFll || src == dst) {
            traceError(lineNo,
                       "negative time, size out of [1, 2^32), or src==dst");
        }
        if (hostCount > 0 &&
            (src < 0 || src >= hostCount || dst < 0 || dst >= hostCount)) {
            traceError(lineNo, "host id out of range for this topology");
        }
        TraceRecord r;
        r.at = static_cast<Duration>(timeUs * static_cast<double>(kMicrosecond));
        r.src = static_cast<HostId>(src);
        r.dst = static_cast<HostId>(dst);
        r.size = static_cast<uint32_t>(size);
        out.push_back(r);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecord& a, const TraceRecord& b) {
                         return a.at < b.at;
                     });
    return out;
}

std::vector<TraceRecord> loadTraceFile(const std::string& path, int hostCount) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open trace file: %s\n", path.c_str());
        std::exit(2);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    return parseTrace(buf.str(), hostCount);
}

std::unique_ptr<TrafficPattern> makeTrafficPattern(const ScenarioConfig& cfg,
                                                   int hostCount,
                                                   int hostsPerRack,
                                                   uint64_t seed) {
    assert(hostCount >= 2);
    switch (cfg.kind) {
        case TrafficPatternKind::Uniform:
            return std::make_unique<UniformPattern>(hostCount);
        case TrafficPatternKind::Permutation:
            return std::make_unique<PermutationPattern>(hostCount, seed);
        case TrafficPatternKind::RackSkew:
            return std::make_unique<RackSkewPattern>(hostCount, hostsPerRack,
                                                     cfg.rackLocalFraction);
        case TrafficPatternKind::Incast:
            return std::make_unique<IncastPattern>(cfg, hostCount);
        case TrafficPatternKind::ParetoSenders:
            return std::make_unique<ParetoSendersPattern>(
                hostCount, cfg.paretoAlpha, seed);
        case TrafficPatternKind::ClosedLoop:
            return std::make_unique<ClosedLoopPattern>(hostCount);
        case TrafficPatternKind::Dag:
            return std::make_unique<DagPattern>(hostCount);
        case TrafficPatternKind::TraceReplay:
            break;
    }
    assert(false && "TraceReplay has no TrafficPattern");
    return nullptr;
}

}  // namespace homa
