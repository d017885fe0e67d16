#include "sim/fault.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/network.h"

namespace homa {

const char* faultKindName(FaultKind k) {
    switch (k) {
        case FaultKind::Flap: return "flap";
        case FaultKind::Kill: return "kill";
        case FaultKind::Degrade: return "degrade";
        case FaultKind::FlapTrain: return "flap-train";
    }
    return "?";
}

const char* faultTargetKindName(FaultTargetKind k) {
    switch (k) {
        case FaultTargetKind::Host: return "host";
        case FaultTargetKind::Tor: return "tor";
        case FaultTargetKind::Aggr: return "aggr";
        case FaultTargetKind::Core: return "core";
    }
    return "?";
}

namespace {

bool parseTarget(const std::string& v, FaultSpec& out, std::string* err) {
    FaultTargetKind kind;
    size_t prefix;
    if (v.rfind("aggr", 0) == 0) {
        kind = FaultTargetKind::Aggr;
        prefix = 4;
    } else if (v.rfind("core", 0) == 0) {
        kind = FaultTargetKind::Core;
        prefix = 4;
    } else if (v.rfind("tor", 0) == 0) {
        kind = FaultTargetKind::Tor;
        prefix = 3;
    } else if (v.rfind("host", 0) == 0) {
        kind = FaultTargetKind::Host;
        prefix = 4;
    } else {
        if (err) {
            *err = "bad fault target '" + v +
                   "' (expected aggr<k>, core<c>, tor<r>, or host<h>)";
        }
        return false;
    }
    const std::string idx = v.substr(prefix);
    char* end = nullptr;
    const long n = std::strtol(idx.c_str(), &end, 10);
    if (idx.empty() || *end != '\0' || n < 0) {
        if (err) {
            *err = "bad fault target index in '" + v +
                   "' (expected aggr<k>, core<c>, tor<r>, or host<h>)";
        }
        return false;
    }
    out.targetKind = kind;
    out.targetIndex = static_cast<int>(n);
    return true;
}

// "50ms", "10us", "250ns", "0.5s" — a number with a required unit suffix.
bool parseFaultDuration(const std::string& v, Duration& out,
                        std::string* err) {
    char* end = nullptr;
    const double n = std::strtod(v.c_str(), &end);
    Duration unit = 0;
    if (std::strcmp(end, "ns") == 0) unit = kNanosecond;
    else if (std::strcmp(end, "us") == 0) unit = kMicrosecond;
    else if (std::strcmp(end, "ms") == 0) unit = kMillisecond;
    else if (std::strcmp(end, "s") == 0) unit = kSecond;
    // One rounding of an exact unit, so "15us" is 15 us to the tick (and
    // faultSpecToString's output parses back); at most 1e6 s.
    const double ticks = n * static_cast<double>(unit);
    if (end == v.c_str() || unit == 0 || !std::isfinite(n) || n < 0 ||
        ticks > 1e6 * static_cast<double>(kSecond)) {
        if (err) {
            *err = "bad duration '" + v + "' (a number with ns/us/ms/s)";
        }
        return false;
    }
    out = std::llround(ticks);
    return true;
}

bool parseFaultDouble(const std::string& v, double& out, std::string* err) {
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(d)) {
        if (err) *err = "bad number '" + v + "'";
        return false;
    }
    out = d;
    return true;
}

// A flap-train count: plain decimal digits naming an int in [1, INT_MAX]
// (no sign, fraction, exponent or overflow).
bool parseFaultCount(const std::string& v, int& out, std::string* err) {
    errno = 0;
    char* end = nullptr;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])) ||
        *end != '\0' || errno == ERANGE || n < 1 || n > INT_MAX) {
        if (err) *err = "bad count '" + v + "' (an integer >= 1)";
        return false;
    }
    out = static_cast<int>(n);
    return true;
}

}  // namespace

bool parseFaultSpec(const std::string& body, FaultSpec& out,
                    std::string* err) {
    FaultSpec spec;
    bool haveKind = false;
    bool haveFor = false, haveBw = false, haveDelay = false, haveDrop = false;
    bool haveCount = false, haveGap = false;
    size_t pos = 0;
    while (pos <= body.size()) {
        const size_t comma = std::min(body.find(',', pos), body.size());
        const std::string pair = body.substr(pos, comma - pos);
        pos = comma + 1;
        const size_t eq = pair.find('=');
        if (eq == std::string::npos) {
            if (err) {
                *err = pair.empty() ? "empty fault spec"
                                    : "fault key '" + pair + "' needs =<value>";
            }
            return false;
        }
        const std::string key = pair.substr(0, eq);
        const std::string val = pair.substr(eq + 1);
        if (!haveKind) {
            // The first pair names the fault and its target.
            if (key == "flap") spec.kind = FaultKind::Flap;
            else if (key == "kill") spec.kind = FaultKind::Kill;
            else if (key == "degrade") spec.kind = FaultKind::Degrade;
            else if (key == "flap-train") spec.kind = FaultKind::FlapTrain;
            else {
                if (err) {
                    *err = "fault spec must start with flap=/kill=/degrade=/"
                           "flap-train=<target> (got '" + key + "')";
                }
                return false;
            }
            if (!parseTarget(val, spec, err)) return false;
            haveKind = true;
        } else if (key == "at") {
            if (!parseFaultDuration(val, spec.at, err)) return false;
        } else if (key == "for") {
            if (!parseFaultDuration(val, spec.duration, err)) return false;
            haveFor = true;
        } else if (key == "bw") {
            if (!parseFaultDouble(val, spec.bwFactor, err)) return false;
            haveBw = true;
        } else if (key == "delay") {
            if (!parseFaultDuration(val, spec.extraDelay, err)) return false;
            haveDelay = true;
        } else if (key == "drop") {
            if (!parseFaultDouble(val, spec.dropProb, err)) return false;
            haveDrop = true;
        } else if (key == "count") {
            if (!parseFaultCount(val, spec.count, err)) return false;
            haveCount = true;
        } else if (key == "gap") {
            if (!parseFaultDuration(val, spec.gap, err)) return false;
            haveGap = true;
        } else {
            if (err) {
                *err = "unknown fault key '" + key +
                       "' (known: at, for, bw, delay, drop, count, gap)";
            }
            return false;
        }
        if (comma == body.size()) break;
    }
    if (!haveKind) {
        if (err) *err = "empty fault spec";
        return false;
    }

    // Contradictory / missing keys, per kind.
    auto fail = [&](const char* m) {
        if (err) *err = m;
        return false;
    };
    const bool degradeKnobs = haveBw || haveDelay || haveDrop;
    const bool trainKnobs = haveCount || haveGap;
    switch (spec.kind) {
        case FaultKind::Flap:
            if (!haveFor || spec.duration <= 0) {
                return fail("flap needs for=<duration> > 0");
            }
            if (degradeKnobs) {
                return fail("flap takes no degrade knobs (bw/delay/drop); "
                            "use degrade=");
            }
            if (trainKnobs) {
                return fail("flap takes no count/gap; use flap-train=");
            }
            break;
        case FaultKind::Kill:
            if (haveFor) {
                return fail("kill is permanent: 'for' does not apply "
                            "(use flap= for a transient outage)");
            }
            if (degradeKnobs) {
                return fail("kill takes no degrade knobs (bw/delay/drop)");
            }
            if (trainKnobs) return fail("kill takes no count/gap");
            break;
        case FaultKind::Degrade:
            if (!degradeKnobs) {
                return fail("degrade needs at least one of bw=, delay=, drop=");
            }
            if (trainKnobs) return fail("degrade takes no count/gap");
            if (haveBw && (spec.bwFactor <= 0.0 || spec.bwFactor > 1.0)) {
                return fail("bw must be in (0, 1]");
            }
            if (haveDrop && (spec.dropProb < 0.0 || spec.dropProb >= 1.0)) {
                return fail("drop must be in [0, 1)");
            }
            break;
        case FaultKind::FlapTrain:
            if (!haveCount || spec.count < 1) {
                return fail("flap-train needs count=<n> >= 1");
            }
            if (!haveGap || spec.gap <= 0) {
                return fail("flap-train needs gap=<mean duration> > 0");
            }
            if (!haveFor || spec.duration <= 0) {
                return fail("flap-train needs for=<mean down duration> > 0");
            }
            if (degradeKnobs) {
                return fail("flap-train takes no degrade knobs "
                            "(bw/delay/drop)");
            }
            break;
    }
    out = spec;
    return true;
}

std::string validateFaultSpec(const FaultSpec& spec,
                              const NetworkConfig& cfg) {
    // "<tier> fault target index <i> out of range: ... (valid: tier0..tierN-1)"
    auto outOfRange = [&spec](const char* tier, const char* what, int n) {
        return std::string(tier) + " fault target index " +
               std::to_string(spec.targetIndex) +
               " out of range: this topology has " + std::to_string(n) + " " +
               what + " (valid: " + tier + "0.." + tier +
               std::to_string(n - 1) + ")";
    };
    switch (spec.targetKind) {
        case FaultTargetKind::Aggr:
            if (cfg.singleRack()) {
                return "aggr fault targets need a multi-rack fat-tree "
                       "topology (no aggregation switches here)";
            }
            if (spec.targetIndex >= cfg.totalAggrs()) {
                return outOfRange("aggr", "aggregation switches",
                                  cfg.totalAggrs());
            }
            break;
        case FaultTargetKind::Core:
            if (!cfg.threeTier()) {
                return "core fault targets need a three-tier topology "
                       "(no core switches here; set core=<n> in the topo "
                       "spec)";
            }
            if (spec.targetIndex >= cfg.coreSwitches) {
                return outOfRange("core", "core switches", cfg.coreSwitches);
            }
            break;
        case FaultTargetKind::Tor:
            if (spec.targetIndex >= cfg.racks) {
                return outOfRange("tor", "racks", cfg.racks);
            }
            break;
        case FaultTargetKind::Host:
            if (spec.targetIndex >= cfg.hostCount()) {
                return outOfRange("host", "hosts", cfg.hostCount());
            }
            break;
    }
    return "";
}

std::string faultSpecToString(const FaultSpec& spec) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s=%s%d,at=%.3fus", faultKindName(spec.kind),
                  faultTargetKindName(spec.targetKind), spec.targetIndex,
                  toMicros(spec.at));
    std::string s = buf;
    auto addDur = [&s](const char* key, Duration d) {
        char b[64];
        std::snprintf(b, sizeof(b), ",%s=%.3fus", key, toMicros(d));
        s += b;
    };
    switch (spec.kind) {
        case FaultKind::Flap:
            addDur("for", spec.duration);
            break;
        case FaultKind::Kill:
            break;
        case FaultKind::Degrade: {
            if (spec.duration > 0) addDur("for", spec.duration);
            char b[96];
            std::snprintf(b, sizeof(b), ",bw=%g,drop=%g", spec.bwFactor,
                          spec.dropProb);
            s += b;
            if (spec.extraDelay > 0) addDur("delay", spec.extraDelay);
            break;
        }
        case FaultKind::FlapTrain: {
            char b[48];
            std::snprintf(b, sizeof(b), ",count=%d", spec.count);
            s += b;
            addDur("gap", spec.gap);
            addDur("for", spec.duration);
            break;
        }
    }
    return s;
}

uint64_t deriveFaultSeed(uint64_t trafficSeed) {
    // A fixed salt keeps the fault streams disjoint from every traffic
    // stream forked from the same seed.
    return mix64(trafficSeed ^ 0xFA17FA17FA17FA17ull);
}

FaultTimeline::FaultTimeline(Network& net, std::vector<FaultSpec> specs,
                             uint64_t seed)
    : net_(net), specs_(std::move(specs)), seed_(seed) {}

Switch* FaultTimeline::switchOfTarget(const FaultSpec& spec) {
    switch (spec.targetKind) {
        case FaultTargetKind::Tor: return &net_.tor(spec.targetIndex);
        case FaultTargetKind::Aggr: return &net_.aggr(spec.targetIndex);
        case FaultTargetKind::Core: return &net_.core(spec.targetIndex);
        case FaultTargetKind::Host: return nullptr;  // hosts are not switches
    }
    return nullptr;
}

// Every directed link of the target, both directions, in canonical order.
// Pod arithmetic: an aggr g serves pod g / aggrSwitches; its downlink to
// rack r is port (r - podStart), and the TOR uplink feeding it is port
// perRack + (g % aggrSwitches). On two-tier topologies the single implicit
// pod spans every rack, making all of this identical to the pre-core code.
template <typename Fn>
void FaultTimeline::forEachTargetPort(const FaultSpec& spec, Fn&& fn) {
    const NetworkConfig& cfg = net_.config();
    const int perRack = cfg.hostsPerRack;
    const int aggrPerPod = cfg.aggrSwitches;
    const int podRacks = cfg.podRacks();
    const int nCore = net_.coreCount();
    switch (spec.targetKind) {
        case FaultTargetKind::Host: {
            const HostId h = spec.targetIndex;
            fn(net_.host(h).nic());
            fn(net_.downlink(h));
            break;
        }
        case FaultTargetKind::Tor: {
            const int r = spec.targetIndex;
            Switch& tor = net_.tor(r);
            for (int i = 0; i < static_cast<int>(tor.portCount()); i++) {
                fn(tor.port(i));
            }
            for (int i = 0; i < perRack; i++) {
                fn(net_.host(r * perRack + i).nic());
            }
            const int podBase = cfg.podOfRack(r) * aggrPerPod;
            const int down = r - cfg.podOfRack(r) * podRacks;
            for (int a = 0; a < aggrPerPod; a++) {
                fn(net_.aggr(podBase + a).port(down));
            }
            break;
        }
        case FaultTargetKind::Aggr: {
            const int g = spec.targetIndex;
            const int pod = g / aggrPerPod;
            const int localA = g % aggrPerPod;
            for (int r = 0; r < podRacks; r++) {
                fn(net_.tor(pod * podRacks + r).port(perRack + localA));
                fn(net_.aggr(g).port(r));
            }
            for (int c = 0; c < nCore; c++) {
                fn(net_.aggr(g).port(podRacks + c));
                fn(net_.core(c).port(g));
            }
            break;
        }
        case FaultTargetKind::Core: {
            const int c = spec.targetIndex;
            for (int g = 0; g < net_.aggrCount(); g++) {
                fn(net_.aggr(g).port(podRacks + c));
                fn(net_.core(c).port(g));
            }
            break;
        }
    }
}

// The directed links *feeding* the target (a dead device's neighbors must
// stop transmitting toward it: their on-wire packets count as wireDrops —
// "in-flight packets on a dead link"). The target's own egress ports are
// handled by Switch::kill() (or, for hosts, included here).
template <typename Fn>
void FaultTimeline::forEachIngressPort(const FaultSpec& spec, Fn&& fn) {
    const NetworkConfig& cfg = net_.config();
    const int perRack = cfg.hostsPerRack;
    const int aggrPerPod = cfg.aggrSwitches;
    const int podRacks = cfg.podRacks();
    const int nCore = net_.coreCount();
    switch (spec.targetKind) {
        case FaultTargetKind::Host: {
            const HostId h = spec.targetIndex;
            fn(net_.host(h).nic());  // host death: its NIC dies too
            fn(net_.downlink(h));
            break;
        }
        case FaultTargetKind::Tor: {
            const int r = spec.targetIndex;
            for (int i = 0; i < perRack; i++) {
                fn(net_.host(r * perRack + i).nic());
            }
            const int podBase = cfg.podOfRack(r) * aggrPerPod;
            const int down = r - cfg.podOfRack(r) * podRacks;
            for (int a = 0; a < aggrPerPod; a++) {
                fn(net_.aggr(podBase + a).port(down));
            }
            break;
        }
        case FaultTargetKind::Aggr: {
            const int g = spec.targetIndex;
            const int pod = g / aggrPerPod;
            const int localA = g % aggrPerPod;
            for (int r = 0; r < podRacks; r++) {
                fn(net_.tor(pod * podRacks + r).port(perRack + localA));
            }
            for (int c = 0; c < nCore; c++) {
                fn(net_.core(c).port(g));
            }
            break;
        }
        case FaultTargetKind::Core: {
            const int c = spec.targetIndex;
            for (int g = 0; g < net_.aggrCount(); g++) {
                fn(net_.aggr(g).port(podRacks + c));
            }
            break;
        }
    }
}

void FaultTimeline::scheduleFlap(const FaultSpec& spec, Duration at,
                                 Duration down) {
    forEachTargetPort(spec, [at, down](EgressPort& p) {
        // Each port's events go on its own shard's loop; the nesting
        // down-count makes overlapping windows compose.
        p.loop().at(at, [&p] { p.faultLinkDown(); });
        p.loop().at(at + down, [&p] { p.faultLinkUp(); });
    });
    events_.linkDownEvents++;
    events_.linkUpEvents++;
}

void FaultTimeline::scheduleKill(const FaultSpec& spec) {
    Switch* sw = switchOfTarget(spec);
    const Duration at = spec.at;
    if (sw != nullptr) {
        sw->loop().at(at, [sw] { sw->kill(); });
    }
    forEachIngressPort(spec, [at](EgressPort& p) {
        p.loop().at(at, [&p] { p.faultKill(); });
    });
    events_.switchKills++;
}

void FaultTimeline::scheduleDegrade(const FaultSpec& spec) {
    const Duration at = spec.at;
    const Duration until = spec.duration > 0 ? at + spec.duration : -1;
    const double bw = spec.bwFactor;
    const Duration delay = spec.extraDelay;
    const double drop = spec.dropProb;
    const uint64_t seed = seed_;
    forEachTargetPort(spec, [&](EgressPort& p) {
        EgressPort* port = &p;
        // Per-port RNG seed: a pure function of (fault seed, canonical
        // link id) — identical at any shard count.
        const uint64_t portSeed =
            mix64(seed ^ (kGoldenGamma * (static_cast<uint64_t>(p.linkId()) + 1)));
        p.loop().at(at, [port, bw, delay, drop, portSeed] {
            port->setDegrade(bw, delay, drop, portSeed);
        });
        if (until >= 0) {
            p.loop().at(until, [port] { port->clearDegrade(); });
        }
    });
    events_.degradeEvents++;
}

void FaultTimeline::schedule() {
    assert(!scheduled_);
    scheduled_ = true;
    for (size_t i = 0; i < specs_.size(); i++) {
        const FaultSpec& spec = specs_[i];
        const std::string verr = validateFaultSpec(spec, net_.config());
        if (!verr.empty()) {
            std::fprintf(stderr, "FaultTimeline: invalid spec '%s': %s\n",
                         faultSpecToString(spec).c_str(), verr.c_str());
            std::abort();
        }
        switch (spec.kind) {
            case FaultKind::Flap:
                scheduleFlap(spec, spec.at, spec.duration);
                break;
            case FaultKind::Kill:
                scheduleKill(spec);
                break;
            case FaultKind::Degrade:
                scheduleDegrade(spec);
                break;
            case FaultKind::FlapTrain: {
                // Seed-derived random train: exponential down windows and
                // gaps, expanded deterministically at schedule time (the
                // expansion never touches simulation state, so it is
                // identical at any shard count).
                Rng rng(mix64(seed_ + kGoldenGamma * (i + 1)));
                Duration t = spec.at;
                for (int k = 0; k < spec.count; k++) {
                    const Duration down = std::max<Duration>(
                        1, exponentialDuration(rng, toSeconds(spec.duration)));
                    scheduleFlap(spec, t, down);
                    t += std::max<Duration>(
                        1, exponentialDuration(rng, toSeconds(spec.gap)));
                }
                break;
            }
        }
    }
}

FaultStats FaultTimeline::collect() const {
    FaultStats out = events_;
    auto addPort = [&out](const EgressPort& p) {
        out.wireDrops += p.stats().faultWireDrops;
        out.probDrops += p.stats().faultProbDrops;
    };
    for (HostId h = 0; h < net_.hostCount(); h++) {
        addPort(net_.host(h).nic());
    }
    auto addSwitch = [&](Switch& sw) {
        for (int i = 0; i < static_cast<int>(sw.portCount()); i++) {
            addPort(sw.port(i));
        }
        out.deadIngressDrops += sw.deadIngressDrops();
        out.flushDrops += sw.flushDrops();
    };
    for (int r = 0; r < net_.rackCount(); r++) addSwitch(net_.tor(r));
    for (int a = 0; a < net_.aggrCount(); a++) addSwitch(net_.aggr(a));
    for (int c = 0; c < net_.coreCount(); c++) addSwitch(net_.core(c));
    return out;
}

}  // namespace homa
