#include "workload/serving.h"

#include <algorithm>
#include <cassert>

#include "workload/scenario.h"  // the spec grammar's strict parsers

namespace homa {

const char* lbPolicyName(LbPolicy p) {
    switch (p) {
        case LbPolicy::RoundRobin: return "rr";
        case LbPolicy::Random: return "random";
        case LbPolicy::PowerOfTwo: return "p2c";
    }
    return "?";
}

bool lbPolicyFromName(const std::string& name, LbPolicy& out) {
    for (LbPolicy p : {LbPolicy::RoundRobin, LbPolicy::Random,
                       LbPolicy::PowerOfTwo}) {
        if (name == lbPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

const char* arrivalModeName(ArrivalMode m) {
    return m == ArrivalMode::Open ? "open" : "closed";
}

bool arrivalModeFromName(const std::string& name, ArrivalMode& out) {
    if (name == "open") {
        out = ArrivalMode::Open;
        return true;
    }
    if (name == "closed") {
        out = ArrivalMode::Closed;
        return true;
    }
    return false;
}

int ServingConfig::totalClients() const {
    int total = 0;
    for (const TenantConfig& t : tenants) total += t.clients;
    return total;
}

std::vector<ReplicaGroupConfig> ServingConfig::effectiveGroups() const {
    if (!groups.empty()) return groups;
    return {ReplicaGroupConfig{}};  // "pool": all servers, random policy
}

bool resolveReplicaGroups(const ServingConfig& cfg, int servers,
                          std::vector<ResolvedGroup>& out, std::string* err) {
    auto fail = [err](const std::string& why) {
        if (err) *err = why;
        return false;
    };
    const std::vector<ReplicaGroupConfig> groups = cfg.effectiveGroups();
    std::vector<ResolvedGroup> resolved;
    int next = 0;
    for (size_t g = 0; g < groups.size(); g++) {
        const ReplicaGroupConfig& grp = groups[g];
        int count = grp.replicas;
        if (count == 0) {
            if (g + 1 != groups.size()) {
                return fail("group '" + grp.name + "': n=0 (the rest of the "
                            "pool) is only legal for the last group");
            }
            count = servers - next;
        }
        if (count < 1 || next + count > servers) {
            return fail("group '" + grp.name + "' needs " +
                        std::to_string(count) + " replica(s) but only " +
                        std::to_string(servers - next) + " of " +
                        std::to_string(servers) + " server hosts remain");
        }
        resolved.push_back(ResolvedGroup{next, count});
        next += count;
    }
    out = std::move(resolved);
    return true;
}

int tenantGroupIndex(const ServingConfig& cfg, const TenantConfig& t) {
    const std::vector<ReplicaGroupConfig> groups = cfg.effectiveGroups();
    if (t.group.empty()) return 0;
    for (size_t g = 0; g < groups.size(); g++) {
        if (groups[g].name == t.group) return static_cast<int>(g);
    }
    return -1;
}

std::string validateServingConfig(const ServingConfig& cfg, int hostCount) {
    if (cfg.tenants.empty()) return "serving needs at least one tenant";
    for (const TenantConfig& t : cfg.tenants) {
        if (t.name.empty()) return "tenant names must be non-empty";
        if (t.clients < 1) {
            return "tenant '" + t.name + "': clients must be >= 1";
        }
        if (t.mode == ArrivalMode::Open &&
            (t.load <= 0 || t.load > 1.5)) {
            return "tenant '" + t.name + "': load must be in (0, 1.5]";
        }
        if (t.mode == ArrivalMode::Closed && t.window < 1) {
            return "tenant '" + t.name + "': window must be >= 1";
        }
        if (t.think < 0) {
            return "tenant '" + t.name + "': think time must be >= 0";
        }
    }
    for (size_t i = 0; i < cfg.tenants.size(); i++) {
        for (size_t j = i + 1; j < cfg.tenants.size(); j++) {
            if (cfg.tenants[i].name == cfg.tenants[j].name) {
                return "duplicate tenant name '" + cfg.tenants[i].name + "'";
            }
        }
    }
    const std::vector<ReplicaGroupConfig> groups = cfg.effectiveGroups();
    for (const ReplicaGroupConfig& g : groups) {
        if (g.name.empty()) return "replica group names must be non-empty";
        if (g.replicas < 0) {
            return "group '" + g.name + "': n must be >= 0";
        }
        if (g.hedgePercentile < 0 || g.hedgePercentile >= 1) {
            return "group '" + g.name + "': hedge percentile must be in "
                   "[0, 1) (0 = off)";
        }
        if (g.hedgeFloor < 0) {
            return "group '" + g.name + "': hedge floor must be >= 0";
        }
        if (g.hedgeMinSamples < 1) {
            return "group '" + g.name + "': hedge_min must be >= 1";
        }
    }
    for (size_t i = 0; i < groups.size(); i++) {
        for (size_t j = i + 1; j < groups.size(); j++) {
            if (groups[i].name == groups[j].name) {
                return "duplicate replica group name '" + groups[i].name + "'";
            }
        }
    }
    for (const TenantConfig& t : cfg.tenants) {
        if (tenantGroupIndex(cfg, t) < 0) {
            return "tenant '" + t.name + "' targets unknown replica group '" +
                   t.group + "'";
        }
    }
    const int clients = cfg.totalClients();
    const int servers = hostCount - clients;
    if (servers < 1) {
        return "serving needs at least one server host: " +
               std::to_string(clients) + " tenant clients leave " +
               std::to_string(servers) + " of " + std::to_string(hostCount) +
               " hosts";
    }
    std::vector<ResolvedGroup> resolved;
    std::string err;
    if (!resolveReplicaGroups(cfg, servers, resolved, &err)) return err;
    for (size_t g = 0; g < groups.size(); g++) {
        const bool needsTwo = groups[g].policy == LbPolicy::PowerOfTwo ||
                              groups[g].hedging();
        if (needsTwo && resolved[g].count < 2) {
            return "group '" + groups[g].name + "': " +
                   std::string(groups[g].policy == LbPolicy::PowerOfTwo
                                   ? "p2c"
                                   : "hedging") +
                   " needs >= 2 replicas";
        }
    }
    return "";
}

// ------------------------------------------------------------ spec grammar

namespace {

bool splitKeyValue(const std::string& pair, std::string& key,
                   std::string& val) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) return false;
    key = pair.substr(0, eq);
    val = pair.substr(eq + 1);
    return true;
}

bool workloadFromSpecName(const std::string& name, WorkloadId& out) {
    for (WorkloadId id : {WorkloadId::W1, WorkloadId::W2, WorkloadId::W3,
                          WorkloadId::W4, WorkloadId::W5}) {
        if (name == workloadName(id)) {
            out = id;
            return true;
        }
    }
    return false;
}

}  // namespace

bool parseTenantsSpec(const std::string& body, std::vector<TenantConfig>& out,
                      std::string* err) {
    auto fail = [err](const std::string& why) {
        if (err) *err = why;
        return false;
    };
    if (body.empty()) return fail("empty tenant spec");
    std::vector<TenantConfig> tenants;
    for (const std::string& seg : splitSpec(body, ';')) {
        if (seg.empty()) return fail("empty tenant entry (stray ';')");
        TenantConfig t;
        t.name.clear();  // must be named explicitly
        bool loadSeen = false, windowSeen = false, thinkSeen = false;
        for (const std::string& pair : splitSpec(seg, ',')) {
            std::string key, val;
            if (!splitKeyValue(pair, key, val)) {
                return fail("tenant entry '" + seg + "': expected k=v, got '" +
                            pair + "'");
            }
            if (key == "name") {
                t.name = val;
            } else if (key == "wl") {
                if (!workloadFromSpecName(val, t.workload)) {
                    return fail("tenant key wl: unknown workload '" + val +
                                "' (expected W1..W5)");
                }
            } else if (key == "mode") {
                if (!arrivalModeFromName(val, t.mode)) {
                    return fail("tenant key mode: expected open or closed, "
                                "got '" + val + "'");
                }
            } else if (key == "load") {
                if (!parseSpecDouble(val, t.load)) {
                    return fail("tenant key load: expected a number, got '" +
                                val + "'");
                }
                loadSeen = true;
            } else if (key == "window") {
                if (!parseSpecInt(val, t.window)) {
                    return fail("tenant key window: expected an integer, "
                                "got '" + val + "'");
                }
                windowSeen = true;
            } else if (key == "think_us") {
                if (!parseSpecMicros(val, t.think)) {
                    return fail("tenant key think_us: expected a "
                                "non-negative number, got '" + val + "'");
                }
                thinkSeen = true;
            } else if (key == "clients") {
                if (!parseSpecInt(val, t.clients)) {
                    return fail("tenant key clients: expected an integer, "
                                "got '" + val + "'");
                }
            } else if (key == "group") {
                t.group = val;
            } else {
                return fail("unknown tenant key '" + key + "' (expected "
                            "name, wl, mode, load, window, think_us, "
                            "clients, group)");
            }
        }
        if (t.name.empty()) {
            return fail("tenant entry '" + seg + "' has no name= key");
        }
        if (t.mode == ArrivalMode::Open && (windowSeen || thinkSeen)) {
            return fail("tenant '" + t.name + "': window/think_us are "
                        "closed-mode knobs (mode=open sets load)");
        }
        if (t.mode == ArrivalMode::Closed && loadSeen) {
            return fail("tenant '" + t.name + "': load is an open-mode knob "
                        "(mode=closed sets window/think_us)");
        }
        tenants.push_back(std::move(t));
    }
    out = std::move(tenants);
    return true;
}

bool parseReplicasSpec(const std::string& body,
                       std::vector<ReplicaGroupConfig>& out,
                       std::string* err) {
    auto fail = [err](const std::string& why) {
        if (err) *err = why;
        return false;
    };
    if (body.empty()) return fail("empty replica spec");
    std::vector<ReplicaGroupConfig> groups;
    for (const std::string& seg : splitSpec(body, ';')) {
        if (seg.empty()) return fail("empty replica group entry (stray ';')");
        ReplicaGroupConfig g;
        g.name.clear();  // must be named explicitly
        for (const std::string& pair : splitSpec(seg, ',')) {
            std::string key, val;
            if (!splitKeyValue(pair, key, val)) {
                return fail("replica group entry '" + seg + "': expected "
                            "k=v, got '" + pair + "'");
            }
            if (key == "name") {
                g.name = val;
            } else if (key == "n") {
                if (!parseSpecInt(val, g.replicas)) {
                    return fail("replica key n: expected an integer, got '" +
                                val + "'");
                }
            } else if (key == "lb") {
                if (!lbPolicyFromName(val, g.policy)) {
                    return fail("replica key lb: expected rr, random, or "
                                "p2c, got '" + val + "'");
                }
            } else if (key == "hedge") {
                if (val == "off") {
                    g.hedgePercentile = 0;
                } else if (val.size() >= 2 && val[0] == 'p') {
                    int pct = 0;
                    if (!parseSpecInt(val.substr(1), pct) || pct < 1 ||
                        pct > 99) {
                        return fail("replica key hedge: expected off or "
                                    "p1..p99, got '" + val + "'");
                    }
                    g.hedgePercentile = pct / 100.0;
                } else {
                    return fail("replica key hedge: expected off or p1..p99 "
                                "(e.g. p95), got '" + val + "'");
                }
            } else if (key == "hedge_floor_us") {
                if (!parseSpecMicros(val, g.hedgeFloor)) {
                    return fail("replica key hedge_floor_us: expected a "
                                "non-negative number, got '" + val + "'");
                }
            } else if (key == "hedge_min") {
                if (!parseSpecInt(val, g.hedgeMinSamples)) {
                    return fail("replica key hedge_min: expected an "
                                "integer, got '" + val + "'");
                }
            } else {
                return fail("unknown replica key '" + key + "' (expected "
                            "name, n, lb, hedge, hedge_floor_us, hedge_min)");
            }
        }
        if (g.name.empty()) {
            return fail("replica group entry '" + seg + "' has no name= key");
        }
        groups.push_back(std::move(g));
    }
    out = std::move(groups);
    return true;
}

std::string tenantsSpecToString(const std::vector<TenantConfig>& tenants) {
    std::string s;
    for (size_t i = 0; i < tenants.size(); i++) {
        const TenantConfig& t = tenants[i];
        if (i > 0) s += ';';
        s += "name=" + t.name;
        s += ",wl=" + std::string(workloadName(t.workload));
        s += ",mode=" + std::string(arrivalModeName(t.mode));
        if (t.mode == ArrivalMode::Open) {
            s += ",load=" + formatSpecNumber(t.load);
        } else {
            s += ",window=" + std::to_string(t.window);
            if (t.think > 0) {
                s += ",think_us=" + formatSpecNumber(toMicros(t.think));
            }
        }
        s += ",clients=" + std::to_string(t.clients);
        if (!t.group.empty()) s += ",group=" + t.group;
    }
    return s;
}

std::string replicasSpecToString(
    const std::vector<ReplicaGroupConfig>& groups) {
    std::string s;
    for (size_t i = 0; i < groups.size(); i++) {
        const ReplicaGroupConfig& g = groups[i];
        if (i > 0) s += ';';
        s += "name=" + g.name;
        s += ",n=" + std::to_string(g.replicas);
        s += ",lb=" + std::string(lbPolicyName(g.policy));
        if (g.hedging()) {
            s += ",hedge=p" + std::to_string(static_cast<int>(
                                  g.hedgePercentile * 100 + 0.5));
            s += ",hedge_floor_us=" + formatSpecNumber(toMicros(g.hedgeFloor));
            s += ",hedge_min=" + std::to_string(g.hedgeMinSamples);
        }
    }
    return s;
}

// --------------------------------------------------------- ReplicaSelector

ReplicaSelector::ReplicaSelector(LbPolicy policy, int replicas, uint64_t seed,
                                 int tenant)
    : policy_(policy), replicas_(replicas) {
    assert(replicas_ >= 1);
    // One mixed base per (seed, tenant): draws chain mix64 over it so any
    // (salt, rpcSeq) pair lands on an independent value.
    base_ = mix64(seed + kGoldenGamma *
                             (static_cast<uint64_t>(tenant) + 1));
    if (policy_ == LbPolicy::RoundRobin) {
        // Seeded Fisher-Yates permutation: fair (each replica exactly once
        // per cycle of `replicas_` picks) but not phase-aligned across
        // tenants, so co-located tenants do not march in lockstep.
        perm_.resize(static_cast<size_t>(replicas_));
        for (int i = 0; i < replicas_; i++) perm_[static_cast<size_t>(i)] = i;
        Rng rng(base_);
        for (int i = replicas_ - 1; i > 0; i--) {
            const int j = static_cast<int>(
                rng.below(static_cast<uint64_t>(i) + 1));
            std::swap(perm_[static_cast<size_t>(i)],
                      perm_[static_cast<size_t>(j)]);
        }
    }
}

uint64_t ReplicaSelector::draw(uint64_t salt, uint64_t rpcSeq) const {
    return mix64(base_ ^ mix64(rpcSeq + kGoldenGamma * (salt + 1)));
}

std::pair<int, int> ReplicaSelector::candidates(uint64_t rpcSeq) const {
    const int n = replicas_;
    const int c1 = static_cast<int>(draw(1, rpcSeq) %
                                    static_cast<uint64_t>(n));
    if (n < 2) return {c1, c1};
    const int off = static_cast<int>(draw(2, rpcSeq) %
                                     static_cast<uint64_t>(n - 1));
    const int c2 = (c1 + 1 + off) % n;
    return {c1, c2};
}

int ReplicaSelector::pick(uint64_t rpcSeq, const DepthFn& depth) const {
    const int n = replicas_;
    switch (policy_) {
        case LbPolicy::RoundRobin:
            return perm_[static_cast<size_t>(rpcSeq %
                                             static_cast<uint64_t>(n))];
        case LbPolicy::Random:
            return static_cast<int>(draw(0, rpcSeq) %
                                    static_cast<uint64_t>(n));
        case LbPolicy::PowerOfTwo: {
            const auto [c1, c2] = candidates(rpcSeq);
            if (c1 == c2 || !depth) return c1;
            // Ties go to the first candidate: either way the winner is no
            // deeper than both, the property the tests pin.
            return depth(c2) < depth(c1) ? c2 : c1;
        }
    }
    return 0;
}

int ReplicaSelector::pickHedge(uint64_t rpcSeq, int primary) const {
    assert(replicas_ >= 2);
    assert(primary >= 0 && primary < replicas_);
    const int off = static_cast<int>(draw(3, rpcSeq) %
                                     static_cast<uint64_t>(replicas_ - 1));
    return (primary + 1 + off) % replicas_;
}

}  // namespace homa
