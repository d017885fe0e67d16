#include "driver/rpc_experiment.h"

#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "stats/percentile.h"

namespace homa {

namespace {

// The harness's config checks, run in every build type (not asserts that
// NDEBUG removes): "" when `cfg` is runnable, else the first problem.
std::string rpcConfigError(const RpcExperimentConfig& cfg) {
    const int hosts = cfg.net.hostCount();
    if (cfg.serving.enabled()) {
        const std::string err = validateServingConfig(cfg.serving, hosts);
        return err.empty() ? err : "invalid serving config: " + err;
    }
    if (cfg.clients < 1 || cfg.clients > hosts - 1) {
        return "clients = " + std::to_string(cfg.clients) +
               " must be in [1, " + std::to_string(hosts - 1) +
               "]: every client needs a server among " +
               std::to_string(hosts) + " hosts";
    }
    if (cfg.closedLoopWindow <= 0 && !(cfg.load > 0)) {
        return "open-loop load must be > 0";
    }
    return "";
}

// What echo and serving share: the network and one endpoint per
// host, the measurement window, the per-client arrival driver and the
// close-out. A mode builds its own trackers and state, then hands run()
// the function that starts one of its operations on a client. The
// operation reports its start (begin) and its completion (complete); a
// completion frees a closed-loop slot through the driver.
class RpcHarness {
public:
    explicit RpcHarness(const RpcExperimentConfig& cfg);
    RpcHarness(const RpcHarness&) = delete;  // events capture `this`
    RpcHarness& operator=(const RpcHarness&) = delete;

    Time now() { return net.loop().now(); }
    Rng& rng(int c) { return rngs_[c]; }

    /// An operation starts now; true when it falls in the window.
    bool begin() {
        const bool inWindow = now() >= windowStart;
        if (inWindow) issuedInWindow_++;
        return inWindow;
    }
    /// An operation that began with `inWindow` completed on client `c`.
    void complete(int c, bool inWindow);

    /// Primes every client, runs to stop + drainGrace, then fills in the
    /// counts every mode reports.
    void run(std::function<void(int)> issue);

    const RpcExperimentConfig& cfg;
    const SizeDistribution& dist;  // keys the transports' priority cutoffs
    const NetworkConfig netCfg;
    Network net;
    Oracle oracle;
    std::vector<std::unique_ptr<RpcEndpoint>> endpoints;
    const int clients;  // hosts [0, clients) issue, the rest serve
    const Time windowStart;
    RpcExperimentResult result;

private:
    // One client's arrival process. Open loop: Poisson at `meanGap`, on
    // the ON-time clock when modulated. Closed loop: `window` operations
    // in flight, a freed slot refilled after an exponential think time
    // (1 tick when zero), gated by ON-OFF.
    struct Arrivals {
        ArrivalMode mode;
        Duration meanGap;
        int window;
        Duration think;
    };

    Time nextArrival(int c);
    void arrive(int c);  // open loop
    void gated(int c);   // closed loop

    std::vector<Rng> rngs_;
    std::vector<Arrivals> arrivals_;
    std::vector<OnOffModulator> mods_;  // empty unless ON-OFF modulated
    std::function<void(int)> issue_;
    uint64_t issuedInWindow_ = 0;
    uint64_t completedInWindow_ = 0;
};

NetworkConfig withDefaultQdisc(const RpcExperimentConfig& cfg) {
    NetworkConfig n = cfg.net;
    if (!n.switchQdisc) n.switchQdisc = switchQdiscFor(cfg.proto);
    return n;
}

RpcHarness::RpcHarness(const RpcExperimentConfig& c)
    : cfg(c),
      // Serving: the first tenant's distribution (cutoff tuning, not
      // correctness — every tenant's traffic still flows).
      dist(workload(c.serving.enabled() ? c.serving.tenants[0].workload
                                        : c.workload)),
      netCfg(withDefaultQdisc(c)),
      net(netCfg, makeTransportFactory(c.proto, netCfg, &dist)),
      oracle(netCfg),
      clients(c.serving.enabled() ? c.serving.totalClients() : c.clients),
      windowStart(static_cast<Time>(c.warmupFraction *
                                    static_cast<double>(c.stop))) {
    for (HostId h = 0; h < net.hostCount(); h++) {
        endpoints.push_back(std::make_unique<RpcEndpoint>(net, h));
    }
    result.perClient =
        std::make_unique<ClosedLoopTracker>(clients, windowStart, c.stop);

    Rng master(c.seed);
    for (int i = 0; i < clients; i++) rngs_.push_back(master.fork());
    // Modulator seeds draw from the master stream after the client forks,
    // so enabling ON-OFF never perturbs the per-client streams. Serving
    // tenants carry no ON-OFF.
    if (c.onOff.enabled && !c.serving.enabled()) {
        mods_.reserve(clients);
        for (int i = 0; i < clients; i++) {
            mods_.emplace_back(c.onOff, /*start=*/0, master.next());
        }
    }

    // Open loop: requests carry `load` of the client's host link
    // (responses load its downlink symmetrically), matching §5.1.
    auto open = [&](WorkloadId wl, double load) {
        return Arrivals{ArrivalMode::Open,
                        static_cast<Duration>(std::llround(
                            workload(wl).meanWireBytes() *
                            static_cast<double>(netCfg.hostLink.psPerByte) /
                            load)),
                        0, 0};
    };
    if (c.serving.enabled()) {
        for (const TenantConfig& tc : c.serving.tenants) {
            arrivals_.insert(
                arrivals_.end(), tc.clients,
                tc.mode == ArrivalMode::Open
                    ? open(tc.workload, tc.load)
                    : Arrivals{tc.mode, 0, tc.window, tc.think});
        }
    } else if (c.closedLoopWindow > 0) {
        arrivals_.assign(clients, Arrivals{ArrivalMode::Closed, 0,
                                           c.closedLoopWindow, c.thinkTime});
    } else {
        arrivals_.assign(clients, open(c.workload, c.load));
    }
}

Time RpcHarness::nextArrival(int c) {
    const double meanGap = toSeconds(arrivals_[c].meanGap);
    if (mods_.empty()) return now() + exponentialDuration(rngs_[c], meanGap);
    // Poisson on the client's ON-time clock at rate base/duty, mapped to
    // wall clock by the modulator.
    return mods_[c].advance(
        exponentialDuration(rngs_[c], meanGap * cfg.onOff.dutyCycle()));
}

void RpcHarness::arrive(int c) {
    if (now() >= cfg.stop) return;
    issue_(c);
    net.loop().at(nextArrival(c), [this, c] { arrive(c); });
}

void RpcHarness::gated(int c) {
    if (now() >= cfg.stop) return;
    if (!mods_.empty()) {
        const Time go = mods_[c].gate(now());
        if (go > now()) {
            net.loop().at(go, [this, c] { gated(c); });
            return;
        }
    }
    issue_(c);
}

void RpcHarness::complete(int c, bool inWindow) {
    if (inWindow) completedInWindow_++;
    const Arrivals& a = arrivals_[c];
    if (a.mode != ArrivalMode::Closed) return;
    // Refill the freed slot. (An RPC abort would leak a slot, but an abort
    // takes ~500 ms of backed-off retries — beyond these runs.)
    const Duration gap =
        a.think <= 0 ? 1 : exponentialDuration(rngs_[c], toSeconds(a.think));
    net.loop().after(gap, [this, c] { gated(c); });
}

void RpcHarness::run(std::function<void(int)> issue) {
    issue_ = std::move(issue);
    for (int c = 0; c < clients; c++) {
        if (arrivals_[c].mode == ArrivalMode::Open) {
            net.loop().at(nextArrival(c), [this, c] { arrive(c); });
            continue;
        }
        // Prime the window; a small stagger keeps clients * W operations
        // from firing in lockstep at t=0 (ON-OFF gating then pushes gated
        // slots to each client's first burst).
        for (int w = 0; w < arrivals_[c].window; w++) {
            const Duration jitter = static_cast<Duration>(
                rngs_[c].uniform() * static_cast<double>(microseconds(5)));
            net.loop().at(jitter, [this, c] { gated(c); });
        }
    }

    // The RPC harness draws RpcIds from one global stream and orchestrates
    // every client from one loop, so it runs single-shard.
    runNetworkUntil(net, cfg.stop + cfg.drainGrace);

    result.issued = issuedInWindow_;
    result.completed = completedInWindow_;
    for (const auto& ep : endpoints) {
        result.retries += ep->stats().retries;
        result.reexecutions += ep->stats().reexecutions;
    }
    result.keptUp = issuedInWindow_ > 0 &&
                    static_cast<double>(completedInWindow_) >=
                        0.99 * static_cast<double>(issuedInWindow_);
}

// Echo: one call to a server drawn from the client's own stream, which
// answers with the request's size.
void runEcho(RpcHarness& h) {
    h.result.slowdown =
        std::make_unique<SlowdownTracker>(h.dist, h.oracle.echoRpcFn());
    const int servers = h.net.hostCount() - h.clients;
    h.run([&h, servers](int c) {
        Rng& rng = h.rng(c);
        const uint32_t size = h.dist.sample(rng);
        const HostId server =
            static_cast<HostId>(h.clients + rng.below(servers));
        const bool inWindow = h.begin();
        h.endpoints[c]->call(
            server, size,
            [&h, c, inWindow](RpcId, uint32_t reqSize, uint32_t respSize,
                              Duration elapsed) {
                h.result.perClient->record(c, reqSize + respSize, elapsed,
                                           h.now());
                if (inWindow) h.result.slowdown->record(reqSize, elapsed);
                h.complete(c, inWindow);
            });
    });
}

// Multi-tenant serving: one hedged logical RPC. Tenants issue against
// replica groups through a ReplicaSelector; a group may hedge (re-issue
// to a second replica once an RPC outlives the tenant's observed latency
// percentile, first response wins, loser cancelled). Every call's
// lifecycle feeds the ServingStats ledgers, so the invariant tests can
// prove conservation: exactly one response consumed per logical RPC,
// every issued byte consumed, refunded, or declared unresolved at run end.
void runServing(RpcHarness& h) {
    const RpcExperimentConfig& cfg = h.cfg;
    const ServingConfig& sv = cfg.serving;
    const OracleFn echo = h.oracle.echoRpcFn();
    const int nTenants = static_cast<int>(sv.tenants.size());
    const int nClients = h.clients;
    const int servers = h.net.hostCount() - nClients;

    const std::vector<ReplicaGroupConfig> groups = sv.effectiveGroups();
    std::vector<ResolvedGroup> resolved;
    if (std::string err; !resolveReplicaGroups(sv, servers, resolved, &err)) {
        throw std::invalid_argument("invalid serving config: " + err);
    }

    RpcExperimentResult& result = h.result;
    result.tenants = std::make_unique<TenantTracker>(nTenants, h.windowStart,
                                                     cfg.stop);
    ServingStats& led = result.serving;

    // Per-tenant state: sizes, group, selector sequence, hedge delay.
    struct TenantState {
        const SizeDistribution* dist = nullptr;
        int groupIdx = 0;
        uint64_t seq = 0;  // logical-RPC sequence; feeds the selector
        // Observed latencies arm the hedge delay (whole run, not
        // window-gated: the hedge needs samples before the window opens).
        StreamingQuantile latency;  // microseconds, at hedgePercentile
        Duration hedgeDelay = 0;
        int sinceRecalc = 0;
    };
    std::vector<TenantState> ts(static_cast<size_t>(nTenants));
    std::vector<ReplicaSelector> selectors;
    selectors.reserve(static_cast<size_t>(nTenants));
    std::vector<int> clientTenant;
    for (int t = 0; t < nTenants; t++) {
        const TenantConfig& tc = sv.tenants[t];
        ts[t].dist = &workload(tc.workload);
        ts[t].groupIdx = tenantGroupIndex(sv, tc);
        ts[t].latency =
            StreamingQuantile(groups[ts[t].groupIdx].hedgePercentile);
        selectors.emplace_back(groups[ts[t].groupIdx].policy,
                               resolved[ts[t].groupIdx].count, cfg.seed, t);
        clientTenant.insert(clientTenant.end(), tc.clients, t);
    }

    // Outstanding-call depth per server host, fed to power-of-two-choices.
    std::vector<int> depth(static_cast<size_t>(h.net.hostCount()), 0);

    // One logical RPC: a primary call plus at most one hedge, first
    // response wins. Callbacks carry (logicalId, slot) by capture, so no
    // reverse map is needed; a cancelled call's callback never fires.
    struct CallSlot {
        RpcId id = 0;
        HostId server = 0;
        bool open = false;  // issued, neither consumed nor cancelled
    };
    struct Logical {
        int tenant = 0;
        int client = 0;
        uint32_t size = 0;
        Time issuedAt = 0;
        bool inWindow = false;
        CallSlot calls[2];  // [0] primary, [1] hedge
        bool hedged = false;
    };
    std::unordered_map<uint64_t, Logical> active;
    uint64_t nextLogical = 1;

    auto hedgeArmed = [&](int t) -> bool {
        const ReplicaGroupConfig& g = groups[ts[t].groupIdx];
        return g.hedging() &&
               ts[t].latency.count() >= static_cast<size_t>(g.hedgeMinSamples);
    };
    auto hedgeDelayFor = [&](int t) -> Duration {
        TenantState& s = ts[t];
        const ReplicaGroupConfig& g = groups[s.groupIdx];
        // Refresh the delay from the streaming percentile every 64
        // completions. The query is O(1); the cadence is kept because it
        // decides which delay each RPC is armed with, and so the results.
        if (s.hedgeDelay == 0 || s.sinceRecalc >= 64) {
            const Duration p = static_cast<Duration>(std::llround(
                s.latency.value() * static_cast<double>(microseconds(1))));
            s.hedgeDelay = std::max(g.hedgeFloor, p);
            s.sinceRecalc = 0;
        }
        return s.hedgeDelay;
    };

    std::function<void(RpcId, uint64_t, int, uint32_t, Duration)> onResponse;

    auto issueCall = [&](uint64_t logicalId, int slot, HostId server) {
        Logical& lg = active[logicalId];
        const RpcId id = h.endpoints[lg.client]->call(
            server, lg.size,
            [&, logicalId, slot](RpcId rid, uint32_t, uint32_t respSize,
                                 Duration elapsed) {
                onResponse(rid, logicalId, slot, respSize, elapsed);
            });
        lg.calls[slot] = CallSlot{id, server, true};
        depth[server]++;
        led.callsIssued++;
        led.issuedBytes += 2 * static_cast<int64_t>(lg.size);
    };

    auto issueHedge = [&](uint64_t logicalId, uint64_t seq) {
        const auto it = active.find(logicalId);
        if (it == active.end()) return;  // already resolved; stale timer
        Logical& lg = it->second;
        if (lg.hedged) return;
        if (h.now() >= cfg.stop) return;  // no new work in drain
        const int t = lg.tenant;
        const ResolvedGroup& rg = resolved[ts[t].groupIdx];
        const int primaryLocal =
            static_cast<int>(lg.calls[0].server) - nClients - rg.first;
        const int replica = selectors[t].pickHedge(seq, primaryLocal);
        lg.hedged = true;
        led.hedgesIssued++;
        result.tenants->recordHedgeIssued(t);
        issueCall(logicalId, 1,
                  static_cast<HostId>(nClients + rg.first + replica));
    };

    onResponse = [&](RpcId, uint64_t logicalId, int slot, uint32_t respSize,
                     Duration /*callElapsed*/) {
        // The winner cancels the loser synchronously below, so the loser's
        // callback never fires: this is structurally the only response a
        // logical RPC consumes.
        const auto it = active.find(logicalId);
        assert(it != active.end());
        Logical& lg = it->second;
        const int t = lg.tenant;
        const Time now = h.now();
        lg.calls[slot].open = false;
        depth[lg.calls[slot].server]--;
        led.responsesConsumed++;
        led.logicalCompleted++;
        led.consumedBytes += static_cast<int64_t>(lg.size) + respSize;
        if (slot == 1) {
            led.hedgesWon++;
            result.tenants->recordHedgeWon(t);
        }
        // Cancel the losing sibling (primary when the hedge won, hedge
        // when the primary won). A false return means the endpoint had
        // already aborted it after max retries; its bytes then resolve at
        // run end, not here — and the endpoint's own `cancelled` counter
        // stays equal to ours.
        const int other = 1 - slot;
        if (lg.calls[other].open) {
            lg.calls[other].open = false;
            depth[lg.calls[other].server]--;
            if (h.endpoints[lg.client]->cancel(lg.calls[other].id)) {
                led.refundedBytes += 2 * static_cast<int64_t>(lg.size);
                if (other == 1) {
                    led.hedgesCancelled++;
                    result.tenants->recordHedgeCancelled(t);
                } else {
                    led.primariesCancelled++;
                }
            } else {
                led.unresolvedBytes += 2 * static_cast<int64_t>(lg.size);
                if (other == 1) {
                    led.hedgesFailed++;
                    result.tenants->recordHedgeFailed(t);
                }
            }
        }
        // Latency measured from logical issue (a winning hedge includes
        // the hedge delay — that *is* the tail the tenant observes).
        const Duration logicalElapsed = now - lg.issuedAt;
        const double us = toMicros(logicalElapsed);
        ts[t].latency.add(us);
        ts[t].sinceRecalc++;
        const double best = static_cast<double>(echo(lg.size));
        const double sd =
            best > 0 ? static_cast<double>(logicalElapsed) / best : 0;
        result.tenants->record(t, static_cast<int64_t>(lg.size) + respSize,
                               logicalElapsed, sd, now);
        result.perClient->record(lg.client,
                                 static_cast<int64_t>(lg.size) + respSize,
                                 logicalElapsed, now);
        const int client = lg.client;
        const bool inWindow = lg.inWindow;
        active.erase(it);
        h.complete(client, inWindow);
    };

    h.run([&](int c) {
        const int t = clientTenant[c];
        TenantState& s = ts[t];
        const ResolvedGroup& rg = resolved[s.groupIdx];
        const uint64_t seq = s.seq++;
        const uint32_t size = s.dist->sample(h.rng(c));
        const int replica = selectors[t].pick(seq, [&](int r) {
            return depth[static_cast<size_t>(nClients + rg.first + r)];
        });
        const HostId server = static_cast<HostId>(nClients + rg.first + replica);

        const uint64_t logicalId = nextLogical++;
        Logical lg;
        lg.tenant = t;
        lg.client = c;
        lg.size = size;
        lg.issuedAt = h.now();
        lg.inWindow = h.begin();
        active.emplace(logicalId, lg);
        led.logicalIssued++;
        issueCall(logicalId, 0, server);
        if (hedgeArmed(t)) {
            h.net.loop().after(hedgeDelayFor(t), [&, logicalId, seq] {
                issueHedge(logicalId, seq);
            });
        }
    });

    // Close the ledgers: whatever is still active never resolved. Each of
    // its open calls parks its bytes in `unresolvedBytes`; an issued,
    // still-open hedge is a failed hedge (neither won nor cancelled).
    for (auto& [id, lg] : active) {
        (void)id;
        for (int slot = 0; slot < 2; slot++) {
            if (!lg.calls[slot].open) continue;
            led.unresolvedBytes += 2 * static_cast<int64_t>(lg.size);
        }
        if (lg.hedged && lg.calls[1].open) {
            led.hedgesFailed++;
            result.tenants->recordHedgeFailed(lg.tenant);
        }
    }
}

}  // namespace

RpcExperimentResult runRpcExperiment(const RpcExperimentConfig& cfg) {
    if (const std::string err = rpcConfigError(cfg); !err.empty()) {
        throw std::invalid_argument(err);
    }
    RpcHarness h(cfg);
    if (cfg.serving.enabled()) {
        runServing(h);
    } else {
        runEcho(h);
    }
    return std::move(h.result);
}

IncastResult runIncastExperiment(int concurrent, bool incastControl,
                                 uint32_t responseBytes, int totalRpcs,
                                 uint64_t seed) {
    NetworkConfig netCfg = NetworkConfig::singleRack16();
    ProtocolConfig proto;
    proto.homa.incastControl = incastControl;
    netCfg.switchQdisc = [] {
        // Finite switch buffers so that un-controlled incast actually drops
        // packets (the effect Figure 10 demonstrates). 2 MB per port is
        // representative of a shallow-buffered 10G TOR: it holds ~200
        // un-controlled 10KB responses, or several thousand incast-capped
        // (~320B unscheduled) ones.
        StrictPriorityOptions o;
        o.capBytes = 2 << 20;
        return std::make_unique<StrictPriorityQdisc>(o);
    };
    const SizeDistribution& dist = workload(WorkloadId::W3);  // unused sizes
    Network net(netCfg, makeTransportFactory(proto, netCfg, &dist));

    std::vector<std::unique_ptr<RpcEndpoint>> endpoints;
    for (HostId h = 0; h < net.hostCount(); h++) {
        endpoints.push_back(std::make_unique<RpcEndpoint>(net, h));
        endpoints.back()->setHandler(
            [responseBytes](const Message&) { return responseBytes; });
    }
    // The experiment *creates* the incast deliberately; let the mechanism,
    // not the client-side cap, decide (threshold stays at the default 25).

    if (totalRpcs <= 0) totalRpcs = std::max(4 * concurrent, 2000);

    Rng rng(seed);
    IncastResult result;
    int issued = 0;
    Time firstIssue = -1, lastResponse = 0;
    int64_t receivedBytes = 0;

    std::function<void()> issueOne = [&] {
        if (issued >= totalRpcs) return;
        issued++;
        const HostId server = static_cast<HostId>(1 + rng.below(15));
        if (firstIssue < 0) firstIssue = net.loop().now();
        endpoints[0]->call(server, 32,
                           [&](RpcId, uint32_t, uint32_t respSize, Duration) {
                               receivedBytes += respSize;
                               result.completed++;
                               lastResponse = net.loop().now();
                               issueOne();  // keep `concurrent` outstanding
                           });
    };
    for (int i = 0; i < concurrent; i++) issueOne();

    net.loop().run();

    result.retries = endpoints[0]->stats().retries;
    const Duration elapsed = lastResponse - firstIssue;
    if (elapsed > 0) {
        result.throughputGbps = static_cast<double>(receivedBytes) * 8.0 /
                                (toSeconds(elapsed) * 1e9);
    }
    return result;
}

}  // namespace homa
