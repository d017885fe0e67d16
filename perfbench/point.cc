// One experiment point of the repository benchmark, in its own process.
//
//   perfbench_point --workload NAME --seed N --mode run|trace|setup
//
// Every mode first measures cold set-up: the workload size distributions'
// Monte Carlo caches, the Network (hosts, switches, qdiscs, transports)
// and the traffic source, built once with the point's own config and torn
// down again before anything else runs. Then:
//   run    the point through the public driver entry (runExperiment or
//          runRpcExperiment), timed in wall and CPU seconds;
//   trace  the same untraced run, then a traced replay whose layer calls
//          are wrapped and timed from this file (nothing inside src/ is
//          instrumented); the replay must reproduce the untraced result
//          byte for byte;
//   setup  nothing more.
// The process prints one JSON object on stdout; run.py aggregates the
// processes of a benchmark run and checks the digests against goldens.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "driver/experiment.h"
#include "driver/rpc_experiment.h"
#include "driver/sweep.h"
#include "stats/counters.h"

using namespace homa;

namespace {

int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double nsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double cpuSeconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// FNV-1a 64 over a fingerprint string, as sweepFingerprint hashes points.
std::string digestOf(const std::string& fingerprint) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : fingerprint) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string hexFloat(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

// ------------------------------------------------------------ workloads

// Generation windows. Each point is sized so one untraced run takes a few
// host seconds on a current x86 core, so a benchmark run can repeat it and
// report a median.
constexpr int kHomaW3WindowMs = 2;
constexpr int kPFabricW4WindowMs = 10;
constexpr int kServingStopMs = 8;

struct PointSpec {
    std::string name;
    bool serving = false;
    ExperimentConfig msg;
    RpcExperimentConfig rpc;
};

/// The three benchmark workloads (see README.md for why each was chosen).
bool makeSpec(const std::string& name, uint64_t seed, PointSpec& out) {
    out.name = name;
    if (name == "homa-w3") {
        // The paper's default point: Homa, W3, 144-host fat-tree, 0.8 load.
        out.msg.net = NetworkConfig::fatTree144();
        out.msg.proto.kind = Protocol::Homa;
        out.msg.traffic.workload = WorkloadId::W3;
        out.msg.traffic.load = 0.8;
        out.msg.traffic.seed = seed;
        out.msg.traffic.stop = milliseconds(kHomaW3WindowMs);
        return true;
    }
    if (name == "pfabric-w4-3shard") {
        // pFabric, W4, 0.8 load on the parallel engine: 9 racks, 3/3/3.
        out.msg.net = NetworkConfig::fatTree144();
        out.msg.proto.kind = Protocol::PFabric;
        out.msg.traffic.workload = WorkloadId::W4;
        out.msg.traffic.load = 0.8;
        out.msg.traffic.seed = seed;
        out.msg.traffic.stop = milliseconds(kPFabricW4WindowMs);
        out.msg.parallel.threads = 3;
        // SRPT finishes W4's 10 MB messages last: 50 ms after generation
        // stops a few are still in flight, and one (seed 3, point 3)
        // crawls until 215 ms. The engine skips the idle tail, so the long
        // drain costs no host time.
        out.msg.drainGrace = milliseconds(1000);
        return true;
    }
    if (name == "serving-3tenant") {
        // bench/fig_serving.cc's hedged p2c mix: burst W1 + web W3 open
        // loop, batch W2 closed loop, 4 replicas behind 12 clients.
        RpcExperimentConfig& cfg = out.rpc;
        out.serving = true;
        cfg.net = NetworkConfig::singleRack16();
        cfg.seed = seed;
        cfg.stop = milliseconds(kServingStopMs);

        TenantConfig burst;
        burst.name = "burst";
        burst.workload = WorkloadId::W1;
        burst.mode = ArrivalMode::Open;
        burst.load = 0.35;
        burst.clients = 6;

        TenantConfig web;
        web.name = "web";
        web.workload = WorkloadId::W3;
        web.mode = ArrivalMode::Open;
        web.load = 0.25;
        web.clients = 4;

        TenantConfig batch;
        batch.name = "batch";
        batch.workload = WorkloadId::W2;
        batch.mode = ArrivalMode::Closed;
        batch.window = 4;
        batch.clients = 2;

        ReplicaGroupConfig pool;
        pool.name = "pool";
        pool.replicas = 0;
        pool.policy = LbPolicy::PowerOfTwo;
        pool.hedgePercentile = 0.95;

        cfg.serving.tenants = {burst, web, batch};
        cfg.serving.groups = {pool};
        return true;
    }
    return false;
}

int requestedShards(const PointSpec& p) {
    return p.serving ? 1 : std::max(1, p.msg.parallel.threads);
}

// --------------------------------------------------------------- JSON

class JsonObject {
public:
    JsonObject& num(const std::string& k, double v) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(k, buf);
    }
    JsonObject& integer(const std::string& k, uint64_t v) {
        return raw(k, std::to_string(v));
    }
    JsonObject& boolean(const std::string& k, bool v) {
        return raw(k, v ? "true" : "false");
    }
    JsonObject& str(const std::string& k, const std::string& v) {
        return raw(k, quote(v));
    }
    JsonObject& strList(const std::string& k,
                        const std::vector<std::string>& v) {
        std::string s = "[";
        for (size_t i = 0; i < v.size(); i++) {
            if (i > 0) s += ", ";
            s += quote(v[i]);
        }
        return raw(k, s + "]");
    }
    JsonObject& obj(const std::string& k, const JsonObject& o) {
        return raw(k, o.text());
    }
    std::string text() const { return "{" + body_ + "}"; }

private:
    static std::string quote(const std::string& v) {
        std::string s = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\') s += '\\';
            s += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
        }
        return s + "\"";
    }
    JsonObject& raw(const std::string& k, const std::string& v) {
        if (!body_.empty()) body_ += ", ";
        body_ += quote(k) + ": " + v;
        return *this;
    }
    std::string body_;
};

// -------------------------------------------------------------- set-up

struct SetupTimes {
    double distS = 0;
    double networkS = 0;
    double generatorS = 0;
    int shards = 1;
};

/// Cold construction of everything a point builds before its first event.
/// Called first thing in the process, so the distribution caches are cold.
SetupTimes measureSetup(const PointSpec& p) {
    SetupTimes t;
    if (!p.serving) {
        const ExperimentConfig& cfg = p.msg;
        const int64_t t0 = nowNs();
        const SizeDistribution& dist = workload(cfg.traffic.workload);
        dist.meanWireBytes();  // builds both Monte Carlo caches
        const int64_t t1 = nowNs();
        NetworkConfig netCfg = cfg.net;
        netCfg.switchQdisc = switchQdiscFor(cfg.proto);
        Network net(netCfg, makeTransportFactory(cfg.proto, netCfg, &dist),
                    requestedShards(p));
        const int64_t t2 = nowNs();
        TrafficGenerator gen(net, cfg.traffic);
        const int64_t t3 = nowNs();
        t.distS = nsToS(t1 - t0);
        t.networkS = nsToS(t2 - t1);
        t.generatorS = nsToS(t3 - t2);
        t.shards = net.shardCount();
        return t;
    }
    // Serving: the request side is one RpcEndpoint per host plus one
    // ReplicaSelector per tenant, as runRpcExperiment builds them.
    const RpcExperimentConfig& cfg = p.rpc;
    const ServingConfig& sv = cfg.serving;
    const int64_t t0 = nowNs();
    for (const TenantConfig& tc : sv.tenants) {
        workload(tc.workload).meanWireBytes();
    }
    const int64_t t1 = nowNs();
    NetworkConfig netCfg = cfg.net;
    netCfg.switchQdisc = switchQdiscFor(cfg.proto);
    const SizeDistribution& primary = workload(sv.tenants[0].workload);
    Network net(netCfg, makeTransportFactory(cfg.proto, netCfg, &primary));
    const int64_t t2 = nowNs();
    std::vector<std::unique_ptr<RpcEndpoint>> endpoints;
    for (HostId h = 0; h < net.hostCount(); h++) {
        endpoints.push_back(std::make_unique<RpcEndpoint>(net, h));
    }
    std::vector<ResolvedGroup> resolved;
    std::string err;
    if (!resolveReplicaGroups(sv, net.hostCount() - sv.totalClients(),
                              resolved, &err)) {
        std::fprintf(stderr, "serving config does not resolve: %s\n",
                     err.c_str());
        std::exit(2);
    }
    const std::vector<ReplicaGroupConfig> groups = sv.effectiveGroups();
    std::vector<ReplicaSelector> selectors;
    for (size_t i = 0; i < sv.tenants.size(); i++) {
        const int g = tenantGroupIndex(sv, sv.tenants[i]);
        selectors.emplace_back(groups[g].policy, resolved[g].count, cfg.seed,
                               static_cast<int>(i));
    }
    const int64_t t3 = nowNs();
    t.distS = nsToS(t1 - t0);
    t.networkS = nsToS(t2 - t1);
    t.generatorS = nsToS(t3 - t2);
    t.shards = net.shardCount();
    return t;
}

// ------------------------------------------------------- untraced run

/// The simulated outputs every run reports and every check compares.
struct Outputs {
    uint64_t attempted = 0;  // messages (logical RPCs) issued in the window
    uint64_t completed = 0;  // of those, delivered (answered) by run end
    double p50 = 0;
    double p99 = 0;
    // Reported, not checked: runExperiment's backlog heuristic flags about 1%
    // of short homa-w3 points that deliver every message (see README.md).
    // It is part of the fingerprint, so goldens pin it.
    bool keptUp = false;
    std::string digest;
    std::vector<std::string> violations;
};

void check(std::vector<std::string>& v, bool ok, const std::string& what) {
    if (!ok) v.push_back(what);
}

Outputs outputsOf(const ExperimentResult& r) {
    Outputs o;
    o.attempted = r.generated;
    o.completed = r.delivered;
    o.p50 = r.slowdown->overallPercentile(0.50);
    o.p99 = r.slowdown->overallPercentile(0.99);
    o.digest = digestOf(resultFingerprint(r));
    check(o.violations, r.generated > 0, "no message generated in the window");
    check(o.violations, r.delivered <= r.generated,
          "generated != delivered + undelivered (delivered exceeds generated)");
    check(o.violations, r.slowdown->count() == r.delivered,
          "slowdown samples != delivered");
    check(o.violations, r.deliveredTotal >= r.delivered,
          "deliveredTotal < in-window delivered");
    o.keptUp = r.keptUp;
    return o;
}

/// Serving has no whole-run slowdown tracker; p50/p99 are the burst
/// tenant's (index 0, the incast-heavy fleet bench/fig_serving gates on).
Outputs outputsOf(const RpcExperimentResult& r) {
    Outputs o;
    o.attempted = r.issued;
    o.completed = r.completed;
    o.p50 = r.tenants->slowdownPercentile(0, 0.50);
    o.p99 = r.tenants->slowdownPercentile(0, 0.99);
    o.digest = digestOf(resultFingerprint(r));
    o.keptUp = r.keptUp;
    const ServingStats& s = r.serving;
    check(o.violations, r.issued > 0, "no logical RPC issued in the window");
    check(o.violations, r.completed <= r.issued,
          "completed exceeds issued logical RPCs");
    check(o.violations, s.callsIssued == s.logicalIssued + s.hedgesIssued,
          "callsIssued != logicalIssued + hedgesIssued");
    check(o.violations, s.responsesConsumed == s.logicalCompleted,
          "responsesConsumed != logicalCompleted");
    check(o.violations,
          s.hedgesIssued == s.hedgesWon + s.hedgesCancelled + s.hedgesFailed,
          "hedgesIssued != won + cancelled + failed");
    check(o.violations, s.primariesCancelled == s.hedgesWon,
          "primariesCancelled != hedgesWon");
    check(o.violations,
          s.issuedBytes == s.consumedBytes + s.refundedBytes + s.unresolvedBytes,
          "issuedBytes != consumed + refunded + unresolved");
    return o;
}

struct UntracedRun {
    double runS = 0;
    double cpuS = 0;
    Outputs out;
};

UntracedRun untracedRun(const PointSpec& p) {
    UntracedRun u;
    const double c0 = cpuSeconds();
    const int64_t t0 = nowNs();
    if (p.serving) {
        const RpcExperimentResult r = runRpcExperiment(p.rpc);
        u.runS = nsToS(nowNs() - t0);
        u.cpuS = cpuSeconds() - c0;
        u.out = outputsOf(r);
    } else {
        const ExperimentResult r = runExperiment(p.msg);
        u.runS = nsToS(nowNs() - t0);
        u.cpuS = cpuSeconds() - c0;
        u.out = outputsOf(r);
    }
    return u;
}

// --------------------------------------------------------- traced run

struct Span {
    uint64_t calls = 0;
    int64_t ns = 0;
    void add(const Span& o) {
        calls += o.calls;
        ns += o.ns;
    }
};

/// Times every Transport entry point. Transport::setDeliveryCallback is
/// not virtual, so Network installs its delivery callback on this wrapper
/// and the inner transport gets a forwarder; the time the forwarder spends
/// in the (benchmark-side) delivery code is subtracted from the transport
/// call that triggered it, leaving the transport's self time.
class TracedTransport final : public Transport {
public:
    explicit TracedTransport(std::unique_ptr<Transport> inner)
        : inner_(std::move(inner)) {
        inner_->setDeliveryCallback(
            [this](const Message& m, const DeliveryInfo& info) {
                const int64_t t0 = nowNs();
                notifyDelivered(m, info);
                nestedNs_ += nowNs() - t0;
            });
    }
    TracedTransport(const TracedTransport&) = delete;
    TracedTransport& operator=(const TracedTransport&) = delete;

    void sendMessage(const Message& m) override {
        timed(send, [&] { inner_->sendMessage(m); });
    }
    void handlePacket(const Packet& p) override {
        timed(handle, [&] { inner_->handlePacket(p); });
    }
    std::optional<Packet> pullPacket() override {
        std::optional<Packet> out;
        timed(pull, [&] { out = inner_->pullPacket(); });
        if (out) pullHits++;
        return out;
    }
    bool hasWithheldWork() const override { return inner_->hasWithheldWork(); }

    Span send, handle, pull;
    uint64_t pullHits = 0;

private:
    template <class F>
    void timed(Span& s, F&& f) {
        const int64_t nested0 = nestedNs_;
        const int64_t t0 = nowNs();
        f();
        s.ns += nowNs() - t0 - (nestedNs_ - nested0);
        s.calls++;
    }

    std::unique_ptr<Transport> inner_;
    int64_t nestedNs_ = 0;
};

/// Times a switch egress queue. Ports read drop/trim counts through the
/// non-virtual Qdisc::stats(), so the wrapper mirrors the inner counters
/// after every call.
class TracedQdisc final : public Qdisc {
public:
    explicit TracedQdisc(std::unique_ptr<Qdisc> inner)
        : inner_(std::move(inner)) {}

    bool enqueue(Packet& p) override {
        const int64_t t0 = nowNs();
        const bool ok = inner_->enqueue(p);
        enq.ns += nowNs() - t0;
        enq.calls++;
        if (ok) accepted++;
        stats_ = inner_->stats();
        return ok;
    }
    std::optional<Packet> dequeue() override {
        const int64_t t0 = nowNs();
        std::optional<Packet> out = inner_->dequeue();
        deq.ns += nowNs() - t0;
        deq.calls++;
        stats_ = inner_->stats();
        return out;
    }
    int64_t queuedBytes() const override { return inner_->queuedBytes(); }
    size_t queuedPackets() const override { return inner_->queuedPackets(); }

    Span enq, deq;
    uint64_t accepted = 0;

private:
    std::unique_ptr<Qdisc> inner_;
};

/// Wraps a switch qdisc factory; every queue it builds is registered in
/// `out`. Network builds its queues serially during construction, and each
/// queue is then touched only from its switch's shard, so the per-instance
/// counters need no locks even on the parallel engine.
std::function<std::unique_ptr<Qdisc>()> tracedQdiscs(
    std::function<std::unique_ptr<Qdisc>()> inner,
    std::vector<TracedQdisc*>& out) {
    return [inner = std::move(inner), &out]() -> std::unique_ptr<Qdisc> {
        auto q = std::make_unique<TracedQdisc>(inner());
        out.push_back(q.get());
        return q;
    };
}

/// Per-layer totals of one traced run.
struct LayerTotals {
    double runS = 0;
    Span send, handle, pull;
    uint64_t pullHits = 0;
    Span enq, deq;
    uint64_t accepted = 0;
    Span oracle, record;
    uint64_t oracleDistinct = 0;
    double finalizeS = 0;
    std::vector<uint64_t> shardEvents;
    uint64_t generated = 0;
    int64_t generatedBytes = 0;
    uint64_t rpcCalls = 0, rpcRetries = 0;
    double usefulByteRatio = 0, hedgeWinRatio = 0;
};

void sumQdiscs(const std::vector<TracedQdisc*>& qs, LayerTotals& t) {
    for (const TracedQdisc* q : qs) {
        t.enq.add(q->enq);
        t.deq.add(q->deq);
        t.accepted += q->accepted;
    }
}

uint64_t sumDrops(Network& net, bool trims) {
    uint64_t total = 0;
    auto add = [&](const EgressPort* p) {
        total += trims ? p->qdisc().stats().trimmed : p->qdisc().stats().dropped;
        if (!trims) {
            total += p->stats().faultWireDrops + p->stats().faultProbDrops;
        }
    };
    for (const auto* p : net.torDownlinkPorts()) add(p);
    for (const auto* p : net.torUplinkPorts()) add(p);
    for (const auto* p : net.aggrDownlinkPorts()) add(p);
    for (const auto* p : net.aggrUplinkPorts()) add(p);
    for (const auto* p : net.coreDownlinkPorts()) add(p);
    if (!trims) {
        for (int r = 0; r < net.rackCount(); r++) {
            total += net.tor(r).deadIngressDrops() + net.tor(r).flushDrops();
        }
        for (int a = 0; a < net.aggrCount(); a++) {
            total += net.aggr(a).deadIngressDrops() + net.aggr(a).flushDrops();
        }
        for (int c = 0; c < net.coreCount(); c++) {
            total += net.core(c).deadIngressDrops() + net.core(c).flushDrops();
        }
    }
    return total;
}

/// runExperiment (driver/experiment.cc) reassembled from public calls for
/// the open-loop, two-tier, fault-free, packet-only points this benchmark
/// runs, with the transports, switch qdiscs, oracle and slowdown recording
/// timed. Every step that can order events — construction, the snapshot
/// events, gen.start() — happens in runExperiment's order, so the
/// fingerprint matches the untraced run exactly; the caller checks it.
ExperimentResult tracedMessageRun(const ExperimentConfig& cfg, LayerTotals& t,
                                  std::vector<std::string>& violations) {
    const int64_t tStart = nowNs();
    const SizeDistribution& dist = workload(cfg.traffic.workload);

    std::vector<TracedQdisc*> qdiscs;
    std::vector<TracedTransport*> transports;
    NetworkConfig netCfg = cfg.net;
    netCfg.switchQdisc = switchQdiscFor(cfg.proto);
    const TransportFactory inner = makeTransportFactory(cfg.proto, netCfg, &dist);
    netCfg.switchQdisc = tracedQdiscs(netCfg.switchQdisc, qdiscs);
    const TransportFactory traced = [&](HostServices& h) {
        auto tr = std::make_unique<TracedTransport>(inner(h));
        transports.push_back(tr.get());
        return std::unique_ptr<Transport>(std::move(tr));
    };

    Network net(netCfg, traced, std::max(1, cfg.parallel.threads));
    Oracle oracle(netCfg);
    const int n = net.hostCount();

    ExperimentResult result;
    result.slowdown = std::make_unique<SlowdownTracker>(dist, oracle.oneWayFn());
    const Time genStart = cfg.traffic.start;
    const Time genStop = cfg.traffic.stop;
    const Time windowStart =
        genStart + static_cast<Time>(cfg.warmupFraction *
                                     static_cast<double>(genStop - genStart));
    result.windowStart = windowStart;
    result.windowEnd = genStop;

    // Per-host cells, each written only from its host's shard (creation
    // side by m.src, delivery side by m.dst), as in runExperiment.
    std::vector<uint64_t> inWindowGenerated(n, 0), inWindowDelivered(n, 0);
    std::vector<uint64_t> deliveredTotal(n, 0);
    std::vector<int64_t> generatedBytesAll(n, 0), deliveredBytesAll(n, 0);
    std::vector<Oracle> oracles(static_cast<size_t>(n), Oracle(netCfg));
    std::vector<SlowdownTracker> slowdowns;
    slowdowns.reserve(n);
    for (int h = 0; h < n; h++) slowdowns.emplace_back(dist, oracle.oneWayFn());
    struct HostTrace {
        Span oracle, record;
        std::unordered_set<uint64_t> oracleKeys;
        std::vector<MsgId> generatedIds, deliveredIds;  // in-window only
    };
    std::vector<HostTrace> ht(static_cast<size_t>(n));

    TrafficGenerator gen(net, cfg.traffic, [&](const Message& m) {
        generatedBytesAll[m.src] += m.length;
        if (m.created >= windowStart && m.created < genStop) {
            inWindowGenerated[m.src]++;
            ht[m.src].generatedIds.push_back(m.id);
        }
    });

    net.setDeliveryCallback([&](const Message& m, const DeliveryInfo& info) {
        deliveredTotal[m.dst]++;
        deliveredBytesAll[m.dst] += m.length;
        gen.onDelivered(m);
        if (m.created < windowStart || m.created >= genStop) return;
        inWindowDelivered[m.dst]++;
        HostTrace& h = ht[m.dst];
        h.deliveredIds.push_back(m.id);
        const bool intraRack = net.rackOf(m.src) == net.rackOf(m.dst);
        const int64_t t0 = nowNs();
        const Duration best = oracles[m.dst].bestOneWay(m.length, intraRack);
        const int64_t t1 = nowNs();
        slowdowns[m.dst].recordWithBest(m.length, info.completed - m.created,
                                        best, info.queueingDelay,
                                        info.preemptionLag);
        const int64_t t2 = nowNs();
        h.oracle.calls++;
        h.oracle.ns += t1 - t0;
        h.record.calls++;
        h.record.ns += t2 - t1;
        h.oracleKeys.insert(static_cast<uint64_t>(m.length) << 1 |
                            (intraRack ? 1u : 0u));
    });

    struct HostSnapshot {
        double downlinkWire = 0;
        std::array<double, kPriorityLevels> prioWire{};
        int64_t backlogBytes = 0;
    };
    std::vector<HostSnapshot> startSnap(n), endSnap(n);
    auto snapshotShard = [&](int shard, std::vector<HostSnapshot>& out) {
        for (HostId h = 0; h < n; h++) {
            if (net.shardOfHost(h) != shard) continue;
            const auto& st = net.downlink(h).stats();
            out[h].downlinkWire = static_cast<double>(st.wireBytesSent);
            for (int p = 0; p < kPriorityLevels; p++) {
                out[h].prioWire[p] = static_cast<double>(st.bytesByPriority[p]);
            }
            out[h].backlogBytes = generatedBytesAll[h] - deliveredBytesAll[h];
        }
    };
    for (int s = 0; s < net.shardCount(); s++) {
        net.shardLoop(s).at(windowStart, [&snapshotShard, &startSnap, s] {
            snapshotShard(s, startSnap);
        });
        net.shardLoop(s).at(genStop, [&snapshotShard, &endSnap, s] {
            snapshotShard(s, endSnap);
        });
    }

    gen.start();
    runNetworkUntil(net, genStop + cfg.drainGrace);

    const int64_t tFinal = nowNs();
    for (HostId h = 0; h < n; h++) result.slowdown->absorb(slowdowns[h]);
    result.slowdown->overallPercentile(0.50);
    result.slowdown->overallPercentile(0.99);
    result.slowdown->rows();
    t.finalizeS = nsToS(nowNs() - tFinal);

    uint64_t generatedSum = 0, deliveredSum = 0;
    int64_t backlogStart = 0, backlogEnd = 0;
    double startWire = 0, endWire = 0;
    std::array<double, kPriorityLevels> startPrio{}, endPrio{};
    for (HostId h = 0; h < n; h++) {
        generatedSum += inWindowGenerated[h];
        deliveredSum += inWindowDelivered[h];
        result.deliveredTotal += deliveredTotal[h];
        backlogStart += startSnap[h].backlogBytes;
        backlogEnd += endSnap[h].backlogBytes;
        startWire += startSnap[h].downlinkWire;
        endWire += endSnap[h].downlinkWire;
        for (int p = 0; p < kPriorityLevels; p++) {
            startPrio[p] += startSnap[h].prioWire[p];
            endPrio[p] += endSnap[h].prioWire[p];
        }
    }
    result.generated = generatedSum;
    result.delivered = deliveredSum;
    result.maxOutstanding = gen.maxOutstanding();

    const Time window = genStop - windowStart;
    double capacity = 0;
    for (HostId h = 0; h < n; h++) {
        capacity +=
            static_cast<double>(net.downlink(h).bandwidth().bytesIn(window));
    }
    result.downlinkUtilization =
        capacity > 0 ? (endWire - startWire) / capacity : 0;
    for (int p = 0; p < kPriorityLevels; p++) {
        result.prioUsage[p] =
            capacity > 0 ? (endPrio[p] - startPrio[p]) / capacity : 0;
    }
    const Time elapsed = net.loop().now();
    result.torUp = summarizeQueues(net.torUplinkPorts(), elapsed);
    result.aggrDown = summarizeQueues(net.aggrDownlinkPorts(), elapsed);
    result.torDown = summarizeQueues(net.torDownlinkPorts(), elapsed);
    result.switchDrops = sumDrops(net, false);
    result.switchTrims = sumDrops(net, true);

    const double bytesPerSecondPerHost =
        1e12 / static_cast<double>(netCfg.hostLink.psPerByte);
    const double offeredInWindow = static_cast<double>(n) *
                                   bytesPerSecondPerHost * cfg.traffic.load *
                                   toSeconds(window);
    const double bigMessageThreshold =
        bytesPerSecondPerHost * toSeconds(window) / 4.0;
    const double heavyAllowance =
        offeredInWindow * (1.0 - dist.byteWeightedCdf(bigMessageThreshold));
    const double backlogTolerance =
        std::max(0.08 * offeredInWindow,
                 3.0 * static_cast<double>(messageWireBytes(dist.maxSize()))) +
        heavyAllowance;
    const bool backlogStable =
        static_cast<double>(backlogEnd - backlogStart) <= backlogTolerance;
    result.keptUp = backlogStable && generatedSum > 0 &&
                    static_cast<double>(deliveredSum) >=
                        0.99 * static_cast<double>(generatedSum);
    t.runS = nsToS(nowNs() - tStart);

    // Message-level conservation, independent of runExperiment's counters:
    // every in-window delivery matches exactly one in-window creation.
    std::vector<MsgId> genIds, delIds;
    for (const HostTrace& h : ht) {
        genIds.insert(genIds.end(), h.generatedIds.begin(), h.generatedIds.end());
        delIds.insert(delIds.end(), h.deliveredIds.begin(), h.deliveredIds.end());
    }
    std::sort(genIds.begin(), genIds.end());
    std::sort(delIds.begin(), delIds.end());
    const bool uniqueDeliveries =
        std::adjacent_find(delIds.begin(), delIds.end()) == delIds.end();
    const bool subset =
        std::includes(genIds.begin(), genIds.end(), delIds.begin(), delIds.end());
    const uint64_t undelivered =
        subset ? genIds.size() - delIds.size() : genIds.size();
    check(violations, uniqueDeliveries && subset &&
                          genIds.size() == delIds.size() + undelivered &&
                          genIds.size() == generatedSum,
          "traced run: generated != delivered + undelivered by message id");

    for (const TracedTransport* tr : transports) {
        t.send.add(tr->send);
        t.handle.add(tr->handle);
        t.pull.add(tr->pull);
        t.pullHits += tr->pullHits;
    }
    sumQdiscs(qdiscs, t);
    for (const HostTrace& h : ht) {
        t.oracle.add(h.oracle);
        t.record.add(h.record);
        t.oracleDistinct += h.oracleKeys.size();
    }
    for (int s = 0; s < net.shardCount(); s++) {
        t.shardEvents.push_back(net.shardLoop(s).executedEvents());
    }
    t.generated = gen.generatedMessages();
    t.generatedBytes = gen.generatedBytes();
    return result;
}

/// Serving replays through runRpcExperiment itself: wrapping a transport
/// would hide HomaTransport from the RPC layer's dynamic_cast, so only the
/// switch qdiscs are wrapped, and the RPC counters come from the result.
RpcExperimentResult tracedServingRun(const RpcExperimentConfig& cfg,
                                     LayerTotals& t) {
    std::vector<TracedQdisc*> qdiscs;
    RpcExperimentConfig tc = cfg;
    tc.net.switchQdisc = tracedQdiscs(switchQdiscFor(cfg.proto), qdiscs);
    const int64_t t0 = nowNs();
    RpcExperimentResult r = runRpcExperiment(tc);
    const int64_t t1 = nowNs();
    // The tenant and slowdown samples sort lazily on first query.
    for (int i = 0; i < r.tenants->tenants(); i++) {
        r.tenants->latencyPercentileUs(i, 0.50);
        r.tenants->latencyPercentileUs(i, 0.99);
        r.tenants->slowdownPercentile(i, 0.50);
        r.tenants->slowdownPercentile(i, 0.99);
    }
    t.finalizeS = nsToS(nowNs() - t1);
    t.runS = nsToS(nowNs() - t0);
    sumQdiscs(qdiscs, t);
    t.shardEvents = {0};
    const ServingStats& s = r.serving;
    t.generated = s.logicalIssued;
    t.generatedBytes = s.issuedBytes / 2;  // 2*size per call: request+echo
    t.rpcCalls = s.callsIssued;
    t.rpcRetries = r.retries;
    t.usefulByteRatio =
        s.issuedBytes > 0 ? static_cast<double>(s.consumedBytes) /
                                static_cast<double>(s.issuedBytes)
                          : 0;
    t.hedgeWinRatio = s.hedgesIssued > 0
                          ? static_cast<double>(s.hedgesWon) /
                                static_cast<double>(s.hedgesIssued)
                          : 0;
    return r;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

JsonObject layerMetrics(const LayerTotals& t, const SetupTimes& setup,
                        double untracedRunS) {
    uint64_t events = 0, maxShard = 0;
    for (const uint64_t e : t.shardEvents) {
        events += e;
        maxShard = std::max(maxShard, e);
    }
    const double meanShard =
        static_cast<double>(events) / static_cast<double>(t.shardEvents.size());
    const int64_t timedNs = t.send.ns + t.handle.ns + t.pull.ns + t.enq.ns +
                            t.deq.ns + t.oracle.ns + t.record.ns;
    JsonObject m;
    m.integer("engine.events", events)
        .num("engine.ns_per_event",
             ratio(untracedRunS * 1e9, static_cast<double>(events)))
        .num("engine.other_s", t.runS - nsToS(timedNs) - t.finalizeS)
        .integer("parallel.shards", t.shardEvents.size())
        .num("parallel.event_imbalance",
             t.shardEvents.size() == 1
                 ? 1.0
                 : ratio(static_cast<double>(maxShard), meanShard))
        .integer("transport.send_message.calls", t.send.calls)
        .num("transport.send_message.self_s", nsToS(t.send.ns))
        .integer("transport.handle_packet.calls", t.handle.calls)
        .num("transport.handle_packet.self_s", nsToS(t.handle.ns))
        .integer("transport.pull_packet.calls", t.pull.calls)
        .num("transport.pull_packet.self_s", nsToS(t.pull.ns))
        .num("transport.pull_packet.hit_ratio",
             ratio(static_cast<double>(t.pullHits),
                   static_cast<double>(t.pull.calls)))
        .integer("qdisc.enqueue.calls", t.enq.calls)
        .num("qdisc.enqueue.self_s", nsToS(t.enq.ns))
        .integer("qdisc.dequeue.calls", t.deq.calls)
        .num("qdisc.dequeue.self_s", nsToS(t.deq.ns))
        .num("qdisc.accept_ratio", ratio(static_cast<double>(t.accepted),
                                         static_cast<double>(t.enq.calls)))
        .integer("oracle.calls", t.oracle.calls)
        .num("oracle.self_s", nsToS(t.oracle.ns))
        .num("oracle.distinct_key_ratio",
             ratio(static_cast<double>(t.oracleDistinct),
                   static_cast<double>(t.oracle.calls)))
        .integer("stats.record.calls", t.record.calls)
        .num("stats.record.self_s", nsToS(t.record.ns))
        .num("stats.finalize_s", t.finalizeS)
        .integer("workload.generated", t.generated)
        .integer("workload.bytes", static_cast<uint64_t>(t.generatedBytes))
        .integer("rpc.calls", t.rpcCalls)
        .integer("rpc.retries", t.rpcRetries)
        .num("rpc.useful_byte_ratio", t.usefulByteRatio)
        .num("rpc.hedge_win_ratio", t.hedgeWinRatio)
        .num("setup.dist_s", setup.distS)
        .num("setup.network_s", setup.networkS)
        .num("setup.generator_s", setup.generatorS)
        .num("trace.overhead_ratio", ratio(t.runS, untracedRunS));
    return m;
}

JsonObject outputsJson(const Outputs& o) {
    JsonObject j;
    j.integer("attempted", o.attempted)
        .integer("completed", o.completed)
        .num("p50", o.p50)
        .num("p99", o.p99)
        .str("p50_hex", hexFloat(o.p50))
        .str("p99_hex", hexFloat(o.p99))
        .boolean("kept_up", o.keptUp)
        .str("digest", o.digest)
        .strList("violations", o.violations);
    return j;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench_point --workload homa-w3|pfabric-w4-3shard|"
                 "serving-3tenant --seed N [--index I] --mode run|trace|setup\n");
    return 2;
}

bool parseU64(const std::string& text, uint64_t& out) {
    if (text.empty() || text[0] < '0' || text[0] > '9') return false;
    char* end = nullptr;
    errno = 0;
    out = std::strtoull(text.c_str(), &end, 10);
    return errno == 0 && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
    std::string name, mode = "run";
    uint64_t seed = 0, index = 0;
    bool haveSeed = false;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage();
        const std::string val = argv[++i];
        if (arg == "--workload") {
            name = val;
        } else if (arg == "--seed") {
            if (!parseU64(val, seed)) return usage();
            haveSeed = true;
        } else if (arg == "--index") {
            if (!parseU64(val, index)) return usage();
        } else if (arg == "--mode") {
            mode = val;
        } else {
            return usage();
        }
    }
    // A benchmark seed names a sequence of experiment points; point `index`
    // runs with the sweep layer's derived seed, as a sweep's point would.
    const uint64_t pointSeed = deriveSweepSeed(seed, index);
    PointSpec spec;
    if (!haveSeed || !makeSpec(name, pointSeed, spec) ||
        (mode != "run" && mode != "trace" && mode != "setup")) {
        return usage();
    }

    const SetupTimes setup = measureSetup(spec);

#ifdef __clang__
    const std::string compiler = std::string("clang ") + __VERSION__;
#else
    const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
    JsonObject manifest;
    manifest.str("compiler", compiler)
#ifdef __OPTIMIZE__
        .boolean("optimized", true)
#else
        .boolean("optimized", false)
#endif
#ifdef NDEBUG
        .boolean("ndebug", true)
#else
        .boolean("ndebug", false)
#endif
        .integer("hardware_concurrency", std::thread::hardware_concurrency())
        .integer("seed", seed)
        .integer("index", index)
        .integer("point_seed", pointSeed)
        .integer("shards", static_cast<uint64_t>(setup.shards));

    JsonObject doc;
    doc.str("workload", spec.name).str("mode", mode).obj("manifest", manifest);
    doc.obj("setup", JsonObject()
                         .num("dist_s", setup.distS)
                         .num("network_s", setup.networkS)
                         .num("generator_s", setup.generatorS)
                         .num("total_s", setup.distS + setup.networkS +
                                             setup.generatorS));
    if (mode != "setup") {
        const UntracedRun u = untracedRun(spec);
        doc.num("run_s", u.runS)
            .num("cpu_s", u.cpuS)
            .obj("outputs", outputsJson(u.out));
        if (mode == "trace") {
            LayerTotals t;
            Outputs traced;
            if (spec.serving) {
                traced = outputsOf(tracedServingRun(spec.rpc, t));
            } else {
                std::vector<std::string> extra;
                traced = outputsOf(tracedMessageRun(spec.msg, t, extra));
                traced.violations.insert(traced.violations.end(), extra.begin(),
                                         extra.end());
            }
            doc.obj("traced_outputs", outputsJson(traced))
                .obj("layers", layerMetrics(t, setup, u.runS));
        }
    }
    doc.num("peak_rss_mb", peakRssMb());
    std::printf("%s\n", doc.text().c_str());
    return 0;
}
