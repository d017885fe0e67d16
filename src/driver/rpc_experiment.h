// RPC experiment harness — the implementation measurements of §5.1.
//
// Mirrors the paper's CloudLab setup: a single-switch cluster where client
// hosts [0, clients) issue RPCs to the remaining server hosts. One harness
// builds the network, one RpcEndpoint per host and the per-client arrival
// driver, runs, and closes out the counts; a config selects which of
// two operations a client issues:
//
//  * Echo (the default): one call of `size` bytes, drawn from a
//    workload, to a random server that returns them. Slowdown is
//    measured against the best-case RPC time on an unloaded network.
//  * Serving (`serving.tenants` non-empty): one hedged logical RPC from a
//    tenant to a replica group (workload/serving.h).
//
// The arrival driver gives every client its own RNG stream forked from
// the seed, in one of two modes. Open loop is Poisson arrivals
// calibrated to a load. Closed loop keeps a window of operations in
// flight and refills a slot when one completes, after an optional think
// time. Either composes with ON-OFF burst/idle modulation (`onOff`,
// echo only): open-loop arrivals run on the client's ON-time clock at
// a boosted rate, closed-loop clients pause issuing during idle periods
// and refill their window at burst start.
//
// Echo is not a one-tenant serving mix: echo draws its server from the
// client's stream, while a ReplicaSelector is a pure function of (seed,
// tenant, sequence). Folding echo into serving would change every echo
// result, or need a load-balancing policy only echo uses.
//
// runRpcExperiment validates the config in every build type and throws
// std::invalid_argument with the reason. The harness runs single-shard:
// it issues every call from one event loop.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/rpc.h"
#include "driver/experiment.h"
#include "stats/tenant.h"
#include "workload/serving.h"

namespace homa {

struct RpcExperimentConfig {
    NetworkConfig net = NetworkConfig::singleRack16();
    ProtocolConfig proto;
    WorkloadId workload = WorkloadId::W3;
    double load = 0.8;  // open loop only (> 0); closed loop sets its own rate
    uint64_t seed = 17;
    Time stop = milliseconds(20);
    double warmupFraction = 0.2;
    Duration drainGrace = milliseconds(30);
    int clients = 8;  // hosts [0, clients) are clients, the rest servers;
                      // in [1, hosts - 1]

    /// Closed-loop mode when > 0: RPCs each client keeps outstanding.
    int closedLoopWindow = 0;
    /// Closed loop: mean exponential think time before the next request.
    Duration thinkTime = 0;
    /// ON-OFF burst/idle modulation of request issue (both modes).
    OnOffConfig onOff;

    /// Multi-tenant serving mode when `serving.tenants` is non-empty:
    /// each tenant owns a client subset (serving.totalClients() replaces
    /// `clients`) with its own workload/arrival mode, and sends to a
    /// replica group (named server pool) through a ReplicaSelector —
    /// round-robin, random, or power-of-two-choices on outstanding-RPC
    /// depth — with optional SLO-aware hedging (workload/serving.h).
    /// `workload`, `load`, `closedLoopWindow`, `thinkTime`, and `onOff`
    /// are ignored (each tenant carries its own).
    ServingConfig serving;
};

/// Whole-run conservation ledgers of a serving experiment (not
/// window-gated — conservation must hold over *every* call, or the
/// accounting is broken). The serving tests pin these invariants:
///   callsIssued       == logicalIssued + hedgesIssued
///   responsesConsumed == logicalCompleted   (one response per logical RPC)
///   hedgesIssued      == hedgesWon + hedgesCancelled + hedgesFailed
///   primariesCancelled== hedgesWon          (losing primary cancelled)
///   issuedBytes       == consumedBytes + refundedBytes + unresolvedBytes
/// The byte ledger is exact because servers echo (response size ==
/// request size): every call is worth 2*size, consumed by the winning
/// response, refunded when the call is cancelled, or left unresolved at
/// run end.
struct ServingStats {
    uint64_t logicalIssued = 0;      ///< logical RPCs started
    uint64_t logicalCompleted = 0;   ///< logical RPCs whose response arrived
    uint64_t callsIssued = 0;        ///< endpoint calls: primaries + hedges
    uint64_t responsesConsumed = 0;  ///< responses that completed a logical
    uint64_t hedgesIssued = 0;
    uint64_t hedgesWon = 0;          ///< hedge answered first
    uint64_t hedgesCancelled = 0;    ///< primary answered first
    uint64_t hedgesFailed = 0;       ///< hedge unresolved at run end
    uint64_t primariesCancelled = 0; ///< primaries cancelled by winning hedge
    int64_t issuedBytes = 0;         ///< 2*size per call at issue
    int64_t consumedBytes = 0;       ///< 2*size of each winning call
    int64_t refundedBytes = 0;       ///< 2*size of each cancelled call
    int64_t unresolvedBytes = 0;     ///< calls never resolved by run end
};

struct RpcExperimentResult {
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t retries = 0;
    uint64_t reexecutions = 0;
    /// Echo only (null in serving mode): slowdown vs best echo RPC time.
    std::unique_ptr<SlowdownTracker> slowdown;
    /// Per-client in-window throughput and RPC latency percentiles.
    std::unique_ptr<ClosedLoopTracker> perClient;
    /// Serving mode only (null otherwise): per-tenant SLO metrics.
    std::unique_ptr<TenantTracker> tenants;
    /// Serving mode conservation ledgers (all-zero otherwise).
    ServingStats serving;
    bool keptUp = false;
};

RpcExperimentResult runRpcExperiment(const RpcExperimentConfig& cfg);

/// Canonical serialization of everything an RpcExperimentResult measures,
/// doubles as hex floats — the RPC-side sibling of
/// resultFingerprint(ExperimentResult) in driver/sweep.h, defined beside
/// it in sweep.cc so the slowdown and per-client blocks they share have
/// one copy. Two results are
/// byte-identical iff their fingerprints are equal; the RPC harness
/// goldens pin them per mode, and the serving determinism tests diff them
/// across replays and sweep widths. The tenant/serving block appears only
/// when `r.tenants` is set, so non-serving fingerprints are unchanged by
/// the serving layer's existence.
std::string resultFingerprint(const RpcExperimentResult& r);

/// Figure 10: one client (host 0) issues `concurrent` RPCs in parallel to
/// the other 15 hosts (tiny request, `responseBytes` response), refilling
/// as responses arrive until `totalRpcs` complete. Returns goodput in Gbps
/// at the client downlink and the count of RPCs that needed client retries.
struct IncastResult {
    double throughputGbps = 0;
    uint64_t completed = 0;
    uint64_t retries = 0;
};

IncastResult runIncastExperiment(int concurrent, bool incastControl,
                                 uint32_t responseBytes = 10000,
                                 int totalRpcs = 0, uint64_t seed = 3);

}  // namespace homa
