// Best-case (unloaded network) completion times — the denominators of
// every slowdown number in the paper.
#pragma once

#include <cstdint>
#include <map>

#include "sim/topology.h"
#include "stats/slowdown.h"

namespace homa {

/// Computes the minimum time to move a message between two hosts on an
/// idle network (worst-case placement: cross-rack on the fat-tree,
/// cross-pod — through the oversubscribed core — on a three-tier one) for
/// the store-and-forward pipeline: packets serialize back-to-back on the
/// sender link, each later hop forwards a packet after the switch delay,
/// and the receiver's software delay is paid once at the end. Two-tier and
/// intra-rack paths have a closed form in the last two packets; the
/// three-tier cross-pod path runs the per-packet recurrence and caches it.
/// Validated against the event simulator in tests.
class Oracle {
public:
    explicit Oracle(const NetworkConfig& cfg) : cfg_(cfg) {}

    /// One-way message delivery time (message handed to sender transport
    /// -> last byte processed by receiver software). `intraRack` picks the
    /// short path (host-TOR-host); the default is the cross-rack path.
    Duration bestOneWay(uint32_t size, bool intraRack = false) const;

    /// Echo RPC: request there, response (same size) back.
    Duration bestEchoRpc(uint32_t size) const;

    OracleFn oneWayFn() const {
        return [this](uint32_t s) { return bestOneWay(s); };
    }
    OracleFn echoRpcFn() const {
        return [this](uint32_t s) { return bestEchoRpc(s); };
    }

private:
    Duration crossPodOneWay(uint32_t size) const;

    NetworkConfig cfg_;
    mutable std::map<uint32_t, Duration> crossPodCache_;
};

}  // namespace homa
