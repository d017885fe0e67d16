// External packet ledger for conservation checks (test_fault and the
// parallel-engine suite). "Injected" counts NIC transmission *starts*
// (PortStats::packetsSent); a packet still sitting in a NIC queue has not
// been injected yet and is deliberately excluded from both sides.
#pragma once

#include <cstdint>

#include "sim/fault.h"
#include "sim/network.h"

namespace homa {

struct Ledger {
    uint64_t injected = 0;       // NIC serializations started
    uint64_t delivered = 0;      // packets handed to a host (Host::deliver)
    uint64_t qdiscDrops = 0;     // switch queue-discipline drops (pFabric)
    uint64_t nicQdiscDrops = 0;  // must stay 0: host queues are unbounded
    uint64_t faultDrops = 0;     // all four fault causes
    uint64_t inFlight = 0;       // on a wire, queued in a switch, in transit
                                 // or parked in a cross-shard outbox
};

inline Ledger audit(Network& net, const FaultStats& faults) {
    Ledger l;
    l.faultDrops = faults.totalDrops();
    for (HostId h = 0; h < net.hostCount(); h++) {
        Host& host = net.host(h);
        l.injected += host.nic().stats().packetsSent;
        l.delivered += host.rxPackets();
        l.nicQdiscDrops += host.nic().qdisc().stats().dropped;
        if (host.nic().busy()) l.inFlight++;
    }
    auto auditSwitch = [&l](Switch& sw) {
        l.inFlight += sw.transitCount();
        for (int i = 0; i < static_cast<int>(sw.portCount()); i++) {
            const EgressPort& p = sw.port(i);
            l.qdiscDrops += p.qdisc().stats().dropped;
            l.inFlight += p.qdisc().queuedPackets();
            if (p.busy()) l.inFlight++;
        }
    };
    for (int r = 0; r < net.rackCount(); r++) auditSwitch(net.tor(r));
    for (int a = 0; a < net.aggrCount(); a++) auditSwitch(net.aggr(a));
    for (int c = 0; c < net.coreCount(); c++) auditSwitch(net.core(c));
    l.inFlight += net.pendingRemotePackets();
    return l;
}

}  // namespace homa
