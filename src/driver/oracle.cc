#include "driver/oracle.h"

#include <algorithm>
#include <vector>

#include "sim/packet.h"

namespace homa {

namespace {

// How the transports split a message: full packets, then one last packet
// holding the remainder (a lone header-only packet for size 0).
struct PacketSplit {
    int64_t packets;
    int64_t lastWire;  // wire bytes of the last packet
};

PacketSplit splitMessage(uint32_t size) {
    const int64_t packets =
        std::max<int64_t>(1, (int64_t{size} + kMaxPayload - 1) / kMaxPayload);
    const int64_t lastPayload = size - (packets - 1) * kMaxPayload;
    return {packets, lastPayload + kHeaderBytes + kFrameOverhead};
}

}  // namespace

Duration Oracle::crossPodOneWay(uint32_t size) const {
    const PacketSplit split = splitMessage(size);
    const int packets = static_cast<int>(split.packets);
    std::vector<int64_t> wire(packets, kFullPacketWireBytes);
    wire[packets - 1] = split.lastWire;

    // Worst-case placement on a three-tier tree: cross-pod, 6 links /
    // 5 switches, with the aggr<->core hops at the oversubscribed
    // bandwidth. Spraying spreads consecutive packets across parallel
    // links at every interior hop; the best case is a round-robin
    // assignment, modeled by one FIFO clock per parallel link. With
    // oversubscription > 1 an aggr<->core link can serialize slower than
    // the sender link, so (unlike the two-tier tree) interior queueing can
    // genuinely bound completion.
    const int fan = cfg_.aggrSwitches;            // TOR -> pod aggrs
    const int coreFan = fan * cfg_.coreSwitches;  // aggr -> core links
    const Bandwidth up = cfg_.aggrCoreLink();
    const std::vector<Bandwidth> hops = {cfg_.hostLink, cfg_.coreLink, up,
                                         up,            cfg_.coreLink,
                                         cfg_.hostLink};
    const std::vector<int> mult = {1, fan, coreFan, coreFan, fan, 1};
    // done[i] = time packet i has fully left the current hop.
    std::vector<Duration> done(packets, 0);
    Duration senderFree = 0;
    for (int i = 0; i < packets; i++) {
        done[i] = senderFree + hops[0].serialize(wire[i]);
        senderFree = done[i];
    }
    for (size_t k = 1; k < hops.size(); k++) {
        std::vector<Duration> linkFree(mult[k], 0);
        for (int i = 0; i < packets; i++) {
            Duration& free = linkFree[i % mult[k]];
            const Duration start = std::max(done[i] + cfg_.switchDelay, free);
            done[i] = start + hops[k].serialize(wire[i]);
            free = done[i];
        }
    }
    return *std::max_element(done.begin(), done.end());
}

Duration Oracle::bestOneWay(uint32_t size, bool intraRack) const {
    Duration completion;
    if (cfg_.threeTier() && !intraRack) {
        auto it = crossPodCache_.find(size);
        if (it == crossPodCache_.end()) {
            if (crossPodCache_.size() > 100000) crossPodCache_.clear();
            it = crossPodCache_.emplace(size, crossPodOneWay(size)).first;
        }
        completion = it->second;
    } else {
        // Packet i leaves the sender link at S_i (the serialization of
        // packets 0..i back to back). Later hops add the switch delay plus
        // their own serialization of packet i.
        const PacketSplit split = splitMessage(size);
        const Bandwidth host = cfg_.hostLink;
        const Duration fullHost = host.serialize(kFullPacketWireBytes);
        const Duration sentBeforeLast = (split.packets - 1) * fullHost;
        const Duration sentAll = sentBeforeLast + host.serialize(split.lastWire);
        if (cfg_.singleRack() || intraRack) {
            // Host -> TOR -> host on one shared FIFO path: the TOR egress
            // link drains the pipeline, running the widest packet's
            // serialization behind the sender link.
            const int64_t widest =
                split.packets > 1 ? kFullPacketWireBytes : split.lastWire;
            completion = sentAll + cfg_.switchDelay + host.serialize(widest);
        } else {
            // Fat-tree cross-rack: spraying gives every packet its own core
            // path, and the sender link's FIFO spacing is >= every
            // downstream serialization time, so packets queue only on the
            // sender link. S_i + tail(w_i) grows with i over the full
            // packets, so only the last two can finish last.
            auto tail = [&](int64_t wire) {
                return 3 * cfg_.switchDelay + 2 * cfg_.coreLink.serialize(wire) +
                       host.serialize(wire);
            };
            completion = sentAll + tail(split.lastWire);
            if (split.packets > 1) {
                completion = std::max(completion,
                                      sentBeforeLast + tail(kFullPacketWireBytes));
            }
        }
    }
    return completion + cfg_.softwareDelay;
}

Duration Oracle::bestEchoRpc(uint32_t size) const {
    // The response generation is covered by the receiver software delay
    // already included in each one-way time.
    return 2 * bestOneWay(size);
}

}  // namespace homa
