// Sender side of Homa (§3.2).
//
// Transmits the first `unscheduled` bytes of each message blindly, then
// only granted bytes. Among messages with transmittable bytes the sender
// picks the one with the fewest remaining bytes (SRPT); the NIC pulls
// packets one at a time so this ordering is re-evaluated per packet, which
// models the paper's 2-full-packets NIC queue cap (§4). The ordering lives
// in an incremental SrptIndex (src/sched/) kept in sync with sendability,
// so each pull costs O(log n) instead of a scan of every message.
//
// Per-message state. Homa exists for a high volume of very short
// messages, so a message's whole lifecycle (send, pull, linger, reap)
// allocates only its node in the message tables (and its entry in
// `sendable_`):
//  * `out_` holds messages still transmitting, `lingering_` fully sent
//    ones kept for `senderLinger` to answer RESENDs (§3.8). Both are
//    hash tables keyed by message id.
//  * Moving a message into linger, and back out when a RESEND revives
//    it, hands the node from one table to the other (`extract`/`insert`):
//    no copy and no allocation.
//  * The resend queue is a VectorFifo, which allocates only when a
//    RESEND actually asks for bytes again; resends are rare and short.
//
// Hash order never reaches an event. Lookups are by id; the only walks
// are `untransmittedBytes` (a sum) and the reaper (which only erases
// expired entries and schedules nothing per entry). Packet choice comes
// from `sendable_`, whose ties break on id. A new walk over these tables
// must keep that property, or results would depend on the hash layout.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/homa_context.h"
#include "sched/srpt_index.h"
#include "sched/vector_fifo.h"
#include "transport/message.h"

namespace homa {

class HomaSender {
public:
    explicit HomaSender(HomaContext& ctx) : ctx_(ctx) {}

    /// Queue `m` for transmission. Throws std::invalid_argument on a
    /// zero-length message, which could never become sendable.
    void sendMessage(const Message& m);
    void handleGrant(const Packet& p);

    /// Receiver asked for a retransmission. Replies BUSY when this message
    /// is not what SRPT would send now (§3.7 / Figure 3).
    void handleResend(const Packet& p);

    /// NIC pull: next DATA packet by SRPT, or nullopt.
    std::optional<Packet> pullPacket();

    size_t activeMessages() const { return out_.size(); }
    bool knowsMessage(MsgId id) const {
        return out_.count(id) != 0 || lingering_.count(id) != 0;
    }
    int64_t untransmittedBytes() const;

private:
    struct OutMessage {
        Message msg;
        int64_t unschedLimit = 0;   // blind-transmit boundary
        int64_t nextOffset = 0;     // next fresh byte
        int64_t grantedTo = 0;      // may transmit fresh bytes below this
        int schedPriority = 0;      // logical level from the latest GRANT
        VectorFifo<std::pair<uint32_t, uint32_t>> resends;  // (offset, len)
        Time lingerUntil = 0;
        Time lastSend = 0;          // last time a DATA packet left

        int64_t remaining() const {
            return static_cast<int64_t>(msg.length) - nextOffset;
        }
        bool sendable() const {
            return !resends.empty() ||
                   nextOffset < std::min<int64_t>(grantedTo, msg.length);
        }
        bool fullySent() const {
            return resends.empty() && nextOffset >= msg.length;
        }
    };

    Packet makeDataPacket(OutMessage& om, uint32_t offset, uint32_t len,
                          bool retransmit) const;
    /// Re-sync `om`'s membership/key in the sendable index after any state
    /// change that can flip sendable() or change remaining().
    void syncSendable(const OutMessage& om);
    void scheduleReap();

    HomaContext& ctx_;
    // In-progress messages only; fully sent messages move to lingering_
    // (kept to answer RESENDs) and come back only if a retransmission is
    // requested. Never iterate either table into an event (see top).
    std::unordered_map<MsgId, OutMessage> out_;
    std::unordered_map<MsgId, OutMessage> lingering_;
    // SRPT order over the sendable subset of out_, keyed by remaining().
    SrptIndex<MsgId> sendable_;
    bool reapScheduled_ = false;
};

}  // namespace homa
