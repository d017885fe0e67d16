// Receiver side of Homa: grant scheduling, overcommitment, priorities.
//
// The receiver is the brain of the protocol (§3.3-§3.5), but the brain's
// decision logic lives in src/sched/: a pluggable GrantScheduler tracks the
// incomplete inbound messages incrementally and, after every delta, names
// the active set — which messages to keep RTTbytes granted-but-unreceived
// and at which scheduled priority level (Figure 5). This file owns the
// per-message reassembly/grant state, turns scheduler decisions into GRANT
// packets (skipping no-ops), and runs the timeout/RESEND/abort machinery
// (§3.7).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/completed_window.h"
#include "core/homa_context.h"
#include "sched/grant_scheduler.h"
#include "sim/event_loop.h"
#include "transport/message.h"

namespace homa {

class HomaReceiver {
public:
    using DeliverFn =
        std::function<void(const Message&, const DeliveryInfo&)>;

    HomaReceiver(HomaContext& ctx, DeliverFn deliver);

    void handleData(const Packet& p);
    void handleBusy(const Packet& p);

    /// True when an incomplete inbound message is being denied grants by
    /// the overcommitment limit (Figure 16's "withheld" condition).
    bool hasWithheldWork() const { return sched_->withheld() > 0; }

    size_t incompleteMessages() const { return in_.size(); }
    uint64_t abortedMessages() const { return aborted_; }
    uint64_t resendsSent() const { return resendsSent_; }
    const GrantScheduler& scheduler() const { return *sched_; }

private:
    struct InMessage {
        Message meta;
        Reassembly reasm;
        int64_t grantedTo = 0;
        int lastGrantPriority = -1;  // last scheduled level announced
        Time lastActivity = 0;
        int resends = 0;
        DeliveryInfo acc;

        InMessage(Message m, uint32_t len) : meta(m), reasm(len) {}
        int64_t remaining() const {
            return static_cast<int64_t>(reasm.messageLength()) -
                   reasm.receivedBytes();
        }
        bool fullyGranted() const {
            return grantedTo >= static_cast<int64_t>(reasm.messageLength());
        }
    };

    /// Ask the scheduler for the post-delta active set and issue the
    /// implied GRANTs (no-ops suppressed). O(log n + degree) per call.
    void applyGrantDecision();
    void issueGrant(InMessage& im, int64_t window, int logical);
    void checkTimeouts();

    HomaContext& ctx_;
    DeliverFn deliver_;
    std::map<MsgId, InMessage> in_;
    std::unique_ptr<GrantScheduler> sched_;
    std::vector<ActiveGrant> grantBuf_;  // reused per decision
    uint64_t aborted_ = 0;
    uint64_t resendsSent_ = 0;

    // Duplicate suppression after completion (retransmitted tails).
    CompletedWindow completed_;

    Timer timeoutScan_;
};

}  // namespace homa
