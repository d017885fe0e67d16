// Conservative parallel discrete-event engine.
//
// The network is partitioned by rack into shards (see sim/network.h), one
// EventLoop and one worker thread per shard; aggregation and core switches
// are dealt round-robin across the same shards. All shards advance in
// lock-stepped lookahead windows of width L = the switch internal delay,
// with one barrier per window:
//
//   1. each shard runs its own events in [W, W+L). Cross-shard links
//      (TOR<->aggr and, on three-tier topologies, aggr<->core) park
//      completed packets in the shard's outbox for the peer, in the
//      window's parity (boxes are double-buffered by window parity), and
//      record the earliest arrival they post;
//   2. each shard publishes min(its next event, earliest posted arrival +
//      L) — exact, because the peer's Switch::injectArrival schedules its
//      routing kick at arrival + L — and crosses the one barrier, whose
//      completion starts the next window at the earliest bound across all
//      shards (clamped to [W+L, end]), so idle stretches — the drain
//      grace, OFF periods — are skipped in one hop;
//   3. each shard drains the parity its peers just filled, in source-shard
//      order, into its switches' canonical transit queues, then flips its
//      parity. Peers are by then running the next window and filling the
//      other parity, so no box is ever written and drained at once; the
//      next barrier orders this drain before anyone fills the parity again.
//
// Cache-line rule: whatever one shard's thread writes as it runs — its
// EventLoop, its outboxes (one line each), its published bound, and the
// barrier's counter vs. its phase word — sits on lines no other shard
// writes (Network::Shard, kCacheLine). A shared line costs every event a
// coherence miss: on the pFabric W4 point at 3 shards, the two worker
// shards ran ~620 ns per event with the loops allocated back to back and
// ~360-420 ns padded (serial: ~280 ns).
//
// Why L = switch delay is a safe lookahead: a cross-shard packet finishes
// arriving at some t in [W, W+L), so the earliest event it can cause on
// the receiving shard is its routing at t + L >= W+L — always a future
// window. Why results are byte-identical to serial: every cross-shard
// influence enters a shard either as a transit insertion ordered by the
// canonical (arrival time, link id) key — a pure function of packet
// content — or as an idempotent routeDue() kick; given identical inputs,
// each shard's own (time, seq) event order reproduces the serial order of
// that shard's events. See ARCHITECTURE.md "The parallel
// simulation engine".
#pragma once

#include "sim/network.h"

namespace homa {

/// Thread-count knob for the parallel engine, carried by ExperimentConfig
/// and the sweep layer (SweepOptions::simThreads). The RPC harness
/// (driver/rpc_experiment.h) has no such knob: it runs single-shard.
struct ParallelConfig {
    /// Number of event-loop shards (worker threads) to aim for; values
    /// <= 1 select the classic serial engine. The effective shard count is
    /// further capped by the rack count, and scenarios with zero-lookahead
    /// feedback (closed-loop, DAG) or whole-network probes always run
    /// serially regardless.
    int threads = 1;
};

/// Advance every shard of `net` to exactly time `end` and return the number
/// of lookahead windows run (0 on one shard). With one shard this is
/// net.loop().runUntil(end); with more it runs the windowed engine above,
/// starting at the shards' common clock, so a run may be split across
/// calls. Either way, every shard's clock reads `end` on return. Throws
/// std::logic_error if a sharded network has no lookahead; an exception
/// from any shard's events stops every shard at the next barrier and is
/// rethrown here once the workers have joined (the lowest shard's first).
uint64_t runNetworkUntil(Network& net, Time end);

}  // namespace homa
