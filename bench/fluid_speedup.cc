// Fluid fast-path speedup + fidelity evidence -> BENCH_fluid.json.
//
// Three measurements in one artifact (tools/bench_compare gates each):
//
//  1. Speedup: ONE 10k+ host experiment point (the million-host-scale
//     story in miniature: a 256-rack x 40-host fat-tree where packet
//     simulation is the wall clock), run all-packet and then hybrid with
//     the fluid threshold at 20 kB. Both runs are serial — the ratio is
//     the fluid engine's point-throughput win, not thread scaling. The
//     gate floor is 10x.
//  2. All-packet identity: a threshold above every message size must
//     replay byte-identical to a run with the engine disabled (the
//     fingerprint-level proof that pre-fluid goldens stay valid). A hard
//     CI failure at any tolerance.
//  3. Fidelity: at 144 hosts, packet-vs-hybrid overall slowdown
//     percentiles for uniform / permutation / incast, recorded per
//     scenario for the bench_compare --fidelity gate (p50 drift and p99
//     band checks live there, not here).
//
//   ./bench_fluid_speedup [output.json]   (default BENCH_fluid.json)
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "driver/sweep_shard.h"

using namespace homa;
using namespace homa::bench;

namespace {

double timedRun(const ExperimentConfig& cfg, ExperimentResult& out) {
    const auto t0 = std::chrono::steady_clock::now();
    out = runExperiment(cfg);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

struct FidelityPoint {
    const char* name;
    TrafficPatternKind kind;
    int hotspots;
};

}  // namespace

int main(int argc, char** argv) {
    const std::string outPath = argc > 1 ? argv[1] : "BENCH_fluid.json";
    printHeader("Fluid fast path: flow-level speedup at 10k-host scale",
                "hybrid packet/fluid engine (BENCH_fluid.json)");

    constexpr int64_t kThreshold = 20000;
    // Fidelity is measured with only true elephants fluid (the same
    // threshold the FluidFidelity unit suite pins): at lower thresholds
    // the mid-size flows Homa would SRPT-prioritize fall into max-min
    // sharing and the incast p99 inflates ~3x — more speed, less
    // fidelity, the trade the threshold knob exists to pick.
    constexpr int64_t kFidelityThreshold = 100000;

    // --- 1. the 10k-host point -------------------------------------
    ExperimentConfig big;
    big.net.racks = 256;
    big.net.hostsPerRack = 40;
    big.proto.kind = Protocol::Homa;
    big.traffic.workload = WorkloadId::W4;
    big.traffic.load = 0.5;
    big.traffic.stop = fullScale() ? milliseconds(4) : milliseconds(1);
    big.parallel.threads = 1;  // serial vs serial: engine win, not threads

    ExperimentResult packetBig, hybridBig;
    ExperimentConfig hybridCfg = big;
    hybridCfg.traffic.scenario.fluidThresholdBytes = kThreshold;
    const double hybridWall = timedRun(hybridCfg, hybridBig);
    std::printf("%d hosts, load %.2f, fluid >= %lld B: %.2f s hybrid "
                "(%llu fluid flows, %llu packet msgs)\n",
                big.net.hostCount(), big.traffic.load,
                static_cast<long long>(kThreshold), hybridWall,
                static_cast<unsigned long long>(hybridBig.fluid->flows),
                static_cast<unsigned long long>(
                    hybridBig.deliveredTotal - hybridBig.fluid->delivered));
    const double packetWall = timedRun(big, packetBig);
    const double speedup = hybridWall > 0 ? packetWall / hybridWall : 0;
    std::printf("all-packet: %.2f s -> speedup %.1fx\n", packetWall, speedup);

    // --- 2. all-packet identity at 144 hosts -----------------------
    ExperimentConfig small;
    small.traffic.workload = WorkloadId::W4;
    small.traffic.load = 0.5;
    small.traffic.stop = milliseconds(2);
    ExperimentConfig neverFluid = small;
    neverFluid.traffic.scenario.fluidThresholdBytes = int64_t{1} << 40;
    ExperimentResult disabled, never;
    timedRun(small, disabled);
    timedRun(neverFluid, never);
    const bool identical =
        resultFingerprint(disabled) == resultFingerprint(never);
    std::printf("all-packet threshold byte-identical to disabled: %s\n",
                identical ? "yes" : "NO");

    // --- 3. fidelity points at 144 hosts ---------------------------
    const std::vector<FidelityPoint> points{
        {"uniform", TrafficPatternKind::Uniform, 0},
        {"permutation", TrafficPatternKind::Permutation, 0},
        {"incast", TrafficPatternKind::Incast, 2},
    };
    std::string fidelity = "  \"fidelity\": [\n";
    for (size_t i = 0; i < points.size(); i++) {
        const FidelityPoint& p = points[i];
        ExperimentConfig packet = small;
        packet.traffic.scenario.kind = p.kind;
        if (p.hotspots > 0) {
            packet.traffic.scenario.hotspots = p.hotspots;
            packet.traffic.scenario.hotspotDegree = 16;
        }
        ExperimentConfig hybrid = packet;
        hybrid.traffic.scenario.fluidThresholdBytes = kFidelityThreshold;
        ExperimentResult pr, hr;
        timedRun(packet, pr);
        timedRun(hybrid, hr);
        const double pp50 = pr.slowdown->overallPercentile(0.50);
        const double hp50 = hr.slowdown->overallPercentile(0.50);
        const double pp99 = pr.slowdown->overallPercentile(0.99);
        const double hp99 = hr.slowdown->overallPercentile(0.99);
        std::printf("%-12s p50 %.2f vs %.2f, p99 %.2f vs %.2f "
                    "(packet vs hybrid)\n", p.name, pp50, hp50, pp99, hp99);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"scenario\": \"%s\", \"hosts\": %d, "
                      "\"threshold_bytes\": %lld, "
                      "\"packet_p50\": %.4f, \"hybrid_p50\": %.4f, "
                      "\"packet_p99\": %.4f, \"hybrid_p99\": %.4f}%s\n",
                      p.name, small.net.hostCount(),
                      static_cast<long long>(kFidelityThreshold), pp50, hp50,
                      pp99, hp99, i + 1 < points.size() ? "," : "");
        fidelity += buf;
    }
    fidelity += "  ],\n";

    std::string json = "{\n  \"bench\": \"fluid_speedup\",\n";
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf), "  \"scale\": \"%s\",\n",
                      fullScale() ? "full" : "quick");
        json += buf;
        std::snprintf(buf, sizeof(buf), "  \"hardware_cores\": %u,\n",
                      std::thread::hardware_concurrency());
        json += buf;
        std::snprintf(buf, sizeof(buf), "  \"hosts\": %d,\n",
                      big.net.hostCount());
        json += buf;
        std::snprintf(buf, sizeof(buf), "  \"load\": %.2f,\n",
                      big.traffic.load);
        json += buf;
        std::snprintf(buf, sizeof(buf), "  \"threshold_bytes\": %lld,\n",
                      static_cast<long long>(kThreshold));
        json += buf;
        std::snprintf(buf, sizeof(buf),
                      "  \"wall_seconds_packet\": %.4f,\n", packetWall);
        json += buf;
        std::snprintf(buf, sizeof(buf),
                      "  \"wall_seconds_hybrid\": %.4f,\n", hybridWall);
        json += buf;
        std::snprintf(buf, sizeof(buf), "  \"speedup\": %.4f,\n", speedup);
        json += buf;
        std::snprintf(buf, sizeof(buf), "  \"fluid_flows\": %llu,\n",
                      static_cast<unsigned long long>(hybridBig.fluid->flows));
        json += buf;
        std::snprintf(buf, sizeof(buf),
                      "  \"fluid_solves\": %llu,\n",
                      static_cast<unsigned long long>(
                          hybridBig.fluid->solves));
        json += buf;
    }
    json += fidelity;
    json += std::string("  \"all_packet_identical\": ") +
            (identical ? "true" : "false") + "\n}\n";

    if (!writeTextFile(outPath, json)) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 1;
    }
    std::printf("speedup %.1fx at %d hosts; wrote %s\n", speedup,
                big.net.hostCount(), outPath.c_str());
    return identical ? 0 : 1;
}
