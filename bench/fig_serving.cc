// Multi-tenant serving: p2c-vs-random tail latency + hedging ledgers
// -> BENCH_serving.json.
//
// Three measurements in one artifact (tools/bench_compare gates each):
//
//  1. Load balancing: a 3-tenant serving mix (one incast-heavy open-loop
//     fleet, one uniform open-loop fleet, one closed-loop fleet) against
//     a shared replica group, run twice — replica selection by
//     power-of-two-choices on outstanding-RPC depth, then by random
//     pick. The headline gate: the incast-heavy tenant's p99 slowdown
//     under p2c must be *strictly below* random (the classic
//     power-of-two-choices queueing win, reproduced on the simulated
//     fabric).
//  2. Hedging conservation: the same mix with SLO-aware hedging (p95)
//     enabled; the ServingStats ledgers must balance exactly
//     (issued == won + cancelled + failed, bytes conserved) — recorded
//     as a flag bench_compare hard-fails on.
//  3. Determinism: the p2c/random/hedged sweep must be byte-identical
//     run 1-wide vs N-wide (a fingerprint-level flag, a hard CI failure
//     at any tolerance).
//
//   ./bench_fig_serving [output.json]   (default BENCH_serving.json)
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "driver/rpc_experiment.h"
#include "driver/sweep_shard.h"

using namespace homa;
using namespace homa::bench;

namespace {

// The 3-tenant mix of the acceptance scenario. The replica group is kept
// small (4 servers behind 12 clients) so selection quality matters: at
// ~80% aggregate replica load, random assignment's transient imbalance
// queues where power-of-two-choices steers around it.
RpcExperimentConfig servingPoint(LbPolicy lb, bool hedged) {
    RpcExperimentConfig cfg;
    cfg.net = NetworkConfig::singleRack16();
    cfg.seed = 29;
    cfg.stop = fullScale() ? milliseconds(60) : milliseconds(15);

    TenantConfig burst;  // incast-heavy: 6 clients fan into the 4 replicas
    burst.name = "burst";
    burst.workload = WorkloadId::W1;
    burst.mode = ArrivalMode::Open;
    burst.load = 0.35;
    burst.clients = 6;

    TenantConfig web;  // uniform background mix
    web.name = "web";
    web.workload = WorkloadId::W3;
    web.mode = ArrivalMode::Open;
    web.load = 0.25;
    web.clients = 4;

    TenantConfig batch;  // closed-loop: windowed, self-clocked
    batch.name = "batch";
    batch.workload = WorkloadId::W2;
    batch.mode = ArrivalMode::Closed;
    batch.window = 4;
    batch.clients = 2;

    ReplicaGroupConfig pool;
    pool.name = "pool";
    pool.replicas = 0;  // all 4 remaining hosts
    pool.policy = lb;
    if (hedged) pool.hedgePercentile = 0.95;

    cfg.serving.tenants = {burst, web, batch};
    cfg.serving.groups = {pool};
    return cfg;
}

bool ledgersBalance(const ServingStats& s) {
    return s.callsIssued == s.logicalIssued + s.hedgesIssued &&
           s.responsesConsumed == s.logicalCompleted &&
           s.hedgesIssued == s.hedgesWon + s.hedgesCancelled + s.hedgesFailed &&
           s.primariesCancelled == s.hedgesWon &&
           s.issuedBytes ==
               s.consumedBytes + s.refundedBytes + s.unresolvedBytes;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string outPath = argc > 1 ? argv[1] : "BENCH_serving.json";
    printHeader("Serving: replica selection tail latency + hedging ledgers",
                "3-tenant mix, p2c vs random replica choice "
                "(BENCH_serving.json)");

    // --- 1. p2c vs random tail latency -----------------------------
    const RpcExperimentConfig p2cCfg = servingPoint(LbPolicy::PowerOfTwo,
                                                    /*hedged=*/false);
    const RpcExperimentConfig randCfg = servingPoint(LbPolicy::Random,
                                                     /*hedged=*/false);
    const RpcExperimentResult p2c = runRpcExperiment(p2cCfg);
    const RpcExperimentResult rnd = runRpcExperiment(randCfg);

    Table t({"tenant", "policy", "ops", "p50 us", "p99 us", "slow p99"});
    for (int i = 0; i < p2c.tenants->tenants(); i++) {
        const std::string name = p2cCfg.serving.tenants[i].name;
        t.addRow({name, "p2c", std::to_string(p2c.tenants->completed(i)),
                  Table::num(p2c.tenants->latencyPercentileUs(i, 0.50)),
                  Table::num(p2c.tenants->latencyPercentileUs(i, 0.99)),
                  Table::num(p2c.tenants->slowdownPercentile(i, 0.99))});
        t.addRow({name, "random", std::to_string(rnd.tenants->completed(i)),
                  Table::num(rnd.tenants->latencyPercentileUs(i, 0.50)),
                  Table::num(rnd.tenants->latencyPercentileUs(i, 0.99)),
                  Table::num(rnd.tenants->slowdownPercentile(i, 0.99))});
    }
    std::printf("%s\n", t.format().c_str());

    // The acceptance gate rides the incast-heavy tenant (index 0).
    const double p2cP99 = p2c.tenants->slowdownPercentile(0, 0.99);
    const double randP99 = rnd.tenants->slowdownPercentile(0, 0.99);
    const bool p2cWins = p2cP99 < randP99;
    std::printf("incast-heavy tenant p99 slowdown: p2c %.3f vs random %.3f "
                "-> %s\n", p2cP99, randP99,
                p2cWins ? "p2c wins" : "P2C DOES NOT WIN");

    // --- 2. hedging conservation ------------------------------------
    const RpcExperimentConfig hedgedCfg =
        servingPoint(LbPolicy::PowerOfTwo, /*hedged=*/true);
    const RpcExperimentResult hedged = runRpcExperiment(hedgedCfg);
    const ServingStats& hs = hedged.serving;
    const bool conserved = ledgersBalance(hs);
    const TenantHedgeStats hedgeTotals = hedged.tenants->totalHedges();
    std::printf("hedged (p95): %llu hedges = %llu won + %llu cancelled + "
                "%llu failed; ledgers %s\n",
                static_cast<unsigned long long>(hs.hedgesIssued),
                static_cast<unsigned long long>(hs.hedgesWon),
                static_cast<unsigned long long>(hs.hedgesCancelled),
                static_cast<unsigned long long>(hs.hedgesFailed),
                conserved ? "balance" : "DO NOT BALANCE");
    (void)hedgeTotals;

    // --- 3. determinism flag ----------------------------------------
    SweepOptions one;
    one.threads = 1;
    one.deriveSeeds = true;
    one.baseSeed = 13;
    SweepOptions many = one;
    many.threads = 4;
    const std::vector<RpcExperimentConfig> grid{p2cCfg, randCfg, hedgedCfg};
    const RpcSweepOutcome wide1 = runRpcSweep(grid, one);
    const RpcSweepOutcome wideN = runRpcSweep(grid, many);
    bool sweepIdentical = wide1.results.size() == wideN.results.size();
    for (size_t i = 0; sweepIdentical && i < wide1.results.size(); i++) {
        sweepIdentical = resultFingerprint(wide1.results[i]) ==
                         resultFingerprint(wideN.results[i]);
    }
    std::printf("sweep 1-wide vs %d-wide byte-identical: %s\n",
                wideN.threadsUsed, sweepIdentical ? "yes" : "NO");

    // --- artifact ----------------------------------------------------
    std::string json = "{\n  \"bench\": \"serving\",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  \"scale\": \"%s\",\n",
                  fullScale() ? "full" : "quick");
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"hardware_cores\": %u,\n",
                  std::thread::hardware_concurrency());
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"hosts\": %d,\n",
                  p2cCfg.net.hostCount());
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"tenants\": %zu,\n",
                  p2cCfg.serving.tenants.size());
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"p2c_p99_slowdown\": %.4f,\n",
                  p2cP99);
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"random_p99_slowdown\": %.4f,\n",
                  randP99);
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"p2c_p99_latency_us\": %.4f,\n",
                  p2c.tenants->latencyPercentileUs(0, 0.99));
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"random_p99_latency_us\": %.4f,\n",
                  rnd.tenants->latencyPercentileUs(0, 0.99));
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"tail_win\": %.4f,\n",
                  p2cP99 > 0 ? randP99 / p2cP99 : 0.0);
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"hedges_issued\": %llu,\n",
                  static_cast<unsigned long long>(hs.hedgesIssued));
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"hedges_won\": %llu,\n",
                  static_cast<unsigned long long>(hs.hedgesWon));
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"hedges_cancelled\": %llu,\n",
                  static_cast<unsigned long long>(hs.hedgesCancelled));
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"hedges_failed\": %llu,\n",
                  static_cast<unsigned long long>(hs.hedgesFailed));
    json += buf;
    json += std::string("  \"hedge_conservation_holds\": ") +
            (conserved ? "true" : "false") + ",\n";
    json += std::string("  \"sweep_identical\": ") +
            (sweepIdentical ? "true" : "false") + "\n}\n";

    if (!writeTextFile(outPath, json)) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 1;
    }
    std::printf("wrote %s\n", outPath.c_str());
    return (p2cWins && conserved && sweepIdentical) ? 0 : 1;
}
