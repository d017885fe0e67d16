// The grid of topology shapes the topology and oracle suites sweep.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "sim/topology.h"

namespace homa {

// Specs are applied over the fatTree144 preset by parseTopoSpec, so every
// shape here is also a valid "--topo"/"topo:" argument. Two-tier and
// single-rack shapes ride along to pin the degenerate forms.
inline const char* const kShapeSpecs[] = {
    "racks=9,hosts=16,aggr=4",                          // the paper's tree
    "racks=1,hosts=16,aggr=0,pods=1",                   // §5.1 single rack
    "racks=3,hosts=4,aggr=2,pods=1",                    // small two-tier
    "racks=2,hosts=2,aggr=1,pods=1",                    // minimal two-tier
    "racks=6,hosts=4,aggr=3,pods=1",                    // odd two-tier
    "racks=4,hosts=4,aggr=2,core=1,pods=2,oversub=1",   // one core switch
    "racks=4,hosts=4,aggr=2,core=2,pods=2,oversub=2",
    "racks=8,hosts=2,aggr=2,core=2,pods=4,oversub=4",   // many pods
    "racks=6,hosts=3,aggr=2,core=3,pods=3,oversub=1.5", // fractional knob
    "racks=8,hosts=4,aggr=3,core=2,pods=2,oversub=8",   // heavy oversub
    "racks=9,hosts=2,aggr=2,core=3,pods=3,oversub=4",   // odd rack count
    "racks=2,hosts=4,aggr=2,core=4,pods=2,oversub=1",   // single-rack pods
    "racks=12,hosts=2,aggr=1,core=2,pods=6,oversub=2",  // one aggr per pod
};

inline NetworkConfig shapeConfig(const std::string& spec) {
    NetworkConfig cfg = NetworkConfig::fatTree144();
    std::string err;
    EXPECT_TRUE(parseTopoSpec(spec, cfg, &err)) << spec << ": " << err;
    return cfg;
}

}  // namespace homa
