// Sample collection with exact percentiles.
//
// Experiments collect up to a few million samples; storing them and using
// nth_element on demand is simpler and more accurate than sketches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace homa {

/// Nearest-rank index of the p-quantile (p clamped to [0,1]) among `n` > 0
/// sorted samples. The one rank rule of Samples and StreamingQuantile.
size_t nearestRankIndex(double p, size_t n);

class Samples {
public:
    void add(double v);

    /// Append another collection's samples. The driver records into
    /// per-host collections and merges them in host order in *both* the
    /// serial and parallel engines, so the floating-point accumulation
    /// order of mean() — the one order-sensitive statistic here — is a pure
    /// function of the samples, not of engine or thread count.
    void absorb(const Samples& other);

    size_t count() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    double mean() const;
    double min() const;
    double max() const;

    /// Exact p-quantile (p in [0,1]) by nearest-rank; 0 if empty.
    double percentile(double p) const;

    double median() const { return percentile(0.50); }
    double p99() const { return percentile(0.99); }

    const std::vector<double>& values() const { return values_; }

private:
    mutable std::vector<double> values_;
    // values_[0, sorted_) is sorted; a query sorts only the samples added
    // since the last one and merges them in.
    mutable size_t sorted_ = 0;
    double sum_ = 0;
};

/// Exact nearest-rank p-quantile of a growing stream, for one fixed p:
/// value() always equals Samples::percentile(p) over the same samples. A
/// max-heap holds the k = nearestRankIndex(p, n) + 1 smallest samples and
/// a min-heap the rest, so add() is O(log n) and value() is O(1).
class StreamingQuantile {
public:
    explicit StreamingQuantile(double p = 0.5) : p_(p) {}

    void add(double v);

    size_t count() const { return low_.size() + high_.size(); }

    /// The p-quantile of every sample added so far; 0 if empty.
    double value() const { return low_.empty() ? 0.0 : low_.top(); }

private:
    double p_;
    std::priority_queue<double> low_;  // the k smallest; top is the answer
    std::priority_queue<double, std::vector<double>, std::greater<double>>
        high_;
};

}  // namespace homa
