#include "stats/percentile.h"

#include <algorithm>
#include <cmath>

namespace homa {

size_t nearestRankIndex(double p, size_t n) {
    p = std::clamp(p, 0.0, 1.0);
    return std::min(
        n - 1, static_cast<size_t>(std::ceil(p * static_cast<double>(n)) -
                                   (p > 0.0 ? 1 : 0)));
}

void Samples::add(double v) {
    values_.push_back(v);
    sum_ += v;
}

void Samples::absorb(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sum_ += other.sum_;
}

double Samples::mean() const {
    return values_.empty() ? 0.0 : sum_ / static_cast<double>(values_.size());
}

double Samples::min() const {
    if (values_.empty()) return 0.0;
    return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
    if (values_.empty()) return 0.0;
    return *std::max_element(values_.begin(), values_.end());
}

double Samples::percentile(double p) const {
    if (values_.empty()) return 0.0;
    if (sorted_ < values_.size()) {
        const auto fresh = values_.begin() + static_cast<std::ptrdiff_t>(sorted_);
        std::sort(fresh, values_.end());
        std::inplace_merge(values_.begin(), fresh, values_.end());
        sorted_ = values_.size();
    }
    return values_[nearestRankIndex(p, values_.size())];
}

void StreamingQuantile::add(double v) {
    if (!low_.empty() && v <= low_.top()) {
        low_.push(v);
    } else {
        high_.push(v);
    }
    // Every sample in low_ is <= every sample in high_; move the boundary
    // until low_ holds exactly the k smallest.
    const size_t k = nearestRankIndex(p_, count()) + 1;
    while (low_.size() > k) {
        high_.push(low_.top());
        low_.pop();
    }
    while (low_.size() < k) {
        low_.push(high_.top());
        high_.pop();
    }
}

}  // namespace homa
