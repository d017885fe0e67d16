// FNV-1a over a result fingerprint string: the compact form the golden
// tests pin (hash plus length), so a golden is two constants rather than
// kilobytes of hex floats. On mismatch a test streams the live
// fingerprint so the diff against the goldens is inspectable.
#pragma once

#include <cstdint>
#include <string>

namespace homa {

inline uint64_t fnv1a(const std::string& s) {
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

}  // namespace homa
