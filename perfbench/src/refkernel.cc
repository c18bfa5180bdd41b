// The host reference kernel. Deliberately self-contained: it includes
// no engine header and calls nothing outside this file, so an engine
// change can never change what it measures. Its mix of table loads and
// stores, data-dependent branches and floating-point work loosely
// mirrors an interpreter loop. The table is 512 KiB, more than a core's
// private caches hold, so the kernel slows down with the engine when
// other tenants crowd the shared cache and memory (README.md, "Host
// scaling").

#include <cstdint>
#include <cstring>

namespace wizbench {

uint64_t
referenceKernel(uint32_t rounds)
{
    constexpr uint32_t kEntries = 1u << 17;
    static uint32_t table[kEntries];
    static bool ready = false;
    if (!ready) {
        uint32_t x = 2463534242u;
        for (uint32_t& t : table) {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            t = x;
        }
        ready = true;
    }
    uint64_t acc = 0x243f6a8885a308d3ull;
    double f = 1.0;
    uint32_t i = 7;
    for (uint32_t r = 0; r < rounds; r++) {
        for (uint32_t k = 0; k < 1024; k++) {
            uint32_t v = table[i & (kEntries - 1)];
            if (v & 1) {
                acc += v;
                i = (i * 1103515245u + 12345u) ^ v;
            } else {
                acc ^= (uint64_t)v << 7;
                i += v >> 3;
            }
            table[(i >> 3) & (kEntries - 1)] += 1;
            f = f * 1.0000001 + (double)(v & 255) * 1e-9;
        }
    }
    uint64_t fb = 0;
    std::memcpy(&fb, &f, sizeof fb);
    return acc ^ fb;
}

} // namespace wizbench
