/* First-match scans for the fleet: hash each row's 32-byte seed, compare
 * the digest with one target, stop at the first row that matches.
 *
 * The paper's SALTED-CPU loop (Section 4.4) minus the candidate walk:
 * rows are the canonical (n, 4) uint64 seed words (word 0 holds bits
 * 0..63; the seed's bytes are big-endian, word 3 first) that
 * repro.runtime.maskplan.candidates makes. repro.hashes.compiled builds
 * and loads this file; the from-spec NumPy kernels are its oracle.
 */
#include <stddef.h>
#include <stdint.h>

#if defined(__clang__)
#define FUSED_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define FUSED_COMPILER "gcc " __VERSION__
#else
#define FUSED_COMPILER "unknown compiler"
#endif

/* What built this library, for the host fingerprint. */
const char *fused_compiler(void) { return FUSED_COMPILER; }

static inline uint64_t rotl64(uint64_t x, unsigned s) {
    return (x << s) | (x >> ((64 - s) & 63));
}

static inline uint32_t rotl32(uint32_t x, unsigned s) {
    return (x << s) | (x >> (32 - s));
}

static inline uint64_t bswap64(uint64_t x) {
    x = ((x & 0x00ff00ff00ff00ffULL) << 8) | ((x >> 8) & 0x00ff00ff00ff00ffULL);
    x = ((x & 0x0000ffff0000ffffULL) << 16) | ((x >> 16) & 0x0000ffff0000ffffULL);
    return (x << 32) | (x >> 32);
}

/* -- SHA3-256 (FIPS 202): one 136-byte block, lanes indexed x + 5y -- */

static const uint64_t ROUND_CONSTANTS[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

/* Rho and pi as one step: lane i of B is lane PI_SOURCE[i] of A rotated
 * left by RHO[i], the rho offset of that source lane. */
static const unsigned char PI_SOURCE[25] = {
    0, 6, 12, 18, 24, 3, 9, 10, 16, 22, 1, 7, 13,
    19, 20, 4, 5, 11, 17, 23, 2, 8, 14, 15, 21,
};
static const unsigned char RHO[25] = {
    0, 44, 43, 21, 14, 28, 20, 3, 45, 61, 1, 6, 25,
    8, 18, 27, 36, 10, 15, 56, 62, 55, 39, 41, 2,
};

/* The unroll pragmas matter: once every lane index is a constant, the
 * state lives in registers (1.6e6 -> 3.0e6 H/s per core with gcc 12);
 * gcc peels no loop of more than 16 trips by itself. */
static void keccak_f1600(uint64_t a[25]) {
    uint64_t b[25], c[5];
    for (int round = 0; round < 24; round++) {
        for (int x = 0; x < 5; x++)
            c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
#pragma GCC unroll 5
        for (int x = 0; x < 5; x++) {
            uint64_t d = c[(x + 4) % 5] ^ rotl64(c[(x + 1) % 5], 1);
            for (int y = 0; y < 25; y += 5)
                a[y + x] ^= d;
        }
#pragma GCC unroll 25
        for (int i = 0; i < 25; i++)
            b[i] = rotl64(a[PI_SOURCE[i]], RHO[i]);
#pragma GCC unroll 5
        for (int y = 0; y < 25; y += 5)
#pragma GCC unroll 5
            for (int x = 0; x < 5; x++)
                a[y + x] = b[y + x] ^ (~b[y + (x + 1) % 5] & b[y + (x + 2) % 5]);
        a[0] ^= ROUND_CONSTANTS[round];
    }
}

/* Lowest row whose SHA3-256 digest, as four little-endian lanes, is
 * target[0..3]; -1 if none. */
int64_t sha3_first_match(const uint64_t *words, size_t n, const uint64_t *target) {
    for (size_t row = 0; row < n; row++) {
        const uint64_t *w = words + 4 * row;
        uint64_t a[25] = {0};
        for (int j = 0; j < 4; j++)
            a[j] = bswap64(w[3 - j]);
        a[4] = 0x06;                  /* SHA-3 domain bits after byte 31 */
        a[16] = 0x8000000000000000ULL; /* final pad bit, byte 135 */
        keccak_f1600(a);
        if (a[0] == target[0] && a[1] == target[1] && a[2] == target[2] &&
            a[3] == target[3])
            return (int64_t)row;
    }
    return -1;
}

/* -- SHA-1 (FIPS 180-4): one 64-byte block for a 32-byte message ------ */

static const uint32_t SHA1_H[5] = {
    0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u,
};

/* Lowest row whose SHA-1 digest, as five big-endian words, is
 * target[0..4]; -1 if none. */
int64_t sha1_first_match(const uint64_t *words, size_t n, const uint32_t *target) {
    for (size_t row = 0; row < n; row++) {
        const uint64_t *seed = words + 4 * row;
        uint32_t w[16] = {0};
        for (int i = 0; i < 4; i++) {
            w[2 * i] = (uint32_t)(seed[3 - i] >> 32);
            w[2 * i + 1] = (uint32_t)seed[3 - i];
        }
        w[8] = 0x80000000u; /* pad marker after byte 31 */
        w[15] = 256;        /* message length in bits */
        uint32_t a = SHA1_H[0], b = SHA1_H[1], c = SHA1_H[2], d = SHA1_H[3],
                 e = SHA1_H[4];
        /* Unrolled, each round's branch and schedule slot are constants
         * (6.0e6 -> 1.28e7 H/s per core). */
#pragma GCC unroll 80
        for (int t = 0; t < 80; t++) {
            if (t >= 16)
                w[t & 15] = rotl32(w[(t - 3) & 15] ^ w[(t - 8) & 15] ^
                                       w[(t - 14) & 15] ^ w[t & 15], 1);
            uint32_t f, k;
            if (t < 20) {
                f = (b & c) | (~b & d), k = 0x5a827999u;
            } else if (t < 40) {
                f = b ^ c ^ d, k = 0x6ed9eba1u;
            } else if (t < 60) {
                f = (b & c) | (b & d) | (c & d), k = 0x8f1bbcdcu;
            } else {
                f = b ^ c ^ d, k = 0xca62c1d6u;
            }
            uint32_t next = rotl32(a, 5) + f + e + k + w[t & 15];
            e = d, d = c, c = rotl32(b, 30), b = a, a = next;
        }
        if (a + SHA1_H[0] == target[0] && b + SHA1_H[1] == target[1] &&
            c + SHA1_H[2] == target[2] && d + SHA1_H[3] == target[3] &&
            e + SHA1_H[4] == target[4])
            return (int64_t)row;
    }
    return -1;
}
