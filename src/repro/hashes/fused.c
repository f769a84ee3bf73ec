/* First-match range scans for the fleet: walk ranks [lo, lo + n) of one
 * Hamming shell around an enrolled seed, hash each candidate, compare the
 * digest with one target, stop at the first row that matches.
 *
 * The paper's SALTED-CPU loop (Sections 3.2, 4.3 and 4.4): the scan
 * unranks its first combination (lexicographic order, Algorithm 515, from
 * a binomial table), then steps lexicographic successors, so no candidate
 * array is ever made; and it reads a shared stop byte once per eight
 * rows, so a search that settled elsewhere stops its other ranges.
 * SHA3-256 hashes eight candidates per Keccak-f[1600] call, one per
 * vector lane (the lane-parallel layout of "Gotta Hash 'Em All"): eight
 * that differ in their last position alone are built in the lanes from
 * one prefix, and the last round computes only the lane the compare
 * reads first (1.5e7 H/s per core with gcc 12 on an AVX-512 Xeon, from
 * 1.4e7). SHA-1 hashes one at a time. fused_scan spreads one range over
 * the host's cores, the paper's OpenMP loop: the calling thread and a
 * process-wide pool of helper threads claim CHUNK-row chunks from one
 * counter, and an atomic minimum keeps the lowest match. Seeds and digests cross the
 * boundary as their bytes: the seed's 32 bytes are big-endian, bit p of
 * the seed is bit p % 64 of word p / 64, and word 3 comes first.
 * repro.hashes.compiled builds and loads this file and checks every
 * argument before a call; repro.runtime.maskplan.candidates and the
 * native digests are its oracle.
 */
#define _GNU_SOURCE /* sched_getaffinity */
#include <pthread.h>
#include <sched.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#if defined(__clang__)
#define FUSED_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define FUSED_COMPILER "gcc " __VERSION__
#else
#define FUSED_COMPILER "unknown compiler"
#endif

/* The widest vector ISA the flags enabled: whether the eight SHA3-256
 * lanes sit in one register (avx512f), two (avx2) or more (generic). */
#if defined(__AVX512F__)
#define FUSED_ISA "avx512f"
#elif defined(__AVX2__)
#define FUSED_ISA "avx2"
#else
#define FUSED_ISA "generic"
#endif

/* What built this library, for the host fingerprint. */
const char *fused_compiler(void) { return FUSED_COMPILER ", " FUSED_ISA; }

/* Eight Keccak states side by side, one per vector lane: with
 * -march=native gcc makes each word one zmm register on AVX-512, two ymm
 * on AVX2, narrower code elsewhere; no intrinsics, no dispatch. */
typedef uint64_t lanes __attribute__((vector_size(64)));
#define LANES 8

/* A macro, not a function: a 64-byte vector passed by value changes the
 * ABI on a host without AVX-512 (gcc -Wpsabi), and the call then stays
 * out of line. */
#define ROTL_LANES(x, s) (((x) << (s)) | ((x) >> ((64 - (s)) & 63)))

static inline uint32_t rotl32(uint32_t x, unsigned s) {
    return (x << s) | (x >> (32 - s));
}

/* -- the walk: ranks of one shell, in lexicographic order ------------- */

#define SEED_BITS 256
/* The deepest shell whose size, C(256, 11) = 6.2e18, fits an int64. */
#define MAX_DISTANCE 11

int fused_max_distance(void) { return MAX_DISTANCE; }

/* BINOMIAL[m][k] = C(m, k) for m <= 256, k <= MAX_DISTANCE. */
static uint64_t BINOMIAL[SEED_BITS + 1][MAX_DISTANCE + 1];

__attribute__((constructor)) static void fill_binomials(void) {
    for (int m = 0; m <= SEED_BITS; m++) {
        BINOMIAL[m][0] = 1;
        for (int k = 1; k <= MAX_DISTANCE; k++)
            BINOMIAL[m][k] = m == 0 ? 0 : BINOMIAL[m - 1][k - 1] + BINOMIAL[m - 1][k];
    }
}

/* One candidate: the shell's positions, ascending, and the seed's four
 * words with those bits flipped. */
struct walk {
    int distance;
    int position[MAX_DISTANCE];
    uint64_t word[4];
};

static inline void flip(struct walk *w, int p) {
    w->word[p >> 6] ^= 1ULL << (p & 63);
}

/* The seed's word k is its bytes 8 (3 - k) .. 8 (3 - k) + 7, big-endian. */
static void load_seed(struct walk *w, const uint8_t *seed) {
    for (int k = 0; k < 4; k++) {
        uint64_t word = 0;
        for (int b = 0; b < 8; b++)
            word = word << 8 | seed[8 * (3 - k) + b];
        w->word[k] = word;
    }
}

/* Rank ``rank`` of the ``distance`` shell around ``seed``: at each slot,
 * the smallest position whose block of C(255 - c, left) ranks holds the
 * rank (Algorithm 515's descent). */
static void walk_seek(struct walk *w, int distance, uint64_t rank,
                      const uint8_t *seed) {
    w->distance = distance;
    load_seed(w, seed);
    int c = 0;
    for (int i = 0; i < distance; i++) {
        int left = distance - 1 - i;
        while (rank >= BINOMIAL[SEED_BITS - 1 - c][left]) {
            rank -= BINOMIAL[SEED_BITS - 1 - c][left];
            c++;
        }
        w->position[i] = c;
        flip(w, c);
        c++;
    }
}

/* The candidate at ``rank`` of the ``distance`` shell around ``seed``,
 * as 32 bytes in the seed's own layout: what a scan's matching row is. */
void fused_unrank(int distance, uint64_t rank, const uint8_t *seed, uint8_t *out) {
    struct walk w;
    walk_seek(&w, distance, rank, seed);
    for (int k = 0; k < 4; k++)
        for (int b = 0; b < 8; b++)
            out[8 * (3 - k) + b] = (uint8_t)(w.word[k] >> (56 - 8 * b));
}

/* The lexicographic successor; the caller never steps past the last rank
 * of the shell. Mostly the last position moves up by one: two flips. */
static inline void walk_next(struct walk *w) {
    int d = w->distance;
    int last = w->position[d - 1];
    if (last < SEED_BITS - 1) {
        flip(w, last);
        flip(w, last + 1);
        w->position[d - 1] = last + 1;
        return;
    }
    int i = d - 2;
    while (w->position[i] == SEED_BITS - d + i)
        i--;
    for (int j = i; j < d; j++)
        flip(w, w->position[j]);
    w->position[i]++;
    for (int j = i + 1; j < d; j++)
        w->position[j] = w->position[j - 1] + 1;
    for (int j = i; j < d; j++)
        flip(w, w->position[j]);
}

static inline int stopped(const uint8_t *stop) {
    return __atomic_load_n(stop, __ATOMIC_RELAXED) != 0;
}

/* Every scan answers one int64: the first matching row (0 .. n - 1), or
 * ~rows when none matched, ``rows`` being n for a whole range and the
 * rows scanned before the stop byte was seen otherwise. */

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

/* One round: theta, rho and pi, chi, iota. The unroll pragmas matter:
 * once every state index is a constant, the state lives in registers
 * (eight lanes with gcc 12 on AVX-512: 5e6 H/s per core without them,
 * 1.4e7 with); gcc peels no loop of more than 16 trips by itself. */
static inline __attribute__((always_inline)) void keccak_round(lanes a[25],
                                                               uint64_t constant) {
    lanes b[25], c[5];
#pragma GCC unroll 5
    for (int x = 0; x < 5; x++)
        c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
#pragma GCC unroll 5
    for (int x = 0; x < 5; x++) {
        lanes d = c[(x + 4) % 5] ^ ROTL_LANES(c[(x + 1) % 5], 1);
#pragma GCC unroll 5
        for (int y = 0; y < 25; y += 5)
            a[y + x] ^= d;
    }
#pragma GCC unroll 25
    for (int i = 0; i < 25; i++)
        b[i] = ROTL_LANES(a[PI_SOURCE[i]], RHO[i]);
#pragma GCC unroll 5
    for (int y = 0; y < 25; y += 5)
#pragma GCC unroll 5
        for (int x = 0; x < 5; x++)
            a[y + x] = b[y + x] ^ (~b[y + (x + 1) % 5] & b[y + (x + 2) % 5]);
    a[0] ^= constant;
}

static void keccak_f1600(lanes a[25]) {
    for (int round = 0; round < 24; round++)
        keccak_round(a, ROUND_CONSTANTS[round]);
}

/* Lane 0 of Keccak-f[1600](a), the digest's first eight bytes, into
 * a[0]: rounds 1-23 in full, and of round 24 only what lane 0 reads.
 * After pi, lanes 0, 1 and 2 of B come from lanes 0, 6 and 12 of A,
 * rotated by 0, 44 and 43, and chi makes lane 0 of those three. The
 * other lanes are left as round 24 found them. (A pointer, not a
 * returned vector: see ROTL_LANES.) */
static inline __attribute__((always_inline)) void keccak_f1600_lane0(lanes a[25]) {
    for (int round = 0; round < 23; round++)
        keccak_round(a, ROUND_CONSTANTS[round]);
    lanes c[5];
#pragma GCC unroll 5
    for (int x = 0; x < 5; x++)
        c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
    lanes b0 = a[0] ^ c[4] ^ ROTL_LANES(c[1], 1);
    lanes b1 = a[6] ^ c[0] ^ ROTL_LANES(c[2], 1);
    lanes b2 = a[12] ^ c[1] ^ ROTL_LANES(c[3], 1);
    b1 = ROTL_LANES(b1, 44);
    b2 = ROTL_LANES(b2, 43);
    a[0] = (b0 ^ (~b1 & b2)) ^ ROUND_CONSTANTS[23];
}

/* The state a 32-byte message starts from: message lanes 0-3, the SHA-3
 * domain bits after byte 31, the final pad bit in byte 135. */
static inline void sha3_absorb(lanes a[25], const lanes message[4]) {
    for (int i = 0; i < 25; i++)
        a[i] = (lanes){0};
    for (int j = 0; j < 4; j++)
        a[j] = message[j];
    a[4] ^= 0x06;
    a[16] ^= 0x8000000000000000ULL;
}

static const lanes LANE_INDEX = {0, 1, 2, 3, 4, 5, 6, 7};

/* Rows lo .. lo + n - 1 of the ``distance`` shell around ``seed``: the
 * first whose SHA3-256 digest is ``digest`` (32 bytes). Rows go eight to
 * a permutation, row + l in lane l; a short last group repeats its last
 * row in the spare lanes, which the row + l < n check keeps from ever
 * answering. Message lane j is the little-endian load of the candidate's
 * bytes 8j .. 8j + 7, the byte-swapped word 3 - j.
 *
 * Only what the compare reads is computed (Section 3.2.2's point): a
 * group of eight rows that differ in their last position alone, p .. p +
 * 7, is built in the vector lanes from the other positions' words, bit p
 * + l flipped in lane l; and the permutation stops at lane 0. A group
 * whose lane 0 matches the target's first word is hashed again in full
 * and compared on all four, so no answer rests on 64 bits. */
static int64_t sha3_scan(int distance, uint64_t lo, uint64_t n, const uint8_t *seed,
                  const uint8_t *digest, const uint8_t *stop) {
    uint64_t target[4];
    for (int j = 0; j < 4; j++) {
        target[j] = 0;
        for (int b = 7; b >= 0; b--)
            target[j] = target[j] << 8 | digest[8 * j + b];
    }
    struct walk w;
    walk_seek(&w, distance, lo, seed);
    for (uint64_t row = 0; row < n; row += LANES) {
        if (stopped(stop))
            return ~(int64_t)row;
        lanes message[4];
        int p = distance > 0 ? w.position[distance - 1] : SEED_BITS;
        if (p + LANES - 1 < SEED_BITS && row + LANES <= n) {
            /* Bit q of a word is bit (q & 63) ^ 56 of its byte swap. */
            lanes q = p + LANE_INDEX;
            lanes bit = 1ULL << ((q & 63) ^ 56);
            flip(&w, p);
            for (int j = 0; j < 4; j++)
                message[j] = __builtin_bswap64(w.word[3 - j]) ^
                             (bit & (lanes)((q >> 6) == (uint64_t)(3 - j)));
            flip(&w, p + LANES - 1);
            w.position[distance - 1] = p + LANES - 1;
            if (row + LANES < n)
                walk_next(&w);
        } else {
            /* Staged in memory, then loaded a word at a time: filled
             * lane by lane, the vectors cost the scan up to 9 % more. */
            uint64_t m[4][LANES];
            for (int l = 0; l < LANES; l++) {
                for (int j = 0; j < 4; j++)
                    m[j][l] = __builtin_bswap64(w.word[3 - j]);
                if (row + l + 1 < n)
                    walk_next(&w);
            }
            for (int j = 0; j < 4; j++)
                memcpy(&message[j], m[j], sizeof message[j]);
        }
        lanes a[25];
        sha3_absorb(a, message);
        keccak_f1600_lane0(a);
        lanes first = a[0] == target[0];
        int any = 0;
        for (int l = 0; l < LANES; l++)
            any |= first[l] != 0;
        if (!any)
            continue;
        sha3_absorb(a, message);
        keccak_f1600(a);
        lanes hit = (a[0] == target[0]) & (a[1] == target[1]) &
                    (a[2] == target[2]) & (a[3] == target[3]);
        for (int l = 0; l < LANES; l++)
            if (hit[l] && row + l < n)
                return (int64_t)(row + l);
    }
    return ~(int64_t)n;
}

/* -- SHA-1 (FIPS 180-4): one 64-byte block for a 32-byte message ------ */

static const uint32_t SHA1_H[5] = {
    0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u,
};

/* Rows lo .. lo + n - 1 of the ``distance`` shell around ``seed``: the
 * first whose SHA-1 digest is ``digest`` (20 bytes). */
static int64_t sha1_scan(int distance, uint64_t lo, uint64_t n, const uint8_t *seed,
                  const uint8_t *digest, const uint8_t *stop) {
    uint32_t target[5];
    for (int i = 0; i < 5; i++)
        target[i] = (uint32_t)digest[4 * i] << 24 | (uint32_t)digest[4 * i + 1] << 16 |
                    (uint32_t)digest[4 * i + 2] << 8 | digest[4 * i + 3];
    struct walk walk;
    walk_seek(&walk, distance, lo, seed);
    for (uint64_t row = 0; row < n; row++) {
        if (row % LANES == 0 && stopped(stop))
            return ~(int64_t)row;
        uint32_t w[16] = {0};
        for (int i = 0; i < 4; i++) {
            w[2 * i] = (uint32_t)(walk.word[3 - i] >> 32);
            w[2 * i + 1] = (uint32_t)walk.word[3 - i];
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
        if (row + 1 < n)
            walk_next(&walk);
    }
    return ~(int64_t)n;
}

/* -- the pool: one range on every core (the paper's OpenMP loop) ----- */

/* Rows a worker claims at a time: 512 SHA3-256 rows take ~35 us on one
 * core, long against a claim (one atomic add and one unrank) and short
 * against a range. A multiple of eight, so a chunk reads its stop byte
 * where a whole-range scan would. */
#define CHUNK 512
/* How long an idle helper spins for the next job before it sleeps: after
 * a job, about one dispatcher round trip, the gap between two ranges;
 * after a wake, long enough for the woken device thread to pull its
 * first range. */
#define SPIN_AFTER_JOB_NS 200000
#define SPIN_AFTER_WAKE_NS 2000000

enum { HASH_SHA1, HASH_SHA3_256 };

typedef int64_t (*scan_fn)(int, uint64_t, uint64_t, const uint8_t *,
                           const uint8_t *, const uint8_t *);

/* One range being scanned. It lives on its caller's stack, and the
 * caller returns only after every helper that joined it has left. */
struct job {
    scan_fn scan;
    int distance;
    uint64_t lo, n;
    const uint8_t *seed, *digest, *stop;
    uint64_t next;    /* first row of the next unclaimed chunk */
    uint64_t best;    /* lowest matching row; n while there is none */
    uint64_t cut;     /* lowest row a stop byte cut a chunk at; n if none */
    uint64_t scanned; /* rows hashed, over every worker */
};

static inline void lower_to(uint64_t *slot, uint64_t value) {
    uint64_t seen = __atomic_load_n(slot, __ATOMIC_RELAXED);
    while (value < seen && !__atomic_compare_exchange_n(slot, &seen, value, 1,
                                                        __ATOMIC_RELAXED,
                                                        __ATOMIC_RELAXED))
        ;
}

/* Claim and scan chunks until none is left below the lowest match or
 * cut. Claims only rise, so every chunk below the answer was claimed
 * before it was found, and is scanned by whoever claimed it. */
static void work(struct job *job) {
    for (;;) {
        uint64_t start = __atomic_fetch_add(&job->next, CHUNK, __ATOMIC_RELAXED);
        if (start >= __atomic_load_n(&job->best, __ATOMIC_RELAXED) ||
            start >= __atomic_load_n(&job->cut, __ATOMIC_RELAXED))
            return;
        uint64_t rows = job->n - start < CHUNK ? job->n - start : CHUNK;
        int64_t row = job->scan(job->distance, job->lo + start, rows, job->seed,
                                job->digest, job->stop);
        uint64_t done = row >= 0 ? (uint64_t)row + 1 : (uint64_t)~row;
        __atomic_fetch_add(&job->scanned, done, __ATOMIC_RELAXED);
        if (row >= 0) {
            lower_to(&job->best, start + (uint64_t)row);
            return;
        }
        if (done < rows) {
            lower_to(&job->cut, start + done);
            return;
        }
    }
}

/* The helpers, one fewer than the CPUs of the process's cpuset, and the
 * one job they take seats in. ``generation`` and ``spin_until`` are read
 * without the lock by spinning helpers, so they are written atomically. */
static struct {
    pthread_mutex_t lock;
    pthread_cond_t work; /* helpers sleep here */
    pthread_cond_t left; /* a caller waits here for its helpers to leave */
    int helpers;         /* helper threads started; -1 before the first */
    uint64_t generation; /* bumped per job */
    struct job *job;     /* the open job, if any */
    int seats;           /* helpers the open job still takes */
    int inside;          /* helpers working on the open job */
    int64_t spin_until;  /* idle helpers spin, not sleep, until then (ns) */
} pool = {PTHREAD_MUTEX_INITIALIZER, PTHREAD_COND_INITIALIZER,
          PTHREAD_COND_INITIALIZER, -1, 0, NULL, 0, 0, 0};

/* The job slot: a caller that finds it taken scans alone. */
static int slot;

static int64_t now_ns(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

static inline void spin_pause(void) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/* Keep idle helpers spinning for at least ``ns`` more (lock held). */
static void spin_for(int64_t ns) {
    int64_t until = now_ns() + ns;
    if (until > __atomic_load_n(&pool.spin_until, __ATOMIC_RELAXED))
        __atomic_store_n(&pool.spin_until, until, __ATOMIC_RELAXED);
}

static void *helper(void *unused) {
    (void)unused;
    uint64_t seen = 0;
    pthread_mutex_lock(&pool.lock);
    for (;;) {
        uint64_t generation = __atomic_load_n(&pool.generation, __ATOMIC_RELAXED);
        if (generation != seen) {
            seen = generation;
            if (pool.job != NULL && pool.seats > 0) {
                struct job *job = pool.job;
                pool.seats--;
                pool.inside++;
                pthread_mutex_unlock(&pool.lock);
                work(job);
                pthread_mutex_lock(&pool.lock);
                if (--pool.inside == 0)
                    pthread_cond_signal(&pool.left);
                spin_for(SPIN_AFTER_JOB_NS);
            }
            continue;
        }
        if (now_ns() < __atomic_load_n(&pool.spin_until, __ATOMIC_RELAXED)) {
            pthread_mutex_unlock(&pool.lock);
            while (__atomic_load_n(&pool.generation, __ATOMIC_RELAXED) == seen &&
                   now_ns() < __atomic_load_n(&pool.spin_until, __ATOMIC_RELAXED))
                spin_pause();
            pthread_mutex_lock(&pool.lock);
            continue;
        }
        pthread_cond_wait(&pool.work, &pool.lock);
    }
    return NULL;
}

/* Start the helpers on first use (lock held). */
static void start_locked(void) {
    if (pool.helpers >= 0)
        return;
    pool.helpers = 0;
    cpu_set_t cpus;
    int count = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                    ? CPU_COUNT(&cpus)
                    : (int)sysconf(_SC_NPROCESSORS_ONLN);
    pthread_attr_t attributes;
    pthread_attr_init(&attributes);
    pthread_attr_setdetachstate(&attributes, PTHREAD_CREATE_DETACHED);
    for (int i = 1; i < count; i++) {
        pthread_t thread;
        if (pthread_create(&thread, &attributes, helper, NULL) != 0)
            break;
        pool.helpers++;
    }
    pthread_attr_destroy(&attributes);
}

/* A forked child has none of its parent's helpers: it starts its own. */
static void forget_pool(void) {
    pthread_mutex_init(&pool.lock, NULL);
    pthread_cond_init(&pool.work, NULL);
    pthread_cond_init(&pool.left, NULL);
    pool.helpers = -1;
    pool.job = NULL;
    pool.seats = pool.inside = 0;
    slot = 0;
}

__attribute__((constructor)) static void watch_forks(void) {
    pthread_atfork(NULL, NULL, forget_pool);
}

/* Helper threads in the pool, starting it if it is not yet. */
int fused_pool_helpers(void) {
    pthread_mutex_lock(&pool.lock);
    start_locked();
    int helpers = pool.helpers;
    pthread_mutex_unlock(&pool.lock);
    return helpers;
}

/* Whether a scan holds the job slot now. */
int fused_pool_busy(void) { return __atomic_load_n(&slot, __ATOMIC_RELAXED); }

/* Have the helpers spin for a while: a range is about to be scanned. */
void fused_pool_wake(void) {
    pthread_mutex_lock(&pool.lock);
    start_locked();
    spin_for(SPIN_AFTER_WAKE_NS);
    pthread_cond_broadcast(&pool.work);
    pthread_mutex_unlock(&pool.lock);
}

/* Rows lo .. lo + n - 1 of the ``distance`` shell around ``seed``,
 * scanned with ``scan`` on the calling thread and up to ``workers - 1``
 * helpers; answered like one scan of the whole range: the first matching
 * row, or ~rows, where ``rows`` is what every worker scanned in all. A
 * range of one chunk, a single worker, or a slot another caller holds:
 * the caller scans alone. */
static int64_t pool_scan(scan_fn scan, int distance, uint64_t lo, uint64_t n,
                         const uint8_t *seed, const uint8_t *digest,
                         const uint8_t *stop, int workers) {
    if (workers < 2 || n <= CHUNK || __atomic_exchange_n(&slot, 1, __ATOMIC_ACQUIRE))
        return scan(distance, lo, n, seed, digest, stop);
    struct job job = {scan, distance, lo, n, seed, digest, stop, 0, n, n, 0};
    pthread_mutex_lock(&pool.lock);
    start_locked();
    pool.job = &job;
    pool.seats = workers - 1 < pool.helpers ? workers - 1 : pool.helpers;
    __atomic_store_n(&pool.generation, pool.generation + 1, __ATOMIC_RELAXED);
    pthread_cond_broadcast(&pool.work);
    pthread_mutex_unlock(&pool.lock);
    work(&job);
    pthread_mutex_lock(&pool.lock);
    pool.job = NULL;
    while (pool.inside > 0)
        pthread_cond_wait(&pool.left, &pool.lock);
    pthread_mutex_unlock(&pool.lock);
    __atomic_store_n(&slot, 0, __ATOMIC_RELEASE);
    if (job.best < job.cut)
        return (int64_t)job.best;
    return ~(int64_t)job.scanned;
}

/* The pooled scan with ``hash`` (HASH_SHA1 or HASH_SHA3_256), whose
 * digest is 20 or 32 bytes. */
int64_t fused_scan(int hash, int distance, uint64_t lo, uint64_t n,
                   const uint8_t *seed, const uint8_t *digest,
                   const uint8_t *stop, int workers) {
    return pool_scan(hash == HASH_SHA3_256 ? sha3_scan : sha1_scan, distance, lo,
                     n, seed, digest, stop, workers);
}
