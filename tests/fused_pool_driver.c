/* Pooled scans of the fleet's kernel, driven from C so that a race
 * detector sees every thread: a planted match (SHA3-256 and SHA-1), the
 * lower of two matches in different chunks, a stop byte set from another
 * thread mid-range, and two callers at once (one finds the pool taken and
 * scans alone). Also the SHA3-256 scan alone: the planted match in every
 * lane of a group built in the vector lanes, and a target that equals
 * its digest in the first eight bytes only. Exits 0 when every answer is
 * right.
 *
 *   cc -O1 -g -fsanitize=thread -pthread -o driver tests/fused_pool_driver.c
 *   ./driver    # ThreadSanitizer makes a data race exit non-zero
 *
 * tests/test_compiled_kernel.py builds and runs it without the sanitizer.
 */
#include "../src/repro/hashes/fused.c"

#include <stdio.h>

/* Rank 1 234 567 of shell 3 around the bytes 0, 1, ..., 31, positions
 * (45, 133, 204), and its SHA3-256 and SHA-1 digests (hashlib's). */
#define PLANTED 1234567
#define SHELL_3 2763520
static const char *SHA3_HEX =
    "b3ecc6b99ba56db7436ee3bc3d7250c2b7fc9e7bc7891f9910622fc2fb673510";
static const char *SHA1_HEX = "0ea2cd84519c4491804b060242e243bc68732d43";

static uint8_t SEED[32], SHA3[32], SHA1[20], ABSENT[32];
static int failures;

static int nibble(char c) { return c <= '9' ? c - '0' : c - 'a' + 10; }

static void parse(const char *hex, uint8_t *out, int bytes) {
    for (int i = 0; i < bytes; i++)
        out[i] = (uint8_t)(nibble(hex[2 * i]) << 4 | nibble(hex[2 * i + 1]));
}

static void expect(int64_t got, int64_t want, const char *what) {
    if (got != want) {
        fprintf(stderr, "%s: got %lld, want %lld\n", what, (long long)got,
                (long long)want);
        failures++;
    }
}

/* -- two matches: a scan that matches at rows 700 and 1500 ----------- */

static int high_found;

/* The chunk holding row 700 waits (at most a second) until row 1500's
 * has answered, so the higher match is always found first. */
static int64_t two_matches(int distance, uint64_t lo, uint64_t n,
                           const uint8_t *seed, const uint8_t *digest,
                           const uint8_t *stop) {
    (void)distance, (void)seed, (void)digest, (void)stop;
    if (lo <= 1500 && 1500 < lo + n) {
        __atomic_store_n(&high_found, 1, __ATOMIC_RELEASE);
        return (int64_t)(1500 - lo);
    }
    if (lo <= 700 && 700 < lo + n) {
        int64_t until = now_ns() + 1000000000;
        while (!__atomic_load_n(&high_found, __ATOMIC_ACQUIRE) && now_ns() < until)
            spin_pause();
        return (int64_t)(700 - lo);
    }
    return ~(int64_t)n;
}

/* -- callers on their own threads ------------------------------------ */

struct call {
    int hash;
    uint64_t lo, n;
    const uint8_t *digest;
    uint8_t *stop;
    int64_t answer;
};

static void *scan_on_thread(void *argument) {
    struct call *call = argument;
    call->answer = fused_scan(call->hash, 3, call->lo, call->n, SEED, call->digest,
                              call->stop, 4);
    return NULL;
}

int main(void) {
    for (int i = 0; i < 32; i++)
        SEED[i] = (uint8_t)i;
    memset(ABSENT, 0xff, sizeof ABSENT);
    parse(SHA3_HEX, SHA3, 32);
    parse(SHA1_HEX, SHA1, 20);
    uint8_t never = 0;
    int helpers = fused_pool_helpers();

    /* A planted match, found by whichever worker claims its chunk. */
    for (int round = 0; round < 4; round++) {
        uint64_t lo = PLANTED - 20000 - 333 * (uint64_t)round;
        expect(fused_scan(HASH_SHA3_256, 3, lo, 40000, SEED, SHA3, &never, 4),
               PLANTED - lo, "planted SHA3-256 match");
        expect(fused_scan(HASH_SHA1, 3, lo, 40000, SEED, SHA1, &never, 4),
               PLANTED - lo, "planted SHA-1 match");
    }
    expect(fused_scan(HASH_SHA3_256, 3, 0, 30000, SEED, ABSENT, &never, 4),
           ~(int64_t)30000, "a miss");

    /* A group starting at (45, 133, 204 - l) is built in the vector
     * lanes and holds the planted row in lane l. */
    for (int lane = 0; lane < LANES; lane++)
        expect(sha3_scan(3, PLANTED - (uint64_t)lane, 16, SEED, SHA3, &never), lane,
               "the planted row in every lane");
    /* Lane 0 passes, the full compare does not: no match, pooled or not. */
    uint8_t near[32];
    memcpy(near, SHA3, sizeof near);
    near[31] ^= 1;
    expect(sha3_scan(3, PLANTED - 3, 16, SEED, near, &never), ~(int64_t)16,
           "a lane-0 near miss");
    expect(fused_scan(HASH_SHA3_256, 3, PLANTED - 20000, 40000, SEED, near, &never, 4),
           ~(int64_t)40000, "a pooled lane-0 near miss");

    /* The lower of two matches in different chunks. */
    for (int round = 0; round < 4; round++) {
        high_found = 0;
        expect(pool_scan(two_matches, 3, 0, 4096, SEED, ABSENT, &never, 4), 700,
               "the lower of two matches");
    }

    /* A stop byte set mid-range: every worker stops, the call returns. */
    uint8_t stop = 0;
    struct call stopped = {HASH_SHA3_256, 0, SHELL_3, ABSENT, &stop, 0};
    pthread_t thread;
    pthread_create(&thread, NULL, scan_on_thread, &stopped);
    struct timespec pause = {0, 5000000};
    nanosleep(&pause, NULL);
    __atomic_store_n(&stop, 1, __ATOMIC_RELAXED);
    pthread_join(thread, NULL);
    if (stopped.answer >= 0 || ~stopped.answer >= SHELL_3) {
        fprintf(stderr, "a stopped scan answered %lld\n", (long long)stopped.answer);
        failures++;
    }

    /* Two callers at once: one holds the pool, the other scans alone. */
    for (int round = 0; round < 4; round++) {
        struct call calls[2] = {
            {HASH_SHA3_256, PLANTED - 300000, 400000, SHA3, &never, 0},
            {HASH_SHA1, PLANTED - 4000, 9000, SHA1, &never, 0},
        };
        pthread_t threads[2];
        for (int i = 0; i < 2; i++)
            pthread_create(&threads[i], NULL, scan_on_thread, &calls[i]);
        for (int i = 0; i < 2; i++)
            pthread_join(threads[i], NULL);
        expect(calls[0].answer, 300000, "first of two callers");
        expect(calls[1].answer, 4000, "second of two callers");
    }

    printf("%d helper(s); %s\n", helpers, failures ? "FAILED" : "ok");
    return failures != 0;
}
