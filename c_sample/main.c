/*
 * c_sample — drives the vlcsa engines through the C ABI, no socket
 * anywhere, and asserts bit-exact sums against a plain-C reference:
 *
 *   1. synchronous adds on a named engine (vlcsa2) at a non-limb-
 *      aligned width (96 bits), checking sum, carry-out and cycles;
 *   2. one 8-operand reduction (vlcsa1), checked against a C fold;
 *   3. an auto-routed async batch: 64 tickets submitted in a burst,
 *      then polled, each checked — the first poll runs the whole burst
 *      as one issue group, and vlcsa_stats must report every lane and
 *      that one group;
 *   4. the error surface: bad config, bad operands, double free.
 *
 * Build (from the repo root, after `cargo build --release -p vlcsa-ffi`):
 *
 *   cc -std=c11 -Wall -Wextra -Werror -pedantic -O2 -o vlcsa_demo \
 *      c_sample/main.c -Icrates/ffi/include \
 *      target/release/libvlcsa_ffi.a -lpthread -ldl -lm
 */

#include <inttypes.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include "vlcsa.h"

#define CHECK(cond, ...)                                              \
    do {                                                              \
        if (!(cond)) {                                                \
            fprintf(stderr, "FAIL %s:%d: ", __FILE__, __LINE__);      \
            fprintf(stderr, __VA_ARGS__);                             \
            fprintf(stderr, "\n");                                    \
            exit(1);                                                  \
        }                                                             \
    } while (0)

/* splitmix64 — deterministic operand streams, independent of libc. */
static uint64_t rng_state;
static uint64_t rng_next(void) {
    uint64_t z = (rng_state += UINT64_C(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)) * UINT64_C(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94d049bb133111eb);
    return z ^ (z >> 31);
}

/* A random width-bit operand: `limbs` limbs, top limb masked. */
static void rand_operand(uint64_t *out, size_t limbs, size_t width) {
    size_t used = width % 64;
    for (size_t i = 0; i < limbs; i++)
        out[i] = rng_next();
    if (used)
        out[limbs - 1] &= (UINT64_C(1) << used) - 1;
}

/* Reference addition mod 2^width; returns the carry out of bit
 * width-1. Operands must already be masked to `width` bits. */
static int ref_add(const uint64_t *a, const uint64_t *b, uint64_t *out,
                   size_t limbs, size_t width) {
    unsigned carry = 0;
    for (size_t i = 0; i < limbs; i++) {
        uint64_t s = a[i] + carry;
        unsigned c1 = s < a[i];
        out[i] = s + b[i];
        carry = c1 | (out[i] < s);
    }
    size_t used = width % 64;
    if (used) {
        /* The raw sum's bit `width` is the carry out; clear it. */
        carry = (unsigned)((out[limbs - 1] >> used) & 1);
        out[limbs - 1] &= (UINT64_C(1) << used) - 1;
    }
    return (int)carry;
}

static void check_sync_adds(void) {
    const size_t width = 96, limbs = 2, rounds = 50;
    vlcsa_config_t config;
    memset(&config, 0, sizeof config);
    config.engine = "vlcsa2";
    config.width = width;

    vlcsa_engine_t *engine = NULL;
    CHECK(vlcsa_init(&config, &engine) == VLCSA_OK, "init: %s",
          vlcsa_last_error(NULL));
    CHECK(vlcsa_limbs(engine) == limbs, "limbs at width 96");

    for (size_t round = 0; round < rounds; round++) {
        uint64_t a[2], b[2], sum[2], want[2];
        rand_operand(a, limbs, width);
        rand_operand(b, limbs, width);
        int want_cout = ref_add(a, b, want, limbs, width);
        int cout = -1;
        uint32_t cycles = 0;
        CHECK(vlcsa_add(engine, a, b, sum, &cout, &cycles) == VLCSA_OK,
              "add: %s", vlcsa_last_error(engine));
        CHECK(memcmp(sum, want, sizeof want) == 0,
              "round %zu: sum mismatch", round);
        CHECK(cout == want_cout, "round %zu: cout %d want %d", round, cout,
              want_cout);
        CHECK(cycles == 1 || cycles == 2, "round %zu: cycles %u", round,
              cycles);
    }
    CHECK(vlcsa_free(engine) == VLCSA_OK, "free");
    printf("ok  sync adds       engine=vlcsa2 width=%zu rounds=%zu\n", width,
           rounds);
}

static void check_reduction(void) {
    const size_t width = 128, limbs = 2, n = 8;
    vlcsa_config_t config;
    memset(&config, 0, sizeof config);
    config.engine = "vlcsa1";
    config.width = width;

    vlcsa_engine_t *engine = NULL;
    CHECK(vlcsa_init(&config, &engine) == VLCSA_OK, "init: %s",
          vlcsa_last_error(NULL));

    uint64_t ops[8 * 2], want[2] = {0, 0}, sum[2];
    for (size_t i = 0; i < n; i++) {
        rand_operand(&ops[i * limbs], limbs, width);
        /* Fold mod 2^width — value-equal to the engine's carry-save
         * compression + single resolve. */
        ref_add(want, &ops[i * limbs], want, limbs, width);
    }
    CHECK(vlcsa_sum(engine, ops, n, sum, NULL, NULL) == VLCSA_OK, "sum: %s",
          vlcsa_last_error(engine));
    CHECK(memcmp(sum, want, sizeof want) == 0, "8-operand reduction mismatch");
    CHECK(vlcsa_free(engine) == VLCSA_OK, "free");
    printf("ok  reduction       engine=vlcsa1 width=%zu operands=%zu\n", width,
           n);
}

static void check_auto_batch(void) {
    const size_t width = 64, batch = 64;
    vlcsa_config_t config;
    memset(&config, 0, sizeof config);
    config.engine = "auto"; /* adaptive routing, in process */
    config.width = width;
    config.slo_micros = 5000;

    vlcsa_engine_t *engine = NULL;
    CHECK(vlcsa_init(&config, &engine) == VLCSA_OK, "init: %s",
          vlcsa_last_error(NULL));

    uint64_t a[64], b[64], tickets[64];
    for (size_t i = 0; i < batch; i++) {
        a[i] = rng_next();
        b[i] = rng_next();
        CHECK(vlcsa_submit(engine, &a[i], &b[i], &tickets[i]) == VLCSA_OK,
              "submit %zu: %s", i, vlcsa_last_error(engine));
    }
    for (size_t i = 0; i < batch; i++) {
        uint64_t sum, want;
        int cout = -1, want_cout = ref_add(&a[i], &b[i], &want, 1, width);
        /* One thread polls, so no ticket is ever pending: the first poll
         * runs the batch holding all of them. */
        int code = vlcsa_poll(engine, tickets[i], &sum, &cout, NULL);
        CHECK(code == VLCSA_OK, "poll %zu: %s", i, vlcsa_last_error(engine));
        CHECK(sum == want, "ticket %zu: sum %" PRIu64 " want %" PRIu64, i, sum,
              want);
        CHECK(cout == want_cout, "ticket %zu: cout", i);
    }

    vlcsa_stats_t stats;
    CHECK(vlcsa_stats(engine, &stats) == VLCSA_OK, "stats");
    CHECK(stats.lanes == batch, "lanes %" PRIu64 " want %zu", stats.lanes,
          batch);
    CHECK(stats.groups == 1, "a burst of %zu must run as one group, got %" PRIu64
          " groups", batch, stats.groups);
    CHECK(vlcsa_free(engine) == VLCSA_OK, "free");
    printf("ok  auto batch      lanes=%" PRIu64 " groups=%" PRIu64
           " stalls=%" PRIu64 "\n",
           stats.lanes, stats.groups, stats.stalls);
}

static void check_errors(void) {
    vlcsa_config_t config;
    memset(&config, 0, sizeof config);
    config.engine = "no-such-engine";
    config.width = 64;

    vlcsa_engine_t *engine = NULL;
    CHECK(vlcsa_init(&config, &engine) == VLCSA_ERR_BAD_CONFIG,
          "unknown engine must be rejected");
    CHECK(strstr(vlcsa_last_error(NULL), "no-such-engine") != NULL,
          "error text names the engine: %s", vlcsa_last_error(NULL));

    config.engine = "ripple";
    config.width = 0;
    CHECK(vlcsa_init(&config, &engine) == VLCSA_ERR_BAD_CONFIG,
          "zero width must be rejected");

    config.width = 64;
    CHECK(vlcsa_init(&config, &engine) == VLCSA_OK, "init: %s",
          vlcsa_last_error(NULL));
    uint64_t sum;
    CHECK(vlcsa_sum(engine, &sum, 65, &sum, NULL, NULL) ==
              VLCSA_ERR_BAD_OPERANDS,
          "over-cap operand count must be rejected before any read");
    CHECK(vlcsa_add(engine, NULL, &sum, &sum, NULL, NULL) == VLCSA_ERR_NULL,
          "null operand must be rejected");
    CHECK(vlcsa_free(engine) == VLCSA_OK, "free");
    CHECK(vlcsa_free(engine) == VLCSA_ERR_BAD_HANDLE,
          "double free must be an error, not UB");
    printf("ok  error surface   codes stable, no aborts\n");
}

int main(void) {
    rng_state = UINT64_C(0xc0ffee);
    printf("vlcsa C ABI sample: word_bits=%zu (build-time slab word)\n",
           vlcsa_word_bits());
    check_sync_adds();
    check_reduction();
    check_auto_batch();
    check_errors();
    printf("all green: bit-exact through the C ABI, no socket involved\n");
    return 0;
}
