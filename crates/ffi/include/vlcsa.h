/*
 * vlcsa.h — embeddable C ABI over the vlcsa variable-latency
 * carry-select serving stack: submit, poll, and stats without a socket.
 *
 * Link against libvlcsa_ffi (cdylib or staticlib, built from
 * crates/ffi). The staticlib additionally needs the usual Rust runtime
 * system libraries on Linux: -lpthread -ldl -lm.
 *
 * Contract, in brief:
 *
 *  - Every function returns VLCSA_OK (0), VLCSA_PENDING (1, poll
 *    only), or a negative VLCSA_ERR_* code. No call ever panics or
 *    aborts the host: internal panics are caught at the boundary and
 *    reported as VLCSA_ERR_PANIC.
 *  - Operands and sums are little-endian uint64_t limb buffers of
 *    vlcsa_limbs(engine) limbs (= ceil(width / 64)). Bits at or above
 *    the configured width must be zero or the call fails with
 *    VLCSA_ERR_BAD_OPERANDS.
 *  - Handles are thread-safe: any thread may call any function on the
 *    same handle concurrently, except vlcsa_free, which must not race
 *    other calls on the same handle (close-once, like fclose). A freed
 *    or never-allocated handle fails closed with VLCSA_ERR_BAD_HANDLE.
 *  - vlcsa_last_error(engine) returns the handle's last error text;
 *    vlcsa_last_error(NULL) the calling thread's (for init and
 *    bad-handle failures). The pointer is owned by the library and
 *    valid until the next failing call on the same handle / thread.
 *  - A handle starts no thread: every call runs its work on the
 *    calling thread. Submitted tickets are staged in one batch per
 *    handle, which runs, as one issue group per lane, when a poll asks
 *    for one of its tickets, when it reaches max_lanes tickets, or when
 *    vlcsa_add / vlcsa_sum joins it.
 */

#ifndef VLCSA_H
#define VLCSA_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* --- Status codes ----------------------------------------------------- */

#define VLCSA_OK 0
/* The ticket's result is not ready yet (vlcsa_poll only). */
#define VLCSA_PENDING 1
/* A required pointer argument was null. */
#define VLCSA_ERR_NULL (-1)
/* The handle is not a live engine (already freed, or never allocated). */
#define VLCSA_ERR_BAD_HANDLE (-2)
/* Bad configuration: unknown engine name, width outside 1..=4096. */
#define VLCSA_ERR_BAD_CONFIG (-3)
/* Bad operands: count outside 1..=64, or bits set at/above the width. */
#define VLCSA_ERR_BAD_OPERANDS (-4)
/* The ticket was never issued, or its result was already claimed. */
#define VLCSA_ERR_BAD_TICKET (-5)
/* The service is shutting down. */
#define VLCSA_ERR_STOPPED (-6)
/* A panic was caught at the boundary (library bug, not host UB). */
#define VLCSA_ERR_PANIC (-7)

/* --- Types ------------------------------------------------------------ */

/* Opaque engine handle. */
typedef struct vlcsa_engine vlcsa_engine_t;

/* Configuration for vlcsa_init. Zero-initialize, then set what you
 * need: every 0 / NULL field picks a sensible default. */
typedef struct vlcsa_config {
    /* Engine name: "auto" (adaptive routing), "vlcsa1", "vlcsa2",
     * "carry-select", "ripple", ... NULL selects "auto". */
    const char *engine;
    /* Operand width in bits, 1..=4096. Required (0 is invalid). */
    size_t width;
    /* Most requests one issue group carries, and how many staged
     * tickets make a batch run; 0 = default (256). */
    size_t max_lanes;
    /* p99 latency budget (microseconds) for "auto" SLO degradation;
     * 0 = no budget. A ticket's latency sample runs from the first
     * request staged in its batch until the poll that runs the batch,
     * so tickets left unpolled count against the budget. */
    uint64_t slo_micros;
} vlcsa_config_t;

/* Counters snapshot, aggregated over every engine the handle's traffic
 * touched (several, when routing under "auto"). */
typedef struct vlcsa_stats {
    uint64_t lanes;        /* lanes (requests) served               */
    uint64_t stalls;       /* lanes that took the 2-cycle recovery  */
    uint64_t groups;       /* issue groups (batches) run            */
    uint64_t word_bits;    /* lanes per slab word (64 or 256)       */
} vlcsa_stats_t;

/* Engine-name capacity of vlcsa_lane_stats_t, including the NUL. */
#define VLCSA_LANE_NAME_CAP 32

/* One (engine, width) lane the handle's traffic has named. */
typedef struct vlcsa_lane_stats {
    /* Concrete engine name running this lane (NUL-terminated,
     * truncated to fit). "auto" traffic appears under the engine the
     * router picked. */
    char engine[VLCSA_LANE_NAME_CAP];
    size_t width; /* operand width of this lane */
} vlcsa_lane_stats_t;

/* --- Lifecycle -------------------------------------------------------- */

/* Creates an engine handle; writes it to *out on VLCSA_OK. */
int vlcsa_init(const vlcsa_config_t *config, vlcsa_engine_t **out);

/* Frees the handle. Unclaimed tickets, staged or answered, are
 * dropped. Double free returns VLCSA_ERR_BAD_HANDLE without touching
 * memory. */
int vlcsa_free(vlcsa_engine_t *engine);

/* Limbs per operand (and per sum) at the handle's width:
 * ceil(width / 64). Returns 0 on a null or dead handle. */
size_t vlcsa_limbs(vlcsa_engine_t *engine);

/* Lanes per slab word this build batches into: 64 or 256. */
size_t vlcsa_word_bits(void);

/* --- Synchronous ------------------------------------------------------ */

/* sum = a + b at the handle's width, run on the calling thread with
 * any tickets staged before it. cout (carry out of the top bit) and
 * cycles (1, or 2 after a recovery stall) may be NULL. */
int vlcsa_add(vlcsa_engine_t *engine, const uint64_t *a, const uint64_t *b,
              uint64_t *sum, int *cout, uint32_t *cycles);

/* sum = ops[0] + ... + ops[n-1]: one carry-save-compressed reduction
 * whose carries resolve exactly once. ops holds n operands of
 * vlcsa_limbs(engine) limbs each, back to back; n must be 1..=64. */
int vlcsa_sum(vlcsa_engine_t *engine, const uint64_t *ops, size_t n,
              uint64_t *sum, int *cout, uint32_t *cycles);

/* --- Asynchronous ----------------------------------------------------- */

/* Stages a + b in the handle's batch and returns a ticket; a burst of
 * submits coalesces into wide issue groups. The submit that brings the
 * batch to max_lanes tickets runs it. Operand buffers are copied before
 * return. */
int vlcsa_submit(vlcsa_engine_t *engine, const uint64_t *a, const uint64_t *b,
                 uint64_t *ticket);

/* Claims a ticket's result. A ticket still staged runs here, with the
 * rest of its batch; VLCSA_PENDING means another thread is running the
 * batch that holds it, and a later poll claims it. On VLCSA_OK the
 * ticket is consumed (a second poll returns VLCSA_ERR_BAD_TICKET). */
int vlcsa_poll(vlcsa_engine_t *engine, uint64_t ticket, uint64_t *sum,
               int *cout, uint32_t *cycles);

/* --- Introspection ---------------------------------------------------- */

/* Snapshots the service counters into *out. */
int vlcsa_stats(vlcsa_engine_t *engine, vlcsa_stats_t *out);

/* Number of live (engine, width) lanes (lanes spin up on first use
 * and live until shutdown). Returns 0 on a null or dead handle. */
size_t vlcsa_lane_count(vlcsa_engine_t *engine);

/* Snapshots up to cap per-lane rows into out and writes the total
 * number of live lanes to *count (which may exceed cap — call
 * vlcsa_lane_count or retry with a larger buffer). out may be NULL
 * when cap is 0. */
int vlcsa_lanes(vlcsa_engine_t *engine, vlcsa_lane_stats_t *out,
                size_t cap, size_t *count);

/* Last error text: the handle's, or the calling thread's when engine
 * is NULL or not live. Never NULL; possibly empty. */
const char *vlcsa_last_error(vlcsa_engine_t *engine);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* VLCSA_H */
