//! `vlcsa-ffi` — the embeddable C ABI over the serving stack: submit,
//! poll, and stats with no socket anywhere.
//!
//! The TCP server and this crate are two transports over the same core:
//! [`vlcsa_serve::Service`] validates and routes (`auto` + SLO
//! degradation), and a [`Staging`] forms and runs issue groups; here the
//! "wire" is a function call. A host process links `libvlcsa_ffi`
//! (cdylib or staticlib), includes `include/vlcsa.h`, and drives the
//! engines through an opaque handle:
//!
//! * [`vlcsa_init`] / [`vlcsa_free`] — start and stop one engine handle
//!   (engine name incl. `"auto"`, width, issue-group bound, optional SLO
//!   budget);
//! * [`vlcsa_add`] / [`vlcsa_sum`] — synchronous adds and n-operand
//!   reductions over raw little-endian `u64` limb buffers — the same limb
//!   ingress as the binary wire protocol, no hex;
//! * [`vlcsa_submit`] / [`vlcsa_poll`] — the asynchronous ticket API:
//!   a handle stages its submitted tickets in one batch, which the first
//!   poll of a ticket still in it runs, so a burst of tickets coalesces
//!   into wide issue groups;
//! * [`vlcsa_stats`] / [`vlcsa_lane_count`] / [`vlcsa_lanes`] /
//!   [`vlcsa_last_error`] — aggregate counters (lanes, stalls, issue
//!   groups), the `(engine, width)` lanes traffic has named, and
//!   per-thread / per-handle error text.
//!
//! # Who runs a batch
//!
//! Every call runs its work on the calling thread; a handle starts no
//! thread. The batch of staged tickets runs when a [`vlcsa_poll`] asks
//! for one of them, when it reaches the handle's `max_lanes`, or when a
//! [`vlcsa_add`] or [`vlcsa_sum`] joins it (they run it with their own
//! request). The runner takes the batch out under the handle's lock and
//! runs it outside, so other threads stage the next batch meanwhile; a
//! poll of a ticket in a batch another thread is running is answered
//! [`VLCSA_PENDING`]. A ticket's latency sample for the `auto` router's
//! SLO runs from its batch's first staged request until the run that
//! answers it, so a ticket left unpolled counts as slow.
//!
//! # Boundary contract
//!
//! Every entry point returns a stable error code from `vlcsa.h`
//! (`VLCSA_OK`, `VLCSA_PENDING`, `VLCSA_ERR_*`) and **never panics
//! across the boundary**: each body runs under
//! [`std::panic::catch_unwind`] and an escaped panic becomes
//! `VLCSA_ERR_PANIC`. Freed or never-allocated handles are detected via
//! a process-wide live-handle registry, so a double free or a call on a
//! stale pointer reports `VLCSA_ERR_BAD_HANDLE` instead of touching
//! freed memory. Null pointers report `VLCSA_ERR_NULL`.
//!
//! Handles are `Send + Sync`: any thread may call any function on the
//! same handle concurrently, except [`vlcsa_free`], which the host must
//! serialize against in-flight calls on the same handle (the usual
//! close-once contract of C handle APIs).

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::ffi::{c_char, c_int, CStr, CString};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use bitnum::UBig;
use vlcsa::route::AUTO_ENGINE;
use vlcsa_serve::protocol::{OPERAND_RANGE, WIDTH_RANGE};
use vlcsa_serve::{AddResult, Operands, Reply, ServeConfig, Service, Staging, SubmitError};

/// Success.
pub const VLCSA_OK: c_int = 0;
/// The ticket's result is not ready yet ([`vlcsa_poll`] only).
pub const VLCSA_PENDING: c_int = 1;
/// A required pointer argument was null.
pub const VLCSA_ERR_NULL: c_int = -1;
/// The handle is not a live engine (never allocated, or already freed).
pub const VLCSA_ERR_BAD_HANDLE: c_int = -2;
/// The configuration is invalid (unknown engine name, width out of
/// `1..=4096`, non-UTF-8 engine string).
pub const VLCSA_ERR_BAD_CONFIG: c_int = -3;
/// The operands are invalid (operand count outside `1..=64`, or bits
/// set at or above the configured width).
pub const VLCSA_ERR_BAD_OPERANDS: c_int = -4;
/// The ticket is unknown (never issued, or its result already claimed).
pub const VLCSA_ERR_BAD_TICKET: c_int = -5;
/// The service is shutting down.
pub const VLCSA_ERR_STOPPED: c_int = -6;
/// A panic was caught at the boundary — a bug in the library, reported
/// as an error code rather than an abort in the host process.
pub const VLCSA_ERR_PANIC: c_int = -7;

/// The C-visible configuration of one engine handle — must stay layout-
/// identical to `vlcsa_config_t` in `include/vlcsa.h`.
#[repr(C)]
pub struct VlcsaConfig {
    /// Engine name (`"auto"`, `"vlcsa1"`, `"carry-select"`, …); null
    /// selects `"auto"`.
    pub engine: *const c_char,
    /// Operand width in bits, `1..=4096`.
    pub width: usize,
    /// Most requests one issue group carries, and how many staged tickets
    /// make a batch run; 0 picks the default.
    pub max_lanes: usize,
    /// p99 latency budget for `auto` SLO degradation; 0 = off.
    pub slo_micros: u64,
}

/// The C-visible counters snapshot — must stay layout-identical to
/// `vlcsa_stats_t` in `include/vlcsa.h`. Engine totals are aggregated
/// across every engine the handle's traffic touched (under `"auto"`
/// that can be several).
#[repr(C)]
pub struct VlcsaStats {
    /// Lanes (requests) served.
    pub lanes: u64,
    /// Lanes that took the 2-cycle recovery path.
    pub stalls: u64,
    /// Issue groups (batches) run — non-zero once anything was served.
    pub groups: u64,
    /// Lanes per slab word this build batches into (64 or 256).
    pub word_bits: u64,
}

/// Engine-name capacity of [`VlcsaLaneStats`], including the NUL —
/// must match `VLCSA_LANE_NAME_CAP` in `include/vlcsa.h`.
pub const VLCSA_LANE_NAME_CAP: usize = 32;

/// One `(engine, width)` lane the handle's traffic has named — must stay
/// layout-identical to `vlcsa_lane_stats_t` in `include/vlcsa.h`.
#[repr(C)]
pub struct VlcsaLaneStats {
    /// Concrete engine name running this lane, NUL-terminated and
    /// truncated to fit; `auto` traffic appears under the engine the
    /// router picked.
    pub engine: [c_char; VLCSA_LANE_NAME_CAP],
    /// Operand width of this lane.
    pub width: usize,
}

/// One request's parking slot: filled by its reply when the batch holding
/// it runs, drained by whoever waits on it.
type Slot = Arc<Mutex<Option<AddResult>>>;

/// A handle's tickets, and the batch of requests staged since its last
/// run.
#[derive(Default)]
struct Tickets {
    /// The last ticket issued.
    last: u64,
    /// Each unclaimed ticket's slot, and the number of the batch that
    /// holds it.
    slots: HashMap<u64, (u64, Slot)>,
    /// The requests staged since the last run: the batch numbered `runs`.
    batch: Staging<Reply>,
    /// Batches taken to run so far.
    runs: u64,
}

/// The opaque engine handle behind `vlcsa_engine_t`.
pub struct VlcsaEngine {
    service: Service,
    engine: String,
    width: usize,
    limbs: usize,
    max_lanes: usize,
    tickets: Mutex<Tickets>,
    last_error: Mutex<CString>,
}

impl VlcsaEngine {
    /// Stages `operands` in the handle's batch; returns the slot its reply
    /// fills once the batch runs.
    fn stage(&self, tickets: &mut Tickets, operands: Operands) -> Result<Slot, SubmitError> {
        let slot = Slot::default();
        let fill = Arc::clone(&slot);
        let reply: Reply = Box::new(move |result| {
            *fill.lock().expect("ticket slot lock") = Some(result);
        });
        tickets
            .batch
            .stage(&self.service, &self.engine, operands, reply)?;
        Ok(slot)
    }

    /// Stages one request, runs the batch with it, and returns its result.
    fn run_one(&self, operands: Result<Operands, SubmitError>) -> Result<AddResult, SubmitError> {
        let mut tickets = self.tickets.lock().expect("ticket table lock");
        let slot = self.stage(&mut tickets, operands?)?;
        run_batch(tickets);
        let result = slot.lock().expect("ticket slot lock").take();
        Ok(result.expect("a run answers every request it holds"))
    }
}

/// Takes the staged batch out under the handle's lock and runs it on the
/// calling thread once the lock is released, so that other threads stage
/// the next batch meanwhile.
fn run_batch(mut tickets: MutexGuard<'_, Tickets>) {
    tickets.runs += 1;
    let mut batch = std::mem::take(&mut tickets.batch);
    drop(tickets);
    batch.run();
}

/// Process-wide set of live handle addresses. Calls verify membership
/// before dereferencing, so stale pointers fail closed with
/// [`VLCSA_ERR_BAD_HANDLE`] instead of reading freed memory.
fn live_handles() -> &'static Mutex<HashSet<usize>> {
    static LIVE: OnceLock<Mutex<HashSet<usize>>> = OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(HashSet::new()))
}

thread_local! {
    /// Error text for failures with no (valid) handle to hang it on.
    static TLS_ERROR: RefCell<CString> = RefCell::new(CString::default());
}

/// Records error text on the handle if one is live, else on the calling
/// thread, and passes the code through.
fn fail(engine: Option<&VlcsaEngine>, code: c_int, message: &str) -> c_int {
    let text = CString::new(message.replace('\0', "?")).unwrap_or_default();
    match engine {
        Some(e) => *e.last_error.lock().expect("last_error lock") = text,
        None => TLS_ERROR.with(|t| *t.borrow_mut() = text),
    }
    code
}

/// Checks handle liveness and reborrows it. The `unsafe` contract is
/// the caller's: a live address in the registry is one we allocated via
/// `Box` in [`vlcsa_init`] and have not freed.
unsafe fn deref_handle<'a>(handle: *mut VlcsaEngine) -> Result<&'a VlcsaEngine, c_int> {
    if handle.is_null() {
        return Err(fail(None, VLCSA_ERR_NULL, "engine handle is null"));
    }
    if !live_handles()
        .lock()
        .expect("live-handle lock")
        .contains(&(handle as usize))
    {
        return Err(fail(
            None,
            VLCSA_ERR_BAD_HANDLE,
            "engine handle is not live (already freed, or never allocated)",
        ));
    }
    Ok(&*handle)
}

/// Maps a service rejection onto the C error-code space.
fn submit_code(err: &SubmitError) -> c_int {
    match err {
        SubmitError::UnknownEngine(_) => VLCSA_ERR_BAD_CONFIG,
        SubmitError::WidthMismatch(..) | SubmitError::BadWidth(_) => VLCSA_ERR_BAD_OPERANDS,
        SubmitError::BadOperandCount(_) | SubmitError::BadLimbs(_) => VLCSA_ERR_BAD_OPERANDS,
        SubmitError::Stopped => VLCSA_ERR_STOPPED,
    }
}

/// Wraps an entry-point body so a panic becomes [`VLCSA_ERR_PANIC`]
/// instead of unwinding into the host's C frames (undefined behavior).
fn guarded(body: impl FnOnce() -> c_int) -> c_int {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(code) => code,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic across the FFI boundary".to_string());
            fail(None, VLCSA_ERR_PANIC, &msg)
        }
    }
}

/// Copies a result into the caller's out buffers. `sum` must hold
/// `limbs` limbs; `cout`/`cycles` may be null when the caller does not
/// care.
unsafe fn write_result(
    result: &AddResult,
    limbs: usize,
    sum: *mut u64,
    cout: *mut c_int,
    cycles: *mut u32,
) {
    let out = std::slice::from_raw_parts_mut(sum, limbs);
    out.copy_from_slice(result.sum.limbs());
    if !cout.is_null() {
        *cout = c_int::from(result.cout);
    }
    if !cycles.is_null() {
        *cycles = u32::from(result.cycles);
    }
}

/// Validates that `limbs` is a well-formed operand at `width`: bits at
/// or above the width must be zero (the wire protocols reject these
/// too, so all transports agree on what an operand is).
fn check_top_bits(limbs: &[u64], width: usize) -> Result<(), String> {
    let used = width % 64;
    if used != 0 {
        let top = limbs[limbs.len() - 1];
        if top >> used != 0 {
            return Err(format!("operand has bits set at or above width {width}"));
        }
    }
    Ok(())
}

/// Creates an engine handle.
///
/// On success writes the new handle to `*out` and returns [`VLCSA_OK`];
/// on failure leaves `*out` untouched and returns a negative code (the
/// text is available via `vlcsa_last_error(NULL)` on this thread).
///
/// # Safety
///
/// `config` must point to a valid [`VlcsaConfig`] (its `engine` field
/// null or a valid NUL-terminated string) and `out` to writable storage
/// for one pointer.
#[no_mangle]
pub unsafe extern "C" fn vlcsa_init(
    config: *const VlcsaConfig,
    out: *mut *mut VlcsaEngine,
) -> c_int {
    guarded(|| {
        if config.is_null() || out.is_null() {
            return fail(None, VLCSA_ERR_NULL, "config and out must be non-null");
        }
        let config = &*config;
        if !WIDTH_RANGE.contains(&config.width) {
            return fail(
                None,
                VLCSA_ERR_BAD_CONFIG,
                &format!(
                    "width {} outside {}..={}",
                    config.width,
                    WIDTH_RANGE.start(),
                    WIDTH_RANGE.end()
                ),
            );
        }
        let engine = if config.engine.is_null() {
            AUTO_ENGINE.to_string()
        } else {
            match CStr::from_ptr(config.engine).to_str() {
                Ok(name) => name.to_string(),
                Err(_) => {
                    return fail(None, VLCSA_ERR_BAD_CONFIG, "engine name is not UTF-8");
                }
            }
        };
        // Engine names are width-independent; validate against the
        // registry before building the handle.
        if engine != AUTO_ENGINE
            && !vlcsa::engine::Registry::for_width(64)
                .names()
                .contains(&engine.as_str())
        {
            return fail(
                None,
                VLCSA_ERR_BAD_CONFIG,
                &format!("unknown engine `{engine}`"),
            );
        }
        let defaults = ServeConfig::default();
        let serve = ServeConfig {
            max_lanes: if config.max_lanes == 0 {
                defaults.max_lanes
            } else {
                config.max_lanes
            },
            ..defaults
        }
        .with_slo((config.slo_micros != 0).then_some(config.slo_micros));
        let handle = Box::new(VlcsaEngine {
            service: Service::start(serve),
            engine,
            width: config.width,
            limbs: config.width.div_ceil(64),
            max_lanes: serve.max_lanes,
            tickets: Mutex::new(Tickets::default()),
            last_error: Mutex::new(CString::default()),
        });
        let raw = Box::into_raw(handle);
        live_handles()
            .lock()
            .expect("live-handle lock")
            .insert(raw as usize);
        *out = raw;
        VLCSA_OK
    })
}

/// Destroys an engine handle and releases it. Unclaimed tickets, staged
/// or answered, are dropped.
/// A second free of the same pointer returns [`VLCSA_ERR_BAD_HANDLE`].
///
/// # Safety
///
/// No other call on `engine` may be in flight or started after this
/// one (close-once, like `fclose`).
#[no_mangle]
pub unsafe extern "C" fn vlcsa_free(engine: *mut VlcsaEngine) -> c_int {
    guarded(|| {
        if engine.is_null() {
            return fail(None, VLCSA_ERR_NULL, "engine handle is null");
        }
        // Claim the address atomically: exactly one free wins; the loser
        // sees a dead handle and never touches the memory.
        if !live_handles()
            .lock()
            .expect("live-handle lock")
            .remove(&(engine as usize))
        {
            return fail(
                None,
                VLCSA_ERR_BAD_HANDLE,
                "engine handle is not live (double free?)",
            );
        }
        drop(Box::from_raw(engine));
        VLCSA_OK
    })
}

/// The number of `u64` limbs per operand (and per sum) at this handle's
/// width: `ceil(width / 64)`. Returns 0 on a dead or null handle.
///
/// # Safety
///
/// `engine` must be null, live, or a previously valid handle (the
/// live-handle registry screens the rest).
#[no_mangle]
pub unsafe extern "C" fn vlcsa_limbs(engine: *mut VlcsaEngine) -> usize {
    guarded(|| match deref_handle(engine) {
        Ok(e) => {
            // `guarded` wants a c_int; limb counts fit comfortably
            // (width <= 4096 means at most 64 limbs).
            e.limbs as c_int
        }
        Err(_) => 0,
    })
    .max(0) as usize
}

/// Lanes per slab word this build batches into: 64 (`--cfg
/// vlcsa_word64`) or 256 (default).
#[no_mangle]
pub extern "C" fn vlcsa_word_bits() -> usize {
    use bitnum::batch::{DefaultWord, Word};
    DefaultWord::LANES
}

/// Synchronous addition: `sum = a + b` at the handle's width, run on the
/// calling thread together with any tickets staged before it. Operands
/// and sum are little-endian `u64` limb buffers of [`vlcsa_limbs`] limbs.
/// `cout` (carry out of the top bit) and `cycles` (1, or 2 after a
/// recovery stall) may be null.
///
/// # Safety
///
/// `a`, `b` and `sum` must each point to [`vlcsa_limbs`]`(engine)`
/// readable (resp. writable) limbs; `cout` and `cycles` must be null or
/// writable.
#[no_mangle]
pub unsafe extern "C" fn vlcsa_add(
    engine: *mut VlcsaEngine,
    a: *const u64,
    b: *const u64,
    sum: *mut u64,
    cout: *mut c_int,
    cycles: *mut u32,
) -> c_int {
    guarded(|| {
        let e = match deref_handle(engine) {
            Ok(e) => e,
            Err(code) => return code,
        };
        if a.is_null() || b.is_null() || sum.is_null() {
            return fail(Some(e), VLCSA_ERR_NULL, "a, b and sum must be non-null");
        }
        let a = std::slice::from_raw_parts(a, e.limbs);
        let b = std::slice::from_raw_parts(b, e.limbs);
        match e.run_one(Operands::limbs(e.width, a, b)) {
            Ok(result) => {
                write_result(&result, e.limbs, sum, cout, cycles);
                VLCSA_OK
            }
            Err(err) => fail(Some(e), submit_code(&err), &err.to_string()),
        }
    })
}

/// Synchronous n-operand reduction: `sum = ops[0] + … + ops[n-1]` at
/// the handle's width, compressed carry-save style so carries resolve
/// exactly once, and run as [`vlcsa_add`] runs. `ops` is `n` operands of [`vlcsa_limbs`] limbs each,
/// back to back; `n` must be in `1..=64`. `cout` is the carry out of
/// the whole reduction's final resolve.
///
/// # Safety
///
/// `ops` must point to `n * `[`vlcsa_limbs`]`(engine)` readable limbs
/// and `sum` to [`vlcsa_limbs`]`(engine)` writable limbs; `cout` and
/// `cycles` must be null or writable.
#[no_mangle]
pub unsafe extern "C" fn vlcsa_sum(
    engine: *mut VlcsaEngine,
    ops: *const u64,
    n: usize,
    sum: *mut u64,
    cout: *mut c_int,
    cycles: *mut u32,
) -> c_int {
    guarded(|| {
        let e = match deref_handle(engine) {
            Ok(e) => e,
            Err(code) => return code,
        };
        if ops.is_null() || sum.is_null() {
            return fail(Some(e), VLCSA_ERR_NULL, "ops and sum must be non-null");
        }
        // Validate the count BEFORE touching n * limbs of caller
        // memory: a hostile n must fail here, not read out of bounds.
        if !OPERAND_RANGE.contains(&n) {
            return fail(
                Some(e),
                VLCSA_ERR_BAD_OPERANDS,
                &format!(
                    "operand count {n} outside {}..={}",
                    OPERAND_RANGE.start(),
                    OPERAND_RANGE.end()
                ),
            );
        }
        let flat = std::slice::from_raw_parts(ops, n * e.limbs);
        let mut operands = Vec::with_capacity(n);
        for chunk in flat.chunks_exact(e.limbs) {
            // `UBig::from_limbs` masks silently; the FFI contract (like
            // the wire protocols) rejects out-of-width bits instead.
            if let Err(msg) = check_top_bits(chunk, e.width) {
                return fail(Some(e), VLCSA_ERR_BAD_OPERANDS, &msg);
            }
            operands.push(UBig::from_limbs(chunk, e.width));
        }
        match e.run_one(Operands::sum(&operands)) {
            Ok(result) => {
                write_result(&result, e.limbs, sum, cout, cycles);
                VLCSA_OK
            }
            Err(err) => fail(Some(e), submit_code(&err), &err.to_string()),
        }
    })
}

/// Asynchronous addition: stages `a + b` in the handle's batch and returns
/// a ticket. Many submits from one burst coalesce into the same wide issue
/// group — the point of the async API. The batch runs when it reaches the
/// handle's `max_lanes` (on this call's thread), when a poll asks for one
/// of its tickets, or when a synchronous call joins it. Claim the result
/// with [`vlcsa_poll`]; tickets are single-use.
///
/// # Safety
///
/// `a` and `b` must each point to [`vlcsa_limbs`]`(engine)` readable
/// limbs (copied before return); `ticket` must be writable.
#[no_mangle]
pub unsafe extern "C" fn vlcsa_submit(
    engine: *mut VlcsaEngine,
    a: *const u64,
    b: *const u64,
    ticket: *mut u64,
) -> c_int {
    guarded(|| {
        let e = match deref_handle(engine) {
            Ok(e) => e,
            Err(code) => return code,
        };
        if a.is_null() || b.is_null() || ticket.is_null() {
            return fail(Some(e), VLCSA_ERR_NULL, "a, b and ticket must be non-null");
        }
        let a = std::slice::from_raw_parts(a, e.limbs);
        let b = std::slice::from_raw_parts(b, e.limbs);
        let mut tickets = e.tickets.lock().expect("ticket table lock");
        let staged = Operands::limbs(e.width, a, b).and_then(|ops| e.stage(&mut tickets, ops));
        let slot = match staged {
            Ok(slot) => slot,
            Err(err) => return fail(Some(e), submit_code(&err), &err.to_string()),
        };
        tickets.last += 1;
        let (id, batch) = (tickets.last, tickets.runs);
        tickets.slots.insert(id, (batch, slot));
        *ticket = id;
        if tickets.batch.len() >= e.max_lanes {
            run_batch(tickets);
        }
        VLCSA_OK
    })
}

/// Claims a ticket's result. A ticket still staged runs here, with the
/// rest of its batch; one whose batch another thread is running returns
/// [`VLCSA_PENDING`] without waiting. On [`VLCSA_OK`] the ticket is
/// consumed and a second poll returns [`VLCSA_ERR_BAD_TICKET`].
///
/// # Safety
///
/// `sum` must point to [`vlcsa_limbs`]`(engine)` writable limbs;
/// `cout` and `cycles` must be null or writable.
#[no_mangle]
pub unsafe extern "C" fn vlcsa_poll(
    engine: *mut VlcsaEngine,
    ticket: u64,
    sum: *mut u64,
    cout: *mut c_int,
    cycles: *mut u32,
) -> c_int {
    guarded(|| {
        let e = match deref_handle(engine) {
            Ok(e) => e,
            Err(code) => return code,
        };
        if sum.is_null() {
            return fail(Some(e), VLCSA_ERR_NULL, "sum must be non-null");
        }
        let tickets = e.tickets.lock().expect("ticket table lock");
        let Some((batch, slot)) = tickets.slots.get(&ticket) else {
            return fail(
                Some(e),
                VLCSA_ERR_BAD_TICKET,
                &format!("ticket {ticket} was never issued or is already claimed"),
            );
        };
        let slot = Arc::clone(slot);
        if *batch == tickets.runs {
            run_batch(tickets);
        } else {
            drop(tickets);
        }
        let ready = slot.lock().expect("ticket slot lock").take();
        match ready {
            Some(result) => {
                e.tickets
                    .lock()
                    .expect("ticket table lock")
                    .slots
                    .remove(&ticket);
                write_result(&result, e.limbs, sum, cout, cycles);
                VLCSA_OK
            }
            None => VLCSA_PENDING,
        }
    })
}

/// Snapshots the handle's service counters into `*out`. Lane, stall and
/// group totals aggregate across every engine the traffic touched
/// (several, when routing under `"auto"`).
///
/// # Safety
///
/// `out` must point to writable storage for one [`VlcsaStats`].
#[no_mangle]
pub unsafe extern "C" fn vlcsa_stats(engine: *mut VlcsaEngine, out: *mut VlcsaStats) -> c_int {
    guarded(|| {
        let e = match deref_handle(engine) {
            Ok(e) => e,
            Err(code) => return code,
        };
        if out.is_null() {
            return fail(Some(e), VLCSA_ERR_NULL, "out must be non-null");
        }
        let report = e.service.stats();
        *out = VlcsaStats {
            lanes: report.total_lanes(),
            stalls: report.total_stalls(),
            groups: report.total_groups(),
            word_bits: report.word_bits as u64,
        };
        VLCSA_OK
    })
}

/// The number of live `(engine, width)` lanes on this handle — lanes
/// spin up on first use and live until shutdown. Returns 0 on a null
/// or dead handle.
///
/// # Safety
///
/// `engine` must be null, live, or a previously valid handle (the
/// live-handle registry screens the rest).
#[no_mangle]
pub unsafe extern "C" fn vlcsa_lane_count(engine: *mut VlcsaEngine) -> usize {
    guarded(|| match deref_handle(engine) {
        // `guarded` wants a c_int; the lane count is bounded by the
        // engine-family count times the widths this handle touched.
        Ok(e) => e.service.stats().lanes.len() as c_int,
        Err(_) => 0,
    })
    .max(0) as usize
}

/// Snapshots up to `cap` per-lane rows into `out` and writes the total
/// number of live lanes to `*count`. The total may exceed `cap` — the
/// caller sizes the buffer via [`vlcsa_lane_count`] or retries larger;
/// the copied prefix is still valid either way.
///
/// # Safety
///
/// `out` must point to `cap` writable [`VlcsaLaneStats`] (or be null
/// when `cap` is 0) and `count` to writable storage for one `size_t`.
#[no_mangle]
pub unsafe extern "C" fn vlcsa_lanes(
    engine: *mut VlcsaEngine,
    out: *mut VlcsaLaneStats,
    cap: usize,
    count: *mut usize,
) -> c_int {
    guarded(|| {
        let e = match deref_handle(engine) {
            Ok(e) => e,
            Err(code) => return code,
        };
        if count.is_null() {
            return fail(Some(e), VLCSA_ERR_NULL, "count must be non-null");
        }
        if out.is_null() && cap != 0 {
            return fail(Some(e), VLCSA_ERR_NULL, "out must be non-null when cap > 0");
        }
        let lanes = e.service.stats().lanes;
        *count = lanes.len();
        let copy = cap.min(lanes.len());
        if copy > 0 {
            for (slot, lane) in std::slice::from_raw_parts_mut(out, copy)
                .iter_mut()
                .zip(&lanes)
            {
                let mut name = [0 as c_char; VLCSA_LANE_NAME_CAP];
                for (dst, src) in name
                    .iter_mut()
                    .zip(lane.engine.bytes().take(VLCSA_LANE_NAME_CAP - 1))
                {
                    *dst = src as c_char;
                }
                *slot = VlcsaLaneStats {
                    engine: name,
                    width: lane.width,
                };
            }
        }
        VLCSA_OK
    })
}

/// The text of the last error: the handle's, or — when `engine` is null
/// or not live — the calling thread's (covering [`vlcsa_init`] and
/// bad-handle failures). The pointer is valid until the next failing
/// call on the same handle (resp. thread); never null, possibly empty.
///
/// # Safety
///
/// `engine` must be null or a pointer previously returned by
/// [`vlcsa_init`] (live or freed — freed handles fall back to the
/// thread's error text rather than being dereferenced).
#[no_mangle]
pub unsafe extern "C" fn vlcsa_last_error(engine: *mut VlcsaEngine) -> *const c_char {
    // No `guarded`: this path allocates nothing and must stay callable
    // while reporting a caught panic.
    if !engine.is_null()
        && live_handles()
            .lock()
            .expect("live-handle lock")
            .contains(&(engine as usize))
    {
        let e = &*engine;
        return e.last_error.lock().expect("last_error lock").as_ptr();
    }
    TLS_ERROR.with(|t| t.borrow().as_ptr())
}
