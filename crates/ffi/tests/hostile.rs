//! Hostile-input coverage for the FFI boundary: every abuse a C host
//! can express must come back as an error code — never UB, never an
//! abort, never a panic unwinding into foreign frames.

use std::ffi::{c_int, CStr};
use std::ptr;

use vlcsa_ffi::{
    vlcsa_add, vlcsa_free, vlcsa_init, vlcsa_last_error, vlcsa_limbs, vlcsa_poll, vlcsa_stats,
    vlcsa_submit, vlcsa_sum, VlcsaConfig, VlcsaEngine, VlcsaStats, VLCSA_ERR_BAD_CONFIG,
    VLCSA_ERR_BAD_HANDLE, VLCSA_ERR_BAD_OPERANDS, VLCSA_ERR_BAD_TICKET, VLCSA_ERR_NULL, VLCSA_OK,
};

fn config(engine: *const std::ffi::c_char, width: usize) -> VlcsaConfig {
    VlcsaConfig {
        engine,
        width,
        max_lanes: 0,
        slo_micros: 0,
    }
}

fn init_ok(width: usize) -> *mut VlcsaEngine {
    let mut handle = ptr::null_mut();
    assert_eq!(
        unsafe { vlcsa_init(&config(c"ripple".as_ptr(), width), &mut handle) },
        VLCSA_OK
    );
    handle
}

fn thread_error() -> String {
    unsafe { CStr::from_ptr(vlcsa_last_error(ptr::null_mut())) }
        .to_string_lossy()
        .into_owned()
}

#[test]
fn init_rejects_null_and_bad_config() {
    let mut handle: *mut VlcsaEngine = ptr::null_mut();
    assert_eq!(
        unsafe { vlcsa_init(ptr::null(), &mut handle) },
        VLCSA_ERR_NULL
    );
    assert_eq!(
        unsafe { vlcsa_init(&config(ptr::null(), 64), ptr::null_mut()) },
        VLCSA_ERR_NULL
    );
    // Zero width.
    assert_eq!(
        unsafe { vlcsa_init(&config(c"ripple".as_ptr(), 0), &mut handle) },
        VLCSA_ERR_BAD_CONFIG
    );
    assert!(thread_error().contains("width"), "{}", thread_error());
    // Width over the cap.
    assert_eq!(
        unsafe { vlcsa_init(&config(c"ripple".as_ptr(), 4097), &mut handle) },
        VLCSA_ERR_BAD_CONFIG
    );
    // Bad engine name.
    assert_eq!(
        unsafe { vlcsa_init(&config(c"no-such-engine".as_ptr(), 64), &mut handle) },
        VLCSA_ERR_BAD_CONFIG
    );
    assert!(
        thread_error().contains("no-such-engine"),
        "{}",
        thread_error()
    );
    // Nothing above may have produced a handle.
    assert!(handle.is_null());
}

#[test]
fn calls_on_dead_or_garbage_handles_fail_closed() {
    let handle = init_ok(64);
    assert_eq!(unsafe { vlcsa_free(handle) }, VLCSA_OK);
    // Double free: the registry already forgot the address, so the
    // second free must not touch the memory.
    assert_eq!(unsafe { vlcsa_free(handle) }, VLCSA_ERR_BAD_HANDLE);
    // Every other call on the stale pointer fails closed too.
    let (a, b, mut sum) = ([1u64], [2u64], [0u64]);
    let mut ticket = 0u64;
    let mut stats = VlcsaStats {
        lanes: 0,
        stalls: 0,
        groups: 0,
        word_bits: 0,
    };
    assert_eq!(
        unsafe {
            vlcsa_add(
                handle,
                a.as_ptr(),
                b.as_ptr(),
                sum.as_mut_ptr(),
                ptr::null_mut(),
                ptr::null_mut(),
            )
        },
        VLCSA_ERR_BAD_HANDLE
    );
    assert_eq!(
        unsafe { vlcsa_submit(handle, a.as_ptr(), b.as_ptr(), &mut ticket) },
        VLCSA_ERR_BAD_HANDLE
    );
    assert_eq!(
        unsafe {
            vlcsa_poll(
                handle,
                1,
                sum.as_mut_ptr(),
                ptr::null_mut(),
                ptr::null_mut(),
            )
        },
        VLCSA_ERR_BAD_HANDLE
    );
    assert_eq!(
        unsafe { vlcsa_stats(handle, &mut stats) },
        VLCSA_ERR_BAD_HANDLE
    );
    assert_eq!(unsafe { vlcsa_limbs(handle) }, 0);
    // Null handles are their own error.
    assert_eq!(unsafe { vlcsa_free(ptr::null_mut()) }, VLCSA_ERR_NULL);
    // A pointer that was never a handle is indistinguishable from a
    // freed one — also refused without a dereference.
    let garbage = 0xdead_beefusize as *mut VlcsaEngine;
    assert_eq!(unsafe { vlcsa_free(garbage) }, VLCSA_ERR_BAD_HANDLE);
}

#[test]
fn null_operand_pointers_are_rejected() {
    let handle = init_ok(64);
    let (a, mut sum) = ([1u64], [0u64]);
    let mut ticket = 0u64;
    assert_eq!(
        unsafe {
            vlcsa_add(
                handle,
                ptr::null(),
                a.as_ptr(),
                sum.as_mut_ptr(),
                ptr::null_mut(),
                ptr::null_mut(),
            )
        },
        VLCSA_ERR_NULL
    );
    assert_eq!(
        unsafe {
            vlcsa_add(
                handle,
                a.as_ptr(),
                a.as_ptr(),
                ptr::null_mut(),
                ptr::null_mut(),
                ptr::null_mut(),
            )
        },
        VLCSA_ERR_NULL
    );
    assert_eq!(
        unsafe { vlcsa_submit(handle, a.as_ptr(), ptr::null(), &mut ticket) },
        VLCSA_ERR_NULL
    );
    assert_eq!(
        unsafe {
            vlcsa_sum(
                handle,
                ptr::null(),
                2,
                sum.as_mut_ptr(),
                ptr::null_mut(),
                ptr::null_mut(),
            )
        },
        VLCSA_ERR_NULL
    );
    // The handle records the error text.
    let text = unsafe { CStr::from_ptr(vlcsa_last_error(handle)) }
        .to_string_lossy()
        .into_owned();
    assert!(text.contains("non-null"), "{text}");
    assert_eq!(unsafe { vlcsa_free(handle) }, VLCSA_OK);
}

#[test]
fn over_cap_and_out_of_width_operands_are_rejected() {
    let handle = init_ok(96);
    let limbs = unsafe { vlcsa_limbs(handle) };
    assert_eq!(limbs, 2);
    let mut sum = vec![0u64; limbs];
    // Operand count over the 64-input program cap: must fail BEFORE the
    // library reads n * limbs limbs (the buffer here is far smaller).
    let one = vec![1u64; limbs];
    for n in [0usize, 65, usize::MAX / 16] {
        assert_eq!(
            unsafe {
                vlcsa_sum(
                    handle,
                    one.as_ptr(),
                    n,
                    sum.as_mut_ptr(),
                    ptr::null_mut(),
                    ptr::null_mut(),
                )
            },
            VLCSA_ERR_BAD_OPERANDS,
            "n={n}"
        );
    }
    // Bits at or above width 96 in the top limb: rejected, same as the
    // wire protocols.
    let dirty = [u64::MAX, u64::MAX];
    let clean = [1u64, 1];
    assert_eq!(
        unsafe {
            vlcsa_add(
                handle,
                dirty.as_ptr(),
                clean.as_ptr(),
                sum.as_mut_ptr(),
                ptr::null_mut(),
                ptr::null_mut(),
            )
        },
        VLCSA_ERR_BAD_OPERANDS
    );
    let flat = [1u64, 1, u64::MAX, u64::MAX];
    assert_eq!(
        unsafe {
            vlcsa_sum(
                handle,
                flat.as_ptr(),
                2,
                sum.as_mut_ptr(),
                ptr::null_mut(),
                ptr::null_mut(),
            )
        },
        VLCSA_ERR_BAD_OPERANDS
    );
    assert_eq!(unsafe { vlcsa_free(handle) }, VLCSA_OK);
}

#[test]
fn tickets_are_single_use_and_unknown_tickets_fail() {
    let handle = init_ok(64);
    let (a, b) = ([7u64], [8u64]);
    let mut sum = [0u64];
    // Never-issued ticket.
    assert_eq!(
        unsafe {
            vlcsa_poll(
                handle,
                999,
                sum.as_mut_ptr(),
                ptr::null_mut(),
                ptr::null_mut(),
            )
        },
        VLCSA_ERR_BAD_TICKET
    );
    let mut ticket = 0u64;
    assert_eq!(
        unsafe { vlcsa_submit(handle, a.as_ptr(), b.as_ptr(), &mut ticket) },
        VLCSA_OK
    );
    // Spin to completion, then claim again: consumed tickets are gone.
    let mut cout: c_int = 0;
    loop {
        let code =
            unsafe { vlcsa_poll(handle, ticket, sum.as_mut_ptr(), &mut cout, ptr::null_mut()) };
        if code == VLCSA_OK {
            break;
        }
        assert_eq!(code, vlcsa_ffi::VLCSA_PENDING);
        std::thread::yield_now();
    }
    assert_eq!(sum[0], 15);
    assert_eq!(
        unsafe {
            vlcsa_poll(
                handle,
                ticket,
                sum.as_mut_ptr(),
                ptr::null_mut(),
                ptr::null_mut(),
            )
        },
        VLCSA_ERR_BAD_TICKET
    );
    assert_eq!(unsafe { vlcsa_free(handle) }, VLCSA_OK);
}

/// The lane-introspection entry points fail closed exactly like the
/// rest of the surface: null/dead handles, null out-params, and a
/// non-zero cap with a null buffer are all rejected with stable codes
/// and error text, never a crash.
#[test]
fn lane_introspection_rejects_null_and_dead_handles() {
    assert_eq!(unsafe { vlcsa_ffi::vlcsa_lane_count(ptr::null_mut()) }, 0);
    let mut count = 7usize;
    assert_eq!(
        unsafe { vlcsa_ffi::vlcsa_lanes(ptr::null_mut(), ptr::null_mut(), 0, &mut count) },
        vlcsa_ffi::VLCSA_ERR_NULL
    );
    assert_eq!(count, 7, "count untouched on failure");

    let handle = init_ok(64);
    assert_eq!(
        unsafe { vlcsa_ffi::vlcsa_lanes(handle, ptr::null_mut(), 0, ptr::null_mut()) },
        vlcsa_ffi::VLCSA_ERR_NULL
    );
    // cap > 0 demands a buffer.
    assert_eq!(
        unsafe { vlcsa_ffi::vlcsa_lanes(handle, ptr::null_mut(), 4, &mut count) },
        vlcsa_ffi::VLCSA_ERR_NULL
    );
    assert_eq!(unsafe { vlcsa_free(handle) }, VLCSA_OK);
    // Dead handle after free.
    assert_eq!(unsafe { vlcsa_ffi::vlcsa_lane_count(handle) }, 0);
    assert_eq!(
        unsafe { vlcsa_ffi::vlcsa_lanes(handle, ptr::null_mut(), 0, &mut count) },
        vlcsa_ffi::VLCSA_ERR_BAD_HANDLE
    );
}
