//! The benchmark-owned wake-up reference.
//!
//! On `add_unloaded` almost all of the server's CPU time per request goes
//! to waking threads after an idle gap: the 500 µs window wait, then the
//! hand-offs between connection, batcher and worker threads. What such a
//! wake-up costs drifts with the host by tens of percent from one minute
//! to the next. This reference does the same kind of work with nothing
//! but the standard library: each round, the caller wakes a helper thread
//! through a condvar, the helper sleeps out a fixed gap and wakes the
//! caller back. Its CPU time per round, measured in short slices between
//! the serve slices, rescales the serve CPU time the way the SSE2 loop in
//! `kernel.rs` rescales kernel rates.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::host;

/// The helper's sleep per round: the default batching window when the
/// benchmark was written. Fixed here, so that a change to the server's
/// window does not change the reference.
const GAP: Duration = Duration::from_micros(500);

/// CPU microseconds per round (caller and helper together) recorded once
/// on the recording host; rescaled serve CPU times are quoted at this
/// reference cost.
pub const NOMINAL_ROUND_US: f64 = 30.0;

#[derive(Clone, Copy, PartialEq)]
enum Turn {
    Caller,
    Helper,
    Stop,
}

/// A helper thread and the turn it shares with the caller.
pub struct WakeRef {
    turn: Arc<(Mutex<Turn>, Condvar)>,
    helper: Option<JoinHandle<()>>,
    tid: u32,
}

impl WakeRef {
    pub fn start() -> Self {
        let turn = Arc::new((Mutex::new(Turn::Caller), Condvar::new()));
        let shared = Arc::clone(&turn);
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            tid_tx
                .send(host::thread_id())
                .expect("the caller waits for the id");
            let (lock, cv) = &*shared;
            let mut turn = lock.lock().expect("turn lock");
            loop {
                match *turn {
                    Turn::Stop => return,
                    Turn::Caller => turn = cv.wait(turn).expect("turn lock"),
                    Turn::Helper => {
                        drop(turn);
                        std::thread::sleep(GAP);
                        turn = lock.lock().expect("turn lock");
                        if *turn == Turn::Helper {
                            *turn = Turn::Caller;
                        }
                        cv.notify_all();
                    }
                }
            }
        });
        let tid = tid_rx.recv().expect("the helper sends its id");
        Self {
            turn,
            helper: Some(helper),
            tid,
        }
    }

    /// The helper's thread id, to leave out of the server's counters.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Runs rounds for about `length`; returns the CPU microseconds of
    /// the calling thread and the helper per round.
    pub fn measure(&self, length: Duration) -> f64 {
        let cpu = || host::thread_cpu_ns() + host::task_run_ns(self.tid).unwrap_or(0);
        // A running thread's CPU counter lags until it next sleeps or the
        // next scheduler tick, so the first reading comes right after the
        // caller has slept through an untimed round.
        self.round();
        let before = cpu();
        let end = Instant::now() + length;
        let mut rounds = 0u64;
        while rounds == 0 || Instant::now() < end {
            self.round();
            rounds += 1;
        }
        cpu().saturating_sub(before) as f64 / 1e3 / rounds as f64
    }

    /// Hands the turn to the helper and waits until it hands it back.
    fn round(&self) {
        let (lock, cv) = &*self.turn;
        let mut turn = lock.lock().expect("turn lock");
        *turn = Turn::Helper;
        cv.notify_all();
        while *turn == Turn::Helper {
            turn = cv.wait(turn).expect("turn lock");
        }
    }
}

impl Drop for WakeRef {
    fn drop(&mut self) {
        let (lock, cv) = &*self.turn;
        // Every update leaves the turn valid, so a poisoned lock is still
        // usable, and drop must not panic.
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = Turn::Stop;
        cv.notify_all();
        if let Some(helper) = self.helper.take() {
            let _ = helper.join();
        }
    }
}
