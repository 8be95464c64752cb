//! The bounded MPMC queue with a batch take, on `Mutex` + `Condvar` — the
//! only concurrency primitive the service layer needs beyond
//! `std::thread`.
//!
//! Producers block in [`Queue::push`] while the queue is full (that is the
//! service's backpressure: a full lane queue blocks the in-process
//! submitters feeding that lane, and only them; wire connections run
//! their own groups and never queue).
//! Consumers take items in batches: [`Queue::take`] blocks until at least
//! one item is queued, then moves everything queued, up to a bound, in
//! one critical section. A consumer that wants more can call it again
//! with a deadline — that is a linger window. [`Queue::close`] wakes
//! everyone: pushes start failing immediately, takes keep returning the
//! already-queued items and then report closure, so a shutdown drains
//! in-flight work instead of dropping it.
//!
//! Wake-ups are counted, not broadcast: a push signals a consumer only
//! when it makes the queue non-empty while one waits, and a take signals
//! a producer only when one is blocked. Under load the consumers are busy
//! and find work waiting when they come back, so a push costs no system
//! call at all.
//!
//! # Example
//!
//! ```
//! use vlcsa_serve::queue::Queue;
//!
//! let queue: Queue<u32> = Queue::new(8);
//! for i in 1..=3 {
//!     queue.push(i).unwrap();
//! }
//! queue.close();
//! assert_eq!(queue.push(4), Err(4));        // closed to producers…
//! let mut batch = Vec::new();
//! assert!(queue.take(&mut batch, 2, None)); // …but drains to consumers,
//! assert_eq!(batch, [1, 2]);                // at most `max` at a time
//! assert!(queue.take(&mut batch, 3, None));
//! assert_eq!(batch, [1, 2, 3]);
//! assert!(!queue.take(&mut batch, 4, None)); // drained and closed
//! ```

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers blocked in [`Queue::take`].
    takers: usize,
    /// Producers blocked in [`Queue::push`] on a full queue.
    pushers: usize,
}

/// The bounded MPMC queue — see the module docs for the blocking, wake-up
/// and close semantics.
pub struct Queue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Queue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a queue needs capacity for at least 1 item");
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                takers: 0,
                pushers: 0,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues `item`, blocking while the queue is full, and signals a
    /// consumer if it made the queue non-empty while one waits.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue is (or becomes, while blocked)
    /// closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue lock");
        while !state.closed && state.items.len() == self.capacity {
            state.pushers += 1;
            state = self.not_full.wait(state).expect("queue lock");
            state.pushers -= 1;
        }
        if state.closed {
            return Err(item);
        }
        let wake = state.items.is_empty() && state.takers > 0;
        state.items.push_back(item);
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Moves queued items, oldest first, into `out` until it holds `max`
    /// items or the queue is empty. While nothing is queued it blocks:
    /// without a `deadline` until an item arrives, with one at most until
    /// then. Items beyond `max` stay queued for the next take, and a
    /// waiting consumer is woken for them.
    ///
    /// Returns `true` when it moved at least one item; `false` when the
    /// deadline passed first, or when the queue is closed **and** drained.
    ///
    /// # Panics
    ///
    /// Panics if `out` already holds `max` or more items.
    pub fn take(&self, out: &mut Vec<T>, max: usize, deadline: Option<Instant>) -> bool {
        assert!(out.len() < max, "a take needs room for at least 1 item");
        let mut state = self.state.lock().expect("queue lock");
        while state.items.is_empty() {
            if state.closed {
                return false;
            }
            state.takers += 1;
            state = match deadline {
                None => self.not_empty.wait(state).expect("queue lock"),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        state.takers -= 1;
                        return false;
                    }
                    self.not_empty
                        .wait_timeout(state, left)
                        .expect("queue lock")
                        .0
                }
            };
            state.takers -= 1;
        }
        let n = (max - out.len()).min(state.items.len());
        out.extend(state.items.drain(..n));
        let wake_taker = !state.items.is_empty() && state.takers > 0;
        let wake_pushers = state.pushers > 0;
        drop(state);
        if wake_taker {
            self.not_empty.notify_one();
        }
        if wake_pushers {
            self.not_full.notify_all();
        }
        true
    }

    /// Closes the queue: pending and future pushes fail, takes drain what
    /// is already queued and then report closure. Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether nothing is currently queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_within_one_producer() {
        let queue = Queue::new(16);
        for i in 0..10 {
            queue.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(queue.take(&mut out, 16, None));
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert!(queue.is_empty());
    }

    #[test]
    fn full_queue_blocks_until_popped() {
        let queue = Arc::new(Queue::new(2));
        queue.push(1).unwrap();
        queue.push(2).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(3))
        };
        // The producer is blocked on capacity; a take frees a slot.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.len(), 2);
        let mut out = Vec::new();
        assert!(queue.take(&mut out, 1, None));
        producer.join().unwrap().unwrap();
        assert!(queue.take(&mut out, 3, None));
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn a_take_stops_at_max_and_leaves_the_rest_for_the_next_worker() {
        let queue = Arc::new(Queue::new(8));
        for i in 0..5 {
            queue.push(i).unwrap();
        }
        let mut first = Vec::new();
        assert!(queue.take(&mut first, 3, None));
        assert_eq!(first, [0, 1, 2]);
        assert_eq!(queue.len(), 2);
        // A second consumer gets exactly the remainder, without blocking.
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut rest = Vec::new();
                assert!(queue.take(&mut rest, 8, None));
                rest
            })
        };
        assert_eq!(worker.join().unwrap(), [3, 4]);
        assert!(queue.is_empty());
    }

    #[test]
    fn deadline_pop_times_out_then_delivers() {
        let queue: Arc<Queue<u8>> = Arc::new(Queue::new(4));
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_millis(10);
        assert!(!queue.take(&mut out, 4, Some(deadline)));
        assert!(out.is_empty());
        let pusher = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                queue.push(7).unwrap();
            })
        };
        let far = Instant::now() + Duration::from_secs(5);
        assert!(queue.take(&mut out, 4, Some(far)));
        assert_eq!(out, [7]);
        pusher.join().unwrap();
    }

    #[test]
    fn close_wakes_blocked_consumers_and_drains() {
        let queue: Arc<Queue<u8>> = Arc::new(Queue::new(4));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let took = queue.take(&mut out, 4, None);
                (took, out)
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        queue.push(5).unwrap();
        queue.push(6).unwrap();
        queue.close();
        // The blocked consumer gets items, not the closure.
        let (took, mut out) = consumer.join().unwrap();
        assert!(took);
        queue.take(&mut out, 4, None);
        assert_eq!(out, [5, 6]);
        // Drained and closed: both take forms report it at once.
        assert!(!queue.take(&mut out, 4, None));
        let far = Instant::now() + Duration::from_secs(30);
        assert!(!queue.take(&mut out, 4, Some(far)));
        assert_eq!(queue.push(9), Err(9));
    }

    #[test]
    fn close_wakes_blocked_producers() {
        let queue = Arc::new(Queue::new(1));
        queue.push(1).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(2))
        };
        std::thread::sleep(Duration::from_millis(10));
        queue.close();
        assert_eq!(producer.join().unwrap(), Err(2));
    }

    #[test]
    fn close_ends_a_deadline_take_at_once() {
        let queue: Arc<Queue<u8>> = Arc::new(Queue::new(4));
        let lingerer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let far = Instant::now() + Duration::from_secs(30);
                queue.take(&mut out, 4, Some(far))
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        let start = Instant::now();
        queue.close();
        assert!(!lingerer.join().unwrap());
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let queue: Arc<Queue<u64>> = Arc::new(Queue::new(16));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        queue.push(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut batch = Vec::new();
                    while queue.take(&mut batch, 5, None) {
                        got.append(&mut batch);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        queue.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expect: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect, "every pushed item taken exactly once");
    }
}
