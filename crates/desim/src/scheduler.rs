//! The pending-event-set abstraction.
//!
//! A [`Scheduler`] stores `(SimTime, E)` pairs and yields them in
//! non-decreasing time order. Events scheduled for the same instant are
//! yielded in the order they were scheduled (FIFO), which every
//! implementation must guarantee — simulation results must not depend on the
//! scheduler chosen.

use crate::time::SimTime;

/// A monotone priority queue of timestamped events.
///
/// Implementations must be *stable*: events with equal timestamps pop in
/// insertion order. This is what makes runs reproducible across scheduler
/// implementations.
pub trait Scheduler<E> {
    /// Insert an event at `time`.
    ///
    /// `time` must not be earlier than the last popped time (any time is
    /// allowed before the first pop). Simulations never schedule into the
    /// past, and the default [`crate::RadixQueue`] relies on it: it panics
    /// on such a push rather than misorder its events.
    fn push(&mut self, time: SimTime, event: E);

    /// Remove and return the earliest event, or `None` if empty.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// The timestamp of the earliest event without removing it.
    fn peek_time(&self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending events.
    fn clear(&mut self);
}

#[cfg(test)]
pub(crate) mod conformance {
    //! A conformance suite run against every `Scheduler` implementation.
    use super::*;

    /// Push events in a scrambled order and check they pop sorted by time,
    /// FIFO within equal timestamps.
    pub fn check_ordering<S: Scheduler<u32>>(mut s: S) {
        let times = [5u64, 3, 9, 3, 5, 1, 9, 9, 0, 3];
        for (i, &t) in times.iter().enumerate() {
            s.push(SimTime(t), i as u32);
        }
        assert_eq!(s.len(), times.len());
        let mut popped = Vec::new();
        while let Some((t, id)) = s.pop() {
            popped.push((t.0, id));
        }
        // Sorted by time; FIFO within ties (insertion index increases).
        assert_eq!(
            popped,
            vec![
                (0, 8),
                (1, 5),
                (3, 1),
                (3, 3),
                (3, 9),
                (5, 0),
                (5, 4),
                (9, 2),
                (9, 6),
                (9, 7)
            ]
        );
        assert!(s.is_empty());
    }

    /// Interleave pushes and pops the way a simulation does.
    pub fn check_interleaved<S: Scheduler<u64>>(mut s: S) {
        // A deterministic pseudo-random walk (no external RNG dependency in
        // this crate's tests).
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut now = 0u64;
        let mut popped = 0usize;
        s.push(SimTime(0), 0);
        while let Some((t, _)) = s.pop() {
            assert!(t.0 >= now, "time went backwards");
            now = t.0;
            popped += 1;
            if popped >= 10_000 {
                break;
            }
            // Schedule 0..=2 future events.
            for _ in 0..(step() % 3) {
                s.push(SimTime(now + step() % 1_000), popped as u64);
            }
        }
        // Either we hit the cap or drained the queue; both are fine — the
        // assertion is the monotone `now` above.
    }

    /// `peek_time` must match the next pop and `clear` must empty the queue.
    pub fn check_peek_clear<S: Scheduler<u8>>(mut s: S) {
        assert_eq!(s.peek_time(), None);
        s.push(SimTime(7), 1);
        s.push(SimTime(2), 2);
        assert_eq!(s.peek_time(), Some(SimTime(2)));
        assert_eq!(s.pop(), Some((SimTime(2), 2)));
        assert_eq!(s.peek_time(), Some(SimTime(7)));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
    }
}
