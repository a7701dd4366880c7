//! The default scheduler: a monotone radix queue (Ahuja, Mehlhorn, Orlin
//! and Tarjan, JACM 1990).
//!
//! A simulation never schedules before the instant it last popped, so the
//! pending-event set is a *monotone* priority queue: every key is at least
//! the last key removed. A radix queue exploits that by filing each event
//! under the highest bit in which its time differs from `last`, the last
//! popped time. Events in a lower bucket are always earlier than events in
//! a higher one, so the lowest occupied bucket holds the minimum.
//!
//! When the events at `last` run out, the lowest occupied bucket `b` is
//! emptied: `last` becomes its smallest time, and each of its events is
//! filed again under the new `last`. They all land in buckets below `b`,
//! which are empty at that moment, so an event only ever moves down and
//! is moved at most 64 times over its life.
//!
//! Ties need no sequence number. Pushes append, and a redistribution walks
//! a bucket in order into empty buckets, so every bucket stays in
//! scheduling order; events at the same instant always share a bucket, so
//! they pop first in, first out.

use std::collections::VecDeque;

use crate::scheduler::Scheduler;
use crate::time::SimTime;

/// A drained bucket keeps its allocation up to this many entries and
/// releases a larger one. The synchronized start files ~100k timers into
/// a handful of buckets once; holding on to those allocations for the
/// rest of the run would cost memory the steady state never uses again.
const KEEP_CAPACITY: usize = 4096;

/// Monotone radix-queue [`Scheduler`]: `O(1)` push and peek, and pops
/// whose cost is the entries moved down (a few per pop on the packet
/// simulator's event stream, `desim.engine.moves`).
///
/// Pushes must not be earlier than the last popped time; a push that is
/// panics, in release builds too, rather than misorder the queue.
pub struct RadixQueue<E> {
    /// The last popped time (zero before the first pop).
    last: u64,
    /// Events at exactly `last`, in scheduling order.
    due: VecDeque<E>,
    /// `buckets[k]` holds the events whose time differs from `last`
    /// highest at bit `k`, in scheduling order.
    buckets: [Vec<(SimTime, E)>; 64],
    /// Smallest time in each bucket (`u64::MAX` when empty).
    mins: [u64; 64],
    /// Bit `k` is set when `buckets[k]` is non-empty.
    occupied: u64,
    /// Total pending events.
    len: usize,
    /// Entries re-filed by redistributions, for the instrumentation
    /// registry (no-op unless a collector was installed before
    /// construction).
    obs_moves: routesync_obs::Counter,
}

impl<E> RadixQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        RadixQueue {
            last: 0,
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; 64],
            occupied: 0,
            len: 0,
            obs_moves: routesync_obs::global().counter("desim.engine.moves"),
        }
    }

    /// File `event` at `time` (already checked `>= last`) under `last`.
    #[inline]
    fn place(&mut self, time: SimTime, event: E) {
        let diff = time.0 ^ self.last;
        if diff == 0 {
            self.due.push_back(event);
        } else {
            let k = 63 - diff.leading_zeros() as usize;
            self.buckets[k].push((time, event));
            self.mins[k] = self.mins[k].min(time.0);
            self.occupied |= 1 << k;
        }
    }

    /// Advance `last` to the earliest pending time and re-file the lowest
    /// occupied bucket under it. Called only with `due` empty and some
    /// bucket occupied.
    fn redistribute(&mut self) {
        let k = self.occupied.trailing_zeros() as usize;
        self.last = self.mins[k];
        self.mins[k] = u64::MAX;
        self.occupied &= !(1 << k);
        if self.due.capacity() > KEEP_CAPACITY {
            self.due = VecDeque::new();
        }
        let mut bucket = std::mem::take(&mut self.buckets[k]);
        self.obs_moves.add(bucket.len() as u64);
        for (time, event) in bucket.drain(..) {
            self.place(time, event);
        }
        if bucket.capacity() <= KEEP_CAPACITY {
            self.buckets[k] = bucket;
        }
    }
}

impl<E> Default for RadixQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> for RadixQueue<E> {
    fn push(&mut self, time: SimTime, event: E) {
        assert!(
            time.0 >= self.last,
            "pushed below the last popped time: {} < {}",
            time,
            SimTime(self.last)
        );
        self.len += 1;
        self.place(time, event);
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.due.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            self.redistribute();
        }
        let event = self.due.pop_front().expect("redistribution fills `due`");
        self.len -= 1;
        Some((SimTime(self.last), event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        if !self.due.is_empty() {
            Some(SimTime(self.last))
        } else if self.occupied != 0 {
            Some(SimTime(self.mins[self.occupied.trailing_zeros() as usize]))
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.due.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.mins = [u64::MAX; 64];
        self.occupied = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::conformance;

    #[test]
    fn ordering() {
        conformance::check_ordering(RadixQueue::new());
    }

    #[test]
    fn interleaved() {
        conformance::check_interleaved(RadixQueue::new());
    }

    #[test]
    fn peek_clear() {
        conformance::check_peek_clear(RadixQueue::new());
    }

    #[test]
    fn drained_large_buckets_release_their_allocation() {
        let mut q = RadixQueue::new();
        let n = 4 * KEEP_CAPACITY as u64;
        // A spread of times, then a pile of ties, then one later event
        // whose redistribution finds `due` drained.
        for t in 0..n {
            q.push(SimTime(1 << 40 | t), t);
        }
        for t in 0..n {
            q.push(SimTime(1 << 41), t);
        }
        q.push(SimTime(1 << 42), n);
        while q.pop().is_some() {}
        assert!(q.buckets.iter().all(|b| b.capacity() <= KEEP_CAPACITY));
        assert!(q.due.capacity() <= KEEP_CAPACITY);
    }
}
