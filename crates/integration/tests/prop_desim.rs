//! Property tests for the discrete-event engine.
//!
//! Every scheduler is checked against a reference model: a `Vec` kept
//! stably sorted by time, so equal times stay in scheduling order. The
//! reference defines the one event order every scheduler must produce.

use proptest::prelude::*;
use routesync_desim::{CalendarQueue, Duration, RadixQueue, Scheduler, SimTime};

/// The reference pending-event set: sorted by time, FIFO within ties.
#[derive(Default)]
struct Reference(Vec<(SimTime, usize)>);

impl Reference {
    fn push(&mut self, time: SimTime, id: usize) {
        let at = self.0.partition_point(|&(t, _)| t <= time);
        self.0.insert(at, (time, id));
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.0.first().map(|&(t, _)| t)
    }
}

/// One step of a scheduler's life.
#[derive(Debug, Clone)]
enum Op {
    /// Push at the last popped time plus this offset (saturating), so
    /// every push keeps the monotone contract.
    Push(u64),
    Pop,
    Clear,
}

/// Offsets from the last popped time: exactly zero (a handler scheduling
/// at `now`, the coupling rule's case), a few nanoseconds (heavy ties),
/// and any magnitude up to every one of the 64 bit positions.
fn offset(rng: &mut TestRng) -> u64 {
    let x = rng.next_u64();
    match x % 3 {
        0 => 0,
        1 => (x >> 2) % 4,
        _ => rng.next_u64() >> ((x >> 2) % 64),
    }
}

/// Up to `max_len` operations: six pushes to four pops to one clear.
fn ops(max_len: u64) -> impl Strategy<Value = Vec<Op>> {
    strategy::fn_strategy(move |rng: &mut TestRng| {
        let len = rng.next_u64() % max_len;
        (0..len)
            .map(|_| match rng.next_u64() % 11 {
                0..=5 => Op::Push(offset(rng)),
                6..=9 => Op::Pop,
                _ => Op::Clear,
            })
            .collect()
    })
}

/// Run `ops` through `s` and the reference side by side: every pop must
/// agree, and after every operation so must `peek_time` and `len`. Ends by
/// draining both.
fn check_against_reference<S: Scheduler<usize>>(mut s: S, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut reference = Reference::default();
    let mut last = SimTime::ZERO;
    for (id, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(offset) => {
                let t = SimTime(last.0.saturating_add(offset));
                s.push(t, id);
                reference.push(t, id);
            }
            Op::Pop => {
                let got = s.pop();
                prop_assert_eq!(got, reference.pop());
                if let Some((t, _)) = got {
                    last = t;
                }
            }
            Op::Clear => {
                s.clear();
                reference.0.clear();
            }
        }
        prop_assert_eq!(s.peek_time(), reference.peek_time());
        prop_assert_eq!(s.len(), reference.0.len());
    }
    loop {
        let got = s.pop();
        prop_assert_eq!(got, reference.pop());
        prop_assert_eq!(s.peek_time(), reference.peek_time());
        if got.is_none() {
            return Ok(());
        }
    }
}

/// Pushes only (heavy ties), then a full drain.
fn pushes(times: &[u64]) -> Vec<Op> {
    times.iter().map(|&t| Op::Push(t)).collect()
}

proptest! {
    /// Arbitrary push sequences with heavy timestamp ties pop in the
    /// reference order.
    #[test]
    fn radix_queue_matches_reference_on_pushes(
        times in proptest::collection::vec(0u64..16, 1..300)
    ) {
        check_against_reference(RadixQueue::new(), &pushes(&times))?;
    }

    #[test]
    fn calendar_queue_matches_reference_on_pushes(
        times in proptest::collection::vec(0u64..16, 1..300)
    ) {
        check_against_reference(CalendarQueue::new(), &pushes(&times))?;
    }

    /// Interleaved push/pop/clear, with pushes at exactly the popped
    /// instant, a few nanoseconds later, or at any bit position up to
    /// `u64::MAX`.
    #[test]
    fn radix_queue_matches_reference_interleaved(ops in ops(400)) {
        check_against_reference(RadixQueue::new(), &ops)?;
    }

    #[test]
    fn calendar_queue_matches_reference_interleaved(ops in ops(400)) {
        check_against_reference(CalendarQueue::new(), &ops)?;
    }

    /// Duration arithmetic round-trips (no drift through add/sub chains).
    #[test]
    fn duration_arithmetic_roundtrips(
        a in 0u64..u64::MAX / 4,
        b in 0u64..u64::MAX / 4,
    ) {
        let t = SimTime(a);
        let d = Duration(b);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!(((t + d) - t), d);
    }

    /// Time-offset modular arithmetic stays below the modulus and is
    /// consistent with integer arithmetic.
    #[test]
    fn time_offsets_are_modular(t in 0u64..u64::MAX / 2, m in 1u64..u64::MAX / 2) {
        let offset = SimTime(t) % Duration(m);
        prop_assert!(offset.as_nanos() < m);
        prop_assert_eq!(offset.as_nanos(), t % m);
    }
}

/// The monotone contract fails closed: a push below the last popped time
/// panics instead of being misordered.
#[test]
#[should_panic(expected = "pushed below the last popped time")]
fn radix_queue_rejects_a_push_below_the_last_pop() {
    let mut q = RadixQueue::new();
    q.push(SimTime(10), 0usize);
    q.push(SimTime(20), 1);
    q.pop();
    q.push(SimTime(9), 2);
}
