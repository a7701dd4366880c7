//! Generation tokens for lazy event cancellation.
//!
//! Discrete-event queues have no efficient "remove arbitrary element"
//! operation, so cancellation is done lazily: each cancellable activity
//! (e.g. a router's pending routing timer) owns a *generation counter*; the
//! event payload carries the generation it was scheduled under, and a popped
//! event whose generation is stale is simply ignored.
//!
//! The Periodic Messages model needs this for **triggered updates**: a
//! triggered update makes a router send immediately and re-arm its timer,
//! abandoning the previously scheduled expiry (paper Section 3, step 4).

use serde::{Deserialize, Serialize};

/// A generation counter for one cancellable activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TokenGen(u64);

impl TokenGen {
    /// The initial generation.
    pub fn new() -> Self {
        TokenGen(0)
    }

    /// The current generation, to stamp into a scheduled event.
    pub fn current(self) -> u64 {
        self.0
    }

    /// Invalidate all events stamped with the current generation and return
    /// the new generation.
    pub fn bump(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }

    /// True if an event stamped `gen` is still live.
    pub fn is_live(self, gen: u64) -> bool {
        self.0 == gen
    }
}

/// A vector of generation counters indexed by a dense id (e.g. node id).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TokenSlab {
    gens: Vec<TokenGen>,
}

impl TokenSlab {
    /// A slab with `n` counters, all at generation zero.
    pub fn new(n: usize) -> Self {
        TokenSlab {
            gens: vec![TokenGen::new(); n],
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.gens.len()
    }

    /// True if the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.gens.is_empty()
    }

    /// The live generation for id `i`.
    pub fn current(&self, i: usize) -> u64 {
        self.gens[i].current()
    }

    /// Invalidate id `i`'s outstanding events; returns the new generation.
    pub fn bump(&mut self, i: usize) -> u64 {
        self.gens[i].bump()
    }

    /// True if an event for id `i` stamped `gen` is still live.
    pub fn is_live(&self, i: usize, gen: u64) -> bool {
        self.gens[i].is_live(gen)
    }

    /// Add one more counter, returning its id.
    pub fn grow(&mut self) -> usize {
        self.gens.push(TokenGen::new());
        self.gens.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_invalidates_only_older_generations() {
        let mut t = TokenGen::new();
        let g0 = t.current();
        assert!(t.is_live(g0));
        let g1 = t.bump();
        assert!(!t.is_live(g0));
        assert!(t.is_live(g1));
    }

    #[test]
    fn slab_counters_are_independent() {
        let mut slab = TokenSlab::new(3);
        let a = slab.current(0);
        let b = slab.current(1);
        slab.bump(0);
        assert!(!slab.is_live(0, a));
        assert!(slab.is_live(1, b));
        assert_eq!(slab.len(), 3);
    }

    #[test]
    fn grow_appends_fresh_counter() {
        let mut slab = TokenSlab::new(1);
        let id = slab.grow();
        assert_eq!(id, 1);
        assert!(slab.is_live(1, 0));
        assert!(!slab.is_empty());
    }

    #[test]
    fn cancellation_pattern_with_queue() {
        // The canonical use: schedule, cancel, reschedule; only the live
        // event fires.
        use crate::radix::RadixQueue;
        use crate::scheduler::Scheduler;
        use crate::time::SimTime;

        let mut q = RadixQueue::new();
        let mut gen = TokenGen::new();
        q.push(SimTime(10), ("expiry", gen.current()));
        let g = gen.bump(); // triggered update cancels the pending expiry
        q.push(SimTime(5), ("expiry", g));

        let mut fired = Vec::new();
        while let Some((t, (name, g))) = q.pop() {
            if gen.is_live(g) {
                fired.push((t.0, name));
            }
        }
        assert_eq!(fired, vec![(5, "expiry")]);
    }
}
