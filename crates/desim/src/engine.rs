//! The simulation engine: a clock plus a pending-event set.
//!
//! [`Engine`] owns the simulated clock and enforces the causality invariant
//! (no event may be scheduled before the current instant). Model crates
//! drive it with a `while let Some((t, ev)) = engine.pop()` loop, or use
//! [`Engine::run`] with a handler closure and a stopping condition.

use crate::radix::RadixQueue;
use crate::scheduler::Scheduler;
use crate::time::{Duration, SimTime};

/// Why a [`Engine::run`] loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained completely.
    Drained,
    /// The time horizon was reached (the event at/after the horizon is left
    /// unpopped).
    Horizon,
    /// The event budget was exhausted.
    Budget,
    /// The handler requested a stop.
    Stopped,
}

/// A discrete-event simulation engine over an arbitrary event payload `E`
/// and scheduler `S`.
pub struct Engine<E, S = RadixQueue<E>> {
    queue: S,
    now: SimTime,
    processed: u64,
    /// Events dispatched, for the instrumentation registry (no-op unless a
    /// collector was installed before construction; see `routesync-obs`).
    obs_events: routesync_obs::Counter,
    /// High-water mark of the pending-event set.
    obs_pending_high: routesync_obs::Gauge,
    /// Simulated-time series sampler, ticked as the clock advances so
    /// samples are stamped at deterministic simulated instants (never
    /// wall time). One branch per pop when disabled or unconfigured.
    obs_series: routesync_obs::SeriesTicker,
    _marker: std::marker::PhantomData<E>,
}

impl<E> Engine<E, RadixQueue<E>> {
    /// An engine with the default radix-queue scheduler, at time zero.
    pub fn new() -> Self {
        Self::with_scheduler(RadixQueue::new())
    }
}

impl<E> Default for Engine<E, RadixQueue<E>> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, S: Scheduler<E>> Engine<E, S> {
    /// An engine over a caller-supplied scheduler implementation.
    pub fn with_scheduler(queue: S) -> Self {
        let obs = routesync_obs::global();
        Engine {
            queue,
            now: SimTime::ZERO,
            processed: 0,
            obs_events: obs.counter("desim.engine.events"),
            obs_pending_high: obs.gauge("desim.engine.pending.high_water"),
            obs_series: obs.series_ticker(),
            _marker: std::marker::PhantomData,
        }
    }

    /// The current simulated instant (the timestamp of the last popped
    /// event, or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` at absolute instant `at`.
    ///
    /// Panics if `at` is before the current instant — scheduling into the
    /// past is always a model bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled into the past: {} < {}",
            at,
            self.now
        );
        self.queue.push(at, event);
        self.obs_pending_high.record_max(self.queue.len() as u64);
    }

    /// Schedule `event` a span `after` from now.
    pub fn schedule_in(&mut self, after: Duration, event: E) {
        self.schedule(self.now + after, event);
    }

    /// Pop the earliest pending event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, ev) = self.queue.pop()?;
        debug_assert!(t >= self.now, "scheduler yielded an event out of order");
        self.now = t;
        self.processed += 1;
        self.obs_events.inc();
        self.obs_series.tick(t.as_nanos());
        Some((t, ev))
    }

    /// The timestamp of the next event, if any, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Run events through `handler` until the queue drains, `horizon` is
    /// reached, `max_events` have been processed, or the handler returns
    /// `false`.
    ///
    /// The event whose timestamp is `>= horizon` is *not* popped, so the
    /// clock never passes the horizon.
    pub fn run(
        &mut self,
        horizon: SimTime,
        max_events: u64,
        mut handler: impl FnMut(&mut Self, SimTime, E) -> bool,
    ) -> RunOutcome {
        let _span = routesync_obs::span!("desim.engine.run");
        let mut budget = max_events;
        loop {
            match self.queue.peek_time() {
                None => return RunOutcome::Drained,
                Some(t) if t >= horizon => return RunOutcome::Horizon,
                Some(_) => {}
            }
            if budget == 0 {
                return RunOutcome::Budget;
            }
            budget -= 1;
            let (t, ev) = self.pop().expect("peeked event vanished");
            if !handler(self, t, ev) {
                return RunOutcome::Stopped;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::CalendarQueue;

    #[derive(Debug, PartialEq, Eq, Clone)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule(SimTime::from_secs(3), Ev::Tick(3));
        e.schedule(SimTime::from_secs(1), Ev::Tick(1));
        e.schedule(SimTime::from_secs(2), Ev::Tick(2));
        let mut order = Vec::new();
        while let Some((t, Ev::Tick(k))) = e.pop() {
            assert_eq!(t, SimTime::from_secs(k as u64));
            order.push(k);
        }
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(e.processed(), 3);
        assert_eq!(e.now(), SimTime::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule(SimTime::from_secs(5), Ev::Tick(0));
        e.pop();
        e.schedule(SimTime::from_secs(1), Ev::Tick(1));
    }

    #[test]
    fn run_respects_horizon() {
        let mut e: Engine<Ev> = Engine::new();
        for k in 1..=10 {
            e.schedule(SimTime::from_secs(k), Ev::Tick(k as u32));
        }
        let mut seen = 0;
        let outcome = e.run(SimTime::from_secs(5), u64::MAX, |_, _, _| {
            seen += 1;
            true
        });
        assert_eq!(outcome, RunOutcome::Horizon);
        // Events at t=1..4 pop; the t=5 event is at the horizon and stays.
        assert_eq!(seen, 4);
        assert_eq!(e.pending(), 6);
        assert!(e.now() < SimTime::from_secs(5));
    }

    #[test]
    fn run_respects_budget_and_stop() {
        let mut e: Engine<Ev> = Engine::new();
        for k in 1..=10 {
            e.schedule(SimTime::from_secs(k), Ev::Tick(k as u32));
        }
        assert_eq!(e.run(SimTime::MAX, 3, |_, _, _| true), RunOutcome::Budget);
        assert_eq!(e.processed(), 3);
        assert_eq!(
            e.run(SimTime::MAX, u64::MAX, |_, _, Ev::Tick(k)| k < 6),
            RunOutcome::Stopped
        );
        assert_eq!(e.now(), SimTime::from_secs(6));
    }

    #[test]
    fn run_drains_and_handler_can_schedule() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule(SimTime::from_secs(1), Ev::Tick(1));
        let outcome = e.run(SimTime::MAX, u64::MAX, |e, t, Ev::Tick(k)| {
            if k < 5 {
                e.schedule(t + Duration::from_secs(1), Ev::Tick(k + 1));
            }
            true
        });
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(e.now(), SimTime::from_secs(5));
        assert_eq!(e.processed(), 5);
    }

    #[test]
    fn engine_is_scheduler_agnostic() {
        let mut radix: Engine<u32> = Engine::new();
        let mut cal: Engine<u32, CalendarQueue<u32>> = Engine::with_scheduler(CalendarQueue::new());
        for k in 0..100u32 {
            let t = SimTime(((k as u64) * 7919) % 1000);
            radix.schedule(t, k);
            cal.schedule(t, k);
        }
        loop {
            match (radix.pop(), cal.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule(SimTime::from_secs(10), Ev::Tick(0));
        e.pop();
        e.schedule_in(Duration::from_secs(5), Ev::Tick(1));
        assert_eq!(e.peek_time(), Some(SimTime::from_secs(15)));
    }
}
