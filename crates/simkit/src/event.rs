//! Deterministic event queue and simulation driver.
//!
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO tie-break via a monotonically increasing sequence
//! number), which makes every run of a seeded simulation bit-for-bit
//! reproducible regardless of `HashMap` iteration order or other
//! environmental noise elsewhere in the program.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// An entry in the queue: ordered by time, then by insertion sequence.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of events with stable FIFO tie-breaking.
///
/// This is the primitive used by [`Simulation`]; it is exposed separately
/// for callers that want to interleave several queues or drive the loop
/// themselves.
///
/// # Example
///
/// ```
/// use garnet_simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(10), 'b');
/// q.schedule(SimTime::from_micros(10), 'c'); // same instant: FIFO
/// q.schedule(SimTime::from_micros(5), 'a');
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), 'a')));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), 'b')));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), 'c')));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// The instant of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

/// A simulation driver: an [`EventQueue`] plus the current clock.
///
/// The driver enforces that time never runs backwards: popping an event
/// advances the clock to that event's timestamp, and scheduling an event
/// in the past is rejected (clamped to "now" — the event still fires, at
/// the current instant, preserving causality).
///
/// # Example
///
/// ```
/// use garnet_simkit::{Simulation, SimDuration};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut sim = Simulation::new();
/// sim.schedule_in(SimDuration::from_millis(1), Ev::Ping);
/// while let Some((now, ev)) = sim.next_event() {
///     if ev == Ev::Ping && now.as_millis() < 5 {
///         sim.schedule_in(SimDuration::from_millis(1), Ev::Pong);
///     }
/// }
/// assert_eq!(sim.now().as_millis(), 2);
/// ```
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates a simulation whose clock starts at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Simulation { queue: EventQueue::new(), now: SimTime::ZERO, processed: 0 }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute instant. Instants earlier than
    /// the current clock are clamped to "now" so causality is preserved.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.queue.schedule(at, event);
    }

    /// Schedules an event `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule(self.now.saturating_add(delay), event);
    }

    /// The timestamp of the next pending event without popping it —
    /// lets external drivers stop at a deadline while keeping later
    /// events queued.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (at, ev) = self.queue.pop()?;
        debug_assert!(at >= self.now, "event queue yielded an event from the past");
        self.now = at;
        self.processed += 1;
        Some((at, ev))
    }
}

impl<E> std::fmt::Debug for Simulation<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_micros(42), "x");
        let (t, _) = sim.next_event().unwrap();
        assert_eq!(t, SimTime::from_micros(42));
        assert_eq!(sim.now(), SimTime::from_micros(42));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_micros(100), "late");
        sim.next_event();
        sim.schedule_at(SimTime::from_micros(10), "early-but-clamped");
        let (t, ev) = sim.next_event().unwrap();
        assert_eq!(ev, "early-but-clamped");
        assert_eq!(t, SimTime::from_micros(100));
    }

    #[test]
    fn handler_can_reschedule() {
        let mut sim = Simulation::new();
        sim.schedule_in(SimDuration::from_micros(1), 0u32);
        let mut count = 0;
        while let Some((_, n)) = sim.next_event() {
            count += 1;
            if n < 9 {
                sim.schedule_in(SimDuration::from_micros(1), n + 1);
            }
        }
        assert_eq!(count, 10);
        assert_eq!(sim.now(), SimTime::from_micros(10));
    }

    #[test]
    fn determinism_across_runs() {
        let trace = |_: u8| {
            let mut sim = Simulation::new();
            for i in 0..50u64 {
                sim.schedule_at(SimTime::from_micros(i % 7), i);
            }
            let mut out = Vec::new();
            while let Some((t, ev)) = sim.next_event() {
                out.push((t.as_micros(), ev));
            }
            out
        };
        assert_eq!(trace(0), trace(1));
    }
}
