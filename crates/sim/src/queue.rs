//! [`EventQueue`]: the deterministic priority queue at the heart of the
//! discrete-event simulation.
//!
//! Events are ordered by `(fire time, insertion sequence)`. The sequence
//! number breaks ties between events scheduled for the same instant in
//! *insertion order*, which is what makes simulations reproducible: two runs
//! that schedule the same events in the same order pop them in the same
//! order, regardless of the payload type's own ordering (the payload does
//! not even need to implement `Ord`).
//!
//! There is no cancellation: every scheduled event is popped eventually
//! (or abandoned with its queue), so the heap top is always the earliest
//! event and [`EventQueue::peek_time`] is O(1). A component whose timer
//! may go stale re-checks, when the event fires, whether it is still due
//! (the transport's lazy retransmission timer works this way).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic future-event list.
///
/// `pop` advances the queue's notion of *now* to the popped event's time;
/// scheduling an event in the past is clamped to *now* rather than
/// panicking (a component reacting to an event may legitimately want
/// "immediately", which is the current instant).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    // Profiling counters: how much work this queue has seen. Observed
    // only — they never influence ordering, so instrumented and plain
    // runs are identical.
    popped: u64,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            peak_len: 0,
        }
    }

    /// The current simulation instant: the time of the most recently popped
    /// event (zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at `at` (clamped to `now` if in the
    /// past).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Pop the earliest event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.popped += 1;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Fire time of the earliest event without popping it. O(1): the heap
    /// top is the minimum `(time, seq)`.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events popped over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// High-water mark of pending events (peak queue depth).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn clock_advances_and_past_events_clamp() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "later");
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
        // Scheduling in the past clamps to now.
        q.schedule(SimTime::from_secs(1), "past");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(e, "past");
    }

    #[test]
    fn profiling_counters_track_pops_and_peak_depth() {
        let mut q = EventQueue::new();
        for i in 0..4u64 {
            q.schedule(SimTime::from_secs(i), i);
        }
        assert_eq!(q.peak_len(), 4);
        q.schedule(SimTime::from_secs(9), 9);
        assert_eq!(q.peak_len(), 5);
        while q.pop().is_some() {}
        assert_eq!(q.popped(), 5);
        assert_eq!(q.peak_len(), 5, "peak survives draining");
    }

    #[test]
    fn peek_time_always_matches_the_next_pop() {
        for seed in 0..32 {
            let mut rng = crate::Prng::new(seed);
            let mut q = EventQueue::new();
            for i in 0..2_000u64 {
                if rng.next_below(3) > 0 {
                    // Millisecond offsets in a narrow window force ties;
                    // a quarter land behind `now` and are clamped.
                    let now = q.now().as_nanos();
                    let offset = rng.next_below(5) * 1_000_000;
                    let at = if rng.next_below(4) == 0 {
                        now.saturating_sub(offset)
                    } else {
                        now + offset
                    };
                    q.schedule(SimTime::from_nanos(at), i);
                } else {
                    let peeked = q.peek_time();
                    assert_eq!(peeked, q.pop().map(|(t, _)| t), "seed {seed}");
                }
            }
            while let Some(peeked) = q.peek_time() {
                assert_eq!(Some(peeked), q.pop().map(|(t, _)| t), "seed {seed}");
            }
            assert!(q.is_empty() && q.pop().is_none());
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1u32);
        let (t1, _) = q.pop().unwrap();
        q.schedule(t1 + crate::SimDuration::from_secs(1), 2u32);
        q.schedule(t1 + crate::SimDuration::from_millis(500), 3u32);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }
}
