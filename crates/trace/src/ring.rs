//! Bounded event storage.
//!
//! Traces of long simulated runs can produce millions of events; the
//! recorder must not turn a bounded simulation into unbounded memory.
//! [`RingBuffer`] keeps the most recent `capacity` events and counts the
//! ones it evicted, so the exporter can report truncation honestly.
//! `capacity` is a bound, not an allocation: the ring grows with the
//! events it holds, so a short run that records a few thousand events
//! pays for those, not for the whole bound.

use crate::TraceEvent;

/// Smallest growth step, so a ring that records anything at all does
/// not reallocate for each of its first few events.
const MIN_GROWTH: usize = 64;

/// A circular buffer of [`TraceEvent`]s that grows on demand up to its
/// capacity and overwrites its oldest entries once full.
#[derive(Debug)]
pub struct RingBuffer {
    /// The stored events. While the ring is filling they are in push
    /// order; once `events.len() == capacity` the oldest sits at
    /// `head`.
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the next event to overwrite once the ring is full.
    head: usize,
    dropped: u64,
}

impl RingBuffer {
    /// A ring holding at most `capacity` events. `capacity` must be
    /// non-zero. Nothing is allocated until the first push.
    pub fn new(capacity: usize) -> RingBuffer {
        assert!(capacity > 0, "ring capacity must be non-zero");
        RingBuffer {
            events: Vec::new(),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest if full. Returns whether
    /// an event was evicted, so callers can maintain a live drop
    /// counter without re-reading [`RingBuffer::dropped`].
    pub fn push(&mut self, ev: TraceEvent) -> bool {
        let len = self.events.len();
        if len < self.capacity {
            if len == self.events.capacity() {
                // Double, but never reserve past the bound.
                let grow = len.max(MIN_GROWTH).min(self.capacity - len);
                self.events.reserve_exact(grow);
            }
            self.events.push(ev);
            return false;
        }
        self.events[self.head] = ev;
        self.head = (self.head + 1) % self.capacity;
        self.dropped += 1;
        true
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Maximum number of events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many events were evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The stored events, oldest first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        // `head` is 0 until the ring wraps.
        let (newer, older) = self.events.split_at(self.head);
        older.iter().chain(newer).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;
    use std::borrow::Cow;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed("e"),
            cat: "engine",
            phase: Phase::Instant,
            ts_ns: ts,
            dur_ns: 0,
            tid: 0,
            id: 0,
            args: vec![],
        }
    }

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let mut r = RingBuffer::new(4);
        for ts in 0..4 {
            r.push(ev(ts));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        let ts: Vec<u64> = r.to_vec().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![0, 1, 2, 3]);

        // Two more pushes evict the two oldest.
        r.push(ev(4));
        r.push(ev(5));
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 2);
        let ts: Vec<u64> = r.to_vec().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![2, 3, 4, 5]);
    }

    #[test]
    fn wraps_many_times() {
        let mut r = RingBuffer::new(3);
        for ts in 0..100 {
            r.push(ev(ts));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 97);
        let ts: Vec<u64> = r.to_vec().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![97, 98, 99]);
    }

    #[test]
    fn partial_fill_preserves_order() {
        let mut r = RingBuffer::new(8);
        r.push(ev(10));
        r.push(ev(20));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        let ts: Vec<u64> = r.to_vec().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![10, 20]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        RingBuffer::new(0);
    }

    #[test]
    fn matches_a_queue_model_while_growing_and_wrapping() {
        use std::collections::VecDeque;
        for cap in [1, 3, 5, 8] {
            let mut r = RingBuffer::new(cap);
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut dropped = 0u64;
            for ts in 0..(3 * cap as u64 + 1) {
                let evicted = model.len() == cap;
                if evicted {
                    model.pop_front();
                    dropped += 1;
                }
                model.push_back(ts);
                assert_eq!(r.push(ev(ts)), evicted, "cap {cap}, push {ts}");
                assert_eq!(r.len(), model.len(), "cap {cap}, push {ts}");
                assert_eq!(r.dropped(), dropped, "cap {cap}, push {ts}");
                let got: Vec<u64> = r.to_vec().iter().map(|e| e.ts_ns).collect();
                assert_eq!(got, Vec::from(model.clone()), "cap {cap}, push {ts}");
                assert!(r.events.capacity() <= cap, "cap {cap}, push {ts}");
            }
            assert_eq!(r.capacity(), cap);
        }
    }
}
