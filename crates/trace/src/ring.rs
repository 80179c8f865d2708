//! Bounded event storage.
//!
//! Traces of long simulated runs can produce millions of events; the
//! recorder must not turn a bounded simulation into unbounded memory.
//! [`RingBuffer`] keeps the most recent `capacity` events and counts the
//! ones it evicted, so the exporter can report truncation honestly.
//! `capacity` is a bound, not an allocation: the ring grows with the
//! events it holds, one fixed-size chunk at a time, so a short run that
//! records a few thousand events pays for those, not for the whole
//! bound. Growing never moves a stored event, and a dropped ring hands
//! its chunks to a small per-thread arena for the next ring built on
//! that thread (a sharded run's next tenant).

use std::cell::RefCell;

use crate::TraceEvent;

/// Events per chunk. At 96 bytes per `TraceEvent` a chunk is 48 KiB,
/// under glibc's default 128 KiB mmap threshold, so chunks come from
/// the heap instead of freshly mapped pages.
const CHUNK: usize = 512;

/// Most freed chunks one thread keeps for reuse (3 MiB).
const ARENA_CHUNKS: usize = 64;

thread_local! {
    /// Empty full-size chunks freed by rings dropped on this thread.
    static ARENA: RefCell<Vec<Vec<TraceEvent>>> = const { RefCell::new(Vec::new()) };
}

/// An empty chunk with room for exactly `slots` events: a recycled one
/// when a full-size chunk is wanted and the arena has one.
fn take_chunk(slots: usize) -> Vec<TraceEvent> {
    let recycled = if slots == CHUNK {
        ARENA.try_with(|a| a.borrow_mut().pop()).ok().flatten()
    } else {
        None
    };
    recycled.unwrap_or_else(|| Vec::with_capacity(slots))
}

/// A circular buffer of [`TraceEvent`]s that grows on demand up to its
/// capacity and overwrites its oldest entries once full.
#[derive(Debug)]
pub struct RingBuffer {
    /// The stored events in slot order: slot `i` lives in
    /// `chunks[i / CHUNK][i % CHUNK]`. Every chunk but the last holds
    /// `CHUNK` slots; the last holds what is left of the capacity.
    /// While the ring is filling, slot order is push order; once
    /// `len == capacity` the oldest event sits in slot `head`.
    chunks: Vec<Vec<TraceEvent>>,
    len: usize,
    capacity: usize,
    /// Slot of the next event to overwrite once the ring is full.
    head: usize,
    dropped: u64,
}

impl RingBuffer {
    /// A ring holding at most `capacity` events. `capacity` must be
    /// non-zero. Nothing is allocated until the first push.
    pub fn new(capacity: usize) -> RingBuffer {
        assert!(capacity > 0, "ring capacity must be non-zero");
        RingBuffer {
            chunks: Vec::new(),
            len: 0,
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest if full. Returns whether
    /// an event was evicted, so callers can maintain a live drop
    /// counter without re-reading [`RingBuffer::dropped`].
    pub fn push(&mut self, ev: TraceEvent) -> bool {
        if self.len < self.capacity {
            if self.len.is_multiple_of(CHUNK) {
                // Never reserve past the bound.
                let slots = CHUNK.min(self.capacity - self.len);
                self.chunks.push(take_chunk(slots));
            }
            self.chunks[self.len / CHUNK].push(ev);
            self.len += 1;
            return false;
        }
        self.chunks[self.head / CHUNK][self.head % CHUNK] = ev;
        self.head = (self.head + 1) % self.capacity;
        self.dropped += 1;
        true
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many events were evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The stored events by reference, oldest first.
    pub fn iter(&self) -> Iter<'_> {
        // `head` is 0 until the ring wraps, so this is slot order then.
        let (before, rest) = self.chunks.split_at(self.head / CHUNK);
        let (split, after) = match rest.split_first() {
            Some((chunk, after)) => (chunk.as_slice(), after),
            None => (&[][..], &[][..]),
        };
        let (newer, older) = split.split_at(self.head % CHUNK);
        Iter {
            cur: older.iter(),
            chunks: after.iter().chain(before),
            newer,
            left: self.len,
        }
    }

    /// A copy of the stored events, oldest first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.iter().cloned().collect()
    }
}

/// The events of a [`RingBuffer`] by reference, oldest first.
pub struct Iter<'a> {
    /// What is left of the chunk being read.
    cur: std::slice::Iter<'a, TraceEvent>,
    /// Whole chunks to read after `cur`.
    chunks: std::iter::Chain<
        std::slice::Iter<'a, Vec<TraceEvent>>,
        std::slice::Iter<'a, Vec<TraceEvent>>,
    >,
    /// The newest events of a wrapped ring: the front of the chunk the
    /// oldest event sits in, read last.
    newer: &'a [TraceEvent],
    left: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a TraceEvent;

    fn next(&mut self) -> Option<&'a TraceEvent> {
        loop {
            if let Some(ev) = self.cur.next() {
                self.left -= 1;
                return Some(ev);
            }
            self.cur = match self.chunks.next() {
                Some(chunk) => chunk.iter(),
                None if !self.newer.is_empty() => std::mem::take(&mut self.newer).iter(),
                None => return None,
            };
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a RingBuffer {
    type Item = &'a TraceEvent;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Drop for RingBuffer {
    fn drop(&mut self) {
        // A ring dropped while the thread exits just frees its chunks.
        let _ = ARENA.try_with(|arena| {
            let mut arena = arena.borrow_mut();
            for mut chunk in self.chunks.drain(..) {
                if chunk.capacity() == CHUNK && arena.len() < ARENA_CHUNKS {
                    chunk.clear();
                    arena.push(chunk);
                }
            }
        });
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
        for cap in [1, 3, 5, 8, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3] {
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
                assert!(got.iter().eq(model.iter()), "cap {cap}, push {ts}");
                assert!(
                    r.iter().map(|e| e.ts_ns).eq(got.iter().copied()),
                    "cap {cap}, push {ts}: iter() differs from to_vec()"
                );
                assert_eq!(r.iter().len(), model.len(), "cap {cap}, push {ts}");
                let reserved: usize = r.chunks.iter().map(Vec::capacity).sum();
                assert!(reserved <= cap, "cap {cap}, push {ts}: {reserved} slots");
            }
            assert_eq!(r.capacity(), cap);
        }
    }

    #[test]
    fn a_chunk_stays_under_the_default_mmap_threshold() {
        assert!(CHUNK * std::mem::size_of::<TraceEvent>() <= 128 * 1024);
    }

    #[test]
    fn a_dropped_ring_lends_its_chunks_to_the_next_one() {
        ARENA.with(|a| a.borrow_mut().clear());
        let mut r = RingBuffer::new(4 * CHUNK);
        for ts in 0..(CHUNK as u64 + 1) {
            r.push(ev(ts));
        }
        let first = r.chunks[0].as_ptr();
        let second = r.chunks[1].as_ptr();
        drop(r);
        let mut next = RingBuffer::new(4 * CHUNK);
        next.push(ev(7));
        assert!(
            next.chunks[0].as_ptr() == second || next.chunks[0].as_ptr() == first,
            "the next ring allocated instead of reusing a freed chunk"
        );
        let ts: Vec<u64> = next.to_vec().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![7], "a reused chunk starts empty");
        // A chunk cut short by the bound is never lent out: a ring
        // with room for fewer than CHUNK events gets an exact one.
        drop(next);
        let mut small = RingBuffer::new(3);
        small.push(ev(1));
        assert_eq!(small.chunks[0].capacity(), 3);
    }
}
