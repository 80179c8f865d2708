//! Where recorded events go.
//!
//! [`Tracer`](crate::Tracer) writes through an `Rc<dyn TraceSink>`. Two
//! implementations cover the workspace's needs: [`NullSink`] (tracing
//! off — the common case, and the one the bench suite proves is free)
//! and [`RingSink`] (tracing on, bounded memory).

use std::cell::RefCell;

use crate::metrics::Counter;
use crate::ring::RingBuffer;
use crate::TraceEvent;

/// Destination for trace events.
pub trait TraceSink {
    /// Store one event.
    fn record(&self, ev: TraceEvent);

    /// Whether this sink wants events at all. `Tracer` caches this
    /// answer at construction, so a sink cannot toggle mid-run.
    fn enabled(&self) -> bool {
        true
    }
}

/// Discards everything; `enabled()` is `false` so tracers built on it
/// skip event construction entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _ev: TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Records into a bounded [`RingBuffer`]; the default sink for
/// `--trace` runs.
#[derive(Debug)]
pub struct RingSink {
    ring: RefCell<RingBuffer>,
    /// Optional live mirror of the eviction count (the `trace.dropped`
    /// registry counter), so dashboards and `RunReport`s see drops
    /// without holding the sink.
    drop_counter: RefCell<Option<Counter>>,
}

impl RingSink {
    /// A sink whose ring holds at most `capacity` events. Nothing is
    /// allocated up front: the ring grows with the events recorded.
    pub fn with_capacity(capacity: usize) -> RingSink {
        RingSink {
            ring: RefCell::new(RingBuffer::new(capacity)),
            drop_counter: RefCell::new(None),
        }
    }

    /// A copy of the recorded events, oldest first. Analyses that only
    /// read the events should borrow them with
    /// [`RingSink::with_events`] instead.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.borrow().to_vec()
    }

    /// Lend the ring to `f` without copying it: iterating the
    /// [`RingBuffer`] yields the recorded events by reference, oldest
    /// first. Nothing may be recorded into this sink while `f` runs.
    pub fn with_events<R>(&self, f: impl FnOnce(&RingBuffer) -> R) -> R {
        f(&self.ring.borrow())
    }

    /// Maximum number of events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.ring.borrow().capacity()
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.ring.borrow().len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.borrow().is_empty()
    }

    /// How many events the ring evicted for lack of space.
    pub fn dropped(&self) -> u64 {
        self.ring.borrow().dropped()
    }

    /// Mirror future evictions into `counter` (conventionally the
    /// registry's `trace.dropped`), seeding it with drops so far.
    pub fn set_drop_counter(&self, counter: Counter) {
        counter.set(self.dropped());
        *self.drop_counter.borrow_mut() = Some(counter);
    }
}

impl TraceSink for RingSink {
    fn record(&self, ev: TraceEvent) {
        if self.ring.borrow_mut().push(ev) {
            if let Some(c) = self.drop_counter.borrow().as_ref() {
                c.inc();
            }
        }
    }
}

/// A generous default bound on the ring: at ~100 bytes/event it caps
/// trace memory near 100 MB while holding several minutes of simulated
/// run. It is a cap, not an allocation; a run pays only for the events
/// it records.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

impl Default for RingSink {
    fn default() -> RingSink {
        RingSink::with_capacity(DEFAULT_RING_CAPACITY)
    }
}
