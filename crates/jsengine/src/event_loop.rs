//! The macrotask event queue.
//!
//! JavaScript in the browser is "single-threaded and completely event
//! driven" (§3.1): execution is a sequence of finite-duration events
//! popped from a queue in deadline order (FIFO among events with the
//! same deadline). This module holds the queue data structure; the
//! dispatch loop lives on [`Engine`](crate::Engine).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use doppio_trace::SpanContext;

use crate::engine::{Callback, TimerId};

/// What scheduled an event — used for tracing and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A `setTimeout` timer firing.
    Timer,
    /// A `sendMessage`/`postMessage` message event.
    Message,
    /// A `setImmediate` callback.
    Immediate,
    /// Completion of a simulated asynchronous browser API (XHR,
    /// IndexedDB, network, ...).
    AsyncCompletion,
    /// Synthetic user input (keyboard/mouse) injected by a test or
    /// benchmark to measure responsiveness.
    UserInput,
}

impl EventKind {
    /// Every kind, in [`EventKind::index`] order.
    pub const ALL: [EventKind; 5] = [
        EventKind::Timer,
        EventKind::Message,
        EventKind::Immediate,
        EventKind::AsyncCompletion,
        EventKind::UserInput,
    ];

    /// Stable snake_case name, used in trace-span args and as the
    /// counter-name suffix (`engine.events.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Timer => "timer",
            EventKind::Message => "message",
            EventKind::Immediate => "immediate",
            EventKind::AsyncCompletion => "async_completion",
            EventKind::UserInput => "user_input",
        }
    }

    /// Position in [`EventKind::ALL`] (indexes the engine's per-kind
    /// counter and histogram handles).
    pub fn index(self) -> usize {
        match self {
            EventKind::Timer => 0,
            EventKind::Message => 1,
            EventKind::Immediate => 2,
            EventKind::AsyncCompletion => 3,
            EventKind::UserInput => 4,
        }
    }
}

pub(crate) struct ScheduledEvent {
    pub due_ns: u64,
    pub seq: u64,
    pub kind: EventKind,
    pub timer: Option<TimerId>,
    /// Causal context captured at scheduling time: the request the
    /// scheduling code was serving, carried silently across the queue
    /// hop so the dispatch inherits it.
    pub ctx: Option<SpanContext>,
    pub cb: Callback,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.due_ns == other.due_ns && self.seq == other.seq
    }
}
impl Eq for ScheduledEvent {}
impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, among
        // equals, first-scheduled) event is popped first.
        (other.due_ns, other.seq).cmp(&(self.due_ns, self.seq))
    }
}

/// The queue of pending events, ordered by deadline then FIFO.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<ScheduledEvent>,
}

impl EventQueue {
    pub fn push(&mut self, ev: ScheduledEvent) {
        self.heap.push(ev);
    }

    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.heap.pop()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Deadline of the next event, if any.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn next_due_ns(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.due_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(due: u64, seq: u64) -> ScheduledEvent {
        ScheduledEvent {
            due_ns: due,
            seq,
            kind: EventKind::Timer,
            timer: None,
            ctx: None,
            cb: Box::new(|_| {}),
        }
    }

    #[test]
    fn pops_in_deadline_order() {
        let mut q = EventQueue::default();
        q.push(ev(30, 0));
        q.push(ev(10, 1));
        q.push(ev(20, 2));
        assert_eq!(q.pop().unwrap().due_ns, 10);
        assert_eq!(q.pop().unwrap().due_ns, 20);
        assert_eq!(q.pop().unwrap().due_ns, 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_among_equal_deadlines() {
        let mut q = EventQueue::default();
        q.push(ev(5, 0));
        q.push(ev(5, 1));
        q.push(ev(5, 2));
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
    }

    #[test]
    fn next_due_peeks_without_removing() {
        let mut q = EventQueue::default();
        assert_eq!(q.next_due_ns(), None);
        q.push(ev(42, 0));
        assert_eq!(q.next_due_ns(), Some(42));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
