//! The shared counter registry.
//!
//! Every subsystem counts into one [`MetricsRegistry`] of named
//! [`Counter`]s, and that is where callers read them: a value with
//! [`MetricsRegistry::get`], a subsystem with
//! [`MetricsRegistry::with_prefix`]. A measurement window starts with
//! [`MetricsRegistry::reset_prefix`].
//!
//! Naming convention: dot-separated, subsystem-prefixed —
//! `engine.events_run`, `engine.ops.event_dispatch`, `fs.bytes_read`.
//!
//! Hot paths never do string lookups: they resolve a [`Counter`] handle
//! once (at construction) and bump it through an `Rc<Cell<u64>>`, which
//! costs the same as the old direct field increment.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

pub use crate::hist::{Histogram, HistogramSnapshot};

/// A named `u64` cell; cloning shares the underlying value.
#[derive(Clone, Debug, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.set(v);
    }

    /// Raise the value to `v` if `v` is larger (running maximum).
    #[inline]
    pub fn record_max(&self, v: u64) {
        if v > self.0.get() {
            self.0.set(v);
        }
    }
}

/// Shared registry of named counters. Cloning shares the map; the
/// handle is designed to live inside `Engine` and be reachable from
/// every subsystem attached to it.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<BTreeMap<String, Counter>>>,
    hists: Rc<RefCell<BTreeMap<String, Histogram>>>,
    /// Shared by every histogram created here; recording is off by
    /// default so un-instrumented runs pay one branch per sample site.
    hists_enabled: Rc<Cell<bool>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter named `name`. The returned handle
    /// shares the value: hold it and bump it without further lookups.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.borrow_mut();
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        let c = Counter::default();
        map.insert(name.to_string(), c.clone());
        c
    }

    /// Current value of `name`, or 0 if it was never registered.
    pub fn get(&self, name: &str) -> u64 {
        self.inner.borrow().get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner.borrow().keys().cloned().collect()
    }

    /// `(name, value)` for every counter whose name starts with
    /// `prefix`, sorted by name.
    pub fn with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.inner
            .borrow()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Zero every counter (and empty every histogram) whose name starts
    /// with `prefix`. Handles held by hot paths stay valid — they share
    /// the zeroed cells.
    pub fn reset_prefix(&self, prefix: &str) {
        for (k, c) in self.inner.borrow().iter() {
            if k.starts_with(prefix) {
                c.set(0);
            }
        }
        for (k, h) in self.hists.borrow().iter() {
            if k.starts_with(prefix) {
                h.reset();
            }
        }
    }

    // ----------------------------------------------------------------
    // Histograms
    // ----------------------------------------------------------------

    /// Get or create the histogram named `name`. Like [`Counter`]
    /// handles, the result shares storage and should be resolved once
    /// at construction; recording is gated on
    /// [`MetricsRegistry::set_histograms_enabled`] (default off).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.hists.borrow_mut();
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        let h = Histogram::with_flag(self.hists_enabled.clone());
        map.insert(name.to_string(), h.clone());
        h
    }

    /// Turn sample recording on or off for every histogram created by
    /// this registry, past and future. Off by default.
    pub fn set_histograms_enabled(&self, on: bool) {
        self.hists_enabled.set(on);
    }

    /// Whether histogram recording is currently on.
    pub fn histograms_enabled(&self) -> bool {
        self.hists_enabled.get()
    }

    /// All registered histogram names, sorted.
    pub fn histogram_names(&self) -> Vec<String> {
        self.hists.borrow().keys().cloned().collect()
    }

    /// `(name, snapshot)` for every *non-empty* histogram whose name
    /// starts with `prefix`, sorted by name.
    pub fn histograms_with_prefix(&self, prefix: &str) -> Vec<(String, HistogramSnapshot)> {
        self.hists
            .borrow()
            .iter()
            .filter(|(k, h)| k.starts_with(prefix) && h.count() > 0)
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }

    /// Render every counter and histogram in the Prometheus text
    /// exposition format; see [`crate::prometheus`].
    pub fn prometheus(&self) -> String {
        crate::prometheus::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_values() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("engine.events_run");
        let b = reg.counter("engine.events_run");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.get("engine.events_run"), 4);
        assert_eq!(reg.get("engine.never_touched"), 0);
    }

    #[test]
    fn record_max_keeps_running_maximum() {
        let c = Counter::default();
        c.record_max(7);
        c.record_max(3);
        assert_eq!(c.get(), 7);
        c.record_max(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn reset_prefix_zeroes_only_that_subsystem() {
        let reg = MetricsRegistry::new();
        let e = reg.counter("engine.events_run");
        let f = reg.counter("fs.bytes_read");
        e.add(10);
        f.add(20);
        reg.reset_prefix("engine.");
        assert_eq!(e.get(), 0, "live handle sees the reset");
        assert_eq!(reg.get("fs.bytes_read"), 20);
    }

    #[test]
    fn histograms_share_the_registry_gate_and_reset() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("engine.event_latency");
        h.record(5);
        assert_eq!(h.count(), 0, "off by default");
        reg.set_histograms_enabled(true);
        h.record(5);
        reg.histogram("engine.event_latency").record(7);
        assert_eq!(h.count(), 2, "handles share storage");
        assert_eq!(reg.histograms_with_prefix("engine.").len(), 1);
        reg.reset_prefix("engine.");
        assert_eq!(h.count(), 0);
        assert!(reg.histograms_with_prefix("engine.").is_empty());
        assert_eq!(reg.histogram_names(), vec!["engine.event_latency"]);
    }

    #[test]
    fn with_prefix_lists_sorted_pairs() {
        let reg = MetricsRegistry::new();
        reg.counter("fs.opens").add(2);
        reg.counter("fs.bytes_read").add(9);
        reg.counter("engine.events_run").add(1);
        let fs = reg.with_prefix("fs.");
        assert_eq!(
            fs,
            vec![
                ("fs.bytes_read".to_string(), 9),
                ("fs.opens".to_string(), 2)
            ]
        );
    }
}
