//! # doppio-trace — spans, counters, and Chrome traces on the virtual clock
//!
//! The paper's evaluation (§7) attributes *virtual* time to subsystems:
//! event dispatch, suspend checks, file-system backends, socket frames,
//! JVM method calls. This crate is the shared instrumentation layer that
//! makes that attribution possible across the workspace:
//!
//! * [`Tracer`] — a cheaply-cloneable handle that records [`TraceEvent`]s
//!   (complete spans, instants, counter samples) into a [`RingSink`].
//!   When tracing is disabled the handle holds no sink, so the hot path
//!   pays one branch and zero allocations per would-be span.
//! * [`RingBuffer`] / [`RingSink`] — bounded storage that grows in
//!   fixed chunks with the events it holds, keeps the *most recent* ones
//!   once full and counts what it dropped, so tracing a long run cannot
//!   exhaust memory. Analyses read it in place
//!   ([`RingSink::with_events`]).
//! * [`MetricsRegistry`] / [`Counter`] — a process-wide named-counter
//!   registry, the one place every subsystem's counters are read from
//!   (`metrics().get("fs.bytes_read")`) and reset
//!   (`reset_prefix("fs.")`).
//! * [`Histogram`] — log-bucketed latency/size distributions with
//!   deterministic percentiles, registered next to the counters and
//!   gated off by default (see [`hist`]).
//! * [`Profiler`] — a virtual-clock sampling profiler producing
//!   folded-stack output for flamegraph tooling (see [`profiler`]).
//! * [`chrome`] — serializes recorded events to Chrome `trace_event`
//!   JSON; the output opens directly in `chrome://tracing` or Perfetto.
//! * [`causal`] — cross-process span propagation ([`SpanContext`],
//!   flow begin/end events) and the offline [`CausalGraph`] analyzer
//!   that reconstructs per-request causality DAGs, walks virtual-time
//!   critical paths, and attributes request latency per category.
//! * [`prometheus`] — text-exposition rendering of the registry's
//!   counters and histograms.
//! * [`json`] — a minimal JSON reader/writer used by exporters and
//!   tests, so the workspace needs no external serializer.
//!
//! All timestamps are **virtual nanoseconds** from the engine clock, not
//! wall time: a trace of a simulated run is deterministic and diffable.

use std::borrow::Cow;
use std::rc::Rc;

pub mod causal;
pub mod chrome;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profiler;
pub mod prometheus;
pub mod ring;
pub mod sink;

pub use causal::{Causal, CausalGraph, CausalReport, SpanContext, TraceQuery};
pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, MetricsRegistry};
pub use profiler::Profiler;
pub use ring::RingBuffer;
pub use sink::RingSink;

/// Well-known category names, one per instrumented subsystem. The
/// integration tests key off these, so emitters should prefer them over
/// ad-hoc strings.
pub mod cat {
    /// jsengine event dispatch, watchdog, storage.
    pub const ENGINE: &str = "engine";
    /// doppio-core thread slices and suspend-timer activity.
    pub const CORE: &str = "core";
    /// doppio-fs operations.
    pub const FS: &str = "fs";
    /// doppio-sockets frames and handshakes.
    pub const NET: &str = "net";
    /// JVM sampled method entries.
    pub const JVM: &str = "jvm";
    /// doppio-faults injections and the retry/backoff decisions they
    /// trigger.
    pub const FAULT: &str = "fault";
    /// Interpreter fast-path events: constant-pool quickening, inline
    /// call-cache misses, class-definition cache invalidation points.
    pub const PERF: &str = "perf";
    /// Schedule exploration: per-tick pick instants, deadlock-cycle
    /// dumps, and lock-order-inversion warnings.
    pub const SCHED: &str = "sched";
    /// Kernel process lifecycle: spawns, exits, signals, and pipe
    /// transfers, each tagged with the pid it concerns.
    pub const PROC: &str = "proc";
    /// Causal layer: request ingress/egress markers, attributed spans,
    /// and cross-domain flow edges. See [`crate::causal`].
    pub const CAUSAL: &str = "causal";
}

/// Trace event phase, mirroring the Chrome `trace_event` `ph` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A span with a start and a duration (`ph: "X"`).
    Complete,
    /// A zero-duration marker (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`).
    Counter,
    /// Stream metadata such as thread names (`ph: "M"`).
    Metadata,
    /// A flow-edge begin (`ph: "s"`): work left this point for another
    /// lane/process; paired with a [`Phase::FlowEnd`] by `id`.
    FlowStart,
    /// A flow-edge end (`ph: "f"`): the work that started at the
    /// matching [`Phase::FlowStart`] landed here.
    FlowEnd,
}

/// A typed argument value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Signed integer argument.
    I64(i64),
    /// Floating-point argument.
    F64(f64),
    /// Boolean argument.
    Bool(bool),
    /// String argument.
    Str(Cow<'static, str>),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> ArgValue {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> ArgValue {
        ArgValue::Bool(v)
    }
}
impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> ArgValue {
        ArgValue::Str(Cow::Borrowed(v))
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(Cow::Owned(v))
    }
}

/// One recorded event. Timestamps and durations are virtual nanoseconds.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name (span or marker label).
    pub name: Cow<'static, str>,
    /// Subsystem category; see [`cat`].
    pub cat: &'static str,
    /// Chrome `ph` phase.
    pub phase: Phase,
    /// Start timestamp on the virtual clock, in nanoseconds.
    pub ts_ns: u64,
    /// Duration in virtual nanoseconds (complete spans only).
    pub dur_ns: u64,
    /// Lane the event renders in; see [`Tracer`] docs for conventions.
    pub tid: u32,
    /// Flow-pair correlation id (flow phases only; 0 otherwise).
    pub id: u64,
    /// Typed key/value annotations.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Handle through which subsystems record events.
///
/// `Tracer` is `Clone` (it is an `Rc` under the hood) and is stored by
/// value inside `Engine`, `FileSystem`, the runtime, etc. It is enabled
/// exactly when it holds a sink: emitters guard argument construction
/// with [`Tracer::enabled`] so a disabled tracer costs one predictable
/// branch per site and never allocates.
///
/// Lane (`tid`) conventions used by the workspace emitters: lane 0 is
/// the browser event loop (engine, fs, net, jvm events all happen
/// there); lane `1 + thread_id` is a doppio-core green thread, so each
/// thread's slices render as their own track in Perfetto.
#[derive(Clone)]
pub struct Tracer {
    /// Where events go; `None` when tracing is off.
    sink: Option<Rc<RingSink>>,
}

impl Tracer {
    /// A tracer that records nothing and reports `enabled() == false`.
    pub fn disabled() -> Tracer {
        Tracer { sink: None }
    }

    /// A tracer recording into `sink`.
    pub fn new(sink: Rc<RingSink>) -> Tracer {
        Tracer { sink: Some(sink) }
    }

    /// Whether events will actually be recorded. Emitters must check
    /// this before building names or args for a span.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Record a fully-formed event. Prefer the shaped helpers
    /// ([`Tracer::complete`], [`Tracer::instant`], …); this exists for
    /// emitters — like the [`causal`] layer — that build events with
    /// flow phases or correlation ids the helpers do not cover.
    #[inline]
    pub fn record(&self, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(ev);
        }
    }

    /// Record a complete span (`ph: "X"`) covering
    /// `[ts_ns, ts_ns + dur_ns]` on lane `tid`.
    #[inline]
    pub fn complete(
        &self,
        category: &'static str,
        name: impl Into<Cow<'static, str>>,
        ts_ns: u64,
        dur_ns: u64,
        tid: u32,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                name: name.into(),
                cat: category,
                phase: Phase::Complete,
                ts_ns,
                dur_ns,
                tid,
                id: 0,
                args,
            });
        }
    }

    /// Record an instant marker (`ph: "i"`) at `ts_ns` on lane `tid`.
    #[inline]
    pub fn instant(
        &self,
        category: &'static str,
        name: impl Into<Cow<'static, str>>,
        ts_ns: u64,
        tid: u32,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                name: name.into(),
                cat: category,
                phase: Phase::Instant,
                ts_ns,
                dur_ns: 0,
                tid,
                id: 0,
                args,
            });
        }
    }

    /// Record a counter sample (`ph: "C"`); Perfetto plots these as a
    /// stepped line chart named `name`.
    #[inline]
    pub fn counter(
        &self,
        category: &'static str,
        name: impl Into<Cow<'static, str>>,
        ts_ns: u64,
        value: u64,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                name: name.into(),
                cat: category,
                phase: Phase::Counter,
                ts_ns,
                dur_ns: 0,
                tid: 0,
                id: 0,
                args: vec![("value", ArgValue::U64(value))],
            });
        }
    }

    /// Name lane `tid` in the exported trace (`ph: "M"`,
    /// `thread_name` metadata).
    pub fn name_lane(&self, tid: u32, name: impl Into<Cow<'static, str>>) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                name: Cow::Borrowed("thread_name"),
                cat: "__metadata",
                phase: Phase::Metadata,
                ts_ns: 0,
                dur_ns: 0,
                tid,
                id: 0,
                args: vec![("name", ArgValue::Str(name.into()))],
            });
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let sink = Rc::new(RingSink::with_capacity(8));
        // A disabled tracer built explicitly discards everything.
        let t = Tracer::disabled();
        t.complete(cat::ENGINE, "ev", 0, 10, 0, vec![]);
        t.instant(cat::ENGINE, "mark", 5, 0, vec![]);
        assert!(!t.enabled());
        assert_eq!(sink.events().len(), 0);
    }

    #[test]
    fn enabled_tracer_records_in_order() {
        let sink = Rc::new(RingSink::with_capacity(8));
        let t = Tracer::new(sink.clone());
        assert!(t.enabled());
        t.complete(cat::ENGINE, "a", 0, 10, 0, vec![("n", 3u64.into())]);
        t.instant(cat::FS, "b", 4, 0, vec![]);
        t.counter(cat::CORE, "live", 6, 2);
        let evs = sink.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].name, "a");
        assert_eq!(evs[0].phase, Phase::Complete);
        assert_eq!(evs[1].cat, cat::FS);
        assert_eq!(evs[2].phase, Phase::Counter);
        assert_eq!(evs[2].args, vec![("value", ArgValue::U64(2))]);
    }

    #[test]
    fn span_nesting_is_preserved_for_chrome() {
        // Chrome's renderer reconstructs nesting from containment of
        // [ts, ts+dur] on the same tid. Verify a parent/child pair
        // recorded by an emitter keeps containment.
        let sink = Rc::new(RingSink::with_capacity(8));
        let t = Tracer::new(sink.clone());
        // Parent span recorded *after* child, as real emitters do
        // (the parent's duration is only known once it ends).
        t.complete(cat::FS, "read", 120, 30, 0, vec![]);
        t.complete(cat::ENGINE, "event", 100, 100, 0, vec![]);
        let evs = sink.events();
        let child = &evs[0];
        let parent = &evs[1];
        assert!(parent.ts_ns <= child.ts_ns);
        assert!(child.ts_ns + child.dur_ns <= parent.ts_ns + parent.dur_ns);
    }
}
