//! Causal tracing: cross-process span propagation and critical-path
//! analysis.
//!
//! A slow request in a Browsix-style world crosses pids, pipes,
//! sockets, and replication hops; the flat trace stream records those
//! as unrelated events. This module adds the causal layer:
//!
//! * [`SpanContext`] — a `(trace_id, span_id)` pair minted from a
//!   dedicated SplitMix64 stream seeded by the engine seed. Minting
//!   never touches the simulation's own RNG stream, so enabling causal
//!   tracing cannot perturb schedules, and same-seed runs mint
//!   byte-identical ids.
//! * [`Causal`] — the recording handle the engine owns. Subsystems
//!   create request roots at ingress points (event dispatch, kernel
//!   `spawn`, storage client ops), mint child spans as work propagates,
//!   and emit `flow` begin/end events at every cross-domain edge (pipe
//!   write→read, spawn/waitpid, signal, socket delivery, storage
//!   replication). The ambient "current" context rides along with
//!   engine events and thread slices so emitters deep in a subsystem
//!   see the request they are serving.
//! * [`CausalGraph`] — the offline analyzer: rebuilds the per-request
//!   causality DAG from a recorded event stream, walks the
//!   virtual-time critical path of each request, and attributes every
//!   nanosecond of request wall time to a named category.
//! * [`TraceQuery`] — causal-invariant assertions for tests
//!   ([`TraceQuery::spans_for`], [`TraceQuery::assert_happens_before`]).
//! * [`CausalReport`] — the deterministic markdown/JSON "Critical
//!   paths" artifact surfaced through `RunReport`. When the ring
//!   dropped events the report degrades to an explicit
//!   `[truncated: N events]` verdict instead of a silently broken DAG.
//!
//! Everything here is read-only with respect to the virtual clock:
//! recording and analysis never advance time, so the virtual-time
//! invariance assertions hold with causal tracing on or off.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

use crate::json::Json;
use crate::{cat, ArgValue, Phase, TraceEvent, Tracer};

/// The propagated causal identity of one request: which trace the work
/// belongs to and which span within it is currently executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanContext {
    /// The request's trace id (stable across every hop).
    pub trace_id: u64,
    /// The currently-executing span within the trace.
    pub span_id: u64,
}

/// Category a gap on the critical path falls into when its predecessor
/// is a same-trace parent edge and the span recorded no wait reason.
pub const WAIT_SCHED: &str = "wait.sched";
/// The catch-all for request time the walk could not attribute.
pub const UNATTRIBUTED: &str = "other";

struct CausalInner {
    tracer: Tracer,
    rng: Cell<u64>,
    current: Cell<Option<SpanContext>>,
}

/// The engine-owned recording handle. Cheaply cloneable (`Rc` under
/// the hood); id minting is always live (it is deterministic and must
/// not depend on whether a sink is attached), event emission is gated
/// by the tracer's enabled flag.
#[derive(Clone)]
pub struct Causal {
    inner: Rc<CausalInner>,
}

impl Causal {
    /// A handle minting from the stream derived from `seed`. The
    /// derivation differs from the engine's own `random_u64` stream,
    /// so causal ids never collide with (or consume) simulation draws.
    pub fn new(seed: u64, tracer: Tracer) -> Causal {
        Causal {
            inner: Rc::new(CausalInner {
                tracer,
                // Offset the state so the causal stream and the
                // engine's simulation stream differ even at seed 0.
                rng: Cell::new(seed ^ 0xD0_FF_10_CA_5A_11_00_01),
                current: Cell::new(None),
            }),
        }
    }

    /// A handle that mints ids but records nothing.
    pub fn disabled() -> Causal {
        Causal::new(0, Tracer::disabled())
    }

    /// Whether flow/span events will actually be recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.tracer.enabled()
    }

    fn mint(&self) -> u64 {
        let mut s = self.inner.rng.get();
        let id = doppio_prng::split_mix64(&mut s);
        self.inner.rng.set(s);
        // Zero is the wire encoding of "no context"; skip it.
        if id == 0 {
            self.mint()
        } else {
            id
        }
    }

    /// The ambient context of the currently-running event or slice.
    #[inline]
    pub fn current(&self) -> Option<SpanContext> {
        self.inner.current.get()
    }

    /// Install the ambient context, returning the previous one (the
    /// caller restores it when its scope ends).
    #[inline]
    pub fn set_current(&self, ctx: Option<SpanContext>) -> Option<SpanContext> {
        self.inner.current.replace(ctx)
    }

    /// Mint a fresh root context (new trace).
    pub fn root(&self) -> SpanContext {
        let trace_id = self.mint();
        let span_id = self.mint();
        SpanContext { trace_id, span_id }
    }

    /// Mint a child span within `parent`'s trace.
    pub fn child(&self, parent: SpanContext) -> SpanContext {
        SpanContext {
            trace_id: parent.trace_id,
            span_id: self.mint(),
        }
    }

    /// Begin a request: mint a root context and record the ingress
    /// marker carrying the request class.
    pub fn begin_request(&self, class: impl Into<Cow<'static, str>>, now_ns: u64) -> SpanContext {
        let ctx = self.root();
        if self.enabled() {
            self.inner.tracer.instant(
                cat::CAUSAL,
                "req.begin",
                now_ns,
                0,
                vec![
                    ("trace", ArgValue::U64(ctx.trace_id)),
                    ("span", ArgValue::U64(ctx.span_id)),
                    ("class", ArgValue::Str(class.into())),
                ],
            );
        }
        ctx
    }

    /// End the request rooted at `ctx`.
    pub fn end_request(&self, ctx: SpanContext, now_ns: u64) {
        if self.enabled() {
            self.inner.tracer.instant(
                cat::CAUSAL,
                "req.end",
                now_ns,
                0,
                vec![
                    ("trace", ArgValue::U64(ctx.trace_id)),
                    ("span", ArgValue::U64(ctx.span_id)),
                ],
            );
        }
    }

    /// Record a completed unit of attributed work. `category` becomes
    /// the span's attribution bucket ("interp", "dispatch",
    /// "storage.journal", …); `wait` names what the span's owner was
    /// waiting on in the gap *before* this span started (pipe
    /// backpressure, a child, the scheduler).
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        category: &'static str,
        ctx: SpanContext,
        parent_span: u64,
        start_ns: u64,
        end_ns: u64,
        tid: u32,
        wait: Option<&'static str>,
    ) {
        if self.enabled() {
            let mut args = vec![
                ("trace", ArgValue::U64(ctx.trace_id)),
                ("span", ArgValue::U64(ctx.span_id)),
                ("parent", ArgValue::U64(parent_span)),
            ];
            if let Some(w) = wait {
                args.push(("wait", ArgValue::Str(Cow::Borrowed(w))));
            }
            self.inner.tracer.record(TraceEvent {
                name: Cow::Borrowed(category),
                cat: cat::CAUSAL,
                phase: Phase::Complete,
                ts_ns: start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
                tid,
                id: 0,
                args,
            });
        }
    }

    /// Begin a cross-domain flow edge of `kind` leaving `src` at
    /// `now_ns`, returning the flow id the consumer must finish with.
    pub fn flow_start(&self, kind: &'static str, src: SpanContext, now_ns: u64, tid: u32) -> u64 {
        let id = self.mint();
        if self.enabled() {
            self.inner.tracer.record(TraceEvent {
                name: Cow::Borrowed(kind),
                cat: cat::CAUSAL,
                phase: Phase::FlowStart,
                ts_ns: now_ns,
                dur_ns: 0,
                tid,
                id,
                args: vec![
                    ("trace", ArgValue::U64(src.trace_id)),
                    ("span", ArgValue::U64(src.span_id)),
                ],
            });
        }
        id
    }

    /// Finish flow `flow_id` at its consumer span `dst`.
    pub fn flow_end(
        &self,
        kind: &'static str,
        flow_id: u64,
        dst: SpanContext,
        now_ns: u64,
        tid: u32,
    ) {
        if self.enabled() {
            self.inner.tracer.record(TraceEvent {
                name: Cow::Borrowed(kind),
                cat: cat::CAUSAL,
                phase: Phase::FlowEnd,
                ts_ns: now_ns,
                dur_ns: 0,
                tid,
                id: flow_id,
                args: vec![
                    ("trace", ArgValue::U64(dst.trace_id)),
                    ("span", ArgValue::U64(dst.span_id)),
                ],
            });
        }
    }

    /// Record a named causal marker (a point fact tests can query, e.g.
    /// `storage.journal.append` with `key` = the journal sequence).
    pub fn mark(&self, name: &'static str, ctx: SpanContext, key: u64, now_ns: u64) {
        if self.enabled() {
            self.inner.tracer.instant(
                cat::CAUSAL,
                name,
                now_ns,
                0,
                vec![
                    ("trace", ArgValue::U64(ctx.trace_id)),
                    ("span", ArgValue::U64(ctx.span_id)),
                    ("key", ArgValue::U64(key)),
                ],
            );
        }
    }
}

impl std::fmt::Debug for Causal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Causal")
            .field("enabled", &self.enabled())
            .field("current", &self.current())
            .finish()
    }
}

// ---------------------------------------------------------------------
// The offline analyzer
// ---------------------------------------------------------------------

fn arg_u64(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| {
        if let ArgValue::U64(n) = v {
            Some(*n)
        } else {
            None
        }
    })
}

/// The string arg `key`, shared with the event: a clone of a borrowed
/// name copies no bytes.
fn arg_str<'a>(ev: &'a TraceEvent, key: &str) -> Option<&'a Cow<'static, str>> {
    ev.args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| {
        if let ArgValue::Str(s) = v {
            Some(s)
        } else {
            None
        }
    })
}

/// An index keyed by span, trace or flow id. It is only ever looked
/// up, never iterated: its order changes from run to run. Ids can come
/// from an imported trace, so it keeps the default collision-resistant
/// hasher.
type IdMap<V> = HashMap<u64, V>;

/// One reconstructed span node in the causality DAG.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 when the span is a trace root).
    pub parent: u64,
    /// Attribution category (the span event's name), empty for spans
    /// only ever referenced by flows or markers.
    pub category: Cow<'static, str>,
    /// What the span's owner waited on before this span started.
    pub wait: Option<Cow<'static, str>>,
    /// Earliest timestamp attributed to the span.
    pub start_ns: u64,
    /// Latest timestamp attributed to the span.
    pub end_ns: u64,
}

/// One flow edge: `src` handed work to `dst`, leaving at `start_ns`
/// and landing at `end_ns`.
#[derive(Clone, Debug)]
struct FlowEdge {
    kind: Cow<'static, str>,
    src: u64,
    start_ns: u64,
    end_ns: u64,
}

/// A request window recorded by `req.begin`/`req.end`.
#[derive(Clone, Debug)]
pub struct RequestNode {
    /// The request's trace id.
    pub trace_id: u64,
    /// Root span id.
    pub root_span: u64,
    /// Request class (`proc:grep`, `storage:put`, …).
    pub class: String,
    /// Ingress timestamp.
    pub begin_ns: u64,
    /// Completion timestamp (`None` for requests still in flight when
    /// the trace ended).
    pub end_ns: Option<u64>,
}

/// A named point fact ([`Causal::mark`]) tests assert over.
#[derive(Clone, Debug)]
pub struct Marker {
    /// Marker name.
    pub name: Cow<'static, str>,
    /// Span it was recorded in.
    pub span_id: u64,
    /// Correlation key (journal seq, req id, …).
    pub key: u64,
    /// When it was recorded.
    pub ts_ns: u64,
}

/// One step of a rendered critical path: `ns` nanoseconds attributed
/// to `category`.
pub type PathStep = (String, u64);

/// Add `ns` nanoseconds of category `prefix` + `name` to the end of a
/// path: the last step grows when it has that category, and only a new
/// step allocates.
fn push_step(steps: &mut Vec<PathStep>, prefix: &str, name: &str, ns: u64) {
    if ns == 0 {
        return;
    }
    match steps.last_mut() {
        Some((c, n)) if c.strip_prefix(prefix) == Some(name) => *n += ns,
        _ => steps.push(([prefix, name].concat(), ns)),
    }
}

/// The reconstructed per-request causality DAG over a recorded event
/// stream. Build it with [`CausalGraph::build`]; the analyzer only
/// reads events in the `causal` category and ignores everything else.
#[derive(Debug, Default)]
pub struct CausalGraph {
    /// Every span, in the order the stream first touched it.
    spans: Vec<SpanNode>,
    /// Span id → position in `spans`.
    index: IdMap<usize>,
    /// Per span (by position): the flows landing in it, in recorded
    /// order.
    flows_in: Vec<Vec<usize>>,
    /// Trace id → position of the trace's terminal span: its
    /// latest-ending span, the larger span id winning a tie.
    terminal: IdMap<usize>,
    flows: Vec<FlowEdge>,
    requests: Vec<RequestNode>,
    markers: Vec<Marker>,
    /// Events the ring evicted before analysis; a non-zero count means
    /// the DAG is incomplete and verdicts must say so.
    pub dropped: u64,
}

impl CausalGraph {
    /// Reconstruct the DAG from `events`, oldest first (`&sink.events()`,
    /// or a ring read in place through [`RingSink::with_events`]).
    /// `dropped` is the ring's eviction count: when non-zero the graph
    /// still builds (tolerating unmatched flows and orphan spans) but
    /// reports the truncation.
    ///
    /// [`RingSink::with_events`]: crate::RingSink::with_events
    pub fn build<'a>(
        events: impl IntoIterator<Item = &'a TraceEvent>,
        dropped: u64,
    ) -> CausalGraph {
        let mut g = CausalGraph {
            dropped,
            ..CausalGraph::default()
        };
        // Flow id → (kind, source span, start) of flows not yet landed.
        let mut open_flows: IdMap<(Cow<'static, str>, u64, u64)> = IdMap::default();
        // Trace id → positions in `requests` of its requests still
        // open, the latest on top.
        let mut open_requests: IdMap<Vec<usize>> = IdMap::default();
        for ev in events.into_iter().filter(|e| e.cat == cat::CAUSAL) {
            let (Some(trace), Some(span)) = (arg_u64(ev, "trace"), arg_u64(ev, "span")) else {
                continue;
            };
            match ev.phase {
                Phase::Complete => {
                    let at = g.touch(trace, span, ev.ts_ns);
                    let node = &mut g.spans[at];
                    node.category = ev.name.clone();
                    node.wait = arg_str(ev, "wait").cloned();
                    node.parent = arg_u64(ev, "parent").unwrap_or(0);
                    node.start_ns = node.start_ns.min(ev.ts_ns);
                    node.end_ns = node.end_ns.max(ev.ts_ns.saturating_add(ev.dur_ns));
                }
                Phase::FlowStart => {
                    g.touch(trace, span, ev.ts_ns);
                    open_flows.insert(ev.id, (ev.name.clone(), span, ev.ts_ns));
                }
                Phase::FlowEnd => {
                    // A FlowEnd whose start was evicted (or dropped by
                    // a fault) is tolerated: no edge, no panic.
                    if let Some((kind, src, start_ns)) = open_flows.remove(&ev.id) {
                        let at = g.touch(trace, span, ev.ts_ns);
                        g.flows_in[at].push(g.flows.len());
                        g.flows.push(FlowEdge {
                            kind,
                            src,
                            start_ns,
                            end_ns: ev.ts_ns,
                        });
                    }
                }
                Phase::Instant => match ev.name.as_ref() {
                    "req.begin" => {
                        g.touch(trace, span, ev.ts_ns);
                        open_requests
                            .entry(trace)
                            .or_default()
                            .push(g.requests.len());
                        g.requests.push(RequestNode {
                            trace_id: trace,
                            root_span: span,
                            class: arg_str(ev, "class").map_or("?", |c| c.as_ref()).to_string(),
                            begin_ns: ev.ts_ns,
                            end_ns: None,
                        });
                    }
                    "req.end" => {
                        // The trace's latest request still open.
                        if let Some(r) = open_requests.get_mut(&trace).and_then(Vec::pop) {
                            g.requests[r].end_ns = Some(ev.ts_ns);
                        }
                    }
                    _ => {
                        g.touch(trace, span, ev.ts_ns);
                        g.markers.push(Marker {
                            name: ev.name.clone(),
                            span_id: span,
                            key: arg_u64(ev, "key").unwrap_or(0),
                            ts_ns: ev.ts_ns,
                        });
                    }
                },
                _ => {}
            }
        }
        for (at, s) in g.spans.iter().enumerate() {
            let best = g.terminal.entry(s.trace_id).or_insert(at);
            let b = &g.spans[*best];
            if (s.end_ns, s.span_id) > (b.end_ns, b.span_id) {
                *best = at;
            }
        }
        g
    }

    /// Widen span `span`'s extent to cover `ts`, creating the span on
    /// first touch. Returns its position in `spans`.
    fn touch(&mut self, trace: u64, span: u64, ts: u64) -> usize {
        let at = *self.index.entry(span).or_insert_with(|| {
            self.spans.push(SpanNode {
                trace_id: trace,
                span_id: span,
                parent: 0,
                category: Cow::Borrowed(""),
                wait: None,
                start_ns: ts,
                end_ns: ts,
            });
            self.flows_in.push(Vec::new());
            self.spans.len() - 1
        });
        let node = &mut self.spans[at];
        node.start_ns = node.start_ns.min(ts);
        node.end_ns = node.end_ns.max(ts);
        at
    }

    /// Every request window found in the stream, in recorded order.
    pub fn requests(&self) -> &[RequestNode] {
        &self.requests
    }

    /// Every span of `trace_id`, in span-id order.
    pub fn spans_for(&self, trace_id: u64) -> Vec<&SpanNode> {
        let mut spans: Vec<&SpanNode> = self
            .spans
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .collect();
        spans.sort_unstable_by_key(|s| s.span_id);
        spans
    }

    /// Whether span `a` can reach span `b` along the causal edges
    /// (parent→child and flow src→dst). Reflexive.
    pub fn reaches(&self, a: u64, b: u64) -> bool {
        if a == b {
            return true;
        }
        // Walk backward from b: predecessor sets are what the graph
        // indexes (parents and inbound flows).
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([b]);
        while let Some(cur) = queue.pop_front() {
            if cur == a {
                return true;
            }
            if !seen.insert(cur) {
                continue;
            }
            if let Some(&at) = self.index.get(&cur) {
                if self.spans[at].parent != 0 {
                    queue.push_back(self.spans[at].parent);
                }
                for &i in &self.flows_in[at] {
                    queue.push_back(self.flows[i].src);
                }
            }
        }
        false
    }

    /// Walk the virtual-time critical path of one request backward
    /// from its completion, attributing every nanosecond of
    /// `[begin, end]` to a category. Returns the steps in path order
    /// (latest first) — the sum of step durations equals the request's
    /// wall time exactly.
    pub fn critical_path(&self, req: &RequestNode) -> Vec<PathStep> {
        let mut steps: Vec<PathStep> = Vec::new();
        let end = match req.end_ns {
            Some(e) => e,
            None => return steps,
        };
        // Start from the terminal node: the latest-ending span of the
        // request's trace.
        let Some(&terminal) = self.terminal.get(&req.trace_id) else {
            push_step(
                &mut steps,
                "",
                UNATTRIBUTED,
                end.saturating_sub(req.begin_ns),
            );
            return steps;
        };

        let mut cursor = end;
        let mut current = terminal;
        let mut hops = 0usize;
        while cursor > req.begin_ns {
            // A malformed graph (truncated ring) could cycle; bail to
            // the unattributed bucket rather than spin.
            hops += 1;
            if hops > self.spans.len().saturating_mul(2) + 16 {
                push_step(&mut steps, "", UNATTRIBUTED, cursor - req.begin_ns);
                break;
            }
            let node = &self.spans[current];
            // Work inside the span itself. A span known only from flow
            // touches has no category; its extent still has to land
            // somewhere or the steps would sum short of the wall time.
            let lo = node.start_ns.max(req.begin_ns).min(cursor);
            let hi = node.end_ns.min(cursor);
            if hi > lo {
                let category = if node.category.is_empty() {
                    UNATTRIBUTED
                } else {
                    &node.category
                };
                push_step(&mut steps, "", category, hi - lo);
            }
            cursor = cursor.min(lo.max(node.start_ns.min(cursor)));
            cursor = cursor.min(node.start_ns.max(req.begin_ns));
            if cursor <= req.begin_ns {
                break;
            }
            // Choose the predecessor that kept us waiting longest: the
            // flow or parent whose hand-off happened latest (flow edges
            // win ties — they carry the sharper category).
            let mut best: Option<(u64, bool, u64, usize)> = None; // (ts, is_flow, span, flow idx)
            for &i in &self.flows_in[current] {
                let f = &self.flows[i];
                if f.end_ns <= cursor {
                    let cand = (f.start_ns, true, f.src, i);
                    if best.is_none_or(|b| (cand.0, cand.1, cand.2) > (b.0, b.1, b.2)) {
                        best = Some(cand);
                    }
                }
            }
            if node.parent != 0 {
                if let Some(&p) = self.index.get(&node.parent) {
                    let p = &self.spans[p];
                    let cand = (p.end_ns.min(cursor), false, p.span_id, usize::MAX);
                    if best.is_none_or(|b| (cand.0, cand.1, cand.2) > (b.0, b.1, b.2)) {
                        best = Some(cand);
                    }
                }
            }
            match best {
                Some((hand_off, is_flow, pred, idx)) => {
                    let gap_to = hand_off.min(cursor);
                    if is_flow {
                        push_step(&mut steps, "wait.", &self.flows[idx].kind, cursor - gap_to);
                    } else {
                        let wait = node.wait.as_deref().unwrap_or(WAIT_SCHED);
                        push_step(&mut steps, "", wait, cursor - gap_to);
                    }
                    cursor = gap_to;
                    current = self.index[&pred];
                }
                None => {
                    // No predecessor: whatever remains before this span
                    // is the span's own wait reason, or unattributed.
                    let wait = node.wait.as_deref().unwrap_or(UNATTRIBUTED);
                    push_step(&mut steps, "", wait, cursor - req.begin_ns);
                    cursor = req.begin_ns;
                }
            }
        }
        steps
    }
}

// ---------------------------------------------------------------------
// Queries for tests
// ---------------------------------------------------------------------

/// Causal-invariant queries over a built [`CausalGraph`].
pub struct TraceQuery<'a> {
    graph: &'a CausalGraph,
}

impl<'a> TraceQuery<'a> {
    /// Query `graph`.
    pub fn new(graph: &'a CausalGraph) -> TraceQuery<'a> {
        TraceQuery { graph }
    }

    /// Every span recorded for `trace_id`, in span-id order.
    pub fn spans_for(&self, trace_id: u64) -> Vec<&SpanNode> {
        self.graph.spans_for(trace_id)
    }

    /// Markers named `name`, in recorded order.
    pub fn markers(&self, name: &str) -> Vec<&Marker> {
        self.graph
            .markers
            .iter()
            .filter(|m| m.name == name)
            .collect()
    }

    /// Assert that every `a`-marker happens-before the `b`-marker with
    /// the same correlation key: `a.ts <= b.ts` *and* `a`'s span
    /// reaches `b`'s span on the causal DAG. Keys of `a` with no
    /// matching `b` are ignored (the request may still be in flight);
    /// a `b` with no matching `a` is an error — the effect exists with
    /// no recorded cause. Errors immediately on a truncated ring,
    /// because an evicted cause would be indistinguishable from a
    /// missing one.
    pub fn assert_happens_before(&self, a: &str, b: &str) -> Result<(), String> {
        if self.graph.dropped > 0 {
            return Err(format!(
                "[truncated: {} events] cannot assert {a} happens-before {b} over an incomplete graph",
                self.graph.dropped
            ));
        }
        let firsts: BTreeMap<u64, &Marker> =
            self.markers(a)
                .into_iter()
                .fold(BTreeMap::new(), |mut m, mk| {
                    m.entry(mk.key).or_insert(mk);
                    m
                });
        let mut checked = 0u64;
        for eb in self.markers(b) {
            let ea = firsts
                .get(&eb.key)
                .ok_or_else(|| format!("{b}(key={}) recorded with no preceding {a}", eb.key))?;
            if ea.ts_ns > eb.ts_ns {
                return Err(format!(
                    "{a}(key={}) at {}ns does not precede {b} at {}ns",
                    eb.key, ea.ts_ns, eb.ts_ns
                ));
            }
            if !self.graph.reaches(ea.span_id, eb.span_id) {
                return Err(format!(
                    "no causal path from {a}(key={}) span {:#x} to {b} span {:#x}",
                    eb.key, ea.span_id, eb.span_id
                ));
            }
            checked += 1;
        }
        if checked == 0 {
            return Err(format!("no {b} markers recorded; nothing to assert"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The report artifact
// ---------------------------------------------------------------------

/// The value under `key`, copying the key only when it is new.
fn slot<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

/// Per-request-class aggregate of the critical-path analysis.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClassStats {
    /// Requests of this class that completed.
    pub requests: u64,
    /// Total request wall time (virtual ns).
    pub wall_ns: u64,
    /// Nanoseconds attributed to each category across all requests.
    pub attributed: BTreeMap<String, u64>,
    /// Wall time of the slowest request.
    pub slowest_wall_ns: u64,
    /// Trace id of the slowest request (deterministic tie-break:
    /// larger trace id wins among equals).
    pub slowest_trace: u64,
    /// The slowest request's critical path, latest step first.
    pub slowest_path: Vec<PathStep>,
}

impl ClassStats {
    /// Nanoseconds in named categories (everything but
    /// [`UNATTRIBUTED`]).
    pub fn named_ns(&self) -> u64 {
        self.attributed
            .iter()
            .filter(|(k, _)| k.as_str() != UNATTRIBUTED)
            .fold(0u64, |sum, (_, v)| sum.saturating_add(*v))
    }
}

/// The deterministic "Critical paths" artifact: per-class latency
/// attribution plus the slowest request's rendered critical path.
/// Mergeable across tenants/shards; byte-identical across reruns and
/// shard counts by construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CausalReport {
    /// Ring evictions at analysis time. Non-zero means the per-class
    /// tables are withheld and the report renders a
    /// `[truncated: N events]` verdict instead.
    pub truncated: u64,
    /// Completed requests that never produced a `req.end` are counted
    /// here, not silently dropped.
    pub in_flight: u64,
    /// Per-class statistics, keyed (and rendered) in class order.
    pub classes: BTreeMap<String, ClassStats>,
}

impl CausalReport {
    /// Analyze a recorded stream: build the [`CausalGraph`], walk
    /// every completed request's critical path, and aggregate per
    /// class. On a truncated ring (`dropped > 0`) the tables are
    /// withheld — an explicit verdict beats a silently broken DAG.
    pub fn analyze<'a>(
        events: impl IntoIterator<Item = &'a TraceEvent>,
        dropped: u64,
    ) -> CausalReport {
        let graph = CausalGraph::build(events, dropped);
        CausalReport::from_graph(&graph)
    }

    /// Analyze an already-built graph.
    pub fn from_graph(graph: &CausalGraph) -> CausalReport {
        let mut report = CausalReport {
            truncated: graph.dropped,
            ..CausalReport::default()
        };
        if graph.dropped > 0 {
            return report;
        }
        for req in graph.requests() {
            let Some(end) = req.end_ns else {
                report.in_flight += 1;
                continue;
            };
            // An imported trace may end a request before it begins, or
            // sum past u64::MAX: the arithmetic saturates.
            let wall = end.saturating_sub(req.begin_ns);
            let path = graph.critical_path(req);
            let stats = slot(&mut report.classes, &req.class);
            stats.requests += 1;
            stats.wall_ns = stats.wall_ns.saturating_add(wall);
            for (cat, ns) in &path {
                let sum = slot(&mut stats.attributed, cat);
                *sum = sum.saturating_add(*ns);
            }
            if (wall, req.trace_id) >= (stats.slowest_wall_ns, stats.slowest_trace) {
                stats.slowest_wall_ns = wall;
                stats.slowest_trace = req.trace_id;
                stats.slowest_path = path;
            }
        }
        report
    }

    /// Merge per-tenant reports (order-independent: counters sum,
    /// saturating, slowest request is the max by `(wall, trace_id)`,
    /// truncation is sticky).
    pub fn merge(reports: &[CausalReport]) -> CausalReport {
        let mut out = CausalReport::default();
        for r in reports {
            out.truncated = out.truncated.saturating_add(r.truncated);
            out.in_flight = out.in_flight.saturating_add(r.in_flight);
            for (class, s) in &r.classes {
                let slot = out.classes.entry(class.clone()).or_default();
                slot.requests = slot.requests.saturating_add(s.requests);
                slot.wall_ns = slot.wall_ns.saturating_add(s.wall_ns);
                for (cat, ns) in &s.attributed {
                    let sum = slot.attributed.entry(cat.clone()).or_insert(0);
                    *sum = sum.saturating_add(*ns);
                }
                if (s.slowest_wall_ns, s.slowest_trace)
                    >= (slot.slowest_wall_ns, slot.slowest_trace)
                {
                    slot.slowest_wall_ns = s.slowest_wall_ns;
                    slot.slowest_trace = s.slowest_trace;
                    slot.slowest_path = s.slowest_path.clone();
                }
            }
        }
        if out.truncated > 0 {
            // A truncated shard poisons the merged tables the same way
            // it poisons its own.
            out.classes.clear();
        }
        out
    }

    /// The markdown "Critical paths" section body.
    pub fn to_markdown(&self) -> String {
        let mut md = String::new();
        if self.truncated > 0 {
            md.push_str(&format!(
                "[truncated: {} events] — the trace ring evicted events; \
                 the causality DAG is incomplete and no critical path is reported. \
                 Raise the ring capacity to analyze this run.\n",
                self.truncated
            ));
            return md;
        }
        if self.classes.is_empty() {
            md.push_str("no completed requests recorded\n");
            return md;
        }
        if self.in_flight > 0 {
            md.push_str(&format!("{} requests still in flight\n\n", self.in_flight));
        }
        md.push_str("| class | requests | wall ns | attributed | breakdown |\n");
        md.push_str("|---|---:|---:|---:|---|\n");
        for (class, s) in &self.classes {
            let named = s.named_ns();
            let pct = if s.wall_ns == 0 {
                100.0
            } else {
                named as f64 * 100.0 / s.wall_ns as f64
            };
            let breakdown = s
                .attributed
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            md.push_str(&format!(
                "| `{class}` | {} | {} | {pct:.1}% | {breakdown} |\n",
                s.requests, s.wall_ns
            ));
        }
        for (class, s) in &self.classes {
            if s.slowest_path.is_empty() {
                continue;
            }
            md.push_str(&format!(
                "\nslowest `{class}` request ({} ns): ",
                s.slowest_wall_ns
            ));
            let rendered = s
                .slowest_path
                .iter()
                .rev()
                .map(|(c, ns)| format!("{c}:{ns}"))
                .collect::<Vec<_>>()
                .join(" → ");
            md.push_str(&rendered);
            md.push('\n');
        }
        md
    }

    /// The report as a [`Json`] value (deterministic key order).
    pub fn to_json(&self) -> Json {
        let mut root = BTreeMap::new();
        root.insert("truncated".into(), Json::Num(self.truncated as f64));
        root.insert("in_flight".into(), Json::Num(self.in_flight as f64));
        let classes: BTreeMap<String, Json> = self
            .classes
            .iter()
            .map(|(class, s)| {
                let mut o = BTreeMap::new();
                o.insert("requests".into(), Json::Num(s.requests as f64));
                o.insert("wall_ns".into(), Json::Num(s.wall_ns as f64));
                let attributed: BTreeMap<String, Json> = s
                    .attributed
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect();
                o.insert("attributed".into(), Json::Obj(attributed));
                o.insert(
                    "slowest_wall_ns".into(),
                    Json::Num(s.slowest_wall_ns as f64),
                );
                o.insert(
                    "slowest_path".into(),
                    Json::Arr(
                        s.slowest_path
                            .iter()
                            .rev()
                            .map(|(c, ns)| {
                                Json::Arr(vec![Json::Str(c.clone()), Json::Num(*ns as f64)])
                            })
                            .collect(),
                    ),
                );
                (class.clone(), Json::Obj(o))
            })
            .collect();
        root.insert("classes".into(), Json::Obj(classes));
        Json::Obj(root)
    }

    /// JSON rendering as a string (pretty, sorted keys, trailing
    /// newline) — the CI diff artifact.
    pub fn to_json_string(&self) -> String {
        crate::json::to_string(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingSink;

    fn causal_on(capacity: usize) -> (Causal, Rc<RingSink>) {
        let sink = Rc::new(RingSink::with_capacity(capacity));
        let c = Causal::new(7, Tracer::new(sink.clone()));
        (c, sink)
    }

    #[test]
    fn minting_is_deterministic_and_never_zero() {
        let a = Causal::new(42, Tracer::disabled());
        let b = Causal::new(42, Tracer::disabled());
        let (ra, rb) = (a.root(), b.root());
        assert_eq!(ra, rb, "same seed, same ids");
        assert_ne!(ra.trace_id, 0);
        assert_ne!(a.root(), ra, "stream advances");
        let c = Causal::new(43, Tracer::disabled());
        assert_ne!(c.root(), ra, "different seed, different ids");
    }

    #[test]
    fn request_attribution_covers_the_whole_wall() {
        let (c, sink) = causal_on(1024);
        // A request: root span works 0-10, hands off over a pipe
        // (10 → 25), consumer works 25-40, ends at 40.
        let root = c.begin_request("proc:test", 0);
        c.span("interp", root, 0, 0, 10, 0, None);
        let f = c.flow_start("pipe", root, 10, 0);
        let consumer = c.child(root);
        c.flow_end("pipe", f, consumer, 25, 0);
        c.span("interp", consumer, root.span_id, 25, 40, 0, None);
        c.end_request(root, 40);

        let report = CausalReport::analyze(&sink.events(), 0);
        let s = &report.classes["proc:test"];
        assert_eq!(s.requests, 1);
        assert_eq!(s.wall_ns, 40);
        assert_eq!(s.attributed["interp"], 25);
        assert_eq!(s.attributed["wait.pipe"], 15);
        assert_eq!(s.named_ns(), 40, "every ns lands in a named category");
        let total: u64 = s.slowest_path.iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, 40, "path steps sum to the wall exactly");
    }

    #[test]
    fn parent_gaps_use_the_span_wait_reason() {
        let (c, sink) = causal_on(1024);
        let root = c.begin_request("proc:w", 0);
        c.span("interp", root, 0, 0, 10, 0, None);
        let s2 = c.child(root);
        c.span(
            "interp",
            s2,
            root.span_id,
            30,
            35,
            0,
            Some("wait.pipe.write"),
        );
        c.end_request(root, 35);
        let report = CausalReport::analyze(&sink.events(), 0);
        let s = &report.classes["proc:w"];
        assert_eq!(s.attributed["wait.pipe.write"], 20, "{:?}", s.attributed);
        assert_eq!(s.attributed["interp"], 15);
    }

    #[test]
    fn happens_before_holds_along_flows_and_fails_without_a_path() {
        let (c, sink) = causal_on(1024);
        let a = c.root();
        c.mark("journal.append", a, 1, 5);
        let f = c.flow_start("repl", a, 6, 0);
        let b = c.child(a);
        c.flow_end("repl", f, b, 9, 0);
        c.mark("repl.ack", b, 1, 10);
        // An unrelated trace acks key 2 with no journal cause.
        let stray = c.root();
        c.mark("repl.ack", stray, 2, 11);

        let graph = CausalGraph::build(&sink.events(), 0);
        let q = TraceQuery::new(&graph);
        assert!(q
            .assert_happens_before("journal.append", "repl.ack")
            .is_err());

        // Restrict to the well-formed key: rebuild without the stray.
        let evs: Vec<TraceEvent> = sink
            .events()
            .into_iter()
            .filter(|e| arg_u64(e, "trace") != Some(stray.trace_id))
            .collect();
        let graph = CausalGraph::build(&evs, 0);
        let q = TraceQuery::new(&graph);
        q.assert_happens_before("journal.append", "repl.ack")
            .expect("journal precedes ack along the repl flow");
        assert!(
            q.assert_happens_before("repl.ack", "journal.append")
                .is_err(),
            "the reverse direction must not hold"
        );
        assert_eq!(q.spans_for(a.trace_id).len(), 2);
    }

    #[test]
    fn truncated_ring_degrades_to_an_explicit_verdict() {
        // A ring far too small for the stream: events are evicted.
        let (c, sink) = causal_on(4);
        for i in 0..10 {
            let root = c.begin_request("proc:t", i * 100);
            c.span("interp", root, 0, i * 100, i * 100 + 50, 0, None);
            c.end_request(root, i * 100 + 50);
        }
        assert!(sink.dropped() > 0, "the forged ring must actually drop");
        let report = CausalReport::analyze(&sink.events(), sink.dropped());
        assert_eq!(report.truncated, sink.dropped());
        assert!(report.classes.is_empty(), "tables withheld when truncated");
        let md = report.to_markdown();
        assert!(
            md.contains(&format!("[truncated: {} events]", sink.dropped())),
            "{md}"
        );
        let graph = CausalGraph::build(&sink.events(), sink.dropped());
        let q = TraceQuery::new(&graph);
        let err = q.assert_happens_before("a", "b").unwrap_err();
        assert!(err.contains("[truncated:"), "{err}");
    }

    /// A Chrome trace document holding `events`, each a JSON object's
    /// members without `pid` and `tid`.
    fn chrome_doc(events: &[&str]) -> String {
        let events: Vec<String> = events
            .iter()
            .map(|e| format!("{{{e},\"pid\":1,\"tid\":0}}"))
            .collect();
        format!(
            "{{\"traceEvents\":[{}],\"metadata\":{{\"dropped_events\":0}}}}",
            events.join(",")
        )
    }

    /// Import `doc` and analyze it, render the report both ways and
    /// merge it with itself: nothing on the way may panic.
    fn analyze_imported(doc: &str) -> CausalReport {
        let (events, dropped) = crate::chrome::import(doc).expect("valid document");
        let report = CausalReport::analyze(&events, dropped);
        report.to_markdown();
        report.to_json_string();
        CausalReport::merge(&[report.clone(), report.clone()]);
        report
    }

    #[test]
    fn an_imported_request_that_ends_before_it_begins_has_no_wall() {
        let doc = chrome_doc(&[
            r#""name":"req.begin","cat":"causal","ph":"i","ts":5,"args":{"trace":1,"span":1,"class":"c"}"#,
            r#""name":"req.end","cat":"causal","ph":"i","ts":2,"args":{"trace":1,"span":1}"#,
        ]);
        let s = &analyze_imported(&doc).classes["c"];
        assert_eq!((s.requests, s.wall_ns, s.slowest_wall_ns), (1, 0, 0));
    }

    #[test]
    fn imported_walls_past_u64_max_saturate() {
        // ts 1e17 us is 1e20 ns, which imports as u64::MAX: each
        // request's wall is u64::MAX. The second request's span ends at
        // a sum past u64::MAX, and its `interp` time adds to the
        // first's.
        let request = |id: u32, span: &str| {
            [
                format!(
                    r#""name":"req.begin","cat":"causal","ph":"i","ts":0,"args":{{"trace":{id},"span":{id},"class":"c"}}"#
                ),
                format!(r#"{span},"cat":"causal","ph":"X","args":{{"trace":{id},"span":{id}}}"#),
                format!(
                    r#""name":"req.end","cat":"causal","ph":"i","ts":1e17,"args":{{"trace":{id},"span":{id}}}"#
                ),
            ]
        };
        let events: Vec<String> = [
            request(1, r#""name":"interp","ts":0,"dur":1e17"#),
            request(2, r#""name":"interp","ts":1e16,"dur":1e16"#),
            request(3, r#""name":"io","ts":0,"dur":1e17"#),
        ]
        .concat();
        let events: Vec<&str> = events.iter().map(String::as_str).collect();
        let report = analyze_imported(&chrome_doc(&events));
        let s = &report.classes["c"];
        assert_eq!((s.requests, s.wall_ns), (3, u64::MAX));
        assert_eq!(s.attributed["interp"], u64::MAX);
        assert_eq!(s.named_ns(), u64::MAX);
        let merged = CausalReport::merge(&[report.clone(), report]);
        assert_eq!(merged.classes["c"].requests, 6);
        assert_eq!(merged.classes["c"].wall_ns, u64::MAX);
    }

    #[test]
    fn merge_is_order_independent_and_truncation_is_sticky() {
        let (c1, s1) = causal_on(1024);
        let r1 = c1.begin_request("proc:a", 0);
        c1.span("interp", r1, 0, 0, 10, 0, None);
        c1.end_request(r1, 10);
        let a = CausalReport::analyze(&s1.events(), 0);

        let (c2, s2) = causal_on(1024);
        let r2 = c2.begin_request("proc:a", 0);
        c2.span("interp", r2, 0, 0, 30, 0, None);
        c2.end_request(r2, 30);
        let b = CausalReport::analyze(&s2.events(), 0);

        let ab = CausalReport::merge(&[a.clone(), b.clone()]);
        let ba = CausalReport::merge(&[b.clone(), a.clone()]);
        assert_eq!(ab.to_json_string(), ba.to_json_string());
        assert_eq!(ab.classes["proc:a"].requests, 2);
        assert_eq!(ab.classes["proc:a"].wall_ns, 40);
        assert_eq!(ab.classes["proc:a"].slowest_wall_ns, 30);

        let trunc = CausalReport {
            truncated: 3,
            ..CausalReport::default()
        };
        let merged = CausalReport::merge(&[a, trunc]);
        assert_eq!(merged.truncated, 3);
        assert!(merged.classes.is_empty());
    }

    #[test]
    fn unfinished_flows_and_open_requests_are_tolerated() {
        let (c, sink) = causal_on(1024);
        let root = c.begin_request("proc:open", 0);
        c.flow_start("net", root, 5, 0); // dropped by a fault: never ends
        let done = c.begin_request("proc:done", 0);
        c.span("interp", done, 0, 0, 20, 0, None);
        c.end_request(done, 20);
        let report = CausalReport::analyze(&sink.events(), 0);
        assert_eq!(report.in_flight, 1);
        assert_eq!(report.classes.len(), 1);
        assert!(report.classes.contains_key("proc:done"));
    }

    /// The reference analyzer: a `BTreeMap` of spans with owned
    /// strings, a scan over every span for each request's terminal and
    /// over every request for each `req.end`. The indexed analyzer must
    /// answer every query exactly as it does.
    mod oracle {
        use super::super::*;

        pub struct Span {
            pub trace_id: u64,
            pub span_id: u64,
            pub parent: u64,
            pub category: String,
            pub wait: Option<String>,
            pub start_ns: u64,
            pub end_ns: u64,
        }

        struct Flow {
            kind: String,
            src: u64,
            start_ns: u64,
            end_ns: u64,
        }

        pub struct Graph {
            pub spans: BTreeMap<u64, Span>,
            flows_in: BTreeMap<u64, Vec<usize>>,
            flows: Vec<Flow>,
            pub requests: Vec<RequestNode>,
            /// `(name, span, key, ts)`.
            pub markers: Vec<(String, u64, u64, u64)>,
            pub dropped: u64,
        }

        impl Graph {
            pub fn build(events: &[TraceEvent], dropped: u64) -> Graph {
                let mut g = Graph {
                    spans: BTreeMap::new(),
                    flows_in: BTreeMap::new(),
                    flows: Vec::new(),
                    requests: Vec::new(),
                    markers: Vec::new(),
                    dropped,
                };
                let mut open_flows: BTreeMap<u64, (String, u64, u64)> = BTreeMap::new();
                for ev in events.iter().filter(|e| e.cat == cat::CAUSAL) {
                    let (Some(trace), Some(span)) = (arg_u64(ev, "trace"), arg_u64(ev, "span"))
                    else {
                        continue;
                    };
                    match ev.phase {
                        Phase::Complete => {
                            let node = g.touch(trace, span, ev.ts_ns);
                            node.category = ev.name.to_string();
                            node.wait = arg_str(ev, "wait").map(|w| w.to_string());
                            node.parent = arg_u64(ev, "parent").unwrap_or(0);
                            node.start_ns = node.start_ns.min(ev.ts_ns);
                            node.end_ns = node.end_ns.max(ev.ts_ns + ev.dur_ns);
                        }
                        Phase::FlowStart => {
                            g.touch(trace, span, ev.ts_ns);
                            open_flows.insert(ev.id, (ev.name.to_string(), span, ev.ts_ns));
                        }
                        Phase::FlowEnd => {
                            if let Some((kind, src, start_ns)) = open_flows.remove(&ev.id) {
                                g.touch(trace, span, ev.ts_ns);
                                let idx = g.flows.len();
                                g.flows.push(Flow {
                                    kind,
                                    src,
                                    start_ns,
                                    end_ns: ev.ts_ns,
                                });
                                g.flows_in.entry(span).or_default().push(idx);
                            }
                        }
                        Phase::Instant => match ev.name.as_ref() {
                            "req.begin" => {
                                g.touch(trace, span, ev.ts_ns);
                                g.requests.push(RequestNode {
                                    trace_id: trace,
                                    root_span: span,
                                    class: arg_str(ev, "class")
                                        .map_or("?", |c| c.as_ref())
                                        .to_string(),
                                    begin_ns: ev.ts_ns,
                                    end_ns: None,
                                });
                            }
                            "req.end" => {
                                if let Some(r) = g
                                    .requests
                                    .iter_mut()
                                    .rev()
                                    .find(|r| r.trace_id == trace && r.end_ns.is_none())
                                {
                                    r.end_ns = Some(ev.ts_ns);
                                }
                            }
                            name => {
                                g.touch(trace, span, ev.ts_ns);
                                let key = arg_u64(ev, "key").unwrap_or(0);
                                g.markers.push((name.to_string(), span, key, ev.ts_ns));
                            }
                        },
                        _ => {}
                    }
                }
                g
            }

            fn touch(&mut self, trace: u64, span: u64, ts: u64) -> &mut Span {
                let node = self.spans.entry(span).or_insert(Span {
                    trace_id: trace,
                    span_id: span,
                    parent: 0,
                    category: String::new(),
                    wait: None,
                    start_ns: ts,
                    end_ns: ts,
                });
                node.start_ns = node.start_ns.min(ts);
                node.end_ns = node.end_ns.max(ts);
                node
            }

            pub fn reaches(&self, a: u64, b: u64) -> bool {
                if a == b {
                    return true;
                }
                let mut seen = BTreeSet::new();
                let mut queue = VecDeque::from([b]);
                while let Some(cur) = queue.pop_front() {
                    if cur == a {
                        return true;
                    }
                    if !seen.insert(cur) {
                        continue;
                    }
                    if let Some(node) = self.spans.get(&cur) {
                        if node.parent != 0 {
                            queue.push_back(node.parent);
                        }
                    }
                    if let Some(edges) = self.flows_in.get(&cur) {
                        for &i in edges {
                            queue.push_back(self.flows[i].src);
                        }
                    }
                }
                false
            }

            pub fn critical_path(&self, req: &RequestNode) -> Vec<PathStep> {
                let mut steps: Vec<PathStep> = Vec::new();
                let mut push = |cat: &str, ns: u64| {
                    if ns == 0 {
                        return;
                    }
                    match steps.last_mut() {
                        Some((c, n)) if c == cat => *n += ns,
                        _ => steps.push((cat.to_string(), ns)),
                    }
                };
                let end = match req.end_ns {
                    Some(e) => e,
                    None => return steps,
                };
                let terminal = self
                    .spans
                    .values()
                    .filter(|s| s.trace_id == req.trace_id)
                    .max_by_key(|s| (s.end_ns, s.span_id));
                let Some(terminal) = terminal else {
                    push(UNATTRIBUTED, end - req.begin_ns);
                    return steps;
                };
                let mut cursor = end;
                let mut current = terminal.span_id;
                let mut hops = 0usize;
                while cursor > req.begin_ns {
                    hops += 1;
                    if hops > self.spans.len().saturating_mul(2) + 16 {
                        push(UNATTRIBUTED, cursor - req.begin_ns);
                        break;
                    }
                    let node = &self.spans[&current];
                    let lo = node.start_ns.max(req.begin_ns).min(cursor);
                    let hi = node.end_ns.min(cursor);
                    if hi > lo {
                        if node.category.is_empty() {
                            push(UNATTRIBUTED, hi - lo);
                        } else {
                            push(&node.category, hi - lo);
                        }
                    }
                    cursor = cursor.min(lo.max(node.start_ns.min(cursor)));
                    cursor = cursor.min(node.start_ns.max(req.begin_ns));
                    if cursor <= req.begin_ns {
                        break;
                    }
                    let mut best: Option<(u64, bool, u64, usize)> = None;
                    if let Some(edges) = self.flows_in.get(&current) {
                        for &i in edges {
                            let f = &self.flows[i];
                            if f.end_ns <= cursor {
                                let cand = (f.start_ns, true, f.src, i);
                                if best.is_none()
                                    || (cand.0, cand.1, cand.2)
                                        > (best.unwrap().0, best.unwrap().1, best.unwrap().2)
                                {
                                    best = Some(cand);
                                }
                            }
                        }
                    }
                    if node.parent != 0 {
                        if let Some(p) = self.spans.get(&node.parent) {
                            let p_end = p.end_ns.min(cursor);
                            let cand = (p_end, false, p.span_id, usize::MAX);
                            if best.is_none()
                                || (cand.0, cand.1, cand.2)
                                    > (best.unwrap().0, best.unwrap().1, best.unwrap().2)
                            {
                                best = Some(cand);
                            }
                        }
                    }
                    match best {
                        Some((hand_off, is_flow, pred, idx)) => {
                            let gap_to = hand_off.min(cursor);
                            let gap = cursor - gap_to;
                            if gap > 0 {
                                let cat = if is_flow {
                                    format!("wait.{}", self.flows[idx].kind)
                                } else {
                                    node.wait.clone().unwrap_or_else(|| WAIT_SCHED.to_string())
                                };
                                push(&cat, gap);
                            }
                            cursor = gap_to;
                            current = pred;
                        }
                        None => {
                            let cat = node
                                .wait
                                .clone()
                                .unwrap_or_else(|| UNATTRIBUTED.to_string());
                            push(&cat, cursor - req.begin_ns);
                            cursor = req.begin_ns;
                        }
                    }
                }
                steps
            }

            pub fn report(&self) -> CausalReport {
                let mut report = CausalReport {
                    truncated: self.dropped,
                    ..CausalReport::default()
                };
                if self.dropped > 0 {
                    return report;
                }
                for req in &self.requests {
                    let Some(end) = req.end_ns else {
                        report.in_flight += 1;
                        continue;
                    };
                    let wall = end - req.begin_ns;
                    let path = self.critical_path(req);
                    let stats = report.classes.entry(req.class.clone()).or_default();
                    stats.requests += 1;
                    stats.wall_ns += wall;
                    for (cat, ns) in &path {
                        *stats.attributed.entry(cat.clone()).or_insert(0) += ns;
                    }
                    if (wall, req.trace_id) >= (stats.slowest_wall_ns, stats.slowest_trace) {
                        stats.slowest_wall_ns = wall;
                        stats.slowest_trace = req.trace_id;
                        stats.slowest_path = path;
                    }
                }
                report
            }
        }
    }

    /// A seeded stream of causal events (plus non-causal noise) over a
    /// few traces, with every malformation the analyzer has to
    /// tolerate: parent cycles and self-parents, span ids shared by two
    /// traces, flows whose start is missing or that never end, reused
    /// flow ids, twin flows that tie, spans known only from flows,
    /// several requests open in
    /// one trace, requests that never end, `req.end` with nothing open,
    /// events missing their ids, timestamps on a coarse grid so end
    /// times tie, and names both borrowed and owned.
    fn random_stream(seed: u64) -> Vec<TraceEvent> {
        let mut rng = doppio_prng::SplitMix64::new(seed);
        let traces: Vec<u64> = (0..rng.gen_range(1..5usize))
            .map(|i| {
                if rng.gen_bool(0.5) {
                    rng.next_u64()
                } else {
                    i as u64 + 1
                }
            })
            .collect();
        let spans: Vec<(u64, u64)> = (0..rng.gen_range(1..12usize))
            .map(|i| {
                let id = if rng.gen_bool(0.5) {
                    rng.next_u64()
                } else {
                    100 + i as u64
                };
                (traces[rng.gen_range(0..traces.len())], id)
            })
            .collect();
        let flow_ids: Vec<u64> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.next_u64())
            .collect();
        let pick =
            |rng: &mut doppio_prng::SplitMix64, xs: &[&'static str]| xs[rng.gen_range(0..xs.len())];
        let mut events = Vec::new();
        // The clock steps on a coarse grid, often by nothing, so end
        // times tie; like a recorder, instants and flows land at `now`
        // and a span is recorded when it ends.
        let mut now = 0u64;
        for _ in 0..rng.gen_range(0..80usize) {
            now += rng.gen_range(0..3u64) * 25;
            let (trace, span) = spans[rng.gen_range(0..spans.len())];
            let (trace, span) = if rng.gen_bool(0.05) {
                // A span named only here, or another trace's span.
                (trace, span ^ 1)
            } else {
                (trace, span)
            };
            let mut args = vec![
                ("trace", ArgValue::U64(trace)),
                ("span", ArgValue::U64(span)),
            ];
            if rng.gen_bool(0.03) {
                args.remove(rng.gen_range(0..2usize));
            }
            let owned = rng.gen_bool(0.2);
            let name = |n: &'static str| {
                if owned {
                    Cow::Owned(n.to_string())
                } else {
                    Cow::Borrowed(n)
                }
            };
            let mut ev = TraceEvent {
                name: Cow::Borrowed(""),
                cat: cat::CAUSAL,
                phase: Phase::Instant,
                ts_ns: now,
                dur_ns: 0,
                tid: 0,
                id: 0,
                args,
            };
            match rng.gen_range(0..8u32) {
                0 | 1 => {
                    ev.phase = Phase::Complete;
                    ev.name = name(pick(&mut rng, &["interp", "dispatch", "storage.journal"]));
                    ev.dur_ns = rng.gen_range(0..8u64).min(now / 25) * 25;
                    ev.ts_ns = now - ev.dur_ns;
                    let parent = match rng.gen_range(0..4u32) {
                        0 => 0,
                        1 => span, // a self-parent
                        _ => spans[rng.gen_range(0..spans.len())].1,
                    };
                    ev.args.push(("parent", ArgValue::U64(parent)));
                    if rng.gen_bool(0.4) {
                        let wait = pick(&mut rng, &["wait.pipe.read", "wait.child", "wait.sched"]);
                        ev.args.push(("wait", ArgValue::Str(name(wait))));
                    }
                }
                2 => {
                    ev.phase = Phase::FlowStart;
                    ev.name = name(pick(&mut rng, &["pipe", "spawn", "net"]));
                    ev.id = flow_ids[rng.gen_range(0..flow_ids.len())];
                }
                3 => {
                    ev.phase = Phase::FlowEnd;
                    ev.name = name(pick(&mut rng, &["pipe", "spawn", "net"]));
                    ev.id = flow_ids[rng.gen_range(0..flow_ids.len())];
                }
                4 => {
                    ev.name = name("req.begin");
                    if rng.gen_bool(0.9) {
                        let class = pick(&mut rng, &["proc:grep", "proc:wc", "input"]);
                        ev.args.push(("class", ArgValue::Str(name(class))));
                    }
                }
                5 => ev.name = name("req.end"),
                6 => {
                    ev.name = name(pick(
                        &mut rng,
                        &["storage.journal.append", "storage.repl.ack"],
                    ));
                    ev.args.push(("key", ArgValue::U64(rng.gen_range(0..4u64))));
                }
                _ => {
                    ev.cat = cat::ENGINE;
                    ev.phase = Phase::Complete;
                    ev.name = name("dispatch");
                    ev.dur_ns = 100;
                }
            }
            if ev.phase == Phase::FlowStart && rng.gen_bool(0.3) {
                // Twin flows of two kinds that leave this span together
                // and land together in a span only they name: a tie on
                // the critical path.
                let (trace, dst) = (spans[rng.gen_range(0..spans.len())].0, rng.next_u64());
                let lands = now + rng.gen_range(1..4u64) * 25;
                for kind in ["pipe", "net"] {
                    let mut start = ev.clone();
                    start.id = rng.next_u64();
                    start.name = name(kind);
                    let mut end = start.clone();
                    end.phase = Phase::FlowEnd;
                    end.ts_ns = lands;
                    end.args = vec![
                        ("trace", ArgValue::U64(trace)),
                        ("span", ArgValue::U64(dst)),
                    ];
                    events.extend([start, end]);
                }
            }
            events.push(ev);
        }
        events
    }

    #[test]
    fn indexed_analyzer_matches_the_reference_on_random_streams() {
        let as_tuple = |s: &SpanNode| {
            (
                s.trace_id,
                s.span_id,
                s.parent,
                s.category.to_string(),
                s.wait.as_ref().map(|w| w.to_string()),
                s.start_ns,
                s.end_ns,
            )
        };
        let (mut paths, mut tied, mut truncated) = (0, 0, 0);
        for seed in 0..400u64 {
            let events = random_stream(seed);
            let dropped = if seed % 7 == 3 { seed } else { 0 };
            let want = oracle::Graph::build(&events, dropped);
            let got = CausalGraph::build(&events, dropped);

            let (want_report, got_report) = (want.report(), CausalReport::from_graph(&got));
            assert_eq!(
                got_report.to_json_string(),
                want_report.to_json_string(),
                "seed {seed}"
            );
            assert_eq!(
                got_report.to_markdown(),
                want_report.to_markdown(),
                "seed {seed}"
            );
            assert_eq!(got_report, want_report, "seed {seed}");

            let requests = |rs: &[RequestNode]| {
                rs.iter()
                    .map(|r| {
                        (
                            r.trace_id,
                            r.root_span,
                            r.class.clone(),
                            r.begin_ns,
                            r.end_ns,
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                requests(got.requests()),
                requests(&want.requests),
                "seed {seed}"
            );
            for r in got.requests() {
                let path = got.critical_path(r);
                assert_eq!(path, want.critical_path(r), "seed {seed}");
                paths += usize::from(!path.is_empty());
            }

            let traces: BTreeSet<u64> = want.spans.values().map(|s| s.trace_id).collect();
            for &t in traces.iter().chain([&0, &u64::MAX]) {
                let want_spans: Vec<_> = want
                    .spans
                    .values()
                    .filter(|s| s.trace_id == t)
                    .map(|s| {
                        let wait = s.wait.clone();
                        (
                            s.trace_id,
                            s.span_id,
                            s.parent,
                            s.category.clone(),
                            wait,
                            s.start_ns,
                            s.end_ns,
                        )
                    })
                    .collect();
                let got_spans: Vec<_> = got.spans_for(t).into_iter().map(as_tuple).collect();
                assert_eq!(got_spans, want_spans, "seed {seed}, trace {t}");
                let ends: Vec<u64> = want_spans.iter().map(|s| s.6).collect();
                let last = ends.iter().max().copied();
                tied += usize::from(ends.iter().filter(|&&e| Some(e) == last).count() > 1);
            }

            let ids: Vec<u64> = want.spans.keys().copied().chain([0, 1]).collect();
            for &a in &ids {
                for &b in &ids {
                    assert_eq!(
                        got.reaches(a, b),
                        want.reaches(a, b),
                        "seed {seed}, {a} -> {b}"
                    );
                }
            }

            let q = TraceQuery::new(&got);
            let names: BTreeSet<&str> = want.markers.iter().map(|m| m.0.as_str()).collect();
            for name in names.into_iter().chain(["req.begin", "absent"]) {
                let got_markers: Vec<_> = q
                    .markers(name)
                    .into_iter()
                    .map(|m| (m.name.to_string(), m.span_id, m.key, m.ts_ns))
                    .collect();
                let want_markers: Vec<_> = want
                    .markers
                    .iter()
                    .filter(|m| m.0 == name)
                    .cloned()
                    .collect();
                assert_eq!(got_markers, want_markers, "seed {seed}, marker {name}");
            }
            truncated += usize::from(dropped > 0);
        }
        // The streams must actually reach the cases they are for.
        assert!(paths > 200, "only {paths} non-empty critical paths");
        assert!(tied > 50, "only {tied} traces with tied end times");
        assert!(truncated > 40);
    }
}
