//! The benchmark's own span recorder. Spans wrap calls into the
//! program's crates from the outside (no span lives inside a crate):
//! each has a name, a detail (program, tenant or phase), host start and
//! end, and a parent. They stay in memory and are written out once,
//! when the run ends.
//!
//! Host durations are always measured, so untraced runs still time
//! the calls their end-to-end metrics need; spans are only *kept* while
//! the recorder is enabled and active.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static RECORDER: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder (event-loop callbacks that outlive any
/// borrow still reach it).
pub fn init(enabled: bool) -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder::new(enabled))
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Recorder {
    enabled: bool,
    active: AtomicBool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            active: AtomicBool::new(enabled),
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Keep (or stop keeping) spans; a traced run alternates rounds with
    /// spans on and off to measure the recorder's own overhead.
    pub fn set_active(&self, on: bool) {
        self.active.store(self.enabled && on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`; returns `f`'s
    /// result and its host duration in seconds. `f` receives the span
    /// id (0 when spans are not kept) to parent its own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        detail: &str,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let keep = self.active.load(Ordering::Relaxed);
        let id = if keep {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let start = Instant::now();
        let start_ns = if keep { self.now_ns() } else { 0 };
        let out = f(id);
        let secs = start.elapsed().as_secs_f64();
        if keep {
            let span = Span {
                id,
                parent,
                name,
                detail: detail.to_string(),
                start_ns,
                end_ns: self.now_ns(),
            };
            self.spans
                .lock()
                .expect("span list not poisoned")
                .push(span);
        }
        (out, secs)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list not poisoned").clone()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list not poisoned").len()
    }

    /// Durations (ms) of every kept span named `name` (and, when given,
    /// with detail `detail`).
    pub fn durations_ms(&self, name: &str, detail: Option<&str>) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
            .map(Span::ms)
            .collect()
    }

    /// Share of the host time of spans named `root` covered by their
    /// descendants that wrap a call into the program (every span except
    /// the grouping ones named in `groups`); time under spans named
    /// `excluded` counts as neither measured nor covered.
    pub fn coverage(&self, root: &str, groups: &[&str], excluded: &str) -> f64 {
        let spans = self.spans();
        let kids = children(&spans);
        let (mut covered, mut total) = (0u64, 0u64);
        for s in spans.iter().filter(|s| s.name == root) {
            total += s.end_ns - s.start_ns;
            let mut layer = Vec::new();
            let mut stack = vec![s.id];
            while let Some(id) = stack.pop() {
                for k in kids.get(&id).map_or(&[][..], |v| v) {
                    stack.push(k.id);
                    if k.name == excluded {
                        total -= k.end_ns - k.start_ns;
                    } else if !groups.contains(&k.name) {
                        layer.push(*k);
                    }
                }
            }
            covered += union_ns(s, &layer);
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Self time by span name (ms): each span's duration minus the part
    /// its direct children cover, summed over spans of that name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let kids = children(&spans);
        let mut out = BTreeMap::new();
        for s in &spans {
            let covered = union_ns(s, kids.get(&s.id).map_or(&[][..], |v| v));
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64 / 1e6;
        }
        out
    }

    /// Write the kept spans as JSON under the benchmark's `out/`
    /// directory; returns the path.
    pub fn write_out(&self, workload: &str, seed: u64) -> String {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans_{workload}_seed{seed}.json");
        let mut json = String::from("[\n");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                json.push_str(",\n");
            }
            write!(
                json,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"detail\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.detail, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        json.push_str("\n]\n");
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => path,
            Err(e) => format!("(not written: {e})"),
        }
    }
}

/// Each span's direct children, by parent id.
fn children(spans: &[Span]) -> BTreeMap<u64, Vec<&Span>> {
    let mut m: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        m.entry(s.parent).or_default().push(s);
    }
    m
}

/// Length of the union of `children` clipped to `span`.
fn union_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}
