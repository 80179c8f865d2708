//! The runtime's always-on wait-for graph.
//!
//! Every time a guest thread blocks, the runtime records *what* it is
//! waiting on ([`Resource`]) and *where* it was (a guest-provided site
//! string, typically the current method). Monitor acquisitions feed an
//! acquisition-order graph. Together these replace the opaque "every
//! live thread is blocked" deadlock report with:
//!
//! * **cycle detection with blame** — a wait-for cycle (T1 waits on a
//!   monitor held by T2, T2 joins T1, ...) is reported the moment the
//!   closing edge is added, naming each thread, the resource it is
//!   blocked on, and the site, and
//! * **lock-order-inversion warnings** — acquiring monitor B while
//!   holding A records the edge A→B; a later acquisition path that
//!   closes a cycle in that graph is a latent deadlock even if this
//!   particular schedule survived it.
//!
//! The graph is maintained by [`DoppioRuntime`](crate::DoppioRuntime):
//! guest runtimes report edges through
//! [`ThreadContext`](crate::ThreadContext) (`note_block`,
//! `note_acquire`, `note_release`); `wake` clears the blocked edge.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Something a guest thread can block on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// A guest-language lock (e.g. a JVM monitor), keyed by the guest's
    /// object id. Participates in ownership tracking and lock-order
    /// analysis.
    Monitor(u64),
    /// A condition wait on a lock's wait set (`Object.wait`): the
    /// thread has released the lock and needs a notify.
    Cond(u64),
    /// Completion of another guest thread (`Thread.join`).
    Join(usize),
    /// An asynchronous browser API completion (an `AsyncCell`), with a
    /// human-readable label like `fs.read(/classes/Main.class)`.
    Async(String),
    /// Data on a kernel pipe: a read blocked on an empty buffer. Its
    /// progress depends on whoever holds the write end, which the
    /// kernel registers through [`WaitGraph::set_owner`].
    PipeRead(u64),
    /// Space on a kernel pipe: a write blocked on a full buffer. Its
    /// progress depends on whoever holds the read end.
    PipeWrite(u64),
    /// Exit of a kernel process (`waitpid`). Its progress depends on
    /// the child's main thread.
    Child(u64),
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Monitor(o) => write!(f, "monitor #{o}"),
            Resource::Cond(o) => write!(f, "cond #{o}"),
            Resource::Join(t) => write!(f, "join(thread {t})"),
            Resource::Async(label) => write!(f, "async {label}"),
            Resource::PipeRead(p) => write!(f, "pipe #{p} (read)"),
            Resource::PipeWrite(p) => write!(f, "pipe #{p} (write)"),
            Resource::Child(pid) => write!(f, "child pid {pid}"),
        }
    }
}

/// One thread's current blocked edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEdge {
    /// What the thread is waiting for.
    pub resource: Resource,
    /// Where it blocked (guest frame / method / operation).
    pub site: String,
}

/// One node of a deadlock cycle: a thread and what it is stuck on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockThread {
    /// Runtime thread id.
    pub thread: usize,
    /// Thread name at the time of detection.
    pub name: String,
    /// The resource the thread is blocked on.
    pub resource: Resource,
    /// The guest site that blocked.
    pub site: String,
}

/// A wait-for cycle: each thread waits on a resource whose progress
/// depends on the next thread in the cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// The threads of the cycle, in wait-for order.
    pub cycle: Vec<DeadlockThread>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wait-for cycle:")?;
        for (i, t) in self.cycle.iter().enumerate() {
            let next = &self.cycle[(i + 1) % self.cycle.len()];
            write!(
                f,
                " thread {} \"{}\" at {} waits on {} (held by thread {});",
                t.thread, t.name, t.site, t.resource, next.thread
            )?;
        }
        Ok(())
    }
}

/// Two code paths acquire the same pair of locks in opposite orders — a
/// latent deadlock even when the observed schedule survived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockOrderWarning {
    /// The lock acquired first on the offending path.
    pub first: Resource,
    /// The lock acquired second (closing the cycle in the order graph).
    pub second: Resource,
    /// The thread that closed the cycle.
    pub thread: usize,
    /// The thread that witnessed the opposite order earlier.
    pub witness: usize,
}

impl fmt::Display for LockOrderWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lock-order inversion: thread {} acquired {} then {}, but thread {} established the opposite order",
            self.thread, self.first, self.second, self.witness
        )
    }
}

/// The wait-for graph plus the monitor acquisition-order graph.
#[derive(Debug, Default)]
pub struct WaitGraph {
    /// Thread → what it is currently blocked on. BTreeMap so reports
    /// are deterministically ordered.
    blocked: BTreeMap<usize, BlockEdge>,
    /// Monitor → current owner thread.
    owners: HashMap<Resource, usize>,
    /// Thread → monitors it currently holds, in acquisition order.
    held: BTreeMap<usize, Vec<Resource>>,
    /// Acquisition-order edges `(a, b)` = "a was held while b was
    /// acquired", with the first witnessing thread.
    order_edges: BTreeMap<(Resource, Resource), usize>,
    /// Inversions found so far (deduplicated by lock pair).
    warnings: Vec<LockOrderWarning>,
}

impl WaitGraph {
    /// Record that `thread` is blocked on `resource` at `site`,
    /// replacing any previous edge for the thread.
    pub fn note_block(&mut self, thread: usize, resource: Resource, site: String) {
        self.blocked.insert(thread, BlockEdge { resource, site });
    }

    /// Remove `thread`'s blocked edge (it was woken or finished).
    pub fn clear_block(&mut self, thread: usize) {
        self.blocked.remove(&thread);
    }

    /// Record that `thread` acquired `resource` (outermost acquisition
    /// only — recursion is the guest's business). Feeds ownership and
    /// the acquisition-order graph; returns a new inversion warning if
    /// this acquisition closes a cycle in lock order.
    pub fn note_acquire(&mut self, thread: usize, resource: Resource) -> Option<LockOrderWarning> {
        let mut new_warning = None;
        let held = self.held.entry(thread).or_default().clone();
        for prior in &held {
            if *prior == resource {
                continue;
            }
            let edge = (prior.clone(), resource.clone());
            self.order_edges.entry(edge).or_insert(thread);
            // Does the opposite order exist (any path resource →* prior)?
            if new_warning.is_none() && self.order_path_exists(&resource, prior) {
                let witness = self
                    .order_edges
                    .get(&(resource.clone(), prior.clone()))
                    .copied()
                    .unwrap_or(thread);
                let already = self.warnings.iter().any(|w| {
                    (w.first == *prior && w.second == resource)
                        || (w.first == resource && w.second == *prior)
                });
                if !already && witness != thread {
                    let w = LockOrderWarning {
                        first: prior.clone(),
                        second: resource.clone(),
                        thread,
                        witness,
                    };
                    self.warnings.push(w.clone());
                    new_warning = Some(w);
                }
            }
        }
        self.owners.insert(resource.clone(), thread);
        self.held.entry(thread).or_default().push(resource);
        new_warning
    }

    /// Record that `thread` released `resource` (outermost release).
    pub fn note_release(&mut self, thread: usize, resource: Resource) {
        if self.owners.get(&resource) == Some(&thread) {
            self.owners.remove(&resource);
        }
        if let Some(held) = self.held.get_mut(&thread) {
            if let Some(pos) = held.iter().rposition(|r| *r == resource) {
                held.remove(pos);
            }
        }
    }

    /// Declare the thread whose progress resolves `resource`, without
    /// treating it as a held lock (no lock-order analysis). The kernel
    /// uses this for cross-process edges: the write-end holder of a
    /// pipe owns its `PipeRead`, the read-end holder owns its
    /// `PipeWrite`, and a child process's main thread owns its
    /// `Child` — so a wait-for cycle spanning pids (a pipe-full writer
    /// vs a reader stuck in `waitpid` on the writer) closes in the
    /// same graph monitors and joins use.
    pub fn set_owner(&mut self, resource: Resource, thread: usize) {
        self.owners.insert(resource, thread);
    }

    /// Remove a [`set_owner`](Self::set_owner) registration (the
    /// resolving end was closed, or the process exited).
    pub fn clear_owner(&mut self, resource: &Resource) {
        self.owners.remove(resource);
    }

    /// Whether a path `from →* to` exists in the acquisition-order
    /// graph (graphs here are tiny; a plain DFS is fine).
    fn order_path_exists(&self, from: &Resource, to: &Resource) -> bool {
        let mut stack = vec![from.clone()];
        let mut seen = Vec::new();
        while let Some(node) = stack.pop() {
            if node == *to {
                return true;
            }
            if seen.contains(&node) {
                continue;
            }
            seen.push(node.clone());
            for (a, b) in self.order_edges.keys() {
                if *a == node {
                    stack.push(b.clone());
                }
            }
        }
        false
    }

    /// The thread whose progress `resource` is waiting for, if the
    /// graph knows one: a monitor's owner, or a join target.
    fn depends_on(&self, resource: &Resource) -> Option<usize> {
        match resource {
            Resource::Monitor(_) => self.owners.get(resource).copied(),
            Resource::Join(t) => Some(*t),
            // Kernel resources resolve through whichever thread the
            // kernel registered as holding the other end.
            Resource::PipeRead(_) | Resource::PipeWrite(_) | Resource::Child(_) => {
                self.owners.get(resource).copied()
            }
            // A cond wait or async completion has no owning thread: it
            // can be resolved from the event loop.
            Resource::Cond(_) | Resource::Async(_) => None,
        }
    }

    /// Chase wait-for edges starting at `start`; a revisit of a thread
    /// already on the path is a deadlock cycle. `name` maps thread ids
    /// to diagnostic names.
    pub fn find_cycle(
        &self,
        start: usize,
        name: &dyn Fn(usize) -> String,
    ) -> Option<DeadlockReport> {
        let mut path: Vec<usize> = Vec::new();
        let mut t = start;
        loop {
            if let Some(pos) = path.iter().position(|&p| p == t) {
                let cycle = path[pos..]
                    .iter()
                    .map(|&p| {
                        let e = self.blocked.get(&p).expect("on path ⇒ blocked");
                        DeadlockThread {
                            thread: p,
                            name: name(p),
                            resource: e.resource.clone(),
                            site: e.site.clone(),
                        }
                    })
                    .collect();
                return Some(DeadlockReport { cycle });
            }
            let edge = self.blocked.get(&t)?;
            let next = self.depends_on(&edge.resource)?;
            path.push(t);
            t = next;
        }
    }

    /// All lock-order inversions observed so far.
    pub fn warnings(&self) -> &[LockOrderWarning] {
        &self.warnings
    }

    /// Deterministic per-thread blame lines for every blocked thread
    /// (used by the whole-runtime deadlock report).
    pub fn blame_lines(&self, name: &dyn Fn(usize) -> String) -> Vec<String> {
        self.blocked
            .iter()
            .map(|(t, e)| {
                let holder = match self.depends_on(&e.resource) {
                    Some(h) => format!(" (held by thread {h})"),
                    None => String::new(),
                };
                format!(
                    "thread {} \"{}\" at {} blocked on {}{}",
                    t,
                    name(*t),
                    e.site,
                    e.resource,
                    holder
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nm(t: usize) -> String {
        format!("t{t}")
    }

    #[test]
    fn two_thread_monitor_cycle_is_found() {
        let mut g = WaitGraph::default();
        g.note_acquire(1, Resource::Monitor(10));
        g.note_acquire(2, Resource::Monitor(20));
        g.note_block(1, Resource::Monitor(20), "A.run".into());
        assert!(g.find_cycle(1, &nm).is_none(), "no cycle yet");
        g.note_block(2, Resource::Monitor(10), "B.run".into());
        let report = g.find_cycle(2, &nm).expect("cycle");
        assert_eq!(report.cycle.len(), 2);
        let ids: Vec<usize> = report.cycle.iter().map(|t| t.thread).collect();
        assert!(ids.contains(&1) && ids.contains(&2));
        let text = report.to_string();
        assert!(
            text.contains("monitor #10") && text.contains("monitor #20"),
            "{text}"
        );
        assert!(text.contains("A.run") && text.contains("B.run"), "{text}");
    }

    #[test]
    fn join_cycle_is_found() {
        let mut g = WaitGraph::default();
        g.note_block(1, Resource::Join(2), "main".into());
        g.note_block(2, Resource::Join(1), "worker".into());
        let report = g.find_cycle(1, &nm).expect("join cycle");
        assert_eq!(report.cycle.len(), 2);
    }

    #[test]
    fn async_edges_never_form_cycles() {
        let mut g = WaitGraph::default();
        g.note_block(1, Resource::Async("fs.read(/a)".into()), "main".into());
        assert!(g.find_cycle(1, &nm).is_none());
        assert!(g.blame_lines(&nm)[0].contains("fs.read(/a)"));
    }

    #[test]
    fn cross_process_pipe_waitpid_cycle_is_found() {
        // Thread 1 (writer process main) blocks on a full pipe whose
        // read end is held by thread 2; thread 2 (reader process main)
        // is waitpid-ing the writer. The kernel registers both owner
        // edges; the graph must close the cycle.
        let mut g = WaitGraph::default();
        g.set_owner(Resource::PipeWrite(7), 2); // reader resolves writes
        g.set_owner(Resource::Child(1), 1); // writer's main thread
        g.note_block(1, Resource::PipeWrite(7), "stdout".into());
        assert!(g.find_cycle(1, &nm).is_none(), "no cycle yet");
        g.note_block(2, Resource::Child(1), "waitpid(1)".into());
        let report = g.find_cycle(2, &nm).expect("cross-process cycle");
        assert_eq!(report.cycle.len(), 2);
        let text = report.to_string();
        assert!(text.contains("pipe #7 (write)"), "{text}");
        assert!(text.contains("child pid 1"), "{text}");
        // Clearing the owner (process exited) breaks the chain.
        g.clear_owner(&Resource::Child(1));
        assert!(g.find_cycle(2, &nm).is_none());
    }

    #[test]
    fn lock_order_inversion_is_reported_once() {
        let mut g = WaitGraph::default();
        // Thread 1: A then B. Thread 2: B then A.
        g.note_acquire(1, Resource::Monitor(1));
        assert!(g.note_acquire(1, Resource::Monitor(2)).is_none());
        g.note_release(1, Resource::Monitor(2));
        g.note_release(1, Resource::Monitor(1));
        g.note_acquire(2, Resource::Monitor(2));
        let w = g.note_acquire(2, Resource::Monitor(1)).expect("inversion");
        assert_eq!(w.witness, 1);
        assert_eq!(w.thread, 2);
        // The same pair again does not re-warn.
        g.note_release(2, Resource::Monitor(1));
        g.note_release(2, Resource::Monitor(2));
        g.note_acquire(2, Resource::Monitor(2));
        assert!(g.note_acquire(2, Resource::Monitor(1)).is_none());
        assert_eq!(g.warnings().len(), 1);
    }

    #[test]
    fn release_clears_ownership_and_held_sets() {
        let mut g = WaitGraph::default();
        g.note_acquire(1, Resource::Monitor(5));
        g.note_release(1, Resource::Monitor(5));
        g.note_block(2, Resource::Monitor(5), "x".into());
        // No owner: the chain ends, no cycle and no holder blame.
        assert!(g.find_cycle(2, &nm).is_none());
        assert!(!g.blame_lines(&nm)[0].contains("held by"));
    }
}
