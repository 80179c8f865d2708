//! Operation-history recording and consistency oracles.
//!
//! Every client operation is recorded with its *invocation* and
//! *completion* virtual timestamps, giving a concurrent history in the
//! Herlihy–Wing sense. Two checkers run over it:
//!
//! - [`HistoryRecorder::check_read_your_writes`] — the per-tenant
//!   session guarantee: a client that completed a write must see it in
//!   every later read of the same key. Clients are assumed to issue
//!   their operations sequentially (the harness awaits each op), and
//!   tenants are assumed to own disjoint key spaces.
//! - [`HistoryRecorder::check_linearizable`] — a per-key Wing–Gong
//!   search for a linearization: a total order of the completed
//!   operations, consistent with real time, in which every read
//!   returns the latest preceding write.
//!
//! The rendered history ([`HistoryRecorder::render`]) is the artifact
//! CI uploads when a check fails, so violations are diagnosable from
//! the transcript alone.
//!
//! Values are recorded as the shared [`Bytes`] the client already
//! holds, so a history keeps no copy of what was written or read; the
//! oracles compare bytes, and `render` turns them into text.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use doppio_sockets::Bytes;

/// What an operation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// A get; `observed` on the event records what it returned.
    Read,
    /// A put (`Some(value)`) or delete (`None`).
    Write(Option<Bytes>),
}

/// One recorded operation.
#[derive(Debug, Clone)]
pub struct HistEvent {
    /// Issuing client label.
    pub client: String,
    /// Object key.
    pub key: String,
    /// Read or write.
    pub kind: OpKind,
    /// Virtual time the client issued the op.
    pub invoke_ns: u64,
    /// Virtual time the op completed (`None` while pending).
    pub complete_ns: Option<u64>,
    /// For reads: the value observed (`None` = key absent).
    pub observed: Option<Bytes>,
}

/// A shared, append-only history of client operations.
#[derive(Clone, Default)]
pub struct HistoryRecorder {
    events: Rc<RefCell<Vec<HistEvent>>>,
}

impl HistoryRecorder {
    /// An empty history.
    pub fn new() -> HistoryRecorder {
        HistoryRecorder::default()
    }

    /// Record an invocation; the returned token completes it.
    pub fn begin(&self, client: &str, key: &str, kind: OpKind, now_ns: u64) -> usize {
        let mut ev = self.events.borrow_mut();
        ev.push(HistEvent {
            client: client.to_string(),
            key: key.to_string(),
            kind,
            invoke_ns: now_ns,
            complete_ns: None,
            observed: None,
        });
        ev.len() - 1
    }

    /// Record a completion. `observed` is the value a read returned.
    pub fn complete(&self, token: usize, now_ns: u64, observed: Option<Bytes>) {
        let mut ev = self.events.borrow_mut();
        let e = &mut ev[token];
        e.complete_ns = Some(now_ns);
        e.observed = observed;
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// A clone of the raw events.
    pub fn events(&self) -> Vec<HistEvent> {
        self.events.borrow().clone()
    }

    /// The history as deterministic text (the CI failure artifact).
    /// Values render as UTF-8, invalid sequences replaced.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, e) in self.events.borrow().iter().enumerate() {
            let (op, val) = match &e.kind {
                OpKind::Read => (
                    "get",
                    e.observed
                        .as_deref()
                        .map_or("∅".into(), String::from_utf8_lossy),
                ),
                OpKind::Write(Some(v)) => ("put", String::from_utf8_lossy(v)),
                OpKind::Write(None) => ("del", "".into()),
            };
            let complete = e
                .complete_ns
                .map(|t| t.to_string())
                .unwrap_or_else(|| "pending".into());
            out.push_str(&format!(
                "#{i} {} {op} {} [{}..{}] {}\n",
                e.client, e.key, e.invoke_ns, complete, val
            ));
        }
        out
    }

    /// Check the per-client read-your-writes session guarantee.
    ///
    /// Assumes each client issues ops sequentially and clients write
    /// disjoint key sets (the harness's per-tenant layout), so a
    /// client's reads must observe exactly its own latest completed
    /// write to each key. Pending (never-completed) ops are violations
    /// too: the store failed to stay available.
    pub fn check_read_your_writes(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let events = self.events.borrow();
        let mut last: HashMap<(String, String), Option<Bytes>> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            if e.complete_ns.is_none() {
                return Err(format!(
                    "op #{i} ({} {} {}) never completed",
                    e.client,
                    match e.kind {
                        OpKind::Read => "get",
                        OpKind::Write(Some(_)) => "put",
                        OpKind::Write(None) => "del",
                    },
                    e.key
                ));
            }
            let slot = (e.client.clone(), e.key.clone());
            match &e.kind {
                OpKind::Write(v) => {
                    last.insert(slot, v.clone());
                }
                OpKind::Read => {
                    if let Some(expected) = last.get(&slot) {
                        if &e.observed != expected {
                            return Err(format!(
                                "read-your-writes violated: op #{i} {} get {} observed {:?}, \
                                 expected {:?}",
                                e.client,
                                e.key,
                                e.observed.as_deref().map(String::from_utf8_lossy),
                                expected.as_deref().map(String::from_utf8_lossy)
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Check per-key linearizability over the completed operations.
    pub fn check_linearizable(&self) -> Result<(), String> {
        use std::collections::BTreeMap;
        let events = self.events.borrow();
        let mut per_key: BTreeMap<&str, Vec<&HistEvent>> = BTreeMap::new();
        for e in events.iter() {
            if e.complete_ns.is_some() {
                per_key.entry(&e.key).or_default().push(e);
            }
        }
        for (key, ops) in per_key {
            if ops.len() > 62 {
                return Err(format!("key {key}: history too large to check"));
            }
            if !linearizable(&ops) {
                return Err(format!("key {key}: no linearization exists"));
            }
        }
        Ok(())
    }
}

/// Wing–Gong DFS: is there a total order of `ops` consistent with the
/// invoke/complete partial order in which every read sees the latest
/// preceding write? Initial state: key absent.
fn linearizable(ops: &[&HistEvent]) -> bool {
    fn dfs(
        ops: &[&HistEvent],
        taken: u64,
        state: &Option<Bytes>,
        seen: &mut HashSet<(u64, Option<Bytes>)>,
    ) -> bool {
        if taken.count_ones() as usize == ops.len() {
            return true;
        }
        if !seen.insert((taken, state.clone())) {
            return false;
        }
        // A candidate must be invoked before every untaken op completes
        // (otherwise it would linearize after an op that finished
        // strictly before it started).
        let min_complete = ops
            .iter()
            .enumerate()
            .filter(|(i, _)| taken & (1 << i) == 0)
            .map(|(_, e)| e.complete_ns.unwrap())
            .min()
            .unwrap();
        for (i, e) in ops.iter().enumerate() {
            if taken & (1 << i) != 0 || e.invoke_ns > min_complete {
                continue;
            }
            match &e.kind {
                OpKind::Read => {
                    if &e.observed == state && dfs(ops, taken | (1 << i), state, seen) {
                        return true;
                    }
                }
                OpKind::Write(v) => {
                    if dfs(ops, taken | (1 << i), v, seen) {
                        return true;
                    }
                }
            }
        }
        false
    }
    dfs(ops, 0, &None, &mut HashSet::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    type Ev<'a> = (&'a str, &'a str, OpKind, u64, u64, Option<&'a str>);

    fn rec(events: &[Ev]) -> HistoryRecorder {
        let h = HistoryRecorder::new();
        for (client, key, kind, inv, comp, obs) in events {
            let t = h.begin(client, key, kind.clone(), *inv);
            h.complete(t, *comp, obs.map(Bytes::from));
        }
        h
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let h = rec(&[
            ("a", "/k", OpKind::Write(Some("1".into())), 0, 10, None),
            ("b", "/k", OpKind::Read, 20, 30, Some("1")),
            ("a", "/k", OpKind::Write(None), 40, 50, None),
            ("b", "/k", OpKind::Read, 60, 70, None),
        ]);
        h.check_linearizable().unwrap();
        h.check_read_your_writes().unwrap();
    }

    #[test]
    fn stale_read_after_acked_write_is_flagged() {
        // The write completed at 10; a read starting at 20 that still
        // sees the old (absent) value has no linearization point.
        let h = rec(&[
            ("a", "/k", OpKind::Write(Some("1".into())), 0, 10, None),
            ("a", "/k", OpKind::Read, 20, 30, None),
        ]);
        assert!(h.check_linearizable().is_err());
        assert!(h.check_read_your_writes().is_err());
    }

    #[test]
    fn concurrent_ops_may_linearize_either_way() {
        // Write and read overlap: the read may see either value.
        for observed in [None, Some("1")] {
            let h = rec(&[
                ("a", "/k", OpKind::Write(Some("1".into())), 0, 100, None),
                ("b", "/k", OpKind::Read, 10, 90, observed),
            ]);
            h.check_linearizable().unwrap();
        }
    }

    #[test]
    fn pending_ops_fail_read_your_writes() {
        let h = HistoryRecorder::new();
        h.begin("a", "/k", OpKind::Read, 0);
        assert!(h
            .check_read_your_writes()
            .unwrap_err()
            .contains("never completed"));
    }

    #[test]
    fn render_is_deterministic_text() {
        let h = rec(&[("a", "/k", OpKind::Write(Some("v".into())), 1, 2, None)]);
        assert_eq!(h.render(), "#0 a put /k [1..2] v\n");
    }
}
