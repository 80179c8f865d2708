//! The simulated replicated object store: N storage-node processes on
//! one event loop.
//!
//! Node 0 is the **primary**; nodes 1..N are **backups**. Clients talk
//! to the primary only. A write is journaled (durable), applied to the
//! volatile object map, streamed to every backup as a `Replicate{seq}`
//! frame, and acknowledged to the client; backups journal and apply in
//! sequence order and return `Ack{seq}` cursors that drive
//! retransmission. A crash (injected by
//! [`FaultPlan::storage_fault`](doppio_faults::FaultPlan::storage_fault)
//! or forced by [`StorageCluster::crash`]) drops a node's volatile
//! state and connections; the journal survives and is replayed on
//! restart, so recovery is idempotent — a record whose sequence number
//! is already durable is ignored. A partition silences one replication
//! link until it heals; the resend timer catches the backup up.
//!
//! The deliberate protocol bug used by the crash-consistency canary is
//! [`StorageConfig::ack_before_journal`]: acknowledge the client
//! *before* journaling, so a crash in the window loses an acked write.
//! With the flag off (the default), the ack only ever follows primary
//! durability and read-your-writes holds through any crash schedule.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::{Rc, Weak};

use doppio_faults::{FaultPlan, StorageFault};
use doppio_jsengine::Engine;
use doppio_sockets::{ConnId, Network, ServerConn, TcpServerApp};
use doppio_trace::SpanContext;

use crate::client::StorageClient;
use crate::proto::{
    encode_invalidate, encode_replicate, encode_response, Frame, FrameBuffer, RequestOp, WriteOp,
};

/// Cluster shape and protocol knobs.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Total nodes including the primary (≥ 1).
    pub replicas: usize,
    /// Node `i` listens on `base_port + i`; clients use `base_port`.
    pub base_port: u16,
    /// **Bug switch** for the canary: acknowledge writes before the
    /// journal append, so a crash in between loses an acked write.
    pub ack_before_journal: bool,
    /// Retransmission interval for unacked replication records.
    pub resend_ns: u64,
    /// Backoff before re-dialing a lost replication link.
    pub reconnect_ns: u64,
}

impl Default for StorageConfig {
    fn default() -> StorageConfig {
        StorageConfig {
            replicas: 3,
            base_port: 7100,
            ack_before_journal: false,
            resend_ns: 5_000_000,
            reconnect_ns: 2_000_000,
        }
    }
}

struct Node {
    name: String,
    port: u16,
    up: Cell<bool>,
    /// Volatile object map — lost on crash, rebuilt from the journal.
    /// Each key maps to the journaled put that wrote it, so the map and
    /// the journal share one copy of the blob.
    objects: RefCell<BTreeMap<String, Rc<WriteOp>>>,
    /// Durable write-back journal: `(op, ctx)` in sequence order. It is
    /// dense and 1-based, so the record for sequence number `seq` sits
    /// at index `seq - 1`. The causal context of the appending span
    /// rides along so retransmissions can link back to the write that
    /// created the record.
    journal: RefCell<Vec<Record>>,
    /// Highest sequence number applied to `objects` (volatile).
    applied: Cell<u64>,
    /// Out-of-order replicate frames awaiting their gap (volatile).
    holdback: RefCell<BTreeMap<u64, WriteOp>>,
    /// All live server-side connections.
    conns: RefCell<HashMap<u64, ServerConn>>,
    /// The subset of `conns` that issued client `Request`s (these get
    /// cache-invalidation pushes).
    client_conns: RefCell<BTreeSet<u64>>,
    /// Per-connection reassembly buffers.
    bufs: RefCell<HashMap<u64, FrameBuffer>>,
}

/// One journal record: the write, and the causal context of the span
/// that appended it.
type Record = (Rc<WriteOp>, Option<SpanContext>);

struct ReplLink {
    /// Index of the backup this link feeds.
    target: usize,
    conn: Cell<Option<ConnId>>,
    partitioned: Cell<bool>,
    /// Highest sequence number the backup has acked.
    acked: Cell<u64>,
    /// A dial or retry timer is in flight.
    dialing: Cell<bool>,
}

struct ClusterInner {
    engine: Engine,
    net: Network,
    cfg: StorageConfig,
    plan: Option<FaultPlan>,
    nodes: Vec<Node>,
    links: Vec<Rc<ReplLink>>,
    resend_armed: Cell<bool>,
}

/// Handle to a launched cluster (cheaply cloneable).
#[derive(Clone)]
pub struct StorageCluster {
    inner: Rc<ClusterInner>,
}

struct NodeApp {
    cluster: Weak<ClusterInner>,
    idx: usize,
}

fn counter(engine: &Engine, name: &str) {
    engine.metrics().counter(name).inc();
}

impl StorageCluster {
    /// Launch `cfg.replicas` nodes on `net` and dial the replication
    /// links. Faults (crashes, partitions) are drawn from `plan` at
    /// every protocol step when one is supplied.
    pub fn launch(
        engine: &Engine,
        net: &Network,
        cfg: StorageConfig,
        plan: Option<FaultPlan>,
    ) -> StorageCluster {
        assert!(cfg.replicas >= 1, "a cluster needs at least the primary");
        let nodes = (0..cfg.replicas)
            .map(|i| Node {
                name: format!("node{i}"),
                port: cfg.base_port + i as u16,
                up: Cell::new(true),
                objects: RefCell::new(BTreeMap::new()),
                journal: RefCell::new(Vec::new()),
                applied: Cell::new(0),
                holdback: RefCell::new(BTreeMap::new()),
                conns: RefCell::new(HashMap::new()),
                client_conns: RefCell::new(BTreeSet::new()),
                bufs: RefCell::new(HashMap::new()),
            })
            .collect::<Vec<_>>();
        let links = (1..cfg.replicas)
            .map(|i| {
                Rc::new(ReplLink {
                    target: i,
                    conn: Cell::new(None),
                    partitioned: Cell::new(false),
                    acked: Cell::new(0),
                    dialing: Cell::new(false),
                })
            })
            .collect::<Vec<_>>();
        let inner = Rc::new(ClusterInner {
            engine: engine.clone(),
            net: net.clone(),
            cfg,
            plan,
            nodes,
            links,
            resend_armed: Cell::new(false),
        });
        for i in 0..inner.nodes.len() {
            listen(&inner, i);
        }
        for l in 0..inner.links.len() {
            dial_link(&inner, l);
        }
        StorageCluster { inner }
    }

    /// A new client session (own connection, cache, and request ids)
    /// talking to the primary.
    pub fn client(&self, label: &str, cache: bool) -> StorageClient {
        let client = StorageClient::new(&self.inner.net, self.inner.cfg.base_port, label, cache);
        client.hold_world(self.inner.clone());
        client
    }

    /// Force-crash node `idx` now; it restarts after `restart_after_ns`.
    pub fn crash(&self, idx: usize, restart_after_ns: u64) {
        crash_node(&self.inner, idx, restart_after_ns);
    }

    /// Whether node `idx` is currently up.
    pub fn is_up(&self, idx: usize) -> bool {
        self.inner.nodes[idx].up.get()
    }

    /// The blob at `key` on node `idx` (direct state inspection).
    pub fn object(&self, idx: usize, key: &str) -> Option<Vec<u8>> {
        let objects = self.inner.nodes[idx].objects.borrow();
        objects
            .get(key)
            .and_then(|op| op.data())
            .map(<[u8]>::to_vec)
    }

    /// Number of journal records on node `idx`.
    pub fn journal_len(&self, idx: usize) -> usize {
        self.inner.nodes[idx].journal.borrow().len()
    }

    /// Highest applied sequence number on node `idx`.
    pub fn applied(&self, idx: usize) -> u64 {
        self.inner.nodes[idx].applied.get()
    }

    /// Number of distinct objects on node `idx`.
    pub fn object_count(&self, idx: usize) -> usize {
        self.inner.nodes[idx].objects.borrow().len()
    }
}

fn listen(inner: &Rc<ClusterInner>, idx: usize) {
    let app = Rc::new(NodeApp {
        cluster: Rc::downgrade(inner),
        idx,
    });
    inner.net.listen(inner.nodes[idx].port, app);
}

impl TcpServerApp for NodeApp {
    fn on_connect(&self, _engine: &Engine, conn: ServerConn) {
        let Some(inner) = self.cluster.upgrade() else {
            return;
        };
        let node = &inner.nodes[self.idx];
        if !node.up.get() {
            // The dial raced a crash: the accept was in flight when the
            // process died. A dead process cannot hold a connection
            // half-open; reset it so the peer retries.
            conn.close();
            return;
        }
        node.conns.borrow_mut().insert(conn.id().0, conn);
    }

    fn on_data(&self, engine: &Engine, conn: ServerConn, data: Vec<u8>) {
        let Some(inner) = self.cluster.upgrade() else {
            return;
        };
        let node = &inner.nodes[self.idx];
        if !node.up.get() {
            // Data raced the crash notification; kill the connection so
            // the sender sees the close instead of silence.
            conn.close();
            return;
        }
        let frames = node
            .bufs
            .borrow_mut()
            .entry(conn.id().0)
            .or_default()
            .push(&data);
        for frame in frames {
            if !node.up.get() {
                return; // a frame crashed the node; drop the rest
            }
            match frame {
                Frame::Request { req_id, op, ctx } => {
                    node.client_conns.borrow_mut().insert(conn.id().0);
                    handle_request(&inner, self.idx, &conn, req_id, op, ctx, engine);
                }
                Frame::Replicate { seq, op, ctx } => {
                    handle_replicate(&inner, self.idx, &conn, seq, op, ctx, engine);
                }
                // Acks arrive on the primary's *client-side* link
                // handlers, never here; anything else is noise.
                _ => {}
            }
        }
    }

    fn on_close(&self, _engine: &Engine, conn: ConnId) {
        let Some(inner) = self.cluster.upgrade() else {
            return;
        };
        let node = &inner.nodes[self.idx];
        node.conns.borrow_mut().remove(&conn.0);
        node.client_conns.borrow_mut().remove(&conn.0);
        node.bufs.borrow_mut().remove(&conn.0);
    }
}

/// Consult the fault plan for one protocol step on `node`; a drawn
/// crash is executed immediately and reported as `true`.
fn crash_fault(inner: &Rc<ClusterInner>, idx: usize, op: &'static str, engine: &Engine) -> bool {
    let Some(plan) = &inner.plan else {
        return false;
    };
    match plan.storage_fault(engine, &inner.nodes[idx].name, op) {
        Some(StorageFault::Crash { restart_after_ns }) => {
            crash_node(inner, idx, restart_after_ns);
            true
        }
        // Partitions only fire for op == "replicate", handled there.
        Some(StorageFault::Partition { .. }) | None => false,
    }
}

fn handle_request(
    inner: &Rc<ClusterInner>,
    idx: usize,
    conn: &ServerConn,
    req_id: u64,
    op: RequestOp,
    ctx: Option<SpanContext>,
    engine: &Engine,
) {
    match op {
        RequestOp::Get { key } => {
            if crash_fault(inner, idx, "get", engine) {
                return;
            }
            let frame = {
                let objects = inner.nodes[idx].objects.borrow();
                encode_response(req_id, objects.get(&key).and_then(|op| op.data()))
            };
            conn.send(frame);
        }
        RequestOp::Write(w) => {
            let opname: &'static str = match w {
                WriteOp::Put { .. } => "put",
                WriteOp::Delete { .. } => "delete",
            };
            if inner.cfg.ack_before_journal {
                // THE BUG under test: the ack races the journal append.
                conn.send(encode_response(req_id, None));
                if crash_fault(inner, idx, opname, engine) {
                    return; // acked write lost — never journaled
                }
                commit_write(inner, idx, conn.id().0, w, ctx, engine);
            } else {
                // Correct order: durable first, ack last.
                if crash_fault(inner, idx, opname, engine) {
                    return; // un-acked; the client will retry
                }
                commit_write(inner, idx, conn.id().0, w, ctx, engine);
                if !inner.nodes[idx].up.get() {
                    return; // crashed at the post-journal decision point
                }
                conn.send(encode_response(req_id, None));
            }
        }
    }
}

/// Journal, apply, replicate, invalidate — the primary commit path.
/// May crash at the post-journal ("apply") decision point, in which
/// case the record is durable but unapplied until replay.
fn commit_write(
    inner: &Rc<ClusterInner>,
    idx: usize,
    from_conn: u64,
    w: WriteOp,
    ctx: Option<SpanContext>,
    engine: &Engine,
) {
    let node = &inner.nodes[idx];
    let append_ctx = engine.causal().current().or(ctx);
    let w = Rc::new(w);
    let seq = {
        let mut journal = node.journal.borrow_mut();
        journal.push((w.clone(), append_ctx));
        journal.len() as u64
    };
    counter(engine, "storage.journal.append");
    mark_journal_append(engine, ctx, seq);
    if crash_fault(inner, idx, "apply", engine) {
        return; // durable but unapplied: journal replay recovers it
    }
    apply_op(&mut node.objects.borrow_mut(), &w);
    node.applied.set(seq);
    replicate_all(inner, seq, &w, ctx, engine);
    invalidate_others(node, from_conn, w.key());
}

/// Record the durability point on the causal graph: the marker sits on
/// the handling dispatch span (fallback: the wire context), keyed by
/// the log sequence number so `TraceQuery::assert_happens_before`
/// can pair it with the matching replication ack.
fn mark_journal_append(engine: &Engine, wire_ctx: Option<SpanContext>, seq: u64) {
    let causal = engine.causal();
    if let Some(c) = causal.current().or(wire_ctx) {
        causal.mark("storage.journal.append", c, seq, engine.now_ns());
    }
}

fn apply_op(objects: &mut BTreeMap<String, Rc<WriteOp>>, op: &Rc<WriteOp>) {
    match &**op {
        WriteOp::Put { key, .. } => {
            objects.insert(key.clone(), op.clone());
        }
        WriteOp::Delete { key } => {
            objects.remove(key);
        }
    }
}

fn invalidate_others(node: &Node, from_conn: u64, key: &str) {
    let ids: Vec<u64> = node
        .client_conns
        .borrow()
        .iter()
        .copied()
        .filter(|id| *id != from_conn)
        .collect();
    let conns = node.conns.borrow();
    for id in ids {
        if let Some(c) = conns.get(&id) {
            c.send(encode_invalidate(key));
        }
    }
}

fn replicate_all(
    inner: &Rc<ClusterInner>,
    seq: u64,
    op: &WriteOp,
    ctx: Option<SpanContext>,
    engine: &Engine,
) {
    for l in 0..inner.links.len() {
        let link = inner.links[l].clone();
        if link.partitioned.get() {
            continue; // resend catches up after the heal
        }
        if let Some(plan) = &inner.plan {
            match plan.storage_fault(engine, &inner.nodes[link.target].name, "replicate") {
                Some(StorageFault::Crash { restart_after_ns }) => {
                    // The *backup* dies mid-replication.
                    crash_node(inner, link.target, restart_after_ns);
                    continue;
                }
                Some(StorageFault::Partition { heal_after_ns }) => {
                    link.partitioned.set(true);
                    counter(engine, "storage.link.partition");
                    let w = Rc::downgrade(inner);
                    let li = l;
                    engine.complete_async_after(heal_after_ns, move |e| {
                        let Some(inner) = w.upgrade() else { return };
                        inner.links[li].partitioned.set(false);
                        counter(e, "storage.link.heal");
                        resend_link(&inner, li, e);
                        arm_resend(&inner, e);
                    });
                    continue;
                }
                None => {}
            }
        }
        if let Some(conn) = link.conn.get() {
            let frame = encode_replicate(seq, op, ctx);
            if inner.net.client_send(conn, frame).is_ok() {
                counter(engine, "storage.replicate.sent");
            }
        }
    }
    arm_resend(inner, engine);
}

/// Retransmit every journal record the backup behind link `l` has not
/// acked yet: the journal's suffix after the acked sequence number.
fn resend_link(inner: &Rc<ClusterInner>, l: usize, engine: &Engine) {
    let link = &inner.links[l];
    if link.partitioned.get() {
        return;
    }
    let Some(conn) = link.conn.get() else { return };
    let acked = link.acked.get();
    let records: Vec<Record> = inner.nodes[0]
        .journal
        .borrow()
        .get(acked as usize..)
        .map_or_else(Vec::new, <[Record]>::to_vec);
    for (seq, (op, ctx)) in (acked + 1..).zip(records) {
        // A "retry" flow links the retransmission back to the write
        // that journaled this record: the resend timer may have been
        // armed by an unrelated commit, so without this edge the
        // record's eventual ack would be causally orphaned.
        let causal = engine.causal();
        if let (Some(src), Some(dst)) = (ctx, causal.current()) {
            let now = engine.now_ns();
            let fid = causal.flow_start("retry", src, now, 0);
            causal.flow_end("retry", fid, dst, now, 0);
        }
        if inner
            .net
            .client_send(conn, encode_replicate(seq, &op, ctx))
            .is_ok()
        {
            counter(engine, "storage.replicate.resent");
        }
    }
}

/// Highest sequence number in the primary journal.
fn primary_seq(inner: &ClusterInner) -> u64 {
    inner.nodes[0].journal.borrow().len() as u64
}

fn arm_resend(inner: &Rc<ClusterInner>, engine: &Engine) {
    if inner.resend_armed.get() {
        return;
    }
    let target = primary_seq(inner);
    if inner.links.iter().all(|l| l.acked.get() >= target) {
        return;
    }
    inner.resend_armed.set(true);
    let w = Rc::downgrade(inner);
    engine.complete_async_after(inner.cfg.resend_ns, move |e| {
        let Some(inner) = w.upgrade() else { return };
        inner.resend_armed.set(false);
        if !inner.nodes[0].up.get() {
            return; // primary recovery re-dials and re-arms
        }
        for l in 0..inner.links.len() {
            resend_link(&inner, l, e);
        }
        arm_resend(&inner, e);
    });
}

fn handle_replicate(
    inner: &Rc<ClusterInner>,
    idx: usize,
    conn: &ServerConn,
    seq: u64,
    op: WriteOp,
    ctx: Option<SpanContext>,
    engine: &Engine,
) {
    let node = &inner.nodes[idx];
    if seq > node.applied.get() {
        node.holdback.borrow_mut().insert(seq, op);
        let mut applied = node.applied.get();
        loop {
            let next = node.holdback.borrow_mut().remove(&(applied + 1));
            let Some(op) = next else { break };
            applied += 1;
            let append_ctx = engine.causal().current().or(ctx);
            let op = Rc::new(op);
            {
                let mut journal = node.journal.borrow_mut();
                journal.push((op.clone(), append_ctx));
                debug_assert_eq!(journal.len() as u64, applied, "journal is dense");
            }
            counter(engine, "storage.journal.append");
            mark_journal_append(engine, ctx, applied);
            apply_op(&mut node.objects.borrow_mut(), &op);
            counter(engine, "storage.replicate.applied");
        }
        node.applied.set(applied);
    }
    // Ack the contiguous durable prefix (duplicates just re-ack).
    conn.send(
        Frame::Ack {
            seq: node.applied.get(),
        }
        .encode(),
    );
}

fn crash_node(inner: &Rc<ClusterInner>, idx: usize, restart_after_ns: u64) {
    let node = &inner.nodes[idx];
    if !node.up.get() {
        return;
    }
    node.up.set(false);
    counter(&inner.engine, "storage.node.crash");
    inner.net.unlisten(node.port);
    // Volatile state is gone.
    node.objects.borrow_mut().clear();
    node.holdback.borrow_mut().clear();
    node.applied.set(0);
    node.bufs.borrow_mut().clear();
    // Sever every connection; peers see closes and recover on their own.
    // Close in conn-id order: HashMap iteration order varies per thread,
    // and the close notifications must enqueue deterministically.
    let mut conns: Vec<ServerConn> = node.conns.borrow().values().cloned().collect();
    conns.sort_by_key(|c| c.id().0);
    for c in conns {
        c.close();
    }
    node.conns.borrow_mut().clear();
    node.client_conns.borrow_mut().clear();
    if idx == 0 {
        // The primary's outgoing links die with it; acks are volatile,
        // so recovery resends the whole journal (backups dedupe).
        for link in &inner.links {
            if let Some(c) = link.conn.take() {
                inner.net.client_close(c);
            }
            link.acked.set(0);
        }
    }
    let w = Rc::downgrade(inner);
    inner
        .engine
        .complete_async_after(restart_after_ns, move |e| {
            let Some(inner) = w.upgrade() else { return };
            recover_node(&inner, idx, e);
        });
}

/// Restart a crashed node: replay the journal into a fresh object map
/// (idempotent — the journal is the single source of truth), resume
/// listening, and re-dial replication links if this is the primary.
fn recover_node(inner: &Rc<ClusterInner>, idx: usize, engine: &Engine) {
    let node = &inner.nodes[idx];
    if node.up.get() {
        return;
    }
    {
        let journal = node.journal.borrow();
        let mut objects = node.objects.borrow_mut();
        objects.clear();
        for (op, _) in journal.iter() {
            apply_op(&mut objects, op);
        }
        node.applied.set(journal.len() as u64);
        engine
            .metrics()
            .counter("storage.journal.replayed")
            .add(journal.len() as u64);
    }
    node.up.set(true);
    counter(engine, "storage.node.restart");
    listen(inner, idx);
    if idx == 0 {
        for l in 0..inner.links.len() {
            dial_link(inner, l);
        }
    }
}

/// Dial (or re-dial) replication link `l`; retries with backoff until
/// the backup accepts, then retransmits everything unacked.
fn dial_link(inner: &Rc<ClusterInner>, l: usize) {
    let link = &inner.links[l];
    if link.dialing.get() || link.conn.get().is_some() || !inner.nodes[0].up.get() {
        return;
    }
    link.dialing.set(true);
    attempt_dial(inner, l);
}

fn attempt_dial(inner: &Rc<ClusterInner>, l: usize) {
    let link = inner.links[l].clone();
    if !inner.nodes[0].up.get() {
        link.dialing.set(false);
        return;
    }
    let port = inner.nodes[link.target].port;
    let mut buf = FrameBuffer::new();
    let w = Rc::downgrade(inner);
    let wd = w.clone();
    let handlers = doppio_sockets::ClientHandlers {
        on_connect: None,
        on_data: Some(Box::new(move |e, data| {
            let Some(inner) = w.upgrade() else { return };
            for frame in buf.push(&data) {
                if let Frame::Ack { seq } = frame {
                    // The replication ack's arrival at the primary is
                    // the causal effect the journal append must
                    // precede; seq 0 acks carry no durability claim.
                    if seq > 0 {
                        let causal = e.causal();
                        if let Some(c) = causal.current() {
                            causal.mark("storage.repl.ack", c, seq, e.now_ns());
                        }
                    }
                    let link = &inner.links[l];
                    if seq > link.acked.get() {
                        link.acked.set(seq);
                    }
                }
            }
        })),
        on_close: Some(Box::new(move |e| {
            let Some(inner) = wd.upgrade() else { return };
            let link = &inner.links[l];
            link.conn.set(None);
            // Re-dial after backoff (the backup may be restarting).
            link.dialing.set(true);
            let w = Rc::downgrade(&inner);
            e.complete_async_after(inner.cfg.reconnect_ns, move |_e| {
                let Some(inner) = w.upgrade() else { return };
                attempt_dial(&inner, l);
            });
        })),
    };
    match inner.net.connect(port, handlers) {
        Ok(id) => {
            link.conn.set(Some(id));
            link.dialing.set(false);
            resend_link(inner, l, &inner.engine);
            arm_resend(inner, &inner.engine);
        }
        Err(_) => {
            // Backup is down; retry after backoff.
            let w = Rc::downgrade(inner);
            inner
                .engine
                .complete_async_after(inner.cfg.reconnect_ns, move |_e| {
                    let Some(inner) = w.upgrade() else { return };
                    attempt_dial(&inner, l);
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_jsengine::Browser;

    fn put(client: &StorageClient, engine: &Engine, key: &str, data: &[u8]) {
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        client.kv_write(
            engine,
            WriteOp::Put {
                key: key.into(),
                data: data.to_vec(),
            },
            Box::new(move |_, r| {
                r.unwrap();
                d.set(true);
            }),
        );
        engine.run_until_idle();
        assert!(done.get(), "put completed");
    }

    fn get(client: &StorageClient, engine: &Engine, key: &str) -> Option<Vec<u8>> {
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        client.kv_get(
            engine,
            key,
            Box::new(move |_, r| *o.borrow_mut() = Some(r.unwrap())),
        );
        engine.run_until_idle();
        let v = out.borrow_mut().take().expect("get completed");
        v
    }

    #[test]
    fn writes_replicate_to_every_backup() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let cluster = StorageCluster::launch(&engine, &net, StorageConfig::default(), None);
        let client = cluster.client("t0", false);
        put(&client, &engine, "/a", b"alpha");
        put(&client, &engine, "/b", b"beta");
        for idx in 0..3 {
            assert_eq!(cluster.object(idx, "/a").unwrap(), b"alpha", "node{idx}");
            assert_eq!(cluster.journal_len(idx), 2, "node{idx} journal");
            assert_eq!(cluster.applied(idx), 2, "node{idx} applied");
        }
        assert_eq!(get(&client, &engine, "/a").unwrap(), b"alpha");
        assert_eq!(get(&client, &engine, "/missing"), None);
    }

    #[test]
    fn backup_crash_recovers_from_journal_and_resend() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let cluster = StorageCluster::launch(&engine, &net, StorageConfig::default(), None);
        let client = cluster.client("t0", false);
        put(&client, &engine, "/a", b"1");
        cluster.crash(1, 10_000_000);
        assert!(!cluster.is_up(1));
        // Issue a write while node1 is down (the network delivers it
        // well before the 10 ms restart): it replicates to node2 only,
        // and node1 must catch up via journal replay + resend.
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        client.kv_write(
            &engine,
            WriteOp::Put {
                key: "/b".into(),
                data: b"2".to_vec(),
            },
            Box::new(move |_, r| {
                r.unwrap();
                o.set(true);
            }),
        );
        engine.run_until_idle(); // write, restart, link re-dial, resend
        assert!(ok.get());
        assert_eq!(cluster.object(2, "/b").unwrap(), b"2");
        assert!(cluster.is_up(1));
        assert_eq!(cluster.object(1, "/a").unwrap(), b"1", "journal replay");
        assert_eq!(cluster.object(1, "/b").unwrap(), b"2", "resend catch-up");
        assert_eq!(cluster.applied(1), 2);
    }

    #[test]
    fn primary_crash_loses_nothing_acked() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let cluster = StorageCluster::launch(&engine, &net, StorageConfig::default(), None);
        let client = cluster.client("t0", false);
        put(&client, &engine, "/a", b"durable");
        cluster.crash(0, 5_000_000);
        assert_eq!(cluster.object_count(0), 0, "volatile state gone");
        engine.run_until_idle();
        assert!(cluster.is_up(0));
        assert_eq!(cluster.object(0, "/a").unwrap(), b"durable");
        // The client reconnects transparently for the next op.
        assert_eq!(get(&client, &engine, "/a").unwrap(), b"durable");
    }

    #[test]
    fn deletes_are_idempotent_under_replay() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let cluster = StorageCluster::launch(
            &engine,
            &net,
            StorageConfig {
                replicas: 2,
                ..StorageConfig::default()
            },
            None,
        );
        let client = cluster.client("t0", false);
        put(&client, &engine, "/a", b"1");
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        client.kv_write(
            &engine,
            WriteOp::Delete { key: "/a".into() },
            Box::new(move |_, r| {
                r.unwrap();
                d.set(true);
            }),
        );
        engine.run_until_idle();
        assert!(done.get());
        // Two crash/replay cycles: the journal applies cleanly both
        // times and the delete stays deleted.
        for _ in 0..2 {
            cluster.crash(0, 1_000_000);
            engine.run_until_idle();
            assert_eq!(cluster.object(0, "/a"), None);
            assert_eq!(cluster.journal_len(0), 2);
        }
    }
}
