//! The simulated TCP network fabric.
//!
//! The paper's evaluation machines sat on a real network with native
//! socket servers (wrapped by Websockify). Here, "native hosts" are
//! in-process [`TcpServerApp`]s registered on ports of a [`Network`];
//! connections are pairs of latency-delayed byte pipes driven by the
//! engine's event loop. Both the WebSocket client emulation and the
//! Websockify bridge run over this fabric.
//!
//! Every transmission is a [`Segment`]: an ordered list of shared
//! [`Bytes`](crate::Bytes) parts. Senders hand over buffers they already
//! hold, and the fabric delivers the same parts, so a payload crosses
//! any number of hops without being copied.
//!
//! The fabric is perfectly reliable by default. Attach a seeded
//! [`FaultPlan`] with [`Network::set_faults`] and every transmission
//! becomes a deterministic fault-decision point: segments can be
//! dropped, delayed, split in two (partial delivery), or escalate to a
//! connection reset — reproducibly, from the plan's seed.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use doppio_faults::{FaultPlan, NetFault};
use doppio_jsengine::Engine;
use doppio_trace::Histogram;

use crate::bytes::Segment;

/// Identifies one TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub u64);

/// Errors from the network fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Nothing listens on the requested port.
    ConnectionRefused(u16),
    /// The connection is closed.
    Closed(ConnId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::ConnectionRefused(p) => write!(f, "connection refused on port {p}"),
            NetError::Closed(id) => write!(f, "connection {} is closed", id.0),
        }
    }
}

impl std::error::Error for NetError {}

/// A server application running on a "native host" — e.g. an echo
/// server, a chat daemon, or the Websockify bridge.
pub trait TcpServerApp {
    /// A new connection was accepted.
    fn on_connect(&self, engine: &Engine, conn: ServerConn);
    /// Bytes arrived from the client.
    fn on_data(&self, engine: &Engine, conn: ServerConn, data: Segment);
    /// The connection closed (client-initiated, server-initiated, or a
    /// fabric reset) — fired exactly once per established connection.
    fn on_close(&self, engine: &Engine, conn: ConnId);
}

/// Client-side event handlers for a connection.
#[allow(clippy::type_complexity)] // callback plumbing, not public API surface
#[derive(Default)]
pub struct ClientHandlers {
    /// Connection established.
    pub on_connect: Option<Box<dyn FnOnce(&Engine)>>,
    /// Bytes arrived from the server.
    pub on_data: Option<Box<dyn FnMut(&Engine, Segment)>>,
    /// The connection closed (server-initiated or a fabric reset).
    pub on_close: Option<Box<dyn FnOnce(&Engine)>>,
}

struct ConnState {
    server_port: u16,
    open: bool,
    /// Whether the server app's `on_connect` has been delivered; close
    /// notifications to the app are suppressed before that.
    server_connected: bool,
    /// Whether the server app's `on_close` has been scheduled (fired at
    /// most once per connection).
    server_close_notified: bool,
    /// Scheduled event-loop deliveries still in flight for this
    /// connection. A closed connection is reaped only once this drains,
    /// so handlers never observe a vanishing connection mid-delivery.
    inflight: u32,
    handlers: ClientHandlers,
}

struct NetInner {
    engine: Engine,
    servers: HashMap<u16, Rc<dyn TcpServerApp>>,
    conns: HashMap<ConnId, ConnState>,
    next_id: u64,
    faults: Option<FaultPlan>,
    /// `net.delivery_ns`: issue-to-delivery latency of every fabric
    /// event (segments, connects, closes), including fault-injected
    /// spikes and event-loop queuing.
    delivery_hist: Histogram,
}

/// One-way latency of every transmission, virtual ns.
const LATENCY_NS: u64 = 400_000;

/// Bandwidth cost per started KiB of payload, virtual ns (~60 MB/s).
const NS_PER_KIB: u64 = 16_000;

/// Virtual time for `bytes` of payload to cross the fabric one way.
fn transfer_delay(bytes: usize) -> u64 {
    LATENCY_NS + NS_PER_KIB * (bytes as u64).div_ceil(1024)
}

/// The network fabric. Cheaply cloneable handle.
#[derive(Clone)]
pub struct Network {
    inner: Rc<RefCell<NetInner>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Network")
            .field("servers", &inner.servers.len())
            .field("connections", &inner.conns.len())
            .field("faults", &inner.faults.is_some())
            .finish()
    }
}

impl Network {
    /// A fabric with LAN-ish latency and bandwidth: 0.4 ms one way
    /// plus 16 µs per KiB (~60 MB/s).
    pub fn new(engine: &Engine) -> Network {
        Network {
            inner: Rc::new(RefCell::new(NetInner {
                engine: engine.clone(),
                servers: HashMap::new(),
                conns: HashMap::new(),
                next_id: 1,
                faults: None,
                delivery_hist: engine.metrics().histogram("net.delivery_ns"),
            })),
        }
    }

    /// Attach a fault plan: every subsequent transmission consults it.
    pub fn set_faults(&self, plan: FaultPlan) {
        self.inner.borrow_mut().faults = Some(plan);
    }

    /// Register a server application listening on `port`.
    pub fn listen(&self, port: u16, app: Rc<dyn TcpServerApp>) {
        self.inner.borrow_mut().servers.insert(port, app);
    }

    /// Remove the listener on `port` (existing connections survive).
    pub fn unlisten(&self, port: u16) {
        self.inner.borrow_mut().servers.remove(&port);
    }

    /// Connections currently tracked by the fabric. Closed connections
    /// are reaped once their in-flight deliveries drain, so this
    /// returns to zero on an idle fabric with everything closed.
    pub fn conn_count(&self) -> usize {
        self.inner.borrow().conns.len()
    }

    /// Schedule a delivery tied to `id`: the connection's in-flight
    /// count holds the state alive until the callback has run, after
    /// which a closed connection with nothing else in flight is reaped.
    fn schedule(&self, id: ConnId, delay_ns: u64, f: impl FnOnce(&Engine, &Network) + 'static) {
        let (engine, hist) = {
            let mut inner = self.inner.borrow_mut();
            if let Some(c) = inner.conns.get_mut(&id) {
                c.inflight += 1;
            }
            (inner.engine.clone(), inner.delivery_hist.clone())
        };
        let issued = if hist.is_enabled() {
            engine.now_ns()
        } else {
            0
        };
        // Causal "net" flow: every fabric hop (segment, connect, close —
        // including fault-split halves and spiked deliveries) hands the
        // sender's context to the delivery dispatch, so network latency
        // shows up as `wait.net` on the critical path.
        let causal = engine.causal().clone();
        let flow = causal
            .current()
            .filter(|_| causal.enabled())
            .map(|src| causal.flow_start("net", src, engine.now_ns(), 0));
        let net = self.clone();
        engine.complete_async_after(delay_ns, move |e| {
            if hist.is_enabled() {
                hist.record(e.now_ns().saturating_sub(issued));
            }
            if let (Some(fid), Some(dst)) = (flow, causal.current()) {
                causal.flow_end("net", fid, dst, e.now_ns(), 0);
            }
            f(e, &net);
            net.finish_delivery(id);
        });
    }

    fn finish_delivery(&self, id: ConnId) {
        let mut inner = self.inner.borrow_mut();
        if let Some(c) = inner.conns.get_mut(&id) {
            c.inflight = c.inflight.saturating_sub(1);
            if !c.open && c.inflight == 0 {
                // Both sides are done and nothing is in flight: drop the
                // state (and the boxed handlers capturing engine Rcs).
                inner.conns.remove(&id);
            }
        }
    }

    fn faults(&self) -> Option<FaultPlan> {
        self.inner.borrow().faults.clone()
    }

    /// Open a connection to `port`. The server's `on_connect` and the
    /// client's `on_connect` both fire after one network latency —
    /// unless the client closed during that latency, in which case the
    /// connection never appears to establish on either side.
    pub fn connect(&self, port: u16, handlers: ClientHandlers) -> Result<ConnId, NetError> {
        let (id, app) = {
            let mut inner = self.inner.borrow_mut();
            let app = inner
                .servers
                .get(&port)
                .cloned()
                .ok_or(NetError::ConnectionRefused(port))?;
            let id = ConnId(inner.next_id);
            inner.next_id += 1;
            inner.conns.insert(
                id,
                ConnState {
                    server_port: port,
                    open: true,
                    server_connected: false,
                    server_close_notified: false,
                    inflight: 0,
                    handlers,
                },
            );
            (id, app)
        };
        let delay = transfer_delay(0);
        self.schedule(id, delay, move |e, net| {
            // Check liveness at delivery time: a close issued during
            // the connect latency must not surface as an established
            // connection on either side.
            let still_open = net
                .inner
                .borrow()
                .conns
                .get(&id)
                .map(|c| c.open)
                .unwrap_or(false);
            if !still_open {
                return;
            }
            if let Some(c) = net.inner.borrow_mut().conns.get_mut(&id) {
                c.server_connected = true;
            }
            app.on_connect(
                e,
                ServerConn {
                    net: net.clone(),
                    id,
                },
            );
            let cb = net
                .inner
                .borrow_mut()
                .conns
                .get_mut(&id)
                .and_then(|c| c.handlers.on_connect.take());
            if let Some(cb) = cb {
                cb(e);
            }
        });
        Ok(id)
    }

    /// Deliver one client→server segment after `delay` (flushes even if
    /// the connection closes meanwhile — TCP delivers queued segments
    /// before FIN).
    fn deliver_to_server(&self, id: ConnId, app: Rc<dyn TcpServerApp>, delay: u64, data: Segment) {
        self.schedule(id, delay, move |e, net| {
            app.on_data(
                e,
                ServerConn {
                    net: net.clone(),
                    id,
                },
                data,
            );
        });
    }

    /// Send client→server bytes.
    pub fn client_send(&self, id: ConnId, data: impl Into<Segment>) -> Result<(), NetError> {
        let data = data.into();
        let (app, engine) = {
            let inner = self.inner.borrow();
            let conn = inner.conns.get(&id).ok_or(NetError::Closed(id))?;
            if !conn.open {
                return Err(NetError::Closed(id));
            }
            let app = inner
                .servers
                .get(&conn.server_port)
                .cloned()
                .ok_or(NetError::Closed(id))?;
            (app, inner.engine.clone())
        };
        let mut delay = transfer_delay(data.len());
        match self
            .faults()
            .and_then(|f| f.net_fault(&engine, "c2s", data.len()))
        {
            Some(NetFault::Drop) => return Ok(()),
            Some(NetFault::Reset) => {
                self.reset(id);
                return Ok(());
            }
            Some(NetFault::LatencySpike(extra)) => delay += extra,
            Some(NetFault::Split(at)) => {
                // Partial delivery: the segment arrives in two pieces,
                // each paying its own transfer time.
                let (head, tail) = data.split_at(at);
                let d1 = transfer_delay(head.len());
                let d2 = d1 + transfer_delay(tail.len());
                self.deliver_to_server(id, app.clone(), d1, head);
                self.deliver_to_server(id, app, d2, tail);
                return Ok(());
            }
            None => {}
        }
        self.deliver_to_server(id, app, delay, data);
        Ok(())
    }

    /// Deliver one server→client segment after `delay`.
    fn deliver_to_client(&self, id: ConnId, delay: u64, data: Segment) {
        self.schedule(id, delay, move |e, net| {
            // Take the handler out, call it, put it back: it must not
            // be invoked while the fabric is borrowed.
            let handler = net
                .inner
                .borrow_mut()
                .conns
                .get_mut(&id)
                .and_then(|c| c.handlers.on_data.take());
            if let Some(mut h) = handler {
                h(e, data);
                if let Some(c) = net.inner.borrow_mut().conns.get_mut(&id) {
                    if c.handlers.on_data.is_none() {
                        c.handlers.on_data = Some(h);
                    }
                }
            }
        });
    }

    /// Send server→client bytes.
    fn server_send(&self, id: ConnId, data: Segment) {
        let (engine, open) = {
            let inner = self.inner.borrow();
            let open = inner.conns.get(&id).map(|c| c.open).unwrap_or(false);
            (inner.engine.clone(), open)
        };
        if !open {
            return; // sender-side check: no writes after close
        }
        let mut delay = transfer_delay(data.len());
        match self
            .faults()
            .and_then(|f| f.net_fault(&engine, "s2c", data.len()))
        {
            Some(NetFault::Drop) => return,
            Some(NetFault::Reset) => {
                self.reset(id);
                return;
            }
            Some(NetFault::LatencySpike(extra)) => delay += extra,
            Some(NetFault::Split(at)) => {
                let (head, tail) = data.split_at(at);
                let d1 = transfer_delay(head.len());
                let d2 = d1 + transfer_delay(tail.len());
                self.deliver_to_client(id, d1, head);
                self.deliver_to_client(id, d2, tail);
                return;
            }
            None => {}
        }
        self.deliver_to_client(id, delay, data);
    }

    /// Mark the connection closed. Returns `false` if it was already
    /// closed (or never existed): close paths run at most once.
    fn mark_closed(&self, id: ConnId) -> bool {
        let mut inner = self.inner.borrow_mut();
        match inner.conns.get_mut(&id) {
            Some(c) if c.open => {
                c.open = false;
                true
            }
            _ => false,
        }
    }

    /// Notify the server app that `id` closed, after `delay`. Fires at
    /// most once, and only if the app saw `on_connect` first.
    fn notify_server_close(&self, id: ConnId, delay: u64) {
        let app = {
            let mut inner = self.inner.borrow_mut();
            let Some(c) = inner.conns.get_mut(&id) else {
                return;
            };
            if !c.server_connected || c.server_close_notified {
                return;
            }
            c.server_close_notified = true;
            let port = c.server_port;
            inner.servers.get(&port).cloned()
        };
        if let Some(app) = app {
            self.schedule(id, delay, move |e, _net| app.on_close(e, id));
        }
    }

    /// Notify the client handler that `id` closed, after `delay`. The
    /// `FnOnce` handler is taken at delivery time, so this also fires
    /// at most once.
    fn notify_client_close(&self, id: ConnId, delay: u64) {
        self.schedule(id, delay, move |e, net| {
            let cb = net
                .inner
                .borrow_mut()
                .conns
                .get_mut(&id)
                .and_then(|c| c.handlers.on_close.take());
            if let Some(cb) = cb {
                cb(e);
            }
        });
    }

    /// Close from the client side. Close is symmetric: the server app
    /// hears about it after one network latency, and the client's own
    /// `on_close` fires locally on the next turn.
    pub fn client_close(&self, id: ConnId) {
        if !self.mark_closed(id) {
            return;
        }
        let remote = transfer_delay(0);
        self.notify_server_close(id, remote);
        self.notify_client_close(id, 0);
        self.reap_if_drained(id);
    }

    /// Close from the server side. Symmetric with [`client_close`]:
    /// the client handler hears about it after one network latency, and
    /// the server app's own `on_close` fires locally on the next turn —
    /// so apps like the Websockify bridge can release per-connection
    /// state regardless of which side initiated the close.
    fn server_close(&self, id: ConnId) {
        if !self.mark_closed(id) {
            return;
        }
        let remote = transfer_delay(0);
        self.notify_client_close(id, remote);
        self.notify_server_close(id, 0);
        self.reap_if_drained(id);
    }

    /// Abrupt connection reset (fault injection): both sides observe a
    /// close after one network latency.
    pub fn reset(&self, id: ConnId) {
        if !self.mark_closed(id) {
            return;
        }
        let delay = transfer_delay(0);
        self.notify_client_close(id, delay);
        self.notify_server_close(id, delay);
        self.reap_if_drained(id);
    }

    /// Reap immediately if the close paths scheduled nothing (e.g. a
    /// connection closed before its connect delivery drained has its
    /// in-flight count keeping it alive instead).
    fn reap_if_drained(&self, id: ConnId) {
        let mut inner = self.inner.borrow_mut();
        if let Some(c) = inner.conns.get(&id) {
            if !c.open && c.inflight == 0 {
                inner.conns.remove(&id);
            }
        }
    }

    /// Whether a connection is currently open.
    pub fn is_open(&self, id: ConnId) -> bool {
        self.inner
            .borrow()
            .conns
            .get(&id)
            .map(|c| c.open)
            .unwrap_or(false)
    }
}

/// The server side of one connection (handed to [`TcpServerApp`]s).
#[derive(Clone)]
pub struct ServerConn {
    net: Network,
    id: ConnId,
}

impl ServerConn {
    /// This connection's id.
    pub fn id(&self) -> ConnId {
        self.id
    }

    /// Send bytes to the client.
    pub fn send(&self, data: impl Into<Segment>) {
        self.net.server_send(self.id, data.into());
    }

    /// Close the connection.
    pub fn close(&self) {
        self.net.server_close(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bytes;
    use doppio_faults::FaultConfig;
    use doppio_jsengine::Browser;

    /// Echoes every byte back.
    struct Echo;
    impl TcpServerApp for Echo {
        fn on_connect(&self, _e: &Engine, _c: ServerConn) {}
        fn on_data(&self, _e: &Engine, c: ServerConn, data: Segment) {
            c.send(data);
        }
        fn on_close(&self, _e: &Engine, _c: ConnId) {}
    }

    /// Records every lifecycle event it sees.
    #[derive(Default)]
    struct Witness {
        connects: RefCell<Vec<ConnId>>,
        closes: RefCell<Vec<ConnId>>,
        data: RefCell<Vec<u8>>,
    }
    impl TcpServerApp for Witness {
        fn on_connect(&self, _e: &Engine, c: ServerConn) {
            self.connects.borrow_mut().push(c.id());
        }
        fn on_data(&self, _e: &Engine, _c: ServerConn, data: Segment) {
            self.data.borrow_mut().extend(data.to_vec());
        }
        fn on_close(&self, _e: &Engine, c: ConnId) {
            self.closes.borrow_mut().push(c);
        }
    }

    /// Closes the connection as soon as data arrives.
    struct Slammer {
        closes: RefCell<Vec<ConnId>>,
    }
    impl TcpServerApp for Slammer {
        fn on_connect(&self, _e: &Engine, _c: ServerConn) {}
        fn on_data(&self, _e: &Engine, c: ServerConn, _d: Segment) {
            c.close();
        }
        fn on_close(&self, _e: &Engine, c: ConnId) {
            self.closes.borrow_mut().push(c);
        }
    }

    #[test]
    fn echo_round_trip() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        net.listen(7, Rc::new(Echo));

        let received = Rc::new(RefCell::new(Vec::new()));
        let r = received.clone();
        let id = net
            .connect(
                7,
                ClientHandlers {
                    on_connect: None,
                    on_data: Some(Box::new(move |_, d| r.borrow_mut().extend(d.to_vec()))),
                    on_close: None,
                },
            )
            .unwrap();
        net.client_send(id, vec![1, 2, 3]).unwrap();
        engine.run_until_idle();
        assert_eq!(*received.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn refused_when_no_listener() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        assert_eq!(
            net.connect(9999, ClientHandlers::default()).unwrap_err(),
            NetError::ConnectionRefused(9999)
        );
    }

    #[test]
    fn close_stops_delivery_and_notifies() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        net.listen(7, Rc::new(Echo));
        let id = net.connect(7, ClientHandlers::default()).unwrap();
        engine.run_until_idle();
        assert!(net.is_open(id));
        net.client_close(id);
        assert!(!net.is_open(id));
        assert!(net.client_send(id, vec![1]).is_err());
    }

    #[test]
    fn transfers_cost_latency_and_bandwidth() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        net.listen(7, Rc::new(Echo));
        let done_at = Rc::new(RefCell::new(0u64));
        let d = done_at.clone();
        let id = net
            .connect(
                7,
                ClientHandlers {
                    on_connect: None,
                    on_data: Some(Box::new(move |e, _| *d.borrow_mut() = e.now_ns())),
                    on_close: None,
                },
            )
            .unwrap();
        net.client_send(id, vec![0; 100 * 1024]).unwrap();
        engine.run_until_idle();
        // Round trip: 2 × (0.4 ms + 100 KiB × 16 µs/KiB) = 2 × 2 ms.
        assert!(*done_at.borrow() >= 4_000_000);
    }

    /// Regression (lifecycle bug 1): closed connections used to stay in
    /// `conns` forever, leaking `ConnState` and the boxed handlers that
    /// capture engine `Rc`s.
    #[test]
    fn closed_connections_are_reaped_once_drained() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        net.listen(7, Rc::new(Echo));
        for _ in 0..10 {
            let id = net.connect(7, ClientHandlers::default()).unwrap();
            net.client_send(id, vec![1, 2, 3]).unwrap();
            engine.run_until_idle();
            assert_eq!(net.conn_count(), 1);
            net.client_close(id);
            engine.run_until_idle();
            assert_eq!(net.conn_count(), 0, "closed conn must be reaped");
        }
    }

    /// Regression (lifecycle bug 2): a server-initiated close used to
    /// notify only the client handler; the `TcpServerApp` never saw
    /// `on_close`, so bridge-style apps leaked per-connection state.
    #[test]
    fn server_initiated_close_notifies_the_server_app() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let app = Rc::new(Slammer {
            closes: RefCell::new(Vec::new()),
        });
        net.listen(7, app.clone());
        let id = net.connect(7, ClientHandlers::default()).unwrap();
        engine.run_until_idle();
        net.client_send(id, vec![9]).unwrap();
        engine.run_until_idle();
        assert_eq!(
            *app.closes.borrow(),
            vec![id],
            "server app must get on_close for its own close, exactly once"
        );
        assert_eq!(net.conn_count(), 0);
    }

    /// Client-initiated close also reaches the server app (symmetric
    /// close), exactly once.
    #[test]
    fn client_close_notifies_server_app_once() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let app = Rc::new(Witness::default());
        net.listen(7, app.clone());
        let id = net.connect(7, ClientHandlers::default()).unwrap();
        engine.run_until_idle();
        net.client_close(id);
        net.client_close(id); // double close must not double notify
        engine.run_until_idle();
        assert_eq!(*app.closes.borrow(), vec![id]);
    }

    /// Regression (lifecycle bug 3): `connect`'s delayed delivery used
    /// to fire `on_connect` on both sides even when `client_close` ran
    /// during the connect latency.
    #[test]
    fn close_during_connect_latency_suppresses_establishment() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let app = Rc::new(Witness::default());
        net.listen(7, app.clone());
        let client_connected = Rc::new(RefCell::new(false));
        let cc = client_connected.clone();
        let id = net
            .connect(
                7,
                ClientHandlers {
                    on_connect: Some(Box::new(move |_| *cc.borrow_mut() = true)),
                    on_data: None,
                    on_close: None,
                },
            )
            .unwrap();
        // Close before the connect latency elapses.
        net.client_close(id);
        engine.run_until_idle();
        assert!(
            app.connects.borrow().is_empty(),
            "server must not see a connection that closed during connect"
        );
        assert!(!*client_connected.borrow());
        assert!(
            app.closes.borrow().is_empty(),
            "no on_close for a connection the app never saw"
        );
        assert_eq!(net.conn_count(), 0, "aborted conn must still be reaped");
    }

    #[test]
    fn injected_reset_closes_both_sides() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let app = Rc::new(Witness::default());
        net.listen(7, app.clone());
        let plan = FaultPlan::new(
            1,
            FaultConfig {
                net_reset_p: 1.0,
                max_net_faults: 1,
                ..FaultConfig::default()
            },
        );
        let client_closed = Rc::new(RefCell::new(false));
        let cc = client_closed.clone();
        let id = net
            .connect(
                7,
                ClientHandlers {
                    on_connect: None,
                    on_data: None,
                    on_close: Some(Box::new(move |_| *cc.borrow_mut() = true)),
                },
            )
            .unwrap();
        engine.run_until_idle();
        net.set_faults(plan.clone());
        net.client_send(id, vec![1, 2, 3]).unwrap();
        engine.run_until_idle();
        assert!(!net.is_open(id));
        assert!(*client_closed.borrow(), "client must see the reset");
        assert_eq!(*app.closes.borrow(), vec![id], "server must see the reset");
        assert!(
            app.data.borrow().is_empty(),
            "reset segment is not delivered"
        );
        assert_eq!(plan.net_injected(), 1);
        assert_eq!(net.conn_count(), 0);
    }

    #[test]
    fn injected_drop_loses_the_segment_but_keeps_the_conn() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let app = Rc::new(Witness::default());
        net.listen(7, app.clone());
        let id = net.connect(7, ClientHandlers::default()).unwrap();
        engine.run_until_idle();
        net.set_faults(FaultPlan::new(
            1,
            FaultConfig {
                net_drop_p: 1.0,
                max_net_faults: 1,
                ..FaultConfig::default()
            },
        ));
        net.client_send(id, b"lost".to_vec()).unwrap();
        net.client_send(id, b"kept".to_vec()).unwrap();
        engine.run_until_idle();
        assert!(net.is_open(id));
        assert_eq!(app.data.borrow().as_slice(), b"kept");
    }

    #[test]
    fn injected_spike_delays_delivery() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        net.listen(7, Rc::new(Echo));
        let done_at = Rc::new(RefCell::new(0u64));
        let d = done_at.clone();
        let id = net
            .connect(
                7,
                ClientHandlers {
                    on_connect: None,
                    on_data: Some(Box::new(move |e, _| *d.borrow_mut() = e.now_ns())),
                    on_close: None,
                },
            )
            .unwrap();
        engine.run_until_idle();
        net.set_faults(FaultPlan::new(
            3,
            FaultConfig {
                net_spike_p: 1.0,
                net_spike_ns: (50_000_000, 50_000_000),
                max_net_faults: 1,
                ..FaultConfig::default()
            },
        ));
        let t0 = engine.now_ns();
        net.client_send(id, vec![7]).unwrap();
        engine.run_until_idle();
        // The spiked leg pays 50 ms on top of its transfer time, the
        // return leg only its own: 2 × (0.4 ms + 16 µs for one KiB).
        assert!(*done_at.borrow() >= t0 + 50_000_000 + 2 * 416_000);
    }

    #[test]
    fn injected_split_preserves_bytes_and_order() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let app = Rc::new(Witness::default());
        net.listen(7, app.clone());
        let id = net.connect(7, ClientHandlers::default()).unwrap();
        engine.run_until_idle();
        net.set_faults(FaultPlan::new(
            5,
            FaultConfig {
                net_split_p: 1.0,
                max_net_faults: 1,
                ..FaultConfig::default()
            },
        ));
        net.client_send(id, b"abcdefgh".to_vec()).unwrap();
        engine.run_until_idle();
        assert_eq!(app.data.borrow().as_slice(), b"abcdefgh");
    }

    /// Whether every part of `seg` lies inside one of `parts`' buffers
    /// (it was sliced from them, not copied).
    fn shares_buffers(seg: &Segment, parts: &[Bytes]) -> bool {
        seg.parts().iter().all(|p| {
            let r = p.as_ptr_range();
            parts.iter().any(|q| {
                let q = q.as_ptr_range();
                q.start <= r.start && r.end <= q.end
            })
        })
    }

    /// Cutting a multi-part segment at any offset gives the same bytes
    /// as slicing the contiguous vector there, and copies nothing.
    #[test]
    fn segment_split_matches_vec_slicing_at_every_offset() {
        let parts: Vec<Bytes> = [&b"head"[..], b"", b"a-payload", b"z"]
            .into_iter()
            .map(Bytes::copy_from_slice)
            .collect();
        let seg: Segment = parts.iter().cloned().collect();
        let flat = seg.to_vec();
        assert_eq!(flat, b"heada-payloadz");
        for at in 0..=flat.len() {
            let (head, tail) = seg.clone().split_at(at);
            assert_eq!(head.to_vec(), &flat[..at], "head at {at}");
            assert_eq!(tail.to_vec(), &flat[at..], "tail at {at}");
            assert_eq!((head.len(), tail.len()), (at, flat.len() - at));
            assert!(head
                .parts()
                .iter()
                .chain(tail.parts())
                .all(|p| !p.is_empty()));
            assert!(shares_buffers(&head, &parts) && shares_buffers(&tail, &parts));
        }
    }

    /// A split fault delivers the sender's own parts, sliced.
    #[test]
    fn injected_split_delivers_slices_of_the_senders_parts() {
        struct Parts(RefCell<Vec<Segment>>);
        impl TcpServerApp for Parts {
            fn on_connect(&self, _e: &Engine, _c: ServerConn) {}
            fn on_data(&self, _e: &Engine, _c: ServerConn, data: Segment) {
                self.0.borrow_mut().push(data);
            }
            fn on_close(&self, _e: &Engine, _c: ConnId) {}
        }
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let app = Rc::new(Parts(RefCell::new(Vec::new())));
        net.listen(7, app.clone());
        let id = net.connect(7, ClientHandlers::default()).unwrap();
        engine.run_until_idle();
        net.set_faults(FaultPlan::new(
            5,
            FaultConfig {
                net_split_p: 1.0,
                max_net_faults: 1,
                ..FaultConfig::default()
            },
        ));
        let parts = [Bytes::from(b"head".to_vec()), Bytes::from(vec![7; 3000])];
        let sent: Segment = parts.iter().cloned().collect();
        net.client_send(id, sent.clone()).unwrap();
        engine.run_until_idle();
        let got = app.0.borrow();
        assert_eq!(got.len(), 2, "one segment, delivered in two pieces");
        assert_eq!([got[0].to_vec(), got[1].to_vec()].concat(), sent.to_vec());
        assert!(got.iter().all(|seg| shares_buffers(seg, &parts)));
    }
}
