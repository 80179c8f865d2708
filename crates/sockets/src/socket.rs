//! Doppio's Unix-style client socket API (§5.3).
//!
//! "DOPPIO resolves the client side of the issue by emulating a Unix
//! socket API in terms of WebSocket functionality." A [`DoppioSocket`]
//! looks like a plain byte-stream socket — `connect`, `send`, `recv`,
//! `close` — while the wire actually carries WebSocket frames to a
//! Websockify bridge in front of the unmodified server. Incoming
//! frames land in a receive buffer; language runtimes layer *blocking*
//! reads on top with `doppio_core`'s async→sync bridge (§4.2), using
//! [`DoppioSocket::set_data_waker`] to be woken when bytes arrive.
//!
//! # Robustness
//!
//! The plain [`connect`](DoppioSocket::connect) constructor gives the
//! paper's behaviour: one underlying WebSocket, and the socket dies
//! with it. [`connect_with`](DoppioSocket::connect_with) takes a
//! [`SocketConfig`] that adds the policies a real client needs on a
//! faulty network (`doppio_faults`): a connect timeout, automatic
//! reconnection with seeded exponential backoff, and queueing of sends
//! issued while the transport is (re)connecting, bounded by a send
//! timeout. Every timeout and backoff decision emits a `fault`-category
//! trace event, so a Perfetto view of a flaky run shows exactly when
//! and why the socket retried.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use doppio_faults::backoff_delay_ns;
use doppio_jsengine::Engine;
use doppio_trace::{cat, ArgValue};

use crate::frames::Frame;
use crate::network::Network;
use crate::websocket::{WebSocket, WsError, WsHandlers, WsState};

/// Socket lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketState {
    /// Handshake still in flight.
    Connecting,
    /// Connected.
    Open,
    /// Closed.
    Closed,
}

/// Robustness policy for a [`DoppioSocket`]. The default — no
/// timeouts, no reconnects — is the paper's behaviour.
#[derive(Debug, Clone, Default)]
pub struct SocketConfig {
    /// Give up on a connection attempt that has not completed its
    /// handshake within this long (`None`: wait forever).
    pub connect_timeout_ns: Option<u64>,
    /// How many times to automatically re-dial after an unexpected
    /// close (0: the paper's behaviour — the socket dies with its
    /// transport). Attempts are spaced by
    /// [`doppio_faults::backoff_delay_ns`], its jitter drawn from the
    /// engine's seeded stream, so reconnect timing is deterministic
    /// per engine seed.
    pub max_reconnects: u32,
    /// Queue sends issued while the transport is (re)connecting and
    /// flush them on open, instead of failing with
    /// [`WsError::NotOpen`].
    pub queue_while_connecting: bool,
    /// Fail the socket if queued sends have not flushed within this
    /// long (`None`: queue without bound).
    pub send_timeout_ns: Option<u64>,
}

impl SocketConfig {
    /// A policy suited to a faulty fabric: 1 s connect timeout, up to
    /// eight reconnects, queued sends bounded by a 10 s send timeout.
    pub fn robust() -> SocketConfig {
        SocketConfig {
            connect_timeout_ns: Some(1_000_000_000),
            max_reconnects: 8,
            queue_while_connecting: true,
            send_timeout_ns: Some(10_000_000_000),
        }
    }
}

#[allow(clippy::type_complexity)] // callback plumbing, not public API surface
struct SockInner {
    engine: Engine,
    net: Network,
    port: u16,
    config: SocketConfig,
    recv_buf: VecDeque<u8>,
    state: SocketState,
    waker: Option<Box<dyn FnMut(&Engine)>>,
    ws: Option<WebSocket>,
    /// Bumped on every dial; stale transport callbacks (from a
    /// WebSocket we already abandoned) compare against it and bail.
    generation: u64,
    /// Consecutive failed attempts since the last successful open.
    attempts: u32,
    /// Total reconnects performed over the socket's lifetime.
    reconnects: u32,
    /// `close()` was called: suppress reconnection.
    user_closed: bool,
    /// Sends queued while (re)connecting, flushed on open.
    pending: VecDeque<Vec<u8>>,
    /// Epoch of the currently armed send-timeout timer; bumped whenever
    /// the queue flushes so a stale timer firing is a no-op.
    send_epoch: u64,
    send_timer_armed: bool,
}

/// A Unix-style client socket over WebSockets.
#[derive(Clone)]
pub struct DoppioSocket {
    inner: Rc<RefCell<SockInner>>,
}

impl DoppioSocket {
    /// Connect to `port` (a Websockify bridge) on the fabric with the
    /// default (non-reconnecting) policy.
    pub fn connect(engine: &Engine, net: &Network, port: u16) -> Result<DoppioSocket, WsError> {
        DoppioSocket::connect_with(engine, net, port, SocketConfig::default())
    }

    /// Connect to `port` with an explicit robustness policy.
    pub fn connect_with(
        engine: &Engine,
        net: &Network,
        port: u16,
        config: SocketConfig,
    ) -> Result<DoppioSocket, WsError> {
        let sock = DoppioSocket {
            inner: Rc::new(RefCell::new(SockInner {
                engine: engine.clone(),
                net: net.clone(),
                port,
                config,
                recv_buf: VecDeque::new(),
                state: SocketState::Connecting,
                waker: None,
                ws: None,
                generation: 0,
                attempts: 0,
                reconnects: 0,
                user_closed: false,
                pending: VecDeque::new(),
                send_epoch: 0,
                send_timer_armed: false,
            })),
        };
        sock.dial()?;
        Ok(sock)
    }

    /// Open a fresh WebSocket transport for the current generation.
    fn dial(&self) -> Result<(), WsError> {
        let (engine, net, port, timeout, generation) = {
            let mut inner = self.inner.borrow_mut();
            inner.generation += 1;
            inner.state = SocketState::Connecting;
            (
                inner.engine.clone(),
                inner.net.clone(),
                inner.port,
                inner.config.connect_timeout_ns,
                inner.generation,
            )
        };
        let s_open = self.clone();
        let s_msg = self.clone();
        let s_close = self.clone();
        let ws = WebSocket::connect(
            &engine,
            &net,
            port,
            WsHandlers {
                on_open: Some(Box::new(move |e: &Engine| {
                    s_open.on_transport_open(e, generation);
                })),
                on_message: Some(Box::new(move |e: &Engine, frame: Frame| {
                    if s_msg.inner.borrow().generation != generation {
                        return;
                    }
                    s_msg.inner.borrow_mut().recv_buf.extend(frame.payload);
                    s_msg.wake(e);
                })),
                on_close: Some(Box::new(move |e: &Engine| {
                    s_close.on_transport_lost(e, generation);
                })),
            },
        )?;
        self.inner.borrow_mut().ws = Some(ws.clone());

        if let Some(timeout_ns) = timeout {
            let sock = self.clone();
            engine.complete_async_after(timeout_ns, move |e| {
                let stale = {
                    let inner = sock.inner.borrow();
                    inner.generation != generation
                        || inner.user_closed
                        || inner.state != SocketState::Connecting
                };
                if stale {
                    return;
                }
                let tracer = e.tracer();
                if tracer.enabled() {
                    tracer.instant(
                        cat::FAULT,
                        "socket_connect_timeout",
                        e.now_ns(),
                        0,
                        vec![
                            ("port", ArgValue::U64(u64::from(sock.inner.borrow().port))),
                            ("timeout_ns", ArgValue::U64(timeout_ns)),
                        ],
                    );
                }
                // `WebSocket::close` never fires its own on_close, so
                // the give-up path is driven explicitly from here.
                ws.close();
                sock.on_transport_lost(e, generation);
            });
        }
        Ok(())
    }

    /// The transport for `generation` completed its handshake.
    fn on_transport_open(&self, engine: &Engine, generation: u64) {
        let (ws, to_flush) = {
            let mut inner = self.inner.borrow_mut();
            if inner.generation != generation || inner.user_closed {
                return;
            }
            inner.state = SocketState::Open;
            inner.attempts = 0;
            // Any armed send timeout covered the queue that is flushing
            // right now; retire it.
            inner.send_epoch += 1;
            inner.send_timer_armed = false;
            let to_flush: Vec<Vec<u8>> = inner.pending.drain(..).collect();
            (inner.ws.clone(), to_flush)
        };
        if let Some(ws) = ws {
            for data in to_flush {
                // A send can re-fault the transport mid-flush; the
                // close handler re-queues nothing (these bytes are
                // spent), matching a real socket's at-most-once write.
                let _ = ws.send_binary(data);
            }
        }
        self.wake(engine);
    }

    /// The transport for `generation` closed without `close()` being
    /// called: reconnect with backoff, or give up.
    fn on_transport_lost(&self, engine: &Engine, generation: u64) {
        let decision = {
            let mut inner = self.inner.borrow_mut();
            if inner.generation != generation {
                return; // an abandoned transport's late close
            }
            if inner.user_closed {
                inner.state = SocketState::Closed;
                None
            } else if inner.attempts >= inner.config.max_reconnects {
                inner.state = SocketState::Closed;
                inner.pending.clear();
                None
            } else {
                inner.attempts += 1;
                inner.reconnects += 1;
                let delay = backoff_delay_ns(inner.attempts - 1, engine.random_u64());
                Some((inner.attempts, delay, inner.port))
            }
        };
        match decision {
            None => self.wake(engine),
            Some((attempt, delay_ns, port)) => {
                let tracer = engine.tracer();
                if tracer.enabled() {
                    tracer.instant(
                        cat::FAULT,
                        "socket_reconnect_backoff",
                        engine.now_ns(),
                        0,
                        vec![
                            ("port", ArgValue::U64(u64::from(port))),
                            ("attempt", ArgValue::U64(u64::from(attempt))),
                            ("delay_ns", ArgValue::U64(delay_ns)),
                        ],
                    );
                }
                let sock = self.clone();
                let expect_gen = self.inner.borrow().generation;
                engine.complete_async_after(delay_ns, move |_e| {
                    {
                        let inner = sock.inner.borrow();
                        if inner.user_closed || inner.generation != expect_gen {
                            return;
                        }
                    }
                    // A refused dial surfaces as another transport-lost
                    // event through the Err path below, re-entering the
                    // backoff loop until attempts are exhausted.
                    if sock.dial().is_err() {
                        let e = sock.inner.borrow().engine.clone();
                        let gen = sock.inner.borrow().generation;
                        sock.on_transport_lost(&e, gen);
                    }
                });
            }
        }
    }

    fn wake(&self, engine: &Engine) {
        let waker = self.inner.borrow_mut().waker.take();
        if let Some(mut w) = waker {
            w(engine);
            let mut inner = self.inner.borrow_mut();
            if inner.waker.is_none() {
                inner.waker = Some(w);
            }
        }
    }

    /// Register a callback fired whenever data arrives, the connection
    /// opens, or it closes — the hook blocking `recv` wrappers use to
    /// wake their guest thread.
    pub fn set_data_waker(&self, waker: Box<dyn FnMut(&Engine)>) {
        self.inner.borrow_mut().waker = Some(waker);
    }

    /// Current state.
    pub fn state(&self) -> SocketState {
        self.inner.borrow().state
    }

    /// Bytes available to read without blocking.
    pub fn available(&self) -> usize {
        self.inner.borrow().recv_buf.len()
    }

    /// Total reconnect attempts this socket has made.
    pub fn reconnects(&self) -> u32 {
        self.inner.borrow().reconnects
    }

    /// Send bytes (wrapped into one binary WebSocket frame). With
    /// [`SocketConfig::queue_while_connecting`], bytes sent while the
    /// transport is (re)connecting are queued and flushed on open.
    pub fn send(&self, data: &[u8]) -> Result<(), WsError> {
        let (ws, state, queue) = {
            let inner = self.inner.borrow();
            (
                inner.ws.clone(),
                inner.state,
                inner.config.queue_while_connecting,
            )
        };
        match (state, ws) {
            (SocketState::Open, Some(ws)) if ws.state() == WsState::Open => {
                ws.send_binary(data.to_vec())
            }
            (SocketState::Connecting, _) if queue => {
                self.queue_send(data.to_vec());
                Ok(())
            }
            _ => Err(WsError::NotOpen),
        }
    }

    fn queue_send(&self, data: Vec<u8>) {
        let arm = {
            let mut inner = self.inner.borrow_mut();
            inner.pending.push_back(data);
            let arm = !inner.send_timer_armed && inner.config.send_timeout_ns.is_some();
            if arm {
                inner.send_timer_armed = true;
            }
            arm
        };
        if !arm {
            return;
        }
        let (engine, timeout_ns, epoch) = {
            let inner = self.inner.borrow();
            (
                inner.engine.clone(),
                inner.config.send_timeout_ns.unwrap(),
                inner.send_epoch,
            )
        };
        let sock = self.clone();
        engine.complete_async_after(timeout_ns, move |e| {
            let expired = {
                let mut inner = sock.inner.borrow_mut();
                // Still the same unflushed queue, and still not open?
                if inner.send_epoch != epoch || inner.pending.is_empty() || inner.user_closed {
                    false
                } else {
                    inner.user_closed = true; // stop any reconnect loop
                    inner.state = SocketState::Closed;
                    inner.pending.clear();
                    true
                }
            };
            if !expired {
                return;
            }
            let tracer = e.tracer();
            if tracer.enabled() {
                tracer.instant(
                    cat::FAULT,
                    "socket_send_timeout",
                    e.now_ns(),
                    0,
                    vec![
                        ("port", ArgValue::U64(u64::from(sock.inner.borrow().port))),
                        ("timeout_ns", ArgValue::U64(timeout_ns)),
                    ],
                );
            }
            let ws = sock.inner.borrow().ws.clone();
            if let Some(ws) = ws {
                ws.close();
            }
            sock.wake(e);
        });
    }

    /// Non-blocking read of up to `max` buffered bytes. Returns an
    /// empty vector when nothing is buffered (callers distinguish EOF
    /// via [`state`](Self::state)).
    pub fn recv(&self, max: usize) -> Vec<u8> {
        let mut inner = self.inner.borrow_mut();
        let n = max.min(inner.recv_buf.len());
        inner.recv_buf.drain(..n).collect()
    }

    /// Close the socket (suppresses any pending reconnect).
    pub fn close(&self) {
        let ws = {
            let mut inner = self.inner.borrow_mut();
            inner.user_closed = true;
            inner.state = SocketState::Closed;
            inner.pending.clear();
            inner.ws.clone()
        };
        if let Some(ws) = ws {
            ws.close();
        }
    }

    /// Whether this socket runs through the Flash shim.
    pub fn via_flash_shim(&self) -> bool {
        self.inner
            .borrow()
            .ws
            .as_ref()
            .map(WebSocket::via_flash_shim)
            .unwrap_or(false)
    }
}

impl fmt::Debug for DoppioSocket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("DoppioSocket")
            .field("state", &inner.state)
            .field("buffered", &inner.recv_buf.len())
            .field("attempts", &inner.attempts)
            .field("user_closed", &inner.user_closed)
            .finish()
    }
}
