//! The browser-side WebSocket emulation.
//!
//! "Modern browsers provide a feature called WebSockets that enable
//! JavaScript applications to make *outgoing* full-duplex TCP
//! connections with WebSocket servers" (§5.3). This is that API over
//! the simulated fabric: Upgrade handshake, masked client frames,
//! unmasked server frames. On browsers without native WebSockets
//! (IE8), Doppio routes through Websockify's **Flash shim**, which
//! works but pays an initialization delay and per-message overhead.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use doppio_jsengine::{Cost, Engine};
use doppio_trace::{cat, ArgValue};

use crate::bytes::Segment;
use crate::frames::{encode, Frame, FrameDecoder, Opcode};
use crate::handshake;
use crate::network::{ClientHandlers, ConnId, NetError, Network};

/// WebSocket connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WsState {
    /// Handshake in flight.
    Connecting,
    /// Open for messages.
    Open,
    /// Closed (by either side or handshake failure).
    Closed,
}

/// Errors from the WebSocket layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsError {
    /// The fabric refused the connection.
    Net(NetError),
    /// Sent while not open.
    NotOpen,
    /// The server handshake was invalid.
    HandshakeFailed(String),
}

impl fmt::Display for WsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsError::Net(e) => write!(f, "network error: {e}"),
            WsError::NotOpen => write!(f, "websocket is not open"),
            WsError::HandshakeFailed(d) => write!(f, "websocket handshake failed: {d}"),
        }
    }
}

impl std::error::Error for WsError {}

impl From<NetError> for WsError {
    fn from(e: NetError) -> WsError {
        WsError::Net(e)
    }
}

/// Event handlers a WebSocket user registers.
#[derive(Default)]
#[allow(clippy::type_complexity)] // callback plumbing, not public API surface
pub struct WsHandlers {
    /// Fired when the handshake completes.
    pub on_open: Option<Box<dyn FnOnce(&Engine)>>,
    /// Fired per complete message frame (text or binary).
    pub on_message: Option<Box<dyn FnMut(&Engine, Frame)>>,
    /// Fired when the connection closes.
    pub on_close: Option<Box<dyn FnOnce(&Engine)>>,
}

struct WsInner {
    engine: Engine,
    net: Network,
    conn: Option<ConnId>,
    state: WsState,
    key: String,
    pre_open_buf: Vec<u8>,
    decoder: FrameDecoder,
    handlers: WsHandlers,
    mask_counter: u32,
    via_flash_shim: bool,
    connect_started_ns: u64,
}

/// A client WebSocket. Cheaply cloneable handle.
#[derive(Clone)]
pub struct WebSocket {
    inner: Rc<RefCell<WsInner>>,
}

/// Extra setup latency when the Flash shim stands in for native
/// WebSockets.
const FLASH_SHIM_INIT_NS: u64 = 150_000_000;
/// Extra per-message overhead through the shim.
const FLASH_SHIM_MSG_NS: u64 = 500_000;

impl WebSocket {
    /// Open a WebSocket to `port` on the fabric. The handshake runs
    /// asynchronously; `handlers.on_open` fires when it completes.
    pub fn connect(
        engine: &Engine,
        net: &Network,
        port: u16,
        handlers: WsHandlers,
    ) -> Result<WebSocket, WsError> {
        let via_flash_shim = !engine.profile().has_websockets;
        // Derive a deterministic nonce from engine time + port so runs
        // are reproducible.
        let mut nonce = [0u8; 16];
        let seed = engine.now_ns() ^ (u64::from(port) << 48) ^ 0x9E37_79B9_7F4A_7C15;
        for (i, b) in nonce.iter_mut().enumerate() {
            *b = (seed >> ((i % 8) * 8)) as u8 ^ (i as u8).wrapping_mul(31);
        }
        let key = handshake::client_key(nonce);

        let ws = WebSocket {
            inner: Rc::new(RefCell::new(WsInner {
                engine: engine.clone(),
                net: net.clone(),
                conn: None,
                state: WsState::Connecting,
                key: key.clone(),
                pre_open_buf: Vec::new(),
                decoder: FrameDecoder::for_client(),
                handlers,
                mask_counter: 1,
                via_flash_shim,
                connect_started_ns: engine.now_ns(),
            })),
        };

        let shim_delay = if via_flash_shim {
            FLASH_SHIM_INIT_NS
        } else {
            0
        };
        let ws2 = ws.clone();
        let net = net.clone();
        engine.complete_async_after(shim_delay, move |e| {
            let ws3 = ws2.clone();
            let ws4 = ws2.clone();
            let result = net.connect(
                port,
                ClientHandlers {
                    on_connect: Some(Box::new(move |e2: &Engine| {
                        // Connection up: send the Upgrade request.
                        let inner = ws3.inner.borrow();
                        if let Some(id) = inner.conn {
                            let req = handshake::request("doppio.sim", "/", &inner.key);
                            let _ = inner.net.client_send(id, req);
                        }
                        let _ = e2;
                    })),
                    on_data: Some(Box::new(move |e2, data: Segment| {
                        ws4.on_bytes(e2, data.to_vec())
                    })),
                    on_close: Some(Box::new({
                        let ws5 = ws2.clone();
                        move |e2: &Engine| ws5.handle_close(e2)
                    })),
                },
            );
            match result {
                Ok(id) => ws2.inner.borrow_mut().conn = Some(id),
                Err(_refused) => ws2.handle_close(e),
            }
        });
        Ok(ws)
    }

    /// Connection state.
    pub fn state(&self) -> WsState {
        self.inner.borrow().state
    }

    /// Whether this socket runs through the Flash shim (§5.3: older
    /// browsers without WebSocket support).
    pub fn via_flash_shim(&self) -> bool {
        self.inner.borrow().via_flash_shim
    }

    fn next_mask(&self) -> [u8; 4] {
        let mut inner = self.inner.borrow_mut();
        inner.mask_counter = inner
            .mask_counter
            .wrapping_mul(1664525)
            .wrapping_add(1013904223);
        inner.mask_counter.to_be_bytes()
    }

    /// Send a message frame.
    pub fn send(&self, frame: Frame) -> Result<(), WsError> {
        let mask = self.next_mask();
        let inner = self.inner.borrow();
        if inner.state != WsState::Open {
            return Err(WsError::NotOpen);
        }
        inner
            .engine
            .charge_n(Cost::TypedArrayByte, frame.payload.len() as u64);
        if inner.via_flash_shim {
            inner.engine.advance_ns(FLASH_SHIM_MSG_NS);
        }
        let id = inner.conn.ok_or(WsError::NotOpen)?;
        let tracer = inner.engine.tracer();
        if tracer.enabled() {
            tracer.instant(
                cat::NET,
                "frame_send",
                inner.engine.now_ns(),
                0,
                vec![
                    ("bytes", ArgValue::U64(frame.payload.len() as u64)),
                    ("opcode", ArgValue::from(frame.opcode.name())),
                ],
            );
        }
        inner.net.client_send(id, encode(&frame, Some(mask)))?;
        Ok(())
    }

    /// Send binary data.
    pub fn send_binary(&self, data: Vec<u8>) -> Result<(), WsError> {
        self.send(Frame::binary(data))
    }

    /// Close the connection (sends a Close frame, then closes TCP).
    pub fn close(&self) {
        let (engine, net, id, was_open) = {
            let mut inner = self.inner.borrow_mut();
            let was_open = inner.state == WsState::Open;
            inner.state = WsState::Closed;
            (
                inner.engine.clone(),
                inner.net.clone(),
                inner.conn,
                was_open,
            )
        };
        if let Some(id) = id {
            if was_open {
                let _ = net.client_send(id, encode(&Frame::close(), Some([0, 0, 0, 0])));
            }
            net.client_close(id);
        }
        let _ = engine;
    }

    fn on_bytes(&self, engine: &Engine, data: Vec<u8>) {
        // Phase 1: buffer the handshake response head.
        let leftover = {
            let mut inner = self.inner.borrow_mut();
            match inner.state {
                WsState::Connecting => {
                    inner.pre_open_buf.extend_from_slice(&data);
                    match handshake::head_len(&inner.pre_open_buf) {
                        None => return,
                        Some(n) => {
                            let head = inner.pre_open_buf[..n].to_vec();
                            let rest = inner.pre_open_buf[n..].to_vec();
                            inner.pre_open_buf.clear();
                            match handshake::check_response(&head, &inner.key) {
                                Ok(()) => {
                                    inner.state = WsState::Open;
                                    let cb = inner.handlers.on_open.take();
                                    let started = inner.connect_started_ns;
                                    let shim = inner.via_flash_shim;
                                    drop(inner);
                                    let tracer = engine.tracer();
                                    if tracer.enabled() {
                                        tracer.complete(
                                            cat::NET,
                                            "handshake",
                                            started,
                                            engine.now_ns().saturating_sub(started),
                                            0,
                                            vec![("flash_shim", ArgValue::Bool(shim))],
                                        );
                                    }
                                    if let Some(cb) = cb {
                                        cb(engine);
                                    }
                                    Some(rest)
                                }
                                Err(_detail) => {
                                    drop(inner);
                                    self.close_internal(engine);
                                    return;
                                }
                            }
                        }
                    }
                }
                WsState::Open => Some(data),
                WsState::Closed => return,
            }
        };

        // Phase 2: frame decoding.
        if let Some(bytes) = leftover {
            if !bytes.is_empty() {
                self.inner.borrow_mut().decoder.feed(&bytes);
            }
            self.pump_frames(engine);
        }
    }

    /// Pull decoded frames and dispatch them. A malformed frame tears
    /// the connection down, as the browser would.
    fn pump_frames(&self, engine: &Engine) {
        loop {
            let frame = {
                let mut inner = self.inner.borrow_mut();
                if inner.state != WsState::Open {
                    return;
                }
                inner.decoder.next_frame()
            };
            match frame {
                Ok(Some(f)) => self.dispatch_frame(engine, f),
                Ok(None) => break,
                Err(_) => {
                    self.close_internal(engine);
                    break;
                }
            }
        }
    }

    fn dispatch_frame(&self, engine: &Engine, frame: Frame) {
        match frame.opcode {
            Opcode::Close => self.close_internal(engine),
            Opcode::Ping => {
                // Reply with Pong, as the browser does automatically.
                let mask = self.next_mask();
                let inner = self.inner.borrow();
                if let Some(id) = inner.conn {
                    let pong = Frame {
                        fin: true,
                        opcode: Opcode::Pong,
                        payload: frame.payload,
                    };
                    let _ = inner.net.client_send(id, encode(&pong, Some(mask)));
                }
            }
            Opcode::Pong => {}
            Opcode::Text | Opcode::Binary | Opcode::Continuation => {
                if self.inner.borrow().via_flash_shim {
                    engine.advance_ns(FLASH_SHIM_MSG_NS);
                }
                let tracer = engine.tracer();
                if tracer.enabled() {
                    tracer.instant(
                        cat::NET,
                        "frame_recv",
                        engine.now_ns(),
                        0,
                        vec![
                            ("bytes", ArgValue::U64(frame.payload.len() as u64)),
                            ("opcode", ArgValue::from(frame.opcode.name())),
                        ],
                    );
                }
                let handler = self.inner.borrow_mut().handlers.on_message.take();
                if let Some(mut h) = handler {
                    h(engine, frame);
                    let mut inner = self.inner.borrow_mut();
                    if inner.handlers.on_message.is_none() {
                        inner.handlers.on_message = Some(h);
                    }
                }
            }
        }
    }

    fn handle_close(&self, engine: &Engine) {
        self.close_internal(engine);
    }

    fn close_internal(&self, engine: &Engine) {
        let cb = {
            let mut inner = self.inner.borrow_mut();
            if inner.state == WsState::Closed {
                None
            } else {
                inner.state = WsState::Closed;
                if let Some(id) = inner.conn {
                    inner.net.client_close(id);
                }
                inner.handlers.on_close.take()
            }
        };
        if let Some(cb) = cb {
            cb(engine);
        }
    }
}

impl fmt::Debug for WebSocket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("WebSocket")
            .field("state", &inner.state)
            .field("via_flash_shim", &inner.via_flash_shim)
            .finish()
    }
}
