//! The Websockify server bridge (§5.3).
//!
//! "Existing socket-based servers and clients expect a standard TCP
//! handshake and the ability to define custom application-layer data
//! frame formats", so they can't speak WebSocket. Websockify "wraps
//! unmodified programs, and translates incoming WebSocket connections
//! into normal TCP connections". This bridge is a [`TcpServerApp`]
//! that listens on a public port, performs the WebSocket handshake,
//! unwraps client frames into raw bytes for the target server
//! (connected over the fabric like any TCP client), and wraps the
//! target's bytes into binary frames going back.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use doppio_jsengine::Engine;

use crate::bytes::Segment;
use crate::frames::{encode, Frame, FrameDecoder, Opcode};
use crate::handshake;
use crate::network::{ClientHandlers, ConnId, Network, ServerConn, TcpServerApp};

enum Phase {
    AwaitingHandshake {
        buf: Vec<u8>,
    },
    Established {
        decoder: FrameDecoder,
        inner: ConnId,
    },
    Dead,
}

struct ConnState {
    phase: Phase,
}

/// The bridge. Register it on a port with [`Network::listen`]; point it
/// at the target server's port.
pub struct Websockify {
    net: Network,
    target_port: u16,
    conns: Rc<RefCell<HashMap<ConnId, ConnState>>>,
}

impl Websockify {
    /// Bridge WebSocket connections to the plain-TCP server on
    /// `target_port`.
    pub fn new(net: &Network, target_port: u16) -> Rc<Websockify> {
        Rc::new(Websockify {
            net: net.clone(),
            target_port,
            conns: Rc::new(RefCell::new(HashMap::new())),
        })
    }

    /// Convenience: create the bridge and listen on `public_port`.
    pub fn listen(net: &Network, public_port: u16, target_port: u16) -> Rc<Websockify> {
        let bridge = Websockify::new(net, target_port);
        net.listen(public_port, bridge.clone());
        bridge
    }

    fn establish(&self, engine: &Engine, outer: &ServerConn, key: &str, extra: Vec<u8>) {
        // Connect to the target server as an ordinary TCP client.
        let conns = self.conns.clone();
        let outer_id = outer.id();
        let outer_for_data = outer.clone();
        let outer_for_close = outer.clone();
        let result = self.net.connect(
            self.target_port,
            ClientHandlers {
                on_connect: None,
                on_data: Some(Box::new(move |_e, bytes: Segment| {
                    // Target → client: wrap in an unmasked binary frame.
                    outer_for_data.send(encode(&Frame::binary(bytes.to_vec()), None));
                })),
                on_close: Some(Box::new(move |_e: &Engine| {
                    outer_for_close.send(encode(&Frame::close(), None));
                    outer_for_close.close();
                    conns.borrow_mut().remove(&outer_id);
                })),
            },
        );
        match result {
            Err(_refused) => {
                // Refuse the WebSocket too.
                outer.send(b"HTTP/1.1 502 Bad Gateway\r\n\r\n".to_vec());
                outer.close();
                self.conns.borrow_mut().remove(&outer.id());
            }
            Ok(inner) => {
                outer.send(handshake::response(key));
                let mut decoder = FrameDecoder::for_server();
                if !extra.is_empty() {
                    decoder.feed(&extra);
                }
                self.conns.borrow_mut().insert(
                    outer.id(),
                    ConnState {
                        phase: Phase::Established { decoder, inner },
                    },
                );
                self.pump(engine, outer);
            }
        }
    }

    fn pump(&self, _engine: &Engine, outer: &ServerConn) {
        loop {
            let action = {
                let mut conns = self.conns.borrow_mut();
                let Some(state) = conns.get_mut(&outer.id()) else {
                    return;
                };
                let Phase::Established { decoder, inner } = &mut state.phase else {
                    return;
                };
                let inner = *inner;
                match decoder.next_frame() {
                    Ok(Some(frame)) => Some((frame, inner)),
                    Ok(None) => None,
                    Err(_) => {
                        state.phase = Phase::Dead;
                        Some((Frame::close(), inner))
                    }
                }
            };
            match action {
                None => break,
                Some((frame, inner)) => match frame.opcode {
                    Opcode::Binary | Opcode::Text | Opcode::Continuation => {
                        // Client → target: unwrap to raw bytes.
                        let _ = self.net.client_send(inner, frame.payload);
                    }
                    Opcode::Close => {
                        self.net.client_close(inner);
                        outer.close();
                        self.conns.borrow_mut().remove(&outer.id());
                        break;
                    }
                    Opcode::Ping => {
                        let pong = Frame {
                            fin: true,
                            opcode: Opcode::Pong,
                            payload: frame.payload,
                        };
                        outer.send(encode(&pong, None));
                    }
                    Opcode::Pong => {}
                },
            }
        }
    }
}

impl TcpServerApp for Websockify {
    fn on_connect(&self, _engine: &Engine, conn: ServerConn) {
        self.conns.borrow_mut().insert(
            conn.id(),
            ConnState {
                phase: Phase::AwaitingHandshake { buf: Vec::new() },
            },
        );
    }

    fn on_data(&self, engine: &Engine, conn: ServerConn, data: Segment) {
        let data = data.to_vec();
        enum Next {
            Wait,
            Handshake { key: String, extra: Vec<u8> },
            Pump,
        }
        let next = {
            let mut conns = self.conns.borrow_mut();
            let Some(state) = conns.get_mut(&conn.id()) else {
                return;
            };
            match &mut state.phase {
                Phase::Dead => return,
                Phase::Established { decoder, .. } => {
                    decoder.feed(&data);
                    Next::Pump
                }
                Phase::AwaitingHandshake { buf } => {
                    buf.extend_from_slice(&data);
                    match handshake::head_len(buf) {
                        None => Next::Wait,
                        Some(n) => match handshake::parse_request(&buf[..n]) {
                            Ok(key) => Next::Handshake {
                                key,
                                extra: buf[n..].to_vec(),
                            },
                            Err(_) => {
                                state.phase = Phase::Dead;
                                Next::Wait
                            }
                        },
                    }
                }
            }
        };
        match next {
            Next::Wait => {
                // Either waiting for more header bytes, or a bad
                // handshake: reject the latter.
                let dead = matches!(
                    self.conns.borrow().get(&conn.id()).map(|s| &s.phase),
                    Some(Phase::Dead)
                );
                if dead {
                    conn.send(b"HTTP/1.1 400 Bad Request\r\n\r\n".to_vec());
                    conn.close();
                    self.conns.borrow_mut().remove(&conn.id());
                }
            }
            Next::Handshake { key, extra } => self.establish(engine, &conn, &key, extra),
            Next::Pump => self.pump(engine, &conn),
        }
    }

    fn on_close(&self, _engine: &Engine, conn: ConnId) {
        let inner = {
            let mut conns = self.conns.borrow_mut();
            match conns.remove(&conn) {
                Some(ConnState {
                    phase: Phase::Established { inner, .. },
                }) => Some(inner),
                _ => None,
            }
        };
        if let Some(inner) = inner {
            self.net.client_close(inner);
        }
    }
}
