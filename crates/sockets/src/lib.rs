//! Doppio TCP sockets over emulated WebSockets (§5.3).
//!
//! Browsers forbid raw sockets; the only escape hatch is WebSockets —
//! outgoing-only, handshaken over HTTP, message-framed. Doppio gives
//! *clients in the browser* a Unix-style socket API
//! ([`DoppioSocket`]) over WebSocket frames, and *unmodified servers on
//! native hosts* a [`Websockify`] bridge that translates incoming
//! WebSocket connections into plain TCP. Older browsers without
//! WebSockets route through the Websockify **Flash shim**
//! automatically.
//!
//! Underneath both sits a simulated TCP [`Network`] that carries every
//! transmission as a [`Segment`]: an ordered list of shared [`Bytes`]
//! parts (scatter-gather, like an iovec). A sender hands over buffers
//! it already holds, a `Split` fault cuts a segment by slicing a part,
//! and receivers get the parts themselves, so a payload crosses every
//! hop as one host allocation. Receivers that want contiguous bytes
//! call [`Segment::to_vec`].
//!
//! # Example: echo through the bridge
//!
//! ```
//! use doppio_jsengine::{Browser, Engine};
//! use doppio_sockets::{DoppioSocket, Network, Segment, ServerConn, TcpServerApp, Websockify};
//! use std::rc::Rc;
//!
//! struct Echo;
//! impl TcpServerApp for Echo {
//!     fn on_connect(&self, _: &Engine, _: ServerConn) {}
//!     fn on_data(&self, _: &Engine, c: ServerConn, data: Segment) {
//!         c.send(data); // an unmodified TCP echo server: the same parts go back
//!     }
//!     fn on_close(&self, _: &Engine, _: doppio_sockets::ConnId) {}
//! }
//!
//! let engine = Engine::new(Browser::Chrome);
//! let net = Network::new(&engine);
//! net.listen(7000, Rc::new(Echo));          // the "native" server
//! Websockify::listen(&net, 8080, 7000);     // the bridge
//!
//! let sock = DoppioSocket::connect(&engine, &net, 8080).unwrap();
//! engine.run_until_idle(); // handshake completes
//! sock.send(b"hello").unwrap();
//! engine.run_until_idle();
//! assert_eq!(sock.recv(64), b"hello");
//! ```

pub mod bytes;
pub mod frames;
pub mod handshake;
pub mod network;
pub mod sha1;
pub mod socket;
pub mod websocket;
pub mod websockify;

pub use bytes::{Bytes, Segment};
pub use frames::{Frame, FrameDecoder, FrameError, Opcode};
pub use network::{ClientHandlers, ConnId, NetError, Network, ServerConn, TcpServerApp};
pub use socket::{DoppioSocket, SocketConfig, SocketState};
pub use websocket::{WebSocket, WsError, WsHandlers, WsState};
pub use websockify::Websockify;

/// Canonical label for a guest thread blocked on a socket operation,
/// used as the `Async` resource name in the runtime's wait-for graph
/// (deadlock blame says *which* socket call a thread is stuck in, e.g.
/// `net.read(fd=3)`).
pub fn wait_label(op: &str, fd: usize) -> String {
    format!("net.{op}(fd={fd})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_jsengine::{Browser, Engine};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// An unmodified TCP echo server.
    struct Echo;
    impl TcpServerApp for Echo {
        fn on_connect(&self, _: &Engine, _: ServerConn) {}
        fn on_data(&self, _: &Engine, c: ServerConn, data: Segment) {
            c.send(data);
        }
        fn on_close(&self, _: &Engine, _: ConnId) {}
    }

    /// A server that records exactly the raw bytes it receives —
    /// proving Websockify strips all framing.
    struct Recorder {
        got: Rc<RefCell<Vec<u8>>>,
    }
    impl TcpServerApp for Recorder {
        fn on_connect(&self, _: &Engine, _: ServerConn) {}
        fn on_data(&self, _: &Engine, _c: ServerConn, data: Segment) {
            self.got.borrow_mut().extend(data.to_vec());
        }
        fn on_close(&self, _: &Engine, _: ConnId) {}
    }

    fn bridge_setup(engine: &Engine) -> Network {
        let net = Network::new(engine);
        net.listen(7000, Rc::new(Echo));
        Websockify::listen(&net, 8080, 7000);
        net
    }

    #[test]
    fn echo_round_trip_through_websockify() {
        let engine = Engine::new(Browser::Chrome);
        let net = bridge_setup(&engine);
        let sock = DoppioSocket::connect(&engine, &net, 8080).unwrap();
        engine.run_until_idle();
        assert_eq!(sock.state(), SocketState::Open);
        sock.send(b"hello, native world").unwrap();
        engine.run_until_idle();
        assert_eq!(sock.recv(1024), b"hello, native world");
    }

    #[test]
    fn server_sees_raw_bytes_not_frames() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let got = Rc::new(RefCell::new(Vec::new()));
        net.listen(9000, Rc::new(Recorder { got: got.clone() }));
        Websockify::listen(&net, 9001, 9000);
        let sock = DoppioSocket::connect(&engine, &net, 9001).unwrap();
        engine.run_until_idle();
        let payload = b"\x00\x01binary\xFFpayload";
        sock.send(payload).unwrap();
        engine.run_until_idle();
        // The unmodified server received the exact application bytes:
        // no HTTP, no frame headers, no masking.
        assert_eq!(got.borrow().as_slice(), payload);
    }

    #[test]
    fn multiple_messages_preserve_order_and_boundaries_as_a_stream() {
        let engine = Engine::new(Browser::Chrome);
        let net = bridge_setup(&engine);
        let sock = DoppioSocket::connect(&engine, &net, 8080).unwrap();
        engine.run_until_idle();
        for msg in ["one", "two", "three"] {
            sock.send(msg.as_bytes()).unwrap();
        }
        engine.run_until_idle();
        assert_eq!(sock.recv(1024), b"onetwothree");
    }

    #[test]
    fn close_propagates_to_client() {
        struct Slammer;
        impl TcpServerApp for Slammer {
            fn on_connect(&self, _: &Engine, _: ServerConn) {}
            fn on_data(&self, _: &Engine, c: ServerConn, _d: Segment) {
                c.close();
            }
            fn on_close(&self, _: &Engine, _: ConnId) {}
        }
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        net.listen(7000, Rc::new(Slammer));
        Websockify::listen(&net, 8080, 7000);
        let sock = DoppioSocket::connect(&engine, &net, 8080).unwrap();
        engine.run_until_idle();
        sock.send(b"bye").unwrap();
        engine.run_until_idle();
        assert_eq!(sock.state(), SocketState::Closed);
        assert!(sock.send(b"more").is_err());
    }

    #[test]
    fn connecting_to_dead_bridge_target_fails_cleanly() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        Websockify::listen(&net, 8080, 7000); // nothing on 7000
        let sock = DoppioSocket::connect(&engine, &net, 8080).unwrap();
        engine.run_until_idle();
        assert_eq!(sock.state(), SocketState::Closed);
    }

    #[test]
    fn connecting_to_unbound_port_closes() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let sock = DoppioSocket::connect(&engine, &net, 12345).unwrap();
        engine.run_until_idle();
        assert_eq!(sock.state(), SocketState::Closed);
    }

    #[test]
    fn ie8_uses_the_flash_shim_and_still_works() {
        let engine = Engine::new(Browser::Ie8);
        let net = bridge_setup(&engine);
        let sock = DoppioSocket::connect(&engine, &net, 8080).unwrap();
        engine.run_until_idle();
        assert!(sock.via_flash_shim());
        assert_eq!(sock.state(), SocketState::Open);
        sock.send(b"legacy").unwrap();
        engine.run_until_idle();
        assert_eq!(sock.recv(64), b"legacy");
    }

    #[test]
    fn flash_shim_costs_more_virtual_time() {
        let run = |browser| {
            let engine = Engine::new(browser);
            let net = bridge_setup(&engine);
            let t0 = engine.now_ns();
            let sock = DoppioSocket::connect(&engine, &net, 8080).unwrap();
            engine.run_until_idle();
            sock.send(b"x").unwrap();
            engine.run_until_idle();
            assert_eq!(sock.recv(16), b"x");
            engine.now_ns() - t0
        };
        let chrome = run(Browser::Chrome);
        let ie8 = run(Browser::Ie8);
        assert!(ie8 > chrome + 100_000_000, "ie8={ie8} chrome={chrome}");
    }

    #[test]
    fn data_waker_fires_on_arrival() {
        let engine = Engine::new(Browser::Chrome);
        let net = bridge_setup(&engine);
        let sock = DoppioSocket::connect(&engine, &net, 8080).unwrap();
        let wakes = Rc::new(RefCell::new(0u32));
        let w = wakes.clone();
        sock.set_data_waker(Box::new(move |_| *w.borrow_mut() += 1));
        engine.run_until_idle();
        let before = *wakes.borrow(); // woke at least on open
        assert!(before >= 1);
        sock.send(b"ping").unwrap();
        engine.run_until_idle();
        assert!(*wakes.borrow() > before);
        assert_eq!(sock.recv(16), b"ping");
    }

    #[test]
    fn large_payload_crosses_intact() {
        let engine = Engine::new(Browser::Chrome);
        let net = bridge_setup(&engine);
        let sock = DoppioSocket::connect(&engine, &net, 8080).unwrap();
        engine.run_until_idle();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        sock.send(&payload).unwrap();
        engine.run_until_idle();
        let mut got = Vec::new();
        loop {
            let chunk = sock.recv(4096);
            if chunk.is_empty() {
                break;
            }
            got.extend(chunk);
        }
        assert_eq!(got, payload);
    }

    #[test]
    fn robust_socket_reconnects_after_injected_reset() {
        use doppio_faults::{FaultConfig, FaultPlan};
        use socket::SocketConfig;
        let engine = Engine::new(Browser::Chrome);
        let net = bridge_setup(&engine);
        let sock = DoppioSocket::connect_with(
            &engine,
            &net,
            8080,
            SocketConfig {
                max_reconnects: 3,
                queue_while_connecting: true,
                ..SocketConfig::default()
            },
        )
        .unwrap();
        engine.run_until_idle();
        assert_eq!(sock.state(), SocketState::Open);

        // One reset, then the fabric heals (fault budget of 1).
        net.set_faults(FaultPlan::new(
            42,
            FaultConfig {
                net_reset_p: 1.0,
                max_net_faults: 1,
                ..FaultConfig::default()
            },
        ));
        sock.send(b"lost to the reset").unwrap();
        engine.run_until_idle();
        // The socket re-dialed and came back up on its own.
        assert_eq!(sock.state(), SocketState::Open);
        assert_eq!(sock.reconnects(), 1);
        sock.send(b"after recovery").unwrap();
        engine.run_until_idle();
        assert_eq!(sock.recv(64), b"after recovery");
    }

    #[test]
    fn connect_timeout_gives_up_on_a_silent_server() {
        use socket::SocketConfig;
        /// Accepts connections but never answers the handshake.
        struct BlackHole;
        impl TcpServerApp for BlackHole {
            fn on_connect(&self, _: &Engine, _: ServerConn) {}
            fn on_data(&self, _: &Engine, _: ServerConn, _d: Segment) {}
            fn on_close(&self, _: &Engine, _: ConnId) {}
        }
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        net.listen(8080, Rc::new(BlackHole));
        let sock = DoppioSocket::connect_with(
            &engine,
            &net,
            8080,
            SocketConfig {
                connect_timeout_ns: Some(500_000_000),
                max_reconnects: 2,
                ..SocketConfig::default()
            },
        )
        .unwrap();
        engine.run_until_idle();
        // Initial dial plus both re-dials timed out; the socket gave up.
        assert_eq!(sock.state(), SocketState::Closed);
        assert_eq!(sock.reconnects(), 2);
    }

    #[test]
    fn sends_queued_while_connecting_flush_on_open() {
        use socket::SocketConfig;
        let engine = Engine::new(Browser::Chrome);
        let net = bridge_setup(&engine);
        let sock = DoppioSocket::connect_with(
            &engine,
            &net,
            8080,
            SocketConfig {
                queue_while_connecting: true,
                ..SocketConfig::default()
            },
        )
        .unwrap();
        // Sent before the handshake completes: queued, not an error.
        sock.send(b"early bird").unwrap();
        engine.run_until_idle();
        assert_eq!(sock.state(), SocketState::Open);
        assert_eq!(sock.recv(64), b"early bird");
    }

    #[test]
    fn send_timeout_fails_a_socket_that_cannot_flush() {
        use socket::SocketConfig;
        /// Accepts connections but never answers the handshake.
        struct BlackHole;
        impl TcpServerApp for BlackHole {
            fn on_connect(&self, _: &Engine, _: ServerConn) {}
            fn on_data(&self, _: &Engine, _: ServerConn, _d: Segment) {}
            fn on_close(&self, _: &Engine, _: ConnId) {}
        }
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        net.listen(8080, Rc::new(BlackHole));
        let sock = DoppioSocket::connect_with(
            &engine,
            &net,
            8080,
            SocketConfig {
                queue_while_connecting: true,
                send_timeout_ns: Some(2_000_000_000),
                ..SocketConfig::default()
            },
        )
        .unwrap();
        sock.send(b"never flushes").unwrap();
        engine.run_until_idle();
        assert_eq!(sock.state(), SocketState::Closed);
        assert!(sock.send(b"more").is_err());
    }

    #[test]
    fn raw_non_websocket_client_gets_rejected_by_bridge() {
        let engine = Engine::new(Browser::Chrome);
        let net = bridge_setup(&engine);
        let response = Rc::new(RefCell::new(Vec::new()));
        let r = response.clone();
        let id = net
            .connect(
                8080,
                ClientHandlers {
                    on_connect: None,
                    on_data: Some(Box::new(move |_, d| r.borrow_mut().extend(d.to_vec()))),
                    on_close: None,
                },
            )
            .unwrap();
        net.client_send(id, b"NOT AN HTTP UPGRADE\r\n\r\n".to_vec())
            .unwrap();
        engine.run_until_idle();
        let text = String::from_utf8_lossy(&response.borrow()).into_owned();
        assert!(text.contains("400"), "got {text:?}");
    }
}
