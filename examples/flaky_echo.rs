//! Fault injection and recovery: an echo session over a *flaky*
//! network fabric, with deterministic seeded faults, automatic
//! reconnect-with-backoff, and the whole story recorded in a Chrome
//! trace.
//!
//! A seeded [`FaultPlan`](doppio::faults::FaultPlan) makes the
//! simulated network drop segments, reset connections, spike latency,
//! and split deliveries. The client uses
//! [`SocketConfig::robust()`](doppio::sockets::SocketConfig::robust),
//! so a reset tears the transport down but the socket re-dials behind
//! the application's back with seeded exponential backoff. The same
//! seed always produces the same faults, the same backoff delays, and
//! the same trace — run it twice and diff the output.
//!
//! Run with: `cargo run --example flaky_echo -- [seed] [--trace out.json]`

use std::rc::Rc;

use doppio::faults::{FaultConfig, FaultPlan};
use doppio::jsengine::{Browser, Engine};
use doppio::sockets::{
    ConnId, DoppioSocket, Network, Segment, ServerConn, SocketConfig, SocketState, TcpServerApp,
    Websockify,
};
use doppio::trace::{chrome, RingSink};

/// An unmodified TCP echo server.
struct Echo;
impl TcpServerApp for Echo {
    fn on_connect(&self, _: &Engine, _: ServerConn) {}
    fn on_data(&self, _: &Engine, c: ServerConn, data: Segment) {
        c.send(data);
    }
    fn on_close(&self, _: &Engine, _: ConnId) {}
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .and_then(|a| a.parse().ok())
        .unwrap_or(42);
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace needs a file path").clone());

    let sink = Rc::new(RingSink::default());
    let engine = Engine::builder(Browser::Chrome)
        .trace_sink(sink.clone())
        .build();
    let net = Network::new(&engine);
    net.listen(7000, Rc::new(Echo));
    Websockify::listen(&net, 8080, 7000);

    // A mean but bounded fabric: every fault kind enabled, 16 total.
    let plan = FaultPlan::new(
        seed,
        FaultConfig {
            net_drop_p: 0.05,
            net_reset_p: 0.03,
            net_spike_p: 0.15,
            net_split_p: 0.15,
            max_net_faults: 16,
            ..FaultConfig::default()
        },
    );
    net.set_faults(plan.clone());

    let sock =
        DoppioSocket::connect_with(&engine, &net, 8080, SocketConfig::robust()).expect("connect");
    engine.run_until_idle();
    println!("seed {seed}: connected, state {:?}", sock.state());

    // At-least-once delivery on top of the self-healing socket: resend
    // each message until its echo arrives.
    let mut resends = 0;
    for i in 0..20 {
        let msg = format!("payload-{i:02}");
        loop {
            if sock.state() == SocketState::Closed {
                println!("socket exhausted its reconnect budget, giving up");
                return;
            }
            let _ = sock.send(msg.as_bytes());
            engine.run_until_idle();
            let got = sock.recv(4096);
            if got == msg.as_bytes() {
                break;
            }
            resends += 1;
            println!("  {msg}: lost in transit, resending");
        }
    }

    println!("---");
    println!("20 messages echoed at t={} ms", engine.now_ns() / 1_000_000);
    println!(
        "faults injected: {} ({} resends, {} transport re-dials)",
        plan.net_injected(),
        resends,
        sock.reconnects(),
    );
    for rec in plan.log() {
        println!("  [{:>9} ns] {} {}", rec.ts_ns, rec.kind, rec.detail);
    }

    if let Some(path) = trace_path {
        let doc = chrome::export_sink(&sink);
        std::fs::write(&path, &doc).expect("write trace file");
        println!("wrote trace to {path} (open in ui.perfetto.dev, look for the 'fault' category)");
    }
}
