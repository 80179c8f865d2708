//! End-to-end fault-injection checks: a seeded [`FaultPlan`] driving
//! the network fabric and the fs backends must be (a) fully
//! deterministic — two runs with the same seed produce the identical
//! event sequence, fault log, and exported Chrome trace — and (b)
//! recoverable — reconnect-with-backoff and the fs retry policy bring
//! the workloads to the correct final state, leaving `fault`-category
//! spans in the trace. The same-seed transcripts are checked against
//! goldens under `tests/golden/faults/`.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{check_golden, digest};
use doppio::faults::{FaultConfig, FaultPlan};
use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, Engine};
use doppio::sockets::{
    ConnId, DoppioSocket, Network, Segment, ServerConn, SocketConfig, SocketState, TcpServerApp,
    Websockify,
};
use doppio::trace::json::{self, Json};
use doppio::trace::{chrome, RingSink};
use doppio::workloads::fstrace::{self, javac_trace};

/// The fault seed of the recovery tests.
const SEED: u64 = 1;

/// An unmodified TCP echo server.
struct Echo;
impl TcpServerApp for Echo {
    fn on_connect(&self, _: &Engine, _: ServerConn) {}
    fn on_data(&self, _: &Engine, c: ServerConn, data: Segment) {
        c.send(data);
    }
    fn on_close(&self, _: &Engine, _: ConnId) {}
}

/// Drive an echo workload through Websockify over a faulty fabric and
/// return a full transcript of what happened: the per-message socket
/// observations, the plan's fault log, and the digest of the exported
/// Chrome trace. Every byte of it must be a pure function of the seed.
fn run_faulty_echo(seed: u64) -> (String, usize) {
    let sink = Rc::new(RingSink::default());
    let engine = Engine::builder(Browser::Chrome)
        .trace_sink(sink.clone())
        .build();
    let net = Network::new(&engine);
    net.listen(7000, Rc::new(Echo));
    Websockify::listen(&net, 8080, 7000);
    let plan = FaultPlan::new(
        seed,
        FaultConfig {
            net_drop_p: 0.05,
            net_reset_p: 0.02,
            net_spike_p: 0.15,
            net_split_p: 0.15,
            max_net_faults: 24,
            ..FaultConfig::default()
        },
    );
    net.set_faults(plan.clone());

    let sock = DoppioSocket::connect_with(&engine, &net, 8080, SocketConfig::robust()).unwrap();
    engine.run_until_idle();

    let mut transcript = Vec::new();
    for i in 0..30 {
        let msg = format!("msg-{i:02}");
        let sent = sock.send(msg.as_bytes()).is_ok();
        engine.run_until_idle();
        let got = sock.recv(4096);
        transcript.push(format!(
            "{i}: sent={sent} state={:?} reconnects={} got={} t={}",
            sock.state(),
            sock.reconnects(),
            got.len(),
            engine.now_ns(),
        ));
    }
    for rec in plan.log() {
        transcript.push(format!("fault {rec:?}"));
    }
    transcript.push(digest(&chrome::export_sink(&sink)));
    (
        format!("{}\n", transcript.join("\n")),
        plan.kinds_fired().len(),
    )
}

#[test]
fn same_seed_same_network_fault_sequence_and_trace() {
    check_golden("faults/echo_seed1", || {
        let (transcript, kinds) = run_faulty_echo(1);
        assert!(
            kinds >= 3,
            "the plan should exercise at least 3 fault kinds, fired {kinds}"
        );
        transcript
    });
}

#[test]
fn different_seeds_diverge() {
    let (a, _) = run_faulty_echo(101);
    let (b, _) = run_faulty_echo(102);
    assert_ne!(a, b, "distinct seeds should produce distinct histories");
}

/// Replay the javac fs trace against a faulty blob backend with the
/// frontend retry policy absorbing the injected failures. Returns the
/// replay observations plus the plan's fault log.
fn run_faulty_replay(seed: u64) -> String {
    let engine = Engine::new(Browser::Chrome);
    let inner = backends::in_memory(&engine);
    let trace = javac_trace(seed);
    {
        // Preload through the bare backend: the faults belong to the
        // replay, not the fixture setup.
        let plain = FileSystem::new(&engine, inner.clone());
        fstrace::preload(&engine, &plain, &trace);
    }
    let plan = FaultPlan::new(seed, FaultConfig::light());
    let fs = FileSystem::new(&engine, backends::faulty(inner, plan.clone()));
    fs.set_retry(true);
    let stats = fstrace::replay(&engine, &fs, &trace);

    // Recovery: despite the injected faults, the replay ran every op to
    // success (replay panics otherwise) and the written output is back.
    assert_eq!(stats.bytes_read as usize, trace.read_bytes());
    assert_eq!(stats.bytes_written as usize, trace.write_bytes());
    let ok = Rc::new(RefCell::new(false));
    let ok2 = ok.clone();
    fs.read_file("/out/Gen00.class", move |_, r| {
        assert!(!r.unwrap().is_empty());
        *ok2.borrow_mut() = true;
    });
    engine.run_until_idle();
    assert!(*ok.borrow());

    let mut out = format!(
        "{stats:?} retries={} injected={}\n",
        engine.metrics().get("fs.retries"),
        plan.fs_injected(),
    );
    for rec in plan.log() {
        out += &format!("  {}ns {} {}\n", rec.ts_ns, rec.kind, rec.detail);
    }
    out
}

#[test]
fn same_seed_same_fs_fault_sequence_and_outcome() {
    check_golden("faults/fs_replay_seed1", || run_faulty_replay(1));
}

#[test]
fn reconnect_recovers_the_echo_and_traces_the_faults() {
    let sink = Rc::new(RingSink::default());
    let engine = Engine::builder(Browser::Chrome)
        .trace_sink(sink.clone())
        .build();
    let net = Network::new(&engine);
    net.listen(7000, Rc::new(Echo));
    Websockify::listen(&net, 8080, 7000);
    let sock = DoppioSocket::connect_with(&engine, &net, 8080, SocketConfig::robust()).unwrap();
    engine.run_until_idle();
    assert_eq!(sock.state(), SocketState::Open);

    // Two connection resets, then the fabric heals.
    net.set_faults(FaultPlan::new(
        SEED,
        FaultConfig {
            net_reset_p: 1.0,
            max_net_faults: 2,
            ..FaultConfig::default()
        },
    ));

    // Application-level at-least-once delivery: resend until the echo
    // comes back; the socket's backoff reconnect does the heavy lifting.
    for msg in ["alpha", "bravo", "charlie"] {
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(attempts < 10, "echo of {msg} never recovered");
            assert_ne!(sock.state(), SocketState::Closed, "socket gave up");
            let _ = sock.send(msg.as_bytes());
            engine.run_until_idle();
            if sock.recv(1024) == msg.as_bytes() {
                break;
            }
        }
    }
    assert!(sock.reconnects() >= 1, "a reset must have forced a re-dial");

    // The whole story is visible in the exported trace.
    let doc = chrome::export_sink(&sink);
    let v = json::parse(&doc).expect("valid trace JSON");
    let events = v.get("traceEvents").and_then(Json::as_array).unwrap();
    let fault_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("fault"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        fault_names.contains(&"net_fault"),
        "missing net_fault span: {fault_names:?}"
    );
    assert!(
        fault_names.contains(&"socket_reconnect_backoff"),
        "missing backoff span: {fault_names:?}"
    );
}

#[test]
fn fs_retry_recovers_and_traces_the_faults() {
    let sink = Rc::new(RingSink::default());
    let engine = Engine::builder(Browser::Chrome)
        .trace_sink(sink.clone())
        .build();
    let plan = FaultPlan::new(
        SEED,
        FaultConfig {
            fs_eio_p: 1.0,
            max_fs_faults: 1,
            ..FaultConfig::default()
        },
    );
    let fs = FileSystem::new(
        &engine,
        backends::faulty(backends::in_memory(&engine), plan.clone()),
    );
    fs.set_retry(true);

    let ok = Rc::new(RefCell::new(false));
    let ok2 = ok.clone();
    fs.write_file("/journal", b"survived".to_vec(), |_, r| r.unwrap());
    engine.run_until_idle();
    fs.read_file("/journal", move |_, r| {
        assert_eq!(r.unwrap(), b"survived");
        *ok2.borrow_mut() = true;
    });
    engine.run_until_idle();
    assert!(*ok.borrow());
    assert_eq!(plan.fs_injected(), 1);
    assert!(engine.metrics().get("fs.retries") >= 1);

    let doc = chrome::export_sink(&sink);
    let v = json::parse(&doc).expect("valid trace JSON");
    let events = v.get("traceEvents").and_then(Json::as_array).unwrap();
    let fault_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("fault"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        fault_names.contains(&"fs_fault"),
        "missing fs_fault span: {fault_names:?}"
    );
    assert!(
        fault_names.contains(&"fs_retry"),
        "missing fs_retry span: {fault_names:?}"
    );
}
