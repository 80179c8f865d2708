//! Timing golden for the fs backends (§5.1): when each operation
//! completes, and what modification time it stamps.
//!
//! `tests/fs_conformance.rs` pins what every backend *answers* and
//! leaves latency and `mtime_ns` out on purpose. This file pins the
//! rest. Each backend runs on a fresh engine under a named browser
//! profile, so the typed-array and JS-array charge paths both show:
//! - the conformance suite's seed-1 generated ops;
//! - its directed error script;
//! - syncs of 0, 1,024, 1,025 and 70,000 bytes (the per-KiB rounding of
//!   bandwidth-charged stores), each with a stat and a read back;
//! - on the XHR store, reads, stats and listings of a fixed file set
//!   and the `EROFS` of every write.
//!
//! Each line is the op, its normalized result (`mtime_ns` included for
//! `stat`) and its completion time in virtual ns since issue. The
//! whole transcript must equal `tests/golden/fs/backend_timing.txt`.

mod common;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use common::check_golden;
use doppio::fs::backend::{FsCallback, OpenFlags, SharedBackend};
use doppio::fs::backends;
use doppio::fs::error::FsResult;
use doppio::jsengine::{Browser, Engine};
use doppio::prng::SplitMix64;
use doppio::sockets::Network;
use doppio::storage::{StorageCluster, StorageConfig};

/// One backend operation.
#[derive(Debug, Clone)]
enum Op {
    Stat(String),
    Open(String, &'static str),
    Sync(String, Vec<u8>),
    Close(String),
    Rename(String, String),
    Unlink(String),
    Mkdir(String),
    Rmdir(String),
    Readdir(String),
    Utimes(String, u64),
}

impl Op {
    fn describe(&self) -> String {
        match self {
            Op::Stat(p) => format!("stat {p}"),
            Op::Open(p, f) => format!("open({f}) {p}"),
            Op::Sync(p, d) => format!("sync {p} ({} bytes)", d.len()),
            Op::Close(p) => format!("close {p}"),
            Op::Rename(a, b) => format!("rename {a} -> {b}"),
            Op::Unlink(p) => format!("unlink {p}"),
            Op::Mkdir(p) => format!("mkdir {p}"),
            Op::Rmdir(p) => format!("rmdir {p}"),
            Op::Readdir(p) => format!("readdir {p}"),
            Op::Utimes(p, t) => format!("utimes {p} {t}"),
        }
    }
}

/// The conformance suite's path pool and generator, draw for draw, so
/// seed 1 yields the same ops there and here.
const PATHS: &[&str] = &[
    "/a",
    "/b",
    "/c",
    "/dir",
    "/dir/x",
    "/dir/y",
    "/dir/sub",
    "/dir/sub/z",
    "/other",
];

fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let pick = |rng: &mut SplitMix64| {
        let i = (rng.next_u64() % PATHS.len() as u64) as usize;
        PATHS[i].to_string()
    };
    (0..n)
        .map(|_| match rng.next_u64() % 10 {
            0 => Op::Stat(pick(&mut rng)),
            1 => {
                let flags = ["r", "w", "wx", "a"][(rng.next_u64() % 4) as usize];
                Op::Open(pick(&mut rng), flags)
            }
            2 | 3 => {
                let len = (rng.next_u64() % 48) as usize;
                let data = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
                Op::Sync(pick(&mut rng), data)
            }
            4 => Op::Rename(pick(&mut rng), pick(&mut rng)),
            5 => Op::Unlink(pick(&mut rng)),
            6 => Op::Mkdir(pick(&mut rng)),
            7 => Op::Rmdir(pick(&mut rng)),
            _ => Op::Readdir(pick(&mut rng)),
        })
        .collect()
}

/// The conformance suite's directed error script.
fn error_script() -> Vec<Op> {
    vec![
        Op::Mkdir("/dir".into()),
        Op::Mkdir("/dir".into()),
        Op::Sync("/dir/x".into(), b"payload".into()),
        Op::Open("/dir/x".into(), "w"),
        Op::Sync("/dir/x".into(), b"payload".into()),
        Op::Open("/dir".into(), "r"),
        Op::Open("/missing".into(), "r"),
        Op::Rmdir("/dir".into()),
        Op::Unlink("/dir/x".into()),
        Op::Rmdir("/dir".into()),
        Op::Readdir("/dir".into()),
    ]
}

/// Whole-file syncs around the KiB boundary and one large image, each
/// followed by a stat (the size and `mtime_ns` the sync recorded) and
/// a read back (the read's own per-KiB charge).
fn sized_script() -> Vec<Op> {
    let mut ops = Vec::new();
    for len in [0usize, 1_024, 1_025, 70_000] {
        let path = format!("/sized{len}");
        let data = (0..len).map(|i| (i % 251) as u8).collect();
        ops.push(Op::Sync(path.clone(), data));
        ops.push(Op::Close(path.clone()));
        ops.push(Op::Stat(path.clone()));
        ops.push(Op::Open(path, "r"));
    }
    ops.push(Op::Utimes("/sized0".into(), 42));
    ops.push(Op::Stat("/sized0".into()));
    ops
}

/// The XHR store's file set: nested directories and payloads on both
/// sides of a KiB boundary.
fn server_files() -> BTreeMap<String, Vec<u8>> {
    [
        ("/index.html", 300usize),
        ("/lib/a.class", 1_024),
        ("/lib/b.class", 1_025),
        ("/lib/sub/c.txt", 5_000),
    ]
    .into_iter()
    .map(|(p, len)| (p.to_string(), (0..len).map(|i| (i % 199) as u8).collect()))
    .collect()
}

/// Reads, stats and listings of the served files, then every write op,
/// each of which the read-only store must refuse.
fn xhr_script() -> Vec<Op> {
    vec![
        Op::Stat("/lib/a.class".into()),
        Op::Stat("/lib/b.class".into()),
        Op::Stat("/lib".into()),
        Op::Stat("/missing".into()),
        Op::Open("/index.html".into(), "r"),
        Op::Open("/lib/a.class".into(), "r"),
        Op::Open("/lib/b.class".into(), "r"),
        Op::Open("/lib/sub/c.txt".into(), "r"),
        Op::Open("/lib".into(), "r"),
        Op::Open("/missing".into(), "r"),
        Op::Readdir("/".into()),
        Op::Readdir("/lib".into()),
        Op::Readdir("/lib/sub".into()),
        Op::Readdir("/lib/a.class".into()),
        Op::Readdir("/missing".into()),
        Op::Open("/lib/a.class".into(), "w"),
        Op::Open("/new.txt".into(), "w"),
        Op::Open("/lib/a.class".into(), "wx"),
        Op::Open("/lib/a.class".into(), "a"),
        Op::Sync("/lib/a.class".into(), b"overwrite".to_vec()),
        Op::Sync("/new.txt".into(), b"create".to_vec()),
        Op::Sync("/lib".into(), Vec::new()),
        Op::Rename("/lib/a.class".into(), "/lib/z.class".into()),
        Op::Rename("/missing".into(), "/elsewhere".into()),
        Op::Unlink("/lib/a.class".into()),
        Op::Unlink("/missing".into()),
        Op::Mkdir("/lib/new".into()),
        Op::Mkdir("/lib".into()),
        Op::Rmdir("/lib/sub".into()),
        Op::Rmdir("/missing".into()),
        Op::Utimes("/lib/a.class".into(), 7),
        Op::Stat("/lib/a.class".into()),
        Op::Close("/lib/a.class".into()),
    ]
}

/// Run one backend call to completion: its result and how many
/// virtual ns after issue its callback ran.
fn timed<T: 'static>(engine: &Engine, start: impl FnOnce(FsCallback<T>)) -> (FsResult<T>, u64) {
    let slot = Rc::new(RefCell::new(None));
    let s = slot.clone();
    let issued = engine.now_ns();
    start(Box::new(move |e, r| {
        *s.borrow_mut() = Some((r, e.now_ns()))
    }));
    engine.run_until_idle();
    let (r, done) = slot.borrow_mut().take().expect("backend op completed");
    (r, done - issued)
}

/// A result as errno code or payload; reads show their length and a
/// checksum instead of the bytes.
fn norm<T>(r: FsResult<T>, show: impl FnOnce(T) -> String) -> String {
    match r {
        Ok(v) => format!("ok {}", show(v)),
        Err(e) => format!("err {}", e.errno.code()),
    }
}

fn apply(engine: &Engine, be: &SharedBackend, op: &Op) -> (String, u64) {
    fn done<T>((r, ns): (FsResult<T>, u64), show: impl FnOnce(T) -> String) -> (String, u64) {
        (norm(r, show), ns)
    }
    let unit = |what: &'static str| move |()| what.to_string();
    match op {
        Op::Stat(p) => done(timed(engine, |cb| be.stat(engine, p, cb)), |s| {
            format!("kind={:?} size={} mtime_ns={}", s.kind, s.size, s.mtime_ns)
        }),
        Op::Open(p, f) => {
            let flags = OpenFlags::parse(f).expect("valid flags");
            done(timed(engine, |cb| be.open(engine, p, flags, cb)), |d| {
                let sum = d
                    .iter()
                    .fold(0u32, |a, &b| a.wrapping_mul(31) ^ u32::from(b));
                format!("len={} sum={sum:08x}", d.len())
            })
        }
        Op::Sync(p, d) => done(
            timed(engine, |cb| be.sync(engine, p, d.clone(), cb)),
            unit("synced"),
        ),
        Op::Close(p) => done(timed(engine, |cb| be.close(engine, p, cb)), unit("closed")),
        Op::Rename(a, b) => done(
            timed(engine, |cb| be.rename(engine, a, b, cb)),
            unit("renamed"),
        ),
        Op::Unlink(p) => done(
            timed(engine, |cb| be.unlink(engine, p, cb)),
            unit("unlinked"),
        ),
        Op::Mkdir(p) => done(timed(engine, |cb| be.mkdir(engine, p, cb)), unit("made")),
        Op::Rmdir(p) => done(timed(engine, |cb| be.rmdir(engine, p, cb)), unit("removed")),
        Op::Readdir(p) => done(timed(engine, |cb| be.readdir(engine, p, cb)), |names| {
            format!("names={names:?}")
        }),
        Op::Utimes(p, t) => done(
            timed(engine, |cb| be.utimes(engine, p, *t, cb)),
            unit("touched"),
        ),
    }
}

/// The backends under test, each built on the engine it is handed.
type Build = fn(&Engine) -> SharedBackend;

fn replicated(engine: &Engine) -> SharedBackend {
    let net = Network::new(engine);
    let cluster = StorageCluster::launch(engine, &net, StorageConfig::default(), None);
    doppio::storage::replicated(&cluster, "t0")
}

fn mountable_in_memory(engine: &Engine) -> SharedBackend {
    backends::mountable(backends::in_memory(engine))
}

const BACKENDS: &[(&str, Browser, Build)] = &[
    ("in_memory", Browser::Chrome, backends::in_memory),
    ("in_memory", Browser::Safari, backends::in_memory),
    ("in_memory", Browser::Ie8, backends::in_memory),
    ("local_storage", Browser::Chrome, backends::local_storage),
    ("local_storage", Browser::Ie10, backends::local_storage),
    ("dropbox", Browser::Chrome, backends::dropbox),
    ("mountable(in_memory)", Browser::Chrome, mountable_in_memory),
    ("replicated", Browser::Chrome, replicated),
];

/// Run `script` on a fresh `browser` engine against `build`'s backend.
fn section(
    out: &mut String,
    title: &str,
    browser: Browser,
    build: &dyn Fn(&Engine) -> SharedBackend,
    script: &[Op],
) {
    let engine = Engine::new(browser);
    let be = build(&engine);
    out.push_str(&format!("== {title} on {browser:?}\n"));
    for op in script {
        let (result, ns) = apply(&engine, &be, op);
        out.push_str(&format!("{} => {result} @+{ns}ns\n", op.describe()));
    }
}

#[test]
fn backend_timing_matches_its_golden() {
    check_golden("fs/backend_timing", || {
        let scripts = [
            ("seed-1 ops", gen_ops(1, 120)),
            ("error script", error_script()),
            ("sized syncs", sized_script()),
        ];
        let mut out = String::new();
        for (name, browser, build) in BACKENDS {
            for (script, ops) in &scripts {
                section(&mut out, &format!("{name}: {script}"), *browser, build, ops);
            }
        }
        let xhr = |e: &Engine| backends::xhr(e, server_files());
        section(
            &mut out,
            "xhr: served files",
            Browser::Chrome,
            &xhr,
            &xhr_script(),
        );
        out
    });
}
