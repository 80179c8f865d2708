//! `storage_write` and `storage_read`: a three-node `StorageCluster`
//! over the simulated network, drawing crashes and partitions from the
//! chaos `FaultPlan`, with one forced primary crash mid-replay. Every
//! round runs both phases on a fresh world:
//!
//! * Populate (closed loop, write-heavy): a writer session writes every
//!   file of the seeded `javac_trace` through a `FileSystem` on the
//!   replicated backend; each write also re-persists the whole
//!   directory index.
//! * Replay (open loop): a cold reader session (`ObjectStoreBackend::new`
//!   plus `hydrate`) replays the trace's reads, stats and readdirs on a
//!   fixed virtual schedule, each timed from its due instant.
//!
//! The two workloads run the same rounds and differ in which phase their
//! end-to-end metrics measure, so a change that speeds one phase and
//! slows the other moves a bounded metric on each. The JVM does nothing
//! here; sockets, storage, fs and the event loop do everything.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use doppio::faults::{FaultConfig, FaultPlan};
use doppio::fs::backend::FileKind;
use doppio::fs::backends::replicated::{ObjectStoreBackend, INDEX_KEY};
use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, Engine};
use doppio::prng::SplitMix64;
use doppio::report::RunReport;
use doppio::sockets::Network;
use doppio::storage::{HistoryRecorder, StorageCluster, StorageConfig};
use doppio::workloads::fstrace::{javac_trace, TraceOp};
use doppio::EngineBuilder;

use crate::spans::Recorder;
use crate::stats::{median, ratio, Digest, Latency};
use crate::{measure, repeat_setup, Opts, Outcome};

/// Virtual µs between replay arrivals: the trace's closed-loop replay
/// needs about 0.5 ms per op, so one op per ms stays below capacity.
const REPLAY_INTERVAL_US: u64 = 1_000;
/// How long the primary stays down after the forced mid-replay crash.
const CRASH_RESTART_NS: u64 = 20_000_000;

/// The phase a workload's end-to-end metrics measure.
#[derive(Clone, Copy)]
pub enum Phase {
    /// `storage_write`: the populate phase.
    Write,
    /// `storage_read`: the replay phase.
    Read,
}

/// What a replay op expects to observe.
enum Expect {
    Bytes(usize),
    Size(usize),
    Entries(Vec<String>),
}

struct Inputs {
    /// Directories to create, shallowest first.
    dirs: Vec<String>,
    /// Files to populate, in trace order, with their contents.
    files: Vec<(String, Rc<Vec<u8>>)>,
    /// Replay ops (reads, stats, readdirs) and their oracles.
    replay: Vec<(TraceOp, Expect)>,
    engine_seed: u64,
    plan_seed: u64,
}

/// Printable seeded content (the history recorder stores values as
/// text, so bytes stay ASCII).
fn content(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        let w = rng.next_u64();
        for i in 0..8 {
            if v.len() < len {
                v.push(b'a' + ((w >> (i * 8)) as u8 % 26));
            }
        }
    }
    v
}

fn setup(seed: u64, rec: &Recorder, parent: u64) -> Inputs {
    rec.span("datasets.gen", "", parent, |_| {
        let mut rng = SplitMix64::new(seed);
        let trace = javac_trace(rng.next_u64());
        let engine_seed = rng.next_u64();
        let plan_seed = rng.next_u64();
        let mut sizes: BTreeMap<String, usize> = trace.preload.iter().cloned().collect();
        let mut order: Vec<String> = trace.preload.iter().map(|(p, _)| p.clone()).collect();
        for op in &trace.ops {
            if let TraceOp::WriteFile(p, n) = op {
                if sizes.insert(p.clone(), *n).is_none() {
                    order.push(p.clone());
                }
            }
        }
        let files: Vec<(String, Rc<Vec<u8>>)> = order
            .iter()
            .map(|p| (p.clone(), Rc::new(content(&mut rng, sizes[p]))))
            .collect();
        // The tree: every ancestor directory, and each directory's
        // entries (files and subdirectories) for the readdir oracle.
        let mut children: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (p, _) in &files {
            let mut cur = String::new();
            for comp in p.split('/').filter(|c| !c.is_empty()) {
                let parent = if cur.is_empty() {
                    "/".to_string()
                } else {
                    cur.clone()
                };
                cur = format!("{cur}/{comp}");
                children.entry(parent).or_default().insert(comp.to_string());
            }
        }
        let mut dirs: Vec<String> = children.keys().filter(|d| *d != "/").cloned().collect();
        dirs.sort_by_key(|d| d.matches('/').count());
        let replay = trace
            .ops
            .iter()
            .filter_map(|op| {
                let expect = match op {
                    TraceOp::ReadFile(p) => Expect::Bytes(sizes[p]),
                    TraceOp::Stat(p) => Expect::Size(sizes[p]),
                    TraceOp::Readdir(d) => Expect::Entries(
                        children
                            .get(d)
                            .map_or(Vec::new(), |c| c.iter().cloned().collect()),
                    ),
                    TraceOp::WriteFile(..) => return None,
                };
                Some((op.clone(), expect))
            })
            .collect();
        Inputs {
            dirs,
            files,
            replay,
            engine_seed,
            plan_seed,
        }
    })
    .0
}

/// One full run of both phases on a fresh world.
struct Pass {
    failures: Vec<String>,
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    late_ns: Vec<u64>,
    populate_virtual_ns: u64,
    replay_virtual_ns: u64,
    populate_s: f64,
    replay_s: f64,
    /// Machine factors measured just before each phase.
    populate_factor: f64,
    replay_factor: f64,
    audit_s: f64,
    /// Digest of the rendered operation history.
    history: String,
    faults: Vec<(String, u64)>,
    counters: Vec<(String, u64)>,
    deliveries: (u64, u64),
    attempted: u64,
}

impl Pass {
    fn digest(&self) -> String {
        let mut d = Digest::new();
        d.add(self.history.as_bytes());
        d.add_u64s(&self.write_ns);
        d.add_u64s(&self.read_ns);
        d.add_u64s(&self.late_ns);
        d.add_u64s(&[self.populate_virtual_ns, self.replay_virtual_ns]);
        for (k, v) in &self.counters {
            d.add(k.as_bytes());
            d.add_u64s(&[*v]);
        }
        d.hex()
    }
}

type Log = Rc<RefCell<Vec<String>>>;

/// Closed loop: write file `i`, and the next when it completes.
fn write_next(
    fs: FileSystem,
    files: Rc<Vec<(String, Rc<Vec<u8>>)>>,
    i: usize,
    lat: Rc<RefCell<Vec<u64>>>,
    log: Log,
    issued_at: u64,
) {
    let Some((path, data)) = files.get(i).cloned() else {
        return;
    };
    let fs2 = fs.clone();
    fs.write_file(&path.clone(), data.to_vec(), move |e, r| {
        let now = e.now_ns();
        lat.borrow_mut().push(now - issued_at);
        if let Err(err) = r {
            log.borrow_mut().push(format!("write {path}: {err}"));
        }
        write_next(fs2, files, i + 1, lat, log, now);
    });
}

fn check_op(op: &TraceOp, expect: &Expect, got: Result<Observed, String>) -> Result<(), String> {
    let got = got.map_err(|e| format!("{op:?}: {e}"))?;
    let ok = match (expect, &got) {
        (Expect::Bytes(n), Observed::Bytes(b)) => b.len() == *n,
        (Expect::Size(n), Observed::Stat(kind, size)) => *kind == FileKind::File && size == n,
        (Expect::Entries(want), Observed::Entries(have)) => {
            let mut have = have.clone();
            have.sort();
            have == *want
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{op:?}: unexpected result"))
    }
}

#[derive(Clone)]
enum Observed {
    Bytes(Vec<u8>),
    Stat(FileKind, usize),
    Entries(Vec<String>),
}

/// A fresh engine with the cluster launched on it.
struct World {
    engine: Engine,
    cluster: StorageCluster,
    plan: FaultPlan,
}

fn launch(inputs: &Inputs, rec: &Recorder, parent: u64) -> World {
    // Histograms (for the fabric's delivery latencies) only in traced
    // runs; they never move the virtual clock.
    let (engine, _) = rec.span("jsengine.build", "", parent, |_| {
        EngineBuilder::new(Browser::Chrome)
            .rng_seed(inputs.engine_seed)
            .histograms(rec.enabled())
            .build()
    });
    let ((cluster, plan), _) = rec.span("storage.launch", "", parent, |_| {
        let net = Network::new(&engine);
        let plan = FaultPlan::new(inputs.plan_seed, FaultConfig::chaos());
        let cluster =
            StorageCluster::launch(&engine, &net, StorageConfig::default(), Some(plan.clone()));
        engine.run_until_idle();
        (cluster, plan)
    });
    World {
        engine,
        cluster,
        plan,
    }
}

fn run_pass(inputs: &Inputs, rec: &'static Recorder, parent: u64) -> Pass {
    let World {
        engine,
        cluster,
        plan,
    } = launch(inputs, rec, parent);
    let history = HistoryRecorder::new();
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let contents: BTreeMap<&str, &Rc<Vec<u8>>> =
        inputs.files.iter().map(|(p, d)| (p.as_str(), d)).collect();

    // Populate: directories, then every file, one write at a time.
    let populate_factor = crate::machine_factor(rec, parent);
    let write_ns = Rc::new(RefCell::new(Vec::new()));
    let t_populate = engine.now_ns();
    let (_, populate_s) = rec.span("fs.write", "populate", parent, |_| {
        let writer = cluster.client("writer", true);
        writer.set_history(history.clone());
        let fs = FileSystem::new(&engine, backends::replicated(writer));
        for d in &inputs.dirs {
            let l = log.clone();
            let d2 = d.clone();
            fs.mkdir(d, move |_, r| {
                if let Err(e) = r {
                    l.borrow_mut().push(format!("mkdir {d2}: {e}"));
                }
            });
            engine.run_until_idle();
        }
        let files = Rc::new(inputs.files.clone());
        write_next(fs, files, 0, write_ns.clone(), log.clone(), engine.now_ns());
        engine.run_until_idle();
    });
    let populate_virtual_ns = engine.now_ns() - t_populate;

    // Replay: a cold reader on an open-loop schedule, the primary
    // crashing halfway through.
    let replay_factor = crate::machine_factor(rec, parent);
    let read_ns = Rc::new(RefCell::new(vec![u64::MAX; inputs.replay.len()]));
    let late_ns = Rc::new(RefCell::new(Vec::new()));
    let replies = Replies::default();
    let t_replay = engine.now_ns();
    let (_, replay_s) = rec.span("fs.read", "replay", parent, |_| {
        let reader = cluster.client("reader", true);
        reader.set_history(history.clone());
        let backend = ObjectStoreBackend::new(reader);
        let l = log.clone();
        backend.hydrate(
            &engine,
            Box::new(move |_, r| {
                if let Err(e) = r {
                    l.borrow_mut().push(format!("hydrate: {e}"));
                }
            }),
        );
        engine.run_until_idle();
        let fs = FileSystem::new(&engine, Rc::new(backend));
        let start = engine.now_ns();
        for (k, (op, _)) in inputs.replay.iter().enumerate() {
            let due = start + (k as u64 + 1) * REPLAY_INTERVAL_US * 1_000;
            let (fs, op, lat, late, replies) = (
                fs.clone(),
                op.clone(),
                read_ns.clone(),
                late_ns.clone(),
                replies.clone(),
            );
            engine.set_timeout((due - start) as f64 / 1e6, move |e| {
                late.borrow_mut().push(e.now_ns().saturating_sub(due));
                issue(&fs, op, k, due, lat, replies);
            });
        }
        let c = cluster.clone();
        let mid = inputs.replay.len() as u64 / 2 * REPLAY_INTERVAL_US * 1_000;
        engine.set_timeout(mid as f64 / 1e6, move |_| c.crash(0, CRASH_RESTART_NS));
        engine.run_until_idle();
    });
    let replay_virtual_ns = engine.now_ns() - t_replay;

    // Oracles: every replay result against the populated bytes.
    let (mut failures, _) = rec.span("bench.check", "", parent, |_| {
        let mut failures: Vec<String> = log.borrow().clone();
        let results = replies.borrow();
        for (k, (op, expect)) in inputs.replay.iter().enumerate() {
            let got = results
                .get(&k)
                .cloned()
                .unwrap_or_else(|| Err("never completed".to_string()));
            let got = got.and_then(|o| match (&o, op) {
                (Observed::Bytes(b), TraceOp::ReadFile(p))
                    if contents[p.as_str()].as_slice() != b.as_slice() =>
                {
                    Err(format!("{p}: bytes differ from what populate wrote"))
                }
                _ => Ok(o),
            });
            if let Err(e) = check_op(op, expect, got) {
                failures.push(format!("replay {k}: {e}"));
            }
        }
        failures
    });

    // Audits run outside the timed phases. The directory index key
    // (one write per populated file, by one session) is far beyond the
    // Wing–Gong search bound of 62 ops per key, so linearizability is
    // checked on every other key; read-your-writes covers all of them.
    let (audit, audit_s) = rec.span("storage.audit", "", parent, |_| {
        let objects = HistoryRecorder::new();
        for e in history.events().into_iter().filter(|e| e.key != INDEX_KEY) {
            let token = objects.begin(&e.client, &e.key, e.kind, e.invoke_ns);
            if let Some(done) = e.complete_ns {
                objects.complete(token, done, e.observed);
            }
        }
        [
            ("read-your-writes", history.check_read_your_writes()),
            ("linearizability", objects.check_linearizable()),
        ]
    });
    for (name, verdict) in audit {
        if let Err(e) = verdict {
            failures.push(format!("{name}: {e}"));
        }
    }
    let (report, _) = rec.span("report.collect", "", parent, |_| {
        RunReport::collect("storage", &engine)
    });
    let deliveries = report
        .histogram("net.delivery_ns")
        .map_or((0, 0), |h| (h.count, h.p99));
    let faults = plan
        .log()
        .iter()
        .fold(BTreeMap::<String, u64>::new(), |mut m, rec| {
            *m.entry(rec.kind.to_string()).or_default() += 1;
            m
        })
        .into_iter()
        .collect();
    let write_ns = write_ns.borrow().clone();
    let read_ns = read_ns.borrow().clone();
    let late_ns = late_ns.borrow().clone();
    let (history_digest, _) = rec.span("bench.check", "history", parent, |_| {
        let mut d = Digest::new();
        d.add(history.render().as_bytes());
        d.hex()
    });
    let pass = Pass {
        attempted: (inputs.files.len() + inputs.replay.len()) as u64,
        failures,
        write_ns,
        read_ns,
        late_ns,
        populate_virtual_ns,
        replay_virtual_ns,
        populate_s,
        replay_s,
        populate_factor,
        replay_factor,
        audit_s,
        history: history_digest,
        faults,
        counters: report.counters.clone(),
        deliveries,
    };
    // Dropping the world (three nodes' objects and journals, the
    // history) is program time too.
    rec.span("storage.teardown", "", parent, |_| {
        drop((history, cluster, plan, replies, engine))
    });
    pass
}

/// Replay results by op index.
type Replies = Rc<RefCell<BTreeMap<usize, Result<Observed, String>>>>;

/// Issue replay op `k`; its completion records the latency from `due`
/// and the observed result.
fn issue(
    fs: &FileSystem,
    op: TraceOp,
    k: usize,
    due: u64,
    lat: Rc<RefCell<Vec<u64>>>,
    replies: Replies,
) {
    let done = move |e: &Engine, r: Result<Observed, String>| {
        lat.borrow_mut()[k] = e.now_ns() - due;
        replies.borrow_mut().insert(k, r);
    };
    match op {
        TraceOp::ReadFile(p) => fs.read_file(&p, move |e, r| {
            done(e, r.map(Observed::Bytes).map_err(|x| x.to_string()))
        }),
        TraceOp::Stat(p) => fs.stat(&p, move |e, r| {
            done(
                e,
                r.map(|s| Observed::Stat(s.kind, s.size))
                    .map_err(|x| x.to_string()),
            )
        }),
        TraceOp::Readdir(p) => fs.readdir(&p, move |e, r| {
            done(e, r.map(Observed::Entries).map_err(|x| x.to_string()))
        }),
        TraceOp::WriteFile(..) => unreachable!("writes are not replayed"),
    }
}

pub fn run(opts: &Opts, rec: &'static Recorder, phase: Phase) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: the seeded inputs and a cluster launch on a fresh engine.
    // Each round launches its own cluster; this one is dropped untimed.
    let ((inputs, world), setup_s) = repeat_setup(rec, |id| {
        let inputs = setup(opts.seed, rec, id);
        let world = launch(&inputs, rec, id);
        (inputs, world)
    });
    drop(world);

    // Ops per host second of each phase, as measured and rescaled to
    // the reference machine.
    let (mut write_rates, mut read_rates) = (Vec::new(), Vec::new());
    let (mut write_ref, mut read_ref) = (Vec::new(), Vec::new());
    let mut audits = Vec::new();
    let rounds = measure(opts, rec, &mut out, |out, n, rid| {
        let p = run_pass(&inputs, rec, rid);
        out.attempted += p.attempted;
        for f in &p.failures {
            out.fail(format!("round {n}: {f}"));
        }
        write_rates.push(p.write_ns.len() as f64 / p.populate_s);
        read_rates.push(p.read_ns.len() as f64 / p.replay_s);
        write_ref.push(p.write_ns.len() as f64 / (p.populate_s / p.populate_factor));
        read_ref.push(p.read_ns.len() as f64 / (p.replay_s / p.replay_factor));
        audits.push(p.audit_s);
        let d = p.digest();
        (p, d)
    });
    let (p, round) = (&rounds.reference, rounds.count);

    let write = Latency::of(&p.write_ns);
    let read = Latency::of(&p.read_ns);
    let (w_rate, r_rate) = (median(&write_ref), median(&read_ref));
    let populate_ms = p.populate_virtual_ns as f64 / 1e6;
    let replay_ms = p.replay_virtual_ns as f64 / 1e6;
    let (rate, virtual_ms, lat) = match phase {
        Phase::Write => (w_rate, populate_ms, write),
        Phase::Read => (r_rate, replay_ms, read),
    };
    out.e2e("setup_s", setup_s, "s");
    out.e2e("host_ops_per_s", rate, "1/s");
    out.e2e("virtual_ms_geomean", virtual_ms, "ms");
    out.e2e("latency_p50_ms", lat.p50_ms(), "ms");
    out.e2e("latency_tail_ms", lat.tail_ms(), "ms");
    out.line(format!(
        "write_ops_per_s {w_rate} ops/s at reference speed ({} as measured; {} writes, {round} rounds)",
        median(&write_rates),
        p.write_ns.len()
    ));
    out.line(format!(
        "read_ops_per_s {r_rate} ops/s at reference speed ({} as measured; {} replay ops, {round} rounds)",
        median(&read_rates),
        p.read_ns.len()
    ));
    out.lines.extend(write.lines("write", "ms (virtual)"));
    out.lines.extend(read.lines("read", "ms (virtual)"));
    out.line(format!(
        "virtual populate {populate_ms:.3} ms, replay {replay_ms:.3} ms"
    ));
    for (kind, n) in &p.faults {
        out.line(format!("fault {kind} {n}"));
    }

    let c = |name: &str| {
        p.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    out.layer(
        "datasets.gen_ms",
        median(&rec.durations_ms("datasets.gen", None)),
        "ms",
    );
    out.layer("jsengine.events", c("engine.events_run"), "count");
    out.layer(
        "jsengine.watchdog_kills",
        c("engine.watchdog_kills"),
        "count",
    );
    out.layer(
        "jsengine.gen_late_ms",
        Latency::of(&p.late_ns).tail_ms(),
        "ms",
    );
    out.layer(
        "fs.write_ms",
        median(&rec.durations_ms("fs.write", None)),
        "ms",
    );
    out.layer(
        "fs.read_ms",
        median(&rec.durations_ms("fs.read", None)),
        "ms",
    );
    out.layer("fs.ops", c("fs.ops"), "count");
    out.layer("fs.bytes_read", c("fs.bytes_read"), "bytes");
    out.layer("fs.bytes_written", c("fs.bytes_written"), "bytes");
    out.layer("fs.retries", c("fs.retries"), "count");
    out.layer("sockets.deliveries", p.deliveries.0 as f64, "count");
    out.layer(
        "sockets.delivery_tail_us",
        p.deliveries.1 as f64 / 1e3,
        "us",
    );
    out.layer(
        "storage.launch_ms",
        median(&rec.durations_ms("storage.launch", None)),
        "ms",
    );
    out.layer(
        "storage.cache.hit_rate",
        ratio(
            c("storage.cache.hit"),
            c("storage.cache.hit") + c("storage.cache.miss"),
        ),
        "ratio",
    );
    for name in [
        "storage.journal.append",
        "storage.replicate.sent",
        "storage.replicate.resent",
        "storage.client.retry",
        "storage.client.reconnect",
        "storage.journal.replayed",
    ] {
        out.layer(name, c(name), "count");
    }
    out.layer("storage.audit_ms", median(&audits) * 1e3, "ms");
    let fault = |kind: &str| {
        p.faults
            .iter()
            .find(|(k, _)| k == kind)
            .map_or(0.0, |(_, n)| *n as f64)
    };
    out.layer(
        "faults.injected",
        p.faults.iter().map(|(_, n)| *n as f64).sum(),
        "count",
    );
    out.layer(
        "faults.injected.replica_crash",
        fault("replica_crash"),
        "count",
    );
    out.layer("faults.injected.partition", fault("partition"), "count");
    crate::finish_layers(&mut out, rec, &rounds.secs);
    out
}
