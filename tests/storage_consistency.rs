//! Crash-consistency harness for the replicated object store.
//!
//! Four angles on the same protocol:
//!
//! 1. **Schedule exploration** — a deliberately buggy cluster
//!    (`ack_before_journal`, the ack racing the journal append) driven
//!    by `schedtest::explore`. Round-robin survives; exploration finds
//!    the interleaving where a replica crash swallows an acked write,
//!    shrinks it, and replays it byte-identically.
//! 2. **Parallel sweep equivalence** — `explore_parallel` must produce
//!    the identical report.
//! 3. **Journal replay idempotency** — a crash at the post-journal
//!    "apply" decision point leaves a durable-but-unapplied record; the
//!    retry journals it again. However many times the node recovers,
//!    exactly one write is visible, and the run report is byte-stable.
//! 4. **Read-your-writes + linearizability under chaos** — the chaos
//!    fault preset over two cached tenant sessions, audited by the
//!    history oracles, with transcripts that match their goldens at
//!    every shard-pool size.

mod common;

use common::{check_golden, check_golden_seeds};
use doppio::core::{Scheduler, ThreadStep};
use doppio::faults::{FaultConfig, FaultPlan};
use doppio::jsengine::{Browser, Engine};
use doppio::report::RunReport;
use doppio::schedtest::{
    explore, explore_parallel, ExploreConfig, PickLog, RecordingScheduler, ReplayFile,
};
use doppio::sockets::{Bytes, Network};
use doppio::storage::{HistoryRecorder, StorageClient, StorageCluster, StorageConfig, WriteOp};
use doppio::trace::RingSink;
use doppio::{EngineBuilder, Kernel, SpawnOptions};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Master seed for every exploration in this file.
const SEED: u64 = 0x00D0_CA5E;
/// Seed for the canary's fault plan (any seed crashes: p = 1.0).
const CANARY_FAULT_SEED: u64 = 11;

/// A fault plan whose first storage decision is always a crash, with a
/// short restart so explored runs stay small.
fn one_crash_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(
        seed,
        FaultConfig {
            storage_crash_p: 1.0,
            storage_crash_restart_ns: (2_000_000, 4_000_000),
            max_storage_faults: 1,
            ..FaultConfig::default()
        },
    )
}

/// The exploration workload: one teller session against a cluster with
/// the ack-before-journal bug armed and exactly one crash budgeted.
///
/// The teller's *patient* protocol sends a probe `get` first — the
/// crash lands on the un-acked probe, the client retries it after the
/// restart, and the subsequent `put` commits durably. On its first
/// slice the teller checks how many slices the mixer thread already
/// had; round-robin's strict alternation allows at most one, but an
/// exploring scheduler can give it two or more, and then the teller
/// "optimizes" the probe away: its `put` becomes the first request,
/// the primary acks it and crashes *before the journal append*, and
/// the teller's own verifying read comes back empty — an acked write
/// gone, observable only under some schedules.
fn canary_workload(sched: Box<dyn Scheduler>) -> Result<(), String> {
    let kernel = Kernel::new();
    kernel.runtime().set_scheduler(sched);
    let engine = kernel.engine();
    let net = Network::new(&engine);
    let cluster = StorageCluster::launch(
        &engine,
        &net,
        StorageConfig {
            ack_before_journal: true,
            ..StorageConfig::default()
        },
        Some(one_crash_plan(CANARY_FAULT_SEED)),
    );
    let teller = cluster.client("teller", false);

    // The mixer gives the scheduler something to interleave.
    let mixer_slices = Rc::new(Cell::new(0u32));
    let ms = mixer_slices.clone();
    kernel.spawn_fn(SpawnOptions::new("mixer"), move |_| {
        ms.set(ms.get() + 1);
        if ms.get() >= 400 {
            ThreadStep::Finished
        } else {
            ThreadStep::Yielded
        }
    });

    let violation: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
    let v = violation.clone();
    let e = engine.clone();
    let ms = mixer_slices;
    let probe_done = Rc::new(Cell::new(false));
    let put_done = Rc::new(Cell::new(false));
    let verify: Rc<RefCell<Option<Option<Bytes>>>> = Rc::new(RefCell::new(None));
    let mut impatient: Option<bool> = None;
    let mut stage = 0u32;
    kernel.spawn_fn(SpawnOptions::new("teller"), move |_| {
        let impatient = *impatient.get_or_insert_with(|| ms.get() >= 2);
        match stage {
            // Decide: probe first (patient) or put straight away (bug).
            0 => {
                if impatient {
                    stage = 2;
                } else {
                    let d = probe_done.clone();
                    teller.kv_get(&e, "/t/probe", Box::new(move |_, _| d.set(true)));
                    stage = 1;
                }
                ThreadStep::Yielded
            }
            1 => {
                if probe_done.get() {
                    stage = 2;
                }
                ThreadStep::Yielded
            }
            2 => {
                let d = put_done.clone();
                teller.kv_write(
                    &e,
                    WriteOp::Put {
                        key: "/t/balance".into(),
                        data: b"100".to_vec().into(),
                    },
                    Box::new(move |_, _| d.set(true)),
                );
                stage = 3;
                ThreadStep::Yielded
            }
            3 => {
                if put_done.get() {
                    stage = 4;
                }
                ThreadStep::Yielded
            }
            4 => {
                let g = verify.clone();
                teller.kv_get(
                    &e,
                    "/t/balance",
                    Box::new(move |_, r| *g.borrow_mut() = Some(r.unwrap_or(None))),
                );
                stage = 5;
                ThreadStep::Yielded
            }
            _ => {
                let got = verify.borrow_mut().take();
                match got {
                    Some(r) => {
                        if r.as_deref() != Some(b"100".as_ref()) {
                            *v.borrow_mut() = Some(format!(
                                "read-your-writes violated: put /t/balance=100 was acked, \
                                 a later get saw {:?}",
                                r.map(|b| String::from_utf8_lossy(&b).into_owned())
                            ));
                        }
                        ThreadStep::Finished
                    }
                    None => ThreadStep::Yielded,
                }
            }
        }
    });

    kernel.run().map_err(|e| e.to_string())?;
    let verdict = violation.borrow_mut().take();
    match verdict {
        Some(m) => Err(m),
        None => Ok(()),
    }
}

#[test]
fn explore_finds_shrinks_and_replays_the_acked_write_loss() {
    let cfg = ExploreConfig::new(24, SEED);
    let report = explore(&cfg, canary_workload);

    // Round-robin (schedule 0) runs the patient protocol and survives
    // the crash: the probe absorbs it un-acked.
    assert!(
        report.runs[0].failure.is_none(),
        "round-robin should pass: {:?}",
        report.runs[0].failure
    );
    // Exploration reaches the impatient interleaving and catches the
    // lost acked write.
    let failure = report
        .failure
        .expect("exploration finds the replica-crash-mid-write consistency bug");
    assert!(
        failure.message.contains("read-your-writes violated"),
        "{}",
        failure.message
    );

    // The shrunk pick trace replays byte-identically: same picks
    // executed, same violation reported.
    assert!(!failure.shrunk.is_empty());
    assert!(failure.shrunk.len() <= failure.picks.len());
    let log: PickLog = Rc::new(RefCell::new(Vec::new()));
    let rec = RecordingScheduler::new(failure.replay.scheduler(), log.clone());
    let replayed = canary_workload(Box::new(rec)).expect_err("replay reproduces the loss");
    assert_eq!(replayed, failure.message);
    assert_eq!(*log.borrow(), failure.shrunk, "replay diverged from trace");

    // The serialized replay file round-trips into the same run.
    let parsed = ReplayFile::from_text(&failure.replay.to_text()).unwrap();
    assert_eq!(parsed.picks, failure.shrunk);
    let again = canary_workload(parsed.scheduler()).expect_err("file replay reproduces");
    assert_eq!(again, failure.message);
}

#[test]
fn explore_parallel_matches_the_serial_sweep() {
    let cfg = ExploreConfig::new(12, SEED);
    let serial = explore(&cfg, canary_workload);
    for threads in [1, 4] {
        let parallel = explore_parallel(&cfg, threads, || Box::new(canary_workload));
        assert_eq!(parallel.runs.len(), serial.runs.len());
        for (p, s) in parallel.runs.iter().zip(serial.runs.iter()) {
            assert_eq!(p.picks, s.picks);
            assert_eq!(p.failure, s.failure);
        }
        match (&parallel.failure, &serial.failure) {
            (Some(p), Some(s)) => {
                assert_eq!(p.message, s.message);
                assert_eq!(p.picks, s.picks);
                assert_eq!(p.shrunk, s.shrunk);
                assert_eq!(p.replay.to_text(), s.replay.to_text());
            }
            (None, None) => {}
            other => panic!("parallel/serial disagree on failing: {other:?}"),
        }
    }
}

/// Everything one journal-replay scenario observed.
struct ReplayOutcome {
    first_fault: Option<String>,
    value: Option<Vec<u8>>,
    journal_lens: Vec<usize>,
    applied: Vec<u64>,
    object_counts: Vec<usize>,
    fault_log: String,
    report_md: String,
}

impl ReplayOutcome {
    /// The outcome in golden-file form.
    fn render(&self) -> String {
        format!(
            "first_fault: {:?}\nvalue: {:?}\njournal_lens: {:?}\napplied: {:?}\n\
             object_counts: {:?}\n--- fault log\n{}--- report\n{}",
            self.first_fault,
            self.value.as_deref().map(String::from_utf8_lossy),
            self.journal_lens,
            self.applied,
            self.object_counts,
            self.fault_log,
            self.report_md
        )
    }
}

/// One durable write against a correct-mode cluster with one crash
/// budgeted at 50%, then two cold recoveries off the same journal.
fn journal_replay_scenario(seed: u64) -> ReplayOutcome {
    let engine = Engine::new(Browser::Chrome);
    let net = Network::new(&engine);
    let plan = FaultPlan::new(
        seed,
        FaultConfig {
            storage_crash_p: 0.5,
            storage_crash_restart_ns: (2_000_000, 4_000_000),
            max_storage_faults: 1,
            ..FaultConfig::default()
        },
    );
    let cluster =
        StorageCluster::launch(&engine, &net, StorageConfig::default(), Some(plan.clone()));
    let client = cluster.client("t0", false);

    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    client.kv_write(
        &engine,
        WriteOp::Put {
            key: "/ledger".into(),
            data: b"42".to_vec().into(),
        },
        Box::new(move |_, _| d.set(true)),
    );
    engine.run_until_idle();
    assert!(done.get(), "the write must eventually be acked");

    // Two more recoveries: replaying an already-replayed journal must
    // be a no-op on visible state.
    for _ in 0..2 {
        cluster.crash(0, 1_000_000);
        engine.run_until_idle();
    }

    let fault_log = plan
        .log()
        .iter()
        .map(|r| format!("{} {} {}\n", r.ts_ns, r.kind, r.detail))
        .collect::<String>();
    ReplayOutcome {
        first_fault: plan.log().first().map(|r| r.detail.clone()),
        value: cluster.object(0, "/ledger"),
        journal_lens: (0..3).map(|i| cluster.journal_len(i)).collect(),
        applied: (0..3).map(|i| cluster.applied(i)).collect(),
        object_counts: (0..3).map(|i| cluster.object_count(i)).collect(),
        fault_log,
        report_md: RunReport::collect("journal-replay", &engine).to_markdown(),
    }
}

#[test]
fn journal_replay_is_idempotent_and_byte_stable() {
    // Hunt for a seed whose single crash lands at the post-journal
    // "apply" decision point: journaled, unapplied, un-acked.
    let seed = (1..=64)
        .find(|&s| journal_replay_scenario(s).first_fault.as_deref() == Some("apply node0"))
        .expect("some seed within 64 crashes at the apply point");

    let out = journal_replay_scenario(seed);
    // The record was journaled before the crash; the client's retry
    // journaled it a second time. Replay is idempotent: one ledger
    // entry visible everywhere, every node fully applied.
    assert_eq!(out.value.as_deref(), Some(b"42".as_ref()));
    assert_eq!(out.journal_lens, vec![2, 2, 2], "append + retried append");
    assert_eq!(out.applied, vec![2, 2, 2]);
    assert_eq!(
        out.object_counts,
        vec![1, 1, 1],
        "two journal records, one visible effect"
    );
    assert!(out.report_md.contains("storage.journal.replayed"));
    assert!(out.report_md.contains("storage.node.restart"));

    // Same seed, same bytes: the fault log, counters, and the whole
    // run report are deterministic functions of the seed.
    check_golden("storage/journal_replay", || {
        format!("seed: {seed}\n{}", journal_replay_scenario(seed).render())
    });
}

/// Run the two-tenant chaos workload: `FaultConfig::chaos()` seeded
/// with `seed`, on an engine seeded with `engine_seed` (0 is a stock
/// engine's). With `traced`, every client op roots a causal request in
/// a ring sized for the whole run, and the transcript ends with the
/// per-class critical paths.
///
/// The recorded history is audited for per-tenant read-your-writes and
/// linearizability; on a violation the full history is written to
/// `target/tmp/storage_history_seed<seed>.txt` before the panic.
/// Returns the transcript (fault log, history, run report) and the
/// number of storage faults injected.
fn chaos_run(seed: u64, engine_seed: u64, traced: bool) -> (String, u32) {
    let sink = traced.then(|| Rc::new(RingSink::with_capacity(1 << 16)));
    let mut builder = EngineBuilder::new(Browser::Chrome).rng_seed(engine_seed);
    if let Some(sink) = &sink {
        builder = builder.trace_sink(sink.clone());
    }
    let engine = builder.build();
    let net = Network::new(&engine);
    let plan = FaultPlan::new(seed, FaultConfig::chaos());
    let cluster =
        StorageCluster::launch(&engine, &net, StorageConfig::default(), Some(plan.clone()));
    let history = HistoryRecorder::new();
    let t0 = cluster.client("tenant0", true);
    let t1 = cluster.client("tenant1", true);
    t0.set_history(history.clone());
    t1.set_history(history.clone());

    let put = |c: &StorageClient, key: &str, val: &[u8]| {
        c.kv_write(
            &engine,
            WriteOp::Put {
                key: key.into(),
                data: val.to_vec().into(),
            },
            Box::new(|_, _| {}),
        );
    };
    let del = |c: &StorageClient, key: &str| {
        c.kv_write(
            &engine,
            WriteOp::Delete { key: key.into() },
            Box::new(|_, _| {}),
        );
    };
    let get = |c: &StorageClient, key: &str| {
        c.kv_get(&engine, key, Box::new(|_, _| {}));
    };

    // Disjoint per-tenant keys; each tenant's ops are sequential (one
    // round completes before the next begins), tenants overlap freely.
    put(&t0, "/t0/a", b"1");
    put(&t1, "/t1/b", b"9");
    engine.run_until_idle();
    get(&t0, "/t0/a");
    get(&t1, "/t1/b");
    engine.run_until_idle();
    put(&t0, "/t0/a", b"2");
    del(&t1, "/t1/b");
    engine.run_until_idle();
    get(&t0, "/t0/a");
    get(&t1, "/t1/b");
    engine.run_until_idle();
    put(&t0, "/t0/c", b"3");
    put(&t1, "/t1/b", b"7");
    engine.run_until_idle();
    get(&t0, "/t0/c");
    get(&t1, "/t1/b");
    engine.run_until_idle();

    // Ship the history on a violation, so a failure comes with the
    // counterexample, not just the panic message.
    for (name, verdict) in [
        ("read-your-writes", history.check_read_your_writes()),
        ("linearizability", history.check_linearizable()),
    ] {
        if let Err(e) = verdict {
            let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("storage_history_seed{seed}.txt"));
            let artifact = format!(
                "seed={seed}\nviolation({name}): {e}\n\n{}",
                history.render()
            );
            std::fs::write(&path, artifact).expect("write history artifact");
            panic!(
                "seed {seed}: {name} violated ({e}); history written to {}",
                path.display()
            );
        }
    }

    let mut t = format!(
        "seed={seed} storage_faults={} end_ns={}\n",
        plan.storage_injected(),
        engine.now_ns(),
    );
    for rec in plan.log() {
        t += &format!("  {}ns {} {}\n", rec.ts_ns, rec.kind, rec.detail);
    }
    t += &history.render();
    let mut report = RunReport::collect("storage-chaos", &engine);
    if let Some(sink) = &sink {
        report = report.with_causal(sink);
    }
    t += &report.to_markdown();
    if let Some(causal) = &report.causal {
        assert_eq!(causal.truncated, 0, "ring sized for the whole run");
        for (class, stats) in &causal.classes {
            assert!(
                stats.named_ns() * 100 >= stats.wall_ns * 95,
                "seed {seed} {class}: only {} of {} ns attributed",
                stats.named_ns(),
                stats.wall_ns
            );
        }
        t += "\n## Critical paths (JSON)\n\n";
        t += &causal.to_json_string();
    }
    (t, plan.storage_injected())
}

#[test]
fn read_your_writes_holds_per_tenant_under_the_chaos_preset() {
    // Consistency must hold on every seed (`chaos_run` audits it)...
    let mut exercised = None;
    for seed in 1..=16 {
        let (transcript, injected) = chaos_run(seed, 0, false);
        if injected > 0 && exercised.is_none() {
            exercised = Some(transcript);
        }
    }
    // ...and at least one seed must actually have exercised the
    // crash/partition machinery, or the test proves nothing.
    let transcript = exercised.expect("some chaos seed injects a storage fault");
    assert!(
        transcript.contains("fault.storage"),
        "report should count the faults"
    );

    // Same seed, same bytes: fault log, history, run report, and
    // critical paths, traced on seeded engines.
    check_golden_seeds("storage/chaos", &[1, 2, 3], 3, |seed| {
        chaos_run(seed, seed, true).0
    });
}
