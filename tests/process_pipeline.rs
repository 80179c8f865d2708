//! The multi-process kernel, end-to-end: JVM guests as processes on
//! one [`Kernel`], connected by real pipes — EOF and backpressure,
//! SIGKILL mid-stream, zombie reaping through `waitpid`, exit-code
//! propagation, and schedule exploration finding (then shrinking and
//! replaying) a cross-process pipe/waitpid deadlock.

mod common;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use common::check_golden_seeds;
use doppio::core::{KernelError, PipeRead, PipeWrite, Scheduler, ThreadStep, WaitPid};
use doppio::faults::{FaultConfig, FaultPlan, FaultRecord};
use doppio::fs::{backends, FileSystem};
use doppio::jsengine::Browser;
use doppio::jvm::{fsutil, spawn_jvm};
use doppio::minijava::compile_to_bytes;
use doppio::schedtest::{
    explore, explore_parallel, ExploreConfig, PickLog, RecordingScheduler, ReplayFile,
};
use doppio::trace::RingSink;
use doppio::{BuildOnKernel, EngineBuilder, ExitStatus, Kernel, Signal, SpawnOptions};

/// Master seed for the exploration test; fixed so the in-tree run is
/// deterministic (CI's fuzz matrix varies it separately).
const SEED: u64 = 0x0D10_CE55;

/// Compile `src` and hand back a fresh in-memory fs with the classes
/// mounted at `/classes` (the kernel's engine provides the event loop).
fn classes_fs(kernel: &Kernel, src: &str) -> FileSystem {
    let engine = kernel.engine();
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_class_files(&engine, &fs, "/classes", &compile_to_bytes(src).unwrap());
    fs
}

const PRODUCER: &str = r#"
    class Main {
        static void main(String[] args) {
            for (int i = 0; i < 5; i++) {
                System.out.println("line " + i);
            }
        }
    }
"#;

/// Reads stdin to EOF, echoes each line, then exits with the line
/// count — the exit-code-propagation half of the test.
const COUNTING_FILTER: &str = r#"
    class Main {
        static void main(String[] args) {
            int n = 0;
            String line = Console.readLine();
            while (line != null) {
                System.out.println("got " + line);
                n = n + 1;
                line = Console.readLine();
            }
            System.exit(n);
        }
    }
"#;

#[test]
fn jvm_pipeline_eof_and_exit_code_propagation() {
    // producer | filter, both real JVM guests: the producer's exit
    // closes its stdout pipe, the filter's `readLine` sees EOF (null)
    // and exits with the count it saw; the host reads the final pipe.
    let kernel = Kernel::new();
    let p1 = kernel.pipe();
    let p2 = kernel.pipe();

    let (producer, _) = spawn_jvm(
        &kernel,
        SpawnOptions::new("producer").stdout(p1),
        classes_fs(&kernel, PRODUCER),
        "Main",
    );
    let (filter, _) = spawn_jvm(
        &kernel,
        SpawnOptions::new("filter").stdin(p1).stdout(p2),
        classes_fs(&kernel, COUNTING_FILTER),
        "Main",
    );

    kernel.run().unwrap();
    assert_eq!(producer.status(), Some(ExitStatus::Exited(0)));
    // System.exit(n) propagated through the exit probe: 5 lines seen.
    assert_eq!(filter.status(), Some(ExitStatus::Exited(5)));
    let out = String::from_utf8(kernel.host_read(p2).unwrap()).unwrap();
    assert_eq!(
        out,
        "got line 0\ngot line 1\ngot line 2\ngot line 3\ngot line 4\n"
    );
}

#[test]
fn a_finished_pipeline_frees_its_world() {
    // A host serving many short-lived tenants must get each tenant's
    // world (engine, kernel, JVM heaps, trace ring) back once it drops
    // its handles, with no cleanup of its own. The engine holds the
    // trace sink, so the sink's count says whether anything in that
    // world still holds the engine.
    let sink = Rc::new(RingSink::with_capacity(1 << 12));
    {
        let kernel = Kernel::new();
        let _engine = EngineBuilder::new(Browser::Chrome)
            .trace_sink(sink.clone())
            .build_on(&kernel);
        let (p1, p2) = (kernel.pipe(), kernel.pipe());
        let (producer, _) = spawn_jvm(
            &kernel,
            SpawnOptions::new("producer").stdout(p1),
            classes_fs(&kernel, PRODUCER),
            "Main",
        );
        let (filter, _) = spawn_jvm(
            &kernel,
            SpawnOptions::new("filter").stdin(p1).stdout(p2),
            classes_fs(&kernel, COUNTING_FILTER),
            "Main",
        );
        kernel.run().unwrap();
        assert_eq!(producer.status(), Some(ExitStatus::Exited(0)));
        assert_eq!(filter.status(), Some(ExitStatus::Exited(5)));
        assert!(!sink.is_empty());
    }
    assert_eq!(Rc::strong_count(&sink), 1);
}

#[test]
fn backpressure_bounds_the_pipe_while_data_flows() {
    // A 4-byte pipe between a fast writer and a 1-byte-per-slice
    // reader: the writer must park at capacity, yet every byte must
    // arrive, in order.
    let kernel = Kernel::new();
    let pipe = kernel.pipe_with_capacity(4);
    let payload: Vec<u8> = (0u8..64).collect();

    let k = kernel.clone();
    let mut remaining = payload.clone();
    kernel.spawn_fn(SpawnOptions::new("writer").stdout(pipe), move |ctx| {
        if remaining.is_empty() {
            return ThreadStep::Finished;
        }
        match k.write_pipe(ctx, pipe, &remaining).expect("live pipe") {
            PipeWrite::Wrote(n) => {
                assert!(n <= 4, "wrote past capacity: {n}");
                remaining.drain(..n);
                ThreadStep::Yielded
            }
            PipeWrite::WouldBlock => ThreadStep::Blocked,
            PipeWrite::Broken => panic!("reader vanished"),
        }
    });

    let k = kernel.clone();
    let out = Rc::new(RefCell::new(Vec::new()));
    let o = out.clone();
    kernel.spawn_fn(SpawnOptions::new("reader").stdin(pipe), move |ctx| match k
        .read_pipe(ctx, pipe, 1)
        .expect("live pipe")
    {
        PipeRead::Data(d) => {
            o.borrow_mut().extend_from_slice(&d);
            ThreadStep::Yielded
        }
        PipeRead::WouldBlock => ThreadStep::Blocked,
        PipeRead::Eof => ThreadStep::Finished,
    });

    // Drive tick by tick so the capacity invariant is checked at every
    // point of the run, not just the end.
    let engine = kernel.engine();
    kernel.runtime().start();
    while engine.run_one() {
        assert!(
            kernel.pipe_len(pipe).unwrap() <= 4,
            "pipe over capacity: {}",
            kernel.pipe_len(pipe).unwrap()
        );
    }
    assert!(kernel.all_exited());
    assert_eq!(*out.borrow(), payload);
}

/// An unbounded producer: prints forever, so only a signal ends it.
const SPAMMER: &str = r#"
    class Main {
        static void main(String[] args) {
            while (true) {
                System.out.println("spam");
            }
        }
    }
"#;

#[test]
fn sigkill_mid_pipe_gives_the_reader_eof() {
    let kernel = Kernel::new();
    let pipe = kernel.pipe_with_capacity(256);

    let (spammer, _) = spawn_jvm(
        &kernel,
        SpawnOptions::new("spammer").stdout(pipe),
        classes_fs(&kernel, SPAMMER),
        "Main",
    );

    let k = kernel.clone();
    let out = Rc::new(RefCell::new(Vec::new()));
    let o = out.clone();
    let reader = kernel.spawn_fn(SpawnOptions::new("reader").stdin(pipe), move |ctx| match k
        .read_pipe(ctx, pipe, 64)
        .expect("live pipe")
    {
        PipeRead::Data(d) => {
            o.borrow_mut().extend_from_slice(&d);
            ThreadStep::Yielded
        }
        PipeRead::WouldBlock => ThreadStep::Blocked,
        PipeRead::Eof => ThreadStep::Finished,
    });

    // Let the stream establish itself, then kill the writer mid-pipe.
    let engine = kernel.engine();
    kernel.runtime().start();
    for _ in 0..400 {
        if !engine.run_one() {
            break;
        }
    }
    assert!(spammer.status().is_none(), "spammer must still be running");
    spammer.kill(Signal::Kill).unwrap();
    kernel.run().unwrap();

    assert_eq!(spammer.status(), Some(ExitStatus::Signaled(Signal::Kill)));
    assert!(!spammer.status().unwrap().success());
    // The kill released the write end: the reader drained what was
    // written and saw EOF, exiting normally.
    assert_eq!(reader.status(), Some(ExitStatus::Exited(0)));
    let text = String::from_utf8(out.borrow().clone()).unwrap();
    assert!(!text.is_empty() && text.starts_with("spam\n"), "{text:?}");
    // The process table records the signal by name.
    let row = kernel
        .process_table()
        .into_iter()
        .find(|p| p.name == "spammer")
        .unwrap();
    assert_eq!(row.status, "killed(SIGKILL)");
}

const EXIT_SEVEN: &str = r#"
    class Main {
        static void main(String[] args) {
            System.exit(7);
        }
    }
"#;

#[test]
fn waitpid_reaps_the_jvm_zombie_and_sees_its_code() {
    let kernel = Kernel::new();
    let (child, _) = spawn_jvm(
        &kernel,
        SpawnOptions::new("child"),
        classes_fs(&kernel, EXIT_SEVEN),
        "Main",
    );
    let child_pid = child.pid();

    // Run the child to completion with nobody waiting: a zombie.
    kernel.run_until_exit(child_pid).unwrap();
    assert!(kernel.zombies().contains(&child_pid));

    let k = kernel.clone();
    let seen = Rc::new(Cell::new(None));
    let s = seen.clone();
    kernel.spawn_fn(SpawnOptions::new("parent"), move |ctx| {
        match k.waitpid(ctx, child_pid).expect("known child") {
            WaitPid::Exited(status) => {
                s.set(Some(status));
                ThreadStep::Finished
            }
            WaitPid::WouldBlock => ThreadStep::Blocked,
        }
    });
    kernel.run().unwrap();

    assert_eq!(seen.get(), Some(ExitStatus::Exited(7)));
    assert!(
        !kernel.zombies().contains(&child_pid),
        "waitpid must reap the zombie"
    );
}

/// The exploration workload: a 3-process pipeline (writer | relay |
/// sink) over two bounded pipes, with a schedule-dependent canary bug
/// in the relay. On its *first* slice the relay checks how many slices
/// the writer has already had; if the writer got ≥ 2 (something
/// round-robin's strict alternation never allows), it "optimizes" by
/// waitpid-ing the writer before draining its pipe. The writer then
/// fills the 4-byte pipe and blocks on the relay, the relay blocks on
/// the writer's exit — a cross-process cycle only some schedules reach.
fn canary_pipeline(sched: Box<dyn Scheduler>) -> Result<(), String> {
    let kernel = Kernel::new();
    kernel.runtime().set_scheduler(sched);
    let p1 = kernel.pipe_with_capacity(4);
    let p2 = kernel.pipe_with_capacity(64);
    let writer_slices = Rc::new(Cell::new(0u32));

    // pid 1 — writer: 16 bytes, 2 per slice, through the tiny pipe.
    let k = kernel.clone();
    let ws = writer_slices.clone();
    let mut remaining = 16usize;
    let writer = kernel.spawn_fn(SpawnOptions::new("writer").stdout(p1), move |ctx| {
        ws.set(ws.get() + 1);
        if remaining == 0 {
            return ThreadStep::Finished;
        }
        match k.write_pipe(ctx, p1, b"xx").expect("live pipe") {
            PipeWrite::Wrote(n) => {
                remaining -= n.min(remaining);
                ThreadStep::Yielded
            }
            PipeWrite::WouldBlock => ThreadStep::Blocked,
            PipeWrite::Broken => ThreadStep::Finished,
        }
    });
    let wpid = writer.pid();

    // pid 2 — relay: patient mode drains p1 to p2 then reaps the
    // writer; impatient mode (the bug) reaps first and never drains.
    let k = kernel.clone();
    let ws = writer_slices;
    let mut mode: Option<bool> = None;
    let mut reaped = false;
    kernel.spawn_fn(
        SpawnOptions::new("relay").stdin(p1).stdout(p2),
        move |ctx| {
            let impatient = *mode.get_or_insert_with(|| ws.get() >= 2);
            if impatient || reaped {
                return match k.waitpid(ctx, wpid).expect("known child") {
                    WaitPid::Exited(_) => ThreadStep::Finished,
                    WaitPid::WouldBlock => ThreadStep::Blocked,
                };
            }
            match k.read_pipe(ctx, p1, 64).expect("live pipe") {
                PipeRead::Data(d) => match k.write_pipe(ctx, p2, &d).expect("live pipe") {
                    PipeWrite::Wrote(n) if n == d.len() => ThreadStep::Yielded,
                    other => panic!("relay overflow: {other:?}"),
                },
                PipeRead::WouldBlock => ThreadStep::Blocked,
                PipeRead::Eof => {
                    reaped = true;
                    ThreadStep::Yielded
                }
            }
        },
    );

    // pid 3 — sink: drains p2 until EOF.
    let k = kernel.clone();
    let got = Rc::new(Cell::new(0usize));
    let g = got.clone();
    kernel.spawn_fn(SpawnOptions::new("sink").stdin(p2), move |ctx| {
        match k.read_pipe(ctx, p2, 64).expect("live pipe") {
            PipeRead::Data(d) => {
                g.set(g.get() + d.len());
                ThreadStep::Yielded
            }
            PipeRead::WouldBlock => ThreadStep::Blocked,
            PipeRead::Eof => ThreadStep::Finished,
        }
    });

    kernel.run().map_err(|e| e.to_string())?;
    if got.get() != 16 {
        return Err(format!("sink saw {} of 16 bytes", got.get()));
    }
    Ok(())
}

#[test]
fn explore_finds_shrinks_and_replays_the_cross_process_deadlock() {
    let cfg = ExploreConfig::new(24, SEED);
    let report = explore(&cfg, canary_pipeline);

    // Round-robin (schedule 0) survives the canary...
    assert!(
        report.runs[0].failure.is_none(),
        "round-robin should pass: {:?}",
        report.runs[0].failure
    );
    // ...exploration does not.
    let failure = report
        .failure
        .expect("exploration finds the pipe/waitpid deadlock");

    // The deadlock is blamed across process boundaries: both pids, the
    // full pipe's write end, and the waited-on child, all named.
    for needle in [
        "deadlock",
        "pid 1 writer",
        "pid 2 relay",
        "(write)",
        "child pid 1",
    ] {
        assert!(
            failure.message.contains(needle),
            "missing {needle:?} in: {}",
            failure.message
        );
    }

    // The shrunk pick trace replays byte-identically: same picks
    // executed, same failure message.
    assert!(!failure.shrunk.is_empty());
    assert!(failure.shrunk.len() <= failure.picks.len());
    let log: PickLog = Rc::new(RefCell::new(Vec::new()));
    let rec = RecordingScheduler::new(failure.replay.scheduler(), log.clone());
    let replayed = canary_pipeline(Box::new(rec)).expect_err("replay reproduces the deadlock");
    assert_eq!(replayed, failure.message);
    assert_eq!(*log.borrow(), failure.shrunk, "replay diverged from trace");

    // And the serialized replay file round-trips into the same run.
    let parsed = ReplayFile::from_text(&failure.replay.to_text()).unwrap();
    assert_eq!(parsed.picks, failure.shrunk);
    let again = canary_pipeline(parsed.scheduler()).expect_err("file replay reproduces");
    assert_eq!(again, failure.message);
}

/// What one faulty transfer observed.
struct Transfer {
    /// The writer's transient-fault retries.
    retries: u32,
    /// The plan's injection log.
    log: Vec<FaultRecord>,
    /// The run in golden form: bytes, retries, injections, end time,
    /// and the fault log with virtual timestamps.
    transcript: String,
}

/// Run the 64-byte writer/reader pair over a tiny pipe with a seeded
/// fault plan injected into the kernel's pipe ops. The payload must
/// arrive intact.
fn faulty_transfer(seed: u64) -> Transfer {
    let kernel = Kernel::new();
    let cfg = FaultConfig {
        fs_eio_p: 0.10,
        fs_slow_p: 0.10,
        max_fs_faults: 8,
        ..FaultConfig::default()
    };
    let plan = FaultPlan::new(seed, cfg);
    kernel.set_pipe_faults(plan.clone());
    let pipe = kernel.pipe_with_capacity(4);
    let payload: Vec<u8> = (0u8..64).collect();

    let k = kernel.clone();
    let retries = Rc::new(Cell::new(0u32));
    let r = retries.clone();
    let mut remaining = payload.clone();
    kernel.spawn_fn(SpawnOptions::new("writer").stdout(pipe), move |ctx| {
        if remaining.is_empty() {
            return ThreadStep::Finished;
        }
        match k.write_pipe(ctx, pipe, &remaining) {
            Ok(PipeWrite::Wrote(n)) => {
                remaining.drain(..n);
                ThreadStep::Yielded
            }
            Ok(PipeWrite::WouldBlock) => ThreadStep::Blocked,
            Ok(PipeWrite::Broken) => panic!("reader vanished"),
            // Transient faults are retryable by contract: go again.
            Err(KernelError::TransientFault(_)) => {
                r.set(r.get() + 1);
                ThreadStep::Yielded
            }
            Err(e) => panic!("unexpected kernel error: {e}"),
        }
    });

    let k = kernel.clone();
    let out = Rc::new(RefCell::new(Vec::new()));
    let o = out.clone();
    kernel.spawn_fn(SpawnOptions::new("reader").stdin(pipe), move |ctx| match k
        .read_pipe(ctx, pipe, 8)
    {
        Ok(PipeRead::Data(d)) => {
            o.borrow_mut().extend_from_slice(&d);
            ThreadStep::Yielded
        }
        Ok(PipeRead::WouldBlock) => ThreadStep::Blocked,
        Ok(PipeRead::Eof) => ThreadStep::Finished,
        Err(KernelError::TransientFault(_)) => ThreadStep::Yielded,
        Err(e) => panic!("unexpected kernel error: {e}"),
    });

    kernel.run().unwrap();
    assert!(kernel.all_exited());
    assert_eq!(
        *out.borrow(),
        payload,
        "seed {seed}: payload corrupted by injected faults"
    );
    // Injections surfaced through the metrics registry too.
    let engine = kernel.engine();
    let m = engine.metrics();
    let counted = m.get("fault.pipe.transient_eio") + m.get("fault.pipe.slow_completion");
    assert_eq!(counted, plan.fs_injected() as u64);

    let mut transcript = format!(
        "seed={seed} bytes={} retries={} injected={} end_ns={}\n",
        out.borrow().len(),
        retries.get(),
        plan.fs_injected(),
        engine.now_ns(),
    );
    for rec in plan.log() {
        transcript += &format!("  {}ns {} {}\n", rec.ts_ns, rec.kind, rec.detail);
    }
    Transfer {
        retries: retries.get(),
        log: plan.log(),
        transcript,
    }
}

#[test]
fn pipe_faults_are_survivable_and_deterministic() {
    // Regression for the fault plan wired into kernel pipe ops: a
    // writer/reader pair rides out injected transient EIOs and slow
    // completions without losing, duplicating, or reordering a byte.
    let Transfer { retries, log, .. } = faulty_transfer(0xFA_17);
    assert!(
        !log.is_empty(),
        "the plan never fired — the probabilities or seed are too timid"
    );
    assert!(
        log.iter().any(|rec| rec.kind == "transient_eio"),
        "no transient fault fired: {log:?}"
    );
    assert!(
        log.iter().any(|rec| rec.kind == "slow_completion"),
        "no slow completion fired: {log:?}"
    );
    assert!(retries >= 1, "the writer never saw a retryable fault");

    // Same seed, same faults at the same virtual instants, same run, at
    // any shard-pool size.
    check_golden_seeds("kernel/pipe_faults", &[1, 2, 3], 3, |seed| {
        faulty_transfer(seed).transcript
    });

    // A fault-free plan is exactly the old kernel.
    let kernel = Kernel::new();
    kernel.set_pipe_faults(FaultPlan::new(1, FaultConfig::default()));
    let engine = kernel.engine();
    assert_eq!(engine.metrics().get("fault.pipe.transient_eio"), 0);
}

/// The sharded exploration driver is a drop-in for the serial one:
/// same config, same workload ⇒ the same outcomes, the same failing
/// schedule, the same shrunk pick trace, the same replay file — at
/// any shard-pool size.
#[test]
fn explore_parallel_matches_serial_explore_on_the_canary() {
    let cfg = ExploreConfig::new(24, SEED);
    let serial = explore(&cfg, canary_pipeline);
    for threads in [1, 4] {
        let parallel = explore_parallel(&cfg, threads, || Box::new(canary_pipeline));
        assert_eq!(parallel.runs.len(), serial.runs.len(), "threads={threads}");
        for (p, s) in parallel.runs.iter().zip(&serial.runs) {
            assert_eq!(p.schedule, s.schedule, "threads={threads}");
            assert_eq!(p.picks, s.picks, "threads={threads}");
            assert_eq!(p.failure, s.failure, "threads={threads}");
        }
        let (pf, sf) = (
            parallel.failure.expect("parallel finds the deadlock"),
            serial.failure.as_ref().expect("serial finds the deadlock"),
        );
        assert_eq!(pf.schedule, sf.schedule, "threads={threads}");
        assert_eq!(pf.message, sf.message, "threads={threads}");
        assert_eq!(pf.picks, sf.picks, "threads={threads}");
        assert_eq!(pf.shrunk, sf.shrunk, "threads={threads}");
        assert_eq!(
            pf.replay.to_text(),
            sf.replay.to_text(),
            "threads={threads}"
        );
    }
}
