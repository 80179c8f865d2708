//! The multi-process kernel, end-to-end: JVM guests as processes on
//! one [`Kernel`], connected by real pipes — EOF and backpressure,
//! SIGKILL mid-stream, zombie reaping through `waitpid`, exit-code
//! propagation, schedule exploration finding (then shrinking and
//! replaying) a cross-process pipe/waitpid deadlock, and a golden
//! transcript of seeded guest and host pipe calls.

mod common;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use common::{check_golden, check_golden_seeds, digest};
use doppio::core::{
    KernelError, PipeId, PipeRead, PipeWrite, Scheduler, ThreadContext, ThreadStep, WaitPid,
};
use doppio::faults::{FaultConfig, FaultPlan, FaultRecord};
use doppio::fs::{backends, FileSystem};
use doppio::jsengine::Browser;
use doppio::jvm::{fsutil, spawn_jvm};
use doppio::minijava::compile_to_bytes;
use doppio::prng::SplitMix64;
use doppio::schedtest::{
    explore, explore_parallel, ExploreConfig, PickLog, RecordingScheduler, ReplayFile,
};
use doppio::trace::{chrome, RingSink};
use doppio::{BuildOnKernel, EngineBuilder, ExitStatus, Kernel, Pid, Signal, SpawnOptions};

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

/// A transcript of kernel pipe calls, shared by a run's guests and its
/// host.
type Log = Rc<RefCell<String>>;

/// `n` bytes for a write: `first`, `first + 1`, ... cycling through
/// `span` letters, so every read shows whose bytes it got, in order.
fn letters(counter: &mut u8, first: u8, span: u8, n: usize) -> Vec<u8> {
    (0..n)
        .map(|_| {
            *counter = (*counter + 1) % span;
            first + *counter
        })
        .collect()
}

fn show_read(r: &Result<PipeRead, KernelError>) -> String {
    match r {
        Ok(PipeRead::Data(d)) => format!("{:?}", String::from_utf8_lossy(d)),
        other => format!("{other:?}"),
    }
}

fn show_bytes(r: &Result<Vec<u8>, KernelError>) -> String {
    match r {
        Ok(d) => format!("Ok({:?})", String::from_utf8_lossy(d)),
        Err(e) => format!("Err({e:?})"),
    }
}

/// One guest of [`pipe_ops_run`]: each slice makes one or two seeded
/// `read_pipe`/`write_pipe` calls on any of `pipes`, sized from 0 to
/// 3 past the pipe's capacity, and logs the slice and every outcome.
/// It blocks on the first `WouldBlock` and finishes after `life`
/// slices, unless the host ends it first.
fn spawn_pipe_script(
    kernel: &Kernel,
    opts: SpawnOptions,
    pipes: Vec<(PipeId, usize)>,
    mut rng: SplitMix64,
    life: u32,
    log: Log,
) -> Pid {
    let k = kernel.clone();
    let name = opts.name.clone();
    let first = b'a' + 5 * (name.len() as u8 % 5);
    let mut counter = 0;
    let mut slice = 0;
    let script = move |ctx: &mut ThreadContext<'_>| {
        slice += 1;
        let mut line = format!(
            "{:>10} {name} t{} #{slice}:",
            k.engine().now_ns(),
            ctx.thread_id().0
        );
        let mut step = ThreadStep::Yielded;
        for _ in 0..rng.gen_range(1..=2u32) {
            let (pipe, cap) = pipes[rng.gen_range(0..pipes.len())];
            let size = rng.gen_range(0..=cap + 3);
            let blocked = if rng.gen_bool(0.5) {
                let r = k.read_pipe(ctx, pipe, size);
                line += &format!(" read({pipe},{size})={}", show_read(&r));
                matches!(r, Ok(PipeRead::WouldBlock))
            } else {
                let data = letters(&mut counter, first, 5, size);
                let r = k.write_pipe(ctx, pipe, &data);
                line += &format!(" write({pipe},{size})={r:?}");
                matches!(r, Ok(PipeWrite::WouldBlock))
            };
            if blocked {
                step = ThreadStep::Blocked;
                break;
            }
        }
        if step == ThreadStep::Yielded && slice >= life {
            step = ThreadStep::Finished;
        }
        line += &format!(" -> {step:?}\n");
        log.borrow_mut().push_str(&line);
        step
    };
    kernel.spawn_fn(opts, script).pid()
}

/// One host call of [`pipe_ops_run`], chosen by `rng`: a host write,
/// read or close, a `feed_pipe` on behalf of a guest, an `exit` or a
/// signal, or a write to a pipe that does not exist. Logs the outcome
/// and, for a pipe call, the bytes left in the pipe.
fn host_pipe_call(
    kernel: &Kernel,
    rng: &mut SplitMix64,
    pipes: &[(PipeId, usize)],
    pids: &[Pid],
    counter: &mut u8,
    log: &Log,
) {
    let (pipe, cap) = pipes[rng.gen_range(0..pipes.len())];
    let size = rng.gen_range(0..=cap + 3);
    let pid = pids[rng.gen_range(0..pids.len())];
    let call = match rng.gen_range(0..18u32) {
        0..=4 => {
            let data = letters(counter, b'0', 10, size);
            format!(
                "host_write({pipe},{size})={:?}",
                kernel.host_write(pipe, &data)
            )
        }
        5..=8 => format!("host_read({pipe})={}", show_bytes(&kernel.host_read(pipe))),
        9 => format!(
            "host_close_write({pipe})={:?}",
            kernel.host_close_write(pipe)
        ),
        10 => format!("host_close_read({pipe})={:?}", kernel.host_close_read(pipe)),
        11..=14 => {
            let data = letters(counter, b'A', 26, size);
            let r = kernel.feed_pipe(pid, pipe, &data);
            format!("feed_pipe(pid {pid},{pipe},{size})={r:?}")
        }
        15 => {
            let signal =
                [Signal::Int, Signal::Term, Signal::Kill, Signal::Pipe][rng.gen_range(0..4usize)];
            let r = kernel.kill(pid, signal);
            log.borrow_mut().push_str(&format!(
                "{:>10} host kill(pid {pid},{signal})={r:?}\n",
                kernel.engine().now_ns()
            ));
            return;
        }
        16 => {
            let code = rng.gen_range(1..=9i32);
            let r = kernel.exit(pid, code);
            log.borrow_mut().push_str(&format!(
                "{:>10} host exit(pid {pid},{code})={r:?}\n",
                kernel.engine().now_ns()
            ));
            return;
        }
        _ => {
            let forged = PipeId(99);
            format!(
                "host_write({forged},1)={:?}",
                kernel.host_write(forged, b"?")
            )
        }
    };
    let len = kernel.pipe_len(pipe);
    log.borrow_mut().push_str(&format!(
        "{:>10} host {call} len({pipe})={len:?}\n",
        kernel.engine().now_ns()
    ));
}

/// Four closure guests and the host share three pipes of 1 to 8 bytes.
/// Between single steps of the event loop the host makes seeded pipe
/// calls, ends guests or does nothing. The transcript records every
/// call's outcome, the pipe's length after each host call, every slice
/// in the order it ran (so who woke whom shows), the final pipe lengths
/// and process table, and a digest of the causal trace.
fn pipe_ops_run(seed: u64) -> String {
    let kernel = Kernel::new();
    let ring = Rc::new(RingSink::default());
    let engine = EngineBuilder::new(Browser::Chrome)
        .rng_seed(seed)
        .trace_sink(ring.clone())
        .build_on(&kernel);
    let log: Log = Rc::new(RefCell::new(format!("--- seed {seed}\n")));
    let mut rng = SplitMix64::new(seed);
    let pipes: Vec<(PipeId, usize)> = (0..3)
        .map(|_| {
            let cap = rng.gen_range(1..=8usize);
            (kernel.pipe_with_capacity(cap), cap)
        })
        .collect();
    for (pipe, cap) in &pipes {
        log.borrow_mut()
            .push_str(&format!("{pipe} capacity {cap}\n"));
    }
    let mut pids = Vec::new();
    for name in ["g", "gg", "ggg", "gggg"] {
        let mut opts = SpawnOptions::new(name);
        if rng.gen_bool(0.5) {
            opts = opts.stdin(pipes[rng.gen_range(0..pipes.len())].0);
        }
        if rng.gen_bool(0.5) {
            opts = opts.stdout(pipes[rng.gen_range(0..pipes.len())].0);
        }
        let life = rng.gen_range(4..=16u32);
        log.borrow_mut().push_str(&format!(
            "spawn {name} stdin={:?} stdout={:?} life={life}\n",
            opts.stdin, opts.stdout
        ));
        let script = rng.split();
        pids.push(spawn_pipe_script(
            &kernel,
            opts,
            pipes.clone(),
            script,
            life,
            log.clone(),
        ));
    }
    let mut counter = 0;
    for _ in 0..200 {
        if kernel.all_exited() {
            break;
        }
        if rng.gen_bool(0.3) {
            host_pipe_call(&kernel, &mut rng, &pipes, &pids, &mut counter, &log);
        }
        engine.run_one();
    }
    // Whatever is still running is killed, and the wakes that follow
    // run out.
    for &pid in &pids {
        if kernel.status(pid).is_none() {
            let r = kernel.kill(pid, Signal::Kill);
            log.borrow_mut().push_str(&format!(
                "{:>10} host kill(pid {pid},SIGKILL)={r:?}\n",
                engine.now_ns()
            ));
        }
    }
    while engine.run_one() {}
    let mut out = log.take();
    for (pipe, _) in &pipes {
        out += &format!("{pipe} len {:?}\n", kernel.pipe_len(*pipe));
    }
    for p in kernel.process_table() {
        out += &format!(
            "pid {} {} {} slices={} in={} out={} spawned={} exited={:?}\n",
            p.pid,
            p.name,
            p.status,
            p.slices,
            p.pipe_in,
            p.pipe_out,
            p.spawned_at_ns,
            p.exited_at_ns
        );
    }
    out += &format!("trace {}\n", digest(&chrome::export_sink(&ring)));
    out
}

/// The edges of the pipe semantics, one directed case each: the host
/// writes into a pipe with no readers left; `feed_pipe` drops what it
/// feeds once every read end is closed and does not count it; a
/// zero-byte write into a pipe with room wakes a blocked reader; a read
/// that leaves an overfilled pipe at capacity wakes no writer; and a
/// host read wakes a blocked writer, while the host read of the empty
/// pipe after it returns nothing.
fn pipe_edges() -> String {
    let kernel = Kernel::new();
    let engine = kernel.engine();
    let log: Log = Rc::new(RefCell::new(String::from("--- edges\n")));
    let host = |call: String, pipe: PipeId| {
        log.borrow_mut().push_str(&format!(
            "{:>10} host {call} len({pipe})={:?}\n",
            engine.now_ns(),
            kernel.pipe_len(pipe)
        ));
    };
    // A guest that makes the calls in `script`, one per slice, logging
    // each; a read or write that would block parks it until woken.
    let spawn = |opts: SpawnOptions, script: Vec<(PipeId, Option<&'static [u8]>, usize)>| {
        let k = kernel.clone();
        let log = log.clone();
        let name = opts.name.clone();
        let mut next = 0;
        kernel
            .spawn_fn(opts, move |ctx| {
                let Some(&(pipe, write, max)) = script.get(next) else {
                    return ThreadStep::Finished;
                };
                let (shown, blocked) = match write {
                    Some(data) => {
                        let r = k.write_pipe(ctx, pipe, data);
                        (
                            format!("write({pipe},{:?})={r:?}", String::from_utf8_lossy(data)),
                            r == Ok(PipeWrite::WouldBlock),
                        )
                    }
                    None => {
                        let r = k.read_pipe(ctx, pipe, max);
                        (
                            format!("read({pipe},{max})={}", show_read(&r)),
                            r == Ok(PipeRead::WouldBlock),
                        )
                    }
                };
                log.borrow_mut().push_str(&format!(
                    "{:>10} {name} t{}: {shown}\n",
                    k.engine().now_ns(),
                    ctx.thread_id().0
                ));
                if blocked {
                    return ThreadStep::Blocked;
                }
                next += 1;
                ThreadStep::Yielded
            })
            .pid()
    };

    // The host writes into a pipe whose only reader has exited; a
    // guest's write there is broken.
    let orphan = kernel.pipe_with_capacity(4);
    spawn(SpawnOptions::new("short-reader").stdin(orphan), vec![]);
    while engine.run_one() {}
    host(
        format!(
            "host_write({orphan},\"xyz\")={:?}",
            kernel.host_write(orphan, b"xyz")
        ),
        orphan,
    );
    host(
        format!(
            "host_write({orphan},\"pqrs\")={:?}",
            kernel.host_write(orphan, b"pqrs")
        ),
        orphan,
    );
    spawn(
        SpawnOptions::new("late-writer"),
        vec![(orphan, Some(b"w"), 0)],
    );
    while engine.run_one() {}

    // feed_pipe counts bytes while a read end is open and drops them,
    // uncounted, once none is.
    let fed = kernel.pipe_with_capacity(4);
    let feeder = spawn(SpawnOptions::new("feeder").stdout(fed), vec![]);
    host(
        format!(
            "feed_pipe(pid {feeder},{fed},\"ab\")={:?}",
            kernel.feed_pipe(feeder, fed, b"ab")
        ),
        fed,
    );
    host(
        format!("host_close_read({fed})={:?}", kernel.host_close_read(fed)),
        fed,
    );
    host(
        format!(
            "feed_pipe(pid {feeder},{fed},\"cde\")={:?}",
            kernel.feed_pipe(feeder, fed, b"cde")
        ),
        fed,
    );
    while engine.run_one() {}

    // A zero-byte write into a pipe with room wakes the blocked reader.
    let zero = kernel.pipe_with_capacity(4);
    spawn(
        SpawnOptions::new("reader").stdin(zero),
        vec![(zero, None, 4), (zero, None, 4), (zero, None, 4)],
    );
    while engine.run_one() {}
    spawn(
        SpawnOptions::new("writer").stdout(zero),
        vec![(zero, Some(b""), 0), (zero, Some(b"hi"), 0)],
    );
    while engine.run_one() {}

    // A read that leaves an overfilled pipe at capacity wakes no
    // writer; the host read that empties it does, and a host read of
    // the empty pipe returns nothing.
    let full = kernel.pipe_with_capacity(2);
    spawn(
        SpawnOptions::new("blocked-writer"),
        vec![
            (full, Some(b"abc"), 0),
            (full, Some(b"de"), 0),
            (full, Some(b"f"), 0),
        ],
    );
    while engine.run_one() {}
    host(
        format!(
            "host_write({full},\"123\")={:?}",
            kernel.host_write(full, b"123")
        ),
        full,
    );
    spawn(SpawnOptions::new("partial-reader"), vec![(full, None, 1)]);
    while engine.run_one() {}
    for _ in 0..4 {
        host(
            format!("host_read({full})={}", show_bytes(&kernel.host_read(full))),
            full,
        );
        while engine.run_one() {}
    }

    // A process whose stdout is at capacity when its slice ends parks
    // until the host drains the pipe, and wakes when the host closes
    // its read end.
    let stdout = kernel.pipe_with_capacity(2);
    spawn(
        SpawnOptions::new("chatty").stdout(stdout),
        vec![
            (stdout, Some(b"ab"), 0),
            (stdout, Some(b"cd"), 0),
            (stdout, Some(b"e"), 0),
        ],
    );
    while engine.run_one() {}
    host(
        format!(
            "host_read({stdout})={}",
            show_bytes(&kernel.host_read(stdout))
        ),
        stdout,
    );
    while engine.run_one() {}
    host(
        format!(
            "host_close_read({stdout})={:?}",
            kernel.host_close_read(stdout)
        ),
        stdout,
    );
    while engine.run_one() {}

    let mut out = log.take();
    for p in kernel.process_table() {
        out += &format!(
            "pid {} {} {} slices={} in={} out={}\n",
            p.pid, p.name, p.status, p.slices, p.pipe_in, p.pipe_out
        );
    }
    out
}

#[test]
fn pipe_ops_match_their_golden() {
    check_golden("kernel/pipe_ops", || {
        let mut out: String = [1, 2, 3].into_iter().map(pipe_ops_run).collect();
        out += &pipe_edges();
        out
    });
}
