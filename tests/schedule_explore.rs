//! Schedule exploration end-to-end: `doppio_schedtest::explore` driving
//! real guest programs through the JVM, with the wait-for graph doing
//! the detection.
//!
//! The deliberately-buggy canaries here are the proof the harness
//! works: an AB-BA deadlock, a lost-update race, and a lost-wakeup
//! latch, each survived by round-robin but caught by exploration, each
//! shrunk to a minimal pick trace that replays byte-identically.
//!
//! Their healthy counterparts (a synchronized counter, and a bounded
//! buffer and a latch that wait under the monitor) are swept at three
//! master seeds, 48 schedules each, sharded over one OS thread per
//! core. A sweep that fails writes its shrunk schedule to
//! `target/tmp/schedule-replay-<workload>-<seed>.txt` before the test
//! panics; every run is deterministic, so rerunning the test reproduces
//! the failure.

use std::cell::RefCell;
use std::rc::Rc;

use doppio::core::{RoundRobinScheduler, Scheduler, ThreadId};
use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, Engine};
use doppio::jvm::{fsutil, Jvm};
use doppio::minijava::compile_to_bytes;
use doppio::scale::default_threads;
use doppio::schedtest::{
    explore, explore_parallel, ExploreConfig, PickLog, RecordingScheduler, ReplayFile,
    ReplayScheduler,
};
use doppio::trace::{chrome, RingSink};

/// The master seed for the single-seed explorations in this file.
const SEED: u64 = 0x00D0_FF10;

/// The master seeds of the healthy sweeps and the AB-BA canary.
const SEEDS: [u64; 3] = [SEED, 1, 2];

/// Schedules explored per seed by the healthy sweeps and the AB-BA
/// canary.
const SCHEDULES: u32 = 48;

/// Build a workload closure for `explore`: each call makes a fresh
/// engine + JVM, installs the scheduler, runs `Main`, and fails on
/// deadlock, uncaught exception, or unexpected stdout.
fn guest_workload(
    classes: Vec<(String, Vec<u8>)>,
    expect_stdout: &'static str,
) -> impl FnMut(Box<dyn Scheduler>) -> Result<(), String> {
    move |sched| {
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
        let jvm = Jvm::new(&engine, fs);
        jvm.runtime().set_scheduler(sched);
        jvm.launch("Main", &[]);
        match jvm.run_to_completion() {
            Err(e) => Err(e.to_string()),
            Ok(r) => {
                if let Some(u) = r.uncaught {
                    Err(format!("uncaught: {u}"))
                } else if r.stdout != expect_stdout {
                    Err(format!("stdout {:?} != {:?}", r.stdout, expect_stdout))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Explore [`SCHEDULES`] schedules of a healthy workload at each of
/// [`SEEDS`], sharded over one OS thread per core: every schedule must
/// pass. A failure writes its replay file to
/// `target/tmp/schedule-replay-<name>-<seed>.txt`, then panics.
fn sweep_healthy(name: &str, src: &str, expect_stdout: &'static str) {
    let classes = compile_to_bytes(src).unwrap();
    for seed in SEEDS {
        let cfg = ExploreConfig::new(SCHEDULES, seed);
        let report = explore_parallel(&cfg, default_threads(), || {
            Box::new(guest_workload(classes.clone(), expect_stdout))
        });
        if let Some(failure) = report.failure {
            let dir = env!("CARGO_TARGET_TMPDIR");
            let path = format!("{dir}/schedule-replay-{name}-{seed:#x}.txt");
            std::fs::create_dir_all(dir).expect("create the replay directory");
            failure.replay.save(&path).expect("write the replay file");
            panic!(
                "workload '{name}' failed under {} at seed {seed:#x}; replay file {path}:\n{}",
                failure.schedule, failure.message
            );
        }
        assert_eq!(report.runs.len(), SCHEDULES as usize);
    }
}

/// AB-BA deadlock canary. Thread-0 takes lock `a` then (after a yield)
/// lock `b`; Thread-1 yields twice first, then takes `b` then `a`.
/// Round-robin's strict alternation lets Thread-0 finish both locks
/// before Thread-1 reaches its first, so the baseline schedule passes —
/// only an exploring scheduler lines up the fatal overlap.
const AB_BA: &str = r#"
    class Lock {
        synchronized void grabThen(Lock second) {
            Thread.yield();
            second.tail();
        }
        synchronized void tail() { }
    }
    class First extends Thread {
        Lock a; Lock b;
        First(Lock a, Lock b) { this.a = a; this.b = b; }
        void run() { a.grabThen(b); }
    }
    class Second extends Thread {
        Lock a; Lock b;
        Second(Lock a, Lock b) { this.a = a; this.b = b; }
        void run() {
            Thread.yield();
            Thread.yield();
            b.grabThen(a);
        }
    }
    class Main {
        static void main(String[] args) {
            Lock a = new Lock();
            Lock b = new Lock();
            First t1 = new First(a, b);
            Second t2 = new Second(a, b);
            t1.start();
            t2.start();
            t1.join();
            t2.join();
            System.out.println("no deadlock");
        }
    }
"#;

#[test]
fn explore_finds_the_ab_ba_deadlock_and_replays_it_byte_identically() {
    let classes = compile_to_bytes(AB_BA).unwrap();
    for seed in SEEDS {
        let cfg = ExploreConfig::new(SCHEDULES, seed);
        let mut workload = guest_workload(classes.clone(), "no deadlock\n");
        let report = explore(&cfg, &mut workload);

        // The baseline round-robin schedule survives the canary...
        assert!(
            report.runs[0].failure.is_none(),
            "round-robin should pass: {:?}",
            report.runs[0].failure
        );
        // ...but exploration finds the deadlock within the seed budget.
        let failure = report
            .failure
            .unwrap_or_else(|| panic!("seed {seed:#x}: exploration finds the AB-BA deadlock"));

        // The report names the cycle's threads and resources.
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
        assert!(
            failure.message.contains("wait-for cycle"),
            "{}",
            failure.message
        );
        for needle in ["Thread-0", "Thread-1", "monitor #"] {
            assert!(
                failure.message.contains(needle),
                "missing {needle:?} in: {}",
                failure.message
            );
        }

        // The shrunk schedule replays byte-identically: a
        // ReplayScheduler over the shrunk trace makes exactly those
        // picks and reproduces exactly that failure.
        assert!(!failure.shrunk.is_empty());
        assert!(failure.shrunk.len() <= failure.picks.len());
        let log: PickLog = Rc::new(RefCell::new(Vec::new()));
        let rec = RecordingScheduler::new(
            Box::new(ReplayScheduler::new(failure.shrunk.clone())),
            log.clone(),
        );
        let replayed = workload(Box::new(rec)).expect_err("replay reproduces the deadlock");
        assert_eq!(replayed, failure.message);
        assert_eq!(*log.borrow(), failure.shrunk, "replay diverged from trace");

        // The serialized replay file round-trips and still reproduces.
        let parsed = ReplayFile::from_text(&failure.replay.to_text()).unwrap();
        assert_eq!(parsed.seed, seed);
        assert_eq!(parsed.picks, failure.shrunk);
        let again = workload(parsed.scheduler()).expect_err("file replay reproduces");
        assert_eq!(again, failure.message);
    }
}

/// Lost-update race: read, yield, write — no synchronization. Two
/// racers of 5 increments each should reach 10; any schedule that
/// interleaves a read-yield-write pair loses an update.
const RACY_COUNTER: &str = r#"
    class Counter {
        int n;
        int get() { return n; }
        void set(int v) { n = v; }
    }
    class Racer extends Thread {
        Counter c;
        Racer(Counter c) { this.c = c; }
        void run() {
            for (int i = 0; i < 5; i++) {
                int v = c.get();
                Thread.yield();
                c.set(v + 1);
            }
        }
    }
    class Main {
        static void main(String[] args) {
            Counter c = new Counter();
            Racer r1 = new Racer(c);
            Racer r2 = new Racer(c);
            r1.start();
            r2.start();
            r1.join();
            r2.join();
            System.out.println("n=" + c.get());
        }
    }
"#;

/// The same counter with `synchronized` increments: mutual exclusion
/// holds under every explored schedule.
const SYNC_COUNTER: &str = r#"
    class Counter {
        int n;
        synchronized void incr() {
            int v = n;
            Thread.yield();
            n = v + 1;
        }
        synchronized int get() { return n; }
    }
    class Racer extends Thread {
        Counter c;
        Racer(Counter c) { this.c = c; }
        void run() {
            for (int i = 0; i < 5; i++) { c.incr(); }
        }
    }
    class Main {
        static void main(String[] args) {
            Counter c = new Counter();
            Racer r1 = new Racer(c);
            Racer r2 = new Racer(c);
            r1.start();
            r2.start();
            r1.join();
            r2.join();
            System.out.println("n=" + c.get());
        }
    }
"#;

#[test]
fn mutual_exclusion_holds_when_synchronized_and_breaks_when_not() {
    // Property: the synchronized counter reaches exactly 10 under every
    // explored schedule.
    sweep_healthy("counter", SYNC_COUNTER, "n=10\n");

    // Canary: the racy counter loses an update under some schedule, and
    // the shrunk trace replays to the same wrong answer.
    let mut workload = guest_workload(compile_to_bytes(RACY_COUNTER).unwrap(), "n=10\n");
    let racy = explore(&ExploreConfig::new(12, SEED), &mut workload);
    let failure = racy.failure.expect("exploration catches the lost update");
    assert!(
        failure.message.contains("stdout"),
        "lost update shows up as wrong output: {}",
        failure.message
    );
    let replayed = workload(failure.replay.scheduler()).expect_err("replay reproduces");
    assert_eq!(replayed, failure.message);
}

/// Lost-wakeup canary: the waiter checks the latch in one synchronized
/// method, yields (the race window), then waits in *another* — the
/// predicate is not re-checked under the monitor, so an open+notify in
/// the window is lost and the waiter parks forever.
const LOST_WAKEUP: &str = r#"
    class Latch {
        boolean open;
        synchronized boolean isOpen() { return open; }
        synchronized void park() { this.wait(); }
        synchronized void release() {
            open = true;
            this.notifyAll();
        }
    }
    class Waiter extends Thread {
        Latch l;
        Waiter(Latch l) { this.l = l; }
        void run() {
            if (!l.isOpen()) {
                Thread.yield();
                l.park();
            }
        }
    }
    class Main {
        static void main(String[] args) {
            Latch l = new Latch();
            Waiter w = new Waiter(l);
            w.start();
            Thread.yield();
            l.release();
            w.join();
            System.out.println("joined");
        }
    }
"#;

/// A correct bounded buffer (while-loop predicates under the monitor):
/// no wakeup can be lost, so every explored schedule completes.
const SAFE_BUFFER: &str = r#"
    class Box {
        int value;
        boolean full;
        Box() { this.full = false; }
        synchronized void put(int v) {
            while (full) { this.wait(); }
            value = v;
            full = true;
            this.notifyAll();
        }
        synchronized int take() {
            while (!full) { this.wait(); }
            full = false;
            this.notifyAll();
            return value;
        }
    }
    class Producer extends Thread {
        Box box;
        Producer(Box b) { this.box = b; }
        void run() {
            for (int i = 1; i <= 6; i++) {
                box.put(i);
                Thread.yield();
            }
        }
    }
    class Main {
        static void main(String[] args) {
            Box box = new Box();
            Producer p = new Producer(box);
            p.start();
            int sum = 0;
            for (int i = 0; i < 6; i++) {
                sum += box.take();
                Thread.yield();
            }
            p.join();
            System.out.println("sum=" + sum);
        }
    }
"#;

/// A latch whose three waiters re-check its predicate under the
/// monitor: every waiter gets through, whatever the schedule.
const SAFE_LATCH: &str = r#"
    class Latch {
        boolean open;
        int through;
        synchronized void await() {
            while (!open) { this.wait(); }
            through += 1;
        }
        synchronized void release() {
            open = true;
            this.notifyAll();
        }
        synchronized int count() { return through; }
    }
    class Waiter extends Thread {
        Latch l;
        Waiter(Latch l) { this.l = l; }
        void run() { l.await(); }
    }
    class Main {
        static void main(String[] args) {
            Latch l = new Latch();
            Waiter[] ws = new Waiter[3];
            for (int i = 0; i < 3; i++) {
                ws[i] = new Waiter(l);
                ws[i].start();
            }
            Thread.yield();
            l.release();
            for (int i = 0; i < 3; i++) { ws[i].join(); }
            System.out.println("through=" + l.count());
        }
    }
"#;

#[test]
fn no_lost_wakeup_with_monitor_predicates_and_canary_without() {
    // Property: the while-under-monitor buffer and latch complete
    // under every explored schedule — no wakeup is ever lost.
    sweep_healthy("buffer", SAFE_BUFFER, "sum=21\n");
    sweep_healthy("latch", SAFE_LATCH, "through=3\n");

    // Canary: the check-yield-park latch loses the wakeup under some
    // schedule; the waiter parks forever and the wait-for graph blames
    // the condition variable it is stuck on.
    let mut workload = guest_workload(compile_to_bytes(LOST_WAKEUP).unwrap(), "joined\n");
    let report = explore(&ExploreConfig::new(24, SEED), &mut workload);
    let failure = report.failure.expect("exploration catches the lost wakeup");
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
    assert!(
        failure.message.contains("cond #"),
        "blame should name the condition variable: {}",
        failure.message
    );
    let replayed = workload(failure.replay.scheduler()).expect_err("replay reproduces");
    assert_eq!(replayed, failure.message);
}

#[test]
fn same_seed_exploration_is_byte_identical_including_traces() {
    // Two explorations with the same seed must agree on every pick of
    // every schedule AND on the exported trace_event stream — the
    // determinism that makes replay files trustworthy.
    let classes = compile_to_bytes(SAFE_BUFFER).unwrap();
    let run_explore = || {
        let mut traces: Vec<String> = Vec::new();
        let cfg = ExploreConfig::new(8, SEED);
        let report = explore(&cfg, |sched| {
            let sink = Rc::new(RingSink::default());
            let engine = Engine::builder(Browser::Chrome)
                .trace_sink(sink.clone())
                .build();
            let fs = FileSystem::new(&engine, backends::in_memory(&engine));
            fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
            let jvm = Jvm::new(&engine, fs);
            jvm.runtime().set_scheduler(sched);
            jvm.launch("Main", &[]);
            let result = match jvm.run_to_completion() {
                Err(e) => Err(e.to_string()),
                Ok(r) => {
                    if r.stdout == "sum=21\n" {
                        Ok(())
                    } else {
                        Err(format!("stdout {:?}", r.stdout))
                    }
                }
            };
            traces.push(chrome::export_sink(&sink));
            result
        });
        let picks: Vec<Vec<u32>> = report.runs.iter().map(|r| r.picks.clone()).collect();
        assert!(
            report.all_passed(),
            "{:?}",
            report.failure.map(|f| f.message)
        );
        (picks, traces)
    };
    let (picks_a, traces_a) = run_explore();
    let (picks_b, traces_b) = run_explore();
    assert_eq!(picks_a, picks_b, "pick traces must be seed-deterministic");
    assert_eq!(traces_a, traces_b, "trace_event output must be too");
    // The trace stream actually carries the scheduler's decisions.
    assert!(
        traces_a[0].contains("sched.pick"),
        "sched category missing from trace"
    );
}

/// Opposite lock orders that never overlap in time: Thread-1 finishes
/// `a → b` (and is joined) before Main takes `b → a`. No deadlock can
/// happen on this schedule — only the lock-order graph sees the hazard.
const INVERTED_ORDER: &str = r#"
    class Lock {
        synchronized void grabThen(Lock second) { second.tail(); }
        synchronized void tail() { }
    }
    class First extends Thread {
        Lock a; Lock b;
        First(Lock a, Lock b) { this.a = a; this.b = b; }
        void run() { a.grabThen(b); }
    }
    class Main {
        static void main(String[] args) {
            Lock a = new Lock();
            Lock b = new Lock();
            First t = new First(a, b);
            t.start();
            t.join();
            b.grabThen(a);
            System.out.println("ok");
        }
    }
"#;

#[test]
fn lock_order_inversion_is_flagged_without_a_deadlock() {
    let classes = compile_to_bytes(INVERTED_ORDER).unwrap();
    let engine = Engine::new(Browser::Chrome);
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Main", &[]);
    let r = jvm.run_to_completion().expect("run completes");
    assert_eq!(r.stdout, "ok\n");
    // The run survived, but the acquisition-order graph caught the
    // latent AB-BA hazard.
    let warnings = jvm.runtime().lock_order_warnings();
    assert!(!warnings.is_empty(), "inversion should be flagged");
    let text = warnings[0].to_string();
    assert!(
        text.contains("lock-order inversion") && text.contains("monitor #"),
        "{text}"
    );
}

/// A target thread that yields a while before finishing — enough slices
/// for the join waiter to sit blocked through several spurious wakes.
const SLOW_TARGET: &str = r#"
    class Spin extends Thread {
        void run() {
            for (int i = 0; i < 30; i++) { Thread.yield(); }
        }
    }
    class Main {
        static void main(String[] args) {
            Spin s = new Spin();
            s.start();
            s.join();
            System.out.println("joined");
        }
    }
"#;

#[test]
fn join_waiters_enlist_once_despite_spurious_wakes() {
    // Regression: Thread.join used to re-push the waiting thread into
    // `join_waiters` on every poll, so a spuriously woken joiner
    // accumulated duplicate entries (and duplicate wakes at finish).
    let classes = compile_to_bytes(SLOW_TARGET).unwrap();
    let engine = Engine::new(Browser::Chrome);
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Main", &[]);
    jvm.runtime().start();

    let main_tid = ThreadId(0);
    let mut spurious = 0;
    while !jvm.is_finished() {
        let joiners: Vec<ThreadId> =
            jvm.with_state(|st| st.join_waiters.values().flatten().copied().collect());
        // However many times the blocked join was re-polled, main sits
        // in the waiter list exactly once.
        assert!(
            joiners.iter().filter(|t| **t == main_tid).count() <= 1,
            "duplicate join enlistment: {joiners:?}"
        );
        if joiners.contains(&main_tid) && spurious < 5 {
            // Poke the blocked joiner awake; its poll must re-enlist
            // idempotently.
            jvm.runtime().wake(main_tid);
            spurious += 1;
        }
        if !engine.run_one() {
            break;
        }
    }
    assert!(spurious >= 1, "the join window never opened");
    assert!(jvm.is_finished(), "program should finish");
    assert_eq!(jvm.with_state(|st| st.stdout_text()), "joined\n");
}

const STDIN_READER: &str = r#"
    class Main {
        static void main(String[] args) {
            String line = Console.readLine();
            System.out.println("got " + line);
        }
    }
"#;

#[test]
fn stdin_waiters_enlist_once_across_partial_pushes() {
    // Regression: each partial stdin push wakes the reader, whose poll
    // fails (no full line yet) and re-enlists — which used to duplicate
    // the waiter entry on every round.
    let classes = compile_to_bytes(STDIN_READER).unwrap();
    let engine = Engine::new(Browser::Chrome);
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Main", &[]);
    jvm.runtime().start();

    // Run until the reader blocks on stdin.
    while engine.run_one() {}
    assert_eq!(jvm.with_state(|st| st.stdin_waiters.len()), 1);

    for chunk in ["a", "b", "c"] {
        jvm.push_stdin(chunk.as_bytes());
        while engine.run_one() {}
        let waiters = jvm.with_state(|st| st.stdin_waiters.clone());
        assert_eq!(
            waiters.len(),
            1,
            "one blocked reader, one waiter entry: {waiters:?}"
        );
    }
    jvm.push_stdin(b"!\n");
    while engine.run_one() {
        if jvm.is_finished() {
            break;
        }
    }
    assert!(jvm.is_finished());
    assert_eq!(jvm.with_state(|st| st.stdout_text()), "got abc!\n");
}

#[test]
fn round_robin_and_replay_of_nothing_agree() {
    // Sanity for the replay fallback: an empty replay file behaves
    // exactly like the round-robin baseline on a real guest.
    let classes = compile_to_bytes(SAFE_BUFFER).unwrap();
    let mut workload = guest_workload(classes, "sum=21\n");
    assert!(workload(Box::new(RoundRobinScheduler::default())).is_ok());
    assert!(workload(Box::new(ReplayScheduler::new(Vec::new()))).is_ok());
}
