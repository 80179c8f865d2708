//! Byte-identity goldens for the JVM interpreter, the kernel, the
//! scale harness, and the example scenarios.
//!
//! Every virtual observable of a guest run — stdout, virtual wall time,
//! the instruction count, and the rendered RunReport — is compared
//! against a committed file under `tests/golden/jvm/`, as are the pick
//! logs of a seeded schedule exploration. Any change to the interpreter
//! that moves a charge, a counter, or a scheduling point shows up here
//! as a diff. `tests/golden/jvm/runtime_library.txt` pins the bundled
//! runtime library's class files, method by method, so a change to how
//! the library is assembled cannot move a byte of it.
//! `tests/golden/kernel/` holds the same for JVM pipelines
//! on a [`Kernel`] (built onto a configured engine, or lazily on a
//! stock one) and for a sharded [`run_tenants`] report, which must
//! match one golden at every shard thread count. `tests/golden/pipeline/`
//! and `tests/golden/observability/` hold the artifacts the
//! `shell_pipeline`, `process_per_request` and `responsive_page`
//! examples write, produced by the examples' own `run`;
//! `tests/golden/examples/` holds the stdout and final RunReport of
//! `cloud_notes` (a replicated mount) and `shadow_game` (XHR and
//! localStorage mounts), and `tests/golden/scale/tenant_storm.txt` the
//! merged report of two `tenant_storm` DeltaBlue tenants, which must
//! match at 1 and 2 shard threads.
//!
//! The check in `tests/common/mod.rs` produces every scenario at
//! least twice; see there for what to do on a mismatch.

mod common;

#[allow(dead_code)]
#[path = "../examples/cloud_notes.rs"]
mod cloud_notes;
#[allow(dead_code)]
#[path = "../examples/process_per_request.rs"]
mod process_per_request;
#[allow(dead_code)]
#[path = "../examples/responsive_page.rs"]
mod responsive_page;
#[allow(dead_code)]
#[path = "../examples/shadow_game.rs"]
mod shadow_game;
#[allow(dead_code)]
#[path = "../examples/shell_pipeline.rs"]
mod shell_pipeline;
#[allow(dead_code)]
#[path = "../examples/tenant_storm.rs"]
mod tenant_storm;

use std::rc::Rc;

use common::{check_golden, check_golden_at, check_golden_seeds, digest};
use doppio::core::PipeId;
use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, BrowserProfile, Engine};
use doppio::jvm::{fsutil, spawn_jvm, Jvm, JvmRunResult};
use doppio::minijava::compile_to_bytes;
use doppio::report::RunReport;
use doppio::scale::{run_tenants, TenantRun, TenantSpec};
use doppio::schedtest::{explore, ExploreConfig};
use doppio::trace::{chrome, RingSink};
use doppio::workloads::run_workload;
use doppio::{BuildOnKernel, EngineBuilder, Kernel, Process, SpawnOptions};

const SEED: u64 = 0x71E2_0008;

/// The four observables of one run, in golden-file form.
fn render(stdout: &str, wall_ns: u64, instructions: u64, report_json: &str) -> String {
    format!(
        "wall_ns: {wall_ns}\ninstructions: {instructions}\n--- stdout\n{stdout}\n--- report\n{report_json}\n"
    )
}

fn paper_program(id: &str) {
    check_golden(&format!("jvm/{id}"), || {
        let out = run_workload(id, Browser::Chrome);
        assert!(out.uncaught.is_none(), "{id}: {:?}", out.uncaught);
        render(
            &out.stdout,
            out.wall_ns,
            out.instructions,
            &out.report.to_json_string(),
        )
    });
}

#[test]
fn disasm_matches_its_golden() {
    paper_program("disasm");
}

#[test]
fn compilerbench_matches_its_golden() {
    paper_program("compilerbench");
}

#[test]
fn recursive_matches_its_golden() {
    paper_program("recursive");
}

#[test]
fn binarytrees_matches_its_golden() {
    paper_program("binarytrees");
}

#[test]
fn nqueens_matches_its_golden() {
    paper_program("nqueens");
}

#[test]
fn deltablue_matches_its_golden() {
    paper_program("deltablue");
}

#[test]
fn pidigits_matches_its_golden() {
    paper_program("pidigits");
}

/// Every class file of the bundled runtime library, in definition
/// order: its name and digest, then each method's access flags, name
/// and descriptor.
#[test]
fn runtime_library_matches_its_golden() {
    check_golden("jvm/runtime_library", || {
        let mut out = String::new();
        for cf in doppio::jvm::rtlib::runtime_classes() {
            let name = cf.name().expect("runtime class name");
            out += &format!("{name}: {}\n", digest(&cf.to_bytes()));
            for m in &cf.methods {
                out += &format!("  {:#06x} {}{}\n", m.access_flags, m.name, m.descriptor);
            }
        }
        out
    });
}

/// Run `Main` of `src` on a fresh Chrome engine; return the run result
/// and its RunReport rendered as JSON.
fn run_guest(src: &str, title: &str) -> (JvmRunResult, Engine, String) {
    let engine = Engine::new(Browser::Chrome);
    let (r, report) = run_guest_on(&engine, src, title);
    (r, engine, report)
}

/// Run `Main` of `src` on `engine`; return the run result and its
/// RunReport rendered as JSON.
fn run_guest_on(engine: &Engine, src: &str, title: &str) -> (JvmRunResult, String) {
    let fs = FileSystem::new(engine, backends::in_memory(engine));
    fsutil::mount_class_files(engine, &fs, "/classes", &compile_to_bytes(src).unwrap());
    let jvm = Jvm::new(engine, fs);
    jvm.launch("Main", &[]);
    let r = jvm.run_to_completion().unwrap();
    assert!(r.uncaught.is_none(), "uncaught: {:?}", r.uncaught);
    let report = RunReport::collect(title, engine).to_json_string();
    (r, report)
}

/// A hot loop whose body holds the fused `iload;iload;iadd` (`a + b`)
/// beside two shapes the decoder leaves unfused: `aload;getfield`
/// (`acc.bias`) and the `iinc;goto` latch of the `for`.
const HOT_LOOP: &str = r#"
    class Acc {
        int bias;
        Acc(int b) { this.bias = b; }
    }
    class Main {
        static void main(String[] args) {
            Acc acc = new Acc(3);
            int sum = 0;
            for (int i = 0; i < 5000; i++) {
                int a = i;
                int b = sum;
                sum = a + b;
                sum = sum + acc.bias;
            }
            System.out.println("sum=" + sum);
        }
    }
"#;

#[test]
fn hot_loop_matches_its_golden() {
    check_golden("jvm/hot_loop", || {
        let (r, _engine, report) = run_guest(HOT_LOOP, "hot_loop");
        // Σ(i + 3) for i in 0..5000.
        assert_eq!(r.stdout, "sum=12512500\n");
        render(&r.stdout, r.wall_ns, r.instructions, &report)
    });
}

/// A call-free loop that makes Safari's memory model page mid-run: each
/// iteration allocates a `byte[1024]`, which the leaking profile never
/// frees, then does int work. With the paging threshold lowered to
/// 16 KiB, residency crosses it about a third of the way through, so
/// the charges of the remaining iterations, and of the two-field
/// `Pair` allocated after the loop, are inflated by the paging penalty.
/// After 49 iterations one map operation's penalty is not a whole
/// number of nanoseconds, so the `Pair`'s two field-dictionary charges
/// read differently as one bulk charge and as two single ones.
const PAGING_LOOP: &str = r#"
    class Pair {
        int left;
        int right;
        Pair(int l, int r) { this.left = l; this.right = r; }
    }
    class Main {
        static void main(String[] args) {
            int sum = 0;
            int len = 0;
            for (int i = 0; i < 49; i++) {
                byte[] block = new byte[1024];
                len = len + block.length;
                for (int j = 0; j < 40; j++) { sum = sum * 31 + j; }
            }
            Pair p = new Pair(sum, len);
            System.out.println("sum=" + p.left + " bytes=" + p.right);
        }
    }
"#;

#[test]
fn paging_loop_matches_its_golden() {
    check_golden("jvm/paging_loop", || {
        let mut profile = BrowserProfile::of(Browser::Safari);
        profile.paging_threshold_bytes = 16 * 1024;
        let engine = EngineBuilder::with_profile(profile).build();
        let (r, report) = run_guest_on(&engine, PAGING_LOOP, "paging_loop");
        assert_eq!(r.stdout, "sum=-1939072044 bytes=50176\n");
        assert!(
            engine.is_paging(),
            "the loop's byte[]s must leak past 16 KiB"
        );
        render(&r.stdout, r.wall_ns, r.instructions, &report)
    });
}

/// A virtual call site warmed monomorphically on `A`, then handed a `B`
/// receiver whose class is fetched and defined mid-run.
const SUBCLASS_SWAP: &str = r#"
    class A {
        int tag() { return 1; }
    }
    class B extends A {
        int tag() { return 2; }
    }
    class Main {
        static int poll(A a) { return a.tag(); }
        static void main(String[] args) {
            A a = new A();
            int sum = 0;
            for (int i = 0; i < 1000; i++) { sum = sum + poll(a); }
            A b = new B();
            for (int i = 0; i < 10; i++) { sum = sum + poll(b); }
            System.out.println("sum=" + sum);
        }
    }
"#;

#[test]
fn subclass_swap_matches_its_golden() {
    check_golden("jvm/subclass_swap", || {
        let (r, _engine, report) = run_guest(SUBCLASS_SWAP, "subclass_swap");
        render(&r.stdout, r.wall_ns, r.instructions, &report)
    });
}

#[test]
fn subclass_swap_misses_the_inline_cache_at_the_swap() {
    // The same program with the second loop still passing `a`: no new
    // receiver class ever reaches `poll`'s call site.
    let no_swap = SUBCLASS_SWAP.replace("sum + poll(b)", "sum + poll(a)");
    let (swap, swap_engine, _) = run_guest(SUBCLASS_SWAP, "swap");
    let (steady, steady_engine, _) = run_guest(&no_swap, "steady");
    // A stale monomorphic hit for the `B` receiver would print 1010.
    assert_eq!(swap.stdout, "sum=1020\n");
    assert_eq!(steady.stdout, "sum=1010\n");
    let misses = |e: &Engine| e.metrics().get("jvm.icache.miss");
    assert!(
        misses(&swap_engine) > misses(&steady_engine),
        "the B receiver must miss the warmed site: {} vs {}",
        misses(&swap_engine),
        misses(&steady_engine)
    );
}

/// Every kind of call and return the interpreter makes, with the
/// places where it must hand its tallied charges to the engine or run
/// the §6.1 suspend check:
/// - `deep` recurses 60 frames down, 800 times, so the suspend timer
///   fires many times with a long chain on the stack; its `byte[]`
///   blocks make Safari's leaking memory model page partway through;
/// - the first chain to reach the bottom calls `Lazy.bump`, whose
///   `invokestatic` pushes `Lazy`'s `<clinit>` mid-chain;
/// - `shapes` alternates its call site's receiver class, so the inline
///   cache misses on every call;
/// - `text` calls `String.charAt` and `StringBuilder.append` (native,
///   on receivers that are not instances) and reads `System.nanoTime`
///   on both sides of bytecode calls, printing what the clock moved;
/// - `locks` returns from a synchronized static and a synchronized
///   instance method;
/// - in `contend`, two threads call one synchronized method that makes
///   calls, so the suspend check fires while one holds the monitor,
///   the other blocks on it, and the holder's return wakes the other.
///
/// MiniJava has no `try`, so [`call_path_main`] assembles `Main`, whose
/// handlers catch what `Calls.mid` (thrown two frames further down, in
/// `Calls.leaf`), `Tally.share` and `Tally.add` (the synchronized pair,
/// left by an exception) throw.
const CALL_PATH: &str = r#"
    class Shape {
        int area(int k) { return k; }
    }
    class Square extends Shape {
        int area(int k) { return k * k; }
    }
    class Tri extends Shape {
        int area(int k) { return k * (k + 1) / 2; }
    }
    class Lazy {
        static int seed = 6 * 7;
        static int bump(int x) { return seed + x; }
    }
    class Tally {
        int total;
        synchronized int add(int x) { total = total + 100 / x; return total; }
        static synchronized int share(int a, int b) { return a / b; }
        synchronized int hold(int n) {
            int sum = 0;
            for (int i = 0; i < n; i++) { sum = sum + Calls.chain(20); }
            return sum;
        }
    }
    class Worker extends Thread {
        Tally tally;
        int got;
        Worker(Tally t) { tally = t; }
        void run() { got = tally.hold(1000); }
    }
    class Calls {
        static int chain(int n) {
            if (n == 0) { return Lazy.bump(0); }
            return chain(n - 1) + 1;
        }
        static int deep(int rounds, int n) {
            int sum = 0;
            for (int r = 0; r < rounds; r++) {
                byte[] block = new byte[128];
                sum = sum + chain(n) + block.length;
            }
            return sum;
        }
        static int shapes(int n) {
            Shape a = new Square();
            Shape b = new Tri();
            int sum = 0;
            for (int i = 0; i < n; i++) {
                Shape s = a;
                if (i % 2 == 1) { s = b; }
                sum = sum + s.area(i);
            }
            return sum;
        }
        static String text(int n) {
            String word = "doppio";
            StringBuilder sb = new StringBuilder();
            long moved = 0;
            for (int i = 0; i < n; i++) {
                sb.append(word.charAt(i % 6));
                long t0 = System.nanoTime();
                int k = chain(3);
                long t1 = System.nanoTime();
                moved = moved + (t1 - t0) + k;
            }
            return sb.toString() + " " + moved;
        }
        static int locks(int n) {
            Tally t = new Tally();
            int sum = 0;
            for (int i = 1; i <= n; i++) {
                sum = sum + Tally.share(100, i) + t.add(i);
            }
            return sum;
        }
        static int contend() {
            Tally t = new Tally();
            Worker w1 = new Worker(t);
            Worker w2 = new Worker(t);
            w1.start();
            w2.start();
            w1.join();
            w2.join();
            return w1.got + w2.got;
        }
        static int leaf(int a, int b) { return a / b; }
        static int mid(int a, int b) { return leaf(a, b) + 1; }
        static void say(String s) { System.out.println(s); }
        static void run() {
            System.out.println("deep=" + deep(800, 60));
            System.out.println("shapes=" + shapes(40));
            System.out.println("text=" + text(12));
            System.out.println("locks=" + locks(5));
            System.out.println("contend=" + contend());
        }
    }
"#;

/// `Main.main`: `Calls.run()`, then three calls that throw
/// `ArithmeticException` into a handler in `main`, each followed by a
/// call that returns normally.
fn call_path_main() -> doppio::classfile::ClassFile {
    use doppio::classfile::access::{ACC_PUBLIC, ACC_STATIC};
    use doppio::classfile::builder::{ClassBuilder, MethodBuilder};

    const ARITH: &str = "java/lang/ArithmeticException";
    let mut m = MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 2);
    m.invokestatic("Calls", "run", "()V");
    // `guarded` pushes its call's arguments and makes the call.
    let guard = |m: &mut MethodBuilder, what: &str, guarded: &dyn Fn(&mut MethodBuilder)| {
        let (start, end, handler, after) =
            (m.new_label(), m.new_label(), m.new_label(), m.new_label());
        m.bind(start);
        guarded(m);
        m.pop();
        m.bind(end);
        m.goto_(after);
        m.bind(handler);
        m.pop();
        m.ldc_string(&format!("{what} threw"));
        m.invokestatic("Calls", "say", "(Ljava/lang/String;)V");
        m.bind(after);
        m.add_exception_handler(start, end, handler, Some(ARITH));
    };
    guard(&mut m, "mid", &|m| {
        m.ldc_int(7);
        m.ldc_int(0);
        m.invokestatic("Calls", "mid", "(II)I");
    });
    guard(&mut m, "share", &|m| {
        m.ldc_int(7);
        m.ldc_int(0);
        m.invokestatic("Tally", "share", "(II)I");
    });
    guard(&mut m, "add", &|m| {
        m.new_object("Tally");
        m.dup();
        m.invokespecial("Tally", "<init>", "()V");
        m.ldc_int(0);
        m.invokevirtual("Tally", "add", "(I)I");
    });
    // The monitors the throws left are free again.
    m.invokestatic("Calls", "run", "()V");
    m.return_void();
    let mut b = ClassBuilder::new("Main", "java/lang/Object");
    b.add_method(m);
    b.finish()
}

/// One run of the call-path guest on `engine`, in golden form: the four
/// observables, plus the folded profile and the trace's digest and
/// per-event counts when `engine` has them.
fn call_path_run(title: &str, engine: &Engine, ring: Option<&RingSink>) -> String {
    let mut classes = doppio::minijava::compile(CALL_PATH).unwrap();
    classes.push(call_path_main());
    let fs = FileSystem::new(engine, backends::in_memory(engine));
    fsutil::mount_classes(engine, &fs, "/classes", &classes);
    let jvm = Jvm::new(engine, fs);
    jvm.launch("Main", &[]);
    let r = jvm.run_to_completion().unwrap();
    assert!(r.uncaught.is_none(), "uncaught: {:?}", r.uncaught);
    let report = RunReport::collect(title, engine).to_json_string();
    let mut out = format!(
        "=== {title}\nsuspensions: {}\n{}",
        r.runtime.suspensions,
        render(&r.stdout, r.wall_ns, r.instructions, &report)
    );
    if let Some(profiler) = engine.profiler() {
        out.push_str(&format!("--- folded\n{}", profiler.folded()));
    }
    if let Some(ring) = ring {
        assert_eq!(ring.dropped(), 0, "the ring must hold the whole trace");
        let mut counts = std::collections::BTreeMap::new();
        for ev in ring.events() {
            *counts.entry((ev.cat, ev.name.to_string())).or_insert(0u64) += 1;
        }
        out.push_str(&format!(
            "--- trace.json\n{}\n--- trace events\n",
            digest(&chrome::export_sink(ring))
        ));
        for ((cat, name), n) in counts {
            out.push_str(&format!("{cat} {name} {n}\n"));
        }
    }
    out
}

#[test]
fn call_path_matches_its_golden() {
    check_golden("jvm/call_path", || {
        // Chrome with every observer: the trace pins the `icache_miss`,
        // `cp_quicken` and `jvm` method-sample instants.
        let ring = Rc::new(RingSink::default());
        let chrome = EngineBuilder::new(Browser::Chrome)
            .trace_sink(ring.clone())
            .histograms(true)
            .profiler(doppio::trace::Profiler::new(1_000_000))
            .build();
        let mut out = call_path_run("chrome", &chrome, Some(&ring));
        // Safari pages once the `byte[]` blocks leak past 16 KiB.
        let mut profile = BrowserProfile::of(Browser::Safari);
        profile.paging_threshold_bytes = 16 * 1024;
        let safari = EngineBuilder::with_profile(profile)
            .histograms(true)
            .build();
        out.push_str(&call_path_run("safari_paging", &safari, None));
        assert!(safari.is_paging(), "the blocks must leak past 16 KiB");
        // No watchdog: no suspend check runs at all.
        let native = Engine::new(Browser::Native);
        out.push_str(&call_path_run("native", &native, None));
        out
    });
}

/// Two workers yielding between bursts, so the scheduler has real
/// choices to make.
const THREADED_HOT: &str = r#"
    class Worker extends Thread {
        int total;
        void run() {
            int sum = 0;
            for (int burst = 0; burst < 8; burst++) {
                for (int j = 0; j < 50; j++) { sum = sum + j; }
                Thread.yield();
            }
            total = sum;
        }
    }
    class Main {
        static void main(String[] args) {
            Worker w1 = new Worker();
            Worker w2 = new Worker();
            w1.start();
            w2.start();
            w1.join();
            w2.join();
            System.out.println("t=" + (w1.total + w2.total));
        }
    }
"#;

#[test]
fn threaded_pick_logs_match_their_golden() {
    let classes = compile_to_bytes(THREADED_HOT).unwrap();
    check_golden("jvm/threaded_hot_picks", || {
        let report = explore(&ExploreConfig::new(6, SEED), |sched| {
            let engine = Engine::new(Browser::Chrome);
            let fs = FileSystem::new(&engine, backends::in_memory(&engine));
            fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
            let jvm = Jvm::new(&engine, fs);
            jvm.runtime().set_scheduler(sched);
            jvm.launch("Main", &[]);
            match jvm.run_to_completion() {
                Err(e) => Err(e.to_string()),
                Ok(r) if r.uncaught.is_some() => Err(format!("uncaught: {:?}", r.uncaught)),
                Ok(r) if r.stdout != "t=19600\n" => Err(format!("stdout {:?}", r.stdout)),
                Ok(_) => Ok(()),
            }
        });
        assert!(
            report.all_passed(),
            "{:?}",
            report.failure.map(|f| f.message)
        );
        report
            .runs
            .iter()
            .map(|r| {
                let picks: Vec<String> = r.picks.iter().map(u32::to_string).collect();
                format!("{}\n", picks.join(" "))
            })
            .collect()
    });
}

/// `producer N`: prints `line 0` .. `line N-1`.
const PRODUCER: &str = r#"
    class Producer {
        static void main(String[] args) {
            int n = Integer.parseInt(args[0]);
            for (int i = 0; i < n; i++) {
                System.out.println("line " + i);
            }
        }
    }
"#;

/// `filter`: forwards stdin lines without a `1` in them, then prints
/// how many it kept.
const FILTER: &str = r#"
    class Filter {
        static void main(String[] args) {
            int kept = 0;
            String line = Console.readLine();
            while (line != null) {
                if (line.indexOf("1") < 0) {
                    System.out.println("got " + line);
                    kept = kept + 1;
                }
                line = Console.readLine();
            }
            System.out.println("kept " + kept);
        }
    }
"#;

/// Spawn `producer <lines> | filter` as two JVM processes on `kernel`.
/// Returns the filter's stdout pipe (still held by the host) and both
/// processes.
fn spawn_pipeline(kernel: &Kernel, lines: u64) -> (PipeId, Process, Process) {
    let engine = kernel.engine();
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    let mut classes = compile_to_bytes(PRODUCER).unwrap();
    classes.extend(compile_to_bytes(FILTER).unwrap());
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
    let (p1, p2) = (kernel.pipe(), kernel.pipe());
    let (producer, _) = spawn_jvm(
        kernel,
        SpawnOptions::new("producer")
            .arg(lines.to_string())
            .stdout(p1),
        fs.clone(),
        "Producer",
    );
    let (filter, _) = spawn_jvm(
        kernel,
        SpawnOptions::new("filter").stdin(p1).stdout(p2),
        fs,
        "Filter",
    );
    (p2, producer, filter)
}

/// Host-read `pipe` to a string.
fn drain(kernel: &Kernel, pipe: PipeId) -> String {
    String::from_utf8(kernel.host_read(pipe).unwrap()).unwrap()
}

#[test]
fn traced_kernel_pipeline_matches_its_golden() {
    check_golden("kernel/traced_pipeline", || {
        let kernel = Kernel::new();
        let ring = Rc::new(RingSink::default());
        let engine = EngineBuilder::new(Browser::Chrome)
            .rng_seed(1)
            .histograms(true)
            .trace_sink(ring.clone())
            .build_on(&kernel);
        let (out, producer, filter) = spawn_pipeline(&kernel, 12);
        kernel.run().unwrap();
        assert!(producer.status().unwrap().success());
        assert!(filter.status().unwrap().success());
        let stdout = drain(&kernel, out);
        assert!(stdout.ends_with("kept 9\n"), "{stdout}");
        let report = RunReport::collect("traced_pipeline", &engine)
            .with_runtime(&kernel.runtime())
            .with_kernel(&kernel)
            .with_causal(&ring)
            .to_json_string();
        format!("--- stdout\n{stdout}--- report\n{report}\n")
    });
}

#[test]
fn lazy_kernel_pipeline_matches_its_golden() {
    check_golden("kernel/lazy_pipeline", || {
        // No engine is attached: the first `kernel.engine()` creates a
        // stock Chrome one, and `Process::wait` drives it.
        let kernel = Kernel::new();
        let (out, producer, filter) = spawn_pipeline(&kernel, 12);
        let status = filter.wait().unwrap();
        assert!(status.success());
        assert!(producer.status().unwrap().success());
        let stdout = drain(&kernel, out);
        let report = RunReport::collect("lazy_pipeline", &kernel.engine())
            .with_runtime(&kernel.runtime())
            .with_kernel(&kernel)
            .to_json_string();
        format!("--- stdout\n{stdout}--- report\n{report}\n")
    });
}

/// One scale tenant: a traced `producer | filter` pipeline whose
/// length and engine seed come from the tenant's seed.
fn pipeline_tenant(spec: TenantSpec) -> TenantRun {
    let kernel = Kernel::new();
    let ring = Rc::new(RingSink::default());
    let engine = EngineBuilder::new(Browser::Chrome)
        .rng_seed(spec.seed)
        .histograms(true)
        .trace_sink(ring.clone())
        .build_on(&kernel);
    let (_, _, filter) = spawn_pipeline(&kernel, 3 + spec.seed % 8);
    let status = match kernel.run() {
        Ok(()) => filter.status().unwrap(),
        Err(e) => panic!("tenant {}: {e}", spec.tenant),
    };
    TenantRun {
        ok: status.success(),
        status: status.to_string(),
        report: RunReport::collect("tenant", &engine)
            .with_kernel(&kernel)
            .with_causal(&ring),
    }
}

#[test]
fn scale_report_matches_its_golden_at_one_and_two_threads() {
    check_golden_at("kernel/scale_report", &[1, 2], |threads| {
        let report = run_tenants("kernel_scale", SEED, 4, threads, pipeline_tenant);
        assert!(report.all_ok(), "threads={threads}");
        format!("{}\n", report.to_json_string())
    });
}

#[test]
fn tenant_storm_matches_its_golden_at_one_and_two_threads() {
    check_golden_at("scale/tenant_storm", &[1, 2], |threads| {
        tenant_storm::run(2, 1, threads)
    });
}

/// Seeds of the example scenarios' goldens.
const EXAMPLE_SEEDS: [u64; 3] = [1, 2, 3];

#[test]
fn shell_pipeline_matches_its_goldens() {
    check_golden_seeds("pipeline/shell_pipeline", &EXAMPLE_SEEDS, 3, |seed| {
        let run = shell_pipeline::run(seed);
        let causal = run.report.causal.as_ref().expect("causal section");
        format!(
            "--- transcript.txt\n{}--- report.json\n{}\n--- critical_paths.json\n{}\n\
             --- trace.json\n{}\n",
            run.transcript,
            run.report.to_json_string(),
            causal.to_json_string(),
            digest(&run.trace_json)
        )
    });
}

#[test]
fn process_per_request_matches_its_goldens() {
    check_golden_seeds("pipeline/process_per_request", &EXAMPLE_SEEDS, 3, |seed| {
        let run = process_per_request::run(seed);
        format!(
            "--- transcript.txt\n{}--- report.json\n{}\n",
            run.transcript,
            run.report.to_json_string()
        )
    });
}

#[test]
fn responsive_page_matches_its_golden() {
    check_golden("observability/responsive_page", || {
        // `--trace --profile --report`: every observer attached.
        let page = responsive_page::run(true, true);
        let md = page.report.to_markdown();
        assert!(
            md.contains("## Latency histograms") && md.contains("## Profile"),
            "report.md lacks its histogram or profile section:\n{md}"
        );
        let sink = page.sink.as_ref().expect("trace ring");
        let profiler = page.engine.profiler().expect("profiler attached");
        format!(
            "--- report.json\n{}\n--- folded\n{}--- trace.json\n{}\n",
            page.report.to_json_string(),
            profiler.folded(),
            digest(&chrome::export_sink(sink))
        )
    });
}

#[test]
fn cloud_notes_matches_its_golden() {
    check_golden("examples/cloud_notes", || {
        let run = cloud_notes::run();
        format!(
            "--- stdout\n{}--- report.json\n{}\n",
            run.stdout,
            run.report.to_json_string()
        )
    });
}

#[test]
fn shadow_game_matches_its_golden() {
    check_golden("examples/shadow_game", || {
        let run = shadow_game::run();
        format!(
            "--- stdout\n{}--- report.json\n{}\n",
            run.stdout,
            run.report.to_json_string()
        )
    });
}
