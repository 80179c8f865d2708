//! Byte-identity goldens for the JVM interpreter, the kernel, the
//! scale harness, and the example scenarios.
//!
//! Every virtual observable of a guest run — stdout, virtual wall time,
//! the instruction count, and the rendered RunReport — is compared
//! against a committed file under `tests/golden/jvm/`, as are the pick
//! logs of a seeded schedule exploration. Any change to the interpreter
//! that moves a charge, a counter, or a scheduling point shows up here
//! as a diff. `tests/golden/kernel/` holds the same for JVM pipelines
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
