//! Byte-identity goldens for the JVM interpreter.
//!
//! Every virtual observable of a guest run — stdout, virtual wall time,
//! the instruction count, and the rendered RunReport — is compared
//! against a committed file under `tests/golden/jvm/`, as are the pick
//! logs of a seeded schedule exploration. Any change to the interpreter
//! that moves a charge, a counter, or a scheduling point shows up here
//! as a diff.
//!
//! On a mismatch the test writes what it got to
//! `target/tmp/golden/jvm/<name>.txt` and fails; copy that file over
//! the golden only when the change is intended.

use std::path::PathBuf;

use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, Engine};
use doppio::jvm::{fsutil, Jvm, JvmRunResult};
use doppio::minijava::compile_to_bytes;
use doppio::report::RunReport;
use doppio::schedtest::{explore, ExploreConfig};
use doppio::workloads::run_workload;

const SEED: u64 = 0x71E2_0008;

/// Compare `got` with `tests/golden/jvm/<name>.txt`.
fn check_golden(name: &str, got: &str) {
    let file = format!("{name}.txt");
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/jvm")
        .join(&file);
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if want != got {
        let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden/jvm");
        std::fs::create_dir_all(&out_dir).expect("create golden output dir");
        let out = out_dir.join(&file);
        std::fs::write(&out, got).expect("write golden output");
        panic!(
            "{name} drifted from {}; the actual run is in {}",
            golden.display(),
            out.display()
        );
    }
}

/// The four observables of one run, in golden-file form.
fn render(stdout: &str, wall_ns: u64, instructions: u64, report_json: &str) -> String {
    format!(
        "wall_ns: {wall_ns}\ninstructions: {instructions}\n--- stdout\n{stdout}\n--- report\n{report_json}\n"
    )
}

fn paper_program(id: &str) {
    let out = run_workload(id, Browser::Chrome);
    assert!(out.uncaught.is_none(), "{id}: {:?}", out.uncaught);
    let got = render(
        &out.stdout,
        out.wall_ns,
        out.instructions,
        &out.report.to_json_string(),
    );
    check_golden(id, &got);
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
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_class_files(&engine, &fs, "/classes", &compile_to_bytes(src).unwrap());
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Main", &[]);
    let r = jvm.run_to_completion().unwrap();
    assert!(r.uncaught.is_none(), "uncaught: {:?}", r.uncaught);
    let report = RunReport::collect(title, &engine).to_json_string();
    (r, engine, report)
}

/// A hot loop with all three superinstruction shapes in its body:
/// `iload;iload;iadd` (`a + b`), `aload;getfield` (`acc.bias`), and the
/// `iinc;goto` latch of the `for`.
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
    let (r, _engine, report) = run_guest(HOT_LOOP, "hot_loop");
    // Σ(i + 3) for i in 0..5000.
    assert_eq!(r.stdout, "sum=12512500\n");
    check_golden(
        "hot_loop",
        &render(&r.stdout, r.wall_ns, r.instructions, &report),
    );
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
    let (r, _engine, report) = run_guest(SUBCLASS_SWAP, "subclass_swap");
    check_golden(
        "subclass_swap",
        &render(&r.stdout, r.wall_ns, r.instructions, &report),
    );
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
    let report = explore(&ExploreConfig::new(6, SEED), move |sched| {
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
    let got: String = report
        .runs
        .iter()
        .map(|r| {
            let picks: Vec<String> = r.picks.iter().map(u32::to_string).collect();
            format!("{}\n", picks.join(" "))
        })
        .collect();
    check_golden("threaded_hot_picks", &got);
}
