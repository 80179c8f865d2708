//! The benchmark workloads of the Doppio paper's evaluation (§7).
//!
//! Figure 3's macro benchmarks and Figure 4's microbenchmarks are
//! reproduced as MiniJava programs compiled to genuine class files and
//! executed by DoppioJVM inside the simulated browser:
//!
//! | id              | stands in for                     | character |
//! |-----------------|-----------------------------------|-----------|
//! | `disasm`        | javap over javac's class files    | fs-heavy |
//! | `compilerbench` | javac over javap's sources        | fs + strings + trees |
//! | `recursive`     | Rhino running SunSpider recursive | call-heavy |
//! | `binarytrees`   | Rhino running binary-trees        | allocation-heavy |
//! | `nqueens`       | Kawa-Scheme nqueens (n = 8)       | compute |
//! | `deltablue`     | DeltaBlue ×N (Figure 4)           | OO + dispatch |
//! | `pidigits`      | pidigits, 200 digits (Figure 4)   | 64-bit arithmetic |
//!
//! [`run_workload`] executes one workload on one browser profile and
//! reports virtual wall-clock time, CPU time, suspension time (the
//! Figure 4/5 split) and instruction counts; every other counter
//! (file-system traffic, engine events, cache hits) is read from the
//! run's [`RunReport`] by name.
//! [`fstrace`] reproduces Figure 6's recorded-trace replay.

pub mod datasets;
pub mod fstrace;
pub mod responsiveness;

use doppio_core::report::RunReport;
use doppio_core::RuntimeStats;
use doppio_fs::{backends, FileSystem};
use doppio_jsengine::{Browser, Engine};
use doppio_jvm::{fsutil, Jvm};
use doppio_minijava::compile_to_bytes;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Identifier (`"deltablue"`, ...).
    pub id: &'static str,
    /// What it stands in for in the paper.
    pub paper_analog: &'static str,
    /// MiniJava source.
    pub source: &'static str,
    /// Which figure(s) it appears in.
    pub figures: &'static str,
}

/// The Figure 3 macro benchmarks.
pub const MACRO_WORKLOADS: [&str; 5] = [
    "disasm",
    "compilerbench",
    "recursive",
    "binarytrees",
    "nqueens",
];

/// The Figure 4/5 microbenchmarks.
pub const MICRO_WORKLOADS: [&str; 2] = ["deltablue", "pidigits"];

/// All workloads.
pub fn all_workloads() -> Vec<Workload> {
    vec![
        Workload {
            id: "disasm",
            paper_analog: "javap on javac's 491 class files",
            source: include_str!("mj/disasm.mj"),
            figures: "Figure 3",
        },
        Workload {
            id: "compilerbench",
            paper_analog: "javac on javap's 19 source files",
            source: include_str!("mj/compilerbench.mj"),
            figures: "Figure 3",
        },
        Workload {
            id: "recursive",
            paper_analog: "Rhino on SunSpider recursive",
            source: include_str!("mj/recursive.mj"),
            figures: "Figure 3",
        },
        Workload {
            id: "binarytrees",
            paper_analog: "Rhino on SunSpider binary-trees",
            source: include_str!("mj/binarytrees.mj"),
            figures: "Figure 3",
        },
        Workload {
            id: "nqueens",
            paper_analog: "Kawa-Scheme nqueens(8)",
            source: include_str!("mj/nqueens.mj"),
            figures: "Figure 3",
        },
        Workload {
            id: "deltablue",
            paper_analog: "DeltaBlue (one-way constraint solver)",
            source: include_str!("mj/deltablue.mj"),
            figures: "Figures 4 and 5",
        },
        Workload {
            id: "pidigits",
            paper_analog: "pidigits (first 200 digits)",
            source: include_str!("mj/pidigits.mj"),
            figures: "Figures 4 and 5",
        },
    ]
}

/// Look up a workload by id.
pub fn workload(id: &str) -> Option<Workload> {
    all_workloads().into_iter().find(|w| w.id == id)
}

/// The measurements from one workload run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Workload id.
    pub id: String,
    /// Browser profile it ran on.
    pub browser: Browser,
    /// Program stdout.
    pub stdout: String,
    /// Virtual wall-clock time of the JVM run, ns.
    pub wall_ns: u64,
    /// Wall-clock minus suspension (the Figure 4 "CPU time").
    pub cpu_ns: u64,
    /// Time spent suspended between events (Figure 5).
    pub suspended_ns: u64,
    /// Doppio runtime counters.
    pub runtime: RuntimeStats,
    /// Bytecode instructions executed.
    pub instructions: u64,
    /// Classes fetched through the file system.
    pub class_fetches: u64,
    /// Uncaught exception, if the program failed.
    pub uncaught: Option<String>,
    /// The end-of-run observability report: every counter of the run
    /// by name (`fs.bytes_read`, `engine.watchdog_kills`,
    /// `jvm.cp_cache.hit`, ...; see [`RunReport::counter`]), histogram
    /// percentiles, profiler top frames, wait-graph verdict.
    pub report: RunReport,
}

impl RunOutcome {
    /// Suspension as a fraction of wall-clock time (Figure 5).
    pub fn suspension_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.suspended_ns as f64 / self.wall_ns as f64
        }
    }
}

/// Compile and run one workload on one browser profile.
///
/// The workload's classes are mounted on an in-memory Doppio file
/// system under `/classes` and loaded lazily by DoppioJVM's class
/// loader; file-driven workloads get their datasets under `/data`.
pub fn run_workload(id: &str, browser: Browser) -> RunOutcome {
    run_workload_on(id, Engine::new(browser))
}

/// Like [`run_workload`], on a caller-built engine — the ablation
/// benches use this to run under custom profiles (e.g. the §8
/// "browsers with native 64-bit integers" counterfactual).
pub fn run_workload_on(id: &str, engine: Engine) -> RunOutcome {
    run_workload_hooked(id, engine, |_| {})
}

/// [`run_workload_on`] with a hook that runs after the measurement
/// reset and before the JVM is driven — the responsiveness harness
/// uses it to arm its user-input click source.
pub fn run_workload_hooked(
    id: &str,
    engine: Engine,
    before_run: impl FnOnce(&Engine),
) -> RunOutcome {
    let w = workload(id).unwrap_or_else(|| panic!("unknown workload {id}"));
    let classes = compile_to_bytes(w.source)
        .unwrap_or_else(|e| panic!("workload {id} failed to compile: {e}"));

    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
    setup_data(id, &engine, &fs);

    let jvm = Jvm::new(&engine, fs.clone());
    jvm.launch("Main", &[]);
    // Measure from launch: reset counters accumulated during setup.
    engine.metrics().reset_prefix("engine.");
    engine.metrics().reset_prefix("fs.");
    before_run(&engine);
    let result = jvm
        .run_to_completion()
        .unwrap_or_else(|e| panic!("workload {id} deadlocked: {e}"));

    let report = RunReport::collect(format!("{id} on {:?}", engine.browser()), &engine)
        .with_runtime(jvm.runtime());
    RunOutcome {
        id: id.to_string(),
        browser: engine.browser(),
        stdout: result.stdout,
        wall_ns: result.runtime.wall_ns(),
        cpu_ns: result.runtime.cpu_ns(),
        suspended_ns: result.runtime.suspended_ns,
        runtime: result.runtime,
        instructions: result.instructions,
        class_fetches: result.class_fetches,
        uncaught: result.uncaught,
        report,
    }
}

/// Mount workload input data under `/data`.
fn setup_data(id: &str, engine: &Engine, fs: &FileSystem) {
    match id {
        "disasm" => {
            mkdirs(engine, fs, &["/data", "/data/classes"]);
            for (name, bytes) in datasets::synth_class_files(180, 491) {
                let path = format!("/data/classes/{name}");
                fs.write_file(&path, bytes, |_, r| {
                    r.unwrap_or_else(|e| panic!("dataset: {e}"));
                });
            }
            engine.run_until_idle();
        }
        "compilerbench" => {
            mkdirs(engine, fs, &["/data", "/data/src"]);
            for (name, text) in datasets::expression_sources(19, 40, 19) {
                let path = format!("/data/src/{name}");
                fs.write_file(&path, text.into_bytes(), |_, r| {
                    r.unwrap_or_else(|e| panic!("dataset: {e}"));
                });
            }
            engine.run_until_idle();
        }
        _ => {}
    }
}

fn mkdirs(engine: &Engine, fs: &FileSystem, dirs: &[&str]) {
    for d in dirs {
        fs.mkdir(d, |_, _| {});
        engine.run_until_idle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_compiles() {
        for w in all_workloads() {
            compile_to_bytes(w.source)
                .unwrap_or_else(|e| panic!("workload {} does not compile: {e}", w.id));
        }
    }

    #[test]
    fn recursive_is_deterministic_across_profiles() {
        let native = run_workload("recursive", Browser::Native);
        assert!(native.uncaught.is_none(), "{:?}", native.uncaught);
        assert!(native.stdout.starts_with("recursive: "));
        let chrome = run_workload("recursive", Browser::Chrome);
        // Same program, same answer, wildly different cost.
        assert_eq!(native.stdout, chrome.stdout);
        assert!(chrome.wall_ns > native.wall_ns);
    }

    #[test]
    fn nqueens_finds_92_solutions_each_round() {
        let r = run_workload("nqueens", Browser::Native);
        assert_eq!(r.stdout, "nqueens: 1840\n"); // 92 × 20 repetitions
    }

    #[test]
    fn pidigits_produces_pi() {
        let r = run_workload("pidigits", Browser::Native);
        assert!(
            r.stdout.starts_with("pidigits: 3141592653"),
            "got {} / {:?}",
            r.stdout,
            r.uncaught
        );
    }

    #[test]
    fn deltablue_satisfies_all_constraints() {
        let r = run_workload("deltablue", Browser::Native);
        assert_eq!(r.stdout, "deltablue: ok\n", "uncaught: {:?}", r.uncaught);
    }

    #[test]
    fn binarytrees_checksum_is_stable() {
        let a = run_workload("binarytrees", Browser::Native);
        assert!(a.uncaught.is_none());
        assert!(a.stdout.starts_with("binarytrees: "));
    }

    #[test]
    fn disasm_reads_every_class_file() {
        let r = run_workload("disasm", Browser::Native);
        assert!(
            r.stdout.contains("classes=180"),
            "stdout: {} uncaught: {:?}",
            r.stdout,
            r.uncaught
        );
        // The files were genuinely pulled through the fs.
        assert!(r.report.counter("fs.bytes_read") > 100_000);
    }

    #[test]
    fn compilerbench_processes_all_sources() {
        let r = run_workload("compilerbench", Browser::Native);
        assert!(
            r.stdout.contains("files=19"),
            "stdout: {} uncaught: {:?}",
            r.stdout,
            r.uncaught
        );
        assert!(
            r.report.counter("fs.bytes_written") > 100,
            "writes its report back"
        );
    }

    #[test]
    fn caches_warm_up_on_dispatch_heavy_workloads() {
        // DeltaBlue is the dispatch-heavy Figure 4 microbenchmark: after
        // warmup nearly every CP reference and invoke site is cached.
        let r = run_workload("deltablue", Browser::Native);
        assert!(r.uncaught.is_none(), "{:?}", r.uncaught);
        for cache in ["jvm.cp_cache", "jvm.icache"] {
            let hit = r.report.counter(&format!("{cache}.hit"));
            let miss = r.report.counter(&format!("{cache}.miss"));
            assert!(hit + miss > 0, "{cache} never exercised");
            assert!(
                hit * 10 >= (hit + miss) * 9,
                "{cache} hit rate below 90% ({hit} hit / {miss} miss)"
            );
        }
    }

    #[test]
    fn hosted_runs_suspend_but_stay_correct() {
        let r = run_workload("deltablue", Browser::Chrome);
        assert_eq!(r.stdout, "deltablue: ok\n", "uncaught: {:?}", r.uncaught);
        assert!(r.runtime.suspensions > 0);
        assert_eq!(
            r.report.counter("engine.watchdog_kills"),
            0,
            "segmentation kept events finite"
        );
        // Figure 5's bound: suspension stays a small fraction.
        assert!(
            r.suspension_fraction() < 0.1,
            "suspension fraction {:.3}",
            r.suspension_fraction()
        );
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;

    /// Differential check: the MiniJava `disasm` workload parses class
    /// files *inside the JVM*; its structural counts must agree with
    /// this crate's Rust-side parser over the same dataset.
    #[test]
    fn disasm_counts_agree_with_the_rust_parser() {
        let r = run_workload("disasm", Browser::Native);
        let mut classes = 0usize;
        let mut methods = 0usize;
        let mut fields = 0usize;
        let mut pool = 0usize;
        let mut bytes = 0usize;
        for (_, data) in datasets::synth_class_files(180, 491) {
            let cf = doppio_classfile::parse(&data).unwrap();
            classes += 1;
            methods += cf.methods.len();
            fields += cf.fields.len();
            pool += cf.constant_pool.count() as usize - 1;
            bytes += data.len();
        }
        let expect = format!(
            "disasm: classes={classes} fields={fields} methods={methods} pool={pool} bytes={bytes}"
        );
        assert!(
            r.stdout.starts_with(&expect),
            "JVM said {:?}, oracle {:?}",
            r.stdout,
            expect
        );
    }

    /// The compilerbench workload's per-file sums must agree with a
    /// Rust evaluation of the same generated expressions.
    #[test]
    fn compilerbench_totals_agree_with_a_rust_evaluator() {
        fn eval(src: &str, pos: &mut usize) -> i64 {
            // Mirror of the MiniJava parser: expr/term/factor.
            fn ws(s: &[u8], p: &mut usize) {
                while *p < s.len() && s[*p] == b' ' {
                    *p += 1;
                }
            }
            fn expr(s: &[u8], p: &mut usize) -> i64 {
                let mut v = term(s, p);
                ws(s, p);
                while *p < s.len() && (s[*p] == b'+' || s[*p] == b'-') {
                    let op = s[*p];
                    *p += 1;
                    let r = term(s, p);
                    v = if op == b'+' {
                        v.wrapping_add(r)
                    } else {
                        v.wrapping_sub(r)
                    };
                    ws(s, p);
                }
                v
            }
            fn term(s: &[u8], p: &mut usize) -> i64 {
                let mut v = factor(s, p);
                ws(s, p);
                while *p < s.len() && (s[*p] == b'*' || s[*p] == b'/') {
                    let op = s[*p];
                    *p += 1;
                    let r = factor(s, p);
                    v = if op == b'*' {
                        (v as i32).wrapping_mul(r as i32) as i64
                    } else if r != 0 {
                        (v as i32).wrapping_div(r as i32) as i64
                    } else {
                        0
                    };
                    ws(s, p);
                }
                v
            }
            fn factor(s: &[u8], p: &mut usize) -> i64 {
                ws(s, p);
                if s[*p] == b'(' {
                    *p += 1;
                    let v = expr(s, p);
                    ws(s, p);
                    *p += 1; // ')'
                    return v;
                }
                let mut v: i64 = 0;
                while *p < s.len() && s[*p].is_ascii_digit() {
                    v = v * 10 + i64::from(s[*p] - b'0');
                    *p += 1;
                }
                v
            }
            expr(src.as_bytes(), pos)
        }

        let mut total: i32 = 0;
        for (_, text) in datasets::expression_sources(19, 40, 19) {
            for line in text.lines() {
                if line.is_empty() {
                    continue;
                }
                let mut pos = 0;
                total = total.wrapping_add(eval(line, &mut pos) as i32);
            }
        }
        let r = run_workload("compilerbench", Browser::Native);
        assert!(
            r.stdout.contains(&format!("total={total}")),
            "JVM said {:?}, oracle total {total}",
            r.stdout
        );
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;

    /// The whole stack is deterministic: the same workload on the same
    /// profile produces identical output, identical virtual time, and
    /// identical instruction counts, run after run.
    #[test]
    fn runs_are_bit_for_bit_deterministic() {
        let a = run_workload("nqueens", Browser::Chrome);
        let b = run_workload("nqueens", Browser::Chrome);
        assert_eq!(a.stdout, b.stdout);
        assert_eq!(a.wall_ns, b.wall_ns);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.suspended_ns, b.suspended_ns);
        assert_eq!(a.runtime.suspensions, b.runtime.suspensions);
    }
}
