//! A Browsix-style shell pipeline on one [`Kernel`]: three JVM guest
//! processes — `disasm | grep class | wc` — connected by real bounded
//! pipes, sharing a per-group file-system namespace, all interleaved
//! deterministically on one virtual-clock event loop.
//!
//! The first stage structurally disassembles the pipeline's *own*
//! class files (mounted into the group namespace), the second filters
//! the listing, the third counts what survived; the host reads the
//! final pipe. Same seed → byte-identical artifacts
//! (`tests/determinism.rs` checks seeds 1–3 against goldens).
//!
//! Run with: `cargo run --example shell_pipeline -- [seed] [--out DIR]`
//!
//! * `seed` — RNG seed (default 1).
//! * `--out DIR` — also write `transcript.txt`, `report.md`,
//!   `report.json`, and `trace.json` (Chrome `trace_event` format)
//!   under `DIR`.

use std::rc::Rc;

use doppio::fs::FsNamespaces;
use doppio::jsengine::Browser;
use doppio::jvm::{fsutil, spawn_jvm};
use doppio::minijava::compile_to_bytes;
use doppio::report::RunReport;
use doppio::trace::{chrome, RingSink};
use doppio::{BuildOnKernel, EngineBuilder, Kernel, SpawnOptions};

/// Stage 1: the `javap`-analog. Lists the group namespace's
/// `/data/classes`, reads each class file, and prints one line per
/// class: name, constant-pool size, byte count.
const DISASM: &str = r#"
    class Disasm {
        static int u2(byte[] b, int off) {
            return ((b[off] & 255) << 8) | (b[off + 1] & 255);
        }
        static int u4(byte[] b, int off) {
            return (u2(b, off) << 16) | u2(b, off + 2);
        }
        static void main(String[] args) {
            String[] files = FileSystem.listDir("/data/classes");
            for (int f = 0; f < files.length; f++) {
                byte[] b = FileSystem.readFileBytes("/data/classes/" + files[f]);
                if (u4(b, 0) != 0xCAFEBABE) {
                    System.out.println("bad magic in " + files[f]);
                } else {
                    System.out.println("class " + files[f]
                        + " pool=" + u2(b, 8) + " bytes=" + b.length);
                }
            }
        }
    }
"#;

/// Stage 2: `grep PATTERN` — forwards stdin lines containing argv[0].
const GREP: &str = r#"
    class Grep {
        static void main(String[] args) {
            String pat = args[0];
            String line = Console.readLine();
            while (line != null) {
                if (line.indexOf(pat) >= 0) {
                    System.out.println(line);
                }
                line = Console.readLine();
            }
        }
    }
"#;

/// Stage 3: `wc` — counts lines and characters on stdin.
const WC: &str = r#"
    class Wc {
        static void main(String[] args) {
            int lines = 0;
            int chars = 0;
            String line = Console.readLine();
            while (line != null) {
                lines = lines + 1;
                chars = chars + line.length() + 1;
                line = Console.readLine();
            }
            System.out.println(lines + " lines, " + chars + " chars");
        }
    }
"#;

/// One run's artifacts: everything `--out` writes.
pub struct Pipeline {
    /// Final-pipe output plus the process table.
    pub transcript: String,
    /// The run report, with its causal critical-path section.
    pub report: RunReport,
    /// The Chrome `trace_event` export.
    pub trace_json: String,
}

/// Run `disasm | grep class | wc` on a kernel seeded with `seed`.
pub fn run(seed: u64) -> Pipeline {
    // One kernel, one engine: the builder's configuration (seed,
    // histograms, trace sink) becomes the kernel's event loop.
    let kernel = Kernel::new();
    let sink = Rc::new(RingSink::default());
    let engine = EngineBuilder::new(Browser::Chrome)
        .rng_seed(seed)
        .histograms(true)
        .trace_sink(sink.clone())
        .build_on(&kernel);

    // The "pipeline" process group shares one mountable fs namespace:
    // every stage's class files live at /classes, and the same files
    // double as the disassembler's input data at /data/classes.
    let ns = FsNamespaces::new(&engine);
    let fs = ns.get_or_create("pipeline");
    let mut all = Vec::new();
    for src in [DISASM, GREP, WC] {
        all.extend(compile_to_bytes(src).expect("stage compiles"));
    }
    fsutil::mount_class_files(&engine, &fs, "/classes", &all);
    fsutil::mount_class_files(&engine, &fs, "/data/classes", &all);

    // disasm | grep class | wc — three JVM processes over two pipes,
    // plus a final pipe the host reads like a captured stdout.
    let (p1, p2, p3) = (kernel.pipe(), kernel.pipe(), kernel.pipe());
    let (disasm, _) = spawn_jvm(
        &kernel,
        SpawnOptions::new("disasm").group("pipeline").stdout(p1),
        fs.clone(),
        "Disasm",
    );
    let (grep, _) = spawn_jvm(
        &kernel,
        SpawnOptions::new("grep")
            .group("pipeline")
            .arg("class")
            .stdin(p1)
            .stdout(p2),
        fs.clone(),
        "Grep",
    );
    let (wc, _) = spawn_jvm(
        &kernel,
        SpawnOptions::new("wc")
            .group("pipeline")
            .stdin(p2)
            .stdout(p3),
        fs.clone(),
        "Wc",
    );

    // `wait` reaps the last stage (the other stages' exits cascade
    // through pipe EOFs first); `run` drains whatever remains.
    let status = wc.wait().expect("pipeline must not deadlock");
    kernel.run().expect("drain");
    assert!(status.success() && disasm.status().unwrap().success());
    assert!(grep.status().unwrap().success());

    let output = String::from_utf8(kernel.host_read(p3).expect("live pipe")).expect("utf8");
    // The pipeline really flowed: every stage's class line survived
    // grep, and wc summed them.
    assert!(output.contains("lines,"), "wc printed a count: {output:?}");

    // The transcript: final-pipe output plus the process table.
    let mut transcript = String::new();
    transcript.push_str(&format!(
        "seed: {seed}\n$ disasm | grep class | wc\n{output}"
    ));
    for p in kernel.process_table() {
        transcript.push_str(&format!(
            "[pid {}] {} {:?} {} slices={} in={}B out={}B\n",
            p.pid, p.name, p.argv, p.status, p.slices, p.pipe_in, p.pipe_out
        ));
    }
    transcript.push_str(&format!("virtual time: {} ns\n", engine.now_ns()));

    let report = RunReport::collect("shell_pipeline", &engine)
        .with_runtime(&kernel.runtime())
        .with_kernel(&kernel)
        .with_trace(&sink)
        .with_causal(&sink);

    // Causal tracing followed the pipeline: each spawn rooted a
    // `proc:<name>` request, every request's wall time decomposed into
    // named categories, and the walk reached a terminal span.
    let causal = report.causal.as_ref().expect("causal section");
    assert_eq!(causal.truncated, 0, "default ring must not truncate");
    for name in ["proc:disasm", "proc:grep", "proc:wc"] {
        let class = causal
            .classes
            .get(name)
            .unwrap_or_else(|| panic!("traced request class {name}"));
        assert_eq!(class.requests, 1);
        assert!(
            class.named_ns() * 100 >= class.wall_ns * 95,
            "{name}: {} of {} ns attributed",
            class.named_ns(),
            class.wall_ns
        );
    }

    Pipeline {
        transcript,
        report,
        trace_json: chrome::export_sink(&sink),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .map_or(1, |a| a.parse().expect("seed must be a number"));
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args[i + 1].clone());

    let run = run(seed);
    print!("{}", run.transcript);
    println!("---\n{}", run.report.summary());

    if let Some(dir) = out_dir {
        let causal = run.report.causal.as_ref().expect("causal section");
        std::fs::create_dir_all(&dir).expect("create out dir");
        let path = |name: &str| format!("{dir}/{name}");
        std::fs::write(path("transcript.txt"), &run.transcript).expect("write transcript");
        std::fs::write(path("report.md"), run.report.to_markdown()).expect("write report.md");
        std::fs::write(path("report.json"), run.report.to_json_string())
            .expect("write report.json");
        std::fs::write(path("trace.json"), &run.trace_json).expect("write trace.json");
        std::fs::write(path("critical_paths.json"), causal.to_json_string())
            .expect("write critical_paths.json");
        println!(
            "wrote transcript.txt, report.md, report.json, trace.json, critical_paths.json to {dir}"
        );
    }
}
