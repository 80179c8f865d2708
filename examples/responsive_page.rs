//! Automatic event segmentation (§4.1), demonstrated from the page's
//! point of view: user input keeps being serviced while a heavy JVM
//! computation runs — and the same computation as a monolithic event
//! gets killed by the watchdog.
//!
//! Run with: `cargo run --example responsive_page`
//!
//! Flags (combine freely; see `docs/observability.md`):
//!
//! * `--trace out.json` — record the segmented run as a Chrome
//!   `trace_event` JSON file; open it in Perfetto (ui.perfetto.dev) or
//!   `chrome://tracing` to see event spans, per-thread slices, and
//!   suspend-timer adjustments on the virtual clock.
//! * `--profile out.folded` — attach the virtual-clock sampling
//!   profiler and write folded stacks (flamegraph.pl / speedscope
//!   input).
//! * `--report out.md` — emit the end-of-run `RunReport` as markdown,
//!   plus the same data as JSON next to it (`out.json`... the path
//!   with its extension swapped).

use std::cell::RefCell;
use std::rc::Rc;

use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, Cost, Engine};
use doppio::jvm::{fsutil, Jvm};
use doppio::minijava::compile_to_bytes;
use doppio::report::RunReport;
use doppio::trace::{chrome, Profiler, RingSink};

const CRUNCHER: &str = r#"
    class Main {
        static int work(int x) { return x * 31 + 17; }
        static void main(String[] args) {
            int acc = 0;
            for (int i = 0; i < 1500000; i++) { acc = work(acc); }
            System.out.println("crunched: " + acc);
        }
    }
"#;

/// One run's results: what `main` prints, and the state each flag
/// exports.
pub struct Page {
    /// The lines `main` prints before writing any artifact.
    pub log: String,
    /// The segmented run's engine (its profiler, when observing).
    pub engine: Engine,
    /// The trace ring, when tracing.
    pub sink: Option<Rc<RingSink>>,
    /// The end-of-run report (with the trace section when tracing).
    pub report: RunReport,
}

/// Run the crunch monolithically, then segmented while clicking. With
/// `trace`, a ring records the segmented run; with `observe`,
/// histograms and the sampling profiler are on.
pub fn run(trace: bool, observe: bool) -> Page {
    let mut log = String::new();

    // --- Without Doppio: one monolithic event. ---
    let plain = Engine::new(Browser::Chrome);
    plain.send_message(|e| {
        // ~7 virtual seconds of computation in a single event.
        e.charge_n(Cost::Dispatch, 70_000_000);
    });
    plain.run_until_idle();
    log += &format!(
        "monolithic event: watchdog kills = {} (the page froze and was killed)\n",
        plain.metrics().get("engine.watchdog_kills")
    );

    // --- With Doppio: the same scale of work, segmented. ---
    let sink = trace.then(|| Rc::new(RingSink::default()));
    let mut builder = Engine::builder(Browser::Chrome);
    if let Some(sink) = &sink {
        builder = builder.trace_sink(sink.clone());
    }
    if observe {
        // Histograms feed the report's percentile rows; the profiler
        // samples every 1 ms of virtual time at suspend boundaries.
        builder = builder.histograms(true).profiler(Profiler::new(1_000_000));
    }
    let engine = builder.build();
    if let Some(sink) = &sink {
        // Mirror ring evictions into the registry so the report (and
        // the Chrome export's metadata) can flag a truncated trace.
        sink.set_drop_counter(engine.metrics().counter("trace.dropped"));
    }
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    let classes = compile_to_bytes(CRUNCHER).expect("compiles");
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Main", &[]);
    jvm.runtime().start();

    // While the JVM crunches, the user keeps clicking. Each click is
    // an input event; measure how quickly each is serviced.
    let latencies: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let mut clicks = 0;
    while !jvm.is_finished() {
        // Let up to ten events run, then click.
        let mut events = 0;
        engine.run_until(|| {
            events += 1;
            events > 10
        });
        if clicks < 20 && !jvm.is_finished() {
            clicks += 1;
            let t0 = engine.now_ns();
            let l = latencies.clone();
            engine.inject_user_input(move |e| {
                l.borrow_mut().push(e.now_ns() - t0);
            });
        }
    }
    engine.run_until_idle();

    let kills = engine.metrics().get("engine.watchdog_kills");
    let lat = latencies.borrow();
    let max_ms = lat.iter().max().copied().unwrap_or(0) as f64 / 1e6;
    let avg_ms = if lat.is_empty() {
        0.0
    } else {
        lat.iter().sum::<u64>() as f64 / lat.len() as f64 / 1e6
    };
    log += &format!("segmented JVM run: watchdog kills = {kills}\n");
    log += &format!(
        "serviced {} user clicks during the computation: avg {:.2} ms, worst {:.2} ms\n",
        lat.len(),
        avg_ms,
        max_ms
    );
    log += &format!(
        "longest single event: {:.1} ms (well under the ~5000 ms watchdog)\n",
        engine.metrics().get("engine.max_event_ns") as f64 / 1e6
    );
    log += &format!("stdout: {}\n", jvm.with_state(|s| s.stdout_text()).trim());

    assert_eq!(kills, 0);
    assert!(plain.metrics().get("engine.watchdog_kills") > 0);
    assert!(max_ms < 100.0, "clicks must be serviced promptly");

    let mut report = RunReport::collect("responsive_page", &engine).with_runtime(jvm.runtime());
    if let Some(sink) = &sink {
        report = report.with_trace(sink);
    }
    Page {
        log,
        engine,
        sink,
        report,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{name} needs a file path"))
                .clone()
        })
    };
    let trace_path = flag("--trace");
    let profile_path = flag("--profile");
    let report_path = flag("--report");

    let page = run(
        trace_path.is_some(),
        profile_path.is_some() || report_path.is_some(),
    );
    print!("{}", page.log);

    if let (Some(path), Some(sink)) = (&trace_path, &page.sink) {
        let doc = chrome::export_sink(sink);
        std::fs::write(path, &doc).expect("write trace file");
        println!(
            "wrote {} trace events to {path} (open in ui.perfetto.dev, {} dropped)",
            sink.len(),
            sink.dropped()
        );
    }

    if let Some(path) = &profile_path {
        let profiler = page.engine.profiler().expect("profiler attached");
        std::fs::write(path, profiler.folded()).expect("write folded stacks");
        println!(
            "wrote {} profile samples to {path} (folded stacks; feed to flamegraph.pl)",
            profiler.samples()
        );
    }

    if let Some(path) = &report_path {
        let report = &page.report;
        std::fs::write(path, report.to_markdown()).expect("write report markdown");
        let json_path = std::path::Path::new(path).with_extension("json");
        std::fs::write(&json_path, report.to_json_string()).expect("write report JSON");
        println!("wrote run report to {path} and {}", json_path.display());
        println!("\n{}", report.summary());
    }
}
