//! `interp`: the seven paper programs (Figure 3's five macros, Figure
//! 4's deltablue and pidigits) run one after another, closed loop with
//! one client, each on a fresh simulated-Chrome engine with seeded
//! inputs and a click probe every 16 virtual ms.
//!
//! The JVM interpreter does nearly all of the host work here; fs,
//! sockets, storage, tracing and the shard pool do none.

use std::cell::RefCell;
use std::rc::Rc;

use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, Engine};
use doppio::jvm::{fsutil, Jvm};
use doppio::minijava::compile_to_bytes;
use doppio::prng::SplitMix64;
use doppio::workloads::{self, datasets};
use doppio::EngineBuilder;

use crate::spans::Recorder;
use crate::stats::{geomean, median, ratio, Digest, Latency};
use crate::{measure, oracle, repeat_setup, write_tree, Opts, Outcome};

pub const PROGRAMS: [&str; 7] = [
    "disasm",
    "compilerbench",
    "recursive",
    "binarytrees",
    "nqueens",
    "deltablue",
    "pidigits",
];

/// Bytes of class files `disasm` reads (the paper's javap read 491
/// files). The seeded set is the shortest prefix of a generated stream
/// that reaches this size, so every seed asks for the same amount of
/// work; class sizes vary by an order of magnitude.
const DISASM_BYTES: usize = 200_000;
/// Source files and lines per file `compilerbench` compiles.
const COMPILER_FILES: usize = 19;
const COMPILER_LINES: usize = 40;
/// Virtual milliseconds between synthetic clicks (Figure 5's probe).
pub const CLICK_INTERVAL_MS: f64 = 16.0;

/// Seeded inputs and compiled programs.
struct Inputs {
    classes: Vec<Vec<(String, Vec<u8>)>>,
    disasm_files: Vec<(String, Vec<u8>)>,
    sources: Vec<(String, Vec<u8>)>,
    engine_seeds: Vec<u64>,
}

fn setup(seed: u64, rec: &Recorder, parent: u64) -> Inputs {
    let (classes, _) = rec.span("minijava.compile", "", parent, |_| {
        PROGRAMS
            .iter()
            .map(|id| {
                let w = workloads::workload(id).expect("bundled workload");
                compile_to_bytes(w.source).expect("bundled workload compiles")
            })
            .collect::<Vec<_>>()
    });
    let (inputs, _) = rec.span("datasets.gen", "", parent, |_| {
        let mut rng = SplitMix64::new(seed);
        let disasm_seed = rng.split().next_u64();
        let compiler_seed = rng.split().next_u64();
        let engine_seeds = PROGRAMS.iter().map(|_| rng.split().next_u64()).collect();
        Inputs {
            classes: Vec::new(),
            disasm_files: class_prefix(disasm_seed, DISASM_BYTES),
            sources: datasets::expression_sources(COMPILER_FILES, COMPILER_LINES, compiler_seed)
                .into_iter()
                .map(|(n, t)| (n, t.into_bytes()))
                .collect(),
            engine_seeds,
        }
    });
    Inputs { classes, ..inputs }
}

/// The shortest prefix of the seeded class-file stream holding at least
/// `bytes` bytes (the generator draws each class from one stream, so a
/// prefix of a longer set is the set of that length). The first draw of
/// 64 classes (about three times `DISASM_BYTES` on average) covers every
/// seed tried, so set-up generates the same number of classes whatever
/// the seed.
fn class_prefix(seed: u64, bytes: usize) -> Vec<(String, Vec<u8>)> {
    let mut count = 64;
    loop {
        let mut files = datasets::synth_class_files(count, seed);
        let mut total = 0;
        if let Some(i) = files.iter().position(|(_, b)| {
            total += b.len();
            total >= bytes
        }) {
            files.truncate(i + 1);
            return files;
        }
        count *= 2;
    }
}

/// One program run's virtual outputs plus its host time inside
/// `Jvm::run_to_completion`.
#[derive(Default)]
struct ProgramRun {
    stdout: String,
    error: Option<String>,
    wall_ns: u64,
    instructions: u64,
    class_fetches: u64,
    slices: u64,
    suspensions: u64,
    suspended_ns: u64,
    clicks: Vec<u64>,
    counters: Vec<(String, u64)>,
    run_s: f64,
    /// The machine factor measured just before the run.
    factor: f64,
}

impl ProgramRun {
    fn digest(&self, d: &mut Digest) {
        d.add(self.stdout.as_bytes());
        d.add(self.error.as_deref().unwrap_or("").as_bytes());
        d.add_u64s(&[
            self.wall_ns,
            self.instructions,
            self.suspensions,
            self.slices,
        ]);
        d.add_u64s(&self.clicks);
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Arm the click probe, an open-loop user: a click is due every
/// `CLICK_INTERVAL_MS` of virtual time, whatever the page is doing, and
/// each click's latency runs from its due instant to its handler
/// (Figure 5's quantity). When a long event delays the probe's timer,
/// the clicks that fell due meanwhile are all injected on arrival, so a
/// blocked page is charged for every click it missed. The first click
/// lands at a seeded phase within the interval, so the probe does not
/// alias with a program's periodic slices. No click falls due after
/// `probe.stop_at(..)`.
pub struct ClickProbe {
    lat: Rc<RefCell<Vec<u64>>>,
    stop_ns: Rc<RefCell<u64>>,
}

impl ClickProbe {
    pub fn arm(engine: &Engine, phase_seed: u64) -> ClickProbe {
        let interval_ns = (CLICK_INTERVAL_MS * 1e6) as u64;
        let probe = ClickProbe {
            lat: Rc::new(RefCell::new(Vec::new())),
            stop_ns: Rc::new(RefCell::new(u64::MAX)),
        };
        let due = engine.now_ns() + interval_ns + phase_seed % interval_ns;
        click_at(engine, due, probe.lat.clone(), probe.stop_ns.clone());
        probe
    }

    /// Let no further click fall due after virtual time `ns`.
    pub fn stop_at(&self, ns: u64) {
        *self.stop_ns.borrow_mut() = ns;
    }

    /// Latencies (ns) of the clicks handled so far, in due order.
    pub fn latencies(&self) -> Vec<u64> {
        self.lat.borrow().clone()
    }
}

fn click_at(engine: &Engine, due: u64, lat: Rc<RefCell<Vec<u64>>>, stop_ns: Rc<RefCell<u64>>) {
    let interval_ns = (CLICK_INTERVAL_MS * 1e6) as u64;
    let delay_ms = due.saturating_sub(engine.now_ns()) as f64 / 1e6;
    engine.set_timeout(delay_ms, move |e| {
        let stop = *stop_ns.borrow();
        let mut due = due;
        while due <= e.now_ns() && due <= stop {
            let (l, d) = (lat.clone(), due);
            e.inject_user_input(move |e| l.borrow_mut().push(e.now_ns() - d));
            due += interval_ns;
        }
        if due <= stop {
            click_at(e, due, lat, stop_ns);
        }
    });
}

fn run_program(idx: usize, inputs: &Inputs, rec: &Recorder, parent: u64) -> ProgramRun {
    let id = PROGRAMS[idx];
    let (engine, _) = rec.span("jsengine.build", id, parent, |_| {
        EngineBuilder::new(Browser::Chrome)
            .rng_seed(inputs.engine_seeds[idx])
            .build()
    });
    let ((fs, data), _) = rec.span("fs.mount", id, parent, |_| {
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_class_files(&engine, &fs, "/classes", &inputs.classes[idx]);
        let data = match id {
            "disasm" => write_tree(&engine, &fs, "/data/classes", &inputs.disasm_files),
            "compilerbench" => write_tree(&engine, &fs, "/data/src", &inputs.sources),
            _ => Ok(()),
        };
        (fs, data)
    });
    let (jvm, _) = rec.span("jvm.boot", id, parent, |_| {
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Main", &[]);
        jvm
    });
    let probe = ClickProbe::arm(&engine, inputs.engine_seeds[idx]);
    let factor = crate::machine_factor(rec, parent);
    let (result, run_s) = rec.span("jvm.run", id, parent, |_| jvm.run_to_completion());
    // Clicks that fell due before the program ended are still served.
    probe.stop_at(engine.now_ns());
    rec.span("jsengine.drain", id, parent, |_| engine.run_until_idle());
    let result = data
        .map_err(|e| format!("inputs: {e}"))
        .and_then(|()| result.map_err(|e| format!("runtime error: {e}")));
    let (counters, _) = rec.span("registry.read", id, parent, |_| {
        engine.metrics().with_prefix("")
    });
    let clicks = probe.latencies();
    match result {
        Ok(r) => ProgramRun {
            stdout: r.stdout,
            error: r.uncaught,
            wall_ns: r.runtime.wall_ns(),
            instructions: r.instructions,
            class_fetches: r.class_fetches,
            slices: r.runtime.slices,
            suspensions: r.runtime.suspensions,
            suspended_ns: r.runtime.suspended_ns,
            clicks,
            counters,
            run_s,
            factor,
        },
        Err(e) => ProgramRun {
            error: Some(e),
            clicks,
            counters,
            run_s,
            factor,
            ..ProgramRun::default()
        },
    }
}

/// Check one program's stdout against its oracle.
fn check(id: &str, run: &ProgramRun, want: &str) -> Result<(), String> {
    if let Some(e) = &run.error {
        return Err(format!("{id}: {e}"));
    }
    if run.stdout == want {
        Ok(())
    } else {
        Err(format!("{id}: printed {:?}, oracle {:?}", run.stdout, want))
    }
}

pub fn run(opts: &Opts, rec: &'static Recorder) -> Outcome {
    let mut out = Outcome::default();

    let (inputs, setup_s) = repeat_setup(rec, |id| setup(opts.seed, rec, id));
    let expected: Vec<String> = {
        let disasm = oracle::disasm(&inputs.disasm_files);
        let pi = oracle::pidigits();
        let mut fail = |what: String| {
            out.fail(what);
            String::from("<no oracle>")
        };
        vec![
            disasm.unwrap_or_else(&mut fail),
            oracle::compilerbench(&inputs.sources),
            oracle::recursive(),
            oracle::binarytrees(),
            "nqueens: 1840\n".to_string(),
            "deltablue: ok\n".to_string(),
            pi.unwrap_or_else(&mut fail),
        ]
    };

    // Every program once per round, on fresh engines.
    // Host seconds inside `run_to_completion`, raw and rescaled to the
    // reference machine.
    let mut host: Vec<Vec<f64>> = vec![Vec::new(); PROGRAMS.len()];
    let mut host_ref: Vec<Vec<f64>> = vec![Vec::new(); PROGRAMS.len()];
    let rounds = measure(opts, rec, &mut out, |out, n, rid| {
        let runs: Vec<ProgramRun> = (0..PROGRAMS.len())
            .map(|i| {
                rec.span("program", PROGRAMS[i], rid, |pid| {
                    run_program(i, &inputs, rec, pid)
                })
                .0
            })
            .collect();
        let mut d = Digest::new();
        for (i, r) in runs.iter().enumerate() {
            out.attempted += 1;
            host[i].push(r.run_s);
            host_ref[i].push(r.run_s / r.factor);
            r.digest(&mut d);
            if let Err(e) = check(PROGRAMS[i], r, &expected[i]) {
                out.fail(format!("round {n}: {e}"));
            }
        }
        (runs, d.hex())
    });
    let (runs, round) = (&rounds.reference, rounds.count);

    // End-to-end metrics.
    let rate = |host: &[Vec<f64>]| -> Vec<f64> {
        runs.iter()
            .zip(host)
            .map(|(r, h)| r.instructions as f64 / median(h) / 1e6)
            .collect()
    };
    let (mips, mips_ref) = (rate(&host), rate(&host_ref));
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    let clicks: Vec<u64> = runs.iter().flat_map(|r| r.clicks.clone()).collect();
    let click = Latency::of(&clicks);
    let guest_mips = geomean(&mips_ref);
    out.e2e("setup_s", setup_s, "s");
    out.e2e("host_ops_per_s", guest_mips * 1e6, "1/s");
    out.e2e("virtual_ms_geomean", geomean(&walls), "ms");
    out.e2e("latency_p50_ms", click.p50_ms(), "ms");
    out.e2e("latency_tail_ms", click.tail_ms(), "ms");
    out.line(format!(
        "guest_mips {guest_mips} Minstr/s at reference speed ({} as measured; geomean of {} programs, {round} rounds)",
        geomean(&mips),
        PROGRAMS.len()
    ));
    out.line(format!(
        "virtual_ms_geomean {} ms (virtual, n={})",
        geomean(&walls),
        walls.len()
    ));
    out.lines.extend(click.lines("click", "ms (virtual)"));
    for (i, r) in runs.iter().enumerate() {
        out.line(format!(
            "program {:<13} virtual {:>9.3} ms  instr {:>10}  host median {:>8.2} ms ({} runs)  {:.2} Minstr/s  clicks n={} p50 {:.3} ms max {:.3} ms",
            PROGRAMS[i],
            r.wall_ns as f64 / 1e6,
            r.instructions,
            median(&host[i]) * 1e3,
            host[i].len(),
            mips[i],
            r.clicks.len(),
            Latency::of(&r.clicks).p50_ms(),
            r.clicks.iter().max().copied().unwrap_or(0) as f64 / 1e6,
        ));
    }

    // Per-layer metrics (host values from kept spans).
    let total = |f: &dyn Fn(&ProgramRun) -> u64| runs.iter().map(f).sum::<u64>();
    let sum_counter = |name: &str| total(&|r: &ProgramRun| r.counter(name));
    let rate = |hit: &str, miss: &str| {
        let (h, m) = (sum_counter(hit) as f64, sum_counter(miss) as f64);
        ratio(h, h + m)
    };
    let instructions = total(&|r| r.instructions);
    out.layer(
        "minijava.compile_ms",
        median(&rec.durations_ms("minijava.compile", None)),
        "ms",
    );
    out.layer(
        "datasets.gen_ms",
        median(&rec.durations_ms("datasets.gen", None)),
        "ms",
    );
    let mut run_ms_total = 0.0;
    for p in PROGRAMS {
        let ms = median(&rec.durations_ms("jvm.run", Some(p)));
        run_ms_total += ms;
        out.layer(&format!("jvm.run_ms.{p}"), ms, "ms");
    }
    out.layer(
        "jvm.host_ns_per_instr",
        run_ms_total * 1e6 / instructions.max(1) as f64,
        "ns",
    );
    out.layer("jvm.instructions", instructions as f64, "count");
    out.layer(
        "jvm.boot_ms",
        median(&rec.durations_ms("jvm.boot", None)),
        "ms",
    );
    out.layer(
        "jvm.class_fetches",
        total(&|r| r.class_fetches) as f64,
        "count",
    );
    out.layer(
        "jvm.cp_cache.hit_rate",
        rate("jvm.cp_cache.hit", "jvm.cp_cache.miss"),
        "ratio",
    );
    out.layer(
        "jvm.icache.hit_rate",
        rate("jvm.icache.hit", "jvm.icache.miss"),
        "ratio",
    );
    for c in ["compiled", "deopt", "super_hit"] {
        let name = format!("jvm.tier.{c}");
        out.layer(&name, sum_counter(&name) as f64, "count");
    }
    out.layer("core.slices", total(&|r| r.slices) as f64, "count");
    out.layer(
        "core.suspensions",
        total(&|r| r.suspensions) as f64,
        "count",
    );
    out.layer(
        "core.suspended_ms",
        total(&|r| r.suspended_ns) as f64 / 1e6,
        "ms",
    );
    out.layer(
        "jsengine.events",
        sum_counter("engine.events_run") as f64,
        "count",
    );
    out.layer("jsengine.events.user_input", clicks.len() as f64, "count");
    out.layer(
        "jsengine.watchdog_kills",
        sum_counter("engine.watchdog_kills") as f64,
        "count",
    );
    out.layer(
        "fs.mount_ms",
        median(&rec.durations_ms("fs.mount", None)),
        "ms",
    );
    out.layer("fs.ops", sum_counter("fs.ops") as f64, "count");
    out.layer(
        "fs.bytes_read",
        sum_counter("fs.bytes_read") as f64,
        "bytes",
    );
    out.layer(
        "fs.bytes_written",
        sum_counter("fs.bytes_written") as f64,
        "bytes",
    );
    out.layer("fs.retries", sum_counter("fs.retries") as f64, "count");
    crate::finish_layers(&mut out, rec, &rounds.secs);
    out
}
