//! The repository benchmark: one entry point that runs a named
//! workload from a seed, checks every output against an oracle that
//! does not depend on the JVM, and prints each metric by name with its
//! unit. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload interp --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the recorded spans under `benchmark/out/`). See
//! `benchmark/README.md` for the metric definitions.

mod interp;
mod oracle;
mod spans;
mod stats;
mod storage;
mod tenants;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use spans::Recorder;

/// The seed the documentation's numbers come from.
pub const DEFAULT_SEED: u64 = 1;
/// A seed never used while tuning the workloads; claims must hold on
/// it too.
pub const HELD_OUT_SEED: u64 = 7;
/// How many times each workload repeats its set-up; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 25;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A metric value and its unit.
#[derive(Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (program runs, pipeline requests, fs ops).
    pub attempted: u64,
    /// Operations that failed an oracle, errored, or diverged from the
    /// determinism reference.
    pub failed: u64,
    /// Human-readable failure descriptions (first few are printed).
    pub failures: Vec<String>,
    /// Digest of the workload's virtual outputs.
    pub digest: String,
    /// Lines printed before the JSON result.
    pub lines: Vec<String>,
    /// End-to-end metrics (printed with `--trace 0`).
    pub e2e: BTreeMap<&'static str, Metric>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub layer: BTreeMap<String, Metric>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.insert(name, Metric { value, unit });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.insert(name.to_string(), Metric { value, unit });
    }

    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }
}

/// Every per-layer metric, by crate, with its unit. Each workload
/// prints all of them; a layer the workload does not exercise reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("minijava.compile_ms", "ms"),
    ("datasets.gen_ms", "ms"),
    ("jvm.run_ms.disasm", "ms"),
    ("jvm.run_ms.compilerbench", "ms"),
    ("jvm.run_ms.recursive", "ms"),
    ("jvm.run_ms.binarytrees", "ms"),
    ("jvm.run_ms.nqueens", "ms"),
    ("jvm.run_ms.deltablue", "ms"),
    ("jvm.run_ms.pidigits", "ms"),
    ("jvm.host_ns_per_instr", "ns"),
    ("jvm.instructions", "count"),
    ("jvm.boot_ms", "ms"),
    ("jvm.class_fetches", "count"),
    ("jvm.cp_cache.hit_rate", "ratio"),
    ("jvm.icache.hit_rate", "ratio"),
    ("jvm.tier.compiled", "count"),
    ("jvm.tier.deopt", "count"),
    ("jvm.tier.super_hit", "count"),
    ("core.slices", "count"),
    ("core.suspensions", "count"),
    ("core.suspended_ms", "ms"),
    ("kernel.processes", "count"),
    ("kernel.pipe_bytes", "bytes"),
    ("kernel.wait_pipe_share", "ratio"),
    ("kernel.teardown_ms", "ms"),
    ("report.collect_ms", "ms"),
    ("jsengine.events", "count"),
    ("jsengine.events.user_input", "count"),
    ("jsengine.watchdog_kills", "count"),
    ("jsengine.wait_sched_share", "ratio"),
    ("jsengine.gen_late_ms", "ms"),
    ("fs.mount_ms", "ms"),
    ("fs.write_ms", "ms"),
    ("fs.read_ms", "ms"),
    ("fs.ops", "count"),
    ("fs.bytes_read", "bytes"),
    ("fs.bytes_written", "bytes"),
    ("fs.retries", "count"),
    ("sockets.deliveries", "count"),
    ("sockets.delivery_tail_us", "us"),
    ("storage.launch_ms", "ms"),
    ("storage.cache.hit_rate", "ratio"),
    ("storage.journal.append", "count"),
    ("storage.replicate.sent", "count"),
    ("storage.replicate.resent", "count"),
    ("storage.client.retry", "count"),
    ("storage.client.reconnect", "count"),
    ("storage.journal.replayed", "count"),
    ("storage.audit_ms", "ms"),
    ("faults.injected", "count"),
    ("faults.injected.replica_crash", "count"),
    ("faults.injected.partition", "count"),
    ("trace.ring_events", "count"),
    ("trace.ring_capacity", "count"),
    ("trace.ring_alloc_ms", "ms"),
    ("trace.dropped", "count"),
    ("trace.causal_ms", "ms"),
    ("trace.named_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("scale.tenant_ms_p50", "ms"),
    ("scale.tenant_ms_max", "ms"),
    ("scale.busy_share", "ratio"),
    ("scale.merge_ms", "ms"),
    ("scale.render_ms", "ms"),
    ("scale.report_bytes", "bytes"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_coverage", "ratio"),
];

/// Close the per-layer set: the recorder's own overhead (kept-span
/// rounds vs bare rounds, `round_s[1]` vs `round_s[0]`), the share of
/// each measured round (calibration excluded) that spans around program
/// calls cover, self
/// time by span name, and a 0 for every layer the workload did not
/// exercise.
pub fn finish_layers(out: &mut Outcome, rec: &Recorder, round_s: &[Vec<f64>; 2]) {
    let (bare, kept) = (stats::median(&round_s[0]), stats::median(&round_s[1]));
    out.layer(
        "bench.trace_overhead_pct",
        stats::ratio(kept - bare, bare) * 100.0,
        "%",
    );
    out.layer(
        "bench.span_coverage",
        rec.coverage(
            "round",
            &["program", "tenant", "scale.run_sharded"],
            "bench.calibrate",
        ),
        "ratio",
    );
    if rec.enabled() {
        for (name, ms) in rec.self_ms() {
            out.line(format!("self {name} {ms:.3} ms"));
        }
    }
    for (name, unit) in LAYERS {
        out.layer
            .entry(name.to_string())
            .or_insert(Metric { value: 0.0, unit });
    }
    for (name, m) in &out.layer {
        let listed = LAYERS.iter().find(|(n, _)| n == name);
        assert_eq!(
            listed.map(|(_, u)| *u),
            Some(m.unit),
            "per-layer metric {name} not listed with unit {}",
            m.unit
        );
    }
}

/// Host seconds the calibration loop takes on the reference machine.
/// Host-clock end-to-end metrics are rescaled to it (see
/// [`machine_factor`]).
pub const REF_CAL_S: f64 = 0.01;

/// How much slower than the reference this machine is right now: the
/// calibration loop's host time ÷ `REF_CAL_S`, timed under a
/// `bench.calibrate` span. The shared VMs this benchmark runs on drift
/// between faster and slower phases lasting minutes; dividing a host
/// duration by the factor measured next to it cancels the drift, which
/// no amount of repetition inside one run can.
pub fn machine_factor(rec: &Recorder, parent: u64) -> f64 {
    rec.span("bench.calibrate", "", parent, |_| calibrate()).1 / REF_CAL_S
}

/// Fixed pure-Rust work, independent of the program under test, in four
/// parts shaped like the kinds of work the workloads do: interpreter
/// dispatch, byte generation and hashing, allocation and copying, and
/// string formatting into an ordered map. A slow phase of the machine
/// slows these kinds by different amounts (the dispatch loop alone
/// under-corrected set-up and the populate phase by up to a third), so
/// the factor times all four.
fn calibrate() {
    dispatch();
    hash_bytes();
    alloc_copy();
    format_keys();
}

/// Indirect dispatch, data-dependent branches, loads and stores over
/// 64 KiB.
fn dispatch() {
    const CODE: [u8; 32] = [
        0, 5, 1, 2, 6, 0, 4, 3, 7, 1, 0, 6, 2, 5, 4, 0, 3, 1, 7, 6, 0, 2, 4, 5, 1, 3, 0, 7, 6, 4,
        2, 1,
    ];
    let mut heap = vec![0u32; 1 << 14];
    let (mut acc, mut pc) = (1u32, 0usize);
    for step in 0..1_500_000usize {
        let op = std::hint::black_box(CODE[pc]);
        pc = (pc + 1) & 31;
        let slot = acc as usize & ((1 << 14) - 1);
        match op {
            0 => acc = acc.wrapping_add(heap[slot]),
            1 => heap[slot] = acc,
            2 => acc ^= acc << 5,
            3 => acc ^= acc >> 7,
            4 => {
                if acc & 1 == 0 {
                    pc = (pc + 3) & 31;
                }
            }
            5 => acc = acc.wrapping_mul(2_654_435_761),
            6 => heap[step & ((1 << 14) - 1)] ^= acc,
            _ => acc = acc.rotate_left(11),
        }
    }
    std::hint::black_box((&heap, acc));
}

/// Four independent SplitMix64 lanes writing letters into 64 KiB.
fn hash_bytes() {
    let mut buf = vec![0u8; 1 << 16];
    let mut lanes = [1u64, 2, 3, 4];
    for i in 0..(1usize << 17) {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = lane.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *lane;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            buf[(i * 4 + k) & 0xffff] = b'a' + ((z ^ (z >> 31)) % 26) as u8;
        }
    }
    std::hint::black_box(&buf);
}

/// Vectors of 0.1–12 KB, filled and kept in batches of 256.
fn alloc_copy() {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut keep: Vec<Vec<u8>> = Vec::new();
    for i in 0..1500 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let n = 100 + (x % 12_000) as usize;
        let mut v = Vec::with_capacity(n);
        for j in 0..n / 8 {
            v.extend_from_slice(&((j as u64) ^ x).to_le_bytes());
        }
        keep.push(v);
        if i % 256 == 255 {
            keep.clear();
        }
    }
    std::hint::black_box(&keep);
}

/// Path-like keys formatted and inserted into an ordered map.
fn format_keys() {
    let mut map = BTreeMap::new();
    for i in 0..5000u32 {
        let key = format!(
            "/java/lang/Class{:05}.class",
            i.wrapping_mul(2_654_435_761) % 50_000
        );
        map.insert(key, i);
    }
    std::hint::black_box(map.keys().map(String::len).sum::<usize>());
}

/// Run the workload's set-up `SETUP_REPS` times, each under a `setup`
/// span; returns the last result and the median host seconds, rescaled
/// to the reference machine.
pub fn repeat_setup<T>(rec: &Recorder, mut setup: impl FnMut(u64) -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let factor = machine_factor(rec, 0);
        let (v, s) = rec.span("setup", "", 0, &mut setup);
        secs.push(s / factor);
        last = Some(v);
    }
    (last.expect("SETUP_REPS > 0"), stats::median(&secs))
}

/// The measured rounds of one run.
pub struct Rounds<P> {
    /// Round 0's result: the virtual reference.
    pub reference: P,
    pub count: usize,
    /// Host seconds of bare rounds (`[0]`) and span-keeping rounds (`[1]`).
    pub secs: [Vec<f64>; 2],
}

/// Run rounds, at least three, until `opts.seconds` have passed. Each
/// call of `round(out, n, span)` runs one full pass of the workload and
/// returns its result with a digest of its virtual outputs; a round
/// whose digest differs from round 0's counts as failed. Traced runs
/// alternate span-keeping rounds with bare ones.
pub fn measure<P>(
    opts: &Opts,
    rec: &Recorder,
    out: &mut Outcome,
    mut round: impl FnMut(&mut Outcome, usize, u64) -> (P, String),
) -> Rounds<P> {
    let mut secs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut reference: Option<(String, P)> = None;
    let t0 = Instant::now();
    let mut n = 0usize;
    while n < 3 || t0.elapsed().as_secs_f64() < opts.seconds {
        let keep = n.is_multiple_of(2);
        rec.set_active(keep);
        let ((p, digest), s) = rec.span("round", &n.to_string(), 0, |rid| round(out, n, rid));
        secs[usize::from(keep)].push(s);
        match &reference {
            None => reference = Some((digest, p)),
            Some((want, _)) if *want != digest => {
                out.fail(format!("round {n}: virtual digest {digest} != {want}"))
            }
            Some(_) => {}
        }
        n += 1;
    }
    rec.set_active(true);
    let (digest, reference) = reference.expect("at least three rounds");
    out.digest = digest;
    Rounds {
        reference,
        count: n,
        secs,
    }
}

/// Create `root` and write `files` under it with their exact names,
/// driving the event loop until done; errors are returned, not
/// panicked.
pub fn write_tree(
    engine: &doppio::jsengine::Engine,
    fs: &doppio::fs::FileSystem,
    root: &str,
    files: &[(String, Vec<u8>)],
) -> Result<(), String> {
    let errors = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut dir = String::new();
    for comp in root.split('/').filter(|c| !c.is_empty()) {
        dir = format!("{dir}/{comp}");
        fs.mkdir(&dir, |_, _| {}); // EEXIST is fine
        engine.run_until_idle();
    }
    for (name, bytes) in files {
        let e = errors.clone();
        let path = format!("{root}/{name}");
        fs.write_file(&path.clone(), bytes.clone(), move |_, r| {
            if let Err(err) = r {
                e.borrow_mut().push(format!("{path}: {err}"));
            }
        });
    }
    engine.run_until_idle();
    let errors = errors.borrow();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: doppio-benchmark --workload interp|tenants|storage_write|storage_read --seed N \
         --seconds S --trace 0|1\n(default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        let i = args.iter().position(|a| a == name)?;
        args.get(i + 1).cloned()
    };
    let workload = flag("--workload").unwrap_or_else(|| usage());
    let seed = flag("--seed").map_or(Ok(DEFAULT_SEED), |s| s.parse());
    let seconds = flag("--seconds").map_or(Ok(10.0), |s| s.parse::<f64>());
    let trace = flag("--trace").unwrap_or_else(|| "0".to_string());
    match (seed, seconds, trace.as_str()) {
        (Ok(seed), Ok(seconds), "0" | "1") if seconds > 0.0 => Opts {
            workload,
            seed,
            seconds,
            trace: trace == "1",
        },
        _ => usage(),
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_metrics<'a>(metrics: impl Iterator<Item = (&'a str, &'a Metric)>) -> String {
    let mut s = String::from("{");
    for (i, (name, m)) in metrics.enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(m.value),
            m.unit
        )
        .expect("write to String");
    }
    s.push('}');
    s
}

/// Pin two glibc allocator settings that otherwise depend on history.
/// Left dynamic, the mmap threshold rises after the first large free,
/// and from then on every 16 MiB JVM heap and 256k-slot trace ring is
/// carved from an arena and zeroed by hand instead of mapped fresh; and
/// a shard thread that starts before its predecessor's arena is free
/// gets a new arena. Either way peak RSS would depend on allocation
/// history and thread interleaving, not on the program. One arena per
/// thread that can be live at once (main plus one shard per core).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    let arenas = i32::try_from(doppio::scale::default_threads() + 1).unwrap_or(i32::MAX);
    // SAFETY: mallopt only changes allocator tuning. It runs once, at
    // the top of main, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        mallopt(M_ARENA_MAX, arenas);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() {
    pin_allocator();
    // The only knob the library reads from the environment. A run under
    // a forced tier setting would not measure the default configuration.
    if std::env::var_os("DOPPIO_TIER_UP").is_some() {
        eprintln!("refusing to run: DOPPIO_TIER_UP is set; the benchmark measures the default");
        std::process::exit(2);
    }
    let opts = parse_opts();
    let rec = spans::init(opts.trace);
    let started = Instant::now();
    let mut out = match opts.workload.as_str() {
        "interp" => interp::run(&opts, rec),
        "tenants" => tenants::run(&opts, rec),
        "storage_write" => storage::run(&opts, rec, storage::Phase::Write),
        "storage_read" => storage::run(&opts, rec, storage::Phase::Read),
        _ => usage(),
    };
    out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    // An end-to-end metric that reads 0 or not-a-number was not measured.
    let unmeasured: Vec<&str> = out
        .e2e
        .iter()
        .filter(|(_, m)| !(m.value.is_finite() && m.value > 0.0))
        .map(|(name, _)| *name)
        .collect();
    for name in unmeasured {
        out.fail(format!("end-to-end metric {name} was not measured"));
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;

    println!(
        "workload {} seed {} trace {} host {:.1}s",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        started.elapsed().as_secs_f64()
    );
    for l in &out.lines {
        println!("{l}");
    }
    println!("digest {}", out.digest);
    println!(
        "failed_frac {failed_frac} ratio ({} of {})",
        out.failed, out.attempted
    );
    for f in &out.failures {
        println!("FAILED {f}");
    }
    if opts.trace {
        let path = rec.write_out(&opts.workload, opts.seed);
        println!("spans {} written to {path}", rec.len());
        for (name, m) in &out.layer {
            println!("layer {name} {} {}", m.value, m.unit);
        }
    } else {
        for (name, m) in &out.e2e {
            println!("e2e {name} {} {}", m.value, m.unit);
        }
    }

    let correct = out.failed == 0 && out.attempted > 0;
    let metrics = if opts.trace {
        json_metrics(out.layer.iter().map(|(k, v)| (k.as_str(), v)))
    } else {
        json_metrics(out.e2e.iter().map(|(k, v)| (*k, v)))
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
        out.failed
    );
}
