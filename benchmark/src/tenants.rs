//! `tenants`: seeded tenants spread over one shard thread per core and
//! merged into one `ScaleReport`. Each tenant is a Browsix-style
//! `Kernel` serving an open-loop stream of short `disasm | grep | wc`
//! JVM pipelines over its own seeded class files, with histograms,
//! causal tracing (a ring sink plus `RunReport::with_causal`, as
//! tenant_storm ships it) and the 16 ms click probe on.
//!
//! It uses the JVM the opposite way from `interp`: many short cold
//! processes instead of a few hot loops.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, Engine};
use doppio::jvm::{fsutil, spawn_jvm};
use doppio::minijava::compile_to_bytes;
use doppio::prng::SplitMix64;
use doppio::report::RunReport;
use doppio::scale::{self, ScaleReport, TenantRun, TenantSpec};
use doppio::trace::RingSink;
use doppio::workloads::datasets;
use doppio::{BuildOnKernel, EngineBuilder, Kernel, Pid, SpawnOptions};

use crate::interp::ClickProbe;
use crate::spans::Recorder;
use crate::stats::{geomean, median, ratio, Digest, Latency};
use crate::{measure, oracle, repeat_setup, write_tree, Opts, Outcome};

/// Tenants per pass.
const TENANTS: usize = 16;
/// Pipeline requests each tenant serves.
const REQUESTS: usize = 12;
/// Class files each tenant owns (the disassembler's input).
const FILES: usize = 10;
/// Virtual ms between pipeline arrivals, kept above a pipeline's
/// service time so the open loop runs below capacity.
const ARRIVAL_MS: f64 = 20.0;
/// Trace-ring slots reserved per tenant (tenant_storm's size).
const RING: usize = 1 << 18;
/// Grep patterns, used in rotation from a seeded offset so every
/// tenant serves the same mix: three keep every listing line, one keeps
/// a seed-dependent subset.
const PATTERNS: [&str; 4] = ["class", "pool=", "bytes=", "bytes=1"];

/// Stage 1: list `/data/classes`, print one line per class file.
const DISASM: &str = r#"
    class Disasm {
        static int u2(byte[] b, int off) {
            return ((b[off] & 255) << 8) | (b[off + 1] & 255);
        }
        static void main(String[] args) {
            String[] files = FileSystem.listDir("/data/classes");
            for (int f = 0; f < files.length; f++) {
                byte[] b = FileSystem.readFileBytes("/data/classes/" + files[f]);
                System.out.println("class " + files[f] + " pool=" + u2(b, 8) + " bytes=" + b.length);
            }
        }
    }
"#;

/// Stage 2: forward stdin lines containing argv[0].
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

/// Stage 3: count lines and characters on stdin.
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

struct TenantInput {
    files: Vec<(String, Vec<u8>)>,
    patterns: Vec<&'static str>,
}

struct Inputs {
    seeds: Vec<u64>,
    stages: Vec<(String, Vec<u8>)>,
    tenants: Vec<TenantInput>,
}

fn setup(seed: u64, rec: &Recorder, parent: u64) -> Inputs {
    let (stages, _) = rec.span("minijava.compile", "", parent, |_| {
        [DISASM, GREP, WC]
            .iter()
            .flat_map(|src| compile_to_bytes(src).expect("stage compiles"))
            .collect()
    });
    let (inputs, _) = rec.span("datasets.gen", "", parent, |_| {
        let seeds = scale::tenant_seeds(seed, TENANTS);
        let tenants = seeds
            .iter()
            .map(|&s| {
                let mut rng = SplitMix64::new(s);
                let files = datasets::synth_class_files(FILES, rng.next_u64());
                let offset = rng.gen_range(0..PATTERNS.len());
                let patterns = (0..REQUESTS)
                    .map(|k| PATTERNS[(offset + k) % PATTERNS.len()])
                    .collect();
                TenantInput { files, patterns }
            })
            .collect();
        Inputs {
            seeds,
            stages: Vec::new(),
            tenants,
        }
    });
    Inputs { stages, ..inputs }
}

/// What a tenant hands back besides its `TenantRun`: host timings,
/// exact virtual latencies, and oracle failures.
#[derive(Default)]
struct Side {
    tenant: usize,
    host_s: f64,
    failures: Vec<String>,
    completed: u64,
    outputs: Vec<String>,
    request_ns: Vec<u64>,
    click_ns: Vec<u64>,
    late_ns: Vec<u64>,
    processes: u64,
    pipe_bytes: u64,
    ring_events: u64,
    ring_dropped: u64,
    /// The kernel runtime's counters (every process of the tenant).
    slices: u64,
    suspensions: u64,
    suspended_ns: u64,
    /// The engine registry's `jvm.tier.*` counters.
    tier: Vec<(String, u64)>,
}

/// Shared state of one tenant's open-loop generator.
#[derive(Default)]
struct Gen {
    issued: usize,
    late_ns: Vec<u64>,
    /// `(request, wc pid, final pipe, due time)`.
    requests: Vec<(usize, Pid, doppio::core::PipeId, u64)>,
    jvms: Vec<doppio::jvm::Jvm>,
    parent: u64,
}

fn tenant(
    spec: TenantSpec,
    inputs: &Inputs,
    expected: &[Vec<String>],
    rec: &'static Recorder,
    parent: u64,
    causal: bool,
) -> (TenantRun, Side) {
    let (input, expected) = (&inputs.tenants[spec.tenant], &expected[spec.tenant]);
    let mut side = Side {
        tenant: spec.tenant,
        ..Side::default()
    };
    let kernel = Kernel::new();
    let (sink, _) = rec.span("trace.ring", "", parent, |_| {
        Rc::new(RingSink::with_capacity(RING))
    });
    let (engine, _) = rec.span("jsengine.build", "", parent, |_| {
        let b = EngineBuilder::new(Browser::Chrome)
            .rng_seed(spec.seed)
            .histograms(true);
        let b = if causal {
            b.trace_sink(sink.clone())
        } else {
            b
        };
        b.build_on(&kernel)
    });
    let ((fs, mounted), _) = rec.span("fs.mount", "", parent, |_| {
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_class_files(&engine, &fs, "/classes", &inputs.stages);
        let r = write_tree(&engine, &fs, "/data/classes", &input.files);
        (fs, r)
    });
    if let Err(e) = mounted {
        side.failures
            .push(format!("tenant {}: mount: {e}", spec.tenant));
    }

    // Open-loop arrivals: request k is due (k+1)·ARRIVAL_MS after start,
    // whatever the earlier requests are doing.
    let gen = Rc::new(RefCell::new(Gen::default()));
    let start = engine.now_ns();
    for (k, &pattern) in input.patterns.iter().enumerate() {
        let delay_ms = (k + 1) as f64 * ARRIVAL_MS;
        let due = start + (delay_ms * 1e6) as u64;
        let (kernel, fs, gen) = (kernel.clone(), fs.clone(), gen.clone());
        engine.set_timeout(delay_ms, move |e| {
            let now = e.now_ns();
            let parent = gen.borrow().parent;
            let (p1, p2, p3) = (kernel.pipe(), kernel.pipe(), kernel.pipe());
            let spawn = |opts: SpawnOptions, main: &str| {
                let (p, jvm) = rec
                    .span("jvm.spawn", main, parent, |_| {
                        spawn_jvm(&kernel, opts, fs.clone(), main)
                    })
                    .0;
                gen.borrow_mut().jvms.push(jvm);
                p
            };
            spawn(SpawnOptions::new("disasm").stdout(p1), "Disasm");
            spawn(
                SpawnOptions::new("grep").arg(pattern).stdin(p1).stdout(p2),
                "Grep",
            );
            let wc = spawn(SpawnOptions::new("wc").stdin(p2).stdout(p3), "Wc");
            let mut g = gen.borrow_mut();
            g.issued += 1;
            g.late_ns.push(now.saturating_sub(due));
            g.requests.push((k, wc.pid(), p3, due));
        });
    }
    let probe = ClickProbe::arm(&engine, spec.seed);

    let (driven, _) = rec.span("kernel.run", "", parent, |kid| {
        gen.borrow_mut().parent = kid;
        drive(&kernel, &engine, &gen)
    });
    probe.stop_at(engine.now_ns());
    rec.span("jsengine.drain", "", parent, |_| engine.run_until_idle());
    if let Err(e) = driven {
        side.failures.push(format!("tenant {}: {e}", spec.tenant));
    }

    // Check every request's answer and time it from its due arrival to
    // its last stage's exit.
    let table = kernel.process_table();
    let mut gen = std::mem::take(&mut *gen.borrow_mut());
    for &(k, pid, pipe, due) in &gen.requests {
        let got = kernel
            .host_read(pipe)
            .map(|b| String::from_utf8_lossy(&b).into_owned())
            .unwrap_or_else(|e| format!("<{e:?}>"));
        let exited = table
            .iter()
            .find(|p| p.pid == pid.0)
            .and_then(|p| p.exited_at_ns);
        match exited {
            Some(t) if got == expected[k] => {
                side.completed += 1;
                side.request_ns.push(t - due);
            }
            _ => side.failures.push(format!(
                "tenant {} request {k}: wc printed {got:?}, oracle {:?}",
                spec.tenant, expected[k]
            )),
        }
        side.outputs.push(got);
    }
    for p in table.iter().filter(|p| p.status != "exit(0)") {
        side.failures.push(format!(
            "tenant {} pid {} ({}): {}",
            spec.tenant, p.pid, p.name, p.status
        ));
    }
    if gen.issued != REQUESTS {
        side.failures.push(format!(
            "tenant {}: {} of {REQUESTS} requests issued",
            spec.tenant, gen.issued
        ));
    }
    side.late_ns = std::mem::take(&mut gen.late_ns);
    side.click_ns = probe.latencies();
    side.processes = table.len() as u64;
    side.pipe_bytes = table.iter().map(|p| p.pipe_out).sum();
    side.ring_events = sink.len() as u64;
    side.ring_dropped = sink.dropped();

    let (report, _) = rec.span("report.collect", "", parent, |_| {
        RunReport::collect(format!("tenant {}", spec.tenant), &engine)
            .with_runtime(&kernel.runtime())
    });
    let report = if causal {
        rec.span("trace.causal", "", parent, |_| report.with_causal(&sink))
            .0
    } else {
        report
    };
    let jvms = gen.jvms;
    // Counters the report leaves out: the kernel runtime's slices and
    // suspensions, and the registry's tier counters.
    rec.span("registry.read", "", parent, |_| {
        let stats = kernel.runtime().stats();
        side.slices = stats.slices;
        side.suspensions = stats.suspensions;
        side.suspended_ns = stats.suspended_ns;
        side.tier = engine.metrics().with_prefix("jvm.tier");
    });
    let ok = side.failures.is_empty();
    rec.span("kernel.teardown", "", parent, |_| {
        // The kernel keeps finished threads, and each JVM's stdout hook
        // holds the kernel: without this the whole tenant world (engine,
        // trace ring, heaps) outlives the tenant. Killing an already
        // finished thread only drops its guest state.
        let runtime = kernel.runtime();
        for p in &table {
            for t in runtime.tagged_threads(u64::from(p.pid)) {
                runtime.kill(t);
            }
        }
        for jvm in &jvms {
            jvm.set_stdout_hook(|_| {});
        }
        drop((jvms, fs, engine, kernel, sink));
    });
    let run = TenantRun {
        ok,
        status: if ok {
            "exit(0)".to_string()
        } else {
            format!("failed: {}", side.failures.len())
        },
        report,
    };
    (run, side)
}

/// Drive the kernel's event loop until every request has arrived and
/// every process it spawned has exited.
fn drive(kernel: &Kernel, engine: &Engine, gen: &Rc<RefCell<Gen>>) -> Result<(), String> {
    kernel.run().map_err(|e| e.to_string())?;
    let runtime = kernel.runtime();
    loop {
        if gen.borrow().issued == REQUESTS && kernel.all_exited() {
            return Ok(());
        }
        if let Some(r) = runtime.deadlock_report() {
            return Err(format!("deadlock: {r}"));
        }
        if !engine.run_one() {
            return Err("event loop drained with requests outstanding".to_string());
        }
    }
}

/// One pass: every tenant on the shard pool, then merge and render.
struct Pass {
    report: ScaleReport,
    rendered: String,
    sides: Vec<Side>,
    pool_s: f64,
    host_s: f64,
}

fn pass(
    seed: u64,
    inputs: &Inputs,
    expected: &[Vec<String>],
    threads: usize,
    rec: &'static Recorder,
    parent: u64,
    causal: bool,
) -> Pass {
    let t0 = Instant::now();
    let sides = Mutex::new(Vec::new());
    let (runs, pool_s) = rec.span("scale.run_sharded", "", parent, |pid| {
        scale::run_sharded(TENANTS, threads, |i| {
            let spec = TenantSpec {
                tenant: i,
                seed: inputs.seeds[i],
            };
            let ((run, side), secs) = rec.span("tenant", &i.to_string(), pid, |tid| {
                // A tenant panic must not take the pool down: it becomes
                // a failed tenant, like any other wrong answer.
                catch_unwind(AssertUnwindSafe(|| {
                    tenant(spec, inputs, expected, rec, tid, causal)
                }))
                .unwrap_or_else(|p| panicked(spec, p))
            });
            let side = Side {
                host_s: secs,
                ..side
            };
            sides.lock().expect("side list not poisoned").push(side);
            (spec, run)
        })
    });
    let (report, _) = rec.span("scale.merge", "", parent, |_| {
        ScaleReport::merge("tenants", seed, &runs)
    });
    let (rendered, _) = rec.span("scale.render", "", parent, |_| {
        let mut s = report.to_json_string();
        s.push_str(&report.to_markdown());
        s.push_str(&report.prometheus());
        s
    });
    let mut sides = sides.into_inner().expect("side list not poisoned");
    sides.sort_by_key(|s| s.tenant);
    Pass {
        report,
        rendered,
        sides,
        pool_s,
        host_s: t0.elapsed().as_secs_f64(),
    }
}

fn panicked(spec: TenantSpec, payload: Box<dyn std::any::Any + Send>) -> (TenantRun, Side) {
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string());
    let run = TenantRun {
        ok: false,
        status: format!("panic: {msg}"),
        report: RunReport::collect("panicked", &Engine::new(Browser::Chrome)),
    };
    let side = Side {
        tenant: spec.tenant,
        failures: vec![format!("tenant {}: panic: {msg}", spec.tenant)],
        ..Side::default()
    };
    (run, side)
}

fn digest(p: &Pass) -> String {
    let mut d = Digest::new();
    d.add(p.rendered.as_bytes());
    for s in &p.sides {
        for o in &s.outputs {
            d.add(o.as_bytes());
        }
        d.add_u64s(&s.request_ns);
        d.add_u64s(&s.click_ns);
        d.add_u64s(&s.late_ns);
    }
    d.hex()
}

pub fn run(opts: &Opts, rec: &'static Recorder) -> Outcome {
    let mut out = Outcome::default();
    let threads = scale::default_threads();

    let (inputs, setup_s) = repeat_setup(rec, |id| setup(opts.seed, rec, id));
    let expected: Vec<Vec<String>> = inputs
        .tenants
        .iter()
        .map(|t| {
            t.patterns
                .iter()
                .map(|p| oracle::pipeline_wc(&t.files, p))
                .collect()
        })
        .collect();

    let mut rates = Vec::new();
    let mut busy = Vec::new();
    let mut raw_rates = Vec::new();
    let rounds = measure(opts, rec, &mut out, |out, n, rid| {
        let factor = crate::machine_factor(rec, rid);
        let p = pass(opts.seed, &inputs, &expected, threads, rec, rid, true);
        out.attempted += (TENANTS * REQUESTS) as u64;
        for f in p.sides.iter().flat_map(|s| &s.failures) {
            out.fail(format!("round {n}: {f}"));
        }
        let completed: u64 = p.sides.iter().map(|s| s.completed).sum();
        raw_rates.push(completed as f64 / p.host_s);
        rates.push(completed as f64 / (p.host_s / factor));
        let tenant_s: f64 = p.sides.iter().map(|s| s.host_s).sum();
        busy.push(tenant_s / (threads as f64 * p.pool_s));
        let d = digest(&p);
        (p, d)
    });
    let (p, round) = (&rounds.reference, rounds.count);

    // Determinism guard: a one-thread pass, untimed, must merge to the
    // same bytes as the pool.
    let (serial, _) = rec.span("determinism", "", 0, |id| {
        pass(opts.seed, &inputs, &expected, 1, rec, id, true)
    });
    out.attempted += 1;
    if serial.rendered != p.rendered {
        out.fail("1-thread merged ScaleReport differs from the pool's".to_string());
    }

    // End-to-end metrics.
    let pooled = |f: &dyn Fn(&Side) -> &Vec<u64>| -> Vec<u64> {
        p.sides.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let request = Latency::of(&pooled(&|s| &s.request_ns));
    let click = Latency::of(&pooled(&|s| &s.click_ns));
    let late = Latency::of(&pooled(&|s| &s.late_ns));
    let walls: Vec<f64> = p
        .report
        .tenants
        .iter()
        .map(|t| t.virtual_ns as f64 / 1e6)
        .collect();
    let requests_per_s = median(&rates);
    out.e2e("setup_s", setup_s, "s");
    out.e2e("host_ops_per_s", requests_per_s, "1/s");
    out.e2e("virtual_ms_geomean", geomean(&walls), "ms");
    out.e2e("latency_p50_ms", request.p50_ms(), "ms");
    out.e2e("latency_tail_ms", request.tail_ms(), "ms");
    out.line(format!(
        "requests_per_s {requests_per_s} req/s at reference speed ({} as measured; {TENANTS} tenants x {REQUESTS} requests, {threads} threads, {round} rounds)",
        median(&raw_rates)
    ));
    out.lines.extend(request.lines("request", "ms (virtual)"));
    out.lines.extend(click.lines("click", "ms (virtual)"));
    out.line(format!(
        "virtual_ms_geomean {} ms (virtual, n={})",
        geomean(&walls),
        walls.len()
    ));

    // Per-layer metrics.
    let merged = &p.report.merged;
    let c = |name: &str| merged.counter(name) as f64;
    let spawn_ms = rec.durations_ms("jvm.spawn", None);
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
    let total = |f: &dyn Fn(&Side) -> u64| p.sides.iter().map(f).sum::<u64>() as f64;
    out.layer("jvm.boot_ms", median(&spawn_ms), "ms");
    for name in ["jvm.tier.compiled", "jvm.tier.deopt", "jvm.tier.super_hit"] {
        let sum = total(&|s| {
            s.tier
                .iter()
                .filter(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .sum()
        });
        out.layer(name, sum, "count");
    }
    out.layer("core.slices", total(&|s| s.slices), "count");
    out.layer("core.suspensions", total(&|s| s.suspensions), "count");
    out.layer("core.suspended_ms", total(&|s| s.suspended_ns) / 1e6, "ms");
    out.layer(
        "jvm.cp_cache.hit_rate",
        ratio(
            c("jvm.cp_cache.hit"),
            c("jvm.cp_cache.hit") + c("jvm.cp_cache.miss"),
        ),
        "ratio",
    );
    out.layer(
        "jvm.icache.hit_rate",
        ratio(
            c("jvm.icache.hit"),
            c("jvm.icache.hit") + c("jvm.icache.miss"),
        ),
        "ratio",
    );
    out.layer(
        "kernel.processes",
        p.sides.iter().map(|s| s.processes).sum::<u64>() as f64,
        "count",
    );
    out.layer(
        "kernel.pipe_bytes",
        p.sides.iter().map(|s| s.pipe_bytes).sum::<u64>() as f64,
        "bytes",
    );
    out.layer(
        "report.collect_ms",
        median(&rec.durations_ms("report.collect", None)),
        "ms",
    );
    out.layer("jsengine.events", c("engine.events_run"), "count");
    out.layer("jsengine.events.user_input", click.n as f64, "count");
    out.layer(
        "jsengine.watchdog_kills",
        c("engine.watchdog_kills"),
        "count",
    );
    out.layer("jsengine.gen_late_ms", late.tail_ms(), "ms");
    out.layer(
        "fs.mount_ms",
        median(&rec.durations_ms("fs.mount", None)),
        "ms",
    );
    out.layer("fs.ops", c("fs.ops"), "count");
    out.layer("fs.bytes_read", c("fs.bytes_read"), "bytes");
    out.layer("fs.bytes_written", c("fs.bytes_written"), "bytes");
    out.layer("fs.retries", c("fs.retries"), "count");
    out.layer(
        "trace.ring_events",
        p.sides.iter().map(|s| s.ring_events).sum::<u64>() as f64,
        "count",
    );
    out.layer("trace.ring_capacity", (RING * TENANTS) as f64, "count");
    out.layer(
        "trace.dropped",
        p.sides.iter().map(|s| s.ring_dropped).sum::<u64>() as f64,
        "count",
    );
    out.layer(
        "trace.ring_alloc_ms",
        median(&rec.durations_ms("trace.ring", None)),
        "ms",
    );
    out.layer(
        "kernel.teardown_ms",
        median(&rec.durations_ms("kernel.teardown", None)),
        "ms",
    );
    out.layer(
        "trace.causal_ms",
        median(&rec.durations_ms("trace.causal", None)),
        "ms",
    );
    if let Some(causal) = &merged.causal {
        let (mut wall, mut named, mut sched, mut proc_wall, mut pipe) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for (class, s) in &causal.classes {
            wall += s.wall_ns;
            named += s.named_ns();
            sched += s.attributed.get("wait.sched").copied().unwrap_or(0);
            if class.starts_with("proc:") {
                proc_wall += s.wall_ns;
                pipe += s
                    .attributed
                    .iter()
                    .filter(|(k, _)| k.starts_with("wait.pipe"))
                    .map(|(_, v)| *v)
                    .sum::<u64>();
            }
        }
        out.layer(
            "trace.named_share",
            ratio(named as f64, wall as f64),
            "ratio",
        );
        out.layer(
            "jsengine.wait_sched_share",
            ratio(sched as f64, wall as f64),
            "ratio",
        );
        out.layer(
            "kernel.wait_pipe_share",
            ratio(pipe as f64, proc_wall as f64),
            "ratio",
        );
    }
    let tenant_ms: Vec<f64> = rec.durations_ms("tenant", None);
    out.layer("scale.tenant_ms_p50", median(&tenant_ms), "ms");
    out.layer(
        "scale.tenant_ms_max",
        tenant_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    out.layer("scale.busy_share", median(&busy), "ratio");
    out.layer(
        "scale.merge_ms",
        median(&rec.durations_ms("scale.merge", None)),
        "ms",
    );
    out.layer(
        "scale.render_ms",
        median(&rec.durations_ms("scale.render", None)),
        "ms",
    );
    out.layer("scale.report_bytes", p.rendered.len() as f64, "bytes");
    if rec.enabled() {
        out.layer(
            "trace.overhead_pct",
            causal_overhead_pct(opts.seed, &inputs, &expected, threads, rec),
            "%",
        );
    }
    crate::finish_layers(&mut out, rec, &rounds.secs);
    out
}

/// Host cost of causal tracing: the same tenants with and without the
/// ring sink plus `with_causal`, interleaved, median over pairs.
fn causal_overhead_pct(
    seed: u64,
    inputs: &Inputs,
    expected: &[Vec<String>],
    threads: usize,
    rec: &'static Recorder,
) -> f64 {
    rec.set_active(false);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..6 {
        let causal = i % 2 == 0;
        let p = pass(seed, inputs, expected, threads, rec, 0, causal);
        if causal { &mut on } else { &mut off }.push(p.host_s);
    }
    rec.set_active(true);
    let (on, off) = (median(&on), median(&off));
    ratio(on - off, off) * 100.0
}
