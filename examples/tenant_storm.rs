//! The multi-tenant scale demo: K independent tenants, each running
//! the responsiveness workload (a DeltaBlue run with synthetic user
//! clicks) on its own seeded engine, sharded across OS threads by
//! `doppio::scale` and merged into one deterministic `ScaleReport`.
//!
//! The run happens twice — once on the shard pool, once serially on
//! the calling thread — and the two merged reports are asserted
//! **byte-identical** (markdown, JSON, and Prometheus exposition):
//! parallelism changes wall-clock time, never the artifact. Host wall
//! timings appear only on stdout and in `BENCH_scale.json`, never in
//! the report itself.
//!
//! Run with: `cargo run --release --example tenant_storm -- [tenants]
//! [--seed S] [--threads N] [--out DIR]`
//!
//! * `tenants` — how many tenant simulations (default 8; 3 under
//!   `DOPPIO_BENCH_LIGHT`).
//! * `--seed S` — master seed; per-tenant seeds derive from it by
//!   index (default 1).
//! * `--threads N` — shard pool size (default: one per core).
//! * `--out DIR` — also write `scale_report.md`, `scale_report.json`,
//!   and `scale.prom` under `DIR`.
//!
//! Appends a `tenant_storm.scale` section (tenants, total clicks,
//! host seconds, simulated users/sec/core) to `BENCH_scale.json`
//! (override the path with `DOPPIO_BENCH_SCALE_OUT`).

use std::rc::Rc;
use std::time::Instant;

use doppio::jsengine::Browser;
use doppio::scale::{self, TenantRun, TenantSpec};
use doppio::trace::RingSink;
use doppio::workloads::responsiveness::run_responsiveness_on;
use doppio::EngineBuilder;
use doppio_bench::results;

/// Virtual milliseconds between synthetic user clicks.
const CLICK_INTERVAL_MS: f64 = 16.0;

/// One tenant's whole world: a fresh engine seeded from the spec, the
/// responsiveness workload, and the end-of-run report. Everything is
/// built inside the closure — nothing crosses threads but plain data.
fn tenant(spec: TenantSpec) -> TenantRun {
    // Causal tracing rides along: every synthetic click roots an
    // `input` request, the tenant's report carries its per-class
    // attribution table, and `ScaleReport`'s merge folds the tables —
    // so the byte-identity assertions below cover the causal section.
    let sink = Rc::new(RingSink::with_capacity(1 << 18));
    let engine = EngineBuilder::new(Browser::Chrome)
        .rng_seed(spec.seed)
        .histograms(true)
        .trace_sink(sink.clone())
        .build();
    let r = run_responsiveness_on("deltablue", engine, CLICK_INTERVAL_MS);
    TenantRun {
        ok: r.outcome.uncaught.is_none(),
        status: match &r.outcome.uncaught {
            None => "exit(0)".to_string(),
            Some(u) => format!("uncaught: {u}"),
        },
        report: r.outcome.report.clone().with_causal(&sink),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| args[i + 1].clone())
    };
    let tenants: usize = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.parse().expect("tenants must be a number"))
        .unwrap_or(if results::light_profile() { 3 } else { 8 });
    let seed: u64 = flag("--seed").map_or(1, |s| s.parse().expect("numeric seed"));
    let threads: usize = flag("--threads").map_or_else(scale::default_threads, |s| {
        s.parse().expect("numeric thread count")
    });
    let out_dir = flag("--out");

    // The measured run: K tenants on the shard pool.
    let t0 = Instant::now();
    let report = scale::run_tenants("tenant_storm", seed, tenants, threads, tenant);
    let host_secs = t0.elapsed().as_secs_f64();

    // The reference run: same shards, serially. Byte-identity of the
    // merged artifacts is the harness's core guarantee.
    let serial = scale::run_tenants("tenant_storm", seed, tenants, 1, tenant);
    assert_eq!(
        report.to_markdown(),
        serial.to_markdown(),
        "parallel merged markdown diverged from serial"
    );
    assert_eq!(
        report.to_json_string(),
        serial.to_json_string(),
        "parallel merged JSON diverged from serial"
    );
    assert_eq!(
        report.prometheus(),
        serial.prometheus(),
        "parallel merged Prometheus exposition diverged from serial"
    );
    assert!(
        report.all_ok(),
        "a tenant failed:\n{}",
        report.to_markdown()
    );

    // Every click is one simulated user interaction; the engine's
    // user-input latency histogram counted all of them, tenant by
    // tenant, and the merge summed the counts.
    let clicks = report
        .merged
        .histogram("engine.event_latency.user_input")
        .map(|h| h.count)
        .unwrap_or(0);
    assert!(clicks > 0, "tenants recorded no user clicks");

    // The merged causal section agrees with the histograms: every
    // click the tenants recorded shows up as one traced `input`
    // request in the folded attribution table.
    let causal = report.merged.causal.as_ref().expect("merged causal");
    assert_eq!(causal.truncated, 0, "tenant rings must not truncate");
    let input = causal.classes.get("input").expect("input request class");
    assert_eq!(input.requests, clicks, "traced requests == clicks");
    let cores = threads.max(1) as f64;
    let users_per_sec_per_core = clicks as f64 / host_secs / cores;

    println!("{}", report.to_markdown());
    println!(
        "tenants: {tenants}  threads: {threads}  clicks: {clicks}  \
         host: {host_secs:.3}s  simulated users/sec/core: {users_per_sec_per_core:.1}"
    );
    println!("parallel and serial merged reports are byte-identical");

    let bench_path = results::write_sections_at(
        results::scale_out_path(),
        vec![(
            "tenant_storm.scale".to_string(),
            vec![
                ("tenants".to_string(), tenants as f64),
                ("clicks".to_string(), clicks as f64),
                ("host_secs".to_string(), host_secs),
                (
                    "sim_users_per_sec_per_core".to_string(),
                    users_per_sec_per_core,
                ),
                (
                    "virtual_ns_total".to_string(),
                    report.total_virtual_ns() as f64,
                ),
            ],
        )],
    );
    println!("bench section: {}", bench_path.display());

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir).expect("create out dir");
        let path = |name: &str| format!("{dir}/{name}");
        std::fs::write(path("scale_report.md"), report.to_markdown()).expect("write md");
        std::fs::write(path("scale_report.json"), report.to_json_string()).expect("write json");
        std::fs::write(path("scale.prom"), report.prometheus()).expect("write prom");
        println!("wrote scale_report.md, scale_report.json, scale.prom to {dir}");
    }
}
