//! The multi-tenant scale demo: K independent tenants, each running
//! the responsiveness workload (a DeltaBlue run with synthetic user
//! clicks) on its own seeded engine, sharded across OS threads by
//! `doppio::scale` and merged into one deterministic `ScaleReport`.
//!
//! The run happens twice — once on the shard pool, once serially on
//! the calling thread — and the two merged reports are asserted
//! **byte-identical** (markdown, JSON, and Prometheus exposition):
//! parallelism changes wall-clock time, never the artifact. The
//! benchmark's `tenants` workload measures what the pool costs on the
//! host; this example prints only the merged artifacts, and
//! `tests/determinism.rs` pins two tenants at seed 1 as
//! `tests/golden/scale/tenant_storm.txt` at 1 and 2 shard threads.
//!
//! Run with: `cargo run --release --example tenant_storm -- [tenants]
//! [--seed S] [--threads N]`
//!
//! * `tenants` — how many tenant simulations (default 8).
//! * `--seed S` — master seed; per-tenant seeds derive from it by
//!   index (default 1).
//! * `--threads N` — shard pool size (default: one per core).

use std::rc::Rc;

use doppio::jsengine::Browser;
use doppio::scale::{self, TenantRun, TenantSpec};
use doppio::trace::RingSink;
use doppio::workloads::responsiveness::run_responsiveness_on;
use doppio::EngineBuilder;

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

/// Run `tenants` tenants from master seed `seed` on a pool of
/// `threads` OS threads, check the merge against a serial run, and
/// return the merged `scale_report.md`, `scale_report.json` and
/// `scale.prom`, each under a `--- <file>` header.
pub fn run(tenants: usize, seed: u64, threads: usize) -> String {
    let report = scale::run_tenants("tenant_storm", seed, tenants, threads, tenant);

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

    format!(
        "--- scale_report.md\n{}--- scale_report.json\n{}--- scale.prom\n{}",
        report.to_markdown(),
        report.to_json_string(),
        report.prometheus()
    )
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
        .map_or(8, |a| a.parse().expect("tenants must be a number"));
    let seed: u64 = flag("--seed").map_or(1, |s| s.parse().expect("numeric seed"));
    let threads: usize = flag("--threads").map_or_else(scale::default_threads, |s| {
        s.parse().expect("numeric thread count")
    });
    print!("{}", run(tenants, seed, threads));
}
