//! The multi-tenant scale harness, end-to-end: K closure-guest
//! tenants sharded across OS thread pools of every size must produce
//! **byte-identical** merged artifacts, equal to their golden — the
//! determinism guarantee `docs/scale.md` promises.

mod common;

use common::check_golden_at;
use doppio::core::report::RunReport;
use doppio::core::ThreadStep;
use doppio::jsengine::Browser;
use doppio::prng::SplitMix64;
use doppio::scale::{self, run_tenants, TenantRun, TenantSpec};
use doppio::{BuildOnKernel, EngineBuilder, Kernel, SpawnOptions};

/// A cheap closure-guest tenant: a fresh kernel whose one process
/// does a seed-dependent number of slices, bumping a counter and
/// recording seed-dependent latencies into a histogram. Everything a
/// real tenant produces (counters, histogram snapshots, process
/// table, virtual end time) at a fraction of the cost.
fn tiny_tenant(spec: TenantSpec) -> TenantRun {
    let kernel = Kernel::new();
    let engine = EngineBuilder::new(Browser::Chrome)
        .rng_seed(spec.seed)
        .histograms(true)
        .build_on(&kernel);
    let metrics = engine.metrics();
    let work = metrics.counter("tenant.work_items");
    let hist = metrics.histogram("tenant.work_ns");

    let mut rng = SplitMix64::new(spec.seed);
    let mut slices = 2 + (spec.seed % 7);
    let proc = kernel.spawn_fn(SpawnOptions::new("worker"), move |_ctx| {
        if slices == 0 {
            return ThreadStep::Finished;
        }
        slices -= 1;
        work.inc();
        hist.record(rng.gen_range(100u64..1_000_000));
        ThreadStep::Yielded
    });
    kernel.run().expect("tiny tenant cannot deadlock");
    let status = proc.status().expect("worker exited");
    TenantRun {
        ok: status.success(),
        status: format!("{status}"),
        report: RunReport::collect("tenant", &engine).with_kernel(&kernel),
    }
}

const MASTER_SEED: u64 = 0xC0FF_EE00;
const TENANTS: usize = 9;

#[test]
fn merged_report_is_byte_identical_across_shard_pool_sizes() {
    check_golden_at(
        "scale/tiny_tenants",
        &[1, 4, scale::default_threads()],
        |threads| {
            let run = run_tenants("scale_harness", MASTER_SEED, TENANTS, threads, tiny_tenant);
            format!(
                "--- scale_report.md\n{}\n--- scale_report.json\n{}\n--- scale.prom\n{}",
                run.to_markdown(),
                run.to_json_string(),
                run.prometheus()
            )
        },
    );
}

#[test]
fn per_tenant_table_reflects_every_tenant_in_index_order() {
    let run = run_tenants("scale_harness", MASTER_SEED, TENANTS, 4, tiny_tenant);
    assert_eq!(run.tenants.len(), TENANTS);
    assert!(run.all_ok());
    let seeds = scale::tenant_seeds(MASTER_SEED, TENANTS);
    for (i, t) in run.tenants.iter().enumerate() {
        assert_eq!(t.tenant, i);
        assert_eq!(t.seed, seeds[i], "tenant {i} ran with the wrong seed");
        assert_eq!(t.status, "exit(0)");
        assert!(t.virtual_ns > 0, "tenant {i} simulated no virtual time");
    }
    // The merged counter is the sum of seed-dependent per-tenant work:
    // 2 + seed % 7 items each.
    let expected: u64 = seeds.iter().map(|s| 2 + s % 7).sum();
    assert_eq!(run.merged.counter("tenant.work_items"), expected);
    let hist = run
        .merged
        .histogram("tenant.work_ns")
        .expect("merged histogram present");
    assert_eq!(hist.count, expected);
}

#[test]
fn different_master_seeds_produce_different_reports() {
    let a = run_tenants("scale_harness", MASTER_SEED, TENANTS, 2, tiny_tenant);
    let b = run_tenants("scale_harness", MASTER_SEED + 1, TENANTS, 2, tiny_tenant);
    assert_ne!(
        a.to_json_string(),
        b.to_json_string(),
        "master seed had no effect on the merged report"
    );
}

#[test]
fn a_panicking_tenant_fails_alone_at_every_shard_pool_size() {
    check_golden_at("scale/panicking_tenant", &[1, 2], |threads| {
        let run = run_tenants("scale_harness", MASTER_SEED, 4, threads, |spec| {
            if spec.tenant == 2 {
                panic!("malformed guest");
            }
            tiny_tenant(spec)
        });
        assert_eq!(run.tenants[2].status, "panic: malformed guest");
        assert_eq!(run.tenants.iter().filter(|t| t.ok).count(), 3);
        format!("{}\n", run.to_json_string())
    });
}
