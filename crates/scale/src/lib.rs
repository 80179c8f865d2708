//! Multi-tenant scale harness: shard K independent tenant simulations
//! across real OS threads and deterministically merge their reports.
//!
//! Every Doppio engine is deliberately single-threaded — `Rc`/`RefCell`
//! state confined to the thread that built it, scheduled on one virtual
//! clock (§4). That rules out parallelism *inside* a simulation, but a
//! production-scale run is not one simulation: it is K independent
//! tenants, each with its own engine, kernel, seed, and virtual clock.
//! Those worlds share nothing, so they shard perfectly across OS
//! threads: each shard builds its tenant's engine locally, runs it to
//! completion, and sends back only plain data ([`doppio_core::report::RunReport`],
//! histogram snapshots, counter maps, an exit status).
//!
//! Determinism survives the sharding because nothing about a tenant's
//! run depends on *which* thread ran it or *when*:
//!
//! * per-tenant seeds derive from the master seed by tenant **index**
//!   ([`tenant_seeds`], SplitMix64 `split()`), never from thread ids;
//! * each tenant's engine has its own virtual clock, so host-time
//!   jitter never reaches a simulation;
//! * the merge ([`doppio_core::report::RunReport::merge`]) is
//!   order-independent — saturating counter addition and histogram
//!   bucket merges are associative and commutative, and per-tenant
//!   causal critical-path sections fold with the equally commutative
//!   `CausalReport::merge` — and renders in canonical sorted-name
//!   order.
//!
//! Net effect: a K-shard parallel run produces a [`report::ScaleReport`]
//! **byte-identical** to a serial run of the same shards
//! (`tests/scale_harness.rs` and `examples/tenant_storm.rs` both assert
//! it). Throughput scales with cores; the artifact does not change.
//!
//! See `docs/scale.md` for the sharding model and merge semantics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use doppio_core::report::RunReport;
use doppio_prng::SplitMix64;

pub mod report;

pub use report::{ScaleReport, TenantSummary};

// ----------------------------------------------------------------
// The shard pool
// ----------------------------------------------------------------

/// Run `job(0..n)` across up to `threads` OS threads and return the
/// results in **index order**, exactly as a serial loop would.
///
/// The pool is a scoped work-stealing loop: worker threads pull the
/// next unclaimed index from a shared atomic counter, so an expensive
/// job on one thread never strands cheap jobs behind it. Results carry
/// their index and are sorted before returning — callers observe the
/// same `Vec` regardless of thread count or completion order.
///
/// With `threads <= 1` (or `n <= 1`) the jobs run serially on the
/// calling thread — the degenerate pool, and the reference ordering
/// the parallel path must match.
///
/// `job` must not depend on which thread it runs on; everything
/// thread-confined (engines, kernels) must be built *inside* the job.
/// A panicking job propagates the panic to the caller after the scope
/// joins.
pub fn run_sharded<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let out = job(i);
                results
                    .lock()
                    .expect("no poisoned shard results")
                    .push((i, out));
            });
        }
    });
    let mut results = results.into_inner().expect("no poisoned shard results");
    results.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(results.len(), n);
    results.into_iter().map(|(_, out)| out).collect()
}

/// How many shard threads to use by default: one per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

// ----------------------------------------------------------------
// Tenants
// ----------------------------------------------------------------

/// One tenant's identity, handed to the tenant closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant index in `0..tenants`.
    pub tenant: usize,
    /// This tenant's RNG seed, derived from the master seed by index
    /// ([`tenant_seeds`]) — identical whichever thread runs it.
    pub seed: u64,
}

/// What one tenant's run produced: its end-of-run report plus an exit
/// status line for the per-tenant table.
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// Whether the tenant finished cleanly.
    pub ok: bool,
    /// Rendered exit status (`exit(0)`, `killed(SIGKILL)`,
    /// `deadlock`, ...).
    pub status: String,
    /// The tenant's own [`RunReport`] — counters, histogram
    /// snapshots, virtual end time.
    pub report: RunReport,
}

/// Derive one seed per tenant from `master_seed`, by index.
///
/// Uses SplitMix64's `split()` so sibling tenants are decorrelated
/// from each other and from the master stream. The derivation is a
/// serial fold over tenant indices — a pure function of
/// `(master_seed, tenants)`, independent of thread count and
/// scheduling.
pub fn tenant_seeds(master_seed: u64, tenants: usize) -> Vec<u64> {
    let mut master = SplitMix64::new(master_seed);
    (0..tenants).map(|_| master.split().next_u64()).collect()
}

/// Run `tenants` independent tenant simulations on up to `threads` OS
/// threads and merge their reports into one [`ScaleReport`].
///
/// `tenant` is called once per tenant with its [`TenantSpec`]; it must
/// build the whole world (engine, kernel, workload) from the spec's
/// seed, run it, and return a [`TenantRun`]. A tenant that panics
/// fails alone: its row reads `ok: false`, status `panic: <message>`,
/// and an empty report, and the other tenants still run. The merged
/// report is byte-identical across thread counts — run with
/// `threads = 1` to get the serial reference.
pub fn run_tenants(
    title: impl Into<String>,
    master_seed: u64,
    tenants: usize,
    threads: usize,
    tenant: impl Fn(TenantSpec) -> TenantRun + Sync,
) -> ScaleReport {
    let seeds = tenant_seeds(master_seed, tenants);
    let runs = run_sharded(tenants, threads, |i| {
        let spec = TenantSpec {
            tenant: i,
            seed: seeds[i],
        };
        let run = catch_unwind(AssertUnwindSafe(|| tenant(spec))).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".to_string());
            TenantRun {
                ok: false,
                status: format!("panic: {msg}"),
                report: RunReport::default(),
            }
        });
        (spec, run)
    });
    ScaleReport::merge(title, master_seed, &runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_sharded_returns_index_order_at_any_thread_count() {
        let serial = run_sharded(17, 1, |i| i * i);
        for threads in [2, 3, 8, 32] {
            assert_eq!(run_sharded(17, threads, |i| i * i), serial);
        }
        assert_eq!(run_sharded(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_sharded(1, 4, |i| i), vec![0]);
    }

    #[test]
    fn run_sharded_runs_every_job_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = run_sharded(100, 7, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        let distinct: HashSet<usize> = out.iter().copied().collect();
        assert_eq!(distinct.len(), 100);
    }

    #[test]
    fn tenant_seeds_are_a_pure_function_of_master_and_index() {
        let a = tenant_seeds(42, 8);
        let b = tenant_seeds(42, 8);
        assert_eq!(a, b);
        // A longer derivation extends, never rewrites, the prefix.
        let c = tenant_seeds(42, 16);
        assert_eq!(&c[..8], &a[..]);
        // Distinct masters give distinct streams; siblings differ.
        assert_ne!(tenant_seeds(43, 8), a);
        let distinct: HashSet<u64> = a.iter().copied().collect();
        assert_eq!(distinct.len(), 8, "sibling seeds collided: {a:?}");
    }
}
