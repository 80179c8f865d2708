//! # doppio-faults — deterministic fault injection for the simulation
//!
//! The paper's whole premise (§4–§6) is keeping unmodified programs
//! correct on top of an unreliable, asynchronous substrate — yet a
//! perfectly reliable simulated fabric never exercises any error path.
//! This crate supplies the missing unreliability, *deterministically*:
//! a [`FaultPlan`] is seeded with a [`SplitMix64`] stream and driven by
//! the engine's virtual clock, so the exact same faults fire at the
//! exact same virtual instants on every run with the same seed — a
//! property the paper's real-browser evaluation never had.
//!
//! Two consumers query the plan at their delivery decision points:
//!
//! * the network fabric (`doppio-sockets`) asks [`FaultPlan::net_fault`]
//!   per transmission and may be told to drop the segment, reset the
//!   connection, add a latency spike, or split the delivery in two
//!   (partial delivery / TCP segmentation);
//! * any fs backend wrapped by `doppio-fs`'s `FaultyBackend` asks
//!   [`FaultPlan::fs_fault`] per operation and may be told to fail with
//!   a transient `EIO`, a `QuotaExceeded` (`ENOSPC`), or to complete
//!   slowly;
//! * the replicated object store (`doppio-storage`) asks
//!   [`FaultPlan::storage_fault`] per protocol step and may be told to
//!   crash a node mid-write (it restarts later and replays its
//!   journal) or to partition a replication link until it heals.
//!
//! Every injected fault is recorded in the plan's log and emitted as a
//! `fault`-category instant through `doppio-trace`, so a Perfetto trace
//! shows exactly which fault fired and how the stack recovered.
//!
//! The crate also hosts the client-side recovery schedule the paper
//! assumes the source language provides: [`backoff_delay_ns`] (seeded
//! exponential backoff with jitter, shared by `DoppioSocket` reconnect
//! and the fs frontend's retry) and [`RETRY_ATTEMPTS`].

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use doppio_jsengine::Engine;
use doppio_prng::SplitMix64;
use doppio_trace::{cat, ArgValue};

/// A fault the network fabric must apply to one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The segment vanishes (delivery never happens). Deliveries are
    /// frame-aligned in this fabric, so a drop models clean loss of one
    /// application write.
    Drop,
    /// The connection is reset: both sides observe an abrupt close.
    Reset,
    /// The delivery is delayed by the given extra virtual nanoseconds.
    LatencySpike(u64),
    /// Partial delivery: the segment arrives split at the given byte
    /// offset, as two separately delayed deliveries.
    Split(usize),
}

impl NetFault {
    /// Stable name for logs and trace args.
    pub fn name(&self) -> &'static str {
        match self {
            NetFault::Drop => "drop",
            NetFault::Reset => "reset",
            NetFault::LatencySpike(_) => "latency_spike",
            NetFault::Split(_) => "partial_delivery",
        }
    }
}

/// A fault a wrapped fs backend must apply to one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsFault {
    /// Fail with a transient I/O error (`EIO`).
    TransientEio,
    /// Fail with a storage-quota error (`ENOSPC`), as `localStorage`
    /// raises when its 5 MB budget is exhausted.
    QuotaExceeded,
    /// Complete, but only after the given extra virtual nanoseconds.
    SlowCompletion(u64),
}

impl FsFault {
    /// Stable name for logs and trace args.
    pub fn name(&self) -> &'static str {
        match self {
            FsFault::TransientEio => "transient_eio",
            FsFault::QuotaExceeded => "quota_exceeded",
            FsFault::SlowCompletion(_) => "slow_completion",
        }
    }
}

/// A fault the replicated object store must apply at one protocol
/// decision point (see `doppio-storage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The storage node crashes mid-operation: its volatile state is
    /// lost and it restarts — replaying its durable journal — after
    /// the given virtual delay.
    Crash {
        /// Restart delay, virtual ns.
        restart_after_ns: u64,
    },
    /// The replication link to one peer partitions: traffic on the
    /// link is dropped until it heals after the given virtual delay.
    Partition {
        /// Heal delay, virtual ns.
        heal_after_ns: u64,
    },
}

impl StorageFault {
    /// Stable name for logs and trace args.
    pub fn name(&self) -> &'static str {
        match self {
            StorageFault::Crash { .. } => "replica_crash",
            StorageFault::Partition { .. } => "partition",
        }
    }
}

/// Per-kind fault probabilities and magnitudes. All probabilities are
/// per *decision point* (one transmission, one fs operation) and
/// default to zero — an empty config injects nothing.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Probability a transmission is dropped.
    pub net_drop_p: f64,
    /// Probability a transmission resets the connection.
    pub net_reset_p: f64,
    /// Probability a transmission suffers a latency spike.
    pub net_spike_p: f64,
    /// Spike magnitude range, virtual ns (inclusive bounds).
    pub net_spike_ns: (u64, u64),
    /// Probability a multi-byte transmission is split in two.
    pub net_split_p: f64,
    /// Probability an fs operation fails with transient `EIO`.
    pub fs_eio_p: f64,
    /// Probability a *write* fs operation fails with `ENOSPC`.
    pub fs_quota_p: f64,
    /// Probability an fs operation completes slowly.
    pub fs_slow_p: f64,
    /// Slow-completion magnitude range, virtual ns (inclusive bounds).
    pub fs_slow_ns: (u64, u64),
    /// Probability a storage node crashes at a protocol decision point.
    pub storage_crash_p: f64,
    /// Crash restart delay range, virtual ns (inclusive bounds).
    pub storage_crash_restart_ns: (u64, u64),
    /// Probability a replication transmission partitions its link.
    pub storage_partition_p: f64,
    /// Partition heal delay range, virtual ns (inclusive bounds).
    pub storage_partition_ns: (u64, u64),
    /// Hard cap on injected network faults (recovery budget).
    pub max_net_faults: u32,
    /// Hard cap on injected fs faults (recovery budget).
    pub max_fs_faults: u32,
    /// Hard cap on injected storage faults (recovery budget).
    pub max_storage_faults: u32,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            net_drop_p: 0.0,
            net_reset_p: 0.0,
            net_spike_p: 0.0,
            net_spike_ns: (1_000_000, 20_000_000),
            net_split_p: 0.0,
            fs_eio_p: 0.0,
            fs_quota_p: 0.0,
            fs_slow_p: 0.0,
            fs_slow_ns: (1_000_000, 20_000_000),
            storage_crash_p: 0.0,
            storage_crash_restart_ns: (20_000_000, 100_000_000),
            storage_partition_p: 0.0,
            storage_partition_ns: (50_000_000, 200_000_000),
            max_net_faults: u32::MAX,
            max_fs_faults: u32::MAX,
            max_storage_faults: u32::MAX,
        }
    }
}

impl FaultConfig {
    /// A light mixed workload: occasional faults of every kind, bounded
    /// so workloads with retry/backoff always recover.
    pub fn light() -> FaultConfig {
        FaultConfig {
            net_drop_p: 0.02,
            net_reset_p: 0.01,
            net_spike_p: 0.05,
            net_split_p: 0.05,
            fs_eio_p: 0.02,
            fs_quota_p: 0.01,
            fs_slow_p: 0.05,
            storage_crash_p: 0.005,
            storage_partition_p: 0.01,
            max_net_faults: 64,
            max_fs_faults: 256,
            max_storage_faults: 4,
            ..FaultConfig::default()
        }
    }

    /// An aggressive profile for stress tests: every kind fires often.
    pub fn chaos() -> FaultConfig {
        FaultConfig {
            net_drop_p: 0.10,
            net_reset_p: 0.05,
            net_spike_p: 0.15,
            net_split_p: 0.15,
            fs_eio_p: 0.10,
            fs_quota_p: 0.05,
            fs_slow_p: 0.15,
            storage_crash_p: 0.02,
            storage_partition_p: 0.05,
            max_net_faults: 512,
            max_fs_faults: 2048,
            max_storage_faults: 16,
            ..FaultConfig::default()
        }
    }
}

/// One recorded injection, in decision order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Virtual timestamp of the decision.
    pub ts_ns: u64,
    /// Fault kind name (`"drop"`, `"transient_eio"`, ...).
    pub kind: &'static str,
    /// Decision-point detail (direction + bytes, or op + path).
    pub detail: String,
}

struct PlanInner {
    rng: SplitMix64,
    cfg: FaultConfig,
    net_injected: u32,
    fs_injected: u32,
    storage_injected: u32,
    log: Vec<FaultRecord>,
}

impl PlanInner {
    /// The injected count and the cap of `domain`'s recovery budget.
    fn budget(&mut self, domain: Domain) -> (&mut u32, u32) {
        match domain {
            Domain::Net => (&mut self.net_injected, self.cfg.max_net_faults),
            Domain::Fs | Domain::Pipe => (&mut self.fs_injected, self.cfg.max_fs_faults),
            Domain::Storage => (&mut self.storage_injected, self.cfg.max_storage_faults),
        }
    }
}

/// Where a fault decision is made. Pipe faults share the fs budget.
#[derive(Clone, Copy)]
enum Domain {
    Net,
    Fs,
    Pipe,
    Storage,
}

impl Domain {
    /// The `<domain>` of `fault.<domain>.<kind>` counters.
    fn name(self) -> &'static str {
        match self {
            Domain::Net => "net",
            Domain::Fs => "fs",
            Domain::Pipe => "pipe",
            Domain::Storage => "storage",
        }
    }

    /// The name of the trace instant an injection emits.
    fn instant(self) -> &'static str {
        match self {
            Domain::Net => "net_fault",
            Domain::Fs => "fs_fault",
            Domain::Pipe => "pipe_fault",
            Domain::Storage => "storage_fault",
        }
    }
}

/// A seeded, virtual-clock-driven fault plan. Cheaply cloneable; all
/// clones share one PRNG stream and one log, so a single plan can be
/// injected into the network fabric and several backends at once while
/// staying fully deterministic.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Rc<RefCell<PlanInner>>,
}

impl FaultPlan {
    /// A plan drawing from `seed` under `cfg`. Equal seeds and equal
    /// decision sequences produce identical fault sequences.
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            inner: Rc::new(RefCell::new(PlanInner {
                rng: SplitMix64::new(seed),
                cfg,
                net_injected: 0,
                fs_injected: 0,
                storage_injected: 0,
                log: Vec::new(),
            })),
        }
    }

    /// One fault decision in `domain`. Once the domain's budget is
    /// spent nothing fires; otherwise `draw` picks the fault from the
    /// plan's stream, in its domain's fixed evaluation order (which
    /// keeps the stream reproducible). A fault that fires is charged
    /// to the budget, logged with `detail`, counted as
    /// `fault.<domain>.<kind>`, and traced as a `<domain>_fault`
    /// instant whose args are its kind and `args`.
    fn decide<F>(
        &self,
        engine: &Engine,
        domain: Domain,
        name: fn(&F) -> &'static str,
        draw: impl FnOnce(&mut SplitMix64, &FaultConfig) -> Option<F>,
        detail: impl FnOnce() -> String,
        args: impl FnOnce() -> [(&'static str, ArgValue); 2],
    ) -> Option<F> {
        let (fault, kind) = {
            let mut p = self.inner.borrow_mut();
            let p = &mut *p;
            let (injected, cap) = p.budget(domain);
            if *injected >= cap {
                return None;
            }
            let fault = draw(&mut p.rng, &p.cfg)?;
            let kind = name(&fault);
            *p.budget(domain).0 += 1;
            p.log.push(FaultRecord {
                ts_ns: engine.now_ns(),
                kind,
                detail: detail(),
            });
            (fault, kind)
        };
        // Faults are rare; a registry lookup here is fine and lets the
        // RunReport count injections without holding the plan.
        engine
            .metrics()
            .counter(&format!("fault.{}.{kind}", domain.name()))
            .inc();
        let tracer = engine.tracer();
        if tracer.enabled() {
            let [a, b] = args();
            tracer.instant(
                cat::FAULT,
                domain.instant(),
                engine.now_ns(),
                0,
                vec![("kind", ArgValue::from(kind)), a, b],
            );
        }
        Some(fault)
    }

    /// Decide the fate of one network transmission of `bytes` payload
    /// bytes in direction `dir` (`"c2s"` / `"s2c"`). Returns `None` for
    /// normal delivery. The decision is logged and traced.
    pub fn net_fault(&self, engine: &Engine, dir: &'static str, bytes: usize) -> Option<NetFault> {
        self.decide(
            engine,
            Domain::Net,
            NetFault::name,
            |rng, cfg| {
                if rng.gen_bool(cfg.net_reset_p) {
                    Some(NetFault::Reset)
                } else if rng.gen_bool(cfg.net_drop_p) {
                    Some(NetFault::Drop)
                } else if rng.gen_bool(cfg.net_spike_p) {
                    let (lo, hi) = cfg.net_spike_ns;
                    Some(NetFault::LatencySpike(rng.gen_range(lo..=hi)))
                } else if bytes > 1 && rng.gen_bool(cfg.net_split_p) {
                    Some(NetFault::Split(rng.gen_range(1..bytes)))
                } else {
                    None
                }
            },
            || format!("{dir} {bytes}B"),
            || {
                [
                    ("dir", ArgValue::from(dir)),
                    ("bytes", ArgValue::U64(bytes as u64)),
                ]
            },
        )
    }

    /// Decide the fate of one fs backend operation `op` on `path`.
    /// `writes` marks data-mutating operations — only those can draw a
    /// quota fault. Returns `None` for normal completion.
    pub fn fs_fault(
        &self,
        engine: &Engine,
        op: &'static str,
        path: &str,
        writes: bool,
    ) -> Option<FsFault> {
        self.decide(
            engine,
            Domain::Fs,
            FsFault::name,
            |rng, cfg| {
                if rng.gen_bool(cfg.fs_eio_p) {
                    Some(FsFault::TransientEio)
                } else if writes && rng.gen_bool(cfg.fs_quota_p) {
                    Some(FsFault::QuotaExceeded)
                } else if rng.gen_bool(cfg.fs_slow_p) {
                    let (lo, hi) = cfg.fs_slow_ns;
                    Some(FsFault::SlowCompletion(rng.gen_range(lo..=hi)))
                } else {
                    None
                }
            },
            || format!("{op} {path}"),
            || {
                [
                    ("op", ArgValue::from(op)),
                    ("path", ArgValue::from(path.to_string())),
                ]
            },
        )
    }

    /// Decide the fate of one kernel pipe operation `op` (`"read"` /
    /// `"write"`) on pipe `pipe`. Pipe faults draw from the fs
    /// probability fields and share the fs recovery budget — a pipe is
    /// the same kind of byte-stream substrate, just process-local.
    /// Quota faults never apply; only [`FsFault::TransientEio`] and
    /// [`FsFault::SlowCompletion`] can fire. Returns `None` for normal
    /// completion.
    pub fn pipe_fault(&self, engine: &Engine, op: &'static str, pipe: u64) -> Option<FsFault> {
        self.decide(
            engine,
            Domain::Pipe,
            FsFault::name,
            |rng, cfg| {
                if rng.gen_bool(cfg.fs_eio_p) {
                    Some(FsFault::TransientEio)
                } else if rng.gen_bool(cfg.fs_slow_p) {
                    let (lo, hi) = cfg.fs_slow_ns;
                    Some(FsFault::SlowCompletion(rng.gen_range(lo..=hi)))
                } else {
                    None
                }
            },
            || format!("{op} pipe#{pipe}"),
            || [("op", ArgValue::from(op)), ("pipe", ArgValue::U64(pipe))],
        )
    }

    /// Decide the fate of one replicated-storage protocol step `op`
    /// (`"get"` / `"put"` / `"delete"` / `"replicate"` / `"apply"`) on
    /// storage node `node`. A crash loses the node's volatile state
    /// mid-operation (the journal survives); a partition drops the
    /// replication link's traffic until it heals. Returns `None` for
    /// normal execution.
    pub fn storage_fault(
        &self,
        engine: &Engine,
        node: &str,
        op: &'static str,
    ) -> Option<StorageFault> {
        self.decide(
            engine,
            Domain::Storage,
            StorageFault::name,
            |rng, cfg| {
                if rng.gen_bool(cfg.storage_crash_p) {
                    let (lo, hi) = cfg.storage_crash_restart_ns;
                    Some(StorageFault::Crash {
                        restart_after_ns: rng.gen_range(lo..=hi),
                    })
                } else if op == "replicate" && rng.gen_bool(cfg.storage_partition_p) {
                    let (lo, hi) = cfg.storage_partition_ns;
                    Some(StorageFault::Partition {
                        heal_after_ns: rng.gen_range(lo..=hi),
                    })
                } else {
                    None
                }
            },
            || format!("{op} {node}"),
            || {
                [
                    ("op", ArgValue::from(op)),
                    ("node", ArgValue::from(node.to_string())),
                ]
            },
        )
    }

    /// Network faults injected so far.
    pub fn net_injected(&self) -> u32 {
        self.inner.borrow().net_injected
    }

    /// Fs faults injected so far.
    pub fn fs_injected(&self) -> u32 {
        self.inner.borrow().fs_injected
    }

    /// Storage faults injected so far.
    pub fn storage_injected(&self) -> u32 {
        self.inner.borrow().storage_injected
    }

    /// The full injection log, in decision order.
    pub fn log(&self) -> Vec<FaultRecord> {
        self.inner.borrow().log.clone()
    }

    /// The distinct fault kinds that have fired.
    pub fn kinds_fired(&self) -> BTreeSet<&'static str> {
        self.inner.borrow().log.iter().map(|r| r.kind).collect()
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.inner.borrow();
        f.debug_struct("FaultPlan")
            .field("net_injected", &p.net_injected)
            .field("fs_injected", &p.fs_injected)
            .finish_non_exhaustive()
    }
}

/// First-attempt backoff delay, virtual ns.
const BACKOFF_BASE_NS: u64 = 10_000_000;

/// Ceiling on any backoff delay, virtual ns.
const BACKOFF_MAX_NS: u64 = 2_000_000_000;

/// Total attempts a retrying fs operation makes, the first included.
pub const RETRY_ATTEMPTS: u32 = 5;

/// Seeded exponential backoff with jitter: the delay before retry
/// number `attempt` (0-based), using `rand` as the jitter draw.
///
/// A pure function of its inputs: callers pass a draw from a
/// deterministic stream (typically `Engine::random_u64`), so backoff
/// schedules replay exactly under the same seed. The delay is drawn
/// uniformly from `[cap/2, cap]`, where `cap = min(10 ms · 2^attempt,
/// 2 s)`.
pub fn backoff_delay_ns(attempt: u32, rand: u64) -> u64 {
    let cap = BACKOFF_BASE_NS
        .saturating_mul(2u64.saturating_pow(attempt))
        .min(BACKOFF_MAX_NS);
    let span = cap / 2;
    cap - span + rand % (span + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_jsengine::Browser;

    #[test]
    fn empty_config_injects_nothing() {
        let engine = Engine::new(Browser::Chrome);
        let plan = FaultPlan::new(1, FaultConfig::default());
        for i in 0..1000 {
            assert_eq!(plan.net_fault(&engine, "c2s", i), None);
            assert_eq!(plan.fs_fault(&engine, "stat", "/x", i % 2 == 0), None);
        }
        assert_eq!(plan.net_injected(), 0);
        assert_eq!(plan.fs_injected(), 0);
    }

    #[test]
    fn same_seed_same_decision_sequence() {
        let engine = Engine::new(Browser::Chrome);
        let run = |seed| {
            let plan = FaultPlan::new(seed, FaultConfig::chaos());
            let mut out = Vec::new();
            for i in 0..500 {
                out.push(format!("{:?}", plan.net_fault(&engine, "c2s", 64 + i)));
                out.push(format!(
                    "{:?}",
                    plan.fs_fault(&engine, "open", "/a/b", i % 3 == 0)
                ));
            }
            (out, plan.log())
        };
        let (a, la) = run(42);
        let (b, lb) = run(42);
        assert_eq!(a, b);
        assert_eq!(la, lb);
        let (c, _) = run(43);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn budget_caps_injection() {
        let engine = Engine::new(Browser::Chrome);
        let cfg = FaultConfig {
            net_drop_p: 1.0,
            max_net_faults: 3,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(7, cfg);
        let fired = (0..100)
            .filter(|_| plan.net_fault(&engine, "c2s", 10).is_some())
            .count();
        assert_eq!(fired, 3);
        assert_eq!(plan.net_injected(), 3);
    }

    #[test]
    fn pipe_faults_share_the_fs_budget_and_never_draw_quota() {
        let engine = Engine::new(Browser::Chrome);
        // Quota at certainty: pipes must never draw it, even on writes.
        let cfg = FaultConfig {
            fs_quota_p: 1.0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(13, cfg);
        for i in 0..50 {
            let op = if i % 2 == 0 { "read" } else { "write" };
            assert_eq!(plan.pipe_fault(&engine, op, 1), None);
        }

        // The fs budget bounds pipe injections too.
        let cfg = FaultConfig {
            fs_eio_p: 1.0,
            max_fs_faults: 2,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(13, cfg);
        let fired = (0..20)
            .filter(|_| plan.pipe_fault(&engine, "write", 7).is_some())
            .count();
        assert_eq!(fired, 2);
        assert_eq!(plan.fs_injected(), 2);
        assert!(plan.log().iter().all(|r| r.detail == "write pipe#7"));
    }

    #[test]
    fn quota_faults_only_hit_writes() {
        let engine = Engine::new(Browser::Chrome);
        let cfg = FaultConfig {
            fs_quota_p: 1.0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(9, cfg);
        for _ in 0..50 {
            assert_eq!(plan.fs_fault(&engine, "stat", "/x", false), None);
        }
        assert_eq!(
            plan.fs_fault(&engine, "sync", "/x", true),
            Some(FsFault::QuotaExceeded)
        );
    }

    #[test]
    fn split_points_stay_inside_the_payload() {
        let engine = Engine::new(Browser::Chrome);
        let cfg = FaultConfig {
            net_split_p: 1.0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(11, cfg);
        for bytes in 2..200 {
            match plan.net_fault(&engine, "s2c", bytes) {
                Some(NetFault::Split(at)) => assert!(at >= 1 && at < bytes),
                other => panic!("expected split, got {other:?}"),
            }
        }
        // Single-byte segments cannot be split.
        assert_eq!(plan.net_fault(&engine, "s2c", 1), None);
    }

    #[test]
    fn storage_faults_have_their_own_budget_and_kinds() {
        let engine = Engine::new(Browser::Chrome);
        let cfg = FaultConfig {
            storage_crash_p: 1.0,
            storage_crash_restart_ns: (5, 5),
            max_storage_faults: 2,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(3, cfg);
        let fired: Vec<_> = (0..10)
            .filter_map(|_| plan.storage_fault(&engine, "node0", "put"))
            .collect();
        assert_eq!(
            fired,
            vec![
                StorageFault::Crash {
                    restart_after_ns: 5
                },
                StorageFault::Crash {
                    restart_after_ns: 5
                }
            ]
        );
        assert_eq!(plan.storage_injected(), 2);
        // The net/fs budgets are untouched.
        assert_eq!(plan.net_injected(), 0);
        assert_eq!(plan.fs_injected(), 0);
        assert_eq!(engine.metrics().get("fault.storage.replica_crash"), 2);
        assert!(plan.log().iter().all(|r| r.detail == "put node0"));
    }

    #[test]
    fn partitions_only_hit_replication_links() {
        let engine = Engine::new(Browser::Chrome);
        let cfg = FaultConfig {
            storage_partition_p: 1.0,
            storage_partition_ns: (9, 9),
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(5, cfg);
        // Client-facing ops never partition — only replication sends.
        for op in ["get", "put", "delete", "apply"] {
            assert_eq!(plan.storage_fault(&engine, "node0", op), None);
        }
        assert_eq!(
            plan.storage_fault(&engine, "node0->node1", "replicate"),
            Some(StorageFault::Partition { heal_after_ns: 9 })
        );
        assert_eq!(engine.metrics().get("fault.storage.partition"), 1);
    }

    #[test]
    fn storage_faults_are_seed_deterministic() {
        let engine = Engine::new(Browser::Chrome);
        let run = |seed| {
            let plan = FaultPlan::new(seed, FaultConfig::chaos());
            let mut out = Vec::new();
            for i in 0..200 {
                let op = if i % 3 == 0 { "replicate" } else { "put" };
                out.push(format!("{:?}", plan.storage_fault(&engine, "node1", op)));
            }
            (out, plan.log())
        };
        let (a, la) = run(77);
        let (b, lb) = run(77);
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let ms = 1_000_000;
        let caps = [10, 20, 40, 80, 160, 320, 640, 1280, 2000, 2000, 2000];
        for (attempt, cap) in caps.into_iter().enumerate() {
            let attempt = attempt as u32;
            let cap = cap * ms;
            // The draw spans [cap/2, cap]: 0 lands on the floor, cap/2
            // on the cap itself.
            assert_eq!(backoff_delay_ns(attempt, 0), cap / 2);
            assert_eq!(backoff_delay_ns(attempt, cap / 2), cap);
            for rand in [1u64, 999, cap, u64::MAX] {
                let d = backoff_delay_ns(attempt, rand);
                assert!((cap / 2..=cap).contains(&d), "{d} outside [cap/2, {cap}]");
                assert_eq!(
                    d,
                    backoff_delay_ns(attempt, rand),
                    "same draw, same delay (deterministic)"
                );
            }
        }
    }

    #[test]
    fn overflow_saturates_at_max() {
        // 2^attempt overflows from attempt 64 on; the delay must
        // saturate at the 2 s cap, not wrap.
        let cap = 2_000_000_000;
        for attempt in [63, 64, 1_000, u32::MAX] {
            assert_eq!(backoff_delay_ns(attempt, 0), cap / 2);
            assert_eq!(backoff_delay_ns(attempt, cap / 2), cap);
            assert!(backoff_delay_ns(attempt, u64::MAX) <= cap);
        }
    }
}
