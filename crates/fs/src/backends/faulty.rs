//! A fault-injecting decorator for any [`Backend`].
//!
//! Wraps an inner backend and consults a seeded
//! [`FaultPlan`](doppio_faults::FaultPlan) before every operation:
//! the plan can fail the call with a transient `EIO`, fail a write
//! with `ENOSPC` (quota pressure), or stretch its completion by a
//! deterministic extra delay. Injections are recorded in the plan's
//! log and traced under the `fault` category, so a run's failures are
//! reproducible from the seed and visible in Perfetto — this is how
//! the retry policies in the frontend and the mount fallthrough are
//! exercised.

use doppio_faults::{FaultPlan, FsFault};
use doppio_jsengine::Engine;

use crate::backend::{deliver, Backend, FsCallback, OpenFlags, SharedBackend, Stat};
use crate::error::{Errno, FsError};

/// Latency of an injected failure (the error still crosses the event
/// loop, like any backend completion).
const FAULT_LATENCY_NS: u64 = 50_000;

/// A backend decorator that injects faults from a [`FaultPlan`].
pub struct FaultyBackend {
    inner: SharedBackend,
    plan: FaultPlan,
}

impl FaultyBackend {
    /// Wrap `inner`, drawing fault decisions from `plan`.
    pub fn new(inner: SharedBackend, plan: FaultPlan) -> FaultyBackend {
        FaultyBackend { inner, plan }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> SharedBackend {
        self.inner.clone()
    }

    /// Consult the plan for `op` on `path`; on an injected failure
    /// deliver the error through `Err(cb)`, otherwise hand the callback
    /// back along with the extra delay (0 unless a slow-completion
    /// fault fired) so the caller forwards to the inner backend.
    fn gate<T: 'static>(
        &self,
        engine: &Engine,
        op: &'static str,
        path: &str,
        writes: bool,
        cb: FsCallback<T>,
    ) -> Result<(FsCallback<T>, u64), ()> {
        match self.plan.fs_fault(engine, op, path, writes) {
            Some(FsFault::TransientEio) => {
                let err = FsError::new(Errno::Eio, path).with_detail("injected fault");
                deliver(engine, FAULT_LATENCY_NS, cb, Err(err));
                Err(())
            }
            Some(FsFault::QuotaExceeded) => {
                let err = FsError::new(Errno::Enospc, path).with_detail("injected fault");
                deliver(engine, FAULT_LATENCY_NS, cb, Err(err));
                Err(())
            }
            Some(FsFault::SlowCompletion(extra_ns)) => Ok((cb, extra_ns)),
            None => Ok((cb, 0)),
        }
    }
}

/// Forward `run` to the inner backend, optionally after an injected
/// extra delay.
fn forward(engine: &Engine, extra_ns: u64, run: impl FnOnce(&Engine) + 'static) {
    if extra_ns == 0 {
        run(engine);
    } else {
        engine.complete_async_after(extra_ns, run);
    }
}

impl Backend for FaultyBackend {
    fn name(&self) -> &'static str {
        "Faulty"
    }

    fn stat(&self, engine: &Engine, path: &str, cb: FsCallback<Stat>) {
        let Ok((cb, extra)) = self.gate(engine, "stat", path, false, cb) else {
            return;
        };
        let inner = self.inner.clone();
        let path = path.to_string();
        forward(engine, extra, move |e| inner.stat(e, &path, cb));
    }

    fn open(&self, engine: &Engine, path: &str, flags: OpenFlags, cb: FsCallback<Vec<u8>>) {
        let writes = flags.write || flags.create || flags.truncate;
        let Ok((cb, extra)) = self.gate(engine, "open", path, writes, cb) else {
            return;
        };
        let inner = self.inner.clone();
        let path = path.to_string();
        forward(engine, extra, move |e| inner.open(e, &path, flags, cb));
    }

    fn sync(&self, engine: &Engine, path: &str, data: Vec<u8>, cb: FsCallback<()>) {
        let Ok((cb, extra)) = self.gate(engine, "sync", path, true, cb) else {
            return;
        };
        let inner = self.inner.clone();
        let path = path.to_string();
        forward(engine, extra, move |e| inner.sync(e, &path, data, cb));
    }

    fn close(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        // Close is the one op left un-faulted: the frontend has already
        // committed the flush, and a failed close would strand the
        // descriptor with nothing for a retry to redo.
        self.inner.close(engine, path, cb);
    }

    fn rename(&self, engine: &Engine, from: &str, to: &str, cb: FsCallback<()>) {
        let Ok((cb, extra)) = self.gate(engine, "rename", from, true, cb) else {
            return;
        };
        let inner = self.inner.clone();
        let (from, to) = (from.to_string(), to.to_string());
        forward(engine, extra, move |e| inner.rename(e, &from, &to, cb));
    }

    fn unlink(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        let Ok((cb, extra)) = self.gate(engine, "unlink", path, true, cb) else {
            return;
        };
        let inner = self.inner.clone();
        let path = path.to_string();
        forward(engine, extra, move |e| inner.unlink(e, &path, cb));
    }

    fn mkdir(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        let Ok((cb, extra)) = self.gate(engine, "mkdir", path, true, cb) else {
            return;
        };
        let inner = self.inner.clone();
        let path = path.to_string();
        forward(engine, extra, move |e| inner.mkdir(e, &path, cb));
    }

    fn rmdir(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        let Ok((cb, extra)) = self.gate(engine, "rmdir", path, true, cb) else {
            return;
        };
        let inner = self.inner.clone();
        let path = path.to_string();
        forward(engine, extra, move |e| inner.rmdir(e, &path, cb));
    }

    fn readdir(&self, engine: &Engine, path: &str, cb: FsCallback<Vec<String>>) {
        let Ok((cb, extra)) = self.gate(engine, "readdir", path, false, cb) else {
            return;
        };
        let inner = self.inner.clone();
        let path = path.to_string();
        forward(engine, extra, move |e| inner.readdir(e, &path, cb));
    }

    // `utimes` is optional, but the decorator must override it too: the
    // trait default would answer ENOTSUP here, silently bypassing both
    // the fault plan *and* an inner backend that implements it.
    fn utimes(&self, engine: &Engine, path: &str, mtime_ns: u64, cb: FsCallback<()>) {
        let Ok((cb, extra)) = self.gate(engine, "utimes", path, true, cb) else {
            return;
        };
        let inner = self.inner.clone();
        let path = path.to_string();
        forward(engine, extra, move |e| inner.utimes(e, &path, mtime_ns, cb));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends;
    use doppio_faults::FaultConfig;
    use doppio_jsengine::{Browser, Engine};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn eio_plan(budget: u32) -> FaultPlan {
        FaultPlan::new(
            7,
            FaultConfig {
                fs_eio_p: 1.0,
                max_fs_faults: budget,
                ..FaultConfig::default()
            },
        )
    }

    #[test]
    fn injects_transient_eio_then_recovers() {
        let engine = Engine::new(Browser::Chrome);
        let plan = eio_plan(1);
        let be = FaultyBackend::new(backends::in_memory(&engine), plan.clone());
        let results = Rc::new(RefCell::new(Vec::new()));
        let r1 = results.clone();
        be.stat(
            &engine,
            "/",
            Box::new(move |_, r| r1.borrow_mut().push(r.map(|_| ()))),
        );
        let r2 = results.clone();
        be.stat(
            &engine,
            "/",
            Box::new(move |_, r| r2.borrow_mut().push(r.map(|_| ()))),
        );
        engine.run_until_idle();
        // Completion order depends on the two paths' latencies; check
        // contents, not order.
        let got = results.borrow();
        assert_eq!(got.len(), 2);
        assert_eq!(got.iter().filter(|r| r.is_ok()).count(), 1);
        let err = got.iter().find_map(|r| r.as_ref().err()).unwrap();
        assert_eq!(err.errno, Errno::Eio);
        assert_eq!(plan.fs_injected(), 1);
    }

    #[test]
    fn quota_fault_hits_writes_only() {
        let engine = Engine::new(Browser::Chrome);
        let plan = FaultPlan::new(
            3,
            FaultConfig {
                fs_quota_p: 1.0,
                ..FaultConfig::default()
            },
        );
        let be = FaultyBackend::new(backends::in_memory(&engine), plan);
        let results = Rc::new(RefCell::new(Vec::new()));
        let r1 = results.clone();
        be.mkdir(
            &engine,
            "/d",
            Box::new(move |_, r| r1.borrow_mut().push(r.map(|_| ()))),
        );
        let r2 = results.clone();
        be.stat(
            &engine,
            "/",
            Box::new(move |_, r| r2.borrow_mut().push(r.map(|_| ()))),
        );
        engine.run_until_idle();
        let got = results.borrow();
        assert_eq!(got.len(), 2);
        assert_eq!(
            got.iter().filter(|r| r.is_ok()).count(),
            1,
            "read untouched"
        );
        let err = got.iter().find_map(|r| r.as_ref().err()).unwrap();
        assert_eq!(err.errno, Errno::Enospc, "write drew the quota fault");
    }

    #[test]
    fn slow_completion_stretches_but_succeeds() {
        let engine = Engine::new(Browser::Chrome);
        let plan = FaultPlan::new(
            9,
            FaultConfig {
                fs_slow_p: 1.0,
                fs_slow_ns: (40_000_000, 40_000_000),
                max_fs_faults: 1,
                ..FaultConfig::default()
            },
        );
        let be = FaultyBackend::new(backends::in_memory(&engine), plan);
        let t0 = engine.now_ns();
        let done_at = Rc::new(RefCell::new(0u64));
        let d = done_at.clone();
        be.stat(
            &engine,
            "/",
            Box::new(move |e, r| {
                assert!(r.is_ok());
                *d.borrow_mut() = e.now_ns();
            }),
        );
        engine.run_until_idle();
        assert!(*done_at.borrow() >= t0 + 40_000_000);
    }
}
