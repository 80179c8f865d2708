//! The Doppio execution environment (§4 of the paper).
//!
//! Browsers run JavaScript as a sequence of finite-duration events on a
//! single thread; long computations freeze the page and are eventually
//! killed by the watchdog, and the asynchronous-only browser APIs can
//! never be wrapped synchronously *in JavaScript* (§3). Doppio's answer
//! is an execution environment in which hosted programs:
//!
//! * keep their call stacks in explicit heap objects,
//! * periodically perform **suspend checks** driven by an adaptive
//!   counter ([`suspend::SuspendTimer`]), and yield the JavaScript
//!   thread when one fires — *automatic event segmentation* (§4.1),
//! * emulate **synchronous source-language APIs** over asynchronous
//!   browser APIs by blocking the *guest* thread while the JavaScript
//!   thread keeps servicing events (§4.2), and
//! * gain **multithreading** from a pool of explicit stacks plus a
//!   scheduler — cooperative in JavaScript, preemptive in the source
//!   language's semantics (§4.3).
//!
//! Resumption callbacks travel through the fastest asynchronous
//! mechanism the active browser offers: `setImmediate`, else
//! `sendMessage`, else clamped `setTimeout` (§4.4).
//!
//! # Example: segmented execution stays responsive
//!
//! ```
//! use doppio_jsengine::{Browser, Engine};
//! use doppio_core::{DoppioRuntime, FnThread, ThreadStep};
//!
//! let engine = Engine::new(Browser::Chrome);
//! let runtime = DoppioRuntime::new(&engine);
//!
//! // A "long" computation: 200k work units, segmented automatically.
//! let mut remaining = 200_000u64;
//! runtime.spawn(
//!     "compute",
//!     Box::new(FnThread::new(move |ctx| {
//!         while remaining > 0 {
//!             ctx.engine().charge(doppio_jsengine::Cost::IntOp);
//!             remaining -= 1;
//!             if ctx.should_suspend() {
//!                 return ThreadStep::Yielded;
//!             }
//!         }
//!         ThreadStep::Finished
//!     })),
//! );
//! let stats = runtime.run_to_completion().unwrap();
//! assert!(stats.wall_ns() > 0);
//! // The watchdog never fired: every event stayed finite.
//! assert_eq!(engine.metrics().get("engine.watchdog_kills"), 0);
//! ```

pub mod kernel;
pub mod report;
pub mod runtime;
pub mod suspend;
pub mod waitgraph;

pub use kernel::{
    BuildOnKernel, ExitStatus, Kernel, KernelError, Pid, PipeId, PipeRead, PipeWrite, Process,
    ProcessSummary, Signal, SpawnOptions, WaitPid, DEFAULT_PIPE_CAPACITY,
};
pub use report::RunReport;
pub use runtime::{
    AsyncCell, AsyncResolver, BlockTimeout, DoppioRuntime, GuestThread, RoundRobinScheduler,
    RuntimeError, RuntimeStats, Scheduler, ThreadContext, ThreadId, ThreadState, ThreadStep,
};
pub use suspend::{SuspendTimer, DEFAULT_TIME_SLICE_NS};
pub use waitgraph::{
    BlockEdge, DeadlockReport, DeadlockThread, LockOrderWarning, Resource, WaitGraph,
};

/// Adapts a closure into a [`GuestThread`].
///
/// The closure is the thread's whole program: it is called once per
/// slice and must keep its resumption state in captured variables (the
/// explicit-stack requirement of §4.1).
pub struct FnThread<F: FnMut(&mut ThreadContext<'_>) -> ThreadStep> {
    f: F,
    name: String,
}

impl<F: FnMut(&mut ThreadContext<'_>) -> ThreadStep> FnThread<F> {
    /// Wrap a closure as a guest thread.
    pub fn new(f: F) -> FnThread<F> {
        FnThread {
            f,
            name: "fn-thread".to_string(),
        }
    }

    /// Wrap a closure with a diagnostic name.
    pub fn named(name: impl Into<String>, f: F) -> FnThread<F> {
        FnThread {
            f,
            name: name.into(),
        }
    }
}

impl<F: FnMut(&mut ThreadContext<'_>) -> ThreadStep> GuestThread for FnThread<F> {
    fn run(&mut self, ctx: &mut ThreadContext<'_>) -> ThreadStep {
        (self.f)(ctx)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_jsengine::{Browser, Cost, Engine};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A compute-bound guest: `units` work items, suspend checks every
    /// item (a tight "call boundary" model).
    fn compute_thread(units: u64, cost: Cost) -> impl FnMut(&mut ThreadContext<'_>) -> ThreadStep {
        let mut remaining = units;
        move |ctx| {
            while remaining > 0 {
                ctx.engine().charge(cost);
                remaining -= 1;
                if ctx.should_suspend() {
                    return ThreadStep::Yielded;
                }
            }
            ThreadStep::Finished
        }
    }

    #[test]
    fn long_computation_never_trips_the_watchdog() {
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        // ~1.2 virtual seconds of work at 60ns dispatch — enough for
        // hundreds of time slices.
        rt.spawn(
            "main",
            Box::new(FnThread::new(compute_thread(20_000_000, Cost::Dispatch))),
        );
        let stats = rt.run_to_completion().unwrap();
        assert!(stats.suspensions > 100, "suspended {}", stats.suspensions);
        let m = engine.metrics();
        assert_eq!(m.get("engine.watchdog_kills"), 0);
        // Every event stayed within ~2 time slices.
        assert!(m.get("engine.max_event_ns") < 3 * DEFAULT_TIME_SLICE_NS);
    }

    #[test]
    fn without_segmentation_the_watchdog_kills_the_page() {
        // The §3 problem, demonstrated: ~6 virtual seconds of work
        // (past the 5 s watchdog limit) as one monolithic event.
        let engine = Engine::new(Browser::Chrome);
        engine.send_message(|e| {
            e.charge_n(Cost::Dispatch, 100_000_000);
        });
        engine.run_until_idle();
        assert_eq!(engine.metrics().get("engine.watchdog_kills"), 1);
    }

    #[test]
    fn user_input_is_serviced_during_computation() {
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        rt.spawn(
            "main",
            Box::new(FnThread::new(compute_thread(5_000_000, Cost::Dispatch))),
        );
        rt.start();
        // Let the computation get going, then inject user input.
        for _ in 0..4 {
            engine.run_one();
        }
        let input_latency = Rc::new(RefCell::new(None));
        let (lat, t0) = (input_latency.clone(), engine.now_ns());
        engine.inject_user_input(move |e| {
            *lat.borrow_mut() = Some(e.now_ns() - t0);
        });
        engine.run_until_idle();
        assert!(rt.is_finished());
        let latency = input_latency.borrow().expect("input ran");
        // Input was handled within roughly one time slice, not after
        // the whole multi-second computation.
        assert!(
            latency < 3 * DEFAULT_TIME_SLICE_NS,
            "input latency {latency} ns"
        );
    }

    #[test]
    fn threads_interleave_round_robin() {
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        for (name, tag) in [("a", "a"), ("b", "b")] {
            let log = log.clone();
            let mut remaining = 3_000_000u64;
            rt.spawn(
                name,
                Box::new(FnThread::new(move |ctx| {
                    log.borrow_mut().push(tag);
                    while remaining > 0 {
                        ctx.engine().charge(Cost::IntOp);
                        remaining -= 1;
                        if ctx.should_suspend() {
                            return ThreadStep::Yielded;
                        }
                    }
                    ThreadStep::Finished
                })),
            );
        }
        let stats = rt.run_to_completion().unwrap();
        assert!(stats.context_switches > 2, "{stats:?}");
        let log = log.borrow();
        // Slices of a and b alternate.
        assert!(log.windows(2).any(|w| w == ["a", "b"]));
        assert!(log.windows(2).any(|w| w == ["b", "a"]));
    }

    #[test]
    fn blocking_on_async_api_delivers_the_value_synchronously() {
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        let result: Rc<RefCell<Option<u32>>> = Rc::new(RefCell::new(None));
        let out = result.clone();

        // A guest that "synchronously" calls an async API returning 42
        // after 1 ms of external latency.
        let mut pending: Option<AsyncCell<u32>> = None;
        rt.spawn(
            "blocker",
            Box::new(FnThread::new(move |ctx| {
                if let Some(cell) = pending.take() {
                    let v = cell.take().expect("woken only after resolve");
                    *out.borrow_mut() = Some(v);
                    return ThreadStep::Finished;
                }
                let cell = ctx.block_on(|engine, resolver| {
                    engine.complete_async_after(1_000_000, move |_| resolver.resolve(42));
                });
                pending = Some(cell);
                ThreadStep::Blocked
            })),
        );
        rt.run_to_completion().unwrap();
        assert_eq!(*result.borrow(), Some(42));
    }

    #[test]
    fn block_on_timeout_wakes_with_an_error_when_the_value_never_comes() {
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        let result: Rc<RefCell<Option<Result<u32, BlockTimeout>>>> = Rc::new(RefCell::new(None));
        let out = result.clone();
        let mut pending: Option<AsyncCell<Result<u32, BlockTimeout>>> = None;
        rt.spawn(
            "waiter",
            Box::new(FnThread::new(move |ctx| {
                if let Some(cell) = pending.take() {
                    *out.borrow_mut() = Some(cell.take().expect("woken with a result"));
                    return ThreadStep::Finished;
                }
                // The resolver is dropped unfired: only the deadline
                // can wake this thread.
                let cell = ctx.block_on_timeout(5_000_000, |_, _resolver| {});
                pending = Some(cell);
                ThreadStep::Blocked
            })),
        );
        rt.run_to_completion().unwrap();
        assert_eq!(*result.borrow(), Some(Err(BlockTimeout)));
    }

    #[test]
    fn block_on_timeout_value_beats_a_later_deadline() {
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        let result: Rc<RefCell<Option<Result<u32, BlockTimeout>>>> = Rc::new(RefCell::new(None));
        let out = result.clone();
        let mut pending: Option<AsyncCell<Result<u32, BlockTimeout>>> = None;
        rt.spawn(
            "waiter",
            Box::new(FnThread::new(move |ctx| {
                if let Some(cell) = pending.take() {
                    *out.borrow_mut() = Some(cell.take().expect("woken with a result"));
                    return ThreadStep::Finished;
                }
                let cell = ctx.block_on_timeout(10_000_000, |engine, resolver| {
                    engine.complete_async_after(1_000_000, move |_| resolver.resolve(99));
                });
                pending = Some(cell);
                ThreadStep::Blocked
            })),
        );
        // The late deadline still fires on the event loop; it must be a
        // no-op against the already-delivered value.
        rt.run_to_completion().unwrap();
        engine.run_until_idle();
        assert_eq!(*result.borrow(), Some(Ok(99)));
    }

    #[test]
    fn deadlock_is_detected_and_named() {
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        rt.spawn("stuck", Box::new(FnThread::new(|_ctx| ThreadStep::Blocked)));
        let err = rt.run_to_completion().unwrap_err();
        let RuntimeError::Deadlock {
            blocked, report, ..
        } = &err;
        assert_eq!(blocked, &vec!["stuck".to_string()]);
        // No wait-for edge was reported, so there is no cycle to show.
        assert!(report.is_none());
        assert!(err.to_string().contains("stuck"));
    }

    #[test]
    fn wait_for_cycle_is_reported_with_blame() {
        use crate::waitgraph::Resource;
        // Two threads, each holding one monitor and blocking on the
        // other's — the classic AB-BA deadlock, reported via the
        // wait-for graph rather than by draining the event loop.
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        let mk = |held: u64, wants: u64, site: &'static str| {
            let mut acquired = false;
            move |ctx: &mut ThreadContext<'_>| {
                let rt = ctx.runtime().clone();
                let id = ctx.thread_id();
                if !acquired {
                    acquired = true;
                    rt.note_acquire(id, Resource::Monitor(held));
                    return ThreadStep::Yielded;
                }
                rt.note_block(id, Resource::Monitor(wants), site);
                ThreadStep::Blocked
            }
        };
        rt.spawn("alice", Box::new(FnThread::new(mk(1, 2, "A.lock"))));
        rt.spawn("bob", Box::new(FnThread::new(mk(2, 1, "B.lock"))));
        let err = rt.run_to_completion().unwrap_err();
        let RuntimeError::Deadlock { report, .. } = &err;
        let report = report.as_ref().expect("cycle found");
        assert_eq!(report.cycle.len(), 2);
        let msg = err.to_string();
        assert!(msg.contains("alice"), "{msg}");
        assert!(msg.contains("bob"), "{msg}");
        assert!(msg.contains("monitor #1"), "{msg}");
        assert!(msg.contains("monitor #2"), "{msg}");
        assert!(msg.contains("A.lock"), "{msg}");
    }

    #[test]
    fn losing_resolver_does_not_leave_a_stale_wake() {
        // A block_on_timeout whose deadline wins: the late resolver
        // must not wake the thread again once its value has lost the
        // race (a stale wake would corrupt a later unrelated block).
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        let mut pending: Option<AsyncCell<Result<u32, BlockTimeout>>> = None;
        let mut phase = 0u32;
        let observed = Rc::new(RefCell::new(Vec::new()));
        let obs = observed.clone();
        let id = rt.spawn(
            "racer",
            Box::new(FnThread::new(move |ctx| {
                match phase {
                    0 => {
                        phase = 1;
                        // Deadline (1 ms) beats the value (2 ms).
                        let cell = ctx.block_on_timeout(1_000_000, |engine, resolver| {
                            engine.complete_async_after(2_000_000, move |_| resolver.resolve(5));
                        });
                        pending = Some(cell);
                        ThreadStep::Blocked
                    }
                    1 => {
                        phase = 2;
                        obs.borrow_mut()
                            .push(pending.take().unwrap().take().unwrap());
                        // Linger past the loser's arrival so a stale
                        // wake (the bug) would be observable as
                        // wake_pending on a Ready thread.
                        ctx.engine().charge_n(doppio_jsengine::Cost::IntOp, 100);
                        ThreadStep::Yielded
                    }
                    _ => {
                        if ctx.engine().now_ns() < 4_000_000 {
                            return ThreadStep::Yielded;
                        }
                        ThreadStep::Finished
                    }
                }
            })),
        );
        rt.run_to_completion().unwrap();
        assert_eq!(*observed.borrow(), vec![Err(BlockTimeout)]);
        assert!(
            !rt.wake_is_pending(id),
            "losing resolver fired a spurious wake"
        );
    }

    #[test]
    fn wake_before_block_does_not_lose_the_thread() {
        // The resolver fires *during* the slice (synchronously), before
        // the thread returns Blocked. wake_pending must save it.
        let engine = Engine::new(Browser::Ie8); // sendMessage is synchronous here
        let rt = DoppioRuntime::new(&engine);
        let mut pending: Option<AsyncCell<u32>> = None;
        let done = Rc::new(RefCell::new(false));
        let d = done.clone();
        rt.spawn(
            "racy",
            Box::new(FnThread::new(move |ctx| {
                if let Some(cell) = pending.take() {
                    assert_eq!(cell.take(), Some(7));
                    *d.borrow_mut() = true;
                    return ThreadStep::Finished;
                }
                let cell = ctx.block_on(|_, resolver| {
                    // Resolve immediately, inline.
                    resolver.resolve(7);
                });
                pending = Some(cell);
                ThreadStep::Blocked
            })),
        );
        rt.run_to_completion().unwrap();
        assert!(*done.borrow());
    }

    #[test]
    fn suspension_overhead_is_small_on_chrome() {
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        rt.spawn(
            "main",
            Box::new(FnThread::new(compute_thread(20_000_000, Cost::Dispatch))),
        );
        let stats = rt.run_to_completion().unwrap();
        // The paper's Figure 5: < 2% suspended in Chrome.
        assert!(
            stats.suspension_fraction() < 0.02,
            "suspension fraction {:.4}",
            stats.suspension_fraction()
        );
        assert!(stats.suspended_ns > 0);
        assert!(stats.cpu_ns() + stats.suspended_ns == stats.wall_ns());
    }

    #[test]
    fn ie8_pays_the_settimeout_clamp_on_every_suspension() {
        // IE8's sendMessage is synchronous, so Doppio falls back to
        // setTimeout with its 4 ms clamp — suspension overhead balloons.
        let run = |browser| {
            let engine = Engine::new(browser);
            let rt = DoppioRuntime::new(&engine);
            rt.spawn(
                "main",
                Box::new(FnThread::new(compute_thread(2_000_000, Cost::Dispatch))),
            );
            rt.run_to_completion().unwrap().suspension_fraction()
        };
        let chrome = run(Browser::Chrome);
        let ie8 = run(Browser::Ie8);
        assert!(
            ie8 > 5.0 * chrome.max(1e-6),
            "ie8={ie8:.4} chrome={chrome:.4}"
        );
    }

    #[test]
    fn ie10_setimmediate_beats_chrome_sendmessage() {
        let run = |browser| {
            let engine = Engine::new(browser);
            let rt = DoppioRuntime::new(&engine);
            rt.spawn(
                "main",
                Box::new(FnThread::new(compute_thread(5_000_000, Cost::IntOp))),
            );
            let s = rt.run_to_completion().unwrap();
            (s.suspended_ns, s.suspensions)
        };
        let (chrome_ns, chrome_n) = run(Browser::Chrome);
        let (ie10_ns, ie10_n) = run(Browser::Ie10);
        // Per suspension, setImmediate is cheaper than sendMessage.
        assert!(ie10_ns / ie10_n.max(1) < chrome_ns / chrome_n.max(1));
    }

    #[test]
    fn custom_scheduler_is_honored() {
        struct LastFirst;
        impl Scheduler for LastFirst {
            fn pick(&mut self, ready: &[ThreadId]) -> ThreadId {
                *ready.last().expect("non-empty")
            }
        }
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::with_config(&engine, Box::new(LastFirst), DEFAULT_TIME_SLICE_NS);
        let order = Rc::new(RefCell::new(Vec::new()));
        for tag in ["first", "second"] {
            let order = order.clone();
            rt.spawn(
                tag,
                Box::new(FnThread::new(move |_| {
                    order.borrow_mut().push(tag);
                    ThreadStep::Finished
                })),
            );
        }
        rt.run_to_completion().unwrap();
        assert_eq!(*order.borrow(), vec!["second", "first"]);
    }

    #[test]
    fn spawned_threads_join_the_pool_mid_run() {
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        let child_ran = Rc::new(RefCell::new(false));
        let cr = child_ran.clone();
        let mut spawned = false;
        rt.spawn(
            "parent",
            Box::new(FnThread::new(move |ctx| {
                if !spawned {
                    spawned = true;
                    let cr = cr.clone();
                    ctx.spawn(
                        "child",
                        Box::new(FnThread::new(move |_| {
                            *cr.borrow_mut() = true;
                            ThreadStep::Finished
                        })),
                    );
                    return ThreadStep::Yielded;
                }
                ThreadStep::Finished
            })),
        );
        rt.run_to_completion().unwrap();
        assert!(*child_ran.borrow());
    }

    #[test]
    fn a_finished_thread_drops_its_guest_state() {
        // A runtime outlives its threads (a kernel runs every process
        // on one), so a finished thread must not keep its guest's state
        // alive.
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        let slices = Rc::new(RefCell::new(0));
        let s = slices.clone();
        rt.spawn(
            "short",
            Box::new(FnThread::new(move |_| {
                *s.borrow_mut() += 1;
                ThreadStep::Finished
            })),
        );
        rt.run_to_completion().unwrap();
        assert_eq!(*slices.borrow(), 1);
        assert_eq!(Rc::strong_count(&slices), 1);
    }

    #[test]
    fn a_finished_runtime_frees_its_world() {
        // Running a finished runtime again schedules nothing, so once
        // the embedder drops its handles nothing holds the engine and
        // the trace sink is back to its one owner.
        let sink = Rc::new(doppio_trace::RingSink::with_capacity(1 << 12));
        {
            let engine = Engine::builder(Browser::Chrome)
                .trace_sink(sink.clone())
                .build();
            let rt = DoppioRuntime::new(&engine);
            rt.spawn("short", Box::new(FnThread::new(|_| ThreadStep::Finished)));
            rt.run_to_completion().unwrap();
            rt.run_to_completion().unwrap();
            assert!(!sink.is_empty());
        }
        assert_eq!(Rc::strong_count(&sink), 1);
    }

    #[test]
    fn finished_runtime_reports_wall_time_span() {
        let engine = Engine::new(Browser::Chrome);
        let rt = DoppioRuntime::new(&engine);
        rt.spawn(
            "main",
            Box::new(FnThread::new(compute_thread(100_000, Cost::IntOp))),
        );
        let stats = rt.run_to_completion().unwrap();
        assert!(stats.finished_ns > stats.started_ns);
        assert_eq!(stats.wall_ns(), stats.finished_ns - stats.started_ns);
    }
}
