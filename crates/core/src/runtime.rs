//! The Doppio runtime: thread pool, scheduler, and the suspend-and-
//! resume dispatch loop (§4.1–§4.4).
//!
//! Programs hosted on Doppio keep their call stacks in ordinary heap
//! objects (a [`GuestThread`] owns its explicit stack) and run in
//! *slices*: the runtime dispatches one thread, the thread executes
//! until its suspend check fires (or it finishes, or it blocks on an
//! asynchronous browser API), and the runtime then schedules a
//! *resumption callback* through the fastest asynchronous mechanism the
//! browser offers — `setImmediate`, else `sendMessage`, else
//! `setTimeout` (§4.4). Between slices, queued browser events (user
//! input!) get to run, which is what keeps the page responsive.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use doppio_jsengine::profile::ResumeMechanism;
use doppio_jsengine::Engine;
use doppio_trace::{cat, ArgValue, Histogram};

use crate::suspend::{SuspendTimer, DEFAULT_TIME_SLICE_NS};
use crate::waitgraph::{DeadlockReport, LockOrderWarning, Resource, WaitGraph};

/// Trace lane for runtime-wide events (suspension intervals, timer
/// adjustments). Lane 0 is the browser event loop; guest threads get
/// `THREAD_LANE_BASE + thread_id`.
const RUNTIME_LANE: u32 = 1;
/// First trace lane used for per-thread slices.
const THREAD_LANE_BASE: u32 = 2;

/// Identifies a thread in the runtime's thread pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub usize);

/// Lifecycle state of a guest thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    /// Eligible to run.
    Ready,
    /// Waiting on an asynchronous completion or a monitor.
    Blocked,
    /// Ran to completion.
    Finished,
}

/// What a guest thread reports at the end of a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStep {
    /// The thread's program completed.
    Finished,
    /// The suspend check fired (or the thread voluntarily yielded, e.g.
    /// at a JVM context-switch point); the thread is still ready.
    Yielded,
    /// The thread started an asynchronous operation via
    /// [`ThreadContext::block_on`] and must not run until it is woken.
    Blocked,
}

/// A program hosted on the Doppio execution environment.
///
/// Implementations must keep all resumption state in `self` (the
/// explicit call stack requirement of §4.1) and call
/// [`ThreadContext::should_suspend`] periodically — DoppioJVM does so
/// at method call boundaries (§6.1), through
/// [`ThreadContext::should_suspend_with`] since it defers its clock
/// charges — returning [`ThreadStep::Yielded`] when it fires.
pub trait GuestThread {
    /// Run one slice.
    fn run(&mut self, ctx: &mut ThreadContext<'_>) -> ThreadStep;
}

/// Picks which ready thread runs next (§4.3: "Language implementations
/// can provide a scheduling function that determines which thread to
/// resume").
pub trait Scheduler {
    /// Choose one of `ready` (non-empty, ascending order).
    fn pick(&mut self, ready: &[ThreadId]) -> ThreadId;
}

/// The default scheduler: round-robin over ready threads.
#[derive(Debug, Default)]
pub struct RoundRobinScheduler {
    last: usize,
}

impl Scheduler for RoundRobinScheduler {
    fn pick(&mut self, ready: &[ThreadId]) -> ThreadId {
        let next = ready
            .iter()
            .copied()
            .find(|t| t.0 > self.last)
            .unwrap_or(ready[0]);
        self.last = next.0;
        next
    }
}

/// Counters the runtime accumulates (these feed Figures 4 and 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Number of suspend-and-resume round trips.
    pub suspensions: u64,
    /// Virtual ns spent suspended (yield → resumption callback).
    pub suspended_ns: u64,
    /// Thread slices executed.
    pub slices: u64,
    /// Slices that switched to a different thread than the previous one.
    pub context_switches: u64,
    /// Virtual time the runtime started.
    pub started_ns: u64,
    /// Virtual time the last thread finished (0 while running).
    pub finished_ns: u64,
}

impl RuntimeStats {
    /// Wall-clock duration of the whole run, in virtual ns.
    pub fn wall_ns(&self) -> u64 {
        self.finished_ns.saturating_sub(self.started_ns)
    }

    /// CPU time: wall-clock minus suspension (the Figure 4 split).
    pub fn cpu_ns(&self) -> u64 {
        self.wall_ns().saturating_sub(self.suspended_ns)
    }

    /// Suspension as a fraction of wall-clock time (Figure 5).
    pub fn suspension_fraction(&self) -> f64 {
        if self.wall_ns() == 0 {
            0.0
        } else {
            self.suspended_ns as f64 / self.wall_ns() as f64
        }
    }
}

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Live threads are blocked and can never be woken — either a
    /// wait-for cycle was detected mid-run, or the event loop drained
    /// with live threads still blocked.
    Deadlock {
        /// Names of the blocked threads.
        blocked: Vec<String>,
        /// Per-thread blame lines from the wait-for graph (thread,
        /// site, blocked-on resource, holder).
        details: Vec<String>,
        /// The wait-for cycle, when one exists (an all-blocked state
        /// without a cycle — e.g. a lost wakeup — has no cycle to
        /// show, only blame lines).
        report: Option<DeadlockReport>,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Deadlock {
                blocked,
                details,
                report,
            } => {
                write!(
                    f,
                    "deadlock: all live threads blocked ({})",
                    blocked.join(", ")
                )?;
                if let Some(r) = report {
                    write!(f, "; {r}")?;
                }
                for line in details {
                    write!(f, "\n  {line}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

struct Slot {
    name: String,
    state: ThreadState,
    wake_pending: bool,
    /// Force-finished by [`DoppioRuntime::kill`]; the slice in flight
    /// (if any) must not resurrect the thread when it returns.
    killed: bool,
    /// Owner tag (the kernel uses pids). Inherited by threads spawned
    /// from within a slice, so a whole process's thread tree shares it.
    tag: Option<u64>,
    thread: Option<Box<dyn GuestThread>>,
}

/// A thread-finished callback: `(thread, tag)`, invoked outside the
/// runtime borrow.
type ExitHook = Rc<dyn Fn(ThreadId, Option<u64>)>;

struct Inner {
    threads: Vec<Slot>,
    scheduler: Box<dyn Scheduler>,
    timer: SuspendTimer,
    stats: RuntimeStats,
    tick_scheduled: bool,
    suspend_started_at: Option<u64>,
    last_ran: Option<ThreadId>,
    waits: WaitGraph,
    deadlock: Option<DeadlockReport>,
    /// Called (outside the runtime borrow) whenever a thread reaches
    /// `Finished`, with the thread and its tag. The kernel uses it to
    /// notice process exit without polling.
    exit_hook: Option<ExitHook>,
}

/// Distribution metrics for the Figure 5 analysis, resolved once at
/// construction like the engine's counters. Recording is gated by the
/// registry's histogram flag (off by default).
#[derive(Clone)]
struct CoreHists {
    /// Virtual duration of each executed slice.
    slice_ns: Histogram,
    /// Virtual duration of each suspension interval (yield → resume).
    suspended_ns: Histogram,
    /// The adaptive counter's value each time the suspend timer fires —
    /// its calibration trajectory over the run.
    suspend_counter: Histogram,
}

impl CoreHists {
    fn new(engine: &Engine) -> CoreHists {
        let m = engine.metrics();
        CoreHists {
            slice_ns: m.histogram("core.slice_ns"),
            suspended_ns: m.histogram("core.suspended_ns"),
            suspend_counter: m.histogram("core.suspend_counter"),
        }
    }
}

/// The Doppio execution environment.
///
/// Cheaply cloneable handle; strictly single-threaded (it lives on the
/// simulated JavaScript thread).
#[derive(Clone)]
pub struct DoppioRuntime {
    engine: Engine,
    inner: Rc<RefCell<Inner>>,
    hists: CoreHists,
}

impl fmt::Debug for DoppioRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("DoppioRuntime")
            .field("threads", &inner.threads.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl DoppioRuntime {
    /// Create a runtime on `engine` with the default round-robin
    /// scheduler and time slice.
    pub fn new(engine: &Engine) -> DoppioRuntime {
        DoppioRuntime::with_config(
            engine,
            Box::new(RoundRobinScheduler::default()),
            DEFAULT_TIME_SLICE_NS,
        )
    }

    /// Create a runtime with a custom scheduler and/or time slice.
    pub fn with_config(
        engine: &Engine,
        scheduler: Box<dyn Scheduler>,
        time_slice_ns: u64,
    ) -> DoppioRuntime {
        if engine.tracer().enabled() {
            engine.tracer().name_lane(RUNTIME_LANE, "doppio runtime");
        }
        DoppioRuntime {
            engine: engine.clone(),
            hists: CoreHists::new(engine),
            inner: Rc::new(RefCell::new(Inner {
                threads: Vec::new(),
                scheduler,
                timer: SuspendTimer::with_time_slice(engine.now_ns(), time_slice_ns),
                stats: RuntimeStats::default(),
                tick_scheduled: false,
                suspend_started_at: None,
                last_ran: None,
                waits: WaitGraph::default(),
                deadlock: None,
                exit_hook: None,
            })),
        }
    }

    /// Replace the scheduler (schedule-exploration harnesses install
    /// seeded/PCT/replay schedulers here before the first tick).
    pub fn set_scheduler(&self, scheduler: Box<dyn Scheduler>) {
        self.inner.borrow_mut().scheduler = scheduler;
    }

    /// The engine this runtime schedules on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Add a thread to the pool (Ready). Threads added after
    /// [`start`](Self::start) begin running on the next tick.
    pub fn spawn(&self, name: impl Into<String>, thread: Box<dyn GuestThread>) -> ThreadId {
        self.spawn_with_tag(name, None, thread)
    }

    /// [`spawn`](Self::spawn) with an owner tag. The kernel tags every
    /// thread of a process with its pid; threads the guest spawns from
    /// inside a slice inherit the spawner's tag automatically.
    pub fn spawn_tagged(
        &self,
        name: impl Into<String>,
        tag: u64,
        thread: Box<dyn GuestThread>,
    ) -> ThreadId {
        self.spawn_with_tag(name, Some(tag), thread)
    }

    fn spawn_with_tag(
        &self,
        name: impl Into<String>,
        tag: Option<u64>,
        thread: Box<dyn GuestThread>,
    ) -> ThreadId {
        let name = name.into();
        let mut inner = self.inner.borrow_mut();
        let id = ThreadId(inner.threads.len());
        let tracer = self.engine.tracer();
        if tracer.enabled() {
            tracer.name_lane(
                THREAD_LANE_BASE + id.0 as u32,
                format!("thread {}: {name}", id.0),
            );
        }
        inner.threads.push(Slot {
            name,
            state: ThreadState::Ready,
            wake_pending: false,
            killed: false,
            tag,
            thread: Some(thread),
        });
        drop(inner);
        self.schedule_tick(false);
        id
    }

    /// The owner tag a thread was spawned with (or inherited).
    pub fn thread_tag(&self, id: ThreadId) -> Option<u64> {
        self.inner.borrow().threads[id.0].tag
    }

    /// Diagnostic name of a thread.
    pub fn thread_name(&self, id: ThreadId) -> String {
        self.inner.borrow().threads[id.0].name.clone()
    }

    /// Every thread carrying `tag`, in spawn order.
    pub fn tagged_threads(&self, tag: u64) -> Vec<ThreadId> {
        self.inner
            .borrow()
            .threads
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tag == Some(tag))
            .map(|(i, _)| ThreadId(i))
            .collect()
    }

    /// Whether every thread carrying `tag` has finished (vacuously
    /// true for an unused tag).
    pub fn tag_all_finished(&self, tag: u64) -> bool {
        self.inner
            .borrow()
            .threads
            .iter()
            .filter(|s| s.tag == Some(tag))
            .all(|s| s.state == ThreadState::Finished)
    }

    /// Install the thread-exit hook (replacing any previous one). It
    /// fires after a thread reaches `Finished` — from its final slice
    /// or from [`kill`](Self::kill) — outside the runtime borrow, so
    /// the hook may call back into the runtime.
    pub fn set_thread_exit_hook(&self, hook: impl Fn(ThreadId, Option<u64>) + 'static) {
        self.inner.borrow_mut().exit_hook = Some(Rc::new(hook));
    }

    /// Forcibly finish a thread (SIGKILL): its guest state is dropped,
    /// its wait-graph edge cleared, and it will never run another
    /// slice — even if it is killed mid-slice, the in-flight slice's
    /// outcome is discarded. Fires the thread-exit hook.
    pub fn kill(&self, id: ThreadId) {
        let fire = {
            let mut inner = self.inner.borrow_mut();
            let slot = &mut inner.threads[id.0];
            let was_live = slot.state != ThreadState::Finished;
            slot.state = ThreadState::Finished;
            slot.killed = true;
            slot.wake_pending = false;
            slot.thread = None;
            let tag = slot.tag;
            inner.waits.clear_block(id.0);
            if was_live
                && inner
                    .threads
                    .iter()
                    .all(|s| s.state == ThreadState::Finished)
            {
                inner.stats.finished_ns = self.engine.now_ns();
            }
            if was_live {
                Some((inner.exit_hook.clone(), tag))
            } else {
                None
            }
        };
        if let Some((hook, tag)) = fire {
            let tracer = self.engine.tracer();
            if tracer.enabled() {
                tracer.instant(
                    cat::SCHED,
                    "thread.kill",
                    self.engine.now_ns(),
                    RUNTIME_LANE,
                    vec![("thread", ArgValue::U64(id.0 as u64))],
                );
            }
            if let Some(hook) = hook {
                hook(id, tag);
            }
        }
    }

    /// Register the thread whose progress resolves `resource` in the
    /// wait-for graph (see [`WaitGraph::set_owner`]).
    pub fn set_resource_owner(&self, resource: Resource, thread: ThreadId) {
        self.inner.borrow_mut().waits.set_owner(resource, thread.0);
    }

    /// Remove a resource-owner registration.
    pub fn clear_resource_owner(&self, resource: &Resource) {
        self.inner.borrow_mut().waits.clear_owner(resource);
    }

    /// Wake a blocked thread (asynchronous completions and monitor
    /// notifies call this). Waking a Ready or Finished thread records a
    /// pending wake so a block that races with its own completion does
    /// not sleep forever.
    pub fn wake(&self, id: ThreadId) {
        {
            let mut inner = self.inner.borrow_mut();
            match inner.threads[id.0].state {
                ThreadState::Blocked => inner.threads[id.0].state = ThreadState::Ready,
                ThreadState::Ready => inner.threads[id.0].wake_pending = true,
                ThreadState::Finished => return,
            }
            // Whatever the thread was waiting for is no longer what
            // keeps it off the ready set.
            inner.waits.clear_block(id.0);
        }
        self.schedule_tick(false);
    }

    /// Record that `id` is (about to be) blocked on `resource` at
    /// guest site `site`, and scan for a wait-for cycle through the new
    /// edge. The first cycle found is latched and surfaced by
    /// [`run_to_completion`](Self::run_to_completion); it is also
    /// dumped as a `sched`-category trace instant.
    pub fn note_block(&self, id: ThreadId, resource: Resource, site: impl Into<String>) {
        let report = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            inner.waits.note_block(id.0, resource, site.into());
            if inner.deadlock.is_some() {
                None
            } else {
                // Only the threads of a cycle, which is rare, are named.
                let threads = &inner.threads;
                let found = inner.waits.find_cycle(id.0, &|t| {
                    threads.get(t).map(|s| s.name.clone()).unwrap_or_default()
                });
                inner.deadlock = found.clone();
                found
            }
        };
        if let Some(report) = report {
            let tracer = self.engine.tracer();
            if tracer.enabled() {
                tracer.instant(
                    cat::SCHED,
                    "deadlock.cycle",
                    self.engine.now_ns(),
                    RUNTIME_LANE,
                    vec![
                        ("threads", ArgValue::U64(report.cycle.len() as u64)),
                        ("cycle", ArgValue::Str(report.to_string().into())),
                    ],
                );
            }
        }
    }

    /// Record an outermost lock acquisition (feeds ownership tracking
    /// and the lock-order-inversion detector).
    pub fn note_acquire(&self, id: ThreadId, resource: Resource) {
        let warning = self.inner.borrow_mut().waits.note_acquire(id.0, resource);
        if let Some(w) = warning {
            let tracer = self.engine.tracer();
            if tracer.enabled() {
                tracer.instant(
                    cat::SCHED,
                    "lock_order.inversion",
                    self.engine.now_ns(),
                    RUNTIME_LANE,
                    vec![("warning", ArgValue::Str(w.to_string().into()))],
                );
            }
        }
    }

    /// Record an outermost lock release.
    pub fn note_release(&self, id: ThreadId, resource: Resource) {
        self.inner.borrow_mut().waits.note_release(id.0, resource);
    }

    /// The latched wait-for cycle, if one has been detected.
    pub fn deadlock_report(&self) -> Option<DeadlockReport> {
        self.inner.borrow().deadlock.clone()
    }

    /// Lock-order inversions observed so far.
    pub fn lock_order_warnings(&self) -> Vec<LockOrderWarning> {
        self.inner.borrow().waits.warnings().to_vec()
    }

    /// Build the deadlock error for the current blocked set (used here
    /// and by embedders that drive the event loop themselves).
    pub fn deadlock_error(&self) -> RuntimeError {
        let inner = self.inner.borrow();
        let names: Vec<String> = inner.threads.iter().map(|s| s.name.clone()).collect();
        RuntimeError::Deadlock {
            blocked: inner
                .threads
                .iter()
                .filter(|s| s.state == ThreadState::Blocked)
                .map(|s| s.name.clone())
                .collect(),
            details: inner
                .waits
                .blame_lines(&|t| names.get(t).cloned().unwrap_or_default()),
            report: inner.deadlock.clone(),
        }
    }

    /// Whether a wake raced ahead of a block and is still pending
    /// (diagnostics; a pending wake on a finished thread indicates a
    /// spurious-wake bug somewhere).
    pub fn wake_is_pending(&self, id: ThreadId) -> bool {
        self.inner.borrow().threads[id.0].wake_pending
    }

    /// Mark a thread blocked from outside a slice (monitor acquisition
    /// by another thread's slice). Blocking the currently running
    /// thread must instead be done by returning [`ThreadStep::Blocked`].
    pub fn block(&self, id: ThreadId) {
        let mut inner = self.inner.borrow_mut();
        let slot = &mut inner.threads[id.0];
        if slot.state == ThreadState::Ready {
            slot.state = ThreadState::Blocked;
        }
    }

    /// Begin execution: schedules the first tick.
    pub fn start(&self) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.stats.started_ns == 0 {
                inner.stats.started_ns = self.engine.now_ns();
            }
        }
        self.schedule_tick(false);
    }

    /// Whether every thread has finished.
    pub fn is_finished(&self) -> bool {
        let inner = self.inner.borrow();
        !inner.threads.is_empty()
            && inner
                .threads
                .iter()
                .all(|s| s.state == ThreadState::Finished)
    }

    /// Snapshot of the runtime's counters.
    pub fn stats(&self) -> RuntimeStats {
        self.inner.borrow().stats
    }

    /// Drive the engine's event loop until every thread finishes.
    ///
    /// Returns the final stats, or a deadlock error if all live threads
    /// are blocked with no event left to wake them. On a finished
    /// runtime it schedules nothing: a tick queued then would never run,
    /// and its closure would keep the runtime and its engine alive.
    pub fn run_to_completion(&self) -> Result<RuntimeStats, RuntimeError> {
        if !self.is_finished() {
            self.run_until(|| self.is_finished())?;
        }
        Ok(self.stats())
    }

    /// The one drive loop: [`start`](Self::start), then dispatch events
    /// until `done()` holds. Every embedding (this runtime, a JVM, a
    /// kernel waiting on all or one of its processes) drives through
    /// here.
    ///
    /// Fails with [`deadlock_error`](Self::deadlock_error) as soon as
    /// the wait-for graph latches a cycle (it can never resolve, so
    /// there is no point spinning until the event loop drains), or when
    /// the loop drains with `done()` still false.
    pub fn run_until(&self, mut done: impl FnMut() -> bool) -> Result<(), RuntimeError> {
        self.start();
        let mut finished = false;
        self.engine.run_until(|| {
            finished = done();
            finished || self.inner.borrow().deadlock.is_some()
        });
        if finished {
            Ok(())
        } else {
            Err(self.deadlock_error())
        }
    }

    /// Schedule a tick through the browser's best resumption mechanism
    /// (§4.4). `counts_as_suspension` marks yields of a still-ready
    /// computation (the Figure 5 accounting); wakes of blocked threads
    /// are I/O latency, not suspension overhead.
    fn schedule_tick(&self, counts_as_suspension: bool) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.tick_scheduled {
                return;
            }
            inner.tick_scheduled = true;
            if counts_as_suspension {
                inner.stats.suspensions += 1;
                inner.suspend_started_at = Some(self.engine.now_ns());
            }
        }
        let rt = self.clone();
        let tick = move |_: &Engine| rt.tick();
        match self.engine.profile().best_resume_mechanism() {
            ResumeMechanism::SetImmediate => {
                self.engine
                    .set_immediate(tick)
                    .expect("profile advertised setImmediate");
            }
            ResumeMechanism::SendMessage => self.engine.send_message(tick),
            ResumeMechanism::SetTimeout => {
                self.engine.set_timeout(0.0, tick);
            }
        }
    }

    fn tick(&self) {
        let now = self.engine.now_ns();
        // Close out suspension accounting and pick a thread.
        let picked = {
            let mut inner = self.inner.borrow_mut();
            inner.tick_scheduled = false;
            if let Some(t0) = inner.suspend_started_at.take() {
                inner.stats.suspended_ns += now.saturating_sub(t0);
                self.hists.suspended_ns.record(now.saturating_sub(t0));
                self.engine.tracer().complete(
                    cat::CORE,
                    "suspended",
                    t0,
                    now.saturating_sub(t0),
                    RUNTIME_LANE,
                    vec![],
                );
            }
            inner.timer.reset_window(now);
            let ready: Vec<ThreadId> = inner
                .threads
                .iter()
                .enumerate()
                .filter(|(_, s)| s.state == ThreadState::Ready)
                .map(|(i, _)| ThreadId(i))
                .collect();
            if ready.is_empty() {
                None
            } else {
                let id = inner.scheduler.pick(&ready);
                debug_assert!(ready.contains(&id), "scheduler picked a non-ready thread");
                let thread = inner.threads[id.0].thread.take();
                Some((id, ready.len(), thread))
            }
        };

        // A thread that finishes (or is killed) in this slice is not put
        // back: its guest state drops when `tick` returns, outside the
        // runtime borrow, so a finished guest holds nothing alive.
        let Some((id, n_ready, Some(mut thread))) = picked else {
            return; // nothing ready: a wake will reschedule us
        };

        {
            let tracer = self.engine.tracer();
            if tracer.enabled() {
                tracer.instant(
                    cat::SCHED,
                    "sched.pick",
                    now,
                    RUNTIME_LANE,
                    vec![
                        ("thread", ArgValue::U64(id.0 as u64)),
                        ("ready", ArgValue::U64(n_ready as u64)),
                    ],
                );
            }
        }

        let mut ctx = self.make_ctx(id);
        let slice_start = self.engine.now_ns();
        let step = thread.run(&mut ctx);
        self.hists
            .slice_ns
            .record(self.engine.now_ns() - slice_start);
        // A thread without interior sample points (non-JVM guests)
        // still attributes its slices to the profile.
        if let Some(p) = self.engine.profiler() {
            let now_end = self.engine.now_ns();
            if p.due(now_end) {
                let root = self
                    .engine
                    .current_event()
                    .map(|k| k.name())
                    .unwrap_or("run");
                let name = self.inner.borrow().threads[id.0].name.clone();
                p.sample(now_end, [root, name.as_str(), "<slice>"]);
            }
        }
        let tracer = self.engine.tracer();
        if tracer.enabled() {
            let step_name = match step {
                ThreadStep::Finished => "finished",
                ThreadStep::Yielded => "yielded",
                ThreadStep::Blocked => "blocked",
            };
            tracer.complete(
                cat::CORE,
                "slice",
                slice_start,
                self.engine.now_ns() - slice_start,
                THREAD_LANE_BASE + id.0 as u32,
                vec![
                    ("thread", ArgValue::U64(id.0 as u64)),
                    ("step", ArgValue::from(step_name)),
                ],
            );
        }

        let (any_ready, finished_now) = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.slices += 1;
            if inner.last_ran != Some(id) {
                if inner.last_ran.is_some() {
                    inner.stats.context_switches += 1;
                }
                inner.last_ran = Some(id);
            }
            let slot = &mut inner.threads[id.0];
            let finished_now = if slot.killed {
                // Killed mid-slice: the slice's outcome is void and the
                // guest state stays dropped. The kill already fired the
                // exit hook.
                false
            } else {
                slot.state = match step {
                    ThreadStep::Finished => ThreadState::Finished,
                    ThreadStep::Yielded => ThreadState::Ready,
                    ThreadStep::Blocked => {
                        if slot.wake_pending {
                            slot.wake_pending = false;
                            ThreadState::Ready
                        } else {
                            ThreadState::Blocked
                        }
                    }
                };
                let finished = step == ThreadStep::Finished;
                if !finished {
                    slot.thread = Some(thread);
                }
                finished
            };
            // A slice that ended runnable (or done) is not waiting on
            // anything, whatever edges it reported mid-slice.
            if inner.threads[id.0].state != ThreadState::Blocked {
                inner.waits.clear_block(id.0);
            }
            if inner
                .threads
                .iter()
                .all(|s| s.state == ThreadState::Finished)
            {
                inner.stats.finished_ns = self.engine.now_ns();
            }
            let any_ready = inner.threads.iter().any(|s| s.state == ThreadState::Ready);
            (any_ready, finished_now)
        };

        if finished_now {
            let fire = {
                let inner = self.inner.borrow();
                inner
                    .exit_hook
                    .clone()
                    .map(|h| (h, inner.threads[id.0].tag))
            };
            if let Some((hook, tag)) = fire {
                hook(id, tag);
            }
        }

        if any_ready {
            // Suspend-and-resume: let queued browser events (user input)
            // run, then resume via the fast path.
            self.schedule_tick(true);
        }
    }
}

/// The view of the runtime a guest thread sees during its slice.
pub struct ThreadContext<'rt> {
    runtime: DoppioRuntime,
    thread_id: ThreadId,
    _marker: std::marker::PhantomData<&'rt ()>,
}

impl ThreadContext<'_> {
    /// The engine (for charging costs and direct async APIs).
    pub fn engine(&self) -> &Engine {
        self.runtime.engine()
    }

    /// The runtime hosting this thread.
    pub fn runtime(&self) -> &DoppioRuntime {
        &self.runtime
    }

    /// This thread's id.
    pub fn thread_id(&self) -> ThreadId {
        self.thread_id
    }

    /// The trace lane (Chrome `tid`) this thread's slices render on.
    /// Guest language runtimes use this to put their own trace events
    /// on the same lane as the scheduler's slice spans.
    pub fn trace_lane(&self) -> u32 {
        THREAD_LANE_BASE + self.thread_id.0 as u32
    }

    /// One suspend check (§4.1). When this returns `true` the thread
    /// must save its state and return [`ThreadStep::Yielded`].
    pub fn should_suspend(&mut self) -> bool {
        self.should_suspend_with(|| {})
    }

    /// [`should_suspend`](Self::should_suspend) for a thread that
    /// defers its virtual-clock charges. Most checks only count down
    /// the adaptive counter; the one that takes it to zero reads the
    /// clock, and `sync` runs just before that read, so the thread can
    /// hand over what it owes the clock there and nowhere else.
    pub fn should_suspend_with(&mut self, sync: impl FnOnce()) -> bool {
        let engine = &self.runtime.engine;
        let mut now = 0;
        let mut inner = self.runtime.inner.borrow_mut();
        let fired = inner.timer.check_with(|| {
            sync();
            now = engine.now_ns();
            now
        });
        if fired {
            // The timer just recalibrated its counter; record the
            // adjustment so traces and the counter-trajectory
            // histogram show segmentation adapting.
            let counter = inner.timer.counter_initial();
            self.runtime.hists.suspend_counter.record(counter);
            let tracer = self.runtime.engine.tracer();
            if tracer.enabled() {
                let avg = inner.timer.avg_ns_per_check();
                drop(inner);
                tracer.instant(
                    cat::CORE,
                    "suspend_timer.adjust",
                    now,
                    RUNTIME_LANE,
                    vec![
                        ("counter", ArgValue::U64(counter)),
                        ("avg_ns_per_check", ArgValue::F64(avg)),
                    ],
                );
            }
        }
        fired
    }

    /// Begin a blocking call over an asynchronous browser API (§4.2).
    ///
    /// `start` receives the engine and a resolver; it must arrange for
    /// the resolver to be called when the asynchronous operation
    /// completes (typically from an event-loop callback). The thread
    /// then returns [`ThreadStep::Blocked`]; when the resolver fires,
    /// the thread is woken and finds the value in the returned cell —
    /// "the program resumes as if it had just received data
    /// synchronously from a regular function call".
    pub fn block_on<T: 'static>(
        &mut self,
        start: impl FnOnce(&Engine, AsyncResolver<T>),
    ) -> AsyncCell<T> {
        let cell = AsyncCell(Rc::new(RefCell::new(None)));
        let dest = cell.0.clone();
        let resolver = AsyncResolver {
            sink: Box::new(move |v| *dest.borrow_mut() = Some(v)),
            runtime: self.runtime.clone(),
            thread: self.thread_id,
            settled: None,
        };
        start(self.runtime.engine(), resolver);
        cell
    }

    /// Record a wait-for edge for this thread (see
    /// [`DoppioRuntime::note_block`]).
    pub fn note_block(&self, resource: Resource, site: impl Into<String>) {
        self.runtime.note_block(self.thread_id, resource, site);
    }

    /// Record an outermost lock acquisition by this thread.
    pub fn note_acquire(&self, resource: Resource) {
        self.runtime.note_acquire(self.thread_id, resource);
    }

    /// Record an outermost lock release by this thread.
    pub fn note_release(&self, resource: Resource) {
        self.runtime.note_release(self.thread_id, resource);
    }

    /// [`block_on`](Self::block_on) with a deadline: if the resolver
    /// has not fired within `timeout_ns` of virtual time, the cell
    /// resolves to `Err(BlockTimeout)` and the thread is woken anyway.
    /// Whichever of the two outcomes lands first wins; the loser is
    /// discarded (a late value never overwrites a delivered timeout,
    /// and vice versa).
    ///
    /// This is how guest runtimes bound blocking I/O over a faulty
    /// substrate — e.g. a socket `recv` that must not hang forever when
    /// the fault plan ate the reply. Fired timeouts emit a
    /// `fault`-category trace instant.
    pub fn block_on_timeout<T: 'static>(
        &mut self,
        timeout_ns: u64,
        start: impl FnOnce(&Engine, AsyncResolver<T>),
    ) -> AsyncCell<Result<T, BlockTimeout>> {
        let cell = AsyncCell(Rc::new(RefCell::new(None)));
        let settled = Rc::new(std::cell::Cell::new(false));

        let dest = cell.0.clone();
        let resolver = AsyncResolver {
            sink: Box::new(move |v| *dest.borrow_mut() = Some(Ok(v))),
            runtime: self.runtime.clone(),
            thread: self.thread_id,
            settled: Some(settled.clone()),
        };

        let dest = cell.0.clone();
        let runtime = self.runtime.clone();
        let thread = self.thread_id;
        self.runtime
            .engine()
            .complete_async_after(timeout_ns, move |e| {
                if settled.replace(true) {
                    return; // value arrived first
                }
                let tracer = e.tracer();
                if tracer.enabled() {
                    tracer.instant(
                        cat::FAULT,
                        "block_on_timeout",
                        e.now_ns(),
                        RUNTIME_LANE,
                        vec![
                            ("thread", ArgValue::U64(thread.0 as u64)),
                            ("timeout_ns", ArgValue::U64(timeout_ns)),
                        ],
                    );
                }
                *dest.borrow_mut() = Some(Err(BlockTimeout));
                runtime.wake(thread);
            });

        start(self.runtime.engine(), resolver);
        cell
    }

    /// Spawn a sibling thread (JVM `Thread.start`). The sibling
    /// inherits this thread's owner tag, so every thread a kernel
    /// process creates stays attributed to its pid.
    pub fn spawn(&self, name: impl Into<String>, thread: Box<dyn GuestThread>) -> ThreadId {
        match self.runtime.thread_tag(self.thread_id) {
            Some(tag) => self.runtime.spawn_tagged(name, tag, thread),
            None => self.runtime.spawn(name, thread),
        }
    }

    /// Wake a blocked sibling (JVM `notify`/`interrupt`/`unpark`).
    pub fn wake(&self, id: ThreadId) {
        self.runtime.wake(id);
    }
}

/// Receives the value a blocked thread is waiting for.
pub struct AsyncResolver<T> {
    sink: Box<dyn FnOnce(T)>,
    runtime: DoppioRuntime,
    thread: ThreadId,
    /// Shared settled flag for raced resolutions (`block_on_timeout`):
    /// whichever side flips it first delivers; the loser must neither
    /// store its value *nor wake the thread* — a stale wake would set
    /// `wake_pending` and corrupt the thread's next unrelated block.
    settled: Option<Rc<Cell<bool>>>,
}

impl<T> AsyncResolver<T> {
    /// Deliver the value and wake the waiting thread. A no-op if the
    /// operation already settled another way (deadline fired first).
    pub fn resolve(self, value: T) {
        if let Some(settled) = &self.settled {
            if settled.replace(true) {
                return;
            }
        }
        (self.sink)(value);
        self.runtime.wake(self.thread);
    }
}

/// The deadline of [`ThreadContext::block_on_timeout`] fired before the
/// asynchronous operation resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTimeout;

impl std::fmt::Display for BlockTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blocking call timed out")
    }
}

impl std::error::Error for BlockTimeout {}

/// Where a blocked thread finds its delivered value after waking.
#[derive(Debug)]
pub struct AsyncCell<T>(Rc<RefCell<Option<T>>>);

impl<T> Clone for AsyncCell<T> {
    fn clone(&self) -> Self {
        AsyncCell(self.0.clone())
    }
}

impl<T> AsyncCell<T> {
    /// Take the delivered value, if present.
    pub fn take(&self) -> Option<T> {
        self.0.borrow_mut().take()
    }
}

impl DoppioRuntime {
    fn make_ctx(&self, id: ThreadId) -> ThreadContext<'_> {
        ThreadContext {
            runtime: self.clone(),
            thread_id: id,
            _marker: std::marker::PhantomData,
        }
    }
}
