//! JVM threads as Doppio guest threads (§4.3, §6.2).
//!
//! Each JVM thread owns its explicit frame stack and plugs into the
//! Doppio runtime's thread pool. "DoppioJVM checks for waiting threads
//! at fixed context switch points" — monitor operations and the §6.1
//! suspend checks at method call boundaries — so multithreading is
//! cooperative in JavaScript but preemptive in JVM semantics.
//!
//! A thread that waits for a class download or for a native's
//! asynchronous browser API (§4.2) holds one [`Continuation`], which it
//! polls each time it is woken until the wait is over. A thread queued
//! on a monitor holds none: it retries its instruction when woken.

use std::cell::RefCell;
use std::rc::Rc;

use doppio_core::{GuestThread, Resource, ThreadContext, ThreadStep};
use doppio_trace::{cat, ArgValue};

use crate::frame::Frame;
use crate::interp::{self, Continuation, StepResult};
use crate::loader;
use crate::natives::{self, NativeCtx, NativeOutcome};
use crate::state::JvmState;
use crate::value::{ObjRef, Value};

/// One JVM thread hosted on the Doppio runtime.
pub struct JvmThread {
    state: Rc<RefCell<JvmState>>,
    frames: Vec<Frame>,
    /// What the thread is blocked on, polled when it is woken.
    pending: Option<Continuation>,
    name: String,
    /// Uncaught exception, readable after the thread finishes.
    pub uncaught: Rc<RefCell<Option<ObjRef>>>,
}

impl JvmThread {
    /// A thread that will execute the given initial frame.
    pub fn new(state: Rc<RefCell<JvmState>>, name: impl Into<String>, frame: Frame) -> JvmThread {
        JvmThread {
            state,
            frames: vec![frame],
            pending: None,
            name: name.into(),
            uncaught: Rc::new(RefCell::new(None)),
        }
    }

    fn finish(&self, state: &mut JvmState, ctx: &mut ThreadContext<'_>) {
        let id = ctx.thread_id().0;
        state.finished_threads.insert(id);
        state.live_threads = state.live_threads.saturating_sub(1);
        if let Some(waiters) = state.join_waiters.remove(&id) {
            for w in waiters {
                ctx.wake(w);
            }
        }
    }
}

impl GuestThread for JvmThread {
    fn run(&mut self, ctx: &mut ThreadContext<'_>) -> ThreadStep {
        let tid = ctx.thread_id();
        let state_rc = self.state.clone();
        let mut state = state_rc.borrow_mut();

        // A blocked thread goes on from its continuation once that
        // stops waiting. The interpreter makes calls and returns, and
        // their suspend checks, itself: it comes back when the slice
        // must end or the thread must block, load a class, finish or
        // exit.
        let mut sr = match self.pending.take() {
            Some(mut wait) => match wait(&mut state, &mut self.frames, ctx) {
                Some(sr) => sr,
                None => {
                    self.pending = Some(wait);
                    return ThreadStep::Blocked;
                }
            },
            None => interp::run(&mut state, &mut self.frames, ctx, tid),
        };
        loop {
            if let Some(step) = self.after_step(sr, &mut state, ctx) {
                return step;
            }
            sr = interp::run(&mut state, &mut self.frames, ctx, tid);
        }
    }
}

/// Virtual-clock sampling profiler hook: when a suspend check fires at
/// a call boundary and the profiler's deadline has passed, fold the
/// whole explicit frame stack — rooted at the engine event that hosts
/// the slice and this thread's name — into the profile. Suspend checks
/// fire roughly once per time slice, so sampling here costs nothing on
/// the interpreter fast path.
fn profiler_sample(state: &JvmState, frames: &[Frame], thread_name: &str) {
    let Some(profiler) = state.engine.profiler() else {
        return;
    };
    let now = state.engine.now_ns();
    if !profiler.due(now) {
        return;
    }
    let mut stack = Vec::with_capacity(frames.len() + 2);
    stack.push(
        state
            .engine
            .current_event()
            .map(|k| k.name())
            .unwrap_or("run")
            .to_string(),
    );
    stack.push(thread_name.to_string());
    stack.extend(interp::stack_trace(state, frames));
    profiler.sample(now, stack);
}

/// Sampled method profiling: when a suspend check fires at a call
/// boundary, record the method the thread is executing. The adaptive
/// suspend timer fires roughly once per time slice, so this yields a
/// time-based sample with no extra fast-path bookkeeping (§6.1).
fn trace_method_sample(state: &JvmState, frames: &[Frame], ctx: &ThreadContext<'_>) {
    let tracer = state.engine.tracer();
    if !tracer.enabled() {
        return;
    }
    if let Some(frame) = frames.last() {
        // Tag the sample with the ambient causal context so a trace
        // viewer (or `CausalGraph`) can tie hot JVM methods back to
        // the request whose critical path they sit on.
        let mut args = vec![(
            "descriptor",
            ArgValue::Str(frame.code.descriptor.clone().into()),
        )];
        if let Some(c) = state.engine.causal().current() {
            args.push(("trace", ArgValue::U64(c.trace_id)));
            args.push(("span", ArgValue::U64(c.span_id)));
        }
        tracer.instant(
            cat::JVM,
            frame.code.name.clone(),
            state.engine.now_ns(),
            ctx.trace_lane(),
            args,
        );
    }
}

impl JvmThread {
    /// The §6.1 suspend check fired: sample the stack and end the slice.
    fn suspend(&self, state: &JvmState, ctx: &ThreadContext<'_>) -> Option<ThreadStep> {
        profiler_sample(state, &self.frames, &self.name);
        trace_method_sample(state, &self.frames, ctx);
        Some(ThreadStep::Yielded)
    }

    /// Act on a step result: `None` to keep interpreting, or the step
    /// that ends the slice.
    fn after_step(
        &mut self,
        sr: StepResult,
        state: &mut JvmState,
        ctx: &mut ThreadContext<'_>,
    ) -> Option<ThreadStep> {
        match sr {
            StepResult::Continue => None,
            StepResult::CallBoundary => {
                // A native that blocked has returned: the §6.1 check
                // `interp::run` makes at every other call boundary.
                let hosted = state.engine.profile().watchdog_limit_ns.is_some();
                if hosted && ctx.should_suspend() {
                    self.suspend(state, ctx)
                } else {
                    None
                }
            }
            StepResult::Suspend => self.suspend(state, ctx),
            StepResult::NeedClass(name) => {
                let sr = loader::load_class(state, &mut self.frames, ctx, name);
                self.after_step(sr, state, ctx)
            }
            StepResult::Blocked(wait) => {
                self.pending = Some(wait);
                Some(ThreadStep::Blocked)
            }
            StepResult::MonitorBlocked(obj) => {
                ctx.note_block(
                    Resource::Monitor(obj as u64),
                    interp::current_site(state, &self.frames),
                );
                Some(ThreadStep::Blocked)
            }
            StepResult::VoluntaryYield => Some(ThreadStep::Yielded),
            StepResult::Finished => {
                self.finish(state, ctx);
                Some(ThreadStep::Finished)
            }
            StepResult::Uncaught(ex) => {
                *self.uncaught.borrow_mut() = Some(ex);
                let (cls, msg, trace) = natives::describe_throwable(state, ex);
                let mut text = format!("Exception in thread \"{}\" {cls}", self.name);
                if !msg.is_empty() {
                    text.push_str(&format!(": {msg}"));
                }
                if !trace.is_empty() {
                    text.push_str(&format!("\n\tat {trace}"));
                }
                text.push('\n');
                state.stderr.extend_from_slice(text.as_bytes());
                self.finish(state, ctx);
                Some(ThreadStep::Finished)
            }
            StepResult::Exit(code) => {
                state.exit_code = Some(code);
                self.finish(state, ctx);
                Some(ThreadStep::Finished)
            }
        }
    }
}

// ----------------------------------------------------------------
// Native helpers (Thread.start / currentThread / join)
// ----------------------------------------------------------------

/// `Thread.start()`: spawn a new JVM thread running the receiver's
/// `run()` method.
pub fn spawn_java_thread(n: &mut NativeCtx<'_, '_, '_>, thread_obj: ObjRef) -> NativeOutcome {
    let Some(weak) = n.state.self_rc.clone() else {
        return natives::throw(
            "java/lang/InternalError",
            "no state handle for Thread.start",
        );
    };
    let Some(state_rc) = weak.upgrade() else {
        return natives::throw("java/lang/InternalError", "state dropped");
    };
    let Ok(cid) = interp::runtime_class_of(n.state, thread_obj) else {
        return natives::throw("java/lang/InternalError", "bad thread object");
    };
    let Some(target) = n.state.registry.select_virtual(cid, "run", "()V") else {
        return natives::throw("java/lang/NoSuchMethodError", "run()V");
    };
    let mut frame = match interp::callee_frame(n.state, target, 1) {
        Ok(frame) => frame,
        Err((class, message)) => return natives::throw(class, message),
    };
    frame.locals[0] = Value::Ref(Some(thread_obj));
    let name = format!("Thread-{}", n.state.thread_objs.len());
    let thread = JvmThread::new(state_rc, name.clone(), frame);
    let tid = n.ctx.spawn(name, Box::new(thread));
    n.state.thread_objs.insert(tid.0, thread_obj);
    n.state.thread_of_obj.insert(thread_obj, tid.0);
    n.state.live_threads += 1;
    NativeOutcome::Return(None)
}

/// The `java/lang/Thread` object for the calling thread (created
/// lazily for threads that were not started through `Thread.start`,
/// like main).
pub fn current_thread_object(n: &mut NativeCtx<'_, '_, '_>) -> ObjRef {
    let id = n.tid.0;
    if let Some(&r) = n.state.thread_objs.get(&id) {
        return r;
    }
    let r = match n.state.registry.lookup("java/lang/Thread") {
        Some(cid) => interp::alloc_instance(n.state, cid),
        None => n.state.heap.alloc_string("main"),
    };
    n.state.thread_objs.insert(id, r);
    n.state.thread_of_obj.insert(r, id);
    r
}

/// Whether a thread object's thread has started and not yet finished.
pub fn is_alive(state: &JvmState, thread_obj: ObjRef) -> bool {
    match state.thread_of_obj.get(&thread_obj) {
        None => false,
        Some(id) => !state.finished_threads.contains(id),
    }
}

/// `Thread.join()`: block until the target thread finishes.
pub fn join_thread(n: &mut NativeCtx<'_, '_, '_>, thread_obj: ObjRef) -> NativeOutcome {
    let Some(&target) = n.state.thread_of_obj.get(&thread_obj) else {
        return NativeOutcome::Return(None); // never started
    };
    if n.state.finished_threads.contains(&target) {
        return NativeOutcome::Return(None);
    }
    enlist_join_waiter(n, target);
    NativeOutcome::Block(Box::new(move |n2| {
        if n2.state.finished_threads.contains(&target) {
            Some(NativeOutcome::Return(None))
        } else {
            // Spurious wake: stay enlisted (without duplicating the
            // entry — a duplicate would make `finish` wake us twice,
            // leaving a stale `wake_pending` that corrupts the next
            // unrelated block) and restore the wait-for edge.
            enlist_join_waiter(n2, target);
            None
        }
    }))
}

/// Register the calling thread as a join waiter (idempotent) and record
/// the `Join` wait-for edge.
fn enlist_join_waiter(n: &mut NativeCtx<'_, '_, '_>, target: usize) {
    let waiters = n.state.join_waiters.entry(target).or_default();
    if !waiters.contains(&n.tid) {
        waiters.push(n.tid);
    }
    let site = interp::current_site(n.state, n.frames);
    n.ctx.note_block(Resource::Join(target), site);
}
