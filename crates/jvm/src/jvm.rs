//! The DoppioJVM facade (§6, §6.8).
//!
//! "DoppioJVM also makes it possible for a JavaScript program to invoke
//! the JVM much as one would invoke Java on the command line via an
//! API: the programmer specifies the classpath, main class, and
//! arguments, and optionally, custom functions to redirect standard
//! input and output." [`Jvm`] is that API.

use std::cell::RefCell;
use std::rc::Rc;

use doppio_core::{DoppioRuntime, ExitStatus, GuestThread, RuntimeError, RuntimeStats, ThreadId};
use doppio_fs::FileSystem;
use doppio_jsengine::Engine;
use doppio_sockets::Network;

use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC};
use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
use doppio_classfile::opcodes::AASTORE;

use crate::class::MethodRef;
use crate::interp;
use crate::loader;
use crate::natives::{NativeCtx, NativeOutcome};
use crate::rtlib;
use crate::state::JvmState;
use crate::thread::JvmThread;
use crate::value::{ObjRef, Value};

/// A user-registered native method (the §6.3 JNI story).
pub type UserNative = Rc<dyn Fn(&mut NativeCtx<'_, '_, '_>, Vec<Value>) -> NativeOutcome>;

/// Result of running a JVM program to completion.
#[derive(Debug, Clone)]
pub struct JvmRunResult {
    /// `System.exit` code, if called.
    pub exit_code: Option<i32>,
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
    /// Rendered uncaught exception of the main thread, if any.
    pub uncaught: Option<String>,
    /// Bytecode instructions executed (all threads).
    pub instructions: u64,
    /// Doppio runtime statistics (suspensions, context switches...).
    pub runtime: RuntimeStats,
    /// Class files fetched through the file system.
    pub class_fetches: u64,
    /// Virtual wall-clock nanoseconds consumed by the whole run.
    pub wall_ns: u64,
}

/// A running or finished JVM instance.
pub struct Jvm {
    engine: Engine,
    state: Rc<RefCell<JvmState>>,
    runtime: DoppioRuntime,
    main_uncaught: RefCell<Option<Rc<RefCell<Option<ObjRef>>>>>,
    boot_counter: RefCell<u32>,
}

impl Jvm {
    /// Create a JVM over an engine and a Doppio file system. The
    /// runtime class library is defined eagerly; user classes load
    /// lazily through `fs` from the classpath (default `/classes`).
    pub fn new(engine: &Engine, fs: FileSystem) -> Jvm {
        Jvm::with_runtime(engine, fs, DoppioRuntime::new(engine))
    }

    /// [`new`](Self::new), but scheduling the JVM's threads on an
    /// existing runtime instead of a private one. This is how several
    /// JVMs share one scheduler and wait-for graph — the kernel's
    /// multi-process layer builds every guest this way (see
    /// `doppio_core::Kernel` and [`crate::process::spawn_jvm`]).
    pub fn with_runtime(engine: &Engine, fs: FileSystem, runtime: DoppioRuntime) -> Jvm {
        let mut state = JvmState::new(engine, fs);
        for cf in rtlib::shared_runtime_classes() {
            let name = cf.name().expect("rt class").to_string();
            loader::define_with_constants(&mut state, cf)
                .unwrap_or_else(|e| panic!("defining runtime class {name}: {e}"));
        }
        let state = Rc::new(RefCell::new(state));
        state.borrow_mut().self_rc = Some(Rc::downgrade(&state));
        Jvm {
            engine: engine.clone(),
            state,
            runtime,
            main_uncaught: RefCell::new(None),
            boot_counter: RefCell::new(0),
        }
    }

    /// The engine this JVM runs on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The Doppio runtime hosting the JVM's threads.
    pub fn runtime(&self) -> &DoppioRuntime {
        &self.runtime
    }

    /// Set the classpath (directories on the Doppio file system).
    pub fn set_classpath(&self, entries: Vec<String>) {
        self.state.borrow_mut().classpath = entries;
    }

    /// Attach a socket fabric for the `doppio/net/Socket` natives.
    pub fn set_network(&self, net: Network) {
        self.state.borrow_mut().network = Some(net);
    }

    /// Enable suspend checks on loop back edges (§6.1's extension).
    pub fn set_check_backedges(&self, on: bool) {
        self.state.borrow_mut().check_backedges = on;
    }

    /// Install the §6.8 JavaScript-interop eval hook.
    pub fn set_js_eval(&self, f: impl FnMut(&Engine, &str) -> String + 'static) {
        self.state.borrow_mut().js_eval = Some(Box::new(f));
    }

    /// Tee standard output to a callback as it is produced.
    pub fn set_stdout_hook(&self, f: impl FnMut(&str) + 'static) {
        self.state.borrow_mut().stdout_hook = Some(Box::new(f));
    }

    /// Register a native method (the §6.3 JNI path: "these native
    /// methods will need to be reimplemented ... and registered with
    /// DoppioJVM").
    pub fn register_native(
        &self,
        class: &str,
        name: &str,
        desc: &str,
        f: impl Fn(&mut NativeCtx<'_, '_, '_>, Vec<Value>) -> NativeOutcome + 'static,
    ) {
        self.state.borrow_mut().user_natives.insert(
            (class.to_string(), name.to_string(), desc.to_string()),
            Rc::new(f),
        );
    }

    /// Queue bytes on standard input, waking blocked readers.
    pub fn push_stdin(&self, bytes: &[u8]) {
        self.stdin_handle().push(bytes);
    }

    /// Close standard input (EOF), waking blocked readers.
    pub fn close_stdin(&self) {
        self.stdin_handle().close();
    }

    /// Direct access to the shared state (tests, embedders).
    pub fn with_state<R>(&self, f: impl FnOnce(&mut JvmState) -> R) -> R {
        f(&mut self.state.borrow_mut())
    }

    /// Launch `main_class.main(String[] args)` on a new JVM thread.
    ///
    /// The main class itself is loaded lazily through the file system
    /// when the bootstrap's `invokestatic` first references it (§6.4).
    pub fn launch(&self, main_class: &str, args: &[&str]) {
        let thread = self.prepare_main(main_class, args);
        self.runtime.spawn("main", thread);
    }

    /// Build the main thread for `main_class.main(args)` without
    /// spawning it. The caller decides where it runs — directly on
    /// [`runtime`](Self::runtime) (what [`launch`](Self::launch)
    /// does), or wrapped as a kernel process main thread
    /// (`Kernel::spawn`). Live-thread accounting starts here, so the
    /// returned thread MUST be spawned exactly once.
    pub fn prepare_main(&self, main_class: &str, args: &[&str]) -> Box<dyn GuestThread> {
        let n = {
            let mut c = self.boot_counter.borrow_mut();
            *c += 1;
            *c
        };
        let boot_name = format!("doppio/Bootstrap{n}");
        let mut b = ClassBuilder::new(&boot_name, "java/lang/Object");
        let mut m = MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "boot", "()V", 1);
        m.ldc_int(args.len() as i32);
        m.anewarray("java/lang/String");
        for (i, a) in args.iter().enumerate() {
            m.dup();
            m.ldc_int(i as i32);
            m.ldc_string(a);
            m.simple(AASTORE);
        }
        m.invokestatic(main_class, "main", "([Ljava/lang/String;)V");
        m.return_void();
        b.add_method(m);

        let mut state = self.state.borrow_mut();
        loader::define_with_constants(&mut state, b.finish()).expect("bootstrap defines");
        let boot_id = state
            .registry
            .lookup(&boot_name)
            .expect("bootstrap defined");
        let boot_idx = state
            .registry
            .get(boot_id)
            .cf
            .as_ref()
            .expect("bootstrap cf")
            .methods
            .iter()
            .position(|mm| mm.name == "boot")
            .expect("boot method");
        let boot = MethodRef {
            class: boot_id,
            index: boot_idx,
        };
        let frame = interp::callee_frame(&mut state, boot, 0).expect("boot frame");
        state.live_threads += 1;
        drop(state);

        let thread = JvmThread::new(self.state.clone(), "main", frame);
        *self.main_uncaught.borrow_mut() = Some(thread.uncaught.clone());
        Box::new(thread)
    }

    /// An exit probe for the kernel's process layer: reports
    /// `Some(status)` once the JVM program is over — `System.exit`'s
    /// code, or (when every JVM thread has finished) 0, or 1 if the
    /// main thread died to an uncaught exception. Install it with
    /// `Kernel::set_exit_probe`.
    pub fn exit_probe(&self) -> impl Fn() -> Option<ExitStatus> {
        let state = self.state.clone();
        let uncaught = self.main_uncaught.borrow().clone();
        move || {
            let st = state.borrow();
            if let Some(code) = st.exit_code {
                return Some(ExitStatus::Exited(code));
            }
            if st.live_threads == 0 {
                let failed = uncaught
                    .as_ref()
                    .map(|u| u.borrow().is_some())
                    .unwrap_or(false);
                return Some(ExitStatus::Exited(if failed { 1 } else { 0 }));
            }
            None
        }
    }

    /// A standalone handle to this JVM's standard input, cloneable and
    /// usable after the `Jvm` itself is dropped (the kernel's stdin
    /// pump threads hold one).
    pub fn stdin_handle(&self) -> JvmStdin {
        JvmStdin {
            state: self.state.clone(),
            runtime: self.runtime.clone(),
        }
    }

    /// Whether every JVM thread has finished (or `System.exit` ran).
    pub fn is_finished(&self) -> bool {
        self.runtime.is_finished() || self.state.borrow().exit_code.is_some()
    }

    /// Drive the engine's event loop until the program completes
    /// (see [`DoppioRuntime::run_until`]). On a finished program it
    /// schedules nothing: a tick left queued would hold the runtime,
    /// and through it the engine, past the run.
    pub fn run_to_completion(&self) -> Result<JvmRunResult, RuntimeError> {
        let start_ns = self.engine.now_ns();
        if !self.is_finished() {
            self.runtime.run_until(|| self.is_finished())?;
        }
        Ok(self.collect_result(start_ns))
    }

    fn collect_result(&self, start_ns: u64) -> JvmRunResult {
        let state = self.state.borrow();
        let uncaught = self
            .main_uncaught
            .borrow()
            .as_ref()
            .and_then(|u| *u.borrow())
            .map(|ex| {
                let (cls, msg, _) = crate::natives::describe_throwable(&state, ex);
                if msg.is_empty() {
                    cls
                } else {
                    format!("{cls}: {msg}")
                }
            });
        JvmRunResult {
            exit_code: state.exit_code,
            stdout: state.stdout_text(),
            stderr: String::from_utf8_lossy(&state.stderr).into_owned(),
            uncaught,
            instructions: state.instructions,
            runtime: self.runtime.stats(),
            class_fetches: state.loader.fetches,
            wall_ns: self.engine.now_ns() - start_ns,
        }
    }
}

/// A cloneable handle to one JVM's standard input stream. Obtained
/// from [`Jvm::stdin_handle`]; pushing bytes or closing the stream
/// wakes guest threads blocked in `Console.readLine`/`readByte`.
#[derive(Clone)]
pub struct JvmStdin {
    state: Rc<RefCell<JvmState>>,
    runtime: DoppioRuntime,
}

impl JvmStdin {
    /// Queue bytes on standard input, waking blocked readers.
    pub fn push(&self, bytes: &[u8]) {
        let waiters: Vec<ThreadId> = {
            let mut st = self.state.borrow_mut();
            st.push_stdin(bytes);
            st.stdin_waiters.drain(..).collect()
        };
        for w in waiters {
            self.runtime.wake(w);
        }
    }

    /// Close standard input (EOF), waking blocked readers.
    pub fn close(&self) {
        let waiters: Vec<ThreadId> = {
            let mut st = self.state.borrow_mut();
            st.stdin_closed = true;
            st.stdin_waiters.drain(..).collect()
        };
        for w in waiters {
            self.runtime.wake(w);
        }
    }
}
