//! Shared JVM state: heap, classes, monitors, I/O, and the Doppio
//! services the native methods bridge to (§6.3).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::{Rc, Weak};

use doppio_core::ThreadId;
use doppio_fs::FileSystem;
use doppio_heap::UnmanagedHeap;
use doppio_jsengine::Engine;
use doppio_sockets::{DoppioSocket, Network};
use doppio_trace::Counter;

use crate::class::{ClassId, ClassRegistry, MethodRef};
use crate::decode::{decode, DecodeError, Decoded};
use crate::frame::Frame;
use crate::jvm::UserNative;
use crate::loader::LoaderState;
use crate::natives::Binding;
use crate::object::{Heap, HeapObj};
use crate::value::{ObjRef, Value};

/// The most popped frames whose vectors a JVM keeps for reuse: deeper
/// call chains than this allocate again on their way back down.
const SPARE_FRAMES: usize = 256;

/// A JVM monitor (the lock behind `monitorenter`/`synchronized`).
#[derive(Debug, Default)]
pub struct Monitor {
    /// Owning thread and recursion count.
    pub owner: Option<(ThreadId, u32)>,
    /// Threads blocked trying to enter.
    pub entry_queue: VecDeque<ThreadId>,
    /// Threads in `Object.wait`, with the recursion count to restore.
    pub wait_set: Vec<(ThreadId, u32)>,
}

/// One invoke site's cached resolution state, held in the resolution
/// slot of its decoded `invoke*` op.
///
/// The symbolic part (`cname`/`name`/`desc`/`arg_slots`) is decoded
/// from the constant pool exactly once. `direct` binds sites whose
/// target never depends on the receiver (`invokestatic` once the
/// `<clinit>` chain is `Initialized`, `invokespecial` immediately).
/// `mono` is the monomorphic inline cache for `invokevirtual` /
/// `invokeinterface`: it is keyed on the receiver's [`ClassId`], so a
/// subclass loaded mid-run gets a fresh id, misses, and re-dispatches
/// through `select_virtual` — the cache self-invalidates on class
/// loading without any registry hook.
#[derive(Debug)]
pub struct CallSite {
    /// Referenced class name from the CP entry.
    pub cname: Rc<str>,
    /// Method name.
    pub name: Rc<str>,
    /// Method descriptor.
    pub desc: Rc<str>,
    /// Argument slot count computed from the descriptor (receiver not
    /// included).
    pub arg_slots: usize,
    /// Resolved id of `cname`, filled once that class is defined.
    pub ref_class: Cell<Option<ClassId>>,
    /// Receiver-independent target (method + access flags).
    pub direct: Cell<Option<(MethodRef, u16)>>,
    /// Monomorphic cache: receiver class → (target, access flags).
    pub mono: Cell<Option<(ClassId, MethodRef, u16)>>,
}

/// A shared, precompiled view of one method body (built once per
/// method, cached).
#[derive(Debug)]
pub struct CodeBlob {
    /// Declaring class.
    pub class: ClassId,
    /// Method name (for traces).
    pub name: String,
    /// Whether this is a class initializer (`<clinit>`): popping its
    /// frame marks the class initialized.
    pub is_clinit: bool,
    /// Method descriptor.
    pub descriptor: String,
    /// Exception handlers.
    pub exceptions: Vec<doppio_classfile::ExceptionEntry>,
    /// Local slots.
    pub max_locals: u16,
    /// Line-number table.
    pub line_numbers: Vec<(u16, u16)>,
    /// The pre-decoded op stream the interpreter runs, or why the
    /// bytecode does not decode (invoking the method then throws
    /// `java/lang/InternalError`).
    pub(crate) code: Result<Decoded, DecodeError>,
}

/// What a JVM has built for one method, each part on its first use: a
/// bytecode method's code, a native method's binding.
#[derive(Clone, Default)]
struct Built {
    code: Option<Rc<CodeBlob>>,
    native: Option<Rc<Binding>>,
}

/// Counter handles for the resolution caches, resolved once from the
/// shared [`MetricsRegistry`](doppio_trace::MetricsRegistry) so the
/// interpreter bumps an `Rc<Cell<u64>>` instead of doing name lookups.
#[derive(Clone, Debug)]
pub struct PerfCounters {
    /// Constant-pool cache hits (`jvm.cp_cache.hit`).
    pub cp_hit: Counter,
    /// Constant-pool cache misses — first resolution (`jvm.cp_cache.miss`).
    pub cp_miss: Counter,
    /// Inline-cache hits at invoke sites (`jvm.icache.hit`).
    pub ic_hit: Counter,
    /// Inline-cache misses (`jvm.icache.miss`).
    pub ic_miss: Counter,
}

impl PerfCounters {
    /// Resolve the handles from `engine`'s metrics registry.
    pub fn new(engine: &Engine) -> PerfCounters {
        let m = engine.metrics();
        PerfCounters {
            cp_hit: m.counter("jvm.cp_cache.hit"),
            cp_miss: m.counter("jvm.cp_cache.miss"),
            ic_hit: m.counter("jvm.icache.hit"),
            ic_miss: m.counter("jvm.icache.miss"),
        }
    }
}

/// Everything the JVM's threads share.
#[allow(clippy::type_complexity)] // callback plumbing, not public API surface
pub struct JvmState {
    /// The simulated browser engine.
    pub engine: Engine,
    /// Defined classes.
    pub registry: ClassRegistry,
    /// The object heap.
    pub heap: Heap,
    /// Interned `String` constants (`ldc` of the same literal yields
    /// the same object).
    pub string_pool: HashMap<String, ObjRef>,
    /// Monitors, lazily created per object.
    pub monitors: HashMap<ObjRef, Monitor>,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: Vec<u8>,
    /// Optional stdout tee (the §6.8 "custom functions to redirect
    /// standard input and output").
    pub stdout_hook: Option<Box<dyn FnMut(&str)>>,
    /// Buffered standard input bytes.
    pub stdin: VecDeque<u8>,
    /// Whether stdin has reached end-of-file.
    pub stdin_closed: bool,
    /// The unmanaged heap backing `sun.misc.Unsafe` (§6.5).
    pub unmanaged: UnmanagedHeap,
    /// The Doppio file system the class loader and file natives use.
    pub fs: FileSystem,
    /// Optional socket fabric for the socket natives (§5.3).
    pub network: Option<Network>,
    /// Open sockets by descriptor.
    pub sockets: Vec<Option<DoppioSocket>>,
    /// Class-loading bookkeeping.
    pub loader: LoaderState,
    /// Classpath entries (directories on `fs`).
    pub classpath: Vec<String>,
    /// Built method code and native bindings, indexed by class and then
    /// method index.
    code_cache: Vec<Vec<Built>>,
    /// The locals and operand-stack vectors of popped frames, kept for
    /// the next frames to be pushed (at most [`SPARE_FRAMES`]).
    spare_frames: Vec<(Vec<Value>, Vec<Value>)>,
    /// The ids of `java/lang/String` and `java/lang/StringBuilder`,
    /// once defined: the classes of the heap's string and builder
    /// objects, which are not instances.
    pub(crate) string_classes: [Option<ClassId>; 2],
    /// `System.exit` code, if called.
    pub exit_code: Option<i32>,
    /// JavaScript-interop hook (§6.8 `eval`).
    pub js_eval: Option<Box<dyn FnMut(&Engine, &str) -> String>>,
    /// Instructions executed (all threads).
    pub instructions: u64,
    /// Whether to also perform suspend checks on backward branches
    /// (§6.1 discusses instrumenting loop back edges; off by default,
    /// matching DoppioJVM).
    pub check_backedges: bool,
    /// JVM threads that are live (indexes parallel the runtime's ids).
    pub live_threads: usize,
    /// Deterministic RNG state for `Math.random`.
    pub rng_state: u64,
    /// Threads blocked waiting for stdin bytes.
    pub stdin_waiters: Vec<ThreadId>,
    /// User-registered native methods (the §6.3 JNI path), by
    /// `Class.name` and descriptor.
    pub(crate) user_natives: HashMap<String, UserNative>,
    /// `java/lang/Thread` objects per runtime thread id.
    pub thread_objs: HashMap<usize, ObjRef>,
    /// Inverse: runtime thread id per Thread object.
    pub thread_of_obj: HashMap<ObjRef, usize>,
    /// Runtime thread ids that have finished.
    pub finished_threads: HashSet<usize>,
    /// Threads blocked in `join`, keyed by the joined thread's id.
    pub join_waiters: HashMap<usize, Vec<ThreadId>>,
    /// Back-reference for natives that must spawn threads.
    pub self_rc: Option<Weak<RefCell<JvmState>>>,
    /// Resolution-cache counters (shared with the metrics registry).
    pub perf: PerfCounters,
}

impl JvmState {
    /// Fresh state over an engine and file system.
    pub fn new(engine: &Engine, fs: FileSystem) -> JvmState {
        JvmState {
            engine: engine.clone(),
            registry: ClassRegistry::new(),
            heap: Heap::new(),
            string_pool: HashMap::new(),
            monitors: HashMap::new(),
            stdout: Vec::new(),
            stderr: Vec::new(),
            stdout_hook: None,
            stdin: VecDeque::new(),
            stdin_closed: false,
            unmanaged: UnmanagedHeap::new(engine, 16 * 1024 * 1024),
            fs,
            network: None,
            sockets: Vec::new(),
            loader: LoaderState::default(),
            classpath: vec!["/classes".to_string()],
            code_cache: Vec::new(),
            spare_frames: Vec::new(),
            string_classes: [None; 2],
            exit_code: None,
            js_eval: None,
            instructions: 0,
            check_backedges: false,
            live_threads: 0,
            rng_state: 0x5DEECE66D,
            stdin_waiters: Vec::new(),
            user_natives: HashMap::new(),
            thread_objs: HashMap::new(),
            thread_of_obj: HashMap::new(),
            finished_threads: HashSet::new(),
            join_waiters: HashMap::new(),
            self_rc: None,
            perf: PerfCounters::new(engine),
        }
    }

    /// Intern a string literal, returning its heap reference.
    pub fn intern_string(&mut self, s: &str) -> ObjRef {
        if let Some(&r) = self.string_pool.get(s) {
            return r;
        }
        let r = self.heap.alloc_string(s);
        self.string_pool.insert(s.to_string(), r);
        r
    }

    /// Instance field `key` (`"DeclaringClass.fieldName"`) of `obj`,
    /// if `obj` is an instance whose class carries it: the by-name
    /// access for natives that know a field by name.
    pub fn field(&self, obj: ObjRef, key: &str) -> Option<Value> {
        match self.heap.get(obj) {
            HeapObj::Instance { class, fields } => {
                Some(fields[self.registry.get(*class).field_slot(key)?])
            }
            _ => None,
        }
    }

    /// [`field`](Self::field), for writing.
    pub fn field_mut(&mut self, obj: ObjRef, key: &str) -> Option<&mut Value> {
        match self.heap.get_mut(obj) {
            HeapObj::Instance { class, fields } => {
                Some(&mut fields[self.registry.get(*class).field_slot(key)?])
            }
            _ => None,
        }
    }

    /// Write to captured stdout (and the hook, if set).
    pub fn write_stdout(&mut self, text: &str) {
        self.stdout.extend_from_slice(text.as_bytes());
        if let Some(hook) = &mut self.stdout_hook {
            hook(text);
        }
    }

    /// Captured stdout as UTF-8.
    pub fn stdout_text(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }

    /// Queue bytes on standard input.
    pub fn push_stdin(&mut self, bytes: &[u8]) {
        self.stdin.extend(bytes);
    }

    /// The code blob for a method, building (and decoding) it on first
    /// use.
    pub fn code_blob(&mut self, class: ClassId, method_index: usize) -> Option<Rc<CodeBlob>> {
        let built = self.code_cache.get(class).and_then(|t| t.get(method_index));
        if let Some(Built { code: Some(b), .. }) = built {
            return Some(b.clone());
        }
        let rc = self.registry.get(class);
        let cf = rc.cf.as_ref()?;
        let m = cf.methods.get(method_index)?;
        let code = m.code.as_ref()?;
        let blob = Rc::new(CodeBlob {
            class,
            name: m.name.clone(),
            is_clinit: m.name == "<clinit>",
            descriptor: m.descriptor.clone(),
            exceptions: code.exception_table.clone(),
            max_locals: code.max_locals,
            line_numbers: code.line_numbers.clone(),
            code: decode(&code.bytecode, &code.exception_table),
        });
        let method = MethodRef {
            class,
            index: method_index,
        };
        self.built(method).code = Some(blob.clone());
        Some(blob)
    }

    /// The binding of native method `m`, once bound (see
    /// [`crate::natives`]).
    pub(crate) fn native_binding(&mut self, m: MethodRef) -> &mut Option<Rc<Binding>> {
        &mut self.built(m).native
    }

    /// Register `f` as the native `name` + `desc` of class `class`. Every
    /// binding is dropped, so each native binds again at its next call and
    /// one that `f` supersedes runs `f`; built code stays.
    pub(crate) fn register_native(&mut self, class: &str, name: &str, desc: &str, f: UserNative) {
        self.user_natives.insert(format!("{class}.{name}{desc}"), f);
        for built in self.code_cache.iter_mut().flatten() {
            built.native = None;
        }
    }

    /// What this JVM has built for method `m`, with room made for it in
    /// its class's table.
    fn built(&mut self, m: MethodRef) -> &mut Built {
        if self.code_cache.len() <= m.class {
            self.code_cache.resize_with(m.class + 1, Vec::new);
        }
        let table = &mut self.code_cache[m.class];
        if table.len() <= m.index {
            let methods = self
                .registry
                .get(m.class)
                .cf
                .as_ref()
                .map_or(0, |cf| cf.methods.len());
            table.resize(methods.max(m.index + 1), Built::default());
        }
        &mut table[m.index]
    }

    /// A frame for `code`, over a popped frame's vectors when the spare
    /// list has some.
    pub(crate) fn new_frame(&mut self, code: Rc<CodeBlob>) -> Frame {
        match self.spare_frames.pop() {
            Some((locals, stack)) => Frame::reuse(code, locals, stack),
            None => Frame::new(code),
        }
    }

    /// Keep a popped frame's vectors for [`new_frame`](Self::new_frame).
    pub(crate) fn recycle_frame(&mut self, frame: Frame) {
        if self.spare_frames.len() < SPARE_FRAMES {
            self.spare_frames.push((frame.locals, frame.stack));
        }
    }
}
