//! Native methods (§6.3).
//!
//! "The Java Class Library exposes JVM interfaces to a wide variety of
//! native functionality, such as the file system, unsafe memory
//! operations, and network connections. ... DoppioJVM implements a
//! wide variety of these native methods directly in JavaScript. The
//! methods corresponding to the file system API use the Doppio file
//! system, the methods corresponding to unsafe memory operations use
//! the Doppio heap, and the methods corresponding to network
//! connections use Doppio sockets. When a native method needs to use
//! an asynchronous browser API, DoppioJVM uses the suspend-and-resume
//! mechanism ... to 'pause' execution until the browser triggers the
//! resumption callback" — here, [`NativeOutcome::Block`] plus a poll
//! closure the thread re-runs when woken.
//!
//! The `NATIVES` table is the one place a runtime-library native is
//! named: one entry per native, grouped by class, gives its access
//! flags, name, descriptor and function. [`crate::rtlib`] declares each
//! class's natives from it. User-defined natives (the JNI story of §6.3:
//! "reimplemented ... and registered with DoppioJVM") register through
//! [`crate::jvm::Jvm::register_native`] and share the built-in
//! functions' signature.
//!
//! A native method is bound to its function at its first call: a
//! registered native first, then the table, else the call throws
//! `UnsatisfiedLinkError`. The binding is kept beside built code in the
//! JVM's per-method table, so a later call indexes it and compares no
//! strings; registering a native drops every binding. The binding also
//! holds the kind of each argument the method's descriptor declares,
//! receiver first, and every call is checked against them before its
//! function runs (`InternalError` if they do not fit), so a function
//! reads its arguments without checking their kinds.

use std::fmt::Display;
use std::mem::discriminant;
use std::rc::Rc;
use std::str::FromStr;

use doppio_classfile::access::{ACC_NATIVE, ACC_PUBLIC, ACC_STATIC};
use doppio_core::{AsyncResolver, Resource, ThreadContext, ThreadId};
use doppio_fs::FileSystem;
use doppio_heap::{HeapResult, UnmanagedHeap as Unmanaged};
use doppio_jsengine::{Cost, Engine};

use crate::class::MethodRef;
use crate::frame::Frame;
use crate::interp::{self, StepResult};
use crate::jvm::UserNative;
use crate::object::{Heap, HeapObj};
use crate::state::JvmState;
use crate::value::{ObjRef, Value};

/// What a native method call produced.
pub enum NativeOutcome {
    /// Completed with an optional return value.
    Return(Option<Value>),
    /// Threw an exception.
    Throw {
        /// Exception class name.
        class: String,
        /// Exception message.
        message: String,
    },
    /// Blocked on an asynchronous operation: poll `resume` when woken.
    Block(PendingNative),
    /// Voluntary context switch (`Thread.yield`).
    Yield,
    /// `System.exit`.
    Exit(i32),
}

/// A blocked native: polled on wake; `None` means still waiting.
pub type PendingNative = Box<dyn FnMut(&mut NativeCtx<'_, '_, '_>) -> Option<NativeOutcome>>;

/// Everything a native method can touch.
pub struct NativeCtx<'a, 'b, 'rt> {
    /// The shared JVM state.
    pub state: &'a mut JvmState,
    /// The calling thread's frame stack (for stack introspection).
    pub frames: &'a mut Vec<Frame>,
    /// The Doppio thread context (async bridge, spawn, wake).
    pub ctx: &'b mut ThreadContext<'rt>,
    /// The calling thread.
    pub tid: ThreadId,
}

/// The characters of String argument `v`, read in place.
fn heap_str<'h>(heap: &'h Heap, v: &Value) -> Result<&'h str, NativeOutcome> {
    match v {
        Value::Ref(Some(r)) => match heap.get(*r) {
            HeapObj::JavaString { text: s, .. } => Ok(s),
            _ => Err(throw("java/lang/InternalError", "expected a String")),
        },
        _ => Err(npe("null String")),
    }
}

impl NativeCtx<'_, '_, '_> {
    fn string_arg(&self, v: &Value) -> Result<String, NativeOutcome> {
        heap_str(&self.state.heap, v).map(str::to_string)
    }

    fn ret_string(&mut self, s: impl Into<String>) -> NativeOutcome {
        let s = s.into();
        self.state.engine.charge_n(Cost::StringOp, s.len() as u64);
        let r = self.state.heap.alloc_string(s);
        ret(Value::Ref(Some(r)))
    }
}

/// A native's return value.
fn ret(v: Value) -> NativeOutcome {
    NativeOutcome::Return(Some(v))
}

pub(crate) fn throw(class: &str, message: impl Into<String>) -> NativeOutcome {
    NativeOutcome::Throw {
        class: class.to_string(),
        message: message.into(),
    }
}

fn npe(what: &str) -> NativeOutcome {
    throw("java/lang/NullPointerException", what)
}

/// Record an `Async` wait-for edge for the calling thread, with the
/// innermost guest frame as the blame site.
fn note_async_block(n: &mut NativeCtx<'_, '_, '_>, label: &str) {
    let site = interp::current_site(n.state, n.frames);
    n.ctx.note_block(Resource::Async(label.to_string()), site);
}

/// Block on an asynchronous completion, labeled in the wait-for graph.
/// The edge is restored on every poll that stays blocked (a wake from
/// an unrelated source would otherwise erase it and deadlock blame
/// would go blind).
fn block_labeled(
    n: &mut NativeCtx<'_, '_, '_>,
    label: String,
    mut poll: PendingNative,
) -> NativeOutcome {
    note_async_block(n, &label);
    NativeOutcome::Block(Box::new(move |n2| {
        let out = poll(n2);
        if out.is_none() {
            note_async_block(n2, &label);
        }
        out
    }))
}

/// Block on an asynchronous browser API (§4.2), labeled `label` in the
/// wait-for graph: `start` begins the operation, as in
/// [`ThreadContext::block_on`], and `done` turns the value it delivers
/// into the native's outcome.
fn await_async<T: 'static>(
    n: &mut NativeCtx<'_, '_, '_>,
    label: String,
    start: impl FnOnce(&Engine, AsyncResolver<T>),
    mut done: impl FnMut(&mut NativeCtx<'_, '_, '_>, T) -> NativeOutcome + 'static,
) -> NativeOutcome {
    let cell = n.ctx.block_on(start);
    block_labeled(
        n,
        label,
        Box::new(move |n2| cell.take().map(|v| done(n2, v))),
    )
}

/// A file-system result without a value: `IOException` on error.
fn io_void(r: Result<(), impl Display>) -> NativeOutcome {
    match r {
        Ok(()) => NativeOutcome::Return(None),
        Err(e) => throw("java/io/IOException", e.to_string()),
    }
}

/// Turn a native call's outcome into a step result. A return or a yield
/// steps the caller past its invoke (a return pushes its value first); a
/// throw is matched at the invoke. `monitor`, a synchronized native's,
/// is released as the call completes. A blocked native becomes the
/// thread's continuation, whose completed poll comes back here.
pub(crate) fn apply_outcome(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    monitor: Option<ObjRef>,
    outcome: NativeOutcome,
) -> StepResult {
    let tid = ctx.thread_id();
    if let (Some(obj), false) = (monitor, matches!(outcome, NativeOutcome::Block(_))) {
        let _ = interp::exit_monitor(state, ctx, obj, tid);
    }
    match outcome {
        NativeOutcome::Block(mut poll) => {
            StepResult::Blocked(Box::new(move |state, frames, ctx| {
                let outcome = poll(&mut NativeCtx {
                    state: &mut *state,
                    frames: &mut *frames,
                    ctx: &mut *ctx,
                    tid,
                })?;
                Some(apply_outcome(state, frames, ctx, monitor, outcome))
            }))
        }
        NativeOutcome::Return(v) => match frames.last_mut() {
            Some(caller) => {
                interp::step_past_invoke(caller);
                if let Some(v) = v {
                    caller.push(v);
                }
                StepResult::CallBoundary
            }
            None => StepResult::Finished,
        },
        NativeOutcome::Throw { class, message } => {
            interp::throw_vm(state, frames, ctx, tid, &class, &message)
        }
        NativeOutcome::Yield => {
            // The call completed without a value; the thread ends its
            // slice unconditionally so yields are real context-switch
            // points for schedule exploration.
            if let Some(caller) = frames.last_mut() {
                interp::step_past_invoke(caller);
            }
            StepResult::VoluntaryYield
        }
        NativeOutcome::Exit(code) => StepResult::Exit(code),
    }
}

// ----------------------------------------------------------------
// The table and the binder
// ----------------------------------------------------------------

/// A built-in native's function. Like a registered [`UserNative`], it
/// takes the call's logical arguments, receiver first, which the binder
/// has checked against the method's descriptor.
type Function = fn(&mut NativeCtx<'_, '_, '_>, Vec<Value>) -> NativeOutcome;

/// A built-in native: its access flags, name, descriptor and function.
pub(crate) type Native = (u16, &'static str, &'static str, Function);

/// The access flags of an instance native.
const INST: u16 = ACC_PUBLIC | ACC_NATIVE;
/// The access flags of a static native.
const STATIC: u16 = ACC_PUBLIC | ACC_NATIVE | ACC_STATIC;

/// Every native of the runtime library, by declaring class, in the
/// order each class declares them. Kept one entry to a line, which
/// rustfmt's width heuristics for tuples would not do.
#[rustfmt::skip]
static NATIVES: &[(&str, &[Native])] = &[
    ("java/lang/Object", &[
        (INST, "hashCode", "()I", identity_hash),
        (INST, "getClass", "()Ljava/lang/Class;", get_class),
        (INST, "toString", "()Ljava/lang/String;", object_to_string),
        (INST, "wait", "()V", monitor_wait),
        (INST, "notify", "()V", |n, a| monitor_notify(n, a, false)),
        (INST, "notifyAll", "()V", |n, a| monitor_notify(n, a, true)),
    ]),
    ("java/lang/Class", &[
        (INST, "getName", "()Ljava/lang/String;", class_name),
    ]),
    ("java/lang/String", &[
        (INST, "<init>", "()V", string_init),
        (INST, "<init>", "([B)V", string_from_bytes),
        (INST, "<init>", "([C)V", string_from_chars),
        (INST, "length", "()I", string_length),
        (INST, "charAt", "(I)C", char_at),
        (INST, "equals", "(Ljava/lang/Object;)Z", string_equals),
        (INST, "hashCode", "()I", string_hash),
        (INST, "compareTo", "(Ljava/lang/String;)I", compare_to),
        (INST, "concat", "(Ljava/lang/String;)Ljava/lang/String;", concat),
        (INST, "substring", "(II)Ljava/lang/String;", substring),
        (INST, "substring", "(I)Ljava/lang/String;", substring),
        (INST, "indexOf", "(I)I", index_of_char),
        (INST, "indexOf", "(Ljava/lang/String;)I", index_of),
        (INST, "startsWith", "(Ljava/lang/String;)Z", starts_with),
        (INST, "toCharArray", "()[C", to_char_array),
        (INST, "getBytes", "()[B", get_bytes),
        (INST, "intern", "()Ljava/lang/String;", intern),
        (STATIC, "valueOf", "(I)Ljava/lang/String;", |n, a| value_of(n, a, text)),
        (STATIC, "valueOf", "(J)Ljava/lang/String;", |n, a| value_of(n, a, text)),
        (STATIC, "valueOf", "(D)Ljava/lang/String;", |n, a| value_of(n, a, text)),
        (STATIC, "valueOf", "(C)Ljava/lang/String;", |n, a| value_of(n, a, char_text)),
        (STATIC, "valueOf", "(Z)Ljava/lang/String;", |n, a| value_of(n, a, bool_text)),
    ]),
    ("java/lang/StringBuilder", &[
        (INST, "<init>", "()V", builder_init),
        (INST, "append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;", append),
        (INST, "append", "(I)Ljava/lang/StringBuilder;", append),
        (INST, "append", "(J)Ljava/lang/StringBuilder;", append),
        (INST, "append", "(C)Ljava/lang/StringBuilder;", |n, a| append_as(n, a, char_text)),
        (INST, "append", "(Z)Ljava/lang/StringBuilder;", |n, a| append_as(n, a, bool_text)),
        (INST, "append", "(D)Ljava/lang/StringBuilder;", append),
        (INST, "toString", "()Ljava/lang/String;", builder_to_string),
        (INST, "length", "()I", builder_length),
    ]),
    ("java/lang/Throwable", &[
        (INST, "getMessage", "()Ljava/lang/String;", get_message),
        (INST, "fillInStackTrace", "()Ljava/lang/Throwable;", fill_in_stack_trace),
        (INST, "printStackTrace", "()V", print_stack_trace),
    ]),
    ("java/io/PrintStream", &[
        (INST, "print", "(Ljava/lang/String;)V", |n, a| print(n, a, text, false)),
        (INST, "print", "(I)V", |n, a| print(n, a, text, false)),
        (INST, "print", "(J)V", |n, a| print(n, a, text, false)),
        (INST, "print", "(C)V", |n, a| print(n, a, char_text, false)),
        (INST, "print", "(Z)V", |n, a| print(n, a, bool_text, false)),
        (INST, "print", "(D)V", |n, a| print(n, a, text, false)),
        (INST, "print", "(F)V", |n, a| print(n, a, text, false)),
        (INST, "println", "(Ljava/lang/String;)V", |n, a| print(n, a, text, true)),
        (INST, "println", "(I)V", |n, a| print(n, a, text, true)),
        (INST, "println", "(J)V", |n, a| print(n, a, text, true)),
        (INST, "println", "(C)V", |n, a| print(n, a, char_text, true)),
        (INST, "println", "(Z)V", |n, a| print(n, a, bool_text, true)),
        (INST, "println", "(D)V", |n, a| print(n, a, text, true)),
        (INST, "println", "(F)V", |n, a| print(n, a, text, true)),
        (INST, "println", "()V", |n, a| print(n, a, text, true)),
    ]),
    ("java/lang/System", &[
        (STATIC, "currentTimeMillis", "()J", |n, _| clock(n.state.engine.now_ms() as i64)),
        (STATIC, "nanoTime", "()J", |n, _| clock(n.state.engine.now_ns() as i64)),
        (STATIC, "exit", "(I)V", exit),
        (STATIC, "identityHashCode", "(Ljava/lang/Object;)I", identity_hash),
        (STATIC, "arraycopy", "(Ljava/lang/Object;ILjava/lang/Object;II)V", arraycopy),
    ]),
    ("java/lang/Math", &[
        (STATIC, "sqrt", "(D)D", |n, a| math_d(n, a, f64::sqrt)),
        (STATIC, "floor", "(D)D", |n, a| math_d(n, a, f64::floor)),
        (STATIC, "ceil", "(D)D", |n, a| math_d(n, a, f64::ceil)),
        (STATIC, "pow", "(DD)D", |n, a| math_dd(n, a, f64::powf)),
        (STATIC, "log", "(D)D", |n, a| math_d(n, a, f64::ln)),
        (STATIC, "sin", "(D)D", |n, a| math_d(n, a, f64::sin)),
        (STATIC, "cos", "(D)D", |n, a| math_d(n, a, f64::cos)),
        (STATIC, "abs", "(D)D", |n, a| math_d(n, a, f64::abs)),
        (STATIC, "abs", "(I)I", |n, a| math(n, Value::Int(a[0].as_int().wrapping_abs()))),
        (STATIC, "abs", "(J)J", |n, a| math(n, Value::Long(a[0].as_long().wrapping_abs()))),
        (STATIC, "max", "(II)I", |n, a| math(n, Value::Int(a[0].as_int().max(a[1].as_int())))),
        (STATIC, "min", "(II)I", |n, a| math(n, Value::Int(a[0].as_int().min(a[1].as_int())))),
        (STATIC, "max", "(JJ)J", |n, a| math_jj(n, a, i64::max)),
        (STATIC, "min", "(JJ)J", |n, a| math_jj(n, a, i64::min)),
        (STATIC, "max", "(DD)D", |n, a| math_dd(n, a, f64::max)),
        (STATIC, "min", "(DD)D", |n, a| math_dd(n, a, f64::min)),
        (STATIC, "random", "()D", random),
    ]),
    ("java/lang/Integer", &[
        (STATIC, "parseInt", "(Ljava/lang/String;)I", |n, a| parse(n, a, Value::Int)),
        (STATIC, "toString", "(I)Ljava/lang/String;", |n, a| value_of(n, a, text)),
        (STATIC, "toHexString", "(I)Ljava/lang/String;", to_hex_string),
    ]),
    ("java/lang/Long", &[
        (STATIC, "parseLong", "(Ljava/lang/String;)J", parse_long),
        (STATIC, "toString", "(J)Ljava/lang/String;", long_to_string),
    ]),
    ("java/lang/Double", &[
        (STATIC, "parseDouble", "(Ljava/lang/String;)D", |n, a| parse(n, a, Value::Double)),
        (STATIC, "toString", "(D)Ljava/lang/String;", |n, a| value_of(n, a, text)),
    ]),
    ("java/lang/Thread", &[
        (INST, "start", "()V", thread_start),
        (INST, "join", "()V", thread_join),
        (INST, "isAlive", "()Z", thread_is_alive),
        (STATIC, "yield", "()V", |_, _| NativeOutcome::Yield),
        (STATIC, "sleep", "(J)V", sleep),
        (STATIC, "currentThread", "()Ljava/lang/Thread;", current_thread),
    ]),
    ("sun/misc/Unsafe", &[
        (STATIC, "getUnsafe", "()Lsun/misc/Unsafe;", get_unsafe),
        (INST, "allocateMemory", "(J)J", allocate_memory),
        (INST, "freeMemory", "(J)V", free_memory),
        (INST, "reallocateMemory", "(JJ)J", reallocate_memory),
        (INST, "putInt", "(JI)V", |n, a| store(n, &a, Unmanaged::write_i32, a[2].as_int())),
        (INST, "getInt", "(J)I", |n, a| load(n, &a, Unmanaged::read_i32, Value::Int)),
        (INST, "putLong", "(JJ)V", |n, a| store(n, &a, Unmanaged::write_i64, a[2].as_long())),
        (INST, "getLong", "(J)J", |n, a| load(n, &a, Unmanaged::read_i64, Value::Long)),
        (INST, "putByte", "(JB)V", |n, a| store(n, &a, Unmanaged::write_i8, a[2].as_int() as i8)),
        (INST, "getByte", "(J)B", |n, a| load(n, &a, Unmanaged::read_i8, |v| Value::Int(v.into()))),
        (INST, "putDouble", "(JD)V", |n, a| store(n, &a, Unmanaged::write_f64, a[2].as_double())),
        (INST, "getDouble", "(J)D", |n, a| load(n, &a, Unmanaged::read_f64, Value::Double)),
        (INST, "addressSize", "()I", |_, _| ret(Value::Int(4))),
        (INST, "pageSize", "()I", |_, _| ret(Value::Int(4096))),
        // The JCL uses Unsafe at startup to probe endianness (§6.5);
        // Doppio's heap is little endian like typed arrays.
        (INST, "isLittleEndian", "()Z", |_, _| ret(Value::Int(1))),
    ]),
    ("doppio/runtime/FileSystem", &[
        (STATIC, "readFileBytes", "(Ljava/lang/String;)[B", read_file_bytes),
        (STATIC, "writeFileBytes", "(Ljava/lang/String;[B)V", write_file_bytes),
        (STATIC, "listDir", "(Ljava/lang/String;)[Ljava/lang/String;", list_dir),
        (STATIC, "exists", "(Ljava/lang/String;)Z", exists),
        (STATIC, "fileSize", "(Ljava/lang/String;)I", file_size),
        (STATIC, "mkdir", "(Ljava/lang/String;)V", mkdir),
        (STATIC, "unlink", "(Ljava/lang/String;)V", unlink),
    ]),
    ("doppio/runtime/Console", &[
        (STATIC, "readLine", "()Ljava/lang/String;", read_line),
        (STATIC, "readByte", "()I", read_byte),
    ]),
    ("doppio/runtime/JS", &[
        (STATIC, "eval", "(Ljava/lang/String;)Ljava/lang/String;", js_eval),
    ]),
    ("doppio/net/Socket", &[
        (STATIC, "connect", "(Ljava/lang/String;I)I", socket_connect),
        (STATIC, "write", "(I[B)V", socket_write),
        (STATIC, "available", "(I)I", socket_available),
        (STATIC, "read", "(II)[B", socket_read),
        (STATIC, "close", "(I)V", socket_close),
    ]),
];

/// The natives runtime-library class `class` declares, in order; none
/// for any other class.
pub(crate) fn declared(class: &str) -> &'static [Native] {
    NATIVES
        .iter()
        .find(|(c, _)| *c == class)
        .map_or(&[], |&(_, natives)| natives)
}

/// A native method bound to its function, kept beside built code (see
/// [`JvmState::native_binding`]).
pub(crate) struct Binding {
    function: UserNative,
    /// One value of each kind the descriptor declares, receiver first:
    /// a call passes exactly these `Value` variants.
    kinds: Box<[Value]>,
}

/// Call native method `method` with its invoke's logical arguments,
/// binding it at its first call. Arguments of the wrong kind or count
/// throw `InternalError` before the function runs.
pub(crate) fn call(
    n: &mut NativeCtx<'_, '_, '_>,
    method: MethodRef,
    args: Vec<Value>,
) -> NativeOutcome {
    let binding = match n.state.native_binding(method).clone() {
        Some(binding) => binding,
        None => match bind(n.state, method) {
            Ok(b) => n.state.native_binding(method).insert(Rc::new(b)).clone(),
            Err(link_error) => return link_error,
        },
    };
    if let Some(problem) = binding.mismatch(&args) {
        let message = format!("{}: {problem}", signature(n.state, method));
        return throw("java/lang/InternalError", message);
    }
    (binding.function)(n, args)
}

/// Bind native `method`: a registered native first, then [`NATIVES`].
/// `Err` is the `UnsatisfiedLinkError` the call throws when neither has
/// it; a failed binding is not kept, so a native registered later still
/// binds.
fn bind(state: &JvmState, method: MethodRef) -> Result<Binding, NativeOutcome> {
    let class = state.registry.get(method.class);
    let m = class
        .cf
        .as_ref()
        .and_then(|cf| cf.methods.get(method.index));
    let (name, desc) = m.map_or(("", ""), |m| (m.name.as_str(), m.descriptor.as_str()));
    // Most JVMs register no native, and they format no key.
    let registered = if state.user_natives.is_empty() {
        None
    } else {
        state.user_natives.get(&signature(state, method))
    };
    let builtin = declared(&class.name)
        .iter()
        .find(|e| (e.1, e.2) == (name, desc));
    let function: UserNative = match (registered, builtin) {
        (Some(f), _) => f.clone(),
        (None, Some(&(.., f))) => Rc::new(f),
        (None, None) => {
            let message = signature(state, method);
            return Err(throw("java/lang/UnsatisfiedLinkError", message));
        }
    };
    let receiver = m.is_some_and(|m| m.access_flags & ACC_STATIC == 0);
    let kinds = (receiver.then(Value::null).into_iter())
        .chain(param_kinds(desc))
        .collect();
    Ok(Binding { function, kinds })
}

/// `Class.name` and descriptor of `method`: how messages name it and
/// how registered natives are keyed.
fn signature(state: &JvmState, method: MethodRef) -> String {
    let class = state.registry.get(method.class);
    match class
        .cf
        .as_ref()
        .and_then(|cf| cf.methods.get(method.index))
    {
        Some(m) => format!("{}.{}{}", class.name, m.name, m.descriptor),
        None => class.name.clone(),
    }
}

/// One value of the kind of each parameter method descriptor `desc`
/// declares, as [`Value::default_for`] reads a field descriptor. It
/// reads `desc` in place: every short-lived JVM binds its natives anew,
/// and the allocations of `parse_method_descriptor` doubled the cost of
/// a binding.
fn param_kinds(desc: &str) -> impl Iterator<Item = Value> + '_ {
    let mut rest = desc.strip_prefix('(').unwrap_or_default();
    std::iter::from_fn(move || {
        if rest.is_empty() || rest.starts_with(')') {
            return None;
        }
        let kind = Value::default_for(rest);
        let element = rest.trim_start_matches('[');
        rest = match element.strip_prefix('L') {
            Some(class) => class.split_once(';').map_or("", |(_, r)| r),
            None => element.get(1..).unwrap_or_default(),
        };
        Some(kind)
    })
}

impl Binding {
    /// Why `args` do not fit the method's descriptor, if they do not.
    fn mismatch(&self, args: &[Value]) -> Option<String> {
        if args.len() != self.kinds.len() {
            let (given, takes) = (args.len(), self.kinds.len());
            return Some(format!("{given} arguments where it takes {takes}"));
        }
        let i = args
            .iter()
            .zip(&*self.kinds)
            .position(|(a, k)| discriminant(a) != discriminant(k))?;
        let kind = match self.kinds[i] {
            Value::Int(_) => "an int",
            Value::Long(_) => "a long",
            Value::Float(_) => "a float",
            Value::Double(_) => "a double",
            _ => "a reference",
        };
        Some(format!("argument {i} is {:?}, not {kind}", args[i]))
    }
}

// ----------------------------------------------------------------
// java/lang/Object, java/lang/Class
// ----------------------------------------------------------------

/// `Object.hashCode` and `System.identityHashCode`: the object's heap
/// reference, 0 for null.
fn identity_hash(_: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    ret(Value::Int(args[0].as_ref().map_or(0, |r| r as i32)))
}

fn get_class(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(r) = args[0].as_ref() else {
        return npe("getClass");
    };
    match interp::runtime_class_of(n.state, r) {
        Ok(cid) => {
            let cname = n.state.registry.get(cid).name.clone();
            let mirror = interp::class_object(n.state, &cname);
            ret(Value::Ref(Some(mirror)))
        }
        Err(_) => throw("java/lang/InternalError", "getClass"),
    }
}

fn object_to_string(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(r) = args[0].as_ref() else {
        return npe("toString");
    };
    let text = match n.state.heap.get(r) {
        HeapObj::JavaString { text: s, .. } => s.clone(),
        HeapObj::StringBuilder(s) => s.clone(),
        HeapObj::Instance { class, .. } => {
            format!("{}@{:x}", n.state.registry.get(*class).name, r)
        }
        other => format!("{}@{:x}", other.array_class_name().unwrap_or_default(), r),
    };
    n.ret_string(text)
}

/// `Object.wait()`.
fn monitor_wait(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(obj) = args[0].as_ref() else {
        return npe("wait");
    };
    let tid = n.tid;
    let Some(m) = n.state.monitors.get_mut(&obj) else {
        return throw(
            "java/lang/IllegalMonitorStateException",
            "wait without monitor",
        );
    };
    let Some((owner, count)) = m.owner else {
        return throw(
            "java/lang/IllegalMonitorStateException",
            "wait without monitor",
        );
    };
    if owner != tid {
        return throw(
            "java/lang/IllegalMonitorStateException",
            "wait by non-owner",
        );
    }
    // Release fully, remember the recursion count, join the wait set.
    m.owner = None;
    m.wait_set.push((tid, count));
    let next = m.entry_queue.pop_front();
    n.ctx.note_release(Resource::Monitor(obj as u64));
    if let Some(next) = next {
        n.ctx.wake(next);
    }
    let site = interp::current_site(n.state, n.frames);
    n.ctx.note_block(Resource::Cond(obj as u64), site.clone());
    // Resume: once notified we are moved to the entry queue; we must
    // reacquire with the saved count before returning.
    let mut reacquiring = false;
    NativeOutcome::Block(Box::new(move |n2| {
        let tid = n2.tid;
        let m = n2.state.monitors.entry(obj).or_default();
        if !reacquiring {
            // Only proceed once notify moved us out of the wait set.
            if m.wait_set.iter().any(|(t, _)| *t == tid) {
                n2.ctx.note_block(Resource::Cond(obj as u64), site.clone());
                return None;
            }
            reacquiring = true;
        }
        match m.owner {
            None => {
                m.owner = Some((tid, count));
                n2.ctx.note_acquire(Resource::Monitor(obj as u64));
                Some(NativeOutcome::Return(None))
            }
            Some((o, _)) if o == tid => Some(NativeOutcome::Return(None)),
            Some(_) => {
                if !m.entry_queue.contains(&tid) {
                    m.entry_queue.push_back(tid);
                }
                // Notified but the monitor is contended: the wait-for
                // edge sharpens from the condition to the monitor.
                n2.ctx
                    .note_block(Resource::Monitor(obj as u64), site.clone());
                None
            }
        }
    }))
}

/// `Object.notify()`, or `notifyAll()` when `all`.
fn monitor_notify(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>, all: bool) -> NativeOutcome {
    let Some(obj) = args[0].as_ref() else {
        return npe(if all { "notifyAll" } else { "notify" });
    };
    let tid = n.tid;
    let Some(m) = n.state.monitors.get_mut(&obj) else {
        return throw(
            "java/lang/IllegalMonitorStateException",
            "notify without monitor",
        );
    };
    match m.owner {
        Some((owner, _)) if owner == tid => {}
        _ => {
            return throw(
                "java/lang/IllegalMonitorStateException",
                "notify by non-owner",
            )
        }
    }
    let to_wake: Vec<ThreadId> = if all {
        m.wait_set.drain(..).map(|(t, _)| t).collect()
    } else if m.wait_set.is_empty() {
        Vec::new()
    } else {
        vec![m.wait_set.remove(0).0]
    };
    for t in to_wake {
        n.ctx.wake(t);
    }
    NativeOutcome::Return(None)
}

/// `Class.getName()`.
fn class_name(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(r) = args[0].as_ref() else {
        return npe("getName");
    };
    let name = match n.state.field(r, "java/lang/Class.name") {
        Some(Value::Ref(Some(s))) => n.state.heap.java_string(s).unwrap_or("?").replace('/', "."),
        _ => "?".to_string(),
    };
    n.ret_string(name)
}

// ----------------------------------------------------------------
// java/lang/System, java/io/PrintStream
// ----------------------------------------------------------------

/// A reading of the virtual clock, as `System.currentTimeMillis` and
/// `nanoTime` return it.
fn clock(t: i64) -> NativeOutcome {
    ret(Value::Long(t))
}

fn exit(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let code = args[0].as_int();
    n.state.exit_code = Some(code);
    NativeOutcome::Exit(code)
}

fn arraycopy(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let (src, src_pos, dst, dst_pos, len) = (
        args[0].as_ref(),
        args[1].as_int(),
        args[2].as_ref(),
        args[3].as_int(),
        args[4].as_int(),
    );
    let (Some(src), Some(dst)) = (src, dst) else {
        return npe("arraycopy");
    };
    if src_pos < 0 || dst_pos < 0 || len < 0 {
        return throw("java/lang/ArrayIndexOutOfBoundsException", "arraycopy");
    }
    let (sp, dp, l) = (src_pos as usize, dst_pos as usize, len as usize);
    n.state.engine.charge_n(Cost::ArrayGet, l as u64);
    n.state.engine.charge_n(Cost::ArrayPut, l as u64);
    // Copy out, then in (handles src == dst).
    macro_rules! copy {
        ($variant:ident) => {{
            let chunk = match n.state.heap.get(src) {
                HeapObj::$variant(v) => {
                    if sp + l > v.len() {
                        return throw("java/lang/ArrayIndexOutOfBoundsException", "arraycopy src");
                    }
                    v[sp..sp + l].to_vec()
                }
                _ => return throw("java/lang/ArrayStoreException", "type mismatch"),
            };
            match n.state.heap.get_mut(dst) {
                HeapObj::$variant(v) => {
                    if dp + l > v.len() {
                        return throw("java/lang/ArrayIndexOutOfBoundsException", "arraycopy dst");
                    }
                    v[dp..dp + l].copy_from_slice(&chunk);
                }
                _ => return throw("java/lang/ArrayStoreException", "type mismatch"),
            }
        }};
    }
    match n.state.heap.get(src) {
        HeapObj::ArrayInt(_) => copy!(ArrayInt),
        HeapObj::ArrayLong(_) => copy!(ArrayLong),
        HeapObj::ArrayFloat(_) => copy!(ArrayFloat),
        HeapObj::ArrayDouble(_) => copy!(ArrayDouble),
        HeapObj::ArrayByte(_) => copy!(ArrayByte),
        HeapObj::ArrayChar(_) => copy!(ArrayChar),
        HeapObj::ArrayShort(_) => copy!(ArrayShort),
        HeapObj::ArrayRef { .. } => {
            let chunk = match n.state.heap.get(src) {
                HeapObj::ArrayRef { data, .. } => {
                    if sp + l > data.len() {
                        return throw("java/lang/ArrayIndexOutOfBoundsException", "arraycopy src");
                    }
                    data[sp..sp + l].to_vec()
                }
                _ => unreachable!(),
            };
            match n.state.heap.get_mut(dst) {
                HeapObj::ArrayRef { data, .. } => {
                    if dp + l > data.len() {
                        return throw("java/lang/ArrayIndexOutOfBoundsException", "arraycopy dst");
                    }
                    data[dp..dp + l].copy_from_slice(&chunk);
                }
                _ => return throw("java/lang/ArrayStoreException", "type mismatch"),
            }
        }
        _ => return throw("java/lang/ArrayStoreException", "not an array"),
    }
    NativeOutcome::Return(None)
}

/// How a native that prints, appends or converts a value writes it as
/// text: [`text`], [`char_text`] or [`bool_text`].
type Render = fn(&Heap, Value) -> String;

/// A value as `String.valueOf` writes the kind it holds: a number, or a
/// `String` ("null" for null).
fn text(heap: &Heap, v: Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Long(l) => l.to_string(),
        Value::Float(f) => format_double(f64::from(f)),
        Value::Double(d) => format_double(d),
        Value::Ref(Some(r)) => match heap.get(r) {
            HeapObj::JavaString { text: s, .. } => s.clone(),
            _ => "<object>".to_string(),
        },
        _ => "null".to_string(),
    }
}

/// A `char` as `String.valueOf(char)` writes it.
fn char_text(_: &Heap, v: Value) -> String {
    char::from_u32(v.as_int() as u32)
        .unwrap_or('\u{FFFD}')
        .to_string()
}

/// A `boolean` as `String.valueOf(boolean)` writes it.
fn bool_text(_: &Heap, v: Value) -> String {
    (v.as_int() != 0).to_string()
}

/// `PrintStream.print` of the argument after the receiver, if there is
/// one, as `render` writes it, then a newline when `newline`.
fn print(
    n: &mut NativeCtx<'_, '_, '_>,
    args: Vec<Value>,
    render: Render,
    newline: bool,
) -> NativeOutcome {
    let Some(recv) = args[0].as_ref() else {
        return npe("PrintStream");
    };
    let is_err = n.state.field(recv, "java/io/PrintStream.fd") == Some(Value::Int(2));
    let text = args
        .get(1)
        .map_or_else(String::new, |&v| render(&n.state.heap, v));
    let full = if newline { format!("{text}\n") } else { text };
    n.state.engine.charge_n(Cost::StringOp, full.len() as u64);
    if is_err {
        n.state.stderr.extend_from_slice(full.as_bytes());
    } else {
        n.state.write_stdout(&full);
    }
    NativeOutcome::Return(None)
}

/// Render a double roughly as Java does (integral values keep ".0").
fn format_double(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

// ----------------------------------------------------------------
// java/lang/String & StringBuilder
// ----------------------------------------------------------------

// Constructors rewrite the freshly `new`ed instance in place.

fn string_init(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(r) = args[0].as_ref() else {
        return npe("<init>");
    };
    *n.state.heap.get_mut(r) = HeapObj::string(String::new());
    NativeOutcome::Return(None)
}

fn string_from_bytes(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(r) = args[0].as_ref() else {
        return npe("<init>");
    };
    let Some(b) = args[1].as_ref() else {
        return npe("byte[]");
    };
    let bytes: Vec<u8> = match n.state.heap.get(b) {
        HeapObj::ArrayByte(v) => v.iter().map(|&x| x as u8).collect(),
        _ => return throw("java/lang/InternalError", "expected byte[]"),
    };
    n.state.engine.charge_n(Cost::StringOp, bytes.len() as u64);
    let s = String::from_utf8_lossy(&bytes).into_owned();
    *n.state.heap.get_mut(r) = HeapObj::string(s);
    NativeOutcome::Return(None)
}

fn string_from_chars(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(r) = args[0].as_ref() else {
        return npe("<init>");
    };
    let Some(c) = args[1].as_ref() else {
        return npe("char[]");
    };
    let units: Vec<u16> = match n.state.heap.get(c) {
        HeapObj::ArrayChar(v) => v.clone(),
        _ => return throw("java/lang/InternalError", "expected char[]"),
    };
    n.state.engine.charge_n(Cost::StringOp, units.len() as u64);
    let s: String = char::decode_utf16(units)
        .map(|r| r.unwrap_or(char::REPLACEMENT_CHARACTER))
        .collect();
    *n.state.heap.get_mut(r) = HeapObj::string(s);
    NativeOutcome::Return(None)
}

/// The receiver of a `java/lang/String` instance method, read in place,
/// and whether it is all ASCII.
fn this_text<'h>(heap: &'h Heap, args: &[Value]) -> Result<(&'h str, bool), NativeOutcome> {
    match args.first() {
        Some(Value::Ref(Some(r))) => match heap.get(*r) {
            HeapObj::JavaString { text, ascii } => Ok((text, *ascii)),
            _ => Err(throw("java/lang/InternalError", "not a String")),
        },
        _ => Err(npe("String method")),
    }
}

/// The receiver of a `java/lang/String` instance method, read in place.
fn this_str<'h>(heap: &'h Heap, args: &[Value]) -> Result<&'h str, NativeOutcome> {
    this_text(heap, args).map(|(text, _)| text)
}

fn string_length(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let (s, ascii) = match this_text(&n.state.heap, &args) {
        Ok(t) => t,
        Err(e) => return e,
    };
    let len = if ascii {
        s.len()
    } else {
        s.encode_utf16().count()
    };
    ret(Value::Int(len as i32))
}

fn char_at(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let (s, ascii) = match this_text(&n.state.heap, &args) {
        Ok(t) => t,
        Err(e) => return e,
    };
    let i = args[1].as_int();
    n.state.engine.charge(Cost::StringOp);
    // An ASCII string's UTF-16 units are its bytes.
    let unit = match usize::try_from(i) {
        Ok(i) if ascii => s.as_bytes().get(i).map(|&b| u16::from(b)),
        Ok(i) => s.encode_utf16().nth(i),
        Err(_) => None,
    };
    match unit {
        Some(u) => ret(Value::Int(i32::from(u))),
        None => throw("java/lang/StringIndexOutOfBoundsException", i.to_string()),
    }
}

fn string_equals(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let s = match this_str(&n.state.heap, &args) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let eq = match args[1] {
        Value::Ref(Some(r)) => {
            matches!(n.state.heap.get(r), HeapObj::JavaString { text: t, .. } if t == s)
        }
        _ => false,
    };
    n.state.engine.charge_n(Cost::StringOp, s.len() as u64);
    ret(Value::Int(i32::from(eq)))
}

fn string_hash(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let s = match this_str(&n.state.heap, &args) {
        Ok(s) => s,
        Err(e) => return e,
    };
    n.state.engine.charge_n(Cost::StringOp, s.len() as u64);
    let mut h: i32 = 0;
    for u in s.encode_utf16() {
        h = h.wrapping_mul(31).wrapping_add(i32::from(u));
    }
    ret(Value::Int(h))
}

fn compare_to(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let s = match this_str(&n.state.heap, &args) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let t = match heap_str(&n.state.heap, &args[1]) {
        Ok(t) => t,
        Err(e) => return e,
    };
    let a: Vec<u16> = s.encode_utf16().collect();
    let b: Vec<u16> = t.encode_utf16().collect();
    n.state
        .engine
        .charge_n(Cost::StringOp, a.len().min(b.len()) as u64);
    let r = match a.cmp(&b) {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => 1,
    };
    ret(Value::Int(r))
}

fn concat(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let s = match this_str(&n.state.heap, &args) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let t = match heap_str(&n.state.heap, &args[1]) {
        Ok(t) => t,
        Err(e) => return e,
    };
    n.ret_string(format!("{s}{t}"))
}

/// `substring(begin, end)`, and `substring(begin)` to the end.
fn substring(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let s = match this_str(&n.state.heap, &args) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let units: Vec<u16> = s.encode_utf16().collect();
    let begin = args[1].as_int();
    let end = args.get(2).map_or(units.len() as i32, Value::as_int);
    if begin < 0 || end > units.len() as i32 || begin > end {
        return throw(
            "java/lang/StringIndexOutOfBoundsException",
            format!("begin {begin}, end {end}, length {}", units.len()),
        );
    }
    let sub: String = char::decode_utf16(units[begin as usize..end as usize].iter().copied())
        .map(|r| r.unwrap_or(char::REPLACEMENT_CHARACTER))
        .collect();
    n.ret_string(sub)
}

fn index_of_char(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let s = match this_str(&n.state.heap, &args) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let c = args[1].as_int();
    let idx = s
        .encode_utf16()
        .position(|u| i32::from(u) == c)
        .map(|i| i as i32)
        .unwrap_or(-1);
    ret(Value::Int(idx))
}

fn index_of(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let s = match this_str(&n.state.heap, &args) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let t = match heap_str(&n.state.heap, &args[1]) {
        Ok(t) => t,
        Err(e) => return e,
    };
    n.state.engine.charge_n(Cost::StringOp, s.len() as u64);
    let idx = s
        .find(t)
        .map(|b| s[..b].encode_utf16().count() as i32)
        .unwrap_or(-1);
    ret(Value::Int(idx))
}

fn starts_with(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let s = match this_str(&n.state.heap, &args) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let t = match heap_str(&n.state.heap, &args[1]) {
        Ok(t) => t,
        Err(e) => return e,
    };
    ret(Value::Int(i32::from(s.starts_with(t))))
}

fn to_char_array(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let s = match this_str(&n.state.heap, &args) {
        Ok(s) => s,
        Err(e) => return e,
    };
    n.state.engine.charge_n(Cost::StringOp, s.len() as u64);
    let units: Vec<u16> = s.encode_utf16().collect();
    let r = n.state.heap.alloc(HeapObj::ArrayChar(units));
    ret(Value::Ref(Some(r)))
}

fn get_bytes(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let s = match this_str(&n.state.heap, &args) {
        Ok(s) => s,
        Err(e) => return e,
    };
    n.state.engine.charge_n(Cost::StringOp, s.len() as u64);
    let bytes: Vec<i8> = s.bytes().map(|b| b as i8).collect();
    let r = n.state.heap.alloc(HeapObj::ArrayByte(bytes));
    ret(Value::Ref(Some(r)))
}

fn intern(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let s = match this_str(&n.state.heap, &args) {
        Ok(s) => s.to_string(),
        Err(e) => return e,
    };
    let r = n.state.intern_string(&s);
    ret(Value::Ref(Some(r)))
}

/// `String.valueOf`, and the boxed types' `toString`: the first
/// argument as `render` writes it.
fn value_of(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>, render: Render) -> NativeOutcome {
    let text = render(&n.state.heap, args[0]);
    n.ret_string(text)
}

fn builder_init(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(recv) = args[0].as_ref() else {
        return npe("StringBuilder");
    };
    *n.state.heap.get_mut(recv) = HeapObj::StringBuilder(String::new());
    NativeOutcome::Return(None)
}

/// `StringBuilder.append` of a `String`, an `int`, a `long` or a
/// `double`.
fn append(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    append_as(n, args, text)
}

/// `StringBuilder.append` of its argument as `render` writes it.
fn append_as(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>, render: Render) -> NativeOutcome {
    let Some(recv) = args[0].as_ref() else {
        return npe("StringBuilder");
    };
    let text = render(&n.state.heap, args[1]);
    n.state.engine.charge_n(Cost::StringOp, text.len() as u64);
    if let HeapObj::StringBuilder(s) = n.state.heap.get_mut(recv) {
        s.push_str(&text);
    }
    ret(Value::Ref(Some(recv)))
}

fn builder_to_string(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(recv) = args[0].as_ref() else {
        return npe("StringBuilder");
    };
    let s = match n.state.heap.get(recv) {
        HeapObj::StringBuilder(s) => s.clone(),
        _ => String::new(),
    };
    n.ret_string(s)
}

fn builder_length(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(recv) = args[0].as_ref() else {
        return npe("StringBuilder");
    };
    let len = match n.state.heap.get(recv) {
        HeapObj::StringBuilder(s) => s.encode_utf16().count(),
        _ => 0,
    };
    ret(Value::Int(len as i32))
}

// ----------------------------------------------------------------
// java/lang/Math, boxed-type helpers
// ----------------------------------------------------------------

/// A `Math` native's result. Every `Math` native charges one
/// `Cost::FloatOp`.
fn math(n: &mut NativeCtx<'_, '_, '_>, v: Value) -> NativeOutcome {
    n.state.engine.charge(Cost::FloatOp);
    ret(v)
}

/// A `Math` native of one `double`.
fn math_d(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>, f: fn(f64) -> f64) -> NativeOutcome {
    math(n, Value::Double(f(args[0].as_double())))
}

/// A `Math` native of two `double`s.
fn math_dd(
    n: &mut NativeCtx<'_, '_, '_>,
    args: Vec<Value>,
    f: fn(f64, f64) -> f64,
) -> NativeOutcome {
    math(
        n,
        Value::Double(f(args[0].as_double(), args[1].as_double())),
    )
}

/// A `Math` native of two `long`s.
fn math_jj(
    n: &mut NativeCtx<'_, '_, '_>,
    args: Vec<Value>,
    f: fn(i64, i64) -> i64,
) -> NativeOutcome {
    math(n, Value::Long(f(args[0].as_long(), args[1].as_long())))
}

/// `Math.random()`: a deterministic xorshift, so runs are reproducible.
fn random(n: &mut NativeCtx<'_, '_, '_>, _: Vec<Value>) -> NativeOutcome {
    let s = &mut n.state.rng_state;
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    let v = (*s >> 11) as f64 / (1u64 << 53) as f64;
    math(n, Value::Double(v))
}

/// `Integer.parseInt` and its kin: the trimmed `String` argument read as
/// a `T`, or `NumberFormatException`.
fn parse<T: FromStr>(
    n: &mut NativeCtx<'_, '_, '_>,
    args: Vec<Value>,
    value: fn(T) -> Value,
) -> NativeOutcome {
    let s = match n.string_arg(&args[0]) {
        Ok(s) => s,
        Err(e) => return e,
    };
    match s.trim().parse::<T>() {
        Ok(v) => ret(value(v)),
        Err(_) => throw("java/lang/NumberFormatException", s),
    }
}

fn to_hex_string(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let v = args[0].as_int();
    n.ret_string(format!("{:x}", v as u32))
}

// Both `Long` natives charge one `Cost::LongOp` first.

fn parse_long(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    n.state.engine.charge(Cost::LongOp);
    parse(n, args, Value::Long)
}

fn long_to_string(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    n.state.engine.charge(Cost::LongOp);
    value_of(n, args, text)
}

// ----------------------------------------------------------------
// Threads (§4.3, §6.2)
// ----------------------------------------------------------------

fn thread_start(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(recv) = args[0].as_ref() else {
        return npe("Thread.start");
    };
    crate::thread::spawn_java_thread(n, recv)
}

fn thread_join(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(recv) = args[0].as_ref() else {
        return npe("Thread.join");
    };
    crate::thread::join_thread(n, recv)
}

fn thread_is_alive(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(recv) = args[0].as_ref() else {
        return npe("Thread.isAlive");
    };
    let alive = crate::thread::is_alive(n.state, recv);
    ret(Value::Int(i32::from(alive)))
}

fn sleep(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let ms = args[0].as_long().max(0) as f64;
    await_async(
        n,
        format!("thread.sleep({}ms)", ms as u64),
        move |engine, resolver| {
            engine.set_timeout(ms, move |_| resolver.resolve(()));
        },
        |_, ()| NativeOutcome::Return(None),
    )
}

fn current_thread(n: &mut NativeCtx<'_, '_, '_>, _: Vec<Value>) -> NativeOutcome {
    let r = crate::thread::current_thread_object(n);
    ret(Value::Ref(Some(r)))
}

fn fill_in_stack_trace(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    // §6.1: the explicit call stack makes introspection trivial.
    let trace: Vec<String> = n
        .frames
        .iter()
        .rev()
        .map(|f| {
            let cls = &n.state.registry.get(f.code.class).name;
            let line = f
                .code
                .line_numbers
                .iter()
                .rev()
                .find(|&&(pc, _)| (pc as usize) <= f.pc)
                .map(|&(_, l)| l);
            match line {
                Some(l) => format!("{cls}.{}({}:{l})", f.code.name, cls),
                None => format!("{cls}.{}", f.code.name),
            }
        })
        .collect();
    let text = trace.join("\n\tat ");
    let trace_ref = n.state.heap.alloc_string(text);
    if let Some(r) = args[0].as_ref() {
        if let Some(slot) = n.state.field_mut(r, "java/lang/Throwable.stackTrace") {
            *slot = Value::Ref(Some(trace_ref));
        }
    }
    ret(args[0])
}

fn print_stack_trace(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(r) = args[0].as_ref() else {
        return npe("printStackTrace");
    };
    let (cls, msg, trace) = describe_throwable(n.state, r);
    let mut text = cls;
    if !msg.is_empty() {
        text = format!("{text}: {msg}");
    }
    if !trace.is_empty() {
        text = format!("{text}\n\tat {trace}");
    }
    text.push('\n');
    n.state.stderr.extend_from_slice(text.as_bytes());
    NativeOutcome::Return(None)
}

fn get_message(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let Some(r) = args[0].as_ref() else {
        return npe("getMessage");
    };
    let msg = n.state.field(r, "java/lang/Throwable.message");
    ret(msg.unwrap_or(Value::null()))
}

/// A throwable object as `Class: message`, or `Class` when it has no
/// message.
pub(crate) fn describe_summary(state: &JvmState, r: ObjRef) -> String {
    match describe_throwable(state, r) {
        (cls, msg, _) if msg.is_empty() => cls,
        (cls, msg, _) => format!("{cls}: {msg}"),
    }
}

/// `(class name, message, stack trace)` of a throwable object.
pub fn describe_throwable(state: &JvmState, r: ObjRef) -> (String, String, String) {
    let text = |key: &str| match state.field(r, key) {
        Some(Value::Ref(Some(s))) => state.heap.java_string(s).unwrap_or("").to_string(),
        _ => String::new(),
    };
    match state.heap.get(r) {
        HeapObj::Instance { class, .. } => {
            let cls = state.registry.get(*class).name.replace('/', ".");
            (
                cls,
                text("java/lang/Throwable.message"),
                text("java/lang/Throwable.stackTrace"),
            )
        }
        HeapObj::JavaString { text: s, .. } => {
            ("java.lang.Throwable".into(), s.clone(), String::new())
        }
        _ => ("java.lang.Throwable".into(), String::new(), String::new()),
    }
}

// ----------------------------------------------------------------
// sun/misc/Unsafe (§6.5)
// ----------------------------------------------------------------

fn get_unsafe(n: &mut NativeCtx<'_, '_, '_>, _: Vec<Value>) -> NativeOutcome {
    let cid = match n.state.registry.lookup("sun/misc/Unsafe") {
        Some(c) => c,
        None => return throw("java/lang/NoClassDefFoundError", "sun/misc/Unsafe"),
    };
    let r = interp::alloc_instance(n.state, cid);
    ret(Value::Ref(Some(r)))
}

// The other `Unsafe` natives are instance methods of the singleton
// `getUnsafe` returns: their address is the argument after it.

/// The address an `Unsafe` access names.
fn addr(args: &[Value]) -> usize {
    args[1].as_long() as usize
}

/// An `Unsafe` access's outcome: `value` of what it produced, or the
/// unmanaged heap's error as an `InternalError`.
fn unmanaged<T>(r: HeapResult<T>, value: impl FnOnce(T) -> Option<Value>) -> NativeOutcome {
    match r {
        Ok(v) => NativeOutcome::Return(value(v)),
        Err(e) => throw("java/lang/InternalError", e.to_string()),
    }
}

fn allocate_memory(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let size = args[1].as_long();
    match n.state.unmanaged.malloc(size.max(0) as usize) {
        Ok(addr) => ret(Value::Long(addr as i64)),
        Err(e) => throw("java/lang/OutOfMemoryError", e.to_string()),
    }
}

fn free_memory(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    unmanaged(n.state.unmanaged.free(addr(&args)), |()| None)
}

fn reallocate_memory(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let size = args[2].as_long().max(0) as usize;
    let r = n.state.unmanaged.realloc(addr(&args), size);
    unmanaged(r, |p| Some(Value::Long(p as i64)))
}

/// An `Unsafe` read: `value` of what `read` finds at the address, or
/// the unmanaged heap's error as an `InternalError`.
fn load<T>(
    n: &mut NativeCtx<'_, '_, '_>,
    args: &[Value],
    read: fn(&Unmanaged, usize) -> HeapResult<T>,
    value: fn(T) -> Value,
) -> NativeOutcome {
    unmanaged(read(&n.state.unmanaged, addr(args)), |v| Some(value(v)))
}

/// An `Unsafe` write of `v` to the address, or the unmanaged heap's
/// error as an `InternalError`.
fn store<T>(
    n: &mut NativeCtx<'_, '_, '_>,
    args: &[Value],
    write: fn(&mut Unmanaged, usize, T) -> HeapResult<()>,
    v: T,
) -> NativeOutcome {
    unmanaged(write(&mut n.state.unmanaged, addr(args), v), |()| None)
}

// ----------------------------------------------------------------
// Doppio runtime services: file system, console, JS interop, sockets
// ----------------------------------------------------------------

fn read_file_bytes(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    fs_call(
        n,
        &args,
        "read",
        |fs, path, resolver| fs.read_file(&path, move |_, r| resolver.resolve(r)),
        |n2, r| match r {
            Ok(bytes) => {
                // The JVM-side byte[] is a typed array in the
                // browser — visible to the Safari leak model.
                if n2.state.engine.profile().has_typed_arrays {
                    n2.state.engine.typed_array_alloc(bytes.len());
                    n2.state.engine.typed_array_free(bytes.len());
                }
                let data: Vec<i8> = bytes.into_iter().map(|b| b as i8).collect();
                let arr = n2.state.heap.alloc(HeapObj::ArrayByte(data));
                ret(Value::Ref(Some(arr)))
            }
            Err(e) => throw("java/io/IOException", e.to_string()),
        },
    )
}

fn write_file_bytes(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let path = match n.string_arg(&args[0]) {
        Ok(p) => p,
        Err(e) => return e,
    };
    let Some(arr) = args[1].as_ref() else {
        return npe("byte[]");
    };
    let bytes: Vec<u8> = match n.state.heap.get(arr) {
        HeapObj::ArrayByte(v) => v.iter().map(|&b| b as u8).collect(),
        _ => return throw("java/lang/InternalError", "expected byte[]"),
    };
    let fs = n.state.fs.clone();
    await_async(
        n,
        doppio_fs::wait_label("write", &path),
        move |_, resolver| fs.write_file(&path, bytes, move |_, r| resolver.resolve(r)),
        |_, r| io_void(r),
    )
}

fn list_dir(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    fs_call(
        n,
        &args,
        "readdir",
        |fs, path, resolver| fs.readdir(&path, move |_, r| resolver.resolve(r)),
        |n2, r| match r {
            Ok(names) => {
                let refs: Vec<Option<ObjRef>> = names
                    .into_iter()
                    .map(|s| Some(n2.state.heap.alloc_string(s)))
                    .collect();
                let arr = n2.state.heap.alloc(HeapObj::ArrayRef {
                    component: "java/lang/String".to_string(),
                    data: refs,
                });
                ret(Value::Ref(Some(arr)))
            }
            Err(e) => throw("java/io/IOException", e.to_string()),
        },
    )
}

fn exists(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    fs_call(
        n,
        &args,
        "exists",
        |fs, path, resolver| fs.exists(&path, move |_, ok| resolver.resolve(ok)),
        |_, ok| ret(Value::Int(i32::from(ok))),
    )
}

fn file_size(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    fs_call(
        n,
        &args,
        "stat",
        |fs, path, resolver| fs.stat(&path, move |_, r| resolver.resolve(r)),
        |_, r| match r {
            Ok(st) => ret(Value::Int(st.size as i32)),
            Err(e) => throw("java/io/IOException", e.to_string()),
        },
    )
}

fn mkdir(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    fs_call(
        n,
        &args,
        "mkdir",
        |fs, path, resolver| fs.mkdir(&path, move |_, r| resolver.resolve(r)),
        |_, r| io_void(r),
    )
}

fn unlink(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    fs_call(
        n,
        &args,
        "unlink",
        |fs, path, resolver| fs.unlink(&path, move |_, r| resolver.resolve(r)),
        |_, r| io_void(r),
    )
}

/// File-system operation `op` on the path in `args[0]`: `start` begins
/// it on the Doppio file system, and the thread blocks until `done`
/// turns its result into the native's outcome.
fn fs_call<T: 'static>(
    n: &mut NativeCtx<'_, '_, '_>,
    args: &[Value],
    op: &str,
    start: impl FnOnce(FileSystem, String, AsyncResolver<T>),
    done: impl FnMut(&mut NativeCtx<'_, '_, '_>, T) -> NativeOutcome + 'static,
) -> NativeOutcome {
    let path = match n.string_arg(&args[0]) {
        Ok(p) => p,
        Err(e) => return e,
    };
    let fs = n.state.fs.clone();
    let label = doppio_fs::wait_label(op, &path);
    await_async(n, label, move |_, resolver| start(fs, path, resolver), done)
}

fn read_line(n: &mut NativeCtx<'_, '_, '_>, _: Vec<Value>) -> NativeOutcome {
    read_stdin(
        n,
        "stdin.readLine",
        |n| take_stdin_line(n.state).map(|line| n.ret_string(line)),
        Value::null(),
    )
}

fn read_byte(n: &mut NativeCtx<'_, '_, '_>, _: Vec<Value>) -> NativeOutcome {
    read_stdin(
        n,
        "stdin.readByte",
        |n| {
            let b = n.state.stdin.pop_front()?;
            Some(ret(Value::Int(i32::from(b))))
        },
        Value::Int(-1),
    )
}

/// A blocking read over asynchronous keyboard input — the exact
/// scenario of §3.2's C++ example. `take` reads from the buffered
/// bytes; at end of input the read returns `eof`. Until one of them
/// completes it, the thread waits as a stdin waiter, labeled `label`.
fn read_stdin(
    n: &mut NativeCtx<'_, '_, '_>,
    label: &str,
    take: fn(&mut NativeCtx<'_, '_, '_>) -> Option<NativeOutcome>,
    eof: Value,
) -> NativeOutcome {
    let poll = move |n: &mut NativeCtx<'_, '_, '_>| {
        let out = take(n).or_else(|| n.state.stdin_closed.then_some(ret(eof)));
        if out.is_none() {
            enlist_stdin_waiter(n);
        }
        out
    };
    match poll(n) {
        Some(out) => out,
        None => block_labeled(n, label.to_string(), Box::new(poll)),
    }
}

/// Register the calling thread as a stdin waiter, without duplicating
/// the entry — `push_stdin` wakes every listed waiter, and a duplicate
/// would wake the thread twice, leaving a stale `wake_pending`.
fn enlist_stdin_waiter(n: &mut NativeCtx<'_, '_, '_>) {
    if !n.state.stdin_waiters.contains(&n.tid) {
        n.state.stdin_waiters.push(n.tid);
    }
}

fn take_stdin_line(state: &mut JvmState) -> Option<String> {
    let pos = state.stdin.iter().position(|&b| b == b'\n')?;
    let line: Vec<u8> = state.stdin.drain(..=pos).collect();
    let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
    Some(text)
}

/// §6.8: "DoppioJVM exposes an eval method that lets JVM programs
/// execute snippets of JavaScript. This method returns a JVM String."
fn js_eval(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let src = match n.string_arg(&args[0]) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let engine = n.state.engine.clone();
    let result = match n.state.js_eval.as_mut() {
        Some(f) => f(&engine, &src),
        None => "undefined".to_string(),
    };
    n.ret_string(result)
}

fn socket_connect(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    use doppio_sockets::{DoppioSocket, SocketState};
    let _host = match n.string_arg(&args[0]) {
        Ok(h) => h,
        Err(e) => return e,
    };
    let port = args[1].as_int() as u16;
    let Some(net) = n.state.network.clone() else {
        return throw("java/io/IOException", "no network configured");
    };
    let engine = n.state.engine.clone();
    let sock = match DoppioSocket::connect(&engine, &net, port) {
        Ok(s) => s,
        Err(e) => return throw("java/io/IOException", e.to_string()),
    };
    // Wake the thread whenever the socket changes state.
    let fd = n.state.sockets.len() as i32;
    let tid = n.tid;
    let runtime = n.ctx.runtime().clone();
    sock.set_data_waker(Box::new(move |_| runtime.wake(tid)));
    n.state.sockets.push(Some(sock));
    block_labeled(
        n,
        doppio_sockets::wait_label("connect", fd as usize),
        Box::new(move |n2| {
            let st = n2.state.sockets[fd as usize]
                .as_ref()
                .map(DoppioSocket::state);
            match st {
                Some(SocketState::Open) => Some(ret(Value::Int(fd))),
                Some(SocketState::Closed) | None => {
                    Some(throw("java/io/IOException", "connection failed"))
                }
                Some(SocketState::Connecting) => None,
            }
        }),
    )
}

fn socket_write(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let fd = args[0].as_int() as usize;
    let Some(arr) = args[1].as_ref() else {
        return npe("byte[]");
    };
    let bytes: Vec<u8> = match n.state.heap.get(arr) {
        HeapObj::ArrayByte(v) => v.iter().map(|&b| b as u8).collect(),
        _ => return throw("java/lang/InternalError", "expected byte[]"),
    };
    match n.state.sockets.get(fd).and_then(Option::as_ref) {
        Some(s) => match s.send(&bytes) {
            Ok(()) => NativeOutcome::Return(None),
            Err(e) => throw("java/io/IOException", e.to_string()),
        },
        None => throw("java/io/IOException", "bad socket"),
    }
}

fn socket_available(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let fd = args[0].as_int() as usize;
    let avail = n
        .state
        .sockets
        .get(fd)
        .and_then(Option::as_ref)
        .map(doppio_sockets::DoppioSocket::available)
        .unwrap_or(0);
    ret(Value::Int(avail as i32))
}

/// Blocking read of up to `len` bytes; null at end of stream, and an
/// `IOException` for a descriptor that is not open.
fn socket_read(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    use doppio_sockets::SocketState;
    let fd = args[0].as_int() as usize;
    let len = args[1].as_int().max(0) as usize;
    let read_now = move |n2: &mut NativeCtx<'_, '_, '_>| -> Option<NativeOutcome> {
        let Some(sock) = n2.state.sockets.get(fd).and_then(Option::as_ref) else {
            return Some(throw("java/io/IOException", "bad socket"));
        };
        if sock.available() > 0 {
            let data: Vec<i8> = sock.recv(len).into_iter().map(|b| b as i8).collect();
            let arr = n2.state.heap.alloc(HeapObj::ArrayByte(data));
            Some(ret(Value::Ref(Some(arr))))
        } else if sock.state() == SocketState::Closed {
            Some(ret(Value::null()))
        } else {
            None
        }
    };
    if let Some(out) = read_now(n) {
        return out;
    }
    block_labeled(
        n,
        doppio_sockets::wait_label("read", fd),
        Box::new(read_now),
    )
}

fn socket_close(n: &mut NativeCtx<'_, '_, '_>, args: Vec<Value>) -> NativeOutcome {
    let fd = args[0].as_int() as usize;
    if let Some(slot) = n.state.sockets.get_mut(fd) {
        if let Some(s) = slot.take() {
            s.close();
        }
    }
    NativeOutcome::Return(None)
}
