//! The bytecode interpreter (§6).
//!
//! DoppioJVM "implements all 201 bytecode instructions specified in the
//! second edition of the Java Virtual Machine Specification". Each
//! method is decoded once into an op stream (`decode.rs`), and
//! [`run`] executes those ops against the explicit frame stack.
//! Anything that cannot complete synchronously — a class that must be
//! downloaded, a native method waiting on an asynchronous browser API,
//! a contended monitor — is reported to the hosting thread, which
//! suspends through the Doppio execution environment and retries or
//! resumes later. Instructions that may block never mutate the operand
//! stack before deciding to block, so retrying is sound.
//!
//! Exception handling (§6.6) never touches the JavaScript exception
//! machinery: [`dispatch_exception`] walks the virtual frame stack for
//! a handler, exactly as the paper describes. A frame's pc always names
//! the instruction it is executing: a caller's stays on its invoke until
//! the call completes, so an exception the call raises is matched at the
//! invoke, and stack traces name the invoke's line.
//!
//! Calls and returns stay inside [`run`]: an invoke pushes the callee's
//! frame (every callee frame comes from `callee_frame`), a return pops
//! one and steps the caller past its invoke, and the loop makes the §6.1
//! suspend check itself and goes on at the new top frame. It leaves only
//! when the check fires or the thread must block, finish or exit.
//!
//! Each instruction costs a `Cost::Dispatch` plus its own category on
//! the engine's virtual clock. [`run`] counts these per category and
//! charges the counts with one engine call wherever anything can
//! observe the clock, the `engine.*` counters or typed-array residency,
//! so every transcript reads as if each instruction had charged on its
//! own (see `docs/performance.md`, "Charging"). A call or return on the
//! fast path charges nothing: the suspend check reads the clock only
//! when its counter reaches zero, and the tally is handed over just
//! before that read.

use std::cell::{Cell, OnceCell};
use std::rc::Rc;

use doppio_classfile::{access, opcodes as op, Constant};
use doppio_core::{Resource, ThreadContext, ThreadId};
use doppio_jsengine::{Cost, COST_CATEGORIES};
use doppio_trace::cat;

use crate::class::{ClassConst, ClassId, ClinitState, CpEntry, MethodRef, ResolvedField};
use crate::decode::Op;
use crate::frame::Frame;
use crate::loader;
use crate::natives::{self, NativeCtx};
use crate::object::HeapObj;
use crate::rtlib;
use crate::state::{CallSite, CodeBlob, JvmState};
use crate::value::{ObjRef, Value};

/// Outcome of executing one instruction.
pub enum StepResult {
    /// Keep interpreting at the top frame's pc (e.g. an exception was
    /// caught).
    Continue,
    /// A frame was pushed or popped: the §6.1 suspend-check boundary.
    /// [`run`] makes the check itself and never returns this; the
    /// hosting thread sees it only when a native it resumed returns.
    CallBoundary,
    /// The §6.1 suspend check fired at a call boundary: end the slice,
    /// with the thread still ready.
    Suspend,
    /// A class must be loaded before the instruction can retry.
    NeedClass(String),
    /// The thread blocked (§4.2): a class download or a native waiting
    /// on an asynchronous API. Poll the continuation when woken.
    Blocked(Continuation),
    /// The thread is queued on the monitor of this object; retry the
    /// instruction when woken (§6.2 context-switch point).
    MonitorBlocked(ObjRef),
    /// Voluntary context switch (`Thread.yield`): end the slice with
    /// the thread still ready, regardless of the suspend timer — this
    /// is what makes yields real schedule-exploration switch points.
    VoluntaryYield,
    /// The frame stack emptied: the thread finished.
    Finished,
    /// An exception unwound past the last frame.
    Uncaught(ObjRef),
    /// `System.exit` was called.
    Exit(i32),
}

/// What a blocked thread waits on. The thread polls it each time it is
/// woken: `None` while it still waits, or else the step to go on with.
pub type Continuation =
    Box<dyn FnMut(&mut JvmState, &mut Vec<Frame>, &mut ThreadContext<'_>) -> Option<StepResult>>;

/// The virtual-clock charges [`run`] has counted since it last handed
/// them to the engine: a count per cost category, and a bitmask of the
/// categories with a non-zero count.
///
/// [`Engine::charge_tally`](doppio_jsengine::Engine::charge_tally)
/// charges `n` tallied operations exactly as `n` single charges as long
/// as typed-array residency stays put, so the loop flushes before
/// anything changes residency or reads the clock or the `engine.*`
/// counters. Helpers that charge the engine themselves
/// ([`alloc_instance`], natives, the `ldc` miss path) keep doing so: the
/// clock is a sum, and nothing reads it before the next flush.
#[derive(Default)]
struct Tally {
    counts: [u64; COST_CATEGORIES],
    touched: u32,
}

// `Tally::touched` holds one bit per cost category.
const _: () = assert!(COST_CATEGORIES <= u32::BITS as usize);

impl Tally {
    /// One operation of `kind`.
    #[inline(always)]
    fn charge(&mut self, kind: Cost) {
        self.counts[kind as usize] += 1;
        self.touched |= 1 << kind as u32;
    }

    /// Charge the tallied operations to the engine and count their
    /// dispatches as executed instructions.
    fn flush(&mut self, state: &mut JvmState) {
        if self.touched != 0 {
            state.instructions += self.counts[Cost::Dispatch as usize];
            state.engine.charge_tally(&mut self.counts, self.touched);
            self.touched = 0;
        }
    }
}

/// Run the thread's frames until it must leave the interpreter: the
/// §6.1 suspend check fired (`Suspend`), it must block, an exception
/// unwound past the last frame, or the thread finished or exited. The
/// hosting thread's slice loop calls this instead of single-stepping.
///
/// The loop executes the top frame's pre-decoded ops (`decode.rs`).
/// It keeps the op index in a local and writes the bytecode pc back to
/// the frame only where something can observe it: before an op throws,
/// blocks, calls, or pushes a frame. Its virtual-clock charges go into a
/// `Tally` that is handed to the engine on the same terms, and whenever
/// `run` returns.
pub fn run(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
) -> StepResult {
    let mut tally = Tally::default();
    let sr = run_frames(state, frames, ctx, tid, &mut tally);
    debug_assert_eq!(tally.touched, 0, "run returned with charges tallied");
    debug_assert!(!matches!(
        sr,
        StepResult::Continue | StepResult::CallBoundary
    ));
    sr
}

/// [`run`]'s loop, over the caller's `tally`. Every return hands the
/// tally to the engine first.
fn run_frames(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    tally: &mut Tally,
) -> StepResult {
    // §6.1: hosted profiles (those with a watchdog) make a suspend check
    // at every call boundary; the native baseline makes none.
    let hosted = state.engine.profile().watchdog_limit_ns.is_some();
    // Set at a call boundary on a hosted profile: a frame was just
    // pushed or popped, and the new top frame runs next unless the
    // check at the loop head fires.
    let mut check = false;
    'frame: loop {
        // The one suspend check. It reads the clock only when its
        // counter reaches zero, so that is where the tally is handed
        // over.
        if std::mem::take(&mut check) && ctx.should_suspend_with(|| tally.flush(state)) {
            return StepResult::Suspend;
        }
        // Go on at the top frame after a call boundary.
        macro_rules! boundary {
            () => {{
                check = hosted;
                continue 'frame;
            }};
        }
        // Leave the loop with a sub-call's result; `Continue` re-enters
        // at the (possibly different) top frame's pc, and a call
        // boundary first makes its suspend check.
        macro_rules! leave {
            ($sr:expr) => {
                match $sr {
                    StepResult::Continue => continue 'frame,
                    StepResult::CallBoundary => boundary!(),
                    other => {
                        tally.flush(state);
                        return other;
                    }
                }
            };
        }
        let Some(frame) = frames.last() else {
            tally.flush(state);
            return StepResult::Finished;
        };
        let blob = frame.code.clone();
        let code = match &blob.code {
            Ok(code) => code,
            Err(e) => {
                // Code that does not decode never runs: the invocation
                // throws in the caller.
                tally.flush(state);
                let class = &state.registry.get(blob.class).name;
                let msg = format!("{class}.{}{}: {e}", blob.name, blob.descriptor);
                pop_frame(state, frames, ctx, tid, false);
                leave!(throw_vm(
                    state,
                    frames,
                    ctx,
                    tid,
                    "java/lang/InternalError",
                    &msg
                ));
            }
        };
        let ops = code.ops();
        let mut ip = code.ip(frame.pc).unwrap_or(ops.len());

        macro_rules! top {
            () => {
                frames.last_mut().expect("frame")
            };
        }
        // Write the current instruction's pc back to the frame.
        macro_rules! sync {
            () => {
                top!().pc = code.pc(ip)
            };
        }
        // Hand the tallied charges to the engine: before anything that
        // reads the clock or the counters, or changes residency, runs.
        macro_rules! flush {
            () => {
                tally.flush(state)
            };
        }
        macro_rules! throw {
            ($class:expr, $msg:expr) => {{
                sync!();
                flush!();
                leave!(throw_vm(state, frames, ctx, tid, $class, $msg))
            }};
        }
        // A slow path runs with the pc synced and the tally flushed;
        // `Err` carries the step to leave with (a throw, a class to load,
        // a pushed `<clinit>`).
        macro_rules! slow {
            ($r:expr) => {{
                sync!();
                flush!();
                match $r {
                    Ok(v) => v,
                    Err(sr) => leave!(sr),
                }
            }};
        }
        macro_rules! dispatch {
            () => {
                tally.charge(Cost::Dispatch)
            };
        }
        // Continue at op `target` from the instruction at op `from`. With
        // `check_backedges`, a backward edge is the §6.1 instrumented
        // suspend check.
        macro_rules! jump {
            ($target:expr, $from:expr) => {{
                let target = $target as usize;
                if target < $from && state.check_backedges {
                    top!().pc = code.pc(target);
                    tally.charge(Cost::IntOp);
                    boundary!();
                }
                ip = target;
                continue;
            }};
        }
        // The class constant in `slot`, resolved through the
        // constant-pool cache on first use.
        macro_rules! class_const {
            ($slot:expr, $idx:expr) => {
                match $slot.get() {
                    Some(cc) => {
                        state.perf.cp_hit.inc();
                        cc
                    }
                    None => {
                        flush!();
                        match cp_class(state, ctx, blob.class, $idx) {
                            Ok(cc) => $slot.get_or_init(|| cc),
                            Err(msg) => throw!("java/lang/InternalError", &msg),
                        }
                    }
                }
            };
        }

        loop {
            let Some(op) = ops.get(ip) else {
                // Falling off the end only happens for malformed code.
                throw!("java/lang/InternalError", "pc out of range");
            };
            dispatch!();
            match op {
                Op::Nop => {}

                // ---- constants and locals ----
                Op::Const { v, cost } => {
                    if let Some(c) = cost {
                        tally.charge(*c);
                    }
                    top!().push(*v);
                }
                Op::Ldc { idx, value } => {
                    let v = match value.get() {
                        Some(&v) => {
                            state.perf.cp_hit.inc();
                            match v {
                                Value::Long(_) => tally.charge(Cost::LongOp),
                                // Interned strings and class mirrors: one
                                // map-sized operation.
                                Value::Ref(_) => tally.charge(Cost::MapOp),
                                _ => {}
                            }
                            v
                        }
                        None => {
                            flush!();
                            match ldc(state, ctx, blob.class, *idx) {
                                Ok(v) => *value.get_or_init(|| v),
                                Err(msg) => throw!("java/lang/InternalError", &msg),
                            }
                        }
                    };
                    top!().push(v);
                }
                Op::Load { local, cost } => {
                    tally.charge(*cost);
                    let f = top!();
                    let v = f.local(usize::from(*local));
                    f.push(v);
                }
                Op::Store { local, cost } => {
                    tally.charge(*cost);
                    let f = top!();
                    let v = f.pop();
                    f.set_local(usize::from(*local), v);
                }
                Op::WideLoad { local } => {
                    let f = top!();
                    let v = f.local(usize::from(*local));
                    f.push(v);
                }
                Op::WideStore { local } => {
                    let f = top!();
                    let v = f.pop();
                    f.set_local(usize::from(*local), v);
                }
                Op::Iinc { local, delta } => {
                    tally.charge(Cost::IntOp);
                    iinc(top!(), *local, *delta);
                }
                Op::WideIinc { local, delta } => iinc(top!(), *local, *delta),

                // ---- arrays ----
                Op::ArrayLoad => {
                    tally.charge(Cost::ArrayGet);
                    let f = top!();
                    let index = f.pop_int();
                    let Some(arr) = f.pop_ref() else {
                        throw!("java/lang/NullPointerException", "array load");
                    };
                    let len = state.heap.get(arr).array_len().unwrap_or(0);
                    if index < 0 || index as usize >= len {
                        throw!(
                            "java/lang/ArrayIndexOutOfBoundsException",
                            &format!("index {index}, length {len}")
                        );
                    }
                    let i = index as usize;
                    let v = match state.heap.get(arr) {
                        HeapObj::ArrayInt(v) => Value::Int(v[i]),
                        HeapObj::ArrayLong(v) => Value::Long(v[i]),
                        HeapObj::ArrayFloat(v) => Value::Float(v[i]),
                        HeapObj::ArrayDouble(v) => Value::Double(v[i]),
                        HeapObj::ArrayByte(v) => Value::Int(v[i] as i32),
                        HeapObj::ArrayChar(v) => Value::Int(v[i] as i32),
                        HeapObj::ArrayShort(v) => Value::Int(v[i] as i32),
                        HeapObj::ArrayRef { data, .. } => Value::Ref(data[i]),
                        _ => throw!("java/lang/InternalError", "not an array"),
                    };
                    top!().push(v);
                }
                Op::ArrayStore => {
                    tally.charge(Cost::ArrayPut);
                    let f = top!();
                    let value = f.pop();
                    let index = f.pop_int();
                    let Some(arr) = f.pop_ref() else {
                        throw!("java/lang/NullPointerException", "array store");
                    };
                    let len = state.heap.get(arr).array_len().unwrap_or(0);
                    if index < 0 || index as usize >= len {
                        throw!(
                            "java/lang/ArrayIndexOutOfBoundsException",
                            &format!("index {index}, length {len}")
                        );
                    }
                    let i = index as usize;
                    match (state.heap.get_mut(arr), value) {
                        (HeapObj::ArrayInt(v), Value::Int(x)) => v[i] = x,
                        (HeapObj::ArrayLong(v), Value::Long(x)) => v[i] = x,
                        (HeapObj::ArrayFloat(v), Value::Float(x)) => v[i] = x,
                        (HeapObj::ArrayDouble(v), Value::Double(x)) => v[i] = x,
                        (HeapObj::ArrayByte(v), Value::Int(x)) => v[i] = x as i8,
                        (HeapObj::ArrayChar(v), Value::Int(x)) => v[i] = x as u16,
                        (HeapObj::ArrayShort(v), Value::Int(x)) => v[i] = x as i16,
                        (HeapObj::ArrayRef { data, .. }, Value::Ref(r)) => data[i] = r,
                        _ => throw!("java/lang/ArrayStoreException", "element type mismatch"),
                    }
                }

                // ---- stack shuffles (slot-level, §6.1's explicit arrays) ----
                Op::Pop => {
                    top!().pop_slot();
                }
                Op::Pop2 => {
                    let f = top!();
                    f.pop_slot();
                    f.pop_slot();
                }
                Op::Dup => {
                    let f = top!();
                    let v = *f.peek(0);
                    f.stack.push(v);
                }
                Op::DupX1 => {
                    let f = top!();
                    let v1 = f.pop_slot();
                    let v2 = f.pop_slot();
                    f.stack.extend([v1, v2, v1]);
                }
                Op::DupX2 => {
                    let f = top!();
                    let v1 = f.pop_slot();
                    let v2 = f.pop_slot();
                    let v3 = f.pop_slot();
                    f.stack.extend([v1, v3, v2, v1]);
                }
                Op::Dup2 => {
                    let f = top!();
                    let v1 = *f.peek(0);
                    let v2 = *f.peek(1);
                    f.stack.extend([v2, v1]);
                }
                Op::Dup2X1 => {
                    let f = top!();
                    let v1 = f.pop_slot();
                    let v2 = f.pop_slot();
                    let v3 = f.pop_slot();
                    f.stack.extend([v2, v1, v3, v2, v1]);
                }
                Op::Dup2X2 => {
                    let f = top!();
                    let v1 = f.pop_slot();
                    let v2 = f.pop_slot();
                    let v3 = f.pop_slot();
                    let v4 = f.pop_slot();
                    f.stack.extend([v2, v1, v4, v3, v2, v1]);
                }
                Op::Swap => {
                    let f = top!();
                    let v1 = f.pop_slot();
                    let v2 = f.pop_slot();
                    f.stack.extend([v1, v2]);
                }

                // ---- arithmetic (long: software Int64 territory, §8) ----
                Op::IntBin(o) => {
                    tally.charge(Cost::IntOp);
                    let f = top!();
                    let b = f.pop_int();
                    let a = f.pop_int();
                    f.push(Value::Int(int_bin(*o, a, b)));
                }
                Op::IntDivRem(o) => {
                    tally.charge(Cost::IntOp);
                    let f = top!();
                    let b = f.pop_int();
                    let a = f.pop_int();
                    if b == 0 {
                        throw!("java/lang/ArithmeticException", "/ by zero");
                    }
                    let r = if *o == op::IDIV {
                        a.wrapping_div(b)
                    } else {
                        a.wrapping_rem(b)
                    };
                    top!().push(Value::Int(r));
                }
                Op::IntNeg => {
                    tally.charge(Cost::IntOp);
                    let f = top!();
                    let a = f.pop_int();
                    f.push(Value::Int(a.wrapping_neg()));
                }
                Op::LongBin(o) => {
                    tally.charge(Cost::LongOp);
                    let f = top!();
                    let b = f.pop_long();
                    let a = f.pop_long();
                    let r = match *o {
                        op::LADD => a.wrapping_add(b),
                        op::LSUB => a.wrapping_sub(b),
                        op::LMUL => a.wrapping_mul(b),
                        op::LAND => a & b,
                        op::LOR => a | b,
                        _ => a ^ b,
                    };
                    f.push(Value::Long(r));
                }
                Op::LongDivRem(o) => {
                    tally.charge(Cost::LongOp);
                    let f = top!();
                    let b = f.pop_long();
                    let a = f.pop_long();
                    if b == 0 {
                        throw!("java/lang/ArithmeticException", "/ by zero");
                    }
                    let r = if *o == op::LDIV {
                        a.wrapping_div(b)
                    } else {
                        a.wrapping_rem(b)
                    };
                    top!().push(Value::Long(r));
                }
                Op::LongShift(o) => {
                    tally.charge(Cost::LongOp);
                    let f = top!();
                    let s = f.pop_int() as u32 & 63;
                    let a = f.pop_long();
                    let r = match *o {
                        op::LSHL => a.wrapping_shl(s),
                        op::LSHR => a.wrapping_shr(s),
                        _ => ((a as u64).wrapping_shr(s)) as i64,
                    };
                    f.push(Value::Long(r));
                }
                Op::LongNeg => {
                    tally.charge(Cost::LongOp);
                    let f = top!();
                    let a = f.pop_long();
                    f.push(Value::Long(a.wrapping_neg()));
                }
                Op::FloatBin(o) => {
                    tally.charge(Cost::FloatOp);
                    let f = top!();
                    let b = f.pop_float();
                    let a = f.pop_float();
                    let r = match *o {
                        op::FADD => a + b,
                        op::FSUB => a - b,
                        op::FMUL => a * b,
                        op::FDIV => a / b,
                        _ => a % b,
                    };
                    f.push(Value::Float(r));
                }
                Op::DoubleBin(o) => {
                    tally.charge(Cost::FloatOp);
                    let f = top!();
                    let b = f.pop_double();
                    let a = f.pop_double();
                    let r = match *o {
                        op::DADD => a + b,
                        op::DSUB => a - b,
                        op::DMUL => a * b,
                        op::DDIV => a / b,
                        _ => a % b,
                    };
                    f.push(Value::Double(r));
                }
                Op::FloatNeg => {
                    tally.charge(Cost::FloatOp);
                    let f = top!();
                    let a = f.pop_float();
                    f.push(Value::Float(-a));
                }
                Op::DoubleNeg => {
                    tally.charge(Cost::FloatOp);
                    let f = top!();
                    let a = f.pop_double();
                    f.push(Value::Double(-a));
                }
                Op::Conv(o) => {
                    tally.charge(conv_cost(*o));
                    let f = top!();
                    let v = match *o {
                        op::I2L => Value::Long(f.pop_int() as i64),
                        op::I2F => Value::Float(f.pop_int() as f32),
                        op::I2D => Value::Double(f.pop_int() as f64),
                        op::L2I => Value::Int(f.pop_long() as i32),
                        op::L2F => Value::Float(f.pop_long() as f32),
                        op::L2D => Value::Double(f.pop_long() as f64),
                        op::F2I => Value::Int(f2i(f.pop_float() as f64)),
                        op::F2L => Value::Long(f2l(f.pop_float() as f64)),
                        op::F2D => Value::Double(f.pop_float() as f64),
                        op::D2I => Value::Int(f2i(f.pop_double())),
                        op::D2L => Value::Long(f2l(f.pop_double())),
                        op::D2F => Value::Float(f.pop_double() as f32),
                        op::I2B => Value::Int(f.pop_int() as i8 as i32),
                        op::I2C => Value::Int(f.pop_int() as u16 as i32),
                        _ => Value::Int(f.pop_int() as i16 as i32),
                    };
                    f.push(v);
                }
                Op::Lcmp => {
                    tally.charge(Cost::LongOp);
                    let f = top!();
                    let b = f.pop_long();
                    let a = f.pop_long();
                    f.push(Value::Int(a.cmp(&b) as i32));
                }
                Op::Fcmp { greater_on_nan } => {
                    tally.charge(Cost::FloatOp);
                    let f = top!();
                    let b = f.pop_float();
                    let a = f.pop_float();
                    f.push(Value::Int(fp_cmp(a as f64, b as f64, *greater_on_nan)));
                }
                Op::Dcmp { greater_on_nan } => {
                    tally.charge(Cost::FloatOp);
                    let f = top!();
                    let b = f.pop_double();
                    let a = f.pop_double();
                    f.push(Value::Int(fp_cmp(a, b, *greater_on_nan)));
                }

                // ---- control flow ----
                Op::If0 { cond, target } => {
                    tally.charge(Cost::Branch);
                    let v = top!().pop_int();
                    let taken = match *cond {
                        op::IFEQ => v == 0,
                        op::IFNE => v != 0,
                        op::IFLT => v < 0,
                        op::IFGE => v >= 0,
                        op::IFGT => v > 0,
                        _ => v <= 0,
                    };
                    if taken {
                        jump!(*target, ip);
                    }
                }
                Op::IfICmp { cond, target } => {
                    tally.charge(Cost::Branch);
                    let f = top!();
                    let b = f.pop_int();
                    let a = f.pop_int();
                    let taken = match *cond {
                        op::IF_ICMPEQ => a == b,
                        op::IF_ICMPNE => a != b,
                        op::IF_ICMPLT => a < b,
                        op::IF_ICMPGE => a >= b,
                        op::IF_ICMPGT => a > b,
                        _ => a <= b,
                    };
                    if taken {
                        jump!(*target, ip);
                    }
                }
                Op::IfACmp { eq, target } => {
                    tally.charge(Cost::Branch);
                    let f = top!();
                    let b = f.pop_ref();
                    let a = f.pop_ref();
                    if (a == b) == *eq {
                        jump!(*target, ip);
                    }
                }
                Op::IfNull { null, target } => {
                    tally.charge(Cost::Branch);
                    if top!().pop_ref().is_none() == *null {
                        jump!(*target, ip);
                    }
                }
                Op::Goto { target } => {
                    tally.charge(Cost::Branch);
                    jump!(*target, ip);
                }
                Op::Jsr { target } => {
                    let ret = code.pc(ip + 1);
                    top!().push(Value::RetAddr(ret));
                    jump!(*target, ip);
                }
                Op::Ret { local, wide } => match top!().local(usize::from(*local)) {
                    Value::RetAddr(a) => jump!(code.ip(a).unwrap_or(ops.len()), ip),
                    _ if *wide => throw!("java/lang/InternalError", "wide ret"),
                    other => throw!(
                        "java/lang/InternalError",
                        &format!("ret of non-returnAddress {other:?}")
                    ),
                },
                Op::TableSwitch(t) => {
                    tally.charge(Cost::Branch);
                    let v = top!().pop_int();
                    let case = usize::try_from(i64::from(v) - i64::from(t.low)).ok();
                    let target = case.and_then(|k| t.targets.get(k)).unwrap_or(&t.default);
                    jump!(*target, ip);
                }
                Op::LookupSwitch(l) => {
                    tally.charge(Cost::Branch);
                    let v = top!().pop_int();
                    let pair = l.pairs.iter().find(|&&(key, _)| key == v);
                    jump!(pair.map_or(l.default, |&(_, t)| t), ip);
                }
                Op::Return { value } => {
                    let v = if *value { Some(top!().pop()) } else { None };
                    if top!().held_monitor.is_some() {
                        // Releasing the monitor may wake a waiter, which
                        // schedules on the clock.
                        flush!();
                    }
                    leave!(do_return(state, frames, ctx, tid, v));
                }

                // ---- fields ----
                Op::GetStatic { idx, field } | Op::PutStatic { idx, field } => {
                    let resolved;
                    let f = match field.get() {
                        Some(f) => {
                            // Quickened: resolution AND the `<clinit>`
                            // protocol are done.
                            state.perf.cp_hit.inc();
                            f
                        }
                        None => {
                            resolved = slow!(resolve_field(
                                state, frames, ctx, tid, blob.class, *idx, field, true
                            ));
                            &resolved
                        }
                    };
                    tally.charge(Cost::MapOp);
                    if matches!(op, Op::GetStatic { .. }) {
                        tally.charge(Cost::FieldGet);
                        let statics = &state.registry.get(f.class).statics;
                        let v = statics.get(&*f.key).copied().unwrap_or(f.default);
                        top!().push(v);
                    } else {
                        tally.charge(Cost::FieldPut);
                        let v = top!().pop();
                        let statics = &mut state.registry.get_mut(f.class).statics;
                        if let Some(slot) = statics.get_mut(&*f.key) {
                            *slot = v;
                        }
                    }
                }
                Op::GetField { idx, field } | Op::PutField { idx, field } => {
                    let resolved;
                    let f = match field.get() {
                        Some(f) => {
                            state.perf.cp_hit.inc();
                            f
                        }
                        None => {
                            resolved = slow!(resolve_field(
                                state, frames, ctx, tid, blob.class, *idx, field, false
                            ));
                            &resolved
                        }
                    };
                    let done = if matches!(op, Op::GetField { .. }) {
                        get_field(state, tally, top!(), f)
                    } else {
                        put_field(state, tally, top!(), f)
                    };
                    if let Err((class, msg)) = done {
                        throw!(class, &msg);
                    }
                }

                // ---- invocations ----
                Op::Invoke { opcode, idx, site } => {
                    sync!();
                    tally.charge(Cost::Call);
                    let site = match site.get() {
                        Some(site) => {
                            state.perf.cp_hit.inc();
                            site
                        }
                        None => {
                            flush!();
                            match call_site(state, ctx, blob.class, *idx) {
                                Ok(s) => site.get_or_init(|| Box::new(s)),
                                Err(msg) => throw!("java/lang/InternalError", &msg),
                            }
                        }
                    };
                    leave!(invoke_with_site(
                        state, tally, frames, ctx, tid, *opcode, site
                    ));
                }

                // ---- object and array creation ----
                Op::New { idx, class } => {
                    let r = match class.get() {
                        Some(&id) => {
                            state.perf.cp_hit.inc();
                            alloc_instance(state, id)
                        }
                        None => slow!(new_instance(
                            state, frames, ctx, tid, blob.class, *idx, class
                        )),
                    };
                    top!().push(Value::Ref(Some(r)));
                }
                Op::NewArray { atype } => {
                    tally.charge(Cost::Alloc);
                    let len = top!().pop_int();
                    if len < 0 {
                        throw!("java/lang/NegativeArraySizeException", &len.to_string());
                    }
                    // DoppioJVM backs binary arrays (boolean[], char[],
                    // byte[]) with typed arrays; register the allocation
                    // so Safari's leak model (§7.1) sees JVM-level buffer
                    // churn too. The matching free models the JS garbage
                    // collector.
                    if matches!(atype, 4 | 5 | 8) && state.engine.profile().has_typed_arrays {
                        flush!();
                        let bytes = len as usize * if *atype == 5 { 2 } else { 1 };
                        state.engine.typed_array_alloc(bytes);
                        state.engine.typed_array_free(bytes);
                    }
                    let Some(r) = state.heap.alloc_primitive_array(*atype, len as usize) else {
                        throw!("java/lang/InternalError", "bad atype");
                    };
                    top!().push(Value::Ref(Some(r)));
                }
                Op::ANewArray { idx, class } => {
                    tally.charge(Cost::Alloc);
                    let cc = class_const!(class, *idx);
                    let len = top!().pop_int();
                    if len < 0 {
                        throw!("java/lang/NegativeArraySizeException", &len.to_string());
                    }
                    let r = state.heap.alloc(HeapObj::ArrayRef {
                        component: cc.name.to_string(),
                        data: vec![None; len as usize],
                    });
                    top!().push(Value::Ref(Some(r)));
                }
                Op::MultiANewArray { idx, dims, class } => {
                    tally.charge(Cost::Alloc);
                    let cc = class_const!(class, *idx);
                    if cc.name.bytes().take_while(|&b| b == b'[').count() < usize::from(*dims) {
                        let msg = format!(
                            "multianewarray: {:?} has fewer than {dims} dimensions",
                            cc.name
                        );
                        throw!("java/lang/InternalError", &msg);
                    }
                    let f = top!();
                    let mut sizes = vec![0i32; usize::from(*dims)];
                    for d in sizes.iter_mut().rev() {
                        *d = f.pop_int();
                    }
                    if sizes.iter().any(|&s| s < 0) {
                        throw!("java/lang/NegativeArraySizeException", "multianewarray");
                    }
                    let r = alloc_multi(state, &cc.name, &sizes);
                    top!().push(Value::Ref(Some(r)));
                }
                Op::ArrayLength => {
                    tally.charge(Cost::IntOp);
                    let Some(arr) = top!().pop_ref() else {
                        throw!("java/lang/NullPointerException", "arraylength");
                    };
                    let Some(len) = state.heap.get(arr).array_len() else {
                        throw!("java/lang/InternalError", "not an array");
                    };
                    top!().push(Value::Int(len as i32));
                }

                // ---- exceptions, casts, monitors ----
                Op::Athrow => {
                    let Some(ex) = top!().pop_ref() else {
                        throw!("java/lang/NullPointerException", "athrow null");
                    };
                    sync!();
                    flush!();
                    leave!(dispatch_exception(state, frames, ctx, tid, ex));
                }
                Op::CheckCast { idx, class } | Op::InstanceOf { idx, class } => {
                    let cc = class_const!(class, *idx);
                    tally.charge(Cost::MapOp);
                    let checkcast = matches!(op, Op::CheckCast { .. });
                    let r = top!().peek(0).as_ref();
                    let matches = match r {
                        // null passes checkcast and fails instanceof.
                        None => checkcast,
                        Some(obj) => {
                            let cid = slow!(runtime_class_of(state, obj));
                            state.registry.is_assignable(cid, &cc.name)
                        }
                    };
                    if !checkcast {
                        let f = top!();
                        f.pop_ref();
                        f.push(Value::Int(i32::from(matches && r.is_some())));
                    } else if !matches {
                        let name = r
                            .and_then(|o| runtime_class_of(state, o).ok())
                            .map(|c| state.registry.get(c).name.clone())
                            .unwrap_or_default();
                        throw!(
                            "java/lang/ClassCastException",
                            &format!("{name} cannot be cast to {}", cc.name)
                        );
                    }
                }
                Op::MonitorEnter => {
                    let Some(&Value::Ref(obj)) = top!().stack.last() else {
                        throw!("java/lang/InternalError", "monitorenter");
                    };
                    let Some(obj) = obj else {
                        throw!("java/lang/NullPointerException", "monitorenter");
                    };
                    flush!();
                    if try_enter_monitor(state, ctx, obj, tid) {
                        top!().pop_ref();
                    } else {
                        queue_on_monitor(state, obj, tid);
                        sync!();
                        return StepResult::MonitorBlocked(obj); // retry when woken
                    }
                }
                Op::MonitorExit => {
                    let Some(obj) = top!().pop_ref() else {
                        throw!("java/lang/NullPointerException", "monitorexit");
                    };
                    flush!();
                    if let Err(msg) = exit_monitor(state, ctx, obj, tid) {
                        throw!("java/lang/IllegalMonitorStateException", &msg);
                    }
                }
                Op::BadWide => throw!("java/lang/InternalError", "bad wide"),
                Op::Undefined(o) => {
                    throw!(
                        "java/lang/InternalError",
                        &format!("undefined opcode {o:#04x}")
                    )
                }

                // ---- the superinstruction: tallies its sequence's
                // per-instruction dispatches and charges ----
                Op::LoadLoadIntBin { a, b, op: bin } => {
                    tally.charge(Cost::IntOp);
                    dispatch!();
                    tally.charge(Cost::IntOp);
                    dispatch!();
                    tally.charge(Cost::IntOp);
                    let f = top!();
                    let (x, y) = (f.local(usize::from(*a)), f.local(usize::from(*b)));
                    f.push(Value::Int(int_bin(*bin, x.as_int(), y.as_int())));
                    ip += 3;
                    continue;
                }
            }
            ip += 1;
        }
    }
}

/// `iinc`: add `delta` to int local `local`.
fn iinc(frame: &mut Frame, local: u16, delta: i32) {
    let local = usize::from(local);
    let v = frame.local(local).as_int();
    frame.set_local(local, Value::Int(v.wrapping_add(delta)));
}

/// The nine non-throwing int binops.
fn int_bin(opcode: u8, a: i32, b: i32) -> i32 {
    match opcode {
        op::IADD => a.wrapping_add(b),
        op::ISUB => a.wrapping_sub(b),
        op::IMUL => a.wrapping_mul(b),
        op::ISHL => a.wrapping_shl(b as u32 & 31),
        op::ISHR => a.wrapping_shr(b as u32 & 31),
        op::IUSHR => ((a as u32).wrapping_shr(b as u32 & 31)) as i32,
        op::IAND => a & b,
        op::IOR => a | b,
        _ => a ^ b,
    }
}

/// Virtual cost of each primitive conversion.
fn conv_cost(opcode: u8) -> Cost {
    match opcode {
        op::I2L | op::L2I | op::L2F | op::L2D | op::F2L | op::D2L => Cost::LongOp,
        op::I2B | op::I2C | op::I2S => Cost::IntOp,
        _ => Cost::FloatOp,
    }
}

/// The exception a field op throws: class name and message.
type FieldFault = (&'static str, String);

/// A resolved `getfield` on the top frame: tally the §6.7 dictionary
/// lookup, pop the receiver and push its field value. `Err` (with
/// nothing pushed) carries the exception to throw.
fn get_field(
    state: &mut JvmState,
    tally: &mut Tally,
    frame: &mut Frame,
    f: &ResolvedField,
) -> Result<(), FieldFault> {
    tally.charge(Cost::MapOp);
    tally.charge(Cost::FieldGet);
    let Some(obj) = frame.pop_ref() else {
        return Err((
            "java/lang/NullPointerException",
            format!("getfield {}", f.key),
        ));
    };
    let v = field_slot(state, obj, f)?.map_or(f.default, |v| *v);
    frame.push(v);
    Ok(())
}

/// A resolved `putfield` on the top frame: tally the §6.7 dictionary
/// lookup, pop the value and the receiver, and store the field. `Err`
/// carries the exception to throw.
fn put_field(
    state: &mut JvmState,
    tally: &mut Tally,
    frame: &mut Frame,
    f: &ResolvedField,
) -> Result<(), FieldFault> {
    tally.charge(Cost::MapOp);
    tally.charge(Cost::FieldPut);
    let v = frame.pop();
    let Some(obj) = frame.pop_ref() else {
        return Err((
            "java/lang/NullPointerException",
            format!("putfield {}", f.key),
        ));
    };
    if let Some(slot) = field_slot(state, obj, f)? {
        *slot = v;
    }
    Ok(())
}

/// `obj`'s slot for resolved instance field `f`. An instance carries
/// the field exactly when its layout holds `f`'s key `Rc` at `f`'s
/// slot; one that does not is an `IncompatibleClassChangeError`.
/// Arrays and strings have no slots (`None`): a read sees the default
/// and a write is dropped.
fn field_slot<'s>(
    state: &'s mut JvmState,
    obj: ObjRef,
    f: &ResolvedField,
) -> Result<Option<&'s mut Value>, FieldFault> {
    let HeapObj::Instance { class, fields } = state.heap.get_mut(obj) else {
        return Ok(None);
    };
    let rc = state.registry.get(*class);
    match (rc.slot_keys.get(f.slot), fields.get_mut(f.slot)) {
        (Some(key), Some(v)) if Rc::ptr_eq(key, &f.key) => Ok(Some(v)),
        _ => Err((
            "java/lang/IncompatibleClassChangeError",
            format!("{} has no field {}", rc.name, f.key),
        )),
    }
}

/// JVM `f2i`/`d2i` conversion: NaN → 0, saturating.
fn f2i(v: f64) -> i32 {
    if v.is_nan() {
        0
    } else if v >= i32::MAX as f64 {
        i32::MAX
    } else if v <= i32::MIN as f64 {
        i32::MIN
    } else {
        v as i32
    }
}

/// JVM `f2l`/`d2l` conversion.
fn f2l(v: f64) -> i64 {
    if v.is_nan() {
        0
    } else if v >= i64::MAX as f64 {
        i64::MAX
    } else if v <= i64::MIN as f64 {
        i64::MIN
    } else {
        v as i64
    }
}

/// `fcmpl`/`fcmpg`/`dcmpl`/`dcmpg`: NaN pushes -1 or +1 per variant.
fn fp_cmp(a: f64, b: f64, greater_on_nan: bool) -> i32 {
    if a.is_nan() || b.is_nan() {
        if greater_on_nan {
            1
        } else {
            -1
        }
    } else if a < b {
        -1
    } else if a > b {
        1
    } else {
        0
    }
}

/// The runtime class id of a heap object.
pub fn runtime_class_of(state: &mut JvmState, obj: ObjRef) -> Result<ClassId, StepResult> {
    let (known, name) = match state.heap.get(obj) {
        HeapObj::Instance { class, .. } => return Ok(*class),
        HeapObj::JavaString(_) => (0, "java/lang/String"),
        HeapObj::StringBuilder(_) => (1, "java/lang/StringBuilder"),
        other => {
            let name = other.array_class_name().expect("array");
            return state
                .registry
                .ensure_array_class(&name)
                .map_err(|_| StepResult::NeedClass(name));
        }
    };
    if let Some(id) = state.string_classes[known] {
        return Ok(id);
    }
    // Classes are never redefined, so the id is final once defined.
    let id = state
        .registry
        .lookup(name)
        .ok_or_else(|| StepResult::NeedClass(name.to_string()))?;
    state.string_classes[known] = Some(id);
    Ok(id)
}

/// Look up a class, requesting a load if undefined.
pub fn ensure_class(state: &mut JvmState, name: &str) -> Result<ClassId, StepResult> {
    if name.starts_with('[') {
        return state
            .registry
            .ensure_array_class(name)
            .map_err(|_| StepResult::NeedClass(name.to_string()));
    }
    state
        .registry
        .lookup(name)
        .ok_or_else(|| StepResult::NeedClass(name.to_string()))
}

// ----------------------------------------------------------------
// Resolution caches (the interpreter fast path)
// ----------------------------------------------------------------

/// Install a quickened entry for CP index `idx` of `class`.
fn quicken(state: &JvmState, class: ClassId, idx: u16, entry: CpEntry) {
    state
        .registry
        .get(class)
        .cp_cache
        .borrow_mut()
        .insert(idx, entry);
}

/// The quickened field entry at `idx` of `class`, if installed.
fn cp_field(state: &JvmState, class: ClassId, idx: u16) -> Option<Rc<ResolvedField>> {
    match state.registry.get(class).cp_cache.borrow().get(&idx) {
        Some(CpEntry::Field(f)) => Some(f.clone()),
        _ => None,
    }
}

/// The quickened class constant at `idx` of `class`: returns the cached
/// entry (a cp-cache hit) or decodes the name from the constant pool
/// and installs a fresh one (a miss). `Err` carries a CP decode error.
fn cp_class(
    state: &JvmState,
    ctx: &ThreadContext<'_>,
    class: ClassId,
    idx: u16,
) -> Result<Rc<ClassConst>, String> {
    if let Some(CpEntry::Class(cc)) = state.registry.get(class).cp_cache.borrow().get(&idx) {
        state.perf.cp_hit.inc();
        return Ok(cc.clone());
    }
    note_cp_miss(state, ctx, "class");
    let rc = state.registry.get(class);
    let cf = rc.cf.as_ref().expect("class file");
    let name = cf
        .constant_pool
        .class_name(idx)
        .map_err(|e| e.to_string())?;
    let cc = Rc::new(ClassConst {
        name: Rc::from(name),
        init_id: Cell::new(None),
        mirror: Cell::new(None),
    });
    rc.cp_cache
        .borrow_mut()
        .insert(idx, CpEntry::Class(cc.clone()));
    Ok(cc)
}

// ----------------------------------------------------------------
// Resolution (the first execution of an op with a resolution slot)
// ----------------------------------------------------------------

/// `ldc` of pool entry `idx` of `class` through the constant-pool
/// cache: the value to push, with the hit or miss path's counts and
/// charges. Every successful path leaves the entry quickened. `Err`
/// carries an `InternalError` message.
fn ldc(
    state: &mut JvmState,
    ctx: &ThreadContext<'_>,
    class: ClassId,
    idx: u16,
) -> Result<Value, String> {
    let cached = state
        .registry
        .get(class)
        .cp_cache
        .borrow()
        .get(&idx)
        .cloned();
    match cached {
        Some(CpEntry::Value(v)) => {
            state.perf.cp_hit.inc();
            if matches!(v, Value::Long(_)) {
                state.engine.charge(Cost::LongOp);
            }
            return Ok(v);
        }
        Some(CpEntry::Obj(r)) => {
            // Shared interned handle: one map-sized operation instead of
            // a per-character copy + pool probe.
            state.perf.cp_hit.inc();
            state.engine.charge(Cost::MapOp);
            return Ok(Value::Ref(Some(r)));
        }
        Some(CpEntry::Class(ref cc)) if cc.mirror.get().is_some() => {
            state.perf.cp_hit.inc();
            state.engine.charge(Cost::MapOp);
            return Ok(Value::Ref(cc.mirror.get()));
        }
        _ => {}
    }
    note_cp_miss(state, ctx, "ldc");
    let pool = &state
        .registry
        .get(class)
        .cf
        .as_ref()
        .expect("code class")
        .constant_pool;
    let entry = match pool.get(idx).map_err(|e| format!("bad ldc: {e}"))? {
        Constant::Integer(v) => CpEntry::Value(Value::Int(*v)),
        Constant::Float(v) => CpEntry::Value(Value::Float(*v)),
        Constant::Long(v) => {
            state.engine.charge(Cost::LongOp);
            CpEntry::Value(Value::Long(*v))
        }
        Constant::Double(v) => CpEntry::Value(Value::Double(*v)),
        Constant::String { .. } => {
            let s = pool.string(idx).unwrap_or_default().to_string();
            state.engine.charge_n(Cost::StringOp, s.len() as u64);
            CpEntry::Obj(state.intern_string(&s))
        }
        Constant::Class { .. } => {
            let name = pool.class_name(idx).unwrap_or_default().to_string();
            // Keep an entry installed by `new` etc. so its resolved id
            // survives the mirror fill.
            let cc = match cached {
                Some(CpEntry::Class(cc)) => cc,
                _ => Rc::new(ClassConst {
                    name: Rc::from(name.as_str()),
                    init_id: Cell::new(None),
                    mirror: Cell::new(None),
                }),
            };
            cc.mirror.set(Some(class_object(state, &name)));
            CpEntry::Class(cc)
        }
        other => return Err(format!("ldc of unsupported constant {other:?}")),
    };
    let v = match &entry {
        CpEntry::Value(v) => *v,
        CpEntry::Obj(r) => Value::Ref(Some(*r)),
        CpEntry::Class(cc) => Value::Ref(cc.mirror.get()),
        CpEntry::Field(_) => unreachable!("ldc never resolves a field"),
    };
    quicken(state, class, idx, entry);
    Ok(v)
}

/// Resolve field reference `idx` of `class` through the constant-pool
/// cache, filling `slot` when the entry is quickened. A static field's
/// class is initialized first (see [`ensure_initialized`]), and its
/// entry is quickened only once that class is `Initialized`, so the hit
/// path may skip the initialization protocol. A field of the other kind than the op's
/// (`is_static`) is an `IncompatibleClassChangeError` and never fills
/// `slot`, so the hit paths only ever see fields of their own kind.
#[allow(clippy::too_many_arguments)]
fn resolve_field(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    class: ClassId,
    idx: u16,
    slot: &OnceCell<Rc<ResolvedField>>,
    is_static: bool,
) -> Result<Rc<ResolvedField>, StepResult> {
    let (resolved, quickened) = match cp_field(state, class, idx) {
        Some(f) => {
            state.perf.cp_hit.inc();
            (f, true)
        }
        None => {
            note_cp_miss(state, ctx, if is_static { "static_field" } else { "field" });
            let cf = state.registry.get(class).cf.as_ref().expect("class file");
            let (cname, fname) = match cf.constant_pool.member_ref(idx) {
                Ok((c, n, _)) => (c.to_string(), n.to_string()),
                Err(e) => {
                    let msg = e.to_string();
                    return Err(throw_vm(
                        state,
                        frames,
                        ctx,
                        tid,
                        "java/lang/InternalError",
                        &msg,
                    ));
                }
            };
            let class_id = ensure_class(state, &cname)?;
            if is_static {
                ensure_initialized(state, frames, ctx, tid, class_id)?;
            }
            let Some(resolved) = state.registry.resolve_field(class_id, &fname) else {
                let msg = format!("{cname}.{fname}");
                return Err(throw_vm(
                    state,
                    frames,
                    ctx,
                    tid,
                    "java/lang/NoSuchFieldError",
                    &msg,
                ));
            };
            let resolved = Rc::new(resolved);
            // Instance-field resolution is stable (classes are never
            // redefined); a static field waits for `Initialized`.
            let quicken_now = resolved.is_static == is_static
                && (!is_static || state.registry.get(class_id).clinit == ClinitState::Initialized);
            if quicken_now {
                quicken(state, class, idx, CpEntry::Field(resolved.clone()));
            }
            (resolved, quicken_now)
        }
    };
    if resolved.is_static != is_static {
        let kind = if is_static { "static" } else { "non-static" };
        let msg = format!("Expected {kind} field {}", resolved.key);
        return Err(throw_vm(
            state,
            frames,
            ctx,
            tid,
            "java/lang/IncompatibleClassChangeError",
            &msg,
        ));
    }
    if quickened {
        let _ = slot.set(resolved.clone());
    }
    Ok(resolved)
}

/// Decode call site `idx` of `class`: the member ref and its descriptor,
/// read once per invoke op. `Err` carries an `InternalError` message.
fn call_site(
    state: &JvmState,
    ctx: &ThreadContext<'_>,
    class: ClassId,
    idx: u16,
) -> Result<CallSite, String> {
    note_cp_miss(state, ctx, "invoke");
    let cf = state.registry.get(class).cf.as_ref().expect("class file");
    let (cname, name, desc) = cf
        .constant_pool
        .member_ref(idx)
        .map_err(|e| e.to_string())?;
    let parsed =
        doppio_classfile::descriptor::parse_method_descriptor(desc).map_err(|e| e.to_string())?;
    Ok(CallSite {
        cname: Rc::from(cname),
        name: Rc::from(name),
        desc: Rc::from(desc),
        arg_slots: parsed.param_slots() as usize,
        ref_class: Cell::new(None),
        direct: Cell::new(None),
        mono: Cell::new(None),
    })
}

/// `new` of class constant `idx` of `class`: resolve and initialize the
/// class (see [`ensure_initialized`]), then allocate. `slot` is filled
/// once the class is `Initialized`.
fn new_instance(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    class: ClassId,
    idx: u16,
    slot: &OnceCell<ClassId>,
) -> Result<ObjRef, StepResult> {
    let cached = match state.registry.get(class).cp_cache.borrow().get(&idx) {
        Some(CpEntry::Class(cc)) => Some(cc.clone()),
        _ => None,
    };
    let cc = match cached {
        Some(cc) => {
            if let Some(id) = cc.init_id.get() {
                // Fully quickened: class resolved and its `<clinit>`
                // chain already ran.
                state.perf.cp_hit.inc();
                let _ = slot.set(id);
                return Ok(alloc_instance(state, id));
            }
            note_cp_miss(state, ctx, "new");
            cc
        }
        None => match cp_class(state, ctx, class, idx) {
            Ok(cc) => cc,
            Err(msg) => {
                return Err(throw_vm(
                    state,
                    frames,
                    ctx,
                    tid,
                    "java/lang/InternalError",
                    &msg,
                ))
            }
        },
    };
    let class_id = ensure_class(state, &cc.name)?;
    ensure_initialized(state, frames, ctx, tid, class_id)?;
    if state.registry.get(class_id).clinit == ClinitState::Initialized {
        cc.init_id.set(Some(class_id));
        let _ = slot.set(class_id);
    }
    Ok(alloc_instance(state, class_id))
}

/// The access flags of a resolved method.
fn method_flags_of(state: &JvmState, target: MethodRef) -> u16 {
    state
        .registry
        .get(target.class)
        .cf
        .as_ref()
        .expect("method class")
        .methods[target.index]
        .access_flags
}

/// Count a constant-pool cache miss and, when tracing, mark the
/// quickening point under the `perf` category.
fn note_cp_miss(state: &JvmState, ctx: &ThreadContext<'_>, what: &'static str) {
    state.perf.cp_miss.inc();
    let tracer = state.engine.tracer();
    if tracer.enabled() {
        tracer.instant(
            cat::PERF,
            "cp_quicken",
            state.engine.now_ns(),
            ctx.trace_lane(),
            vec![("kind", what.into())],
        );
    }
}

/// Count an inline-cache miss at an invoke site and, when tracing, mark
/// the re-dispatch under the `perf` category.
fn note_ic_miss(state: &JvmState, ctx: &ThreadContext<'_>, method: &Rc<str>) {
    state.perf.ic_miss.inc();
    let tracer = state.engine.tracer();
    if tracer.enabled() {
        tracer.instant(
            cat::PERF,
            "icache_miss",
            state.engine.now_ns(),
            ctx.trace_lane(),
            vec![("method", method.to_string().into())],
        );
    }
}

/// Ensure a class and its superclasses are initialized: `Ok` once none
/// is left to start, else the step to leave with. That is a call
/// boundary after the outermost pending `<clinit>`'s frame was pushed
/// (the instruction that wants the class retries when it returns), or a
/// throw: `NoClassDefFoundError` for an erroneous class, or the error of
/// a `<clinit>` that cannot run, which makes its class erroneous.
fn ensure_initialized(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    class: ClassId,
) -> Result<(), StepResult> {
    // Find the outermost un-initialized ancestor.
    let mut chain = Vec::new();
    let mut cur = Some(class);
    while let Some(id) = cur {
        chain.push(id);
        cur = state.registry.get(id).super_id;
    }
    for &id in chain.iter().rev() {
        match state.registry.get(id).clinit {
            ClinitState::NotStarted => {}
            ClinitState::Erroneous => {
                let msg = format!("Could not initialize class {}", state.registry.get(id).name);
                let class = "java/lang/NoClassDefFoundError";
                return Err(throw_vm(state, frames, ctx, tid, class, &msg));
            }
            // An initialization in progress, on this thread or (a
            // simplification: no cross-thread wait) another, is left
            // alone.
            ClinitState::InProgress(_) | ClinitState::Initialized => continue,
        }
        let clinit = state.registry.get(id).cf.as_ref().and_then(|cf| {
            cf.methods
                .iter()
                .position(|m| m.name == "<clinit>" && m.descriptor == "()V")
        });
        let Some(index) = clinit else {
            state.registry.get_mut(id).clinit = ClinitState::Initialized;
            continue;
        };
        let frame = match callee_frame(state, MethodRef { class: id, index }, 0) {
            Ok(frame) => frame,
            Err((class, msg)) => {
                state.registry.get_mut(id).clinit = ClinitState::Erroneous;
                return Err(throw_vm(state, frames, ctx, tid, class, &msg));
            }
        };
        state.registry.get_mut(id).clinit = ClinitState::InProgress(tid.0);
        frames.push(frame);
        return Err(StepResult::CallBoundary);
    }
    Ok(())
}

/// Allocate an instance: charged as §6.7's field dictionary (one map
/// operation per field), built as a copy of its class's slot template.
pub fn alloc_instance(state: &mut JvmState, class: ClassId) -> ObjRef {
    let fields = state.registry.get(class).slot_template.clone();
    state.engine.charge(Cost::Alloc);
    state.engine.charge_n(Cost::MapOp, fields.len() as u64);
    state.heap.alloc(HeapObj::Instance { class, fields })
}

fn alloc_multi(state: &mut JvmState, desc: &str, sizes: &[i32]) -> ObjRef {
    let len = sizes[0] as usize;
    if sizes.len() == 1 {
        // Innermost dimension: choose representation by component.
        let component = &desc[1..];
        return match component.as_bytes().first() {
            Some(b'I') => state.heap.alloc(HeapObj::ArrayInt(vec![0; len])),
            Some(b'J') => state.heap.alloc(HeapObj::ArrayLong(vec![0; len])),
            Some(b'F') => state.heap.alloc(HeapObj::ArrayFloat(vec![0.0; len])),
            Some(b'D') => state.heap.alloc(HeapObj::ArrayDouble(vec![0.0; len])),
            Some(b'B') | Some(b'Z') => state.heap.alloc(HeapObj::ArrayByte(vec![0; len])),
            Some(b'C') => state.heap.alloc(HeapObj::ArrayChar(vec![0; len])),
            Some(b'S') => state.heap.alloc(HeapObj::ArrayShort(vec![0; len])),
            _ => {
                let comp = component
                    .strip_prefix('L')
                    .map(|s| s.trim_end_matches(';').to_string())
                    .unwrap_or_else(|| component.to_string());
                state.heap.alloc(HeapObj::ArrayRef {
                    component: comp,
                    data: vec![None; len],
                })
            }
        };
    }
    let inner_desc = &desc[1..];
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        data.push(Some(alloc_multi(state, inner_desc, &sizes[1..])));
    }
    state.heap.alloc(HeapObj::ArrayRef {
        component: inner_desc.to_string(),
        data,
    })
}

/// A java/lang/Class mirror object for `name` (cached).
pub fn class_object(state: &mut JvmState, name: &str) -> ObjRef {
    let key = format!("\u{0}class:{name}");
    if let Some(&r) = state.string_pool.get(&key) {
        return r;
    }
    let class_id = state.registry.lookup("java/lang/Class");
    let r = match class_id {
        Some(cid) => {
            let name_ref = state.intern_string(name);
            let fields = state.registry.get(cid).slot_template.clone();
            let r = state.heap.alloc(HeapObj::Instance { class: cid, fields });
            if let Some(slot) = state.field_mut(r, "java/lang/Class.name") {
                *slot = Value::Ref(Some(name_ref));
            }
            r
        }
        None => state.heap.alloc_string(name),
    };
    state.string_pool.insert(key, r);
    r
}

// ----------------------------------------------------------------
// Monitors (§6.2 context-switch points)
// ----------------------------------------------------------------

/// Try to acquire a monitor; true on success (including recursion).
/// Outermost acquisitions feed the runtime's wait-for graph and
/// lock-order-inversion detector.
pub fn try_enter_monitor(
    state: &mut JvmState,
    ctx: &mut ThreadContext<'_>,
    obj: ObjRef,
    tid: ThreadId,
) -> bool {
    let m = state.monitors.entry(obj).or_default();
    match &mut m.owner {
        None => {
            m.owner = Some((tid, 1));
            ctx.runtime()
                .note_acquire(tid, Resource::Monitor(obj as u64));
            true
        }
        Some((owner, count)) if *owner == tid => {
            *count += 1;
            true
        }
        _ => false,
    }
}

/// Queue the thread on a contended monitor.
pub fn queue_on_monitor(state: &mut JvmState, obj: ObjRef, tid: ThreadId) {
    let m = state.monitors.entry(obj).or_default();
    if !m.entry_queue.contains(&tid) {
        m.entry_queue.push_back(tid);
    }
}

/// Release one recursion level; wakes the next queued thread when the
/// monitor becomes free.
pub fn exit_monitor(
    state: &mut JvmState,
    ctx: &mut ThreadContext<'_>,
    obj: ObjRef,
    tid: ThreadId,
) -> Result<(), String> {
    let m = state
        .monitors
        .get_mut(&obj)
        .ok_or_else(|| "monitor not held".to_string())?;
    match &mut m.owner {
        Some((owner, count)) if *owner == tid => {
            *count -= 1;
            if *count == 0 {
                m.owner = None;
                let next = m.entry_queue.pop_front();
                ctx.runtime()
                    .note_release(tid, Resource::Monitor(obj as u64));
                if let Some(next) = next {
                    ctx.wake(next);
                }
            }
            Ok(())
        }
        _ => Err("monitor owned by another thread".to_string()),
    }
}

/// "Class.method" for the thread's innermost frame — the site string
/// deadlock blame and wait-for edges carry.
pub fn current_site(state: &JvmState, frames: &[Frame]) -> String {
    match frames.last() {
        Some(f) => format!("{}.{}", state.registry.get(f.code.class).name, f.code.name),
        None => "<no frame>".to_string(),
    }
}

/// The thread's whole frame stack as "Class.method" strings, outermost
/// first — the shape the sampling profiler folds into `a;b;c` stacks.
pub fn stack_trace(state: &JvmState, frames: &[Frame]) -> Vec<String> {
    frames
        .iter()
        .map(|f| format!("{}.{}", state.registry.get(f.code.class).name, f.code.name))
        .collect()
}

// ----------------------------------------------------------------
// Exceptions (§6.6)
// ----------------------------------------------------------------

/// Allocate and throw a VM exception by class name.
pub fn throw_vm(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    class_name: &str,
    message: &str,
) -> StepResult {
    let ex = make_exception(state, class_name, message);
    dispatch_exception(state, frames, ctx, tid, ex)
}

/// Build an exception instance (class must be defined — the runtime
/// library defines the VM exception classes at boot, or on first throw
/// for its [on-demand class](rtlib::on_demand_class)).
pub fn make_exception(state: &mut JvmState, class_name: &str, message: &str) -> ObjRef {
    let msg_ref = state.intern_string(message);
    let class = state.registry.lookup(class_name).or_else(|| {
        let cf = rtlib::on_demand_class(class_name)?;
        loader::define_with_constants(state, cf).ok()?;
        state.registry.lookup(class_name)
    });
    match class {
        Some(cid) => {
            let r = alloc_instance(state, cid);
            if let Some(slot) = state.field_mut(r, "java/lang/Throwable.message") {
                *slot = Value::Ref(Some(msg_ref));
            }
            r
        }
        // Bootstrap fallback: a bare string stands in for the object.
        None => state.heap.alloc_string(format!("{class_name}: {message}")),
    }
}

/// Walk the virtual stack for a handler — "DoppioJVM emulates JVM
/// exception handling semantics by iterating through its virtual stack
/// representation until it finds a stack frame with an applicable
/// exception handler, or until it empties the stack". An exception that
/// unwinds a `<clinit>` goes on as JVMS §5.5 says: an `Error` as itself,
/// any other exception wrapped in an `ExceptionInInitializerError`.
pub fn dispatch_exception(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    mut ex: ObjRef,
) -> StepResult {
    let mut ex_class = runtime_class_of(state, ex).ok();
    while let Some(frame) = frames.last_mut() {
        let pc = frame.pc as u16;
        let code = frame.code.clone();
        let mut matched = None;
        for entry in &code.exceptions {
            if pc < entry.start_pc || pc >= entry.end_pc {
                continue;
            }
            let applies = if entry.catch_type == 0 {
                true
            } else {
                let cf = state
                    .registry
                    .get(code.class)
                    .cf
                    .as_ref()
                    .expect("class file");
                match (cf.constant_pool.class_name(entry.catch_type), ex_class) {
                    (Ok(catch_name), Some(exc)) => {
                        let catch_name = catch_name.to_string();
                        state.registry.is_assignable(exc, &catch_name)
                    }
                    _ => false,
                }
            };
            if applies {
                matched = Some(entry.handler_pc);
                break;
            }
        }
        if let Some(handler_pc) = matched {
            let frame = frames.last_mut().expect("frame");
            frame.stack.clear();
            frame.push(Value::Ref(Some(ex)));
            frame.pc = handler_pc as usize;
            return StepResult::Continue;
        }
        pop_frame(state, frames, ctx, tid, false);
        if code.is_clinit {
            ex = initializer_error(state, ex);
            ex_class = runtime_class_of(state, ex).ok();
        }
    }
    StepResult::Uncaught(ex)
}

/// What an exception that ends a `<clinit>` becomes at the instruction
/// that asked for the class (JVMS §5.5): an `Error` stays itself, any
/// other exception is wrapped in an `ExceptionInInitializerError` whose
/// message is its class and message.
fn initializer_error(state: &mut JvmState, ex: ObjRef) -> ObjRef {
    let class = runtime_class_of(state, ex).ok();
    if class.is_some_and(|c| state.registry.is_assignable(c, "java/lang/Error")) {
        return ex;
    }
    let message = natives::describe_summary(state, ex);
    make_exception(state, "java/lang/ExceptionInInitializerError", &message)
}

// ----------------------------------------------------------------
// Calls and returns
// ----------------------------------------------------------------

/// Pop the top frame: a `<clinit>` marks its class initialized if it
/// `returned`, else erroneous; a synchronized method's monitor is
/// released, and the frame's vectors go to the spare list.
fn pop_frame(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    returned: bool,
) {
    let popped = frames.pop().expect("frame");
    if popped.code.is_clinit {
        state.registry.get_mut(popped.code.class).clinit = if returned {
            ClinitState::Initialized
        } else {
            ClinitState::Erroneous
        };
    }
    if let Some(mon) = popped.held_monitor {
        let _ = exit_monitor(state, ctx, mon, tid);
    }
    state.recycle_frame(popped);
}

/// The frame a call to `target` runs in, drawn from the spare list, with
/// room for `arg_slots` argument slots (the receiver's included) that
/// the caller fills. `Err` carries the exception class and message the
/// call throws instead: a method without code is an
/// `AbstractMethodError`, and one whose `max_locals` is smaller than its
/// arguments (malformed code) an `InternalError`.
#[inline]
pub(crate) fn callee_frame(
    state: &mut JvmState,
    target: MethodRef,
    arg_slots: usize,
) -> Result<Frame, (&'static str, String)> {
    match state.code_blob(target.class, target.index) {
        Some(blob) if usize::from(blob.max_locals) >= arg_slots => Ok(state.new_frame(blob)),
        blob => Err(callee_error(state, target, arg_slots, blob.as_deref())),
    }
}

/// [`callee_frame`]'s error for `target`, whose code is `blob`.
#[cold]
fn callee_error(
    state: &JvmState,
    target: MethodRef,
    arg_slots: usize,
    blob: Option<&CodeBlob>,
) -> (&'static str, String) {
    let class = state.registry.get(target.class);
    let name = match class
        .cf
        .as_ref()
        .and_then(|cf| cf.methods.get(target.index))
    {
        Some(m) => format!("{}.{}{}", class.name, m.name, m.descriptor),
        None => class.name.clone(),
    };
    match blob {
        None => ("java/lang/AbstractMethodError", name),
        Some(blob) => {
            let msg = format!(
                "{name}: max_locals {} is smaller than its {arg_slots}-slot arguments",
                blob.max_locals
            );
            ("java/lang/InternalError", msg)
        }
    }
}

/// Step `frame` past the invoke it is executing: its call completed.
#[inline]
pub(crate) fn step_past_invoke(frame: &mut Frame) {
    if let Ok(code) = &frame.code.code {
        if let Some(ip) = code.ip(frame.pc) {
            frame.pc = code.pc(ip + 1);
        }
    }
}

/// Pop a frame, delivering `value` to the caller, which steps past its
/// invoke. A finished `<clinit>` leaves its caller's pc in place, so the
/// instruction that pushed it retries.
pub fn do_return(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    value: Option<Value>,
) -> StepResult {
    let clinit = frames.last().is_some_and(|f| f.code.is_clinit);
    pop_frame(state, frames, ctx, tid, true);
    match frames.last_mut() {
        None => StepResult::Finished,
        Some(caller) => {
            if !clinit {
                step_past_invoke(caller);
            }
            if let Some(v) = value {
                caller.push(v);
            }
            StepResult::CallBoundary
        }
    }
}

/// Take a synchronized callee's monitor: the class's for a static
/// method, else the receiver's. `Err` carries the step to leave with
/// when it is contended (the thread queues on it and retries the invoke
/// when woken).
fn lock_callee(
    state: &mut JvmState,
    tally: &mut Tally,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    site: &CallSite,
    target: MethodRef,
    flags: u16,
) -> Result<ObjRef, StepResult> {
    tally.flush(state);
    let tid = ctx.thread_id();
    let lock_obj = if flags & access::ACC_STATIC != 0 {
        let cls_name = state.registry.get(target.class).name.clone();
        class_object(state, &cls_name)
    } else {
        match frames.last().expect("frame").peek(site.arg_slots) {
            Value::Ref(Some(r)) => *r,
            _ => {
                let npe = "java/lang/NullPointerException";
                return Err(throw_vm(state, frames, ctx, tid, npe, "sync"));
            }
        }
    };
    if try_enter_monitor(state, ctx, lock_obj, tid) {
        Ok(lock_obj)
    } else {
        queue_on_monitor(state, lock_obj, tid);
        Err(StepResult::MonitorBlocked(lock_obj))
    }
}

/// The body of an invoke once its call site is decoded: dispatch,
/// synchronization, argument transfer and the frame push. The caller's
/// pc stays on the invoke until the call completes, so a throw, a
/// blocked monitor or a blocked native resolves against the invoke; a
/// native that returns or yields steps it past, as a bytecode return
/// does.
///
/// A call to a bytecode method through a site that hits its cache
/// leaves `tally` alone. Every other path hands it to the engine before
/// it traces, takes a monitor, calls a native or throws.
fn invoke_with_site(
    state: &mut JvmState,
    tally: &mut Tally,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    opcode: u8,
    site: &CallSite,
) -> StepResult {
    let arg_slots = site.arg_slots;
    let has_receiver = opcode != op::INVOKESTATIC;

    // Select the target method.
    let (target, method_flags) = if opcode == op::INVOKEVIRTUAL || opcode == op::INVOKEINTERFACE {
        // Peek the receiver under the arguments for dynamic dispatch.
        let frame = frames.last().expect("frame");
        let recv = match frame.peek(arg_slots) {
            Value::Ref(Some(r)) => *r,
            Value::Ref(None) => {
                tally.flush(state);
                let msg = format!("invoke {}", site.name);
                return throw_vm(
                    state,
                    frames,
                    ctx,
                    tid,
                    "java/lang/NullPointerException",
                    &msg,
                );
            }
            other => {
                tally.flush(state);
                let msg = format!("receiver is {other:?}");
                return throw_vm(state, frames, ctx, tid, "java/lang/InternalError", &msg);
            }
        };
        let runtime_class = match runtime_class_of(state, recv) {
            Ok(c) => c,
            Err(r) => return r,
        };
        match site.mono.get() {
            Some((cls, t, flags)) if cls == runtime_class => {
                // Monomorphic hit: the §6.7 method dictionary lookup
                // (and its Cost::MapOp) is skipped entirely. A subclass
                // loaded mid-run has a fresh ClassId and lands in the
                // arm below, so the cache self-invalidates.
                state.perf.ic_hit.inc();
                (t, flags)
            }
            _ => {
                tally.flush(state);
                note_ic_miss(state, ctx, &site.name);
                if site.ref_class.get().is_none() {
                    match ensure_class(state, &site.cname) {
                        Ok(id) => site.ref_class.set(Some(id)),
                        Err(r) => return r,
                    }
                }
                // §6.7's method dictionary lookup.
                state.engine.charge(Cost::MapOp);
                let Some(t) = state
                    .registry
                    .select_virtual(runtime_class, &site.name, &site.desc)
                else {
                    let msg = format!("{}.{}{}", site.cname, site.name, site.desc);
                    return throw_vm(state, frames, ctx, tid, "java/lang/NoSuchMethodError", &msg);
                };
                let flags = method_flags_of(state, t);
                site.mono.set(Some((runtime_class, t, flags)));
                (t, flags)
            }
        }
    } else {
        if opcode == op::INVOKESPECIAL {
            // invokespecial still null-checks its receiver.
            let frame = frames.last().expect("frame");
            if matches!(frame.peek(arg_slots), Value::Ref(None)) {
                tally.flush(state);
                let msg = format!("invokespecial {}", site.name);
                return throw_vm(
                    state,
                    frames,
                    ctx,
                    tid,
                    "java/lang/NullPointerException",
                    &msg,
                );
            }
        }
        match site.direct.get() {
            Some((t, flags)) => {
                // Statically-bound hit: resolution (and, for
                // invokestatic, the `<clinit>` protocol) already done.
                state.perf.ic_hit.inc();
                (t, flags)
            }
            None => {
                tally.flush(state);
                note_ic_miss(state, ctx, &site.name);
                let ref_class = match site.ref_class.get() {
                    Some(id) => id,
                    None => match ensure_class(state, &site.cname) {
                        Ok(id) => {
                            site.ref_class.set(Some(id));
                            id
                        }
                        Err(r) => return r,
                    },
                };
                if opcode == op::INVOKESTATIC {
                    if let Err(sr) = ensure_initialized(state, frames, ctx, tid, ref_class) {
                        return sr;
                    }
                }
                let Some(t) = state
                    .registry
                    .resolve_method(ref_class, &site.name, &site.desc)
                else {
                    let msg = format!("{}.{}{}", site.cname, site.name, site.desc);
                    return throw_vm(state, frames, ctx, tid, "java/lang/NoSuchMethodError", &msg);
                };
                let flags = method_flags_of(state, t);
                // invokespecial binds statically; invokestatic binds
                // once its class finished `<clinit>` (so the hit path
                // may skip the initialization protocol).
                if opcode == op::INVOKESPECIAL
                    || matches!(
                        state.registry.get(ref_class).clinit,
                        ClinitState::Initialized
                    )
                {
                    site.direct.set(Some((t, flags)));
                }
                (t, flags)
            }
        }
    };

    // The arguments and the receiver: the top `slots` of the caller's
    // operand stack.
    let slots = arg_slots + usize::from(has_receiver);
    let synchronized = method_flags & access::ACC_SYNCHRONIZED != 0 && &*site.name != "<clinit>";

    // A synchronized native holds its monitor until it returns or
    // throws, also across a block.
    if method_flags & access::ACC_NATIVE != 0 {
        tally.flush(state);
        let mut monitor = None;
        if synchronized {
            match lock_callee(state, tally, frames, ctx, site, target, method_flags) {
                Ok(obj) => monitor = Some(obj),
                Err(sr) => return sr,
            }
        }
        // Natives see logical values, not stack slots: drop the
        // padding slots of wide arguments.
        let caller = frames.last_mut().expect("frame");
        let base = caller.stack.len() - slots;
        let args = caller
            .stack
            .drain(base..)
            .filter(|v| !matches!(v, Value::Padding))
            .collect();
        let outcome = natives::call(
            &mut NativeCtx {
                state,
                frames,
                ctx,
                tid,
            },
            target,
            args,
        );
        return natives::apply_outcome(state, frames, ctx, monitor, outcome);
    }

    // A throw here clears or pops the caller's operand stack, arguments
    // included.
    if frames.len() >= 8192 {
        tally.flush(state);
        let msg = format!("invoking {}", site.name);
        return throw_vm(
            state,
            frames,
            ctx,
            tid,
            "java/lang/StackOverflowError",
            &msg,
        );
    }
    let mut callee = match callee_frame(state, target, slots) {
        Ok(frame) => frame,
        Err((class, msg)) => {
            tally.flush(state);
            return throw_vm(state, frames, ctx, tid, class, &msg);
        }
    };
    if synchronized {
        match lock_callee(state, tally, frames, ctx, site, target, method_flags) {
            Ok(obj) => callee.held_monitor = Some(obj),
            Err(sr) => {
                state.recycle_frame(callee);
                return sr;
            }
        }
    }
    // Move the argument slots verbatim (they are already slot-expanded).
    let caller = frames.last_mut().expect("frame");
    let base = caller.stack.len() - slots;
    callee.locals[..slots].copy_from_slice(&caller.stack[base..]);
    caller.stack.truncate(base);
    frames.push(callee);
    StepResult::CallBoundary
}
