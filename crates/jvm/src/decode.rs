//! The bytecode decoder: one op per instruction, decoded once per method.
//!
//! [`decode`] runs when a method's [`CodeBlob`](crate::state::CodeBlob)
//! is first built. It is bounds-checked, reads no constant pool and
//! charges no virtual time; the interpreter ([`crate::interp::run`])
//! then executes only the op stream.
//!
//! **Resolution slots.** Ops that resolve a constant-pool entry or a
//! call site (`ldc`, field access, `invoke*`, `new`, the class-taking
//! ops) carry an empty slot. Their first execution runs the full
//! resolution path — the constant-pool cache probe, or the miss path
//! with its `jvm.cp_cache.miss` count and charges — and fills the slot
//! exactly when that path installs its cache entry. Later executions
//! read the slot: the op *quickens* itself at the same virtual instant
//! the cache does.
//!
//! **Superinstructions.** `iload; iload; <int op>`, `iinc; goto` and
//! `aload; getfield` are fused into the slot of their first
//! instruction, which executes the whole sequence and skips ahead. The
//! other instructions keep their own ops, so every instruction head
//! stays an entry point: branches into the middle of a fused sequence,
//! exception handlers, and a `getfield` that must resolve (and may
//! block) at its own pc all land on runnable ops. A fused op replays
//! the exact per-instruction counts and charges of the sequence.

use std::cell::OnceCell;
use std::fmt;
use std::rc::Rc;

use doppio_classfile::opcodes::{self as op, branch_targets, decode_len};
use doppio_classfile::ExceptionEntry;
use doppio_jsengine::Cost;

use crate::class::{ClassConst, ClassId, ResolvedField};
use crate::state::CallSite;
use crate::value::Value;

/// One decoded instruction. Branch targets are op indices.
#[derive(Debug)]
pub enum Op {
    /// `nop`.
    Nop,
    /// `aconst_null`, `*const_*`, `bipush`, `sipush`: push `v`, charging
    /// `cost` if any.
    Const { v: Value, cost: Option<Cost> },
    /// `ldc`, `ldc_w`, `ldc2_w` of pool entry `idx`; the slot holds the
    /// pushed value once resolved.
    Ldc { idx: u16, value: OnceCell<Value> },
    /// `*load`: push local `local`, charging `cost`.
    Load { local: u16, cost: Cost },
    /// `*store`: pop into local `local`, charging `cost`.
    Store { local: u16, cost: Cost },
    /// `wide *load` (charges only dispatch).
    WideLoad { local: u16 },
    /// `wide *store` (charges only dispatch).
    WideStore { local: u16 },
    /// `iinc`.
    Iinc { local: u16, delta: i32 },
    /// `wide iinc` (charges only dispatch).
    WideIinc { local: u16, delta: i32 },
    /// `*aload`.
    ArrayLoad,
    /// `*astore`.
    ArrayStore,
    /// `pop`.
    Pop,
    /// `pop2`.
    Pop2,
    /// `dup`.
    Dup,
    /// `dup_x1`.
    DupX1,
    /// `dup_x2`.
    DupX2,
    /// `dup2`.
    Dup2,
    /// `dup2_x1`.
    Dup2X1,
    /// `dup2_x2`.
    Dup2X2,
    /// `swap`.
    Swap,
    /// The non-throwing int binops, by opcode.
    IntBin(u8),
    /// `idiv`, `irem`.
    IntDivRem(u8),
    /// `ineg`.
    IntNeg,
    /// `ladd`, `lsub`, `lmul`, `land`, `lor`, `lxor`.
    LongBin(u8),
    /// `ldiv`, `lrem`.
    LongDivRem(u8),
    /// `lshl`, `lshr`, `lushr`.
    LongShift(u8),
    /// `lneg`.
    LongNeg,
    /// `fadd` .. `frem`.
    FloatBin(u8),
    /// `dadd` .. `drem`.
    DoubleBin(u8),
    /// `fneg`.
    FloatNeg,
    /// `dneg`.
    DoubleNeg,
    /// The primitive conversions, by opcode.
    Conv(u8),
    /// `lcmp`.
    Lcmp,
    /// `fcmpl`, `fcmpg`.
    Fcmp { greater_on_nan: bool },
    /// `dcmpl`, `dcmpg`.
    Dcmp { greater_on_nan: bool },
    /// `ifeq` .. `ifle`.
    If0 { cond: u8, target: u32 },
    /// `if_icmpeq` .. `if_icmple`.
    IfICmp { cond: u8, target: u32 },
    /// `if_acmpeq`, `if_acmpne`.
    IfACmp { eq: bool, target: u32 },
    /// `ifnull`, `ifnonnull`.
    IfNull { null: bool, target: u32 },
    /// `goto`, `goto_w`.
    Goto { target: u32 },
    /// `jsr`, `jsr_w`.
    Jsr { target: u32 },
    /// `ret`, `wide ret`.
    Ret { local: u16, wide: bool },
    /// `tableswitch`.
    TableSwitch(Box<TableSwitch>),
    /// `lookupswitch`.
    LookupSwitch(Box<LookupSwitch>),
    /// `*return`; `value` unless `return`.
    Return { value: bool },
    /// `getstatic` of pool entry `idx`.
    GetStatic {
        idx: u16,
        field: OnceCell<Rc<ResolvedField>>,
    },
    /// `putstatic` of pool entry `idx`.
    PutStatic {
        idx: u16,
        field: OnceCell<Rc<ResolvedField>>,
    },
    /// `getfield` of pool entry `idx`.
    GetField {
        idx: u16,
        field: OnceCell<Rc<ResolvedField>>,
    },
    /// `putfield` of pool entry `idx`.
    PutField {
        idx: u16,
        field: OnceCell<Rc<ResolvedField>>,
    },
    /// One of the four `invoke*` opcodes, with its call site.
    Invoke {
        opcode: u8,
        idx: u16,
        site: OnceCell<Box<CallSite>>,
    },
    /// `new`; the slot holds the class once it is initialized.
    New { idx: u16, class: OnceCell<ClassId> },
    /// `newarray`.
    NewArray { atype: u8 },
    /// `anewarray`.
    ANewArray {
        idx: u16,
        class: OnceCell<Rc<ClassConst>>,
    },
    /// `multianewarray`.
    MultiANewArray {
        idx: u16,
        dims: u8,
        class: OnceCell<Rc<ClassConst>>,
    },
    /// `arraylength`.
    ArrayLength,
    /// `athrow`.
    Athrow,
    /// `checkcast`.
    CheckCast {
        idx: u16,
        class: OnceCell<Rc<ClassConst>>,
    },
    /// `instanceof`.
    InstanceOf {
        idx: u16,
        class: OnceCell<Rc<ClassConst>>,
    },
    /// `monitorenter`.
    MonitorEnter,
    /// `monitorexit`.
    MonitorExit,
    /// A `wide` whose sub-opcode cannot be widened.
    BadWide,
    /// An undefined opcode byte.
    Undefined(u8),
    /// Superinstruction: `iload a; iload b; <int binop>`.
    LoadLoadIntBin { a: u16, b: u16, op: u8 },
    /// Superinstruction: `iinc; goto`, the loop latch.
    IincGoto { local: u16, delta: i32, target: u32 },
    /// Superinstruction: `aload; getfield`. The `getfield` is the next
    /// op; while its slot is empty only the `aload` runs here.
    LoadGetfield { local: u16 },
}

/// A decoded `tableswitch`.
#[derive(Debug)]
pub struct TableSwitch {
    /// Lowest case key.
    pub low: i32,
    /// Target when the key is out of range.
    pub default: u32,
    /// Targets for keys `low..`.
    pub targets: Box<[u32]>,
}

/// A decoded `lookupswitch`.
#[derive(Debug)]
pub struct LookupSwitch {
    /// Target when no key matches.
    pub default: u32,
    /// `(key, target)` pairs in encoding order.
    pub pairs: Box<[(i32, u32)]>,
}

/// Why a method's bytecode does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Offset of the offending instruction (or handler target).
    pub pc: usize,
    /// What is wrong there.
    pub what: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed bytecode: {} at pc {}", self.what, self.pc)
    }
}

/// A method's op stream: op `i` is the instruction at bytecode offset
/// `pc(i)`.
#[derive(Debug)]
pub struct Decoded {
    ops: Box<[Op]>,
    /// Bytecode offset of each op, then the code length.
    pcs: Box<[u32]>,
    /// Op index of each instruction head, [`NOT_A_HEAD`] elsewhere; the
    /// code length maps to `ops.len()`.
    ip_of: Box<[u32]>,
}

const NOT_A_HEAD: u32 = u32::MAX;

impl Decoded {
    /// The ops, one per instruction.
    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Bytecode offset of op `ip`; `ops().len()` maps to the code length.
    #[inline]
    pub(crate) fn pc(&self, ip: usize) -> usize {
        self.pcs[ip] as usize
    }

    /// Op index of the instruction at bytecode offset `pc`; the code
    /// length maps to `ops().len()`. `None` inside an instruction.
    #[inline]
    pub(crate) fn ip(&self, pc: usize) -> Option<usize> {
        match self.ip_of.get(pc) {
            Some(&ip) if ip != NOT_A_HEAD => Some(ip as usize),
            _ => None,
        }
    }
}

/// Decode `code`. Fails on truncated operands and on branch, switch and
/// handler targets that are not instruction heads.
pub(crate) fn decode(code: &[u8], handlers: &[ExceptionEntry]) -> Result<Decoded, DecodeError> {
    let mut pcs = Vec::new();
    let mut ip_of = vec![NOT_A_HEAD; code.len() + 1];
    let mut pc = 0;
    while pc < code.len() {
        let len = decode_len(code, pc).ok_or(DecodeError {
            pc,
            what: "truncated instruction",
        })?;
        ip_of[pc] = pcs.len() as u32;
        pcs.push(pc as u32);
        pc += len;
    }
    ip_of[code.len()] = pcs.len() as u32;
    let n = pcs.len();
    pcs.push(code.len() as u32);

    let head = |target: usize| {
        ip_of[..code.len()]
            .get(target)
            .filter(|&&ip| ip != NOT_A_HEAD)
    };
    for h in handlers {
        let pc = h.handler_pc as usize;
        head(pc).ok_or(DecodeError {
            pc,
            what: "handler target is not an instruction",
        })?;
    }

    let mut ops = Vec::with_capacity(n);
    for &pc in &pcs[..n] {
        let pc = pc as usize;
        let targets = branch_targets(code, pc)
            .and_then(|ts| {
                ts.into_iter()
                    .map(|t| head(t).copied())
                    .collect::<Option<Vec<_>>>()
            })
            .ok_or(DecodeError {
                pc,
                what: "branch target is not an instruction",
            })?;
        ops.push(decode_op(code, pc, &targets));
    }

    // Fuse superinstructions into the slot of their first instruction.
    for ip in 0..n {
        ops[ip] = match (&ops[ip], ops.get(ip + 1), ops.get(ip + 2)) {
            (
                &Op::Load {
                    local: a,
                    cost: Cost::IntOp,
                },
                Some(&Op::Load {
                    local: b,
                    cost: Cost::IntOp,
                }),
                Some(&Op::IntBin(bin)),
            ) => Op::LoadLoadIntBin { a, b, op: bin },
            (&Op::Iinc { local, delta }, Some(&Op::Goto { target }), _) => Op::IincGoto {
                local,
                delta,
                target,
            },
            (
                &Op::Load {
                    local,
                    cost: Cost::IntOp,
                },
                Some(Op::GetField { .. }),
                _,
            ) => Op::LoadGetfield { local },
            _ => continue,
        };
    }

    Ok(Decoded {
        ops: ops.into_boxed_slice(),
        pcs: pcs.into_boxed_slice(),
        ip_of: ip_of.into_boxed_slice(),
    })
}

/// The int binops that cannot throw (`idiv` and `irem` can).
fn is_int_bin(opcode: u8) -> bool {
    matches!(
        opcode,
        op::IADD
            | op::ISUB
            | op::IMUL
            | op::ISHL
            | op::ISHR
            | op::IUSHR
            | op::IAND
            | op::IOR
            | op::IXOR
    )
}

/// Cost of the `<t>load_<n>` / `<t>store_<n>` families, in opcode order
/// (`i`, `l`, `f`, `d`, `a`).
const SHORT_FORM_COSTS: [Cost; 5] = [
    Cost::IntOp,
    Cost::LongOp,
    Cost::FloatOp,
    Cost::FloatOp,
    Cost::IntOp,
];

/// Decode the instruction at `pc`, whose length `decode_len` checked and
/// whose jump targets (as op indices) are `targets`.
fn decode_op(code: &[u8], pc: usize, targets: &[u32]) -> Op {
    let u8_at = |k: usize| code[pc + k];
    let u16_at = |k: usize| u16::from_be_bytes([code[pc + k], code[pc + k + 1]]);
    let i32_at =
        |at: usize| i32::from_be_bytes([code[at], code[at + 1], code[at + 2], code[at + 3]]);
    let opcode = code[pc];
    let local = || u16::from(u8_at(1));
    let konst = |v: Value, cost: Cost| Op::Const {
        v,
        cost: Some(cost),
    };
    match opcode {
        op::NOP => Op::Nop,
        op::ACONST_NULL => Op::Const {
            v: Value::null(),
            cost: None,
        },
        op::ICONST_M1..=op::ICONST_5 => konst(
            Value::Int(i32::from(opcode) - i32::from(op::ICONST_0)),
            Cost::IntOp,
        ),
        op::LCONST_0 | op::LCONST_1 => {
            konst(Value::Long(i64::from(opcode - op::LCONST_0)), Cost::LongOp)
        }
        op::FCONST_0..=op::FCONST_2 => konst(
            Value::Float(f32::from(opcode - op::FCONST_0)),
            Cost::FloatOp,
        ),
        op::DCONST_0 | op::DCONST_1 => konst(
            Value::Double(f64::from(opcode - op::DCONST_0)),
            Cost::FloatOp,
        ),
        op::BIPUSH => konst(Value::Int(i32::from(u8_at(1) as i8)), Cost::IntOp),
        op::SIPUSH => konst(Value::Int(i32::from(u16_at(1) as i16)), Cost::IntOp),
        op::LDC => Op::Ldc {
            idx: u16::from(u8_at(1)),
            value: OnceCell::new(),
        },
        op::LDC_W | op::LDC2_W => Op::Ldc {
            idx: u16_at(1),
            value: OnceCell::new(),
        },

        op::ILOAD | op::FLOAD | op::ALOAD => Op::Load {
            local: local(),
            cost: Cost::IntOp,
        },
        op::LLOAD | op::DLOAD => Op::Load {
            local: local(),
            cost: Cost::LongOp,
        },
        op::ILOAD_0..=op::ALOAD_3 => {
            let k = opcode - op::ILOAD_0;
            Op::Load {
                local: u16::from(k % 4),
                cost: SHORT_FORM_COSTS[usize::from(k / 4)],
            }
        }
        op::ISTORE | op::FSTORE | op::ASTORE => Op::Store {
            local: local(),
            cost: Cost::IntOp,
        },
        op::LSTORE | op::DSTORE => Op::Store {
            local: local(),
            cost: Cost::LongOp,
        },
        op::ISTORE_0..=op::ASTORE_3 => {
            let k = opcode - op::ISTORE_0;
            Op::Store {
                local: u16::from(k % 4),
                cost: SHORT_FORM_COSTS[usize::from(k / 4)],
            }
        }
        op::IALOAD..=op::SALOAD => Op::ArrayLoad,
        op::IASTORE..=op::SASTORE => Op::ArrayStore,

        op::POP => Op::Pop,
        op::POP2 => Op::Pop2,
        op::DUP => Op::Dup,
        op::DUP_X1 => Op::DupX1,
        op::DUP_X2 => Op::DupX2,
        op::DUP2 => Op::Dup2,
        op::DUP2_X1 => Op::Dup2X1,
        op::DUP2_X2 => Op::Dup2X2,
        op::SWAP => Op::Swap,

        o if is_int_bin(o) => Op::IntBin(o),
        op::IDIV | op::IREM => Op::IntDivRem(opcode),
        op::INEG => Op::IntNeg,
        op::LADD | op::LSUB | op::LMUL | op::LAND | op::LOR | op::LXOR => Op::LongBin(opcode),
        op::LDIV | op::LREM => Op::LongDivRem(opcode),
        op::LSHL | op::LSHR | op::LUSHR => Op::LongShift(opcode),
        op::LNEG => Op::LongNeg,
        op::FADD | op::FSUB | op::FMUL | op::FDIV | op::FREM => Op::FloatBin(opcode),
        op::DADD | op::DSUB | op::DMUL | op::DDIV | op::DREM => Op::DoubleBin(opcode),
        op::FNEG => Op::FloatNeg,
        op::DNEG => Op::DoubleNeg,
        op::IINC => Op::Iinc {
            local: local(),
            delta: i32::from(u8_at(2) as i8),
        },
        op::I2L..=op::I2S => Op::Conv(opcode),
        op::LCMP => Op::Lcmp,
        op::FCMPL | op::FCMPG => Op::Fcmp {
            greater_on_nan: opcode == op::FCMPG,
        },
        op::DCMPL | op::DCMPG => Op::Dcmp {
            greater_on_nan: opcode == op::DCMPG,
        },

        op::IFEQ..=op::IFLE => Op::If0 {
            cond: opcode,
            target: targets[0],
        },
        op::IF_ICMPEQ..=op::IF_ICMPLE => Op::IfICmp {
            cond: opcode,
            target: targets[0],
        },
        op::IF_ACMPEQ | op::IF_ACMPNE => Op::IfACmp {
            eq: opcode == op::IF_ACMPEQ,
            target: targets[0],
        },
        op::IFNULL | op::IFNONNULL => Op::IfNull {
            null: opcode == op::IFNULL,
            target: targets[0],
        },
        op::GOTO | op::GOTO_W => Op::Goto { target: targets[0] },
        op::JSR | op::JSR_W => Op::Jsr { target: targets[0] },
        op::RET => Op::Ret {
            local: local(),
            wide: false,
        },
        op::TABLESWITCH => Op::TableSwitch(Box::new(TableSwitch {
            low: i32_at(((pc + 4) & !3) + 4),
            default: targets[0],
            targets: targets[1..].into(),
        })),
        op::LOOKUPSWITCH => {
            let keys = ((pc + 4) & !3) + 8;
            Op::LookupSwitch(Box::new(LookupSwitch {
                default: targets[0],
                pairs: (targets[1..].iter().enumerate())
                    .map(|(i, &t)| (i32_at(keys + 8 * i), t))
                    .collect(),
            }))
        }
        op::IRETURN..=op::RETURN => Op::Return {
            value: opcode != op::RETURN,
        },

        op::GETSTATIC => Op::GetStatic {
            idx: u16_at(1),
            field: OnceCell::new(),
        },
        op::PUTSTATIC => Op::PutStatic {
            idx: u16_at(1),
            field: OnceCell::new(),
        },
        op::GETFIELD => Op::GetField {
            idx: u16_at(1),
            field: OnceCell::new(),
        },
        op::PUTFIELD => Op::PutField {
            idx: u16_at(1),
            field: OnceCell::new(),
        },
        op::INVOKEVIRTUAL..=op::INVOKEINTERFACE => Op::Invoke {
            opcode,
            idx: u16_at(1),
            site: OnceCell::new(),
        },
        op::NEW => Op::New {
            idx: u16_at(1),
            class: OnceCell::new(),
        },
        op::NEWARRAY => Op::NewArray { atype: u8_at(1) },
        op::ANEWARRAY => Op::ANewArray {
            idx: u16_at(1),
            class: OnceCell::new(),
        },
        op::MULTIANEWARRAY => Op::MultiANewArray {
            idx: u16_at(1),
            dims: u8_at(3),
            class: OnceCell::new(),
        },
        op::ARRAYLENGTH => Op::ArrayLength,
        op::ATHROW => Op::Athrow,
        op::CHECKCAST => Op::CheckCast {
            idx: u16_at(1),
            class: OnceCell::new(),
        },
        op::INSTANCEOF => Op::InstanceOf {
            idx: u16_at(1),
            class: OnceCell::new(),
        },
        op::MONITORENTER => Op::MonitorEnter,
        op::MONITOREXIT => Op::MonitorExit,

        op::WIDE => {
            let local = u16_at(2);
            match u8_at(1) {
                op::ILOAD | op::FLOAD | op::ALOAD | op::LLOAD | op::DLOAD => Op::WideLoad { local },
                op::ISTORE | op::FSTORE | op::ASTORE | op::LSTORE | op::DSTORE => {
                    Op::WideStore { local }
                }
                op::IINC => Op::WideIinc {
                    local,
                    delta: i32::from(u16_at(4) as i16),
                },
                op::RET => Op::Ret { local, wide: true },
                _ => Op::BadWide,
            }
        }
        _ => Op::Undefined(opcode),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC};
    use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
    use doppio_classfile::ClassFile;
    use doppio_fs::{backends, FileSystem};
    use doppio_jsengine::{Browser, Engine};

    use crate::{fsutil, Jvm};

    fn decode_method(cf: &ClassFile, name: &str) -> Decoded {
        let m = cf.methods.iter().find(|m| m.name == name).unwrap();
        let code = m.code.as_ref().unwrap();
        decode(&code.bytecode, &code.exception_table).unwrap()
    }

    /// A loop whose body holds all three fused shapes: `a + b`,
    /// `acc.bias` and the `for` latch.
    const HOT_LOOP: &str = r#"
        class Acc {
            int bias;
            Acc(int b) { this.bias = b; }
        }
        class Main {
            static void main(String[] args) {
                Acc acc = new Acc(3);
                int sum = 0;
                for (int i = 0; i < 5000; i++) {
                    int a = i;
                    int b = sum;
                    sum = a + b;
                    sum = sum + acc.bias;
                }
                System.out.println("sum=" + sum);
            }
        }
    "#;

    #[test]
    fn hot_loop_main_fuses_all_three_shapes() {
        let classes = doppio_minijava::compile(HOT_LOOP).unwrap();
        let main = classes.iter().find(|c| c.name() == Ok("Main")).unwrap();
        let ops = decode_method(main, "main").ops;
        let has = |shape: fn(&Op) -> bool| ops.iter().any(shape);
        assert!(has(|o| matches!(
            o,
            Op::LoadLoadIntBin { op: op::IADD, .. }
        )));
        assert!(has(|o| matches!(o, Op::IincGoto { .. })));
        assert!(has(|o| matches!(o, Op::LoadGetfield { .. })));
    }

    #[test]
    fn a_branch_into_a_fused_sequence_lands_on_a_runnable_op() {
        // f() { a = 1; b = 2; push 40; goto MID; iload a; MID: iload b;
        // iadd; ireturn } returns 42 without ever running `iload a`.
        let mut f = MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "f", "()I", 2);
        let mid = f.new_label();
        f.ldc_int(1);
        f.istore(0);
        f.ldc_int(2);
        f.istore(1);
        f.ldc_int(40);
        f.goto_(mid);
        f.iload(0);
        f.bind(mid);
        f.iload(1);
        f.iadd();
        f.ireturn();
        let mut m =
            MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 1);
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.invokestatic("Mid", "f", "()I");
        m.invokevirtual("java/io/PrintStream", "println", "(I)V");
        m.return_void();
        let mut b = ClassBuilder::new("Mid", "java/lang/Object");
        b.add_method(f);
        b.add_method(m);
        let cf = b.finish();

        let d = decode_method(&cf, "f");
        let goto_target = d.ops().iter().find_map(|o| match o {
            Op::Goto { target } => Some(*target as usize),
            _ => None,
        });
        let target = goto_target.expect("f has a goto");
        assert!(matches!(
            d.ops()[target - 1],
            Op::LoadLoadIntBin { a: 0, b: 1, .. }
        ));
        assert!(matches!(d.ops()[target], Op::Load { local: 1, .. }));
        assert!(matches!(d.ops()[target + 1], Op::IntBin(op::IADD)));

        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[cf]);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Mid", &[]);
        let r = jvm.run_to_completion().unwrap();
        assert_eq!(r.stdout, "42\n", "{:?}", r.uncaught);
    }
}
