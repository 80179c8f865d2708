//! A class-file assembler.
//!
//! The MiniJava compiler (and the test suites) emit classes through
//! this builder: symbolic instructions with labels and symbolic
//! field/method references, resolved against an interned constant pool
//! at [`ClassBuilder::add_method`] time. The assembler tracks operand
//! stack depth to compute `max_stack`, and patches branch offsets.
//! Since nothing is resolved before then, a compiler may cut the code
//! it just emitted out of a body as a [`Fragment`] and splice it back
//! later ([`MethodBuilder::take_since`], [`MethodBuilder::splice`]):
//! the class file is the same as if it had emitted the code there.

use std::collections::HashMap;

use crate::constant::{Constant, ConstantPool};
use crate::descriptor::parse_method_descriptor;
use crate::error::{ClassError, ClassResult};
use crate::opcodes as op;
use crate::{access, ClassFile, Code, ExceptionEntry, FieldInfo, MethodInfo};

/// A branch target. Create with [`MethodBuilder::new_label`], place
/// with [`MethodBuilder::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// A constant loadable by `ldc`/`ldc2_w`.
#[derive(Debug, Clone, PartialEq)]
enum LdcConst {
    Int(i32),
    Float(f32),
    Long(i64),
    Double(f64),
    Str(String),
    ClassRef(String),
}

#[derive(Debug, Clone)]
enum Ins {
    Raw(Vec<u8>),
    Branch {
        opcode: u8,
        target: Label,
    },
    Ldc(LdcConst),
    Member {
        opcode: u8,
        class: String,
        name: String,
        desc: String,
    },
    Type {
        opcode: u8,
        class: String,
    },
    MultiANewArray {
        desc: String,
        dims: u8,
    },
    TableSwitch {
        low: i32,
        targets: Vec<Label>,
        default: Label,
    },
    LookupSwitch {
        pairs: Vec<(i32, Label)>,
        default: Label,
    },
    Bind(Label),
}

/// Instructions cut out of a method body by
/// [`MethodBuilder::take_since`], to be put back with
/// [`MethodBuilder::splice`]. Labels bound among them travel with them.
#[derive(Debug)]
pub struct Fragment(Vec<Ins>);

/// A position in a method body; see [`MethodBuilder::mark`].
#[derive(Debug, Clone, Copy)]
pub struct Mark(usize);

#[derive(Debug, Clone)]
struct Handler {
    start: Label,
    end: Label,
    handler: Label,
    catch_class: Option<String>,
}

/// Builds one method body.
#[derive(Debug)]
pub struct MethodBuilder {
    access_flags: u16,
    name: String,
    descriptor: String,
    max_locals: u16,
    ins: Vec<Ins>,
    next_label: usize,
    handlers: Vec<Handler>,
    line_numbers: Vec<(usize, u16)>, // (instruction index, line)
}

impl MethodBuilder {
    /// Start a method. `max_locals` must cover `this` + parameters +
    /// local variables.
    pub fn new(access_flags: u16, name: &str, descriptor: &str, max_locals: u16) -> MethodBuilder {
        MethodBuilder {
            access_flags,
            name: name.to_string(),
            descriptor: descriptor.to_string(),
            max_locals,
            ins: Vec::new(),
            next_label: 0,
            handlers: Vec::new(),
            line_numbers: Vec::new(),
        }
    }

    /// Update the local-slot count (compilers that discover locals as
    /// they generate code set the final watermark here).
    pub fn set_max_locals(&mut self, n: u16) {
        self.max_locals = n;
    }

    /// Allocate a fresh label.
    pub fn new_label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Place a label at the current position.
    pub fn bind(&mut self, l: Label) {
        self.ins.push(Ins::Bind(l));
    }

    /// The current end of the body, to cut a fragment from.
    pub fn mark(&self) -> Mark {
        Mark(self.ins.len())
    }

    /// Cut out the instructions emitted since `mark`. A compiler that
    /// must know an operand's type before it emits the code that goes
    /// before the operand emits the operand once, cuts it out, and
    /// splices it back after that code. Splicing every fragment back in
    /// order leaves the body as if it had been emitted in that order.
    /// Line numbers and exception handlers stay with the body: record
    /// none between the mark and the cut.
    pub fn take_since(&mut self, mark: Mark) -> Fragment {
        debug_assert!(self.line_numbers.last().is_none_or(|&(at, _)| at <= mark.0));
        Fragment(self.ins.split_off(mark.0))
    }

    /// Append a fragment's instructions to the body.
    pub fn splice(&mut self, fragment: Fragment) {
        self.ins.extend(fragment.0);
    }

    /// Record that the next instruction comes from source `line`.
    pub fn line(&mut self, line: u16) {
        self.line_numbers.push((self.ins.len(), line));
    }

    /// Register an exception handler over `[start, end)` jumping to
    /// `handler`; `catch_class` of `None` is a catch-all (`finally`).
    pub fn add_exception_handler(
        &mut self,
        start: Label,
        end: Label,
        handler: Label,
        catch_class: Option<&str>,
    ) {
        self.handlers.push(Handler {
            start,
            end,
            handler,
            catch_class: catch_class.map(str::to_string),
        });
    }

    fn raw(&mut self, bytes: Vec<u8>) {
        self.ins.push(Ins::Raw(bytes));
    }

    // ---- constants ----

    /// Push an `int`, choosing the shortest encoding.
    pub fn ldc_int(&mut self, v: i32) {
        match v {
            -1..=5 => self.raw(vec![(op::ICONST_0 as i8 + v as i8) as u8]),
            -128..=127 => self.raw(vec![op::BIPUSH, v as u8]),
            -32768..=32767 => {
                let b = (v as i16).to_be_bytes();
                self.raw(vec![op::SIPUSH, b[0], b[1]]);
            }
            _ => self.ins.push(Ins::Ldc(LdcConst::Int(v))),
        }
    }

    /// Push a `long`.
    pub fn ldc_long(&mut self, v: i64) {
        match v {
            0 => self.raw(vec![op::LCONST_0]),
            1 => self.raw(vec![op::LCONST_1]),
            _ => self.ins.push(Ins::Ldc(LdcConst::Long(v))),
        }
    }

    /// Push a `float`.
    pub fn ldc_float(&mut self, v: f32) {
        if v == 0.0 && v.is_sign_positive() {
            self.raw(vec![op::FCONST_0]);
        } else if v == 1.0 {
            self.raw(vec![op::FCONST_1]);
        } else if v == 2.0 {
            self.raw(vec![op::FCONST_2]);
        } else {
            self.ins.push(Ins::Ldc(LdcConst::Float(v)));
        }
    }

    /// Push a `double`.
    pub fn ldc_double(&mut self, v: f64) {
        if v == 0.0 && v.is_sign_positive() {
            self.raw(vec![op::DCONST_0]);
        } else if v == 1.0 {
            self.raw(vec![op::DCONST_1]);
        } else {
            self.ins.push(Ins::Ldc(LdcConst::Double(v)));
        }
    }

    /// Push a `String` constant.
    pub fn ldc_string(&mut self, s: &str) {
        self.ins.push(Ins::Ldc(LdcConst::Str(s.to_string())));
    }

    /// Push a `Class` constant (`ldc` of a class reference).
    pub fn ldc_class(&mut self, name: &str) {
        self.ins
            .push(Ins::Ldc(LdcConst::ClassRef(name.to_string())));
    }

    /// Push `null`.
    pub fn aconst_null(&mut self) {
        self.raw(vec![op::ACONST_NULL]);
    }

    // ---- locals ----

    fn load_store(&mut self, base_short: u8, base_long: u8, idx: u16) {
        if idx < 4 {
            self.raw(vec![base_short + idx as u8]);
        } else if idx <= 255 {
            self.raw(vec![base_long, idx as u8]);
        } else {
            let b = idx.to_be_bytes();
            self.raw(vec![op::WIDE, base_long, b[0], b[1]]);
        }
    }

    /// `iload`.
    pub fn iload(&mut self, idx: u16) {
        self.load_store(op::ILOAD_0, op::ILOAD, idx);
    }
    /// `lload`.
    pub fn lload(&mut self, idx: u16) {
        self.load_store(op::LLOAD_0, op::LLOAD, idx);
    }
    /// `fload`.
    pub fn fload(&mut self, idx: u16) {
        self.load_store(op::FLOAD_0, op::FLOAD, idx);
    }
    /// `dload`.
    pub fn dload(&mut self, idx: u16) {
        self.load_store(op::DLOAD_0, op::DLOAD, idx);
    }
    /// `aload`.
    pub fn aload(&mut self, idx: u16) {
        self.load_store(op::ALOAD_0, op::ALOAD, idx);
    }
    /// `istore`.
    pub fn istore(&mut self, idx: u16) {
        self.load_store(op::ISTORE_0, op::ISTORE, idx);
    }
    /// `lstore`.
    pub fn lstore(&mut self, idx: u16) {
        self.load_store(op::LSTORE_0, op::LSTORE, idx);
    }
    /// `fstore`.
    pub fn fstore(&mut self, idx: u16) {
        self.load_store(op::FSTORE_0, op::FSTORE, idx);
    }
    /// `dstore`.
    pub fn dstore(&mut self, idx: u16) {
        self.load_store(op::DSTORE_0, op::DSTORE, idx);
    }
    /// `astore`.
    pub fn astore(&mut self, idx: u16) {
        self.load_store(op::ASTORE_0, op::ASTORE, idx);
    }

    /// `ret` (return from a `jsr` subroutine via a local holding the
    /// return address).
    pub fn ret(&mut self, idx: u8) {
        self.raw(vec![op::RET, idx]);
    }

    /// `iinc` (wide form when needed).
    pub fn iinc(&mut self, idx: u16, delta: i16) {
        if idx <= 255 && (-128..=127).contains(&delta) {
            self.raw(vec![op::IINC, idx as u8, delta as u8]);
        } else {
            let i = idx.to_be_bytes();
            let d = delta.to_be_bytes();
            self.raw(vec![op::WIDE, op::IINC, i[0], i[1], d[0], d[1]]);
        }
    }

    // ---- zero-operand instructions, generated en masse ----

    /// Emit a bare opcode (any zero-operand instruction).
    pub fn simple(&mut self, opcode: u8) {
        self.raw(vec![opcode]);
    }

    // Named wrappers for readability at call sites.
    /// `iadd`.
    pub fn iadd(&mut self) {
        self.simple(op::IADD);
    }
    /// `isub`.
    pub fn isub(&mut self) {
        self.simple(op::ISUB);
    }
    /// `imul`.
    pub fn imul(&mut self) {
        self.simple(op::IMUL);
    }
    /// `idiv`.
    pub fn idiv(&mut self) {
        self.simple(op::IDIV);
    }
    /// `irem`.
    pub fn irem(&mut self) {
        self.simple(op::IREM);
    }
    /// `ineg`.
    pub fn ineg(&mut self) {
        self.simple(op::INEG);
    }
    /// `dup`.
    pub fn dup(&mut self) {
        self.simple(op::DUP);
    }
    /// `pop`.
    pub fn pop(&mut self) {
        self.simple(op::POP);
    }
    /// `swap`.
    pub fn swap(&mut self) {
        self.simple(op::SWAP);
    }
    /// `arraylength`.
    pub fn arraylength(&mut self) {
        self.simple(op::ARRAYLENGTH);
    }
    /// `athrow`.
    pub fn athrow(&mut self) {
        self.simple(op::ATHROW);
    }
    /// `ireturn`.
    pub fn ireturn(&mut self) {
        self.simple(op::IRETURN);
    }
    /// `lreturn`.
    pub fn lreturn(&mut self) {
        self.simple(op::LRETURN);
    }
    /// `freturn`.
    pub fn freturn(&mut self) {
        self.simple(op::FRETURN);
    }
    /// `dreturn`.
    pub fn dreturn(&mut self) {
        self.simple(op::DRETURN);
    }
    /// `areturn`.
    pub fn areturn(&mut self) {
        self.simple(op::ARETURN);
    }
    /// `return`.
    pub fn return_void(&mut self) {
        self.simple(op::RETURN);
    }

    // ---- branches ----

    /// Emit a branch instruction to `target` (any `if*`, `goto`,
    /// `jsr`).
    pub fn branch(&mut self, opcode: u8, target: Label) {
        self.ins.push(Ins::Branch { opcode, target });
    }

    /// `goto`.
    pub fn goto_(&mut self, target: Label) {
        self.branch(op::GOTO, target);
    }

    /// `tableswitch` over `[low, low + targets.len())`.
    pub fn tableswitch(&mut self, low: i32, targets: Vec<Label>, default: Label) {
        self.ins.push(Ins::TableSwitch {
            low,
            targets,
            default,
        });
    }

    /// `lookupswitch` over sorted `(match, target)` pairs.
    pub fn lookupswitch(&mut self, pairs: Vec<(i32, Label)>, default: Label) {
        self.ins.push(Ins::LookupSwitch { pairs, default });
    }

    // ---- members and types ----

    /// `getstatic`.
    pub fn getstatic(&mut self, class: &str, name: &str, desc: &str) {
        self.member(op::GETSTATIC, class, name, desc);
    }
    /// `putstatic`.
    pub fn putstatic(&mut self, class: &str, name: &str, desc: &str) {
        self.member(op::PUTSTATIC, class, name, desc);
    }
    /// `getfield`.
    pub fn getfield(&mut self, class: &str, name: &str, desc: &str) {
        self.member(op::GETFIELD, class, name, desc);
    }
    /// `putfield`.
    pub fn putfield(&mut self, class: &str, name: &str, desc: &str) {
        self.member(op::PUTFIELD, class, name, desc);
    }
    /// `invokevirtual`.
    pub fn invokevirtual(&mut self, class: &str, name: &str, desc: &str) {
        self.member(op::INVOKEVIRTUAL, class, name, desc);
    }
    /// `invokespecial`.
    pub fn invokespecial(&mut self, class: &str, name: &str, desc: &str) {
        self.member(op::INVOKESPECIAL, class, name, desc);
    }
    /// `invokestatic`.
    pub fn invokestatic(&mut self, class: &str, name: &str, desc: &str) {
        self.member(op::INVOKESTATIC, class, name, desc);
    }
    /// `invokeinterface`.
    pub fn invokeinterface(&mut self, class: &str, name: &str, desc: &str) {
        self.member(op::INVOKEINTERFACE, class, name, desc);
    }

    fn member(&mut self, opcode: u8, class: &str, name: &str, desc: &str) {
        self.ins.push(Ins::Member {
            opcode,
            class: class.to_string(),
            name: name.to_string(),
            desc: desc.to_string(),
        });
    }

    /// `new`.
    pub fn new_object(&mut self, class: &str) {
        self.type_ins(op::NEW, class);
    }
    /// `anewarray`.
    pub fn anewarray(&mut self, class: &str) {
        self.type_ins(op::ANEWARRAY, class);
    }
    /// `checkcast`.
    pub fn checkcast(&mut self, class: &str) {
        self.type_ins(op::CHECKCAST, class);
    }
    /// `instanceof`.
    pub fn instanceof(&mut self, class: &str) {
        self.type_ins(op::INSTANCEOF, class);
    }

    fn type_ins(&mut self, opcode: u8, class: &str) {
        self.ins.push(Ins::Type {
            opcode,
            class: class.to_string(),
        });
    }

    /// `newarray` of a primitive type (`atype` per JVMS: 4=boolean,
    /// 5=char, 6=float, 7=double, 8=byte, 9=short, 10=int, 11=long).
    pub fn newarray(&mut self, atype: u8) {
        self.raw(vec![op::NEWARRAY, atype]);
    }

    /// `multianewarray` of array type `desc` with `dims` dimensions.
    pub fn multianewarray(&mut self, desc: &str, dims: u8) {
        self.ins.push(Ins::MultiANewArray {
            desc: desc.to_string(),
            dims,
        });
    }
}

/// Builds one class.
#[derive(Debug)]
pub struct ClassBuilder {
    pool: ConstantPool,
    access_flags: u16,
    this_class: u16,
    super_class: u16,
    interfaces: Vec<u16>,
    fields: Vec<FieldInfo>,
    methods: Vec<MethodInfo>,
    utf8_cache: HashMap<String, u16>,
    class_cache: HashMap<String, u16>,
}

impl ClassBuilder {
    /// Start a class `name` extending `super_name` (Java 6 format).
    pub fn new(name: &str, super_name: &str) -> ClassBuilder {
        let mut b = ClassBuilder {
            pool: ConstantPool::new(),
            access_flags: access::ACC_PUBLIC | access::ACC_SUPER,
            this_class: 0,
            super_class: 0,
            interfaces: Vec::new(),
            fields: Vec::new(),
            methods: Vec::new(),
            utf8_cache: HashMap::new(),
            class_cache: HashMap::new(),
        };
        b.this_class = b.class(name);
        b.super_class = b.class(super_name);
        b
    }

    /// Set the class access flags.
    pub fn set_access(&mut self, flags: u16) {
        self.access_flags = flags;
    }

    /// Intern a Utf8 constant.
    pub fn utf8(&mut self, s: &str) -> u16 {
        if let Some(&i) = self.utf8_cache.get(s) {
            return i;
        }
        let i = self.pool.push(Constant::Utf8(s.to_string()));
        self.utf8_cache.insert(s.to_string(), i);
        i
    }

    /// Intern a Class constant.
    pub fn class(&mut self, name: &str) -> u16 {
        if let Some(&i) = self.class_cache.get(name) {
            return i;
        }
        let name_index = self.utf8(name);
        let i = self.pool.push(Constant::Class { name_index });
        self.class_cache.insert(name.to_string(), i);
        i
    }

    fn name_and_type(&mut self, name: &str, desc: &str) -> u16 {
        let name_index = self.utf8(name);
        let descriptor_index = self.utf8(desc);
        // Linear scan for an existing entry (pools are small).
        for (i, c) in self.pool.iter() {
            if c == &(Constant::NameAndType {
                name_index,
                descriptor_index,
            }) {
                return i;
            }
        }
        self.pool.push(Constant::NameAndType {
            name_index,
            descriptor_index,
        })
    }

    fn member_ref(&mut self, tag: u8, class: &str, name: &str, desc: &str) -> u16 {
        let class_index = self.class(class);
        let name_and_type_index = self.name_and_type(name, desc);
        let want = match tag {
            9 => Constant::Fieldref {
                class_index,
                name_and_type_index,
            },
            10 => Constant::Methodref {
                class_index,
                name_and_type_index,
            },
            _ => Constant::InterfaceMethodref {
                class_index,
                name_and_type_index,
            },
        };
        for (i, c) in self.pool.iter() {
            if c == &want {
                return i;
            }
        }
        self.pool.push(want)
    }

    /// Declare that this class implements `name`.
    pub fn add_interface(&mut self, name: &str) {
        let idx = self.class(name);
        self.interfaces.push(idx);
    }

    /// Add a field.
    pub fn add_field(&mut self, access_flags: u16, name: &str, descriptor: &str) {
        self.fields.push(FieldInfo {
            access_flags,
            name: name.to_string(),
            descriptor: descriptor.to_string(),
            constant_value: None,
        });
    }

    /// Assemble and attach a method.
    pub fn add_method(&mut self, m: MethodBuilder) {
        self.try_add_method(m).expect("assembly failed");
    }

    /// Assemble and attach a method, surfacing assembly errors.
    pub fn try_add_method(&mut self, m: MethodBuilder) -> ClassResult<()> {
        let abstract_or_native = m.access_flags & (access::ACC_NATIVE | access::ACC_ABSTRACT) != 0;
        let code = if abstract_or_native {
            None
        } else {
            Some(self.assemble(&m)?)
        };
        self.methods.push(MethodInfo {
            access_flags: m.access_flags,
            name: m.name.clone(),
            descriptor: m.descriptor.clone(),
            code,
        });
        Ok(())
    }

    /// Finish, producing the class file.
    pub fn finish(self) -> ClassFile {
        ClassFile {
            minor_version: 0,
            major_version: 50, // Java 6, the paper's era
            constant_pool: self.pool,
            access_flags: self.access_flags,
            this_class: self.this_class,
            super_class: self.super_class,
            interfaces: self.interfaces,
            fields: self.fields,
            methods: self.methods,
        }
    }

    // ---- assembly ----

    fn assemble(&mut self, m: &MethodBuilder) -> ClassResult<Code> {
        // Encode pool-dependent instructions to concrete bytes first.
        #[derive(Debug)]
        enum Flat {
            Bytes(Vec<u8>),
            Branch {
                opcode: u8,
                target: Label,
            },
            Table {
                low: i32,
                targets: Vec<Label>,
                default: Label,
            },
            Lookup {
                pairs: Vec<(i32, Label)>,
                default: Label,
            },
            Bind(Label),
        }

        let mut flat = Vec::with_capacity(m.ins.len());
        for ins in &m.ins {
            flat.push(match ins {
                Ins::Raw(b) => Flat::Bytes(b.clone()),
                Ins::Bind(l) => Flat::Bind(*l),
                Ins::Branch { opcode, target } => Flat::Branch {
                    opcode: *opcode,
                    target: *target,
                },
                Ins::TableSwitch {
                    low,
                    targets,
                    default,
                } => Flat::Table {
                    low: *low,
                    targets: targets.clone(),
                    default: *default,
                },
                Ins::LookupSwitch { pairs, default } => Flat::Lookup {
                    pairs: pairs.clone(),
                    default: *default,
                },
                Ins::Ldc(c) => {
                    let (idx, wide) = match c {
                        LdcConst::Int(v) => (self.pool.push(Constant::Integer(*v)), false),
                        LdcConst::Float(v) => (self.pool.push(Constant::Float(*v)), false),
                        LdcConst::Long(v) => (self.pool.push(Constant::Long(*v)), true),
                        LdcConst::Double(v) => (self.pool.push(Constant::Double(*v)), true),
                        LdcConst::Str(s) => {
                            let string_index = self.utf8(s);
                            (self.pool.push(Constant::String { string_index }), false)
                        }
                        LdcConst::ClassRef(n) => (self.class(n), false),
                    };
                    let b = idx.to_be_bytes();
                    Flat::Bytes(if wide {
                        vec![op::LDC2_W, b[0], b[1]]
                    } else if idx <= 255 {
                        vec![op::LDC, idx as u8]
                    } else {
                        vec![op::LDC_W, b[0], b[1]]
                    })
                }
                Ins::Member {
                    opcode,
                    class,
                    name,
                    desc,
                } => {
                    let tag = match *opcode {
                        op::GETSTATIC | op::PUTSTATIC | op::GETFIELD | op::PUTFIELD => 9,
                        op::INVOKEINTERFACE => 11,
                        _ => 10,
                    };
                    let idx = self.member_ref(tag, class, name, desc);
                    let b = idx.to_be_bytes();
                    if *opcode == op::INVOKEINTERFACE {
                        let d = parse_method_descriptor(desc)?;
                        let count = 1 + d.param_slots() as u8;
                        Flat::Bytes(vec![*opcode, b[0], b[1], count, 0])
                    } else {
                        Flat::Bytes(vec![*opcode, b[0], b[1]])
                    }
                }
                Ins::Type { opcode, class } => {
                    let idx = self.class(class);
                    let b = idx.to_be_bytes();
                    Flat::Bytes(vec![*opcode, b[0], b[1]])
                }
                Ins::MultiANewArray { desc, dims } => {
                    let idx = self.class(desc);
                    let b = idx.to_be_bytes();
                    Flat::Bytes(vec![op::MULTIANEWARRAY, b[0], b[1], *dims])
                }
            });
        }

        // Layout: iterate until switch padding stabilizes.
        let mut positions: Vec<u32> = vec![0; flat.len()];
        let mut labels: HashMap<Label, u32> = HashMap::new();
        loop {
            let mut pc = 0u32;
            let mut new_labels = HashMap::new();
            for (i, f) in flat.iter().enumerate() {
                positions[i] = pc;
                match f {
                    Flat::Bytes(b) => pc += b.len() as u32,
                    Flat::Branch { .. } => pc += 3,
                    Flat::Bind(l) => {
                        new_labels.insert(*l, pc);
                    }
                    Flat::Table { targets, .. } => {
                        let pad = (4 - ((pc + 1) % 4)) % 4;
                        pc += 1 + pad + 12 + 4 * targets.len() as u32;
                    }
                    Flat::Lookup { pairs, .. } => {
                        let pad = (4 - ((pc + 1) % 4)) % 4;
                        pc += 1 + pad + 8 + 8 * pairs.len() as u32;
                    }
                }
            }
            if new_labels == labels {
                break;
            }
            labels = new_labels;
        }

        let resolve = |l: Label| -> ClassResult<u32> {
            labels
                .get(&l)
                .copied()
                .ok_or_else(|| ClassError::Assembly(format!("unbound label {l:?}")))
        };

        // Emit.
        let mut bytecode: Vec<u8> = Vec::new();
        for (i, f) in flat.iter().enumerate() {
            debug_assert_eq!(bytecode.len() as u32, positions[i]);
            match f {
                Flat::Bytes(b) => bytecode.extend_from_slice(b),
                Flat::Bind(_) => {}
                Flat::Branch { opcode, target } => {
                    let here = positions[i] as i64;
                    let off = resolve(*target)? as i64 - here;
                    let off16 = i16::try_from(off).map_err(|_| {
                        ClassError::Assembly(format!("branch offset {off} exceeds i16"))
                    })?;
                    bytecode.push(*opcode);
                    bytecode.extend_from_slice(&off16.to_be_bytes());
                }
                Flat::Table {
                    low,
                    targets,
                    default,
                } => {
                    let here = positions[i] as i64;
                    bytecode.push(op::TABLESWITCH);
                    while !bytecode.len().is_multiple_of(4) {
                        bytecode.push(0);
                    }
                    let def = (resolve(*default)? as i64 - here) as i32;
                    bytecode.extend_from_slice(&def.to_be_bytes());
                    bytecode.extend_from_slice(&low.to_be_bytes());
                    let high = low + targets.len() as i32 - 1;
                    bytecode.extend_from_slice(&high.to_be_bytes());
                    for t in targets {
                        let o = (resolve(*t)? as i64 - here) as i32;
                        bytecode.extend_from_slice(&o.to_be_bytes());
                    }
                }
                Flat::Lookup { pairs, default } => {
                    let here = positions[i] as i64;
                    bytecode.push(op::LOOKUPSWITCH);
                    while !bytecode.len().is_multiple_of(4) {
                        bytecode.push(0);
                    }
                    let def = (resolve(*default)? as i64 - here) as i32;
                    bytecode.extend_from_slice(&def.to_be_bytes());
                    bytecode.extend_from_slice(&(pairs.len() as i32).to_be_bytes());
                    for (k, t) in pairs {
                        bytecode.extend_from_slice(&k.to_be_bytes());
                        let o = (resolve(*t)? as i64 - here) as i32;
                        bytecode.extend_from_slice(&o.to_be_bytes());
                    }
                }
            }
        }

        // Exception table.
        let mut exception_table = Vec::new();
        for h in &m.handlers {
            let catch_type = match &h.catch_class {
                Some(c) => self.class(c),
                None => 0,
            };
            exception_table.push(ExceptionEntry {
                start_pc: resolve(h.start)? as u16,
                end_pc: resolve(h.end)? as u16,
                handler_pc: resolve(h.handler)? as u16,
                catch_type,
            });
        }

        // Line numbers.
        let line_numbers = m
            .line_numbers
            .iter()
            .filter_map(|&(ins_idx, line)| positions.get(ins_idx).map(|&pc| (pc as u16, line)))
            .collect();

        // max_stack: conservative linear estimate — track depth along
        // the instruction list, seeding branch targets.
        let max_stack = self.estimate_max_stack(&m.ins, &m.handlers)?;

        Ok(Code {
            max_stack,
            max_locals: m.max_locals,
            bytecode,
            exception_table,
            line_numbers,
        })
    }

    fn estimate_max_stack(&self, ins: &[Ins], handlers: &[Handler]) -> ClassResult<u16> {
        let mut depth_at: HashMap<Label, i32> = HashMap::new();
        for h in handlers {
            depth_at.insert(h.handler, 1); // the thrown exception
        }
        let mut cur: Option<i32> = Some(0);
        let mut max = 0i32;
        for i in ins {
            match i {
                Ins::Bind(l) => {
                    let seed = depth_at.get(l).copied();
                    cur = match (cur, seed) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (Some(a), None) => Some(a),
                        (None, s) => s,
                    };
                }
                _ => {
                    let Some(d) = cur else { continue };
                    let delta = self.ins_delta(i)?;
                    max = max.max(d).max(d + delta);
                    let next = d + delta;
                    // Record depth at branch targets.
                    match i {
                        Ins::Branch { opcode, target } => {
                            // (For jsr, `next` already includes the
                            // pushed return address via its delta.)
                            depth_at.entry(*target).or_insert(next);
                            if *opcode == op::GOTO {
                                cur = None;
                                continue;
                            }
                        }
                        Ins::TableSwitch {
                            targets, default, ..
                        } => {
                            for t in targets.iter().chain(Some(default)) {
                                depth_at.entry(*t).or_insert(next);
                            }
                            cur = None;
                            continue;
                        }
                        Ins::LookupSwitch { pairs, default } => {
                            for t in pairs.iter().map(|(_, t)| t).chain(Some(default)) {
                                depth_at.entry(*t).or_insert(next);
                            }
                            cur = None;
                            continue;
                        }
                        Ins::Raw(b) if is_flow_end(b[0]) => {
                            cur = None;
                            continue;
                        }
                        _ => {}
                    }
                    cur = Some(next.max(0));
                }
            }
        }
        Ok(max.max(1) as u16)
    }

    fn ins_delta(&self, i: &Ins) -> ClassResult<i32> {
        Ok(match i {
            Ins::Raw(b) => raw_delta(b),
            Ins::Bind(_) => 0,
            Ins::Branch { opcode, .. } => match *opcode {
                op::GOTO | op::GOTO_W => 0,
                op::JSR | op::JSR_W => 1,
                op::IFNULL | op::IFNONNULL => -1,
                o if (op::IFEQ..=op::IFLE).contains(&o) => -1,
                o if (op::IF_ICMPEQ..=op::IF_ACMPNE).contains(&o) => -2,
                _ => 0,
            },
            Ins::Ldc(c) => match c {
                LdcConst::Long(_) | LdcConst::Double(_) => 2,
                _ => 1,
            },
            Ins::Member { opcode, desc, .. } => {
                let field_slots = |d: &str| -> ClassResult<i32> {
                    Ok(crate::descriptor::parse_field_type(d)?.slots() as i32)
                };
                match *opcode {
                    op::GETSTATIC => field_slots(desc)?,
                    op::PUTSTATIC => -field_slots(desc)?,
                    op::GETFIELD => field_slots(desc)? - 1,
                    op::PUTFIELD => -field_slots(desc)? - 1,
                    _ => {
                        let d = parse_method_descriptor(desc)?;
                        let this = if *opcode == op::INVOKESTATIC { 0 } else { 1 };
                        d.return_slots() as i32 - d.param_slots() as i32 - this
                    }
                }
            }
            Ins::Type { opcode, .. } => match *opcode {
                op::NEW => 1,
                _ => 0, // anewarray/checkcast/instanceof: net 0 or -0
            },
            Ins::MultiANewArray { dims, .. } => 1 - *dims as i32,
            Ins::TableSwitch { .. } | Ins::LookupSwitch { .. } => -1,
        })
    }
}

fn is_flow_end(opcode: u8) -> bool {
    matches!(
        opcode,
        op::IRETURN
            | op::LRETURN
            | op::FRETURN
            | op::DRETURN
            | op::ARETURN
            | op::RETURN
            | op::ATHROW
            | op::RET
    )
}

/// Stack delta of a fully-encoded instruction (first byte decides).
fn raw_delta(bytes: &[u8]) -> i32 {
    let opcode = if bytes[0] == op::WIDE {
        bytes[1]
    } else {
        bytes[0]
    };
    match opcode {
        op::NOP | op::IINC | op::RET => 0,
        op::ACONST_NULL
        | op::ICONST_M1..=op::ICONST_5
        | op::FCONST_0..=op::FCONST_2
        | op::BIPUSH
        | op::SIPUSH => 1,
        op::LCONST_0 | op::LCONST_1 | op::DCONST_0 | op::DCONST_1 => 2,
        op::ILOAD | op::FLOAD | op::ALOAD => 1,
        op::LLOAD | op::DLOAD => 2,
        op::ILOAD_0..=op::ILOAD_3 | op::FLOAD_0..=op::FLOAD_3 | op::ALOAD_0..=op::ALOAD_3 => 1,
        op::LLOAD_0..=op::LLOAD_3 | op::DLOAD_0..=op::DLOAD_3 => 2,
        op::IALOAD | op::FALOAD | op::AALOAD | op::BALOAD | op::CALOAD | op::SALOAD => -1,
        op::LALOAD | op::DALOAD => 0,
        op::ISTORE | op::FSTORE | op::ASTORE => -1,
        op::LSTORE | op::DSTORE => -2,
        op::ISTORE_0..=op::ISTORE_3 | op::FSTORE_0..=op::FSTORE_3 | op::ASTORE_0..=op::ASTORE_3 => {
            -1
        }
        op::LSTORE_0..=op::LSTORE_3 | op::DSTORE_0..=op::DSTORE_3 => -2,
        op::IASTORE | op::FASTORE | op::AASTORE | op::BASTORE | op::CASTORE | op::SASTORE => -3,
        op::LASTORE | op::DASTORE => -4,
        op::POP => -1,
        op::POP2 => -2,
        op::DUP => 1,
        op::DUP_X1 => 1,
        op::DUP_X2 => 1,
        op::DUP2 => 2,
        op::DUP2_X1 => 2,
        op::DUP2_X2 => 2,
        op::SWAP => 0,
        op::IADD
        | op::ISUB
        | op::IMUL
        | op::IDIV
        | op::IREM
        | op::ISHL
        | op::ISHR
        | op::IUSHR
        | op::IAND
        | op::IOR
        | op::IXOR => -1,
        op::FADD | op::FSUB | op::FMUL | op::FDIV | op::FREM => -1,
        op::LADD | op::LSUB | op::LMUL | op::LDIV | op::LREM | op::LAND | op::LOR | op::LXOR => -2,
        op::DADD | op::DSUB | op::DMUL | op::DDIV | op::DREM => -2,
        op::LSHL | op::LSHR | op::LUSHR => -1,
        op::INEG | op::FNEG | op::LNEG | op::DNEG => 0,
        op::I2L | op::I2D | op::F2L | op::F2D => 1,
        op::L2I | op::L2F | op::D2I | op::D2F => -1,
        op::I2F | op::F2I | op::L2D | op::D2L | op::I2B | op::I2C | op::I2S => 0,
        op::LCMP | op::DCMPL | op::DCMPG => -3,
        op::FCMPL | op::FCMPG => -1,
        op::IRETURN | op::FRETURN | op::ARETURN | op::ATHROW => -1,
        op::LRETURN | op::DRETURN => -2,
        op::RETURN => 0,
        op::NEWARRAY => 0,
        op::ARRAYLENGTH => 0,
        op::MONITORENTER | op::MONITOREXIT => -1,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn branches_resolve_forward_and_backward() {
        let mut b = ClassBuilder::new("t/Loop", "java/lang/Object");
        // static int sum(int n): loop accumulating 0..n
        let mut m = MethodBuilder::new(access::ACC_PUBLIC | access::ACC_STATIC, "sum", "(I)I", 3);
        let top = m.new_label();
        let done = m.new_label();
        m.ldc_int(0);
        m.istore(1); // acc
        m.ldc_int(0);
        m.istore(2); // i
        m.bind(top);
        m.iload(2);
        m.iload(0);
        m.branch(op::IF_ICMPGE, done);
        m.iload(1);
        m.iload(2);
        m.iadd();
        m.istore(1);
        m.iinc(2, 1);
        m.goto_(top);
        m.bind(done);
        m.iload(1);
        m.ireturn();
        b.add_method(m);
        let class = b.finish();
        let bytes = class.to_bytes();
        let reread = parse(&bytes).unwrap();
        let code = reread
            .find_method("sum", "(I)I")
            .unwrap()
            .code
            .as_ref()
            .unwrap();
        assert!(code.max_stack >= 2);
        // Backward goto has a negative offset.
        let goto_pos = code
            .bytecode
            .iter()
            .position(|&b| b == op::GOTO)
            .expect("goto present");
        let off = i16::from_be_bytes([code.bytecode[goto_pos + 1], code.bytecode[goto_pos + 2]]);
        assert!(off < 0);
    }

    #[test]
    fn tableswitch_is_padded_and_parses() {
        let mut b = ClassBuilder::new("t/Sw", "java/lang/Object");
        let mut m = MethodBuilder::new(access::ACC_PUBLIC | access::ACC_STATIC, "pick", "(I)I", 1);
        let c0 = m.new_label();
        let c1 = m.new_label();
        let def = m.new_label();
        m.iload(0);
        m.tableswitch(0, vec![c0, c1], def);
        m.bind(c0);
        m.ldc_int(100);
        m.ireturn();
        m.bind(c1);
        m.ldc_int(200);
        m.ireturn();
        m.bind(def);
        m.ldc_int(-1);
        m.ireturn();
        b.add_method(m);
        let bytes = b.finish().to_bytes();
        let class = parse(&bytes).unwrap();
        let code = class
            .find_method("pick", "(I)I")
            .unwrap()
            .code
            .as_ref()
            .unwrap();
        let ts = code
            .bytecode
            .iter()
            .position(|&b| b == op::TABLESWITCH)
            .unwrap();
        // Operands start at the next 4-byte boundary.
        let operand_start = (ts + 1).div_ceil(4) * 4;
        assert!(code.bytecode[ts + 1..operand_start].iter().all(|&b| b == 0));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ClassBuilder::new("t/Bad", "java/lang/Object");
        let mut m = MethodBuilder::new(access::ACC_STATIC, "f", "()V", 0);
        let l = m.new_label();
        m.goto_(l); // never bound
        assert!(matches!(b.try_add_method(m), Err(ClassError::Assembly(_))));
    }

    #[test]
    fn max_stack_covers_invocations() {
        let mut b = ClassBuilder::new("t/Call", "java/lang/Object");
        let mut m = MethodBuilder::new(access::ACC_PUBLIC | access::ACC_STATIC, "f", "()I", 0);
        m.ldc_int(1);
        m.ldc_int(2);
        m.ldc_int(3);
        m.invokestatic("t/Call", "g", "(III)I");
        m.ireturn();
        b.add_method(m);
        let class = b.finish();
        let code = class
            .find_method("f", "()I")
            .unwrap()
            .code
            .as_ref()
            .unwrap();
        assert!(code.max_stack >= 3);
    }

    #[test]
    fn native_methods_have_no_code() {
        let mut b = ClassBuilder::new("t/N", "java/lang/Object");
        let m = MethodBuilder::new(
            access::ACC_PUBLIC | access::ACC_NATIVE | access::ACC_STATIC,
            "nativeOp",
            "()V",
            0,
        );
        b.add_method(m);
        let class = b.finish();
        assert!(class.find_method("nativeOp", "()V").unwrap().code.is_none());
    }

    #[test]
    fn wide_locals_encode_correctly() {
        let mut b = ClassBuilder::new("t/W", "java/lang/Object");
        let mut m = MethodBuilder::new(access::ACC_STATIC, "f", "()V", 400);
        m.ldc_int(7);
        m.istore(300);
        m.iload(300);
        m.pop();
        m.iinc(300, 200);
        m.return_void();
        b.add_method(m);
        let class = b.finish();
        let code = class.find_method("f", "()V").unwrap().code.clone().unwrap();
        assert!(code.bytecode.contains(&op::WIDE));
        // Round-trips through bytes.
        let reread = parse(&class.to_bytes()).unwrap();
        assert_eq!(
            reread
                .find_method("f", "()V")
                .unwrap()
                .code
                .as_ref()
                .unwrap()
                .bytecode,
            code.bytecode
        );
    }
}
