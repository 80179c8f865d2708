//! The JVM instruction set (JVMS2 §6): all 201 opcodes of the second
//! edition specification, which DoppioJVM implements in full (§6).
//!
//! Each opcode gets a named constant, and [`INFO`] maps every byte to
//! its mnemonic and operand width (`VARIABLE` for `tableswitch`,
//! `lookupswitch`, and `wide`).

#![allow(missing_docs)] // the constants are self-describing

pub const NOP: u8 = 0x00;
pub const ACONST_NULL: u8 = 0x01;
pub const ICONST_M1: u8 = 0x02;
pub const ICONST_0: u8 = 0x03;
pub const ICONST_1: u8 = 0x04;
pub const ICONST_2: u8 = 0x05;
pub const ICONST_3: u8 = 0x06;
pub const ICONST_4: u8 = 0x07;
pub const ICONST_5: u8 = 0x08;
pub const LCONST_0: u8 = 0x09;
pub const LCONST_1: u8 = 0x0A;
pub const FCONST_0: u8 = 0x0B;
pub const FCONST_1: u8 = 0x0C;
pub const FCONST_2: u8 = 0x0D;
pub const DCONST_0: u8 = 0x0E;
pub const DCONST_1: u8 = 0x0F;
pub const BIPUSH: u8 = 0x10;
pub const SIPUSH: u8 = 0x11;
pub const LDC: u8 = 0x12;
pub const LDC_W: u8 = 0x13;
pub const LDC2_W: u8 = 0x14;
pub const ILOAD: u8 = 0x15;
pub const LLOAD: u8 = 0x16;
pub const FLOAD: u8 = 0x17;
pub const DLOAD: u8 = 0x18;
pub const ALOAD: u8 = 0x19;
pub const ILOAD_0: u8 = 0x1A;
pub const ILOAD_1: u8 = 0x1B;
pub const ILOAD_2: u8 = 0x1C;
pub const ILOAD_3: u8 = 0x1D;
pub const LLOAD_0: u8 = 0x1E;
pub const LLOAD_1: u8 = 0x1F;
pub const LLOAD_2: u8 = 0x20;
pub const LLOAD_3: u8 = 0x21;
pub const FLOAD_0: u8 = 0x22;
pub const FLOAD_1: u8 = 0x23;
pub const FLOAD_2: u8 = 0x24;
pub const FLOAD_3: u8 = 0x25;
pub const DLOAD_0: u8 = 0x26;
pub const DLOAD_1: u8 = 0x27;
pub const DLOAD_2: u8 = 0x28;
pub const DLOAD_3: u8 = 0x29;
pub const ALOAD_0: u8 = 0x2A;
pub const ALOAD_1: u8 = 0x2B;
pub const ALOAD_2: u8 = 0x2C;
pub const ALOAD_3: u8 = 0x2D;
pub const IALOAD: u8 = 0x2E;
pub const LALOAD: u8 = 0x2F;
pub const FALOAD: u8 = 0x30;
pub const DALOAD: u8 = 0x31;
pub const AALOAD: u8 = 0x32;
pub const BALOAD: u8 = 0x33;
pub const CALOAD: u8 = 0x34;
pub const SALOAD: u8 = 0x35;
pub const ISTORE: u8 = 0x36;
pub const LSTORE: u8 = 0x37;
pub const FSTORE: u8 = 0x38;
pub const DSTORE: u8 = 0x39;
pub const ASTORE: u8 = 0x3A;
pub const ISTORE_0: u8 = 0x3B;
pub const ISTORE_1: u8 = 0x3C;
pub const ISTORE_2: u8 = 0x3D;
pub const ISTORE_3: u8 = 0x3E;
pub const LSTORE_0: u8 = 0x3F;
pub const LSTORE_1: u8 = 0x40;
pub const LSTORE_2: u8 = 0x41;
pub const LSTORE_3: u8 = 0x42;
pub const FSTORE_0: u8 = 0x43;
pub const FSTORE_1: u8 = 0x44;
pub const FSTORE_2: u8 = 0x45;
pub const FSTORE_3: u8 = 0x46;
pub const DSTORE_0: u8 = 0x47;
pub const DSTORE_1: u8 = 0x48;
pub const DSTORE_2: u8 = 0x49;
pub const DSTORE_3: u8 = 0x4A;
pub const ASTORE_0: u8 = 0x4B;
pub const ASTORE_1: u8 = 0x4C;
pub const ASTORE_2: u8 = 0x4D;
pub const ASTORE_3: u8 = 0x4E;
pub const IASTORE: u8 = 0x4F;
pub const LASTORE: u8 = 0x50;
pub const FASTORE: u8 = 0x51;
pub const DASTORE: u8 = 0x52;
pub const AASTORE: u8 = 0x53;
pub const BASTORE: u8 = 0x54;
pub const CASTORE: u8 = 0x55;
pub const SASTORE: u8 = 0x56;
pub const POP: u8 = 0x57;
pub const POP2: u8 = 0x58;
pub const DUP: u8 = 0x59;
pub const DUP_X1: u8 = 0x5A;
pub const DUP_X2: u8 = 0x5B;
pub const DUP2: u8 = 0x5C;
pub const DUP2_X1: u8 = 0x5D;
pub const DUP2_X2: u8 = 0x5E;
pub const SWAP: u8 = 0x5F;
pub const IADD: u8 = 0x60;
pub const LADD: u8 = 0x61;
pub const FADD: u8 = 0x62;
pub const DADD: u8 = 0x63;
pub const ISUB: u8 = 0x64;
pub const LSUB: u8 = 0x65;
pub const FSUB: u8 = 0x66;
pub const DSUB: u8 = 0x67;
pub const IMUL: u8 = 0x68;
pub const LMUL: u8 = 0x69;
pub const FMUL: u8 = 0x6A;
pub const DMUL: u8 = 0x6B;
pub const IDIV: u8 = 0x6C;
pub const LDIV: u8 = 0x6D;
pub const FDIV: u8 = 0x6E;
pub const DDIV: u8 = 0x6F;
pub const IREM: u8 = 0x70;
pub const LREM: u8 = 0x71;
pub const FREM: u8 = 0x72;
pub const DREM: u8 = 0x73;
pub const INEG: u8 = 0x74;
pub const LNEG: u8 = 0x75;
pub const FNEG: u8 = 0x76;
pub const DNEG: u8 = 0x77;
pub const ISHL: u8 = 0x78;
pub const LSHL: u8 = 0x79;
pub const ISHR: u8 = 0x7A;
pub const LSHR: u8 = 0x7B;
pub const IUSHR: u8 = 0x7C;
pub const LUSHR: u8 = 0x7D;
pub const IAND: u8 = 0x7E;
pub const LAND: u8 = 0x7F;
pub const IOR: u8 = 0x80;
pub const LOR: u8 = 0x81;
pub const IXOR: u8 = 0x82;
pub const LXOR: u8 = 0x83;
pub const IINC: u8 = 0x84;
pub const I2L: u8 = 0x85;
pub const I2F: u8 = 0x86;
pub const I2D: u8 = 0x87;
pub const L2I: u8 = 0x88;
pub const L2F: u8 = 0x89;
pub const L2D: u8 = 0x8A;
pub const F2I: u8 = 0x8B;
pub const F2L: u8 = 0x8C;
pub const F2D: u8 = 0x8D;
pub const D2I: u8 = 0x8E;
pub const D2L: u8 = 0x8F;
pub const D2F: u8 = 0x90;
pub const I2B: u8 = 0x91;
pub const I2C: u8 = 0x92;
pub const I2S: u8 = 0x93;
pub const LCMP: u8 = 0x94;
pub const FCMPL: u8 = 0x95;
pub const FCMPG: u8 = 0x96;
pub const DCMPL: u8 = 0x97;
pub const DCMPG: u8 = 0x98;
pub const IFEQ: u8 = 0x99;
pub const IFNE: u8 = 0x9A;
pub const IFLT: u8 = 0x9B;
pub const IFGE: u8 = 0x9C;
pub const IFGT: u8 = 0x9D;
pub const IFLE: u8 = 0x9E;
pub const IF_ICMPEQ: u8 = 0x9F;
pub const IF_ICMPNE: u8 = 0xA0;
pub const IF_ICMPLT: u8 = 0xA1;
pub const IF_ICMPGE: u8 = 0xA2;
pub const IF_ICMPGT: u8 = 0xA3;
pub const IF_ICMPLE: u8 = 0xA4;
pub const IF_ACMPEQ: u8 = 0xA5;
pub const IF_ACMPNE: u8 = 0xA6;
pub const GOTO: u8 = 0xA7;
pub const JSR: u8 = 0xA8;
pub const RET: u8 = 0xA9;
pub const TABLESWITCH: u8 = 0xAA;
pub const LOOKUPSWITCH: u8 = 0xAB;
pub const IRETURN: u8 = 0xAC;
pub const LRETURN: u8 = 0xAD;
pub const FRETURN: u8 = 0xAE;
pub const DRETURN: u8 = 0xAF;
pub const ARETURN: u8 = 0xB0;
pub const RETURN: u8 = 0xB1;
pub const GETSTATIC: u8 = 0xB2;
pub const PUTSTATIC: u8 = 0xB3;
pub const GETFIELD: u8 = 0xB4;
pub const PUTFIELD: u8 = 0xB5;
pub const INVOKEVIRTUAL: u8 = 0xB6;
pub const INVOKESPECIAL: u8 = 0xB7;
pub const INVOKESTATIC: u8 = 0xB8;
pub const INVOKEINTERFACE: u8 = 0xB9;
pub const NEW: u8 = 0xBB;
pub const NEWARRAY: u8 = 0xBC;
pub const ANEWARRAY: u8 = 0xBD;
pub const ARRAYLENGTH: u8 = 0xBE;
pub const ATHROW: u8 = 0xBF;
pub const CHECKCAST: u8 = 0xC0;
pub const INSTANCEOF: u8 = 0xC1;
pub const MONITORENTER: u8 = 0xC2;
pub const MONITOREXIT: u8 = 0xC3;
pub const WIDE: u8 = 0xC4;
pub const MULTIANEWARRAY: u8 = 0xC5;
pub const IFNULL: u8 = 0xC6;
pub const IFNONNULL: u8 = 0xC7;
pub const GOTO_W: u8 = 0xC8;
pub const JSR_W: u8 = 0xC9;

/// Marker operand width for variable-length instructions.
pub const VARIABLE: u8 = u8::MAX;

/// Static information about one opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpInfo {
    /// Mnemonic, or `""` for undefined opcode bytes.
    pub mnemonic: &'static str,
    /// Operand bytes following the opcode (`VARIABLE` for
    /// tableswitch/lookupswitch/wide).
    pub operands: u8,
}

/// Per-opcode info, indexed by the opcode byte.
pub static INFO: [OpInfo; 256] = build_info();

const fn op(mnemonic: &'static str, operands: u8) -> OpInfo {
    OpInfo { mnemonic, operands }
}

const fn build_info() -> [OpInfo; 256] {
    let mut t = [op("", 0); 256];
    t[NOP as usize] = op("nop", 0);
    t[ACONST_NULL as usize] = op("aconst_null", 0);
    t[ICONST_M1 as usize] = op("iconst_m1", 0);
    t[ICONST_0 as usize] = op("iconst_0", 0);
    t[ICONST_1 as usize] = op("iconst_1", 0);
    t[ICONST_2 as usize] = op("iconst_2", 0);
    t[ICONST_3 as usize] = op("iconst_3", 0);
    t[ICONST_4 as usize] = op("iconst_4", 0);
    t[ICONST_5 as usize] = op("iconst_5", 0);
    t[LCONST_0 as usize] = op("lconst_0", 0);
    t[LCONST_1 as usize] = op("lconst_1", 0);
    t[FCONST_0 as usize] = op("fconst_0", 0);
    t[FCONST_1 as usize] = op("fconst_1", 0);
    t[FCONST_2 as usize] = op("fconst_2", 0);
    t[DCONST_0 as usize] = op("dconst_0", 0);
    t[DCONST_1 as usize] = op("dconst_1", 0);
    t[BIPUSH as usize] = op("bipush", 1);
    t[SIPUSH as usize] = op("sipush", 2);
    t[LDC as usize] = op("ldc", 1);
    t[LDC_W as usize] = op("ldc_w", 2);
    t[LDC2_W as usize] = op("ldc2_w", 2);
    t[ILOAD as usize] = op("iload", 1);
    t[LLOAD as usize] = op("lload", 1);
    t[FLOAD as usize] = op("fload", 1);
    t[DLOAD as usize] = op("dload", 1);
    t[ALOAD as usize] = op("aload", 1);
    t[ILOAD_0 as usize] = op("iload_0", 0);
    t[ILOAD_1 as usize] = op("iload_1", 0);
    t[ILOAD_2 as usize] = op("iload_2", 0);
    t[ILOAD_3 as usize] = op("iload_3", 0);
    t[LLOAD_0 as usize] = op("lload_0", 0);
    t[LLOAD_1 as usize] = op("lload_1", 0);
    t[LLOAD_2 as usize] = op("lload_2", 0);
    t[LLOAD_3 as usize] = op("lload_3", 0);
    t[FLOAD_0 as usize] = op("fload_0", 0);
    t[FLOAD_1 as usize] = op("fload_1", 0);
    t[FLOAD_2 as usize] = op("fload_2", 0);
    t[FLOAD_3 as usize] = op("fload_3", 0);
    t[DLOAD_0 as usize] = op("dload_0", 0);
    t[DLOAD_1 as usize] = op("dload_1", 0);
    t[DLOAD_2 as usize] = op("dload_2", 0);
    t[DLOAD_3 as usize] = op("dload_3", 0);
    t[ALOAD_0 as usize] = op("aload_0", 0);
    t[ALOAD_1 as usize] = op("aload_1", 0);
    t[ALOAD_2 as usize] = op("aload_2", 0);
    t[ALOAD_3 as usize] = op("aload_3", 0);
    t[IALOAD as usize] = op("iaload", 0);
    t[LALOAD as usize] = op("laload", 0);
    t[FALOAD as usize] = op("faload", 0);
    t[DALOAD as usize] = op("daload", 0);
    t[AALOAD as usize] = op("aaload", 0);
    t[BALOAD as usize] = op("baload", 0);
    t[CALOAD as usize] = op("caload", 0);
    t[SALOAD as usize] = op("saload", 0);
    t[ISTORE as usize] = op("istore", 1);
    t[LSTORE as usize] = op("lstore", 1);
    t[FSTORE as usize] = op("fstore", 1);
    t[DSTORE as usize] = op("dstore", 1);
    t[ASTORE as usize] = op("astore", 1);
    t[ISTORE_0 as usize] = op("istore_0", 0);
    t[ISTORE_1 as usize] = op("istore_1", 0);
    t[ISTORE_2 as usize] = op("istore_2", 0);
    t[ISTORE_3 as usize] = op("istore_3", 0);
    t[LSTORE_0 as usize] = op("lstore_0", 0);
    t[LSTORE_1 as usize] = op("lstore_1", 0);
    t[LSTORE_2 as usize] = op("lstore_2", 0);
    t[LSTORE_3 as usize] = op("lstore_3", 0);
    t[FSTORE_0 as usize] = op("fstore_0", 0);
    t[FSTORE_1 as usize] = op("fstore_1", 0);
    t[FSTORE_2 as usize] = op("fstore_2", 0);
    t[FSTORE_3 as usize] = op("fstore_3", 0);
    t[DSTORE_0 as usize] = op("dstore_0", 0);
    t[DSTORE_1 as usize] = op("dstore_1", 0);
    t[DSTORE_2 as usize] = op("dstore_2", 0);
    t[DSTORE_3 as usize] = op("dstore_3", 0);
    t[ASTORE_0 as usize] = op("astore_0", 0);
    t[ASTORE_1 as usize] = op("astore_1", 0);
    t[ASTORE_2 as usize] = op("astore_2", 0);
    t[ASTORE_3 as usize] = op("astore_3", 0);
    t[IASTORE as usize] = op("iastore", 0);
    t[LASTORE as usize] = op("lastore", 0);
    t[FASTORE as usize] = op("fastore", 0);
    t[DASTORE as usize] = op("dastore", 0);
    t[AASTORE as usize] = op("aastore", 0);
    t[BASTORE as usize] = op("bastore", 0);
    t[CASTORE as usize] = op("castore", 0);
    t[SASTORE as usize] = op("sastore", 0);
    t[POP as usize] = op("pop", 0);
    t[POP2 as usize] = op("pop2", 0);
    t[DUP as usize] = op("dup", 0);
    t[DUP_X1 as usize] = op("dup_x1", 0);
    t[DUP_X2 as usize] = op("dup_x2", 0);
    t[DUP2 as usize] = op("dup2", 0);
    t[DUP2_X1 as usize] = op("dup2_x1", 0);
    t[DUP2_X2 as usize] = op("dup2_x2", 0);
    t[SWAP as usize] = op("swap", 0);
    t[IADD as usize] = op("iadd", 0);
    t[LADD as usize] = op("ladd", 0);
    t[FADD as usize] = op("fadd", 0);
    t[DADD as usize] = op("dadd", 0);
    t[ISUB as usize] = op("isub", 0);
    t[LSUB as usize] = op("lsub", 0);
    t[FSUB as usize] = op("fsub", 0);
    t[DSUB as usize] = op("dsub", 0);
    t[IMUL as usize] = op("imul", 0);
    t[LMUL as usize] = op("lmul", 0);
    t[FMUL as usize] = op("fmul", 0);
    t[DMUL as usize] = op("dmul", 0);
    t[IDIV as usize] = op("idiv", 0);
    t[LDIV as usize] = op("ldiv", 0);
    t[FDIV as usize] = op("fdiv", 0);
    t[DDIV as usize] = op("ddiv", 0);
    t[IREM as usize] = op("irem", 0);
    t[LREM as usize] = op("lrem", 0);
    t[FREM as usize] = op("frem", 0);
    t[DREM as usize] = op("drem", 0);
    t[INEG as usize] = op("ineg", 0);
    t[LNEG as usize] = op("lneg", 0);
    t[FNEG as usize] = op("fneg", 0);
    t[DNEG as usize] = op("dneg", 0);
    t[ISHL as usize] = op("ishl", 0);
    t[LSHL as usize] = op("lshl", 0);
    t[ISHR as usize] = op("ishr", 0);
    t[LSHR as usize] = op("lshr", 0);
    t[IUSHR as usize] = op("iushr", 0);
    t[LUSHR as usize] = op("lushr", 0);
    t[IAND as usize] = op("iand", 0);
    t[LAND as usize] = op("land", 0);
    t[IOR as usize] = op("ior", 0);
    t[LOR as usize] = op("lor", 0);
    t[IXOR as usize] = op("ixor", 0);
    t[LXOR as usize] = op("lxor", 0);
    t[IINC as usize] = op("iinc", 2);
    t[I2L as usize] = op("i2l", 0);
    t[I2F as usize] = op("i2f", 0);
    t[I2D as usize] = op("i2d", 0);
    t[L2I as usize] = op("l2i", 0);
    t[L2F as usize] = op("l2f", 0);
    t[L2D as usize] = op("l2d", 0);
    t[F2I as usize] = op("f2i", 0);
    t[F2L as usize] = op("f2l", 0);
    t[F2D as usize] = op("f2d", 0);
    t[D2I as usize] = op("d2i", 0);
    t[D2L as usize] = op("d2l", 0);
    t[D2F as usize] = op("d2f", 0);
    t[I2B as usize] = op("i2b", 0);
    t[I2C as usize] = op("i2c", 0);
    t[I2S as usize] = op("i2s", 0);
    t[LCMP as usize] = op("lcmp", 0);
    t[FCMPL as usize] = op("fcmpl", 0);
    t[FCMPG as usize] = op("fcmpg", 0);
    t[DCMPL as usize] = op("dcmpl", 0);
    t[DCMPG as usize] = op("dcmpg", 0);
    t[IFEQ as usize] = op("ifeq", 2);
    t[IFNE as usize] = op("ifne", 2);
    t[IFLT as usize] = op("iflt", 2);
    t[IFGE as usize] = op("ifge", 2);
    t[IFGT as usize] = op("ifgt", 2);
    t[IFLE as usize] = op("ifle", 2);
    t[IF_ICMPEQ as usize] = op("if_icmpeq", 2);
    t[IF_ICMPNE as usize] = op("if_icmpne", 2);
    t[IF_ICMPLT as usize] = op("if_icmplt", 2);
    t[IF_ICMPGE as usize] = op("if_icmpge", 2);
    t[IF_ICMPGT as usize] = op("if_icmpgt", 2);
    t[IF_ICMPLE as usize] = op("if_icmple", 2);
    t[IF_ACMPEQ as usize] = op("if_acmpeq", 2);
    t[IF_ACMPNE as usize] = op("if_acmpne", 2);
    t[GOTO as usize] = op("goto", 2);
    t[JSR as usize] = op("jsr", 2);
    t[RET as usize] = op("ret", 1);
    t[TABLESWITCH as usize] = op("tableswitch", VARIABLE);
    t[LOOKUPSWITCH as usize] = op("lookupswitch", VARIABLE);
    t[IRETURN as usize] = op("ireturn", 0);
    t[LRETURN as usize] = op("lreturn", 0);
    t[FRETURN as usize] = op("freturn", 0);
    t[DRETURN as usize] = op("dreturn", 0);
    t[ARETURN as usize] = op("areturn", 0);
    t[RETURN as usize] = op("return", 0);
    t[GETSTATIC as usize] = op("getstatic", 2);
    t[PUTSTATIC as usize] = op("putstatic", 2);
    t[GETFIELD as usize] = op("getfield", 2);
    t[PUTFIELD as usize] = op("putfield", 2);
    t[INVOKEVIRTUAL as usize] = op("invokevirtual", 2);
    t[INVOKESPECIAL as usize] = op("invokespecial", 2);
    t[INVOKESTATIC as usize] = op("invokestatic", 2);
    t[INVOKEINTERFACE as usize] = op("invokeinterface", 4);
    t[NEW as usize] = op("new", 2);
    t[NEWARRAY as usize] = op("newarray", 1);
    t[ANEWARRAY as usize] = op("anewarray", 2);
    t[ARRAYLENGTH as usize] = op("arraylength", 0);
    t[ATHROW as usize] = op("athrow", 0);
    t[CHECKCAST as usize] = op("checkcast", 2);
    t[INSTANCEOF as usize] = op("instanceof", 2);
    t[MONITORENTER as usize] = op("monitorenter", 0);
    t[MONITOREXIT as usize] = op("monitorexit", 0);
    t[WIDE as usize] = op("wide", VARIABLE);
    t[MULTIANEWARRAY as usize] = op("multianewarray", 3);
    t[IFNULL as usize] = op("ifnull", 2);
    t[IFNONNULL as usize] = op("ifnonnull", 2);
    t[GOTO_W as usize] = op("goto_w", 4);
    t[JSR_W as usize] = op("jsr_w", 4);
    t
}

/// Big-endian `i16` at `at`, if `code` holds it.
pub fn read_i16(code: &[u8], at: usize) -> Option<i16> {
    Some(i16::from_be_bytes([*code.get(at)?, *code.get(at + 1)?]))
}

/// Big-endian `i32` at `at`, if `code` holds it.
pub fn read_i32(code: &[u8], at: usize) -> Option<i32> {
    Some(i32::from_be_bytes(code.get(at..at + 4)?.try_into().ok()?))
}

/// Encoded length of the instruction at `pc`, opcode byte included.
/// `None` when `pc` or any operand byte lies past the end of `code`, or
/// a switch declares a negative number of cases. Undefined opcode bytes
/// count as one-byte instructions.
pub fn decode_len(code: &[u8], pc: usize) -> Option<usize> {
    let opcode = *code.get(pc)?;
    let len = match opcode {
        WIDE if *code.get(pc + 1)? == IINC => 6,
        WIDE => 4,
        TABLESWITCH => {
            let base = (pc + 4) & !3;
            let low = i64::from(read_i32(code, base + 4)?);
            let cases = usize::try_from(i64::from(read_i32(code, base + 8)?) - low + 1).ok()?;
            base + 12 + 4 * cases - pc
        }
        LOOKUPSWITCH => {
            let base = (pc + 4) & !3;
            let pairs = usize::try_from(read_i32(code, base + 4)?).ok()?;
            base + 8 + 8 * pairs - pc
        }
        _ => 1 + INFO[opcode as usize].operands as usize,
    };
    (pc + len <= code.len()).then_some(len)
}

/// Jump targets of the instruction at `pc`: the target of a branch,
/// `goto` or `jsr`, or a switch's default followed by its cases in
/// encoding order. Empty for instructions that only fall through. `None`
/// when the instruction is truncated or a target lies before offset 0;
/// targets past the end of `code` are returned as they are.
pub fn branch_targets(code: &[u8], pc: usize) -> Option<Vec<usize>> {
    let target = |offset: i32| usize::try_from(pc as i64 + i64::from(offset)).ok();
    // A switch's default offset sits at the aligned `base`, its first
    // case offset 12 bytes further on, and the rest every `stride` bytes.
    let switch = |stride: usize| -> Option<Vec<usize>> {
        let base = (pc + 4) & !3;
        let end = pc + decode_len(code, pc)?;
        std::iter::once(base)
            .chain((base + 12..end).step_by(stride))
            .map(|at| target(read_i32(code, at)?))
            .collect()
    };
    match *code.get(pc)? {
        IFEQ..=JSR | IFNULL | IFNONNULL => Some(vec![target(read_i16(code, pc + 1)?.into())?]),
        GOTO_W | JSR_W => Some(vec![target(read_i32(code, pc + 1)?)?]),
        TABLESWITCH => switch(4),
        // Lookupswitch pairs are a key, then an offset.
        LOOKUPSWITCH => switch(8),
        _ => Some(Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_201_defined_opcodes() {
        // The JVMS2 defines 201 instructions (0x00–0xC9 minus the
        // reserved 0xBA slot); DoppioJVM "implements all 201 bytecode
        // instructions specified in the second edition" (§6).
        let defined = INFO.iter().filter(|i| !i.mnemonic.is_empty()).count();
        assert_eq!(defined, 201);
    }

    #[test]
    fn reserved_and_undefined_slots_are_empty() {
        assert_eq!(INFO[0xBA].mnemonic, ""); // invokedynamic: not in JVMS2
        for b in 0xCA..=0xFFu16 {
            assert_eq!(INFO[b as usize].mnemonic, "", "opcode {b:#x}");
        }
    }

    #[test]
    fn spot_check_operand_widths() {
        assert_eq!(INFO[BIPUSH as usize].operands, 1);
        assert_eq!(INFO[SIPUSH as usize].operands, 2);
        assert_eq!(INFO[INVOKEINTERFACE as usize].operands, 4);
        assert_eq!(INFO[TABLESWITCH as usize].operands, VARIABLE);
        assert_eq!(INFO[GOTO_W as usize].operands, 4);
        assert_eq!(INFO[MULTIANEWARRAY as usize].operands, 3);
    }

    #[test]
    fn decode_len_is_bounds_checked() {
        assert_eq!(decode_len(&[SIPUSH, 0, 7], 0), Some(3));
        assert_eq!(decode_len(&[SIPUSH, 0], 0), None);
        assert_eq!(decode_len(&[NOP], 1), None);
        assert_eq!(decode_len(&[WIDE, IINC, 0, 1, 0, 2], 0), Some(6));
        assert_eq!(decode_len(&[WIDE, ILOAD, 0, 1], 0), Some(4));
        assert_eq!(decode_len(&[WIDE], 0), None);
        assert_eq!(decode_len(&[0xFE], 0), Some(1));
        // tableswitch at pc 1: 2 pad bytes, default, low = 0, high = 1.
        let mut table = vec![NOP, TABLESWITCH, 0, 0];
        for v in [10, 0, 1, 20, 30] {
            table.extend_from_slice(&i32::to_be_bytes(v));
        }
        assert_eq!(decode_len(&table, 1), Some(23));
        assert_eq!(branch_targets(&table, 1), Some(vec![11, 21, 31]));
        assert_eq!(decode_len(&table[..table.len() - 1], 1), None);
        // high < low - 1 is a negative case count.
        table[12] = 0xFF;
        assert_eq!(decode_len(&table, 1), None);
    }

    #[test]
    fn branch_targets_follow_the_encoding() {
        assert_eq!(branch_targets(&[NOP, GOTO, 0xFF, 0xFF], 1), Some(vec![0]));
        assert_eq!(branch_targets(&[GOTO, 0xFF, 0xFF], 0), None);
        assert_eq!(branch_targets(&[GOTO, 0], 0), None);
        assert_eq!(branch_targets(&[JSR_W, 0, 0, 0, 9], 0), Some(vec![9]));
        assert_eq!(branch_targets(&[IADD], 0), Some(vec![]));
        // lookupswitch at pc 0: 3 pad bytes, default, one (key, offset).
        let mut lookup = vec![LOOKUPSWITCH, 0, 0, 0];
        for v in [16, 1, 7, 20] {
            lookup.extend_from_slice(&i32::to_be_bytes(v));
        }
        assert_eq!(decode_len(&lookup, 0), Some(20));
        assert_eq!(branch_targets(&lookup, 0), Some(vec![16, 20]));
    }
}
