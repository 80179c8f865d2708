//! A javap-style disassembler.
//!
//! One of the paper's macro benchmarks runs `javap`, the Java
//! disassembler, over the 491 class files of `javac` (§7.1). This
//! module is the equivalent tool for our pipeline: it renders a parsed
//! class to text, resolving constant-pool operands symbolically.

use std::fmt::Write as _;

use crate::opcodes::{self as op, INFO};
use crate::{ClassFile, Code, MethodInfo};

/// Disassemble a whole class to javap-like text.
pub fn disassemble_class(class: &ClassFile) -> String {
    let mut out = String::new();
    let name = class.name().unwrap_or("<bad name>");
    let sup = class.super_name().ok().flatten().unwrap_or("<none>");
    let _ = writeln!(out, "class {name} extends {sup} {{");
    for f in &class.fields {
        let _ = writeln!(out, "  field {} {};", f.descriptor, f.name);
    }
    for m in &class.methods {
        out.push_str(&disassemble_method(class, m));
    }
    out.push_str("}\n");
    out
}

/// Disassemble one method.
pub fn disassemble_method(class: &ClassFile, m: &MethodInfo) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "  method {}{} {{", m.name, m.descriptor);
    match &m.code {
        None => {
            let _ = writeln!(out, "    // no code (native or abstract)");
        }
        Some(code) => {
            let _ = writeln!(
                out,
                "    // max_stack={} max_locals={}",
                code.max_stack, code.max_locals
            );
            let mut pc = 0usize;
            while pc < code.bytecode.len() {
                let (text, next) = disassemble_at(class, code, pc);
                let _ = writeln!(out, "    {pc:5}: {text}");
                if next <= pc {
                    break; // defensive: malformed code
                }
                pc = next;
            }
            for e in &code.exception_table {
                let ty = if e.catch_type == 0 {
                    "any".to_string()
                } else {
                    class
                        .constant_pool
                        .class_name(e.catch_type)
                        .unwrap_or("<bad>")
                        .to_string()
                };
                let _ = writeln!(
                    out,
                    "    catch {ty} [{}, {}) -> {}",
                    e.start_pc, e.end_pc, e.handler_pc
                );
            }
        }
    }
    out.push_str("  }\n");
    out
}

/// Disassemble the instruction at `pc`; returns `(text, next_pc)`.
/// A truncated instruction disassembles as its mnemonic plus
/// `<truncated>` and ends the code.
pub fn disassemble_at(class: &ClassFile, code: &Code, pc: usize) -> (String, usize) {
    let bytes = &code.bytecode;
    let opcode = bytes[pc];
    let info = INFO[opcode as usize];
    if info.mnemonic.is_empty() {
        return (format!(".byte {opcode:#04x}"), pc + 1);
    }
    let Some(len) = op::decode_len(bytes, pc) else {
        return (format!("{} <truncated>", info.mnemonic), bytes.len());
    };
    let pool = &class.constant_pool;
    let u16_at = |i: usize| u16::from_be_bytes([bytes[i], bytes[i + 1]]);
    let i16_at = |i: usize| i16::from_be_bytes([bytes[i], bytes[i + 1]]);
    let i32_at = |i: usize| op::read_i32(bytes, i).unwrap_or_default();
    // The branch target, or a switch's default.
    let target = || match op::branch_targets(bytes, pc).as_deref() {
        Some([first, ..]) => first.to_string(),
        _ => "<bad target>".to_string(),
    };
    let member = |idx: u16| -> String {
        pool.member_ref(idx)
            .map(|(c, n, d)| format!("{c}.{n}:{d}"))
            .unwrap_or_else(|_| format!("#{idx}"))
    };
    let class_at = |idx: u16| -> String {
        pool.class_name(idx)
            .map(str::to_string)
            .unwrap_or_else(|_| format!("#{idx}"))
    };

    let text = match opcode {
        op::BIPUSH => format!("bipush {}", bytes[pc + 1] as i8),
        op::SIPUSH => format!("sipush {}", i16_at(pc + 1)),
        op::LDC => format!("ldc {}", ldc_text(class, u16::from(bytes[pc + 1]))),
        op::LDC_W => format!("ldc_w {}", ldc_text(class, u16_at(pc + 1))),
        op::LDC2_W => format!("ldc2_w {}", ldc_text(class, u16_at(pc + 1))),
        op::ILOAD
        | op::LLOAD
        | op::FLOAD
        | op::DLOAD
        | op::ALOAD
        | op::ISTORE
        | op::LSTORE
        | op::FSTORE
        | op::DSTORE
        | op::ASTORE
        | op::RET => format!("{} {}", info.mnemonic, bytes[pc + 1]),
        op::IINC => format!("iinc {} {}", bytes[pc + 1], bytes[pc + 2] as i8),
        op::IFEQ..=op::JSR | op::IFNULL | op::IFNONNULL | op::GOTO_W | op::JSR_W => {
            format!("{} {}", info.mnemonic, target())
        }
        op::GETSTATIC
        | op::PUTSTATIC
        | op::GETFIELD
        | op::PUTFIELD
        | op::INVOKEVIRTUAL
        | op::INVOKESPECIAL
        | op::INVOKESTATIC
        | op::INVOKEINTERFACE => format!("{} {}", info.mnemonic, member(u16_at(pc + 1))),
        op::NEW | op::ANEWARRAY | op::CHECKCAST | op::INSTANCEOF => {
            format!("{} {}", info.mnemonic, class_at(u16_at(pc + 1)))
        }
        op::NEWARRAY => {
            let t = match bytes[pc + 1] {
                4 => "boolean",
                5 => "char",
                6 => "float",
                7 => "double",
                8 => "byte",
                9 => "short",
                10 => "int",
                11 => "long",
                _ => "?",
            };
            format!("newarray {t}")
        }
        op::MULTIANEWARRAY => format!(
            "multianewarray {} dims={}",
            class_at(u16_at(pc + 1)),
            bytes[pc + 3]
        ),
        op::TABLESWITCH => {
            let base = (pc + 4) & !3;
            let (low, high) = (i32_at(base + 4), i32_at(base + 8));
            format!("tableswitch [{low}..{high}] default={}", target())
        }
        op::LOOKUPSWITCH => {
            let npairs = i32_at(((pc + 4) & !3) + 4);
            format!("lookupswitch npairs={npairs} default={}", target())
        }
        op::WIDE if bytes[pc + 1] == op::IINC => {
            format!("wide iinc {} {}", u16_at(pc + 2), i16_at(pc + 4))
        }
        op::WIDE => {
            let name = INFO[bytes[pc + 1] as usize].mnemonic;
            format!("wide {name} {}", u16_at(pc + 2))
        }
        _ => info.mnemonic.to_string(),
    };
    (text, pc + len)
}

fn ldc_text(class: &ClassFile, idx: u16) -> String {
    use crate::constant::Constant;
    match class.constant_pool.get(idx) {
        Ok(Constant::Integer(v)) => format!("int {v}"),
        Ok(Constant::Float(v)) => format!("float {v}"),
        Ok(Constant::Long(v)) => format!("long {v}"),
        Ok(Constant::Double(v)) => format!("double {v}"),
        Ok(Constant::String { .. }) => match class.constant_pool.string(idx) {
            Ok(s) => format!("String {s:?}"),
            Err(_) => format!("#{idx}"),
        },
        Ok(Constant::Class { .. }) => match class.constant_pool.class_name(idx) {
            Ok(s) => format!("Class {s}"),
            Err(_) => format!("#{idx}"),
        },
        _ => format!("#{idx}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access;
    use crate::builder::{ClassBuilder, MethodBuilder};
    use crate::opcodes::VARIABLE;

    #[test]
    fn disassembles_a_loop_readably() {
        let mut b = ClassBuilder::new("t/D", "java/lang/Object");
        let mut m = MethodBuilder::new(access::ACC_PUBLIC | access::ACC_STATIC, "twice", "(I)I", 1);
        m.iload(0);
        m.ldc_int(2);
        m.imul();
        m.ireturn();
        b.add_method(m);
        let class = b.finish();
        let text = disassemble_class(&class);
        assert!(text.contains("class t/D extends java/lang/Object"));
        assert!(text.contains("iload_0"));
        assert!(text.contains("iconst_2"));
        assert!(text.contains("imul"));
        assert!(text.contains("ireturn"));
    }

    #[test]
    fn member_operands_are_symbolic() {
        let mut b = ClassBuilder::new("t/E", "java/lang/Object");
        let mut m = MethodBuilder::new(access::ACC_STATIC, "f", "()V", 0);
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.ldc_string("hi");
        m.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
        m.return_void();
        b.add_method(m);
        let text = disassemble_class(&b.finish());
        assert!(text.contains("getstatic java/lang/System.out:Ljava/io/PrintStream;"));
        assert!(text.contains("ldc String \"hi\""));
        assert!(text.contains("invokevirtual java/io/PrintStream.println"));
    }

    #[test]
    fn every_defined_opcode_disassembles_without_panic() {
        // Build fake single-instruction code bodies for all fixed-width
        // opcodes and check the disassembler steps over them.
        let class = ClassBuilder::new("t/X", "java/lang/Object").finish();
        for opcode in 0u8..=0xC9 {
            let info = INFO[opcode as usize];
            if info.mnemonic.is_empty() || info.operands == VARIABLE {
                continue;
            }
            let mut bytecode = vec![opcode];
            bytecode.extend(std::iter::repeat_n(1u8, info.operands as usize));
            let code = Code {
                max_stack: 0,
                max_locals: 0,
                bytecode,
                exception_table: vec![],
                line_numbers: vec![],
            };
            let (text, next) = disassemble_at(&class, &code, 0);
            assert!(!text.is_empty());
            assert_eq!(next, 1 + info.operands as usize, "opcode {opcode:#x}");
        }
    }
}
