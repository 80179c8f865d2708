//! Code generation: MiniJava AST → JVM class files.
//!
//! One pass per method. `Gen::expr` is the one place an expression is
//! typed: it emits the expression's code and returns its type. Where the
//! code around an operand depends on the operand's type (the
//! `StringBuilder` of a string `+`, the conversion an overload's
//! parameter needs, the receiver a call pushes first), `expr` emits the
//! operand once into a fragment cut from the method body and splices it
//! back once that code is known ([`MethodBuilder::take_since`]). Every
//! field, constructor and method resolves in the [`ClassTable`], which
//! serves the runtime library's classes next to the program's. Locals
//! are allocated on the fly; `max_locals` is the final watermark.

use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC, ACC_SUPER, ACC_SYNCHRONIZED};
use doppio_classfile::builder::{ClassBuilder, Fragment, Label, MethodBuilder};
use doppio_classfile::opcodes as op;
use doppio_classfile::ClassFile;

use crate::ast::*;
use crate::error::CompileError;
use crate::library::{CONCAT, ROOT};
use crate::table::{class_name, class_type, descriptor, method_descriptor, ClassTable};

/// Compile a parsed program to class files.
pub fn compile_program(prog: &Program) -> Result<Vec<ClassFile>, CompileError> {
    let table = ClassTable::build(prog)?;
    prog.classes.iter().map(|c| gen_class(&table, c)).collect()
}

fn gen_class(table: &ClassTable, c: &ClassDecl) -> Result<ClassFile, CompileError> {
    let super_name = c.super_name.as_deref().unwrap_or(ROOT);
    let mut b = ClassBuilder::new(&c.name, table.binary_name(super_name));
    b.set_access(ACC_PUBLIC | ACC_SUPER);

    for f in &c.fields {
        let flags = if f.is_static {
            ACC_PUBLIC | ACC_STATIC
        } else {
            ACC_PUBLIC
        };
        b.add_field(flags, &f.name, &descriptor(table, &f.ty));
        if f.init.is_some() && !f.is_static {
            return Err(CompileError::check(
                f.line,
                format!(
                    "instance field {} has an initializer; assign it in a constructor",
                    f.name
                ),
            ));
        }
    }

    // <clinit> from static field initializers.
    if c.fields.iter().any(|f| f.init.is_some()) {
        let mut g = Gen::new(
            table,
            c,
            MethodBuilder::new(ACC_STATIC, "<clinit>", "()V", 0),
            true,
            Type::Void,
        );
        for f in &c.fields {
            if let Some(init) = &f.init {
                let t = g.expr(init)?;
                g.coerce(&t, &f.ty, f.line)?;
                g.m.putstatic(&c.name, &f.name, &descriptor(table, &f.ty));
            }
        }
        g.m.return_void();
        g.finish(&mut b);
    }

    // Constructors (an implicit default one when none is declared).
    let implicit = [CtorDecl {
        params: Vec::new(),
        super_args: None,
        body: Vec::new(),
        line: c.line,
    }];
    let ctors = if c.ctors.is_empty() {
        &implicit[..]
    } else {
        &c.ctors
    };
    for k in ctors {
        gen_ctor(table, c, k, super_name, &mut b)?;
    }

    for m in &c.methods {
        gen_method(table, c, m, &mut b)?;
    }
    Ok(b.finish())
}

fn gen_ctor(
    table: &ClassTable,
    c: &ClassDecl,
    k: &CtorDecl,
    super_name: &str,
    b: &mut ClassBuilder,
) -> Result<(), CompileError> {
    let params: Vec<Type> = k.params.iter().map(|(t, _)| t.clone()).collect();
    let desc = method_descriptor(table, &params, &Type::Void);
    let mut g = Gen::new(
        table,
        c,
        MethodBuilder::new(ACC_PUBLIC, "<init>", &desc, 0),
        false,
        Type::Void,
    );
    g.declare_this_and_params(&k.params);

    // super(...) call.
    g.m.aload(0);
    let args = g.operands(k.super_args.as_deref().unwrap_or_default())?;
    g.init(super_name, args, k.line)?;

    for s in &k.body {
        g.stmt(s)?;
    }
    g.m.return_void();
    g.finish(b);
    Ok(())
}

fn gen_method(
    table: &ClassTable,
    c: &ClassDecl,
    m: &MethodDecl,
    b: &mut ClassBuilder,
) -> Result<(), CompileError> {
    let params: Vec<Type> = m.params.iter().map(|(t, _)| t.clone()).collect();
    let desc = method_descriptor(table, &params, &m.ret);
    let mut flags = if m.is_static {
        ACC_PUBLIC | ACC_STATIC
    } else {
        ACC_PUBLIC
    };
    if m.is_synchronized {
        flags |= ACC_SYNCHRONIZED;
    }
    let mut g = Gen::new(
        table,
        c,
        MethodBuilder::new(flags, &m.name, &desc, 0),
        m.is_static,
        m.ret.clone(),
    );
    if m.is_static {
        g.declare_params(&m.params);
    } else {
        g.declare_this_and_params(&m.params);
    }
    for s in &m.body {
        g.stmt(s)?;
    }
    // Implicit return for void methods (and a safety net otherwise —
    // the JVM traps a fall-off as an error at runtime).
    if m.ret == Type::Void {
        g.m.return_void();
    } else {
        // Unreachable if the program returns on all paths; emit a
        // default return to satisfy the verifier-less interpreter.
        g.default_value(&m.ret);
        g.typed_return(&m.ret);
    }
    g.finish(b);
    Ok(())
}

/// Slots a type occupies.
fn slots(ty: &Type) -> u16 {
    match ty {
        Type::Long | Type::Double => 2,
        _ => 1,
    }
}

struct Gen<'a> {
    table: &'a ClassTable,
    class: &'a ClassDecl,
    m: MethodBuilder,
    scopes: Vec<Vec<(String, u16, Type)>>,
    next_local: u16,
    max_local: u16,
    is_static: bool,
    ret: Type,
    loops: Vec<(Label, Label)>, // (continue target, break target)
}

impl<'a> Gen<'a> {
    fn new(
        table: &'a ClassTable,
        class: &'a ClassDecl,
        m: MethodBuilder,
        is_static: bool,
        ret: Type,
    ) -> Gen<'a> {
        Gen {
            table,
            class,
            m,
            scopes: vec![Vec::new()],
            next_local: 0,
            max_local: 0,
            is_static,
            ret,
            loops: Vec::new(),
        }
    }

    fn finish(mut self, b: &mut ClassBuilder) {
        self.m
            .set_max_locals(self.max_local.max(self.next_local).max(1));
        b.add_method(self.m);
    }

    fn declare_this_and_params(&mut self, params: &[(Type, String)]) {
        self.next_local = 1; // slot 0 = this
        for (t, n) in params {
            let idx = self.next_local;
            self.next_local += slots(t);
            self.scopes[0].push((n.clone(), idx, t.clone()));
        }
        self.max_local = self.next_local;
    }

    fn declare_params(&mut self, params: &[(Type, String)]) {
        for (t, n) in params {
            let idx = self.next_local;
            self.next_local += slots(t);
            self.scopes[0].push((n.clone(), idx, t.clone()));
        }
        self.max_local = self.next_local;
    }

    fn declare(&mut self, name: &str, ty: &Type) -> u16 {
        let idx = self.next_local;
        self.next_local += slots(ty);
        self.max_local = self.max_local.max(self.next_local);
        self.scopes
            .last_mut()
            .expect("scope")
            .push((name.to_string(), idx, ty.clone()));
        idx
    }

    fn lookup_local(&self, name: &str) -> Option<(u16, Type)> {
        for scope in self.scopes.iter().rev() {
            for (n, idx, t) in scope.iter().rev() {
                if n == name {
                    return Some((*idx, t.clone()));
                }
            }
        }
        None
    }

    fn err(&self, line: u32, msg: impl Into<String>) -> CompileError {
        CompileError::check(line, msg.into())
    }

    // ---- statements ----

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Block(body) => {
                self.scopes.push(Vec::new());
                let saved = self.next_local;
                for st in body {
                    self.stmt(st)?;
                }
                self.scopes.pop();
                self.next_local = saved;
                Ok(())
            }
            Stmt::VarDecl {
                ty,
                name,
                init,
                line,
            } => {
                self.m.line(*line as u16);
                if self.lookup_local(name).is_some() {
                    return Err(self.err(*line, format!("duplicate local {name}")));
                }
                let idx = self.declare(name, ty);
                match init {
                    Some(e) => {
                        let t = self.expr(e)?;
                        self.coerce(&t, ty, *line)?;
                    }
                    None => self.default_value(ty),
                }
                self.store_local(idx, ty);
                Ok(())
            }
            Stmt::If {
                cond,
                then,
                els,
                line,
            } => {
                self.m.line(*line as u16);
                let else_l = self.m.new_label();
                let end_l = self.m.new_label();
                self.condition(cond, *line)?;
                self.m.branch(op::IFEQ, else_l);
                self.stmt(then)?;
                if els.is_some() {
                    self.m.goto_(end_l);
                }
                self.m.bind(else_l);
                if let Some(e) = els {
                    self.stmt(e)?;
                    self.m.bind(end_l);
                }
                Ok(())
            }
            Stmt::While { cond, body, line } => {
                self.m.line(*line as u16);
                let top = self.m.new_label();
                let done = self.m.new_label();
                self.m.bind(top);
                self.condition(cond, *line)?;
                self.m.branch(op::IFEQ, done);
                self.loops.push((top, done));
                self.stmt(body)?;
                self.loops.pop();
                self.m.goto_(top);
                self.m.bind(done);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                line,
            } => {
                self.m.line(*line as u16);
                self.scopes.push(Vec::new());
                let saved = self.next_local;
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let top = self.m.new_label();
                let cont = self.m.new_label();
                let done = self.m.new_label();
                self.m.bind(top);
                if let Some(c) = cond {
                    self.condition(c, *line)?;
                    self.m.branch(op::IFEQ, done);
                }
                self.loops.push((cont, done));
                self.stmt(body)?;
                self.loops.pop();
                self.m.bind(cont);
                if let Some(u) = update {
                    self.stmt(u)?;
                }
                self.m.goto_(top);
                self.m.bind(done);
                self.scopes.pop();
                self.next_local = saved;
                Ok(())
            }
            Stmt::Return { value, line } => {
                self.m.line(*line as u16);
                match (&self.ret.clone(), value) {
                    (Type::Void, None) => self.m.return_void(),
                    (Type::Void, Some(_)) => {
                        return Err(self.err(*line, "void method returns a value"))
                    }
                    (_, None) => return Err(self.err(*line, "missing return value")),
                    (ret, Some(e)) => {
                        let t = self.expr(e)?;
                        let ret = ret.clone();
                        self.coerce(&t, &ret, *line)?;
                        self.typed_return(&ret);
                    }
                }
                Ok(())
            }
            Stmt::Break(line) => {
                let (_, brk) = *self
                    .loops
                    .last()
                    .ok_or_else(|| self.err(*line, "break outside a loop"))?;
                self.m.goto_(brk);
                Ok(())
            }
            Stmt::Continue(line) => {
                let (cont, _) = *self
                    .loops
                    .last()
                    .ok_or_else(|| self.err(*line, "continue outside a loop"))?;
                self.m.goto_(cont);
                Ok(())
            }
            Stmt::Expr(e) => {
                self.m.line(e.line() as u16);
                match e {
                    Expr::Assign { .. } | Expr::IncDec { .. } => {
                        self.assignment(e)?;
                    }
                    _ => {
                        let t = self.expr(e)?;
                        match slots(&t) {
                            _ if t == Type::Void => {}
                            2 => self.m.simple(op::POP2),
                            _ => self.m.pop(),
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Emit a boolean condition value.
    fn condition(&mut self, e: &Expr, line: u32) -> Result<(), CompileError> {
        let t = self.expr(e)?;
        if t != Type::Boolean {
            return Err(self.err(line, format!("condition is {t:?}, not boolean")));
        }
        Ok(())
    }

    fn default_value(&mut self, ty: &Type) {
        match ty {
            Type::Long => self.m.ldc_long(0),
            Type::Double => self.m.ldc_double(0.0),
            Type::Int | Type::Boolean | Type::Char | Type::Byte => self.m.ldc_int(0),
            _ => self.m.aconst_null(),
        }
    }

    fn typed_return(&mut self, ty: &Type) {
        match ty {
            Type::Long => self.m.lreturn(),
            Type::Double => self.m.dreturn(),
            Type::Int | Type::Boolean | Type::Char | Type::Byte => self.m.ireturn(),
            Type::Void => self.m.return_void(),
            _ => self.m.areturn(),
        }
    }

    fn store_local(&mut self, idx: u16, ty: &Type) {
        match ty {
            Type::Long => self.m.lstore(idx),
            Type::Double => self.m.dstore(idx),
            Type::Int | Type::Boolean | Type::Char | Type::Byte => self.m.istore(idx),
            _ => self.m.astore(idx),
        }
    }

    fn load_local(&mut self, idx: u16, ty: &Type) {
        match ty {
            Type::Long => self.m.lload(idx),
            Type::Double => self.m.dload(idx),
            Type::Int | Type::Boolean | Type::Char | Type::Byte => self.m.iload(idx),
            _ => self.m.aload(idx),
        }
    }

    /// Emit a widening conversion from `from` to `to`.
    fn coerce(&mut self, from: &Type, to: &Type, line: u32) -> Result<(), CompileError> {
        if from == to || !self.needs_conversion(from, to) {
            if self.table.assignable(from, to) || from == to {
                return Ok(());
            }
            return Err(self.err(line, format!("cannot assign {from:?} to {to:?}")));
        }
        match (from, to) {
            (Type::Int | Type::Char | Type::Byte, Type::Long) => self.m.simple(op::I2L),
            (Type::Int | Type::Char | Type::Byte, Type::Double) => self.m.simple(op::I2D),
            (Type::Long, Type::Double) => self.m.simple(op::L2D),
            _ => return Err(self.err(line, format!("cannot convert {from:?} to {to:?}"))),
        }
        Ok(())
    }

    fn needs_conversion(&self, from: &Type, to: &Type) -> bool {
        matches!(
            (from, to),
            (
                Type::Int | Type::Char | Type::Byte,
                Type::Long | Type::Double
            ) | (Type::Long, Type::Double)
        )
    }

    // ---- assignments ----

    fn assignment(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::IncDec { target, inc, line } => {
                let delta = if *inc { 1i16 } else { -1 };
                // Fast path: integer local.
                if let Expr::Var(name, _) = target.as_ref() {
                    if let Some((idx, Type::Int)) = self.lookup_local(name) {
                        self.m.iinc(idx, delta);
                        return Ok(());
                    }
                }
                let value = Expr::Binary {
                    op: if *inc { BinOp::Add } else { BinOp::Sub },
                    l: target.clone(),
                    r: Box::new(Expr::IntLit(1, *line)),
                    line: *line,
                };
                self.assign_to(target, &value, *line)
            }
            Expr::Assign {
                target,
                op: Some(binop),
                value,
                line,
            } => {
                let combined = Expr::Binary {
                    op: *binop,
                    l: target.clone(),
                    r: value.clone(),
                    line: *line,
                };
                self.assign_to(target, &combined, *line)
            }
            Expr::Assign {
                target,
                op: None,
                value,
                line,
            } => self.assign_to(target, value, *line),
            _ => unreachable!("assignment() called on non-assignment"),
        }
    }

    fn assign_to(&mut self, target: &Expr, value: &Expr, line: u32) -> Result<(), CompileError> {
        match target {
            Expr::Var(name, _) => {
                if let Some((idx, ty)) = self.lookup_local(name) {
                    let t = self.expr(value)?;
                    self.coerce(&t, &ty, line)?;
                    self.store_local(idx, &ty);
                    return Ok(());
                }
                // Field of this / static field of this class.
                let (decl, ty, is_static) = self
                    .table
                    .find_field(&self.class.name, name)
                    .ok_or_else(|| self.err(line, format!("unknown variable {name}")))?;
                let desc = descriptor(self.table, ty);
                if is_static {
                    let t = self.expr(value)?;
                    self.coerce(&t, ty, line)?;
                    self.m.putstatic(&decl.binary, name, &desc);
                } else {
                    if self.is_static {
                        return Err(
                            self.err(line, format!("instance field {name} in static context"))
                        );
                    }
                    self.m.aload(0);
                    let t = self.expr(value)?;
                    self.coerce(&t, ty, line)?;
                    self.m.putfield(&decl.binary, name, &desc);
                }
                Ok(())
            }
            Expr::Field {
                target: ftarget,
                name,
                line: fline,
            } => {
                // Static field via class name?
                if let Some(cls) = self.class_named(ftarget) {
                    let (decl, ty, is_static) = self
                        .table
                        .find_field(cls, name)
                        .ok_or_else(|| self.err(*fline, format!("unknown field {cls}.{name}")))?;
                    if !is_static {
                        return Err(self.err(*fline, format!("{cls}.{name} is not static")));
                    }
                    let t = self.expr(value)?;
                    self.coerce(&t, ty, line)?;
                    let desc = descriptor(self.table, ty);
                    self.m.putstatic(&decl.binary, name, &desc);
                    return Ok(());
                }
                let tt = self.expr(ftarget)?;
                let Type::Class(cname) = &tt else {
                    return Err(self.err(*fline, format!("cannot assign field of {tt:?}")));
                };
                let (decl, ty, is_static) = self
                    .table
                    .find_field(cname, name)
                    .ok_or_else(|| self.err(*fline, format!("unknown field {cname}.{name}")))?;
                if is_static {
                    return Err(self.err(*fline, "static field via instance".to_string()));
                }
                let t = self.expr(value)?;
                self.coerce(&t, ty, line)?;
                let desc = descriptor(self.table, ty);
                self.m.putfield(&decl.binary, name, &desc);
                Ok(())
            }
            Expr::Index {
                array,
                index,
                line: iline,
            } => {
                let at = self.expr(array)?;
                let Type::Array(elem) = at else {
                    return Err(self.err(*iline, format!("indexing non-array {at:?}")));
                };
                let it = self.expr(index)?;
                self.coerce(&it, &Type::Int, *iline)?;
                let t = self.expr(value)?;
                self.coerce(&t, &elem, line)?;
                self.array_store(&elem);
                Ok(())
            }
            _ => Err(self.err(line, "invalid assignment target")),
        }
    }

    fn array_store(&mut self, elem: &Type) {
        match elem {
            Type::Int => self.m.simple(op::IASTORE),
            Type::Long => self.m.simple(op::LASTORE),
            Type::Double => self.m.simple(op::DASTORE),
            Type::Char => self.m.simple(op::CASTORE),
            Type::Byte | Type::Boolean => self.m.simple(op::BASTORE),
            _ => self.m.simple(op::AASTORE),
        }
    }

    fn array_load(&mut self, elem: &Type) {
        match elem {
            Type::Int => self.m.simple(op::IALOAD),
            Type::Long => self.m.simple(op::LALOAD),
            Type::Double => self.m.simple(op::DALOAD),
            Type::Char => self.m.simple(op::CALOAD),
            Type::Byte | Type::Boolean => self.m.simple(op::BALOAD),
            _ => self.m.simple(op::AALOAD),
        }
    }

    fn promote_shift(&self, lt: &Type) -> Type {
        if *lt == Type::Long {
            Type::Long
        } else {
            Type::Int
        }
    }

    fn promoted(&self, l: &Type, r: &Type, line: u32) -> Result<Type, CompileError> {
        use Type::*;
        Ok(match (l, r) {
            (Double, _) | (_, Double) if l.is_numeric() && r.is_numeric() => Double,
            (Long, _) | (_, Long) if l.is_numeric() && r.is_numeric() => Long,
            (a, b) if a.is_numeric() && b.is_numeric() => Int,
            (Boolean, Boolean) => Boolean, // & | ^ on booleans
            _ => return Err(self.err(line, format!("operator not applicable to {l:?} and {r:?}"))),
        })
    }

    // ---- expressions ----

    /// Emit `e` and return its type: the one place an expression is
    /// typed.
    fn expr(&mut self, e: &Expr) -> Result<Type, CompileError> {
        match e {
            Expr::IntLit(v, _) => {
                self.m.ldc_int(*v as i32);
                Ok(Type::Int)
            }
            Expr::LongLit(v, _) => {
                self.m.ldc_long(*v);
                Ok(Type::Long)
            }
            Expr::DoubleLit(v, _) => {
                self.m.ldc_double(*v);
                Ok(Type::Double)
            }
            Expr::CharLit(c, _) => {
                self.m.ldc_int(*c as i32);
                Ok(Type::Char)
            }
            Expr::StrLit(s, _) => {
                self.m.ldc_string(s);
                Ok(Type::Str)
            }
            Expr::BoolLit(v, _) => {
                self.m.ldc_int(i32::from(*v));
                Ok(Type::Boolean)
            }
            Expr::Null(_) => {
                self.m.aconst_null();
                Ok(Type::Null)
            }
            Expr::This(line) => {
                if self.is_static {
                    return Err(self.err(*line, "this in a static context"));
                }
                self.m.aload(0);
                Ok(Type::Class(self.class.name.clone()))
            }
            Expr::Var(name, line) => {
                if let Some((idx, t)) = self.lookup_local(name) {
                    self.load_local(idx, &t);
                    return Ok(t);
                }
                let (decl, ty, is_static) = self
                    .table
                    .find_field(&self.class.name, name)
                    .ok_or_else(|| self.err(*line, format!("unknown variable {name}")))?;
                let desc = descriptor(self.table, ty);
                if is_static {
                    self.m.getstatic(&decl.binary, name, &desc);
                } else {
                    if self.is_static {
                        return Err(
                            self.err(*line, format!("instance field {name} in static context"))
                        );
                    }
                    self.m.aload(0);
                    self.m.getfield(&decl.binary, name, &desc);
                }
                Ok(ty.clone())
            }
            Expr::Field { target, name, line } => {
                // Static field via class name.
                if let Some(cls) = self.class_named(target) {
                    let (decl, ty, is_static) = self
                        .table
                        .find_field(cls, name)
                        .ok_or_else(|| self.err(*line, format!("unknown field {cls}.{name}")))?;
                    if !is_static {
                        return Err(self.err(*line, format!("{cls}.{name} is not static")));
                    }
                    let desc = descriptor(self.table, ty);
                    self.m.getstatic(&decl.binary, name, &desc);
                    return Ok(ty.clone());
                }
                let tt = self.expr(target)?;
                let cname = match &tt {
                    Type::Array(_) if name == "length" => {
                        self.m.arraylength();
                        return Ok(Type::Int);
                    }
                    Type::Class(c) => c,
                    _ => return Err(self.err(*line, format!("no field {name} on {tt:?}"))),
                };
                let (decl, ty, is_static) = self
                    .table
                    .find_field(cname, name)
                    .ok_or_else(|| self.err(*line, format!("unknown field {cname}.{name}")))?;
                if is_static {
                    return Err(self.err(*line, "static field via instance".to_string()));
                }
                let desc = descriptor(self.table, ty);
                self.m.getfield(&decl.binary, name, &desc);
                Ok(ty.clone())
            }
            Expr::Index { array, index, line } => {
                let at = self.expr(array)?;
                let Type::Array(elem) = at else {
                    return Err(self.err(*line, format!("indexing non-array {at:?}")));
                };
                let it = self.expr(index)?;
                self.coerce(&it, &Type::Int, *line)?;
                self.array_load(&elem);
                Ok(*elem)
            }
            Expr::New { class, args, line } => {
                let args = self.operands(args)?;
                self.m.new_object(self.table.binary_name(class));
                self.m.dup();
                self.init(class, args, *line)?;
                Ok(class_type(class))
            }
            Expr::NewArray { ty, len, line } => {
                let lt = self.expr(len)?;
                self.coerce(&lt, &Type::Int, *line)?;
                match ty {
                    Type::Int => self.m.newarray(10),
                    Type::Long => self.m.newarray(11),
                    Type::Double => self.m.newarray(7),
                    Type::Char => self.m.newarray(5),
                    Type::Byte => self.m.newarray(8),
                    Type::Boolean => self.m.newarray(4),
                    Type::Str => self.m.anewarray(self.table.binary_name("String")),
                    Type::Class(c) => self.m.anewarray(self.table.binary_name(c)),
                    other => {
                        return Err(self.err(*line, format!("cannot allocate array of {other:?}")))
                    }
                }
                Ok(Type::Array(Box::new(ty.clone())))
            }
            Expr::Unary { op, e, line } => match op {
                UnOp::Neg => {
                    let t = self.expr(e)?;
                    match t {
                        Type::Int | Type::Char | Type::Byte => {
                            self.m.ineg();
                            Ok(Type::Int)
                        }
                        Type::Long => {
                            self.m.simple(op::LNEG);
                            Ok(Type::Long)
                        }
                        Type::Double => {
                            self.m.simple(op::DNEG);
                            Ok(Type::Double)
                        }
                        other => Err(self.err(*line, format!("cannot negate {other:?}"))),
                    }
                }
                UnOp::Not => {
                    let t = self.expr(e)?;
                    if t != Type::Boolean {
                        return Err(self.err(*line, format!("! on {t:?}")));
                    }
                    self.m.ldc_int(1);
                    self.m.simple(op::IXOR);
                    Ok(Type::Boolean)
                }
            },
            Expr::Binary { op, l, r, line } => {
                let l = self.operand(l)?;
                let r = self.operand(r)?;
                self.binary(*op, l, r, *line)
            }
            Expr::Call {
                target,
                name,
                args,
                line,
            } => {
                // A class name before the dot makes a static call; any
                // other target is the receiver; no target calls a method
                // of this class.
                let (class, recv) = match target.as_deref() {
                    None => (self.class.name.clone(), Recv::Implicit),
                    Some(t) => match self.class_named(t) {
                        Some(cls) => (cls.to_string(), Recv::Class),
                        None => {
                            let tt = self.expr(t)?;
                            let cls = class_name(&tt).ok_or_else(|| {
                                self.err(*line, format!("no method {name} on {tt:?}"))
                            })?;
                            (cls.to_string(), Recv::Value)
                        }
                    },
                };
                let args = self.operands(args)?;
                self.invoke(&class, recv, name, args, *line)
            }
            Expr::Cast { ty, e, line } => {
                let from = self.expr(e)?;
                self.primitive_cast(&from, ty, *line)?;
                Ok(ty.clone())
            }
            Expr::Assign { line, .. } | Expr::IncDec { line, .. } => Err(self.err(
                *line,
                "assignment is a statement in MiniJava, not an expression",
            )),
        }
    }

    /// Emit `e` into a fragment cut from the method body, for the caller
    /// to splice back once it has emitted the code that goes before it.
    fn operand(&mut self, e: &Expr) -> Result<Operand, CompileError> {
        let mark = self.m.mark();
        let t = self.expr(e)?;
        Ok((t, self.m.take_since(mark)))
    }

    fn operands(&mut self, es: &[Expr]) -> Result<Vec<Operand>, CompileError> {
        es.iter().map(|e| self.operand(e)).collect()
    }

    /// The class `e` names, when it is a class name rather than a
    /// variable: the target of a static member.
    fn class_named<'e>(&self, e: &'e Expr) -> Option<&'e str> {
        match e {
            Expr::Var(name, _)
                if self.lookup_local(name).is_none() && self.table.class(name).is_some() =>
            {
                Some(name)
            }
            _ => None,
        }
    }

    fn primitive_cast(&mut self, from: &Type, to: &Type, line: u32) -> Result<(), CompileError> {
        use Type::*;
        let e = |g: &Gen<'_>| g.err(line, format!("cannot cast {from:?} to {to:?}"));
        // Normalize the source to int/long/double category first.
        match (from, to) {
            (a, b) if a == b => {}
            (Int | Char | Byte, Int) => {}
            (Int | Char | Byte, Long) => self.m.simple(op::I2L),
            (Int | Char | Byte, Double) => self.m.simple(op::I2D),
            (Int | Byte, Char) => self.m.simple(op::I2C),
            (Int | Char, Byte) => self.m.simple(op::I2B),
            (Long, Int) => self.m.simple(op::L2I),
            (Long, Double) => self.m.simple(op::L2D),
            (Long, Char) => {
                self.m.simple(op::L2I);
                self.m.simple(op::I2C);
            }
            (Long, Byte) => {
                self.m.simple(op::L2I);
                self.m.simple(op::I2B);
            }
            (Double, Int) => self.m.simple(op::D2I),
            (Double, Long) => self.m.simple(op::D2L),
            (Double, Char) => {
                self.m.simple(op::D2I);
                self.m.simple(op::I2C);
            }
            _ => return Err(e(self)),
        }
        Ok(())
    }

    /// Apply `bop` to two operands, splicing their code back in.
    fn binary(
        &mut self,
        bop: BinOp,
        (lt, lf): Operand,
        (rt, rf): Operand,
        line: u32,
    ) -> Result<Type, CompileError> {
        use BinOp::*;
        match bop {
            LAnd | LOr => {
                if lt != Type::Boolean || rt != Type::Boolean {
                    return Err(self.err(line, format!("&&/|| on {lt:?} and {rt:?}")));
                }
                // Short circuit, producing a boolean value.
                let short = self.m.new_label();
                let end = self.m.new_label();
                self.m.splice(lf);
                let branch_op = if bop == LAnd { op::IFEQ } else { op::IFNE };
                self.m.branch(branch_op, short);
                self.m.splice(rf);
                self.m.goto_(end);
                self.m.bind(short);
                self.m.ldc_int(i32::from(bop == LOr));
                self.m.bind(end);
                Ok(Type::Boolean)
            }
            Add if lt == Type::Str || rt == Type::Str => self.concat([(lt, lf), (rt, rf)], line),
            Shl | Shr | Ushr => {
                let result = self.promote_shift(&lt);
                self.m.splice(lf);
                if lt != result {
                    self.coerce(&lt, &result, line)?;
                }
                self.m.splice(rf);
                // Shift distance is always int.
                if rt == Type::Long {
                    self.m.simple(op::L2I);
                } else if !matches!(rt, Type::Int | Type::Char | Type::Byte) {
                    return Err(self.err(line, format!("shift distance is {rt:?}")));
                }
                let code = match (bop, &result) {
                    (Shl, Type::Int) => op::ISHL,
                    (Shr, Type::Int) => op::ISHR,
                    (Ushr, Type::Int) => op::IUSHR,
                    (Shl, _) => op::LSHL,
                    (Shr, _) => op::LSHR,
                    (Ushr, _) => op::LUSHR,
                    _ => unreachable!(),
                };
                self.m.simple(code);
                Ok(result)
            }
            Lt | Le | Gt | Ge | Eq | Ne => self.comparison(bop, (lt, lf), (rt, rf), line),
            Add | Sub | Mul | Div | Rem | And | Or | Xor => {
                let result = self.promoted(&lt, &rt, line)?;
                self.m.splice(lf);
                self.coerce(&lt, &result, line)?;
                self.m.splice(rf);
                self.coerce(&rt, &result, line)?;
                let code = match (&result, bop) {
                    (Type::Int, Add) => op::IADD,
                    (Type::Int, Sub) => op::ISUB,
                    (Type::Int, Mul) => op::IMUL,
                    (Type::Int, Div) => op::IDIV,
                    (Type::Int, Rem) => op::IREM,
                    // Booleans take only `&`, `|` and `^`.
                    (Type::Int | Type::Boolean, And) => op::IAND,
                    (Type::Int | Type::Boolean, Or) => op::IOR,
                    (Type::Int | Type::Boolean, Xor) => op::IXOR,
                    (Type::Long, Add) => op::LADD,
                    (Type::Long, Sub) => op::LSUB,
                    (Type::Long, Mul) => op::LMUL,
                    (Type::Long, Div) => op::LDIV,
                    (Type::Long, Rem) => op::LREM,
                    (Type::Long, And) => op::LAND,
                    (Type::Long, Or) => op::LOR,
                    (Type::Long, Xor) => op::LXOR,
                    (Type::Double, Add) => op::DADD,
                    (Type::Double, Sub) => op::DSUB,
                    (Type::Double, Mul) => op::DMUL,
                    (Type::Double, Div) => op::DDIV,
                    (Type::Double, Rem) => op::DREM,
                    _ => {
                        return Err(self.err(
                            line,
                            format!("operator {bop:?} not applicable to {result:?}"),
                        ))
                    }
                };
                self.m.simple(code);
                Ok(result)
            }
        }
    }

    fn comparison(
        &mut self,
        bop: BinOp,
        (lt, lf): Operand,
        (rt, rf): Operand,
        line: u32,
    ) -> Result<Type, CompileError> {
        use BinOp::*;
        let truel = self.m.new_label();
        let end = self.m.new_label();
        let branch = if lt.is_reference() || rt.is_reference() {
            if !matches!(bop, Eq | Ne) {
                return Err(self.err(line, "ordering comparison on references".to_string()));
            }
            self.m.splice(lf);
            self.m.splice(rf);
            if bop == Eq {
                op::IF_ACMPEQ
            } else {
                op::IF_ACMPNE
            }
        } else if lt == Type::Boolean && rt == Type::Boolean {
            if !matches!(bop, Eq | Ne) {
                return Err(self.err(line, "ordering comparison on booleans".to_string()));
            }
            self.m.splice(lf);
            self.m.splice(rf);
            icmp_branch(bop)
        } else {
            let prom = self.promoted(&lt, &rt, line)?;
            self.m.splice(lf);
            self.coerce(&lt, &prom, line)?;
            self.m.splice(rf);
            self.coerce(&rt, &prom, line)?;
            match prom {
                Type::Long => {
                    self.m.simple(op::LCMP);
                    zero_branch(bop)
                }
                Type::Double => {
                    self.m.simple(op::DCMPL);
                    zero_branch(bop)
                }
                _ => icmp_branch(bop),
            }
        };
        self.m.branch(branch, truel);
        self.m.ldc_int(0);
        self.m.goto_(end);
        self.m.bind(truel);
        self.m.ldc_int(1);
        self.m.bind(end);
        Ok(Type::Boolean)
    }

    /// String `+`: a `StringBuilder` that appends both sides, each
    /// through the `append` overload its type resolves to.
    fn concat(&mut self, sides: [Operand; 2], line: u32) -> Result<Type, CompileError> {
        let [builder, append, to_string] = CONCAT;
        self.m.new_object(self.table.binary_name(builder));
        self.m.dup();
        self.init(builder, Vec::new(), line)?;
        for side in sides {
            self.invoke(builder, Recv::Value, append, vec![side], line)?;
        }
        self.invoke(builder, Recv::Value, to_string, Vec::new(), line)
    }

    /// Call the constructor of `class` that `args` resolve to, on the new
    /// object under them.
    fn init(&mut self, class: &str, args: Vec<Operand>, line: u32) -> Result<(), CompileError> {
        let table = self.table;
        let types: Vec<Type> = args.iter().map(|(t, _)| t.clone()).collect();
        let (info, params) = table.find_ctor(class, &types).ok_or_else(|| {
            self.err(
                line,
                format!("no constructor {class} applicable to {types:?}"),
            )
        })?;
        self.splice_args(args, params, line)?;
        let desc = method_descriptor(table, params, &Type::Void);
        self.m.invokespecial(&info.binary, "<init>", &desc);
        Ok(())
    }

    /// Call the method `name` of `class` that `args` resolve to, after
    /// the receiver `recv` describes, and return its result type.
    fn invoke(
        &mut self,
        class: &str,
        recv: Recv,
        name: &str,
        args: Vec<Operand>,
        line: u32,
    ) -> Result<Type, CompileError> {
        let table = self.table;
        let types: Vec<Type> = args.iter().map(|(t, _)| t.clone()).collect();
        let (decl, sig) = table.find_method(class, name, &types).ok_or_else(|| {
            self.err(
                line,
                format!("no method {class}.{name} applicable to {types:?}"),
            )
        })?;
        match (recv, sig.is_static) {
            (Recv::Class, false) => {
                return Err(self.err(line, format!("{class}.{name} is not static")))
            }
            (Recv::Value, true) => {
                return Err(self.err(line, format!("static method {name} via instance")))
            }
            (Recv::Implicit, false) if self.is_static => {
                return Err(self.err(line, format!("instance method {name} in static context")))
            }
            (Recv::Implicit, false) => self.m.aload(0),
            _ => {}
        }
        self.splice_args(args, &sig.params, line)?;
        let desc = method_descriptor(table, &sig.params, &sig.ret);
        if sig.is_static {
            self.m.invokestatic(&decl.binary, name, &desc);
        } else {
            self.m.invokevirtual(&decl.binary, name, &desc);
        }
        Ok(sig.ret.clone())
    }

    /// Splice each argument back in, converted to its parameter's type.
    fn splice_args(
        &mut self,
        args: Vec<Operand>,
        params: &[Type],
        line: u32,
    ) -> Result<(), CompileError> {
        for ((t, code), p) in args.into_iter().zip(params) {
            self.m.splice(code);
            self.coerce(&t, p, line)?;
        }
        Ok(())
    }
}

/// An expression emitted into a fragment, with its type.
type Operand = (Type, Fragment);

/// What a call's receiver is.
enum Recv {
    /// A class name: the method must be static.
    Class,
    /// A value already emitted: the method must not be static.
    Value,
    /// None written: `this` for an instance method.
    Implicit,
}

fn icmp_branch(bop: BinOp) -> u8 {
    match bop {
        BinOp::Lt => op::IF_ICMPLT,
        BinOp::Le => op::IF_ICMPLE,
        BinOp::Gt => op::IF_ICMPGT,
        BinOp::Ge => op::IF_ICMPGE,
        BinOp::Eq => op::IF_ICMPEQ,
        _ => op::IF_ICMPNE,
    }
}

fn zero_branch(bop: BinOp) -> u8 {
    match bop {
        BinOp::Lt => op::IFLT,
        BinOp::Le => op::IFLE,
        BinOp::Gt => op::IFGT,
        BinOp::Ge => op::IFGE,
        BinOp::Eq => op::IFEQ,
        _ => op::IFNE,
    }
}
