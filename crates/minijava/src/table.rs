//! The class symbol table: the program's classes next to the runtime
//! library's, which [`crate::library`] lists.
//!
//! Every field, constructor and method a program names resolves here,
//! by one rule for both kinds of class: the first applicable member in
//! declaration order, walking the superclass chain nearest class first
//! — from a user class on into `Thread` and `Object`.

use std::collections::HashMap;

use crate::ast::{ClassDecl, Program, Type};
use crate::error::CompileError;
use crate::library::{self, ROOT};

/// A method signature.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSig {
    /// `static`?
    pub is_static: bool,
    /// Name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
}

/// One class: declared by the program, or listed by the library table.
#[derive(Debug, Clone)]
pub struct ClassInfo {
    /// Source name.
    pub name: String,
    /// Binary (JVM) name; a user class's is its source name.
    pub binary: String,
    /// Superclass source name (`None` only for `Object`).
    pub super_name: Option<String>,
    /// Whether no class may extend it.
    pub is_final: bool,
    /// Fields: (is_static, type, name).
    pub fields: Vec<(bool, Type, String)>,
    /// Methods, in declaration order.
    pub methods: Vec<MethodSig>,
    /// Constructor parameter lists.
    pub ctors: Vec<Vec<Type>>,
}

/// The symbol table of a compilation unit: the program's classes, with
/// the library's behind them.
#[derive(Debug, Default)]
pub struct ClassTable {
    classes: HashMap<String, ClassInfo>,
}

impl ClassTable {
    /// Collect declarations from a parsed program.
    pub fn build(prog: &Program) -> Result<ClassTable, CompileError> {
        let mut t = ClassTable::default();
        for c in &prog.classes {
            if t.class(&c.name).is_some() {
                return Err(CompileError::check(
                    c.line,
                    format!("duplicate class {}", c.name),
                ));
            }
            t.classes.insert(c.name.clone(), Self::info_of(c));
        }
        let classes = t.classes.len() + library::classes().len();
        for c in &prog.classes {
            let sup = c.super_name.as_deref().unwrap_or(ROOT);
            let msg = match t.class(sup) {
                None => format!("unknown superclass {sup}"),
                Some(s) if s.is_final => format!("cannot extend final class {sup}"),
                // An acyclic chain is no longer than the classes there are.
                _ if t.chain(&c.name).nth(classes).is_some() => {
                    format!("cyclic inheritance involving {}", c.name)
                }
                _ => continue,
            };
            return Err(CompileError::check(c.line, msg));
        }
        Ok(t)
    }

    fn info_of(c: &ClassDecl) -> ClassInfo {
        let mut ctors: Vec<Vec<Type>> = c
            .ctors
            .iter()
            .map(|k| k.params.iter().map(|(t, _)| t.clone()).collect())
            .collect();
        if ctors.is_empty() {
            ctors.push(Vec::new()); // implicit default constructor
        }
        ClassInfo {
            name: c.name.clone(),
            binary: c.name.clone(),
            super_name: Some(c.super_name.as_deref().unwrap_or(ROOT).to_string()),
            is_final: false,
            fields: c
                .fields
                .iter()
                .map(|f| (f.is_static, f.ty.clone(), f.name.clone()))
                .collect(),
            methods: c
                .methods
                .iter()
                .map(|m| MethodSig {
                    is_static: m.is_static,
                    name: m.name.clone(),
                    params: m.params.iter().map(|(t, _)| t.clone()).collect(),
                    ret: m.ret.clone(),
                })
                .collect(),
            ctors,
        }
    }

    /// Look up a class, the program's or the library's.
    pub fn class(&self, name: &str) -> Option<&ClassInfo> {
        self.classes
            .get(name)
            .or_else(|| library::classes().get(name))
    }

    /// Binary (JVM) name of a source class name.
    pub fn binary_name<'t>(&'t self, name: &'t str) -> &'t str {
        self.class(name).map_or(name, |c| &c.binary)
    }

    /// `class` and its superclasses, nearest first.
    fn chain<'t>(&'t self, class: &str) -> impl Iterator<Item = &'t ClassInfo> {
        std::iter::successors(self.class(class), |c| self.class(c.super_name.as_deref()?))
    }

    /// Find a field, walking the superclass chain. Returns `(declaring
    /// class, type, is_static)`.
    pub fn find_field(&self, class: &str, field: &str) -> Option<(&ClassInfo, &Type, bool)> {
        self.chain(class).find_map(|c| {
            let (is_static, ty, _) = c.fields.iter().find(|(_, _, n)| n == field)?;
            Some((c, ty, *is_static))
        })
    }

    /// Find a method by name and applicable argument types, walking the
    /// superclass chain. Returns `(declaring class, signature)`.
    pub fn find_method(
        &self,
        class: &str,
        name: &str,
        args: &[Type],
    ) -> Option<(&ClassInfo, &MethodSig)> {
        self.chain(class).find_map(|c| {
            let m = c
                .methods
                .iter()
                .find(|m| m.name == name && self.applicable(&m.params, args))?;
            Some((c, m))
        })
    }

    /// Find an applicable constructor of `class` itself.
    pub fn find_ctor(&self, class: &str, args: &[Type]) -> Option<(&ClassInfo, &[Type])> {
        let c = self.class(class)?;
        let params = c.ctors.iter().find(|p| self.applicable(p, args))?;
        Some((c, params))
    }

    fn applicable(&self, params: &[Type], args: &[Type]) -> bool {
        params.len() == args.len() && params.iter().zip(args).all(|(p, a)| self.assignable(a, p))
    }

    /// Is `sub` (a source class name) a subclass of `sup`?
    pub fn is_subclass(&self, sub: &str, sup: &str) -> bool {
        sub == sup || self.chain(sub).any(|c| c.name == sup)
    }

    /// Can a value of `from` be passed where `to` is expected
    /// (identity, widening, subtyping, null)?
    pub fn assignable(&self, from: &Type, to: &Type) -> bool {
        if from == to {
            return true;
        }
        match (from, to) {
            (Type::Null, t) => t.is_reference(),
            // Widening primitive conversions.
            (Type::Int | Type::Char | Type::Byte, Type::Int | Type::Long | Type::Double) => true,
            (Type::Long, Type::Double) => true,
            (Type::Array(_), Type::Class(b)) => b == ROOT,
            _ => match (class_name(from), class_name(to)) {
                (Some(a), Some(b)) => self.is_subclass(a, b),
                _ => false,
            },
        }
    }
}

/// The class whose members a value of type `ty` has, if any: MiniJava
/// types `String` apart from the other classes.
pub fn class_name(ty: &Type) -> Option<&str> {
    match ty {
        Type::Str => Some("String"),
        Type::Class(c) => Some(c),
        _ => None,
    }
}

/// The type of a value of class `name`; the inverse of [`class_name`].
pub fn class_type(name: &str) -> Type {
    match name {
        "String" => Type::Str,
        _ => Type::Class(name.to_string()),
    }
}

/// JVM descriptor of a MiniJava type.
pub fn descriptor(table: &ClassTable, ty: &Type) -> String {
    match ty {
        Type::Int => "I".into(),
        Type::Long => "J".into(),
        Type::Boolean => "Z".into(),
        Type::Char => "C".into(),
        Type::Byte => "B".into(),
        Type::Double => "D".into(),
        Type::Void => "V".into(),
        Type::Null => format!("L{};", table.binary_name(ROOT)),
        Type::Array(t) => format!("[{}", descriptor(table, t)),
        Type::Str => format!("L{};", table.binary_name("String")),
        Type::Class(c) => format!("L{};", table.binary_name(c)),
    }
}

/// Method descriptor from parameter and return types.
pub fn method_descriptor(table: &ClassTable, params: &[Type], ret: &Type) -> String {
    let mut s = String::from("(");
    for p in params {
        s.push_str(&descriptor(table, p));
    }
    s.push(')');
    s.push_str(&descriptor(table, ret));
    s
}
