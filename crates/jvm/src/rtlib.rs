//! The bundled runtime class library.
//!
//! The original DoppioJVM runs the real OpenJDK Java Class Library,
//! downloading its class files on demand and implementing the native
//! methods in JavaScript (§6.3–6.4). The OpenJDK JCL is not available
//! here, so this module synthesizes the minimal library the paper's
//! workload categories require — real class files, assembled with the
//! classfile builder. It declares no native by name: each class
//! declares the natives [`crate::natives`]' table lists for it, in the
//! table's order, between its bytecode methods. Everything else (user
//! code, the benchmark programs) still loads through the Doppio file
//! system exactly as §6.4 describes.
//!
//! The library is built once per thread ([`shared_runtime_classes`]).
//! Every JVM still defines each class itself, so its class ids,
//! `class_defined` events, statics and interned strings are its own;
//! only the class files, which nothing mutates once defined, are
//! shared.

use std::rc::Rc;

use doppio_classfile::access::{ACC_ABSTRACT, ACC_INTERFACE, ACC_PUBLIC, ACC_STATIC, ACC_SUPER};
use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
use doppio_classfile::ClassFile;

use crate::natives;

/// Declare the natives [`natives`]' table lists for `class`, in its
/// order.
fn declare_natives(b: &mut ClassBuilder, class: &str) {
    for &(flags, name, desc, _) in natives::declared(class) {
        b.add_method(MethodBuilder::new(flags, name, desc, 0));
    }
}

fn default_ctor(b: &mut ClassBuilder, super_name: &str) {
    let mut m = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
    m.aload(0);
    m.invokespecial(super_name, "<init>", "()V");
    m.return_void();
    b.add_method(m);
}

fn object() -> ClassFile {
    let mut b = ClassBuilder::new("java/lang/Object", "java/lang/Object");
    b.set_access(ACC_PUBLIC | ACC_SUPER);
    let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
    init.return_void();
    b.add_method(init);
    declare_natives(&mut b, "java/lang/Object");
    // equals: reference identity, in bytecode.
    let mut eq = MethodBuilder::new(ACC_PUBLIC, "equals", "(Ljava/lang/Object;)Z", 2);
    let ne = eq.new_label();
    eq.aload(0);
    eq.aload(1);
    eq.branch(doppio_classfile::opcodes::IF_ACMPNE, ne);
    eq.ldc_int(1);
    eq.ireturn();
    eq.bind(ne);
    eq.ldc_int(0);
    eq.ireturn();
    b.add_method(eq);
    let mut cf = b.finish();
    cf.super_class = 0; // Object has no superclass
    cf
}

fn class_class() -> ClassFile {
    let mut b = ClassBuilder::new("java/lang/Class", "java/lang/Object");
    b.add_field(ACC_PUBLIC, "name", "Ljava/lang/String;");
    declare_natives(&mut b, "java/lang/Class");
    b.finish()
}

fn string() -> ClassFile {
    let mut b = ClassBuilder::new("java/lang/String", "java/lang/Object");
    declare_natives(&mut b, "java/lang/String");
    // toString is the identity.
    let mut ts = MethodBuilder::new(ACC_PUBLIC, "toString", "()Ljava/lang/String;", 1);
    ts.aload(0);
    ts.areturn();
    b.add_method(ts);
    b.finish()
}

fn string_builder() -> ClassFile {
    let mut b = ClassBuilder::new("java/lang/StringBuilder", "java/lang/Object");
    declare_natives(&mut b, "java/lang/StringBuilder");
    // append(Object) goes through toString, with a null check.
    let mut m = MethodBuilder::new(
        ACC_PUBLIC,
        "append",
        "(Ljava/lang/Object;)Ljava/lang/StringBuilder;",
        2,
    );
    let nonnull = m.new_label();
    let go = m.new_label();
    m.aload(1);
    m.branch(doppio_classfile::opcodes::IFNONNULL, nonnull);
    m.ldc_string("null");
    m.astore(1);
    m.goto_(go);
    m.bind(nonnull);
    m.aload(1);
    m.invokevirtual("java/lang/Object", "toString", "()Ljava/lang/String;");
    m.astore(1);
    m.bind(go);
    m.aload(0);
    m.aload(1);
    m.checkcast("java/lang/String");
    m.invokevirtual(
        "java/lang/StringBuilder",
        "append",
        "(Ljava/lang/String;)Ljava/lang/StringBuilder;",
    );
    m.areturn();
    b.add_method(m);
    b.finish()
}

fn throwable() -> ClassFile {
    let mut b = ClassBuilder::new("java/lang/Throwable", "java/lang/Object");
    b.add_field(ACC_PUBLIC, "message", "Ljava/lang/String;");
    b.add_field(ACC_PUBLIC, "stackTrace", "Ljava/lang/String;");
    let mut init0 = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
    init0.aload(0);
    init0.invokespecial("java/lang/Object", "<init>", "()V");
    init0.aload(0);
    init0.invokevirtual(
        "java/lang/Throwable",
        "fillInStackTrace",
        "()Ljava/lang/Throwable;",
    );
    init0.pop();
    init0.return_void();
    b.add_method(init0);
    let mut init1 = MethodBuilder::new(ACC_PUBLIC, "<init>", "(Ljava/lang/String;)V", 2);
    init1.aload(0);
    init1.invokespecial("java/lang/Object", "<init>", "()V");
    init1.aload(0);
    init1.aload(1);
    init1.putfield("java/lang/Throwable", "message", "Ljava/lang/String;");
    init1.aload(0);
    init1.invokevirtual(
        "java/lang/Throwable",
        "fillInStackTrace",
        "()Ljava/lang/Throwable;",
    );
    init1.pop();
    init1.return_void();
    b.add_method(init1);
    declare_natives(&mut b, "java/lang/Throwable");
    b.finish()
}

/// A trivial throwable subclass with the two standard constructors.
fn throwable_subclass(name: &str, super_name: &str) -> ClassFile {
    let mut b = ClassBuilder::new(name, super_name);
    default_ctor(&mut b, super_name);
    let mut init1 = MethodBuilder::new(ACC_PUBLIC, "<init>", "(Ljava/lang/String;)V", 2);
    init1.aload(0);
    init1.aload(1);
    init1.invokespecial(super_name, "<init>", "(Ljava/lang/String;)V");
    init1.return_void();
    b.add_method(init1);
    b.finish()
}

fn print_stream() -> ClassFile {
    let mut b = ClassBuilder::new("java/io/PrintStream", "java/lang/Object");
    b.add_field(ACC_PUBLIC, "fd", "I");
    let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "(I)V", 2);
    init.aload(0);
    init.invokespecial("java/lang/Object", "<init>", "()V");
    init.aload(0);
    init.iload(1);
    init.putfield("java/io/PrintStream", "fd", "I");
    init.return_void();
    b.add_method(init);
    declare_natives(&mut b, "java/io/PrintStream");
    // print(Object)/println(Object) via toString.
    for (name, newline) in [("print", false), ("println", true)] {
        let mut m = MethodBuilder::new(ACC_PUBLIC, name, "(Ljava/lang/Object;)V", 2);
        let nonnull = m.new_label();
        let go = m.new_label();
        m.aload(1);
        m.branch(doppio_classfile::opcodes::IFNONNULL, nonnull);
        m.ldc_string("null");
        m.astore(1);
        m.goto_(go);
        m.bind(nonnull);
        m.aload(1);
        m.invokevirtual("java/lang/Object", "toString", "()Ljava/lang/String;");
        m.astore(1);
        m.bind(go);
        m.aload(0);
        m.aload(1);
        m.checkcast("java/lang/String");
        m.invokevirtual(
            "java/io/PrintStream",
            if newline { "println" } else { "print" },
            "(Ljava/lang/String;)V",
        );
        m.return_void();
        b.add_method(m);
    }
    b.finish()
}

fn system() -> ClassFile {
    let mut b = ClassBuilder::new("java/lang/System", "java/lang/Object");
    b.add_field(ACC_PUBLIC | ACC_STATIC, "out", "Ljava/io/PrintStream;");
    b.add_field(ACC_PUBLIC | ACC_STATIC, "err", "Ljava/io/PrintStream;");
    let mut clinit = MethodBuilder::new(ACC_STATIC, "<clinit>", "()V", 0);
    for (field, fd) in [("out", 1), ("err", 2)] {
        clinit.new_object("java/io/PrintStream");
        clinit.dup();
        clinit.ldc_int(fd);
        clinit.invokespecial("java/io/PrintStream", "<init>", "(I)V");
        clinit.putstatic("java/lang/System", field, "Ljava/io/PrintStream;");
    }
    clinit.return_void();
    b.add_method(clinit);
    declare_natives(&mut b, "java/lang/System");
    b.finish()
}

/// A class whose methods are all natives.
fn native_class(name: &str) -> ClassFile {
    let mut b = ClassBuilder::new(name, "java/lang/Object");
    declare_natives(&mut b, name);
    b.finish()
}

fn runnable() -> ClassFile {
    let mut b = ClassBuilder::new("java/lang/Runnable", "java/lang/Object");
    b.set_access(ACC_PUBLIC | ACC_INTERFACE | ACC_ABSTRACT);
    b.add_method(MethodBuilder::new(
        ACC_PUBLIC | ACC_ABSTRACT,
        "run",
        "()V",
        0,
    ));
    b.finish()
}

fn thread_class() -> ClassFile {
    let mut b = ClassBuilder::new("java/lang/Thread", "java/lang/Object");
    b.add_interface("java/lang/Runnable");
    default_ctor(&mut b, "java/lang/Object");
    // Default run() does nothing; subclasses override.
    let mut run = MethodBuilder::new(ACC_PUBLIC, "run", "()V", 1);
    run.return_void();
    b.add_method(run);
    declare_natives(&mut b, "java/lang/Thread");
    b.finish()
}

fn unsafe_class() -> ClassFile {
    let mut b = ClassBuilder::new("sun/misc/Unsafe", "java/lang/Object");
    default_ctor(&mut b, "java/lang/Object");
    declare_natives(&mut b, "sun/misc/Unsafe");
    b.finish()
}

/// The full runtime library, in definition (dependency) order.
pub fn runtime_classes() -> Vec<ClassFile> {
    let mut out = vec![
        object(),
        class_class(),
        string(),
        string_builder(),
        throwable(),
    ];
    // Exception hierarchy.
    out.push(throwable_subclass(
        "java/lang/Exception",
        "java/lang/Throwable",
    ));
    out.push(throwable_subclass("java/lang/Error", "java/lang/Throwable"));
    out.push(throwable_subclass(
        "java/lang/RuntimeException",
        "java/lang/Exception",
    ));
    for name in [
        "java/lang/NullPointerException",
        "java/lang/ArithmeticException",
        "java/lang/ClassCastException",
        "java/lang/NegativeArraySizeException",
        "java/lang/ArrayStoreException",
        "java/lang/IllegalMonitorStateException",
        "java/lang/IllegalArgumentException",
        "java/lang/IllegalStateException",
        "java/lang/NumberFormatException",
        "java/lang/IndexOutOfBoundsException",
        "java/lang/UnsupportedOperationException",
    ] {
        out.push(throwable_subclass(name, "java/lang/RuntimeException"));
    }
    out.push(throwable_subclass(
        "java/lang/ArrayIndexOutOfBoundsException",
        "java/lang/IndexOutOfBoundsException",
    ));
    out.push(throwable_subclass(
        "java/lang/StringIndexOutOfBoundsException",
        "java/lang/IndexOutOfBoundsException",
    ));
    for name in [
        "java/lang/InternalError",
        "java/lang/OutOfMemoryError",
        "java/lang/StackOverflowError",
        "java/lang/NoClassDefFoundError",
        "java/lang/NoSuchMethodError",
        "java/lang/NoSuchFieldError",
        "java/lang/AbstractMethodError",
        "java/lang/UnsatisfiedLinkError",
    ] {
        out.push(throwable_subclass(name, "java/lang/Error"));
    }
    out.push(throwable_subclass(
        "java/io/IOException",
        "java/lang/Exception",
    ));
    out.push(throwable_subclass(
        "java/lang/InterruptedException",
        "java/lang/Exception",
    ));
    // Services.
    out.push(print_stream());
    out.push(system());
    out.extend(
        [
            "java/lang/Math",
            "java/lang/Integer",
            "java/lang/Long",
            "java/lang/Double",
        ]
        .map(native_class),
    );
    out.push(runnable());
    out.push(thread_class());
    out.push(unsafe_class());
    out.extend(
        [
            "doppio/runtime/FileSystem",
            "doppio/runtime/Console",
            "doppio/runtime/JS",
            "doppio/net/Socket",
        ]
        .map(native_class),
    );
    out
}

thread_local! {
    static RUNTIME_CLASSES: Vec<Rc<ClassFile>> =
        runtime_classes().into_iter().map(Rc::new).collect();
}

/// [`runtime_classes`], built on this thread's first call and shared
/// by every later one: what each JVM defines at boot.
pub fn shared_runtime_classes() -> Vec<Rc<ClassFile>> {
    RUNTIME_CLASSES.with(Vec::clone)
}

/// A runtime class defined on its first throw instead of at boot: the
/// linking error that only malformed code raises, and the error a
/// `<clinit>` that throws raises. A run that never raises them defines
/// only the boot classes, so its class ids and its boot-time
/// `class_defined` trace events do not depend on these classes.
pub fn on_demand_class(name: &str) -> Option<ClassFile> {
    matches!(
        name,
        "java/lang/IncompatibleClassChangeError" | "java/lang/ExceptionInInitializerError"
    )
    .then(|| throwable_subclass(name, "java/lang/Error"))
}

/// Runtime library as `(binary name, class file bytes)` pairs, for
/// mounting on a file system.
pub fn runtime_class_bytes() -> Vec<(String, Vec<u8>)> {
    runtime_classes()
        .into_iter()
        .map(|cf| {
            let name = cf.name().expect("rt class name").to_string();
            (name, cf.to_bytes())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_classes_parse_back() {
        for (name, bytes) in runtime_class_bytes() {
            let cf = doppio_classfile::parse(&bytes).expect(&name);
            assert_eq!(cf.name().unwrap(), name);
        }
    }

    #[test]
    fn dependency_order_is_definable() {
        use crate::class::ClassRegistry;
        let mut reg = ClassRegistry::new();
        for mut cf in runtime_classes() {
            if cf.name().unwrap() == "java/lang/Object" {
                cf.super_class = 0;
            }
            reg.define(cf).unwrap();
        }
        assert!(reg.lookup("java/lang/NullPointerException").is_some());
        assert!(reg.lookup("doppio/net/Socket").is_some());
    }
}
