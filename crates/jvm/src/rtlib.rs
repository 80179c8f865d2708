//! The bundled runtime class library.
//!
//! The original DoppioJVM runs the real OpenJDK Java Class Library,
//! downloading its class files on demand and implementing the native
//! methods in JavaScript (§6.3–6.4). The OpenJDK JCL is not available
//! here, so this module synthesizes the minimal library the paper's
//! workload categories require — real class files, assembled with the
//! classfile builder, whose `native` methods land in
//! [`crate::natives`]. Everything else (user code, the benchmark
//! programs) still loads through the Doppio file system exactly as
//! §6.4 describes.
//!
//! The library is built once per thread ([`shared_runtime_classes`]).
//! Every JVM still defines each class itself, so its class ids,
//! `class_defined` events, statics and interned strings are its own;
//! only the class files, which nothing mutates once defined, are
//! shared.

use std::rc::Rc;

use doppio_classfile::access::{
    ACC_ABSTRACT, ACC_INTERFACE, ACC_NATIVE, ACC_PUBLIC, ACC_STATIC, ACC_SUPER,
};
use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
use doppio_classfile::ClassFile;

const NATIVE: u16 = ACC_PUBLIC | ACC_NATIVE;
const NATIVE_STATIC: u16 = ACC_PUBLIC | ACC_NATIVE | ACC_STATIC;

fn native(b: &mut ClassBuilder, flags: u16, name: &str, desc: &str) {
    b.add_method(MethodBuilder::new(flags, name, desc, 0));
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
    native(&mut b, NATIVE, "hashCode", "()I");
    native(&mut b, NATIVE, "getClass", "()Ljava/lang/Class;");
    native(&mut b, NATIVE, "toString", "()Ljava/lang/String;");
    native(&mut b, NATIVE, "wait", "()V");
    native(&mut b, NATIVE, "notify", "()V");
    native(&mut b, NATIVE, "notifyAll", "()V");
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
    native(&mut b, NATIVE, "getName", "()Ljava/lang/String;");
    b.finish()
}

fn string() -> ClassFile {
    let mut b = ClassBuilder::new("java/lang/String", "java/lang/Object");
    for (name, desc) in [
        ("<init>", "()V"),
        ("<init>", "([B)V"),
        ("<init>", "([C)V"),
        ("length", "()I"),
        ("charAt", "(I)C"),
        ("equals", "(Ljava/lang/Object;)Z"),
        ("hashCode", "()I"),
        ("compareTo", "(Ljava/lang/String;)I"),
        ("concat", "(Ljava/lang/String;)Ljava/lang/String;"),
        ("substring", "(II)Ljava/lang/String;"),
        ("substring", "(I)Ljava/lang/String;"),
        ("indexOf", "(I)I"),
        ("indexOf", "(Ljava/lang/String;)I"),
        ("startsWith", "(Ljava/lang/String;)Z"),
        ("toCharArray", "()[C"),
        ("getBytes", "()[B"),
        ("intern", "()Ljava/lang/String;"),
    ] {
        native(&mut b, NATIVE, name, desc);
    }
    for desc in [
        "(I)Ljava/lang/String;",
        "(J)Ljava/lang/String;",
        "(D)Ljava/lang/String;",
        "(C)Ljava/lang/String;",
        "(Z)Ljava/lang/String;",
    ] {
        native(&mut b, NATIVE_STATIC, "valueOf", desc);
    }
    // toString is the identity.
    let mut ts = MethodBuilder::new(ACC_PUBLIC, "toString", "()Ljava/lang/String;", 1);
    ts.aload(0);
    ts.areturn();
    b.add_method(ts);
    b.finish()
}

fn string_builder() -> ClassFile {
    let mut b = ClassBuilder::new("java/lang/StringBuilder", "java/lang/Object");
    for (name, desc) in [
        ("<init>", "()V"),
        ("append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;"),
        ("append", "(I)Ljava/lang/StringBuilder;"),
        ("append", "(J)Ljava/lang/StringBuilder;"),
        ("append", "(C)Ljava/lang/StringBuilder;"),
        ("append", "(Z)Ljava/lang/StringBuilder;"),
        ("append", "(D)Ljava/lang/StringBuilder;"),
        ("toString", "()Ljava/lang/String;"),
        ("length", "()I"),
    ] {
        native(&mut b, NATIVE, name, desc);
    }
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
    native(&mut b, NATIVE, "getMessage", "()Ljava/lang/String;");
    native(
        &mut b,
        NATIVE,
        "fillInStackTrace",
        "()Ljava/lang/Throwable;",
    );
    native(&mut b, NATIVE, "printStackTrace", "()V");
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
    for base in ["print", "println"] {
        for desc in [
            "(Ljava/lang/String;)V",
            "(I)V",
            "(J)V",
            "(C)V",
            "(Z)V",
            "(D)V",
            "(F)V",
        ] {
            native(&mut b, NATIVE, base, desc);
        }
    }
    native(&mut b, NATIVE, "println", "()V");
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
    native(&mut b, NATIVE_STATIC, "currentTimeMillis", "()J");
    native(&mut b, NATIVE_STATIC, "nanoTime", "()J");
    native(&mut b, NATIVE_STATIC, "exit", "(I)V");
    native(
        &mut b,
        NATIVE_STATIC,
        "identityHashCode",
        "(Ljava/lang/Object;)I",
    );
    native(
        &mut b,
        NATIVE_STATIC,
        "arraycopy",
        "(Ljava/lang/Object;ILjava/lang/Object;II)V",
    );
    b.finish()
}

fn math() -> ClassFile {
    let mut b = ClassBuilder::new("java/lang/Math", "java/lang/Object");
    for (name, desc) in [
        ("sqrt", "(D)D"),
        ("floor", "(D)D"),
        ("ceil", "(D)D"),
        ("pow", "(DD)D"),
        ("log", "(D)D"),
        ("sin", "(D)D"),
        ("cos", "(D)D"),
        ("abs", "(D)D"),
        ("abs", "(I)I"),
        ("abs", "(J)J"),
        ("max", "(II)I"),
        ("min", "(II)I"),
        ("max", "(JJ)J"),
        ("min", "(JJ)J"),
        ("max", "(DD)D"),
        ("min", "(DD)D"),
        ("random", "()D"),
    ] {
        native(&mut b, NATIVE_STATIC, name, desc);
    }
    b.finish()
}

fn boxed_helpers() -> Vec<ClassFile> {
    let mut out = Vec::new();
    let mut b = ClassBuilder::new("java/lang/Integer", "java/lang/Object");
    native(&mut b, NATIVE_STATIC, "parseInt", "(Ljava/lang/String;)I");
    native(&mut b, NATIVE_STATIC, "toString", "(I)Ljava/lang/String;");
    native(
        &mut b,
        NATIVE_STATIC,
        "toHexString",
        "(I)Ljava/lang/String;",
    );
    out.push(b.finish());
    let mut b = ClassBuilder::new("java/lang/Long", "java/lang/Object");
    native(&mut b, NATIVE_STATIC, "parseLong", "(Ljava/lang/String;)J");
    native(&mut b, NATIVE_STATIC, "toString", "(J)Ljava/lang/String;");
    out.push(b.finish());
    let mut b = ClassBuilder::new("java/lang/Double", "java/lang/Object");
    native(
        &mut b,
        NATIVE_STATIC,
        "parseDouble",
        "(Ljava/lang/String;)D",
    );
    native(&mut b, NATIVE_STATIC, "toString", "(D)Ljava/lang/String;");
    out.push(b.finish());
    out
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
    native(&mut b, NATIVE, "start", "()V");
    native(&mut b, NATIVE, "join", "()V");
    native(&mut b, NATIVE, "isAlive", "()Z");
    native(&mut b, NATIVE_STATIC, "yield", "()V");
    native(&mut b, NATIVE_STATIC, "sleep", "(J)V");
    native(
        &mut b,
        NATIVE_STATIC,
        "currentThread",
        "()Ljava/lang/Thread;",
    );
    b.finish()
}

fn unsafe_class() -> ClassFile {
    let mut b = ClassBuilder::new("sun/misc/Unsafe", "java/lang/Object");
    default_ctor(&mut b, "java/lang/Object");
    native(&mut b, NATIVE_STATIC, "getUnsafe", "()Lsun/misc/Unsafe;");
    for (name, desc) in [
        ("allocateMemory", "(J)J"),
        ("freeMemory", "(J)V"),
        ("reallocateMemory", "(JJ)J"),
        ("putInt", "(JI)V"),
        ("getInt", "(J)I"),
        ("putLong", "(JJ)V"),
        ("getLong", "(J)J"),
        ("putByte", "(JB)V"),
        ("getByte", "(J)B"),
        ("putDouble", "(JD)V"),
        ("getDouble", "(J)D"),
        ("addressSize", "()I"),
        ("pageSize", "()I"),
        ("isLittleEndian", "()Z"),
    ] {
        native(&mut b, NATIVE, name, desc);
    }
    b.finish()
}

fn doppio_runtime_classes() -> Vec<ClassFile> {
    let mut out = Vec::new();
    let mut b = ClassBuilder::new("doppio/runtime/FileSystem", "java/lang/Object");
    for (name, desc) in [
        ("readFileBytes", "(Ljava/lang/String;)[B"),
        ("writeFileBytes", "(Ljava/lang/String;[B)V"),
        ("listDir", "(Ljava/lang/String;)[Ljava/lang/String;"),
        ("exists", "(Ljava/lang/String;)Z"),
        ("fileSize", "(Ljava/lang/String;)I"),
        ("mkdir", "(Ljava/lang/String;)V"),
        ("unlink", "(Ljava/lang/String;)V"),
    ] {
        native(&mut b, NATIVE_STATIC, name, desc);
    }
    out.push(b.finish());

    let mut b = ClassBuilder::new("doppio/runtime/Console", "java/lang/Object");
    native(&mut b, NATIVE_STATIC, "readLine", "()Ljava/lang/String;");
    native(&mut b, NATIVE_STATIC, "readByte", "()I");
    out.push(b.finish());

    let mut b = ClassBuilder::new("doppio/runtime/JS", "java/lang/Object");
    native(
        &mut b,
        NATIVE_STATIC,
        "eval",
        "(Ljava/lang/String;)Ljava/lang/String;",
    );
    out.push(b.finish());

    let mut b = ClassBuilder::new("doppio/net/Socket", "java/lang/Object");
    for (name, desc) in [
        ("connect", "(Ljava/lang/String;I)I"),
        ("write", "(I[B)V"),
        ("available", "(I)I"),
        ("read", "(II)[B"),
        ("close", "(I)V"),
    ] {
        native(&mut b, NATIVE_STATIC, name, desc);
    }
    out.push(b.finish());
    out
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
    out.push(math());
    out.extend(boxed_helpers());
    out.push(runnable());
    out.push(thread_class());
    out.push(unsafe_class());
    out.extend(doppio_runtime_classes());
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
/// linking error that only malformed code raises. A run that never
/// raises it defines only the boot classes, so its class ids and its
/// boot-time `class_defined` trace events do not depend on this class.
pub fn on_demand_class(name: &str) -> Option<ClassFile> {
    (name == "java/lang/IncompatibleClassChangeError")
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
