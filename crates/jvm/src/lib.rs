//! DoppioJVM: a Java Virtual Machine interpreter on the Doppio runtime
//! system (§6 of the Doppio paper, PLDI 2014).
//!
//! DoppioJVM interprets real JVM class files entirely on top of the
//! simulated browser substrate: it implements the full JVMS2 bytecode
//! set, keeps its call stacks in explicit frame objects (§6.1) so it
//! can suspend-and-resume through the Doppio execution environment,
//! emulates JVM exception handling by walking that virtual stack
//! (§6.6), maps objects to class-reference + field-dictionary pairs
//! (§6.7; dictionary-costed on the virtual clock, laid out in
//! per-class slots on the host — see [`object`]), loads classes lazily
//! through asynchronous file-system downloads (§6.4), and bridges
//! native methods to the Doppio file system, unmanaged heap, and
//! sockets (§6.3, §6.5).
//!
//! # Example
//!
//! ```
//! use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC};
//! use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
//! use doppio_fs::{backends, FileSystem};
//! use doppio_jsengine::{Browser, Engine};
//! use doppio_jvm::{fsutil, Jvm};
//!
//! // Assemble: class Hello { public static void main(String[] a) {
//! //   System.out.println("Hello from the browser!"); } }
//! let mut b = ClassBuilder::new("Hello", "java/lang/Object");
//! let mut m = MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 1);
//! m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
//! m.ldc_string("Hello from the browser!");
//! m.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
//! m.return_void();
//! b.add_method(m);
//!
//! let engine = Engine::new(Browser::Chrome);
//! let fs = FileSystem::new(&engine, backends::in_memory(&engine));
//! fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
//!
//! let jvm = Jvm::new(&engine, fs);
//! jvm.launch("Hello", &[]);
//! let result = jvm.run_to_completion().unwrap();
//! assert_eq!(result.stdout, "Hello from the browser!\n");
//! ```

pub mod class;
pub(crate) mod decode;
pub mod frame;
pub mod fsutil;
pub mod interp;
pub mod jvm;
pub mod loader;
pub mod natives;
pub mod object;
pub mod process;
pub mod rtlib;
pub mod state;
pub mod thread;
pub mod value;

pub use jvm::{Jvm, JvmRunResult, JvmStdin, UserNative};
pub use natives::{NativeCtx, NativeOutcome};
pub use process::spawn_jvm;
pub use value::{ObjRef, Value};

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC, ACC_SYNCHRONIZED};
    use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
    use doppio_classfile::opcodes as op;
    use doppio_classfile::ClassFile;
    use doppio_fs::{backends, FileSystem};
    use doppio_jsengine::{Browser, Engine};

    const MAIN_DESC: &str = "([Ljava/lang/String;)V";
    const PS: &str = "java/io/PrintStream";
    const PUB_STATIC: u16 = ACC_PUBLIC | ACC_STATIC;

    fn run_classes(classes: Vec<ClassFile>, main: &str) -> JvmRunResult {
        run_classes_on(Browser::Chrome, classes, main)
    }

    fn run_classes_on(browser: Browser, classes: Vec<ClassFile>, main: &str) -> JvmRunResult {
        let engine = Engine::new(browser);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &classes);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch(main, &[]);
        jvm.run_to_completion().unwrap()
    }

    /// `System.out.println(<string produced by f>)`.
    fn println_str(m: &mut MethodBuilder, f: impl FnOnce(&mut MethodBuilder)) {
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        f(m);
        m.invokevirtual(PS, "println", "(Ljava/lang/String;)V");
    }

    fn println_int(m: &mut MethodBuilder, f: impl FnOnce(&mut MethodBuilder)) {
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        f(m);
        m.invokevirtual(PS, "println", "(I)V");
    }

    #[test]
    fn hello_world() {
        let mut b = ClassBuilder::new("Hello", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        println_str(&mut m, |m| m.ldc_string("Hello, browser!"));
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Hello");
        assert_eq!(r.stdout, "Hello, browser!\n");
        assert!(r.uncaught.is_none());
        assert!(r.instructions > 0);
    }

    /// `length()` and `charAt()` count UTF-16 units: an ASCII string is
    /// indexed directly, any other walks its UTF-16 encoding, where an
    /// astral character is a surrogate pair.
    #[test]
    fn string_length_and_char_at_count_utf16_units() {
        const STR: &str = "java/lang/String";
        const MIXED: &str = "a\u{e9}\u{20ac}\u{1f600}b"; // a, é, €, 😀, b
        let run = |body: &dyn Fn(&mut MethodBuilder)| {
            let mut b = ClassBuilder::new("Str", "java/lang/Object");
            let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
            body(&mut m);
            m.return_void();
            b.add_method(m);
            run_classes(vec![b.finish()], "Str")
        };
        let length = |m: &mut MethodBuilder, s: &str| {
            println_int(m, |m| {
                m.ldc_string(s);
                m.invokevirtual(STR, "length", "()I");
            })
        };
        let char_at = |m: &mut MethodBuilder, s: &str, i: i32| {
            println_int(m, |m| {
                m.ldc_string(s);
                m.ldc_int(i);
                m.invokevirtual(STR, "charAt", "(I)C");
            })
        };
        let r = run(&|m| {
            length(m, MIXED);
            for i in 0..6 {
                char_at(m, MIXED, i);
            }
            length(m, "ascii");
            char_at(m, "ascii", 4);
        });
        assert_eq!(r.uncaught, None);
        assert_eq!(r.stdout, "6\n97\n233\n8364\n55357\n56832\n98\n5\n105\n");
        for (s, i) in [(MIXED, 6), ("ascii", 5), ("ascii", -1)] {
            let r = run(&|m| char_at(m, s, i));
            assert_eq!(
                r.uncaught,
                Some(format!("java.lang.StringIndexOutOfBoundsException: {i}"))
            );
        }
    }

    #[test]
    fn loop_arithmetic_sums() {
        let mut b = ClassBuilder::new("Sum", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 3);
        let top = m.new_label();
        let done = m.new_label();
        m.ldc_int(0);
        m.istore(1);
        m.ldc_int(0);
        m.istore(2);
        m.bind(top);
        m.iload(2);
        m.ldc_int(100);
        m.branch(op::IF_ICMPGE, done);
        m.iload(1);
        m.iload(2);
        m.iadd();
        m.istore(1);
        m.iinc(2, 1);
        m.goto_(top);
        m.bind(done);
        println_int(&mut m, |m| m.iload(1));
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Sum");
        assert_eq!(r.stdout, "4950\n");
    }

    #[test]
    fn recursion_computes_factorial() {
        let mut b = ClassBuilder::new("Fact", "java/lang/Object");
        let mut f = MethodBuilder::new(PUB_STATIC, "f", "(I)I", 1);
        let rec = f.new_label();
        f.iload(0);
        f.ldc_int(1);
        f.branch(op::IF_ICMPGT, rec);
        f.ldc_int(1);
        f.ireturn();
        f.bind(rec);
        f.iload(0);
        f.iload(0);
        f.ldc_int(1);
        f.isub();
        f.invokestatic("Fact", "f", "(I)I");
        f.imul();
        f.ireturn();
        b.add_method(f);
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        println_int(&mut m, |m| {
            m.ldc_int(10);
            m.invokestatic("Fact", "f", "(I)I");
        });
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Fact");
        assert_eq!(r.stdout, "3628800\n");
    }

    #[test]
    fn long_arithmetic_and_comparison() {
        let mut b = ClassBuilder::new("Longs", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 5);
        m.ldc_long(1i64 << 40);
        m.lstore(1);
        m.lload(1);
        m.ldc_long(3);
        m.simple(op::LMUL);
        m.ldc_long(7);
        m.simple(op::LADD);
        m.lstore(3);
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.lload(3);
        m.invokevirtual(PS, "println", "(J)V");
        let gt = m.new_label();
        let end = m.new_label();
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.lload(3);
        m.lload(1);
        m.simple(op::LCMP);
        m.branch(op::IFGT, gt);
        m.ldc_int(0);
        m.goto_(end);
        m.bind(gt);
        m.ldc_int(1);
        m.bind(end);
        m.invokevirtual(PS, "println", "(Z)V");
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Longs");
        assert_eq!(r.stdout, format!("{}\ntrue\n", (1i64 << 40) * 3 + 7));
    }

    fn animal_classes() -> Vec<ClassFile> {
        let mut animal = ClassBuilder::new("Animal", "java/lang/Object");
        {
            let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
            init.aload(0);
            init.invokespecial("java/lang/Object", "<init>", "()V");
            init.return_void();
            animal.add_method(init);
            let mut s = MethodBuilder::new(ACC_PUBLIC, "sound", "()Ljava/lang/String;", 1);
            s.ldc_string("...");
            s.areturn();
            animal.add_method(s);
            let mut d = MethodBuilder::new(ACC_PUBLIC, "describe", "()Ljava/lang/String;", 1);
            d.aload(0);
            d.invokevirtual("Animal", "sound", "()Ljava/lang/String;");
            d.areturn();
            animal.add_method(d);
        }
        let mut dog = ClassBuilder::new("Dog", "Animal");
        {
            let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
            init.aload(0);
            init.invokespecial("Animal", "<init>", "()V");
            init.return_void();
            dog.add_method(init);
            let mut s = MethodBuilder::new(ACC_PUBLIC, "sound", "()Ljava/lang/String;", 1);
            s.ldc_string("woof");
            s.areturn();
            dog.add_method(s);
        }
        vec![animal.finish(), dog.finish()]
    }

    #[test]
    fn virtual_dispatch_through_supertype() {
        let mut main = ClassBuilder::new("Zoo", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.new_object("Dog");
        m.dup();
        m.invokespecial("Dog", "<init>", "()V");
        m.astore(1);
        println_str(&mut m, |m| {
            m.aload(1);
            m.invokevirtual("Animal", "describe", "()Ljava/lang/String;");
        });
        m.return_void();
        main.add_method(m);
        let mut classes = animal_classes();
        classes.push(main.finish());
        let r = run_classes(classes, "Zoo");
        assert_eq!(r.stdout, "woof\n");
        // Three user classes were fetched through the fs (§6.4).
        assert_eq!(r.class_fetches, 3);
    }

    #[test]
    fn interface_dispatch() {
        let mut task = ClassBuilder::new("Task", "java/lang/Object");
        task.add_interface("java/lang/Runnable");
        let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
        init.aload(0);
        init.invokespecial("java/lang/Object", "<init>", "()V");
        init.return_void();
        task.add_method(init);
        let mut run = MethodBuilder::new(ACC_PUBLIC, "run", "()V", 1);
        println_str(&mut run, |m| m.ldc_string("ran"));
        run.return_void();
        task.add_method(run);

        let mut main = ClassBuilder::new("Iface", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.new_object("Task");
        m.dup();
        m.invokespecial("Task", "<init>", "()V");
        m.astore(1);
        m.aload(1);
        m.invokeinterface("java/lang/Runnable", "run", "()V");
        m.return_void();
        main.add_method(m);
        let r = run_classes(vec![task.finish(), main.finish()], "Iface");
        assert_eq!(r.stdout, "ran\n");
    }

    #[test]
    fn caught_exception_reaches_handler() {
        let mut b = ClassBuilder::new("Catch", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        let start = m.new_label();
        let end = m.new_label();
        let handler = m.new_label();
        let out = m.new_label();
        m.bind(start);
        m.ldc_int(1);
        m.ldc_int(0);
        m.simple(op::IDIV);
        m.pop();
        m.bind(end);
        m.goto_(out);
        m.bind(handler);
        m.astore(1);
        println_str(&mut m, |m| {
            m.ldc_string("caught: ");
            m.aload(1);
            m.invokevirtual("java/lang/Throwable", "getMessage", "()Ljava/lang/String;");
            m.invokevirtual(
                "java/lang/String",
                "concat",
                "(Ljava/lang/String;)Ljava/lang/String;",
            );
        });
        m.bind(out);
        m.return_void();
        m.add_exception_handler(start, end, handler, Some("java/lang/ArithmeticException"));
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Catch");
        assert_eq!(r.stdout, "caught: / by zero\n");
        assert!(r.uncaught.is_none());
    }

    #[test]
    fn uncaught_exception_is_reported() {
        let mut b = ClassBuilder::new("Boom", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        m.new_object("java/lang/RuntimeException");
        m.dup();
        m.ldc_string("kaboom");
        m.invokespecial(
            "java/lang/RuntimeException",
            "<init>",
            "(Ljava/lang/String;)V",
        );
        m.athrow();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Boom");
        assert_eq!(
            r.uncaught.as_deref(),
            Some("java.lang.RuntimeException: kaboom")
        );
        assert!(r.stderr.contains("Exception in thread \"main\""));
        assert!(r.stderr.contains("kaboom"));
    }

    #[test]
    fn array_operations_and_bounds_check() {
        let mut b = ClassBuilder::new("Arrays", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.ldc_int(5);
        m.newarray(10); // int[]
        m.astore(1);
        m.aload(1);
        m.ldc_int(3);
        m.ldc_int(42);
        m.simple(op::IASTORE);
        println_int(&mut m, |m| {
            m.aload(1);
            m.ldc_int(3);
            m.simple(op::IALOAD);
            m.aload(1);
            m.arraylength();
            m.iadd();
        });
        let s = m.new_label();
        let e = m.new_label();
        let h = m.new_label();
        let done = m.new_label();
        m.bind(s);
        m.aload(1);
        m.ldc_int(9);
        m.simple(op::IALOAD);
        m.pop();
        m.bind(e);
        m.goto_(done);
        m.bind(h);
        m.pop();
        println_str(&mut m, |m| m.ldc_string("bounds!"));
        m.bind(done);
        m.return_void();
        m.add_exception_handler(s, e, h, Some("java/lang/ArrayIndexOutOfBoundsException"));
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Arrays");
        assert_eq!(r.stdout, "47\nbounds!\n");
    }

    #[test]
    fn string_builder_concatenation() {
        let mut b = ClassBuilder::new("Strings", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        println_str(&mut m, |m| {
            m.new_object("java/lang/StringBuilder");
            m.dup();
            m.invokespecial("java/lang/StringBuilder", "<init>", "()V");
            m.ldc_string("answer=");
            m.invokevirtual(
                "java/lang/StringBuilder",
                "append",
                "(Ljava/lang/String;)Ljava/lang/StringBuilder;",
            );
            m.ldc_int(42);
            m.invokevirtual(
                "java/lang/StringBuilder",
                "append",
                "(I)Ljava/lang/StringBuilder;",
            );
            m.ldc_long(7);
            m.invokevirtual(
                "java/lang/StringBuilder",
                "append",
                "(J)Ljava/lang/StringBuilder;",
            );
            m.invokevirtual(
                "java/lang/StringBuilder",
                "toString",
                "()Ljava/lang/String;",
            );
        });
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Strings");
        assert_eq!(r.stdout, "answer=427\n");
    }

    #[test]
    fn static_initializer_runs_once_before_use() {
        let mut holder = ClassBuilder::new("Holder", "java/lang/Object");
        holder.add_field(PUB_STATIC, "value", "I");
        let mut clinit = MethodBuilder::new(ACC_STATIC, "<clinit>", "()V", 0);
        println_str(&mut clinit, |m| m.ldc_string("init!"));
        clinit.ldc_int(99);
        clinit.putstatic("Holder", "value", "I");
        clinit.return_void();
        holder.add_method(clinit);

        let mut main = ClassBuilder::new("UseHolder", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        println_int(&mut m, |m| m.getstatic("Holder", "value", "I"));
        println_int(&mut m, |m| m.getstatic("Holder", "value", "I"));
        m.return_void();
        main.add_method(m);
        let r = run_classes(vec![holder.finish(), main.finish()], "UseHolder");
        assert_eq!(r.stdout, "init!\n99\n99\n");
    }

    #[test]
    fn switches_select_correctly() {
        let mut b = ClassBuilder::new("Switches", "java/lang/Object");
        let mut pick = MethodBuilder::new(PUB_STATIC, "pick", "(I)I", 1);
        let c0 = pick.new_label();
        let c1 = pick.new_label();
        let def = pick.new_label();
        pick.iload(0);
        pick.tableswitch(0, vec![c0, c1], def);
        pick.bind(c0);
        pick.ldc_int(100);
        pick.ireturn();
        pick.bind(c1);
        pick.ldc_int(200);
        pick.ireturn();
        pick.bind(def);
        pick.ldc_int(-1);
        pick.ireturn();
        b.add_method(pick);
        let mut look = MethodBuilder::new(PUB_STATIC, "look", "(I)I", 1);
        let ca = look.new_label();
        let cb = look.new_label();
        let df = look.new_label();
        look.iload(0);
        look.lookupswitch(vec![(-5, ca), (1000, cb)], df);
        look.bind(ca);
        look.ldc_int(11);
        look.ireturn();
        look.bind(cb);
        look.ldc_int(22);
        look.ireturn();
        look.bind(df);
        look.ldc_int(-1);
        look.ireturn();
        b.add_method(look);
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        for (method, arg) in [
            ("pick", 0),
            ("pick", 1),
            ("pick", 7),
            ("look", -5),
            ("look", 1000),
            ("look", 3),
        ] {
            println_int(&mut m, |m| {
                m.ldc_int(arg);
                m.invokestatic("Switches", method, "(I)I");
            });
        }
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Switches");
        assert_eq!(r.stdout, "100\n200\n-1\n11\n22\n-1\n");
    }

    #[test]
    fn checkcast_and_instanceof() {
        let mut main = ClassBuilder::new("Casts", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.new_object("Dog");
        m.dup();
        m.invokespecial("Dog", "<init>", "()V");
        m.astore(1);
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.aload(1);
        m.instanceof("Animal");
        m.invokevirtual(PS, "println", "(Z)V");
        m.aload(1);
        m.checkcast("Animal");
        m.pop();
        let s = m.new_label();
        let e = m.new_label();
        let h = m.new_label();
        let done = m.new_label();
        m.bind(s);
        m.aload(1);
        m.checkcast("java/lang/String");
        m.pop();
        m.bind(e);
        m.goto_(done);
        m.bind(h);
        m.pop();
        println_str(&mut m, |m| m.ldc_string("bad cast"));
        m.bind(done);
        m.return_void();
        m.add_exception_handler(s, e, h, Some("java/lang/ClassCastException"));
        main.add_method(m);
        let mut classes = animal_classes();
        classes.push(main.finish());
        let r = run_classes(classes, "Casts");
        assert_eq!(r.stdout, "true\nbad cast\n");
    }

    #[test]
    fn unsafe_heap_round_trips() {
        let mut b = ClassBuilder::new("Mem", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 4);
        m.invokestatic("sun/misc/Unsafe", "getUnsafe", "()Lsun/misc/Unsafe;");
        m.astore(1);
        m.aload(1);
        m.ldc_long(16);
        m.invokevirtual("sun/misc/Unsafe", "allocateMemory", "(J)J");
        m.lstore(2);
        m.aload(1);
        m.lload(2);
        m.ldc_int(0x1234);
        m.invokevirtual("sun/misc/Unsafe", "putInt", "(JI)V");
        println_int(&mut m, |m| {
            m.aload(1);
            m.lload(2);
            m.invokevirtual("sun/misc/Unsafe", "getInt", "(J)I");
        });
        m.aload(1);
        m.lload(2);
        m.invokevirtual("sun/misc/Unsafe", "freeMemory", "(J)V");
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Mem");
        assert_eq!(r.stdout, format!("{}\n", 0x1234));
    }

    #[test]
    fn stack_overflow_is_an_error_not_a_crash() {
        let mut b = ClassBuilder::new("Deep", "java/lang/Object");
        let mut f = MethodBuilder::new(PUB_STATIC, "f", "()V", 0);
        f.invokestatic("Deep", "f", "()V");
        f.return_void();
        b.add_method(f);
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        m.invokestatic("Deep", "f", "()V");
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Deep");
        assert!(r
            .uncaught
            .as_deref()
            .unwrap_or_default()
            .contains("StackOverflowError"));
    }

    #[test]
    fn synchronized_threads_do_not_lose_updates() {
        let mut counter = ClassBuilder::new("Counter", "java/lang/Object");
        counter.add_field(PUB_STATIC, "n", "I");
        let mut bump = MethodBuilder::new(PUB_STATIC | ACC_SYNCHRONIZED, "bump", "()V", 0);
        bump.getstatic("Counter", "n", "I");
        bump.ldc_int(1);
        bump.iadd();
        bump.putstatic("Counter", "n", "I");
        bump.return_void();
        counter.add_method(bump);

        let mut worker = ClassBuilder::new("Worker", "java/lang/Thread");
        let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
        init.aload(0);
        init.invokespecial("java/lang/Thread", "<init>", "()V");
        init.return_void();
        worker.add_method(init);
        let mut run = MethodBuilder::new(ACC_PUBLIC, "run", "()V", 2);
        let top = run.new_label();
        let done = run.new_label();
        run.ldc_int(0);
        run.istore(1);
        run.bind(top);
        run.iload(1);
        run.ldc_int(500);
        run.branch(op::IF_ICMPGE, done);
        run.invokestatic("Counter", "bump", "()V");
        run.iinc(1, 1);
        run.goto_(top);
        run.bind(done);
        run.return_void();
        worker.add_method(run);

        let mut main = ClassBuilder::new("Race", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 3);
        for slot in [1u16, 2] {
            m.new_object("Worker");
            m.dup();
            m.invokespecial("Worker", "<init>", "()V");
            m.astore(slot);
            m.aload(slot);
            m.invokevirtual("java/lang/Thread", "start", "()V");
        }
        for slot in [1u16, 2] {
            m.aload(slot);
            m.invokevirtual("java/lang/Thread", "join", "()V");
        }
        println_int(&mut m, |m| m.getstatic("Counter", "n", "I"));
        m.return_void();
        main.add_method(m);
        let r = run_classes(
            vec![counter.finish(), worker.finish(), main.finish()],
            "Race",
        );
        assert_eq!(r.stdout, "1000\n");
        assert!(r.runtime.context_switches > 0);
    }

    #[test]
    fn blocking_stdin_read_resumes_on_input() {
        let mut b = ClassBuilder::new("Greeter", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.ldc_string("Please enter your name: ");
        m.invokevirtual(PS, "print", "(Ljava/lang/String;)V");
        m.invokestatic("doppio/runtime/Console", "readLine", "()Ljava/lang/String;");
        m.astore(1);
        println_str(&mut m, |m| {
            m.ldc_string("Your name is ");
            m.aload(1);
            m.invokevirtual(
                "java/lang/String",
                "concat",
                "(Ljava/lang/String;)Ljava/lang/String;",
            );
        });
        m.return_void();
        b.add_method(m);

        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Greeter", &[]);
        jvm.runtime().start();
        engine.run_until_idle();
        assert!(!jvm.is_finished());
        assert!(jvm
            .with_state(|s| s.stdout_text())
            .contains("enter your name"));
        jvm.push_stdin(b"Ada\n");
        engine.run_until_idle();
        assert!(jvm.is_finished());
        assert!(jvm
            .with_state(|s| s.stdout_text())
            .ends_with("Your name is Ada\n"));
    }

    #[test]
    fn long_computation_stays_responsive_in_browser() {
        let mut b = ClassBuilder::new("Busy", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 3);
        let top = m.new_label();
        let done = m.new_label();
        m.ldc_int(0);
        m.istore(1);
        m.bind(top);
        m.iload(1);
        m.ldc_int(300_000);
        m.branch(op::IF_ICMPGE, done);
        m.ldc_int(3);
        m.invokestatic("Busy", "twice", "(I)I");
        m.pop();
        m.iinc(1, 1);
        m.goto_(top);
        m.bind(done);
        println_str(&mut m, |m| m.ldc_string("done"));
        m.return_void();
        b.add_method(m);
        let mut twice = MethodBuilder::new(PUB_STATIC, "twice", "(I)I", 1);
        twice.iload(0);
        twice.ldc_int(2);
        twice.imul();
        twice.ireturn();
        b.add_method(twice);
        let r = run_classes(vec![b.finish()], "Busy");
        assert_eq!(r.stdout, "done\n");
        assert!(r.runtime.suspensions > 10, "{:?}", r.runtime);
    }

    #[test]
    fn js_interop_eval() {
        let mut b = ClassBuilder::new("Evals", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        println_str(&mut m, |m| {
            m.ldc_string("6*7");
            m.invokestatic(
                "doppio/runtime/JS",
                "eval",
                "(Ljava/lang/String;)Ljava/lang/String;",
            );
        });
        m.return_void();
        b.add_method(m);

        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
        let jvm = Jvm::new(&engine, fs);
        jvm.set_js_eval(|_, src| {
            if src == "6*7" {
                "42".to_string()
            } else {
                "undefined".to_string()
            }
        });
        jvm.launch("Evals", &[]);
        let r = jvm.run_to_completion().unwrap();
        assert_eq!(r.stdout, "42\n");
    }

    #[test]
    fn file_natives_use_the_doppio_fs() {
        let mut b = ClassBuilder::new("Files", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.ldc_string("/data/in.txt");
        m.invokestatic(
            "doppio/runtime/FileSystem",
            "readFileBytes",
            "(Ljava/lang/String;)[B",
        );
        m.astore(1);
        println_str(&mut m, |m| {
            m.new_object("java/lang/String");
            m.dup();
            m.aload(1);
            m.invokespecial("java/lang/String", "<init>", "([B)V");
        });
        m.ldc_string("/data/out.txt");
        m.aload(1);
        m.invokestatic(
            "doppio/runtime/FileSystem",
            "writeFileBytes",
            "(Ljava/lang/String;[B)V",
        );
        m.return_void();
        b.add_method(m);

        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
        fs.mkdir("/data", |_, r| r.unwrap());
        engine.run_until_idle();
        fs.write_file("/data/in.txt", b"file payload".to_vec(), |_, r| r.unwrap());
        engine.run_until_idle();

        let jvm = Jvm::new(&engine, fs.clone());
        jvm.launch("Files", &[]);
        let r = jvm.run_to_completion().unwrap();
        assert_eq!(r.stdout, "file payload\n");
        let out = std::rc::Rc::new(std::cell::RefCell::new(None));
        let o = out.clone();
        fs.read_file("/data/out.txt", move |_, r| {
            *o.borrow_mut() = Some(r.unwrap())
        });
        engine.run_until_idle();
        assert_eq!(out.borrow().as_deref(), Some(&b"file payload"[..]));
    }

    #[test]
    fn missing_class_raises_noclassdef() {
        let mut b = ClassBuilder::new("Missing", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        m.invokestatic("does/not/Exist", "f", "()V");
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Missing");
        assert!(r
            .uncaught
            .as_deref()
            .unwrap_or_default()
            .contains("NoClassDefFoundError"));
    }

    #[test]
    fn runs_on_every_browser_profile() {
        for browser in Browser::EVALUATED {
            let mut b = ClassBuilder::new("Porta", "java/lang/Object");
            let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
            println_int(&mut m, |m| {
                m.ldc_int(21);
                m.ldc_int(2);
                m.imul();
            });
            m.return_void();
            b.add_method(m);
            let r = run_classes_on(browser, vec![b.finish()], "Porta");
            assert_eq!(r.stdout, "42\n", "browser {browser}");
        }
    }

    #[test]
    fn wall_clock_ordering_matches_figure3_shape() {
        let make = || {
            let mut b = ClassBuilder::new("Bench", "java/lang/Object");
            let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
            let top = m.new_label();
            let done = m.new_label();
            m.ldc_int(0);
            m.istore(1);
            m.bind(top);
            m.iload(1);
            m.ldc_int(50_000);
            m.branch(op::IF_ICMPGE, done);
            m.iinc(1, 1);
            m.goto_(top);
            m.bind(done);
            m.return_void();
            b.add_method(m);
            vec![b.finish()]
        };
        let native = run_classes_on(Browser::Native, make(), "Bench").wall_ns;
        let chrome = run_classes_on(Browser::Chrome, make(), "Bench").wall_ns;
        let opera = run_classes_on(Browser::Opera, make(), "Bench").wall_ns;
        assert!(chrome > 10 * native, "chrome {chrome} native {native}");
        assert!(opera > chrome, "opera {opera} chrome {chrome}");
    }
}

#[cfg(test)]
mod backedge_tests {
    use super::*;
    use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC};
    use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
    use doppio_classfile::opcodes as op;
    use doppio_fs::{backends, FileSystem};
    use doppio_jsengine::{Browser, Engine};

    /// A call-free loop long enough (> 5 virtual seconds in Chrome)
    /// that, with suspend checks only at call boundaries (§6.1), the
    /// whole method runs as one event and the watchdog kills the page.
    fn spin_class() -> doppio_classfile::ClassFile {
        let mut b = ClassBuilder::new("Spin", "java/lang/Object");
        let mut m =
            MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 2);
        let top = m.new_label();
        let done = m.new_label();
        m.ldc_int(0);
        m.istore(1);
        m.bind(top);
        m.iload(1);
        m.ldc_int(12_000_000);
        m.branch(op::IF_ICMPGE, done);
        m.iinc(1, 1);
        m.goto_(top);
        m.bind(done);
        m.return_void();
        b.add_method(m);
        b.finish()
    }

    fn run_spin(check_backedges: bool) -> (u64, u64) {
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[spin_class()]);
        let jvm = Jvm::new(&engine, fs);
        jvm.set_check_backedges(check_backedges);
        jvm.launch("Spin", &[]);
        let r = jvm.run_to_completion().unwrap();
        assert!(r.uncaught.is_none());
        (
            engine.metrics().get("engine.watchdog_kills"),
            r.runtime.suspensions,
        )
    }

    #[test]
    fn call_free_loops_defeat_call_boundary_checks() {
        // The §6.1 caveat, demonstrated: no calls → no suspend checks
        // → one monolithic multi-second event → watchdog kill.
        let (kills, suspensions) = run_spin(false);
        assert_eq!(suspensions, 0);
        assert!(kills >= 1, "the watchdog should have fired");
    }

    #[test]
    fn backedge_instrumentation_fixes_the_starvation() {
        // The fix the paper sketches: checks on loop back edges keep
        // every event finite.
        let (kills, suspensions) = run_spin(true);
        assert_eq!(kills, 0);
        assert!(suspensions > 10, "suspended {suspensions} times");
    }
}

#[cfg(test)]
mod opcode_coverage_tests {
    use super::*;
    use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC};
    use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
    use doppio_classfile::opcodes as op;
    use doppio_fs::{backends, FileSystem};
    use doppio_jsengine::{Browser, Engine};

    fn run_main(build: impl FnOnce(&mut MethodBuilder)) -> String {
        let mut b = ClassBuilder::new("Ops", "java/lang/Object");
        let mut m =
            MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 8);
        build(&mut m);
        m.return_void();
        b.add_method(m);
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Ops", &[]);
        let r = jvm.run_to_completion().unwrap();
        assert!(r.uncaught.is_none(), "{:?} / {}", r.uncaught, r.stderr);
        r.stdout
    }

    fn println_top_int(m: &mut MethodBuilder) {
        // ..., value → print it (value computed before out is loaded,
        // so swap them into call order).
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.swap();
        m.invokevirtual("java/io/PrintStream", "println", "(I)V");
    }

    #[test]
    fn single_slot_shuffles() {
        // dup_x1: a b -> b a b ; dup_x2: a b c -> c a b c ; swap.
        let out = run_main(|m| {
            // (10 - 3) via swap: push 3, push 10, swap, isub = 10-3
            m.ldc_int(3);
            m.ldc_int(10);
            m.swap();
            m.isub();
            println_top_int(m); // -7? no: swap makes 3 - ... wait: stack [3,10] -> swap -> [10,3]; isub = 10-3 = 7
                                // dup_x1: compute a*b + b with one load of b:
                                // push a=6, push b=7, dup_x1 -> [7,6,7], imul -> [7,42], iadd -> 49
            m.ldc_int(6);
            m.ldc_int(7);
            m.simple(op::DUP_X1);
            m.pop(); // [7,6]
            m.imul(); // 42
            println_top_int(m);
            // dup_x2 with three category-1 values: a b c -> c a b c
            m.ldc_int(1);
            m.ldc_int(2);
            m.ldc_int(4);
            m.simple(op::DUP_X2); // [4,1,2,4]
            m.iadd(); // [4,1,6]
            m.iadd(); // [4,7]
            m.imul(); // 28
            println_top_int(m);
        });
        assert_eq!(out, "7\n42\n28\n");
    }

    #[test]
    fn two_slot_shuffles_with_longs() {
        let out = run_main(|m| {
            // dup2 on a long: [L] -> [L,L]; ladd doubles it.
            m.ldc_long(21);
            m.simple(op::DUP2);
            m.simple(op::LADD); // 42
            m.simple(op::L2I);
            println_top_int(m);
            // dup2_x1: [i, L] -> [L, i, L]
            m.ldc_int(5);
            m.ldc_long(100);
            m.simple(op::DUP2_X1); // [L100, 5, L100]
            m.simple(op::L2I); // [L100, 5, 100]
            m.iadd(); // [L100, 105]
            println_top_int(m);
            m.simple(op::POP2); // drop the leftover long
                                // dup2_x2: [L, L] -> [L2, L1, L2]
            m.ldc_long(7);
            m.ldc_long(8);
            m.simple(op::DUP2_X2); // [L8, L7, L8]
            m.simple(op::LADD); // [L8, L15]
            m.simple(op::L2I);
            println_top_int(m);
            m.simple(op::POP2);
        });
        assert_eq!(out, "42\n105\n15\n");
    }

    #[test]
    fn jsr_ret_subroutine() {
        // The classic finally-block encoding: jsr to a subroutine that
        // stores its return address with astore, does work, and rets.
        let out = run_main(|m| {
            let sub = m.new_label();
            let after1 = m.new_label();
            let after2 = m.new_label();
            m.ldc_int(0);
            m.istore(1); // counter
            m.branch(op::JSR, sub);
            m.bind(after1);
            m.branch(op::JSR, sub);
            m.bind(after2);
            m.iload(1);
            println_top_int(m);
            let done = m.new_label();
            m.goto_(done);
            // Subroutine: locals[4] = return address; counter += 10.
            m.bind(sub);
            m.astore(4);
            m.iinc(1, 10);
            m.ret(4);
            m.bind(done);
        });
        assert_eq!(out, "20\n");
    }

    #[test]
    fn negative_array_size_and_null_checks() {
        // Runtime exception arms not covered elsewhere.
        let mut b = ClassBuilder::new("Ops", "java/lang/Object");
        let mut m =
            MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 3);
        // new int[-1] caught:
        let s1 = m.new_label();
        let e1 = m.new_label();
        let h1 = m.new_label();
        let next = m.new_label();
        m.bind(s1);
        m.ldc_int(-1);
        m.newarray(10);
        m.pop();
        m.bind(e1);
        m.goto_(next);
        m.bind(h1);
        m.pop();
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.ldc_string("negsize");
        m.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
        m.bind(next);
        // null.length caught:
        let s2 = m.new_label();
        let e2 = m.new_label();
        let h2 = m.new_label();
        let done = m.new_label();
        m.bind(s2);
        m.aconst_null();
        m.checkcast("[I");
        m.arraylength();
        m.pop();
        m.bind(e2);
        m.goto_(done);
        m.bind(h2);
        m.pop();
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.ldc_string("npe");
        m.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
        m.bind(done);
        m.return_void();
        m.add_exception_handler(s1, e1, h1, Some("java/lang/NegativeArraySizeException"));
        m.add_exception_handler(s2, e2, h2, Some("java/lang/NullPointerException"));
        b.add_method(m);

        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Ops", &[]);
        let r = jvm.run_to_completion().unwrap();
        assert_eq!(r.stdout, "negsize\nnpe\n");
    }

    #[test]
    fn multianewarray_builds_nested_arrays() {
        let out = run_main(|m| {
            // int[3][4] -> set [2][3] = 42, read it back; length checks.
            m.ldc_int(3);
            m.ldc_int(4);
            m.multianewarray("[[I", 2);
            m.astore(1);
            m.aload(1);
            m.ldc_int(2);
            m.simple(op::AALOAD);
            m.ldc_int(3);
            m.ldc_int(42);
            m.simple(op::IASTORE);
            m.aload(1);
            m.ldc_int(2);
            m.simple(op::AALOAD);
            m.ldc_int(3);
            m.simple(op::IALOAD);
            println_top_int(m);
            m.aload(1);
            m.arraylength();
            println_top_int(m);
            m.aload(1);
            m.ldc_int(0);
            m.simple(op::AALOAD);
            m.arraylength();
            println_top_int(m);
        });
        assert_eq!(out, "42\n3\n4\n");
    }
}

/// Code that does not decode raises a guest error instead of panicking
/// the host.
#[cfg(test)]
mod malformed_code_tests {
    use super::*;
    use doppio_classfile::access::{ACC_NATIVE, ACC_PUBLIC, ACC_STATIC};
    use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
    use doppio_classfile::opcodes as op;
    use doppio_classfile::ClassFile;
    use doppio_fs::{backends, FileSystem};
    use doppio_jsengine::{Browser, Engine};

    const PUB_STATIC: u16 = ACC_PUBLIC | ACC_STATIC;
    const MAIN_DESC: &str = "([Ljava/lang/String;)V";

    /// Class `Bad`, whose `main` invokes `Bad.bad()V`; `body`
    /// assembles `bad`.
    fn bad_class(body: impl FnOnce(&mut MethodBuilder)) -> ClassFile {
        let mut b = ClassBuilder::new("Bad", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        m.invokestatic("Bad", "bad", "()V");
        m.return_void();
        b.add_method(m);
        let mut bad = MethodBuilder::new(PUB_STATIC, "bad", "()V", 1);
        body(&mut bad);
        b.add_method(bad);
        b.finish()
    }

    /// [`bad_class`] with `bad`'s bytecode replaced by `code` after
    /// assembly; returns the main thread's uncaught exception.
    fn invoke_malformed(code: Vec<u8>) -> Option<String> {
        let mut cf = bad_class(|m| m.return_void());
        let bad = cf.methods.iter_mut().find(|m| m.name == "bad").unwrap();
        bad.code.as_mut().unwrap().bytecode = code;
        run_bad(cf)
    }

    /// Run `Bad.main`; return the main thread's uncaught exception.
    fn run_bad(cf: ClassFile) -> Option<String> {
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[cf]);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Bad", &[]);
        jvm.run_to_completion().unwrap().uncaught
    }

    fn internal_error(what: &str) -> Option<String> {
        Some(format!(
            "java.lang.InternalError: Bad.bad()V: malformed bytecode: {what}"
        ))
    }

    #[test]
    fn truncated_sipush_throws_internal_error() {
        assert_eq!(
            invoke_malformed(vec![op::SIPUSH, 0]),
            internal_error("truncated instruction at pc 0")
        );
    }

    #[test]
    fn truncated_goto_throws_internal_error() {
        assert_eq!(
            invoke_malformed(vec![op::NOP, op::GOTO, 0]),
            internal_error("truncated instruction at pc 1")
        );
    }

    #[test]
    fn truncated_tableswitch_throws_internal_error() {
        // default, low = 0, high = 1, then only one of the two offsets.
        let mut code = vec![op::ICONST_0, op::TABLESWITCH, 0, 0];
        for v in [20, 0, 1, 20] {
            code.extend_from_slice(&i32::to_be_bytes(v));
        }
        assert_eq!(
            invoke_malformed(code),
            internal_error("truncated instruction at pc 1")
        );
    }

    #[test]
    fn branch_past_the_end_throws_internal_error() {
        assert_eq!(
            invoke_malformed(vec![op::GOTO, 0, 4, op::RETURN]),
            internal_error("branch target is not an instruction at pc 0")
        );
    }

    #[test]
    fn zero_dimension_multianewarray_throws_internal_error() {
        let cf = bad_class(|m| {
            m.multianewarray("[[I", 0);
            m.simple(op::POP);
            m.return_void();
        });
        assert_eq!(
            run_bad(cf),
            internal_error("zero-dimension multianewarray at pc 0")
        );
    }

    /// `bad` allocates a `class` array with `dims` dimensions of
    /// length 2.
    fn multianewarray_of(class: &'static str, dims: u8) -> Option<String> {
        run_bad(bad_class(|m| {
            for _ in 0..dims {
                m.ldc_int(2);
            }
            m.multianewarray(class, dims);
            m.simple(op::POP);
            m.return_void();
        }))
    }

    #[test]
    fn multianewarray_of_an_empty_class_name_throws_internal_error() {
        assert_eq!(
            multianewarray_of("", 1).as_deref(),
            Some("java.lang.InternalError: multianewarray: \"\" has fewer than 1 dimensions")
        );
    }

    const STRING: &str = "Ljava/lang/String;";

    fn incompatible(msg: &str) -> Option<String> {
        Some(format!("java.lang.IncompatibleClassChangeError: {msg}"))
    }

    #[test]
    fn field_ops_on_an_object_without_the_field_throw_incompatible_class_change() {
        // An Object has no slots at all.
        let get = bad_class(|m| {
            m.new_object("java/lang/Object");
            m.getfield("java/lang/Throwable", "message", STRING);
            m.pop();
            m.return_void();
        });
        assert_eq!(
            run_bad(get),
            incompatible("java/lang/Object has no field java/lang/Throwable.message")
        );
        // A PrintStream has a slot 0, but it holds another field.
        let put = bad_class(|m| {
            m.new_object("java/io/PrintStream");
            m.aconst_null();
            m.putfield("java/lang/Class", "name", STRING);
            m.return_void();
        });
        assert_eq!(
            run_bad(put),
            incompatible("java/io/PrintStream has no field java/lang/Class.name")
        );
    }

    #[test]
    fn instance_field_ops_on_a_static_field_throw_incompatible_class_change() {
        const OUT: &str = "Ljava/io/PrintStream;";
        let get = bad_class(|m| {
            m.new_object("java/lang/Object");
            m.getfield("java/lang/System", "out", OUT);
            m.pop();
            m.return_void();
        });
        let put = bad_class(|m| {
            m.new_object("java/lang/Object");
            m.aconst_null();
            m.putfield("java/lang/System", "out", OUT);
            m.return_void();
        });
        for cf in [get, put] {
            assert_eq!(
                run_bad(cf),
                incompatible("Expected non-static field java/lang/System.out")
            );
        }
    }

    #[test]
    fn static_field_ops_on_an_instance_field_throw_incompatible_class_change() {
        let get = bad_class(|m| {
            m.getstatic("java/lang/Throwable", "message", STRING);
            m.pop();
            m.return_void();
        });
        let put = bad_class(|m| {
            m.aconst_null();
            m.putstatic("java/lang/Throwable", "message", STRING);
            m.return_void();
        });
        for cf in [get, put] {
            assert_eq!(
                run_bad(cf),
                incompatible("Expected static field java/lang/Throwable.message")
            );
        }
    }

    #[test]
    fn field_ops_on_arrays_and_strings_read_the_default_and_drop_the_write() {
        let cf = bad_class(|m| {
            m.ldc_string("no fields");
            m.getfield("java/lang/Class", "name", STRING);
            m.pop();
            m.ldc_int(1);
            m.newarray(10);
            m.aconst_null();
            m.putfield("java/lang/Class", "name", STRING);
            m.return_void();
        });
        assert_eq!(run_bad(cf), None);
    }

    #[test]
    fn arguments_past_max_locals_throw_internal_error() {
        let mut b = ClassBuilder::new("Bad", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        m.ldc_int(7);
        m.invokestatic("Bad", "bad", "(I)V");
        m.return_void();
        b.add_method(m);
        // One int argument, no local slot to receive it.
        let mut bad = MethodBuilder::new(PUB_STATIC, "bad", "(I)V", 0);
        bad.return_void();
        b.add_method(bad);
        assert_eq!(
            run_bad(b.finish()).as_deref(),
            Some(
                "java.lang.InternalError: Bad.bad(I)V: max_locals 0 is smaller than its \
                 1-slot arguments"
            )
        );
    }

    #[test]
    fn thread_start_on_a_run_without_locals_throws_internal_error() {
        const THREAD: &str = "java/lang/Thread";
        let mut b = ClassBuilder::new("Bad", THREAD);
        let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
        init.aload(0);
        init.invokespecial(THREAD, "<init>", "()V");
        init.return_void();
        b.add_method(init);
        // `run` has a receiver but no local slot for it.
        let mut run = MethodBuilder::new(ACC_PUBLIC, "run", "()V", 0);
        run.return_void();
        b.add_method(run);
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        m.new_object("Bad");
        m.dup();
        m.invokespecial("Bad", "<init>", "()V");
        m.invokevirtual(THREAD, "start", "()V");
        m.return_void();
        b.add_method(m);
        assert_eq!(
            run_bad(b.finish()).as_deref(),
            Some(
                "java.lang.InternalError: Bad.run()V: max_locals 0 is smaller than its \
                 1-slot arguments"
            )
        );
    }

    #[test]
    fn multianewarray_deeper_than_its_class_throws_internal_error() {
        assert_eq!(
            multianewarray_of("[", 2).as_deref(),
            Some("java.lang.InternalError: multianewarray: \"[\" has fewer than 2 dimensions")
        );
        // As deep as the class still allocates.
        assert_eq!(multianewarray_of("[[I", 2), None);
    }

    #[test]
    fn a_clinit_without_code_throws_like_an_invoke_of_a_method_without_code() {
        let mut codeless = bad_class(|m| m.return_void());
        let bad = codeless
            .methods
            .iter_mut()
            .find(|m| m.name == "bad")
            .unwrap();
        bad.code = None;
        assert_eq!(
            run_bad(codeless).as_deref(),
            Some("java.lang.AbstractMethodError: Bad.bad()V")
        );
        // `Bad` declares `static native <clinit>()V`: its first use, the
        // bootstrap's invoke of `Bad.main`, must initialize it.
        let mut b = ClassBuilder::new("Bad", "java/lang/Object");
        b.add_method(MethodBuilder::new(
            ACC_STATIC | ACC_NATIVE,
            "<clinit>",
            "()V",
            0,
        ));
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        m.return_void();
        b.add_method(m);
        assert_eq!(
            run_bad(b.finish()).as_deref(),
            Some("java.lang.AbstractMethodError: Bad.<clinit>()V")
        );
    }

    #[test]
    fn native_arguments_that_do_not_fit_the_descriptor_throw_internal_error() {
        let call = |push: fn(&mut MethodBuilder), class, name, desc| {
            run_bad(bad_class(|m| {
                push(m);
                m.invokestatic(class, name, desc);
                m.pop();
                m.return_void();
            }))
        };
        // A float where an int belongs.
        assert_eq!(
            call(|m| m.simple(op::FCONST_1), "java/lang/Math", "abs", "(I)I").as_deref(),
            Some(
                "java.lang.InternalError: java/lang/Math.abs(I)I: argument 0 is Float(1.0), \
                 not an int"
            )
        );
        // No receiver for an instance native.
        assert_eq!(
            call(|_| {}, "java/lang/Thread", "isAlive", "()Z").as_deref(),
            Some("java.lang.InternalError: java/lang/Thread.isAlive()Z: 0 arguments where it takes 1")
        );
        // An int receiver: `invokespecial` only null-checks it.
        let int_receiver = bad_class(|m| {
            m.ldc_int(7);
            m.invokespecial("java/lang/Thread", "isAlive", "()Z");
            m.pop();
            m.return_void();
        });
        assert_eq!(
            run_bad(int_receiver).as_deref(),
            Some(
                "java.lang.InternalError: java/lang/Thread.isAlive()Z: argument 0 is Int(7), \
                 not a reference"
            )
        );
    }
}

/// However a call ends, the caller sees it at the invoke: an exception
/// is matched against the handlers that cover the invoke that raised it,
/// and a synchronized callee's monitor is released.
#[cfg(test)]
mod call_exit_tests {
    use super::*;
    use doppio_classfile::access::{ACC_NATIVE, ACC_PUBLIC, ACC_STATIC, ACC_SYNCHRONIZED};
    use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
    use doppio_classfile::opcodes as op;
    use doppio_classfile::ClassFile;
    use doppio_fs::{backends, FileSystem};
    use doppio_jsengine::{Browser, Engine};

    const PUB_STATIC: u16 = ACC_PUBLIC | ACC_STATIC;
    const MAIN_DESC: &str = "([Ljava/lang/String;)V";
    const THREAD: &str = "java/lang/Thread";
    const THROWABLE: &str = "Ljava/lang/Throwable;";

    /// Run `Main.main` over `classes`, after `setup` has seen the JVM.
    fn run(classes: Vec<ClassFile>, setup: impl FnOnce(&Jvm)) -> JvmRunResult {
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &classes);
        let jvm = Jvm::new(&engine, fs);
        setup(&jvm);
        jvm.launch("Main", &[]);
        jvm.run_to_completion().unwrap()
    }

    /// `System.out.println("caught: " + t.getMessage())`, where `load`
    /// pushes `t`.
    fn println_caught(m: &mut MethodBuilder, load: impl FnOnce(&mut MethodBuilder)) {
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.ldc_string("caught: ");
        load(m);
        m.invokevirtual("java/lang/Throwable", "getMessage", "()Ljava/lang/String;");
        m.invokevirtual(
            "java/lang/String",
            "concat",
            "(Ljava/lang/String;)Ljava/lang/String;",
        );
        m.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
    }

    /// Class `Main`, whose `main` (two local slots) is `body`.
    fn main_class(body: impl FnOnce(&mut MethodBuilder)) -> ClassBuilder {
        let mut b = ClassBuilder::new("Main", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        body(&mut m);
        m.return_void();
        b.add_method(m);
        b
    }

    /// Run `call` (ending in an invoke that leaves `result_slots` on the
    /// stack) in a `try` range that ends right after the invoke, as javac
    /// emits `try { f(); } catch (E e) { .. }`. The handler for `catch`
    /// prints the exception's message.
    fn try_catch(
        m: &mut MethodBuilder,
        call: impl FnOnce(&mut MethodBuilder),
        result_slots: usize,
        catch: &str,
    ) {
        let (start, end, handler, out) =
            (m.new_label(), m.new_label(), m.new_label(), m.new_label());
        m.bind(start);
        call(m);
        m.bind(end);
        for _ in 0..result_slots {
            m.pop();
        }
        m.goto_(out);
        m.bind(handler);
        m.astore(1);
        println_caught(m, |m| m.aload(1));
        m.bind(out);
        m.add_exception_handler(start, end, handler, Some(catch));
    }

    /// Class `Main`, whose `main` is [`try_catch`] of `call`.
    fn catch_around(
        call: impl FnOnce(&mut MethodBuilder),
        result_slots: usize,
        catch: &str,
    ) -> ClassFile {
        main_class(|m| try_catch(m, call, result_slots, catch)).finish()
    }

    fn caught(r: &JvmRunResult, message: &str) {
        assert_eq!(r.uncaught, None, "{}", r.stderr);
        assert_eq!(r.stdout, format!("caught: {message}\n"));
    }

    #[test]
    fn an_exception_from_a_bytecode_callee_is_caught_at_its_invoke() {
        let mut thrower = ClassBuilder::new("Thrower", "java/lang/Object");
        let mut boom = MethodBuilder::new(PUB_STATIC, "boom", "()V", 0);
        boom.ldc_int(1);
        boom.ldc_int(0);
        boom.simple(op::IDIV);
        boom.pop();
        boom.return_void();
        thrower.add_method(boom);
        let main = catch_around(
            |m| m.invokestatic("Thrower", "boom", "()V"),
            0,
            "java/lang/ArithmeticException",
        );
        caught(&run(vec![thrower.finish(), main], |_| {}), "/ by zero");
    }

    #[test]
    fn an_exception_from_a_native_is_caught_at_its_invoke() {
        let main = catch_around(
            |m| {
                m.ldc_string("abc");
                m.ldc_int(5);
                m.invokevirtual("java/lang/String", "charAt", "(I)C");
            },
            1,
            "java/lang/StringIndexOutOfBoundsException",
        );
        caught(&run(vec![main], |_| {}), "5");
    }

    #[test]
    fn an_exception_from_a_native_after_it_blocked_is_caught_at_its_invoke() {
        let main = catch_around(
            |m| {
                m.ldc_string("/nope");
                m.invokestatic(
                    "doppio/runtime/FileSystem",
                    "readFileBytes",
                    "(Ljava/lang/String;)[B",
                );
            },
            1,
            "java/io/IOException",
        );
        caught(&run(vec![main], |_| {}), "ENOENT: /nope");
    }

    #[test]
    fn a_stack_overflow_is_caught_at_the_invoke_that_overflows() {
        // static void f() { try { f(); } catch (StackOverflowError e) { caught = e; } }
        let mut b = ClassBuilder::new("Main", "java/lang/Object");
        b.add_field(PUB_STATIC, "caught", THROWABLE);
        let mut f = MethodBuilder::new(PUB_STATIC, "f", "()V", 0);
        let (start, end, handler) = (f.new_label(), f.new_label(), f.new_label());
        f.bind(start);
        f.invokestatic("Main", "f", "()V");
        f.bind(end);
        f.return_void();
        f.bind(handler);
        f.putstatic("Main", "caught", THROWABLE);
        f.return_void();
        f.add_exception_handler(start, end, handler, Some("java/lang/StackOverflowError"));
        b.add_method(f);
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        m.invokestatic("Main", "f", "()V");
        println_caught(&mut m, |m| m.getstatic("Main", "caught", THROWABLE));
        m.return_void();
        b.add_method(m);
        caught(&run(vec![b.finish()], |_| {}), "invoking f");
    }

    /// `Lazy.x` read twice by `Main`, the first time in a `try` range that
    /// catches any `Error`, where `Lazy` has `static int x` and `clinit`.
    fn read_lazy_twice(clinit: MethodBuilder) -> JvmRunResult {
        let mut lazy = ClassBuilder::new("Lazy", "java/lang/Object");
        lazy.add_field(PUB_STATIC, "x", "I");
        lazy.add_method(clinit);
        let main = main_class(|m| {
            let read = |m: &mut MethodBuilder| m.getstatic("Lazy", "x", "I");
            try_catch(m, read, 1, "java/lang/Error");
            read(m);
            m.pop();
        });
        run(vec![lazy.finish(), main.finish()], |_| {})
    }

    #[test]
    fn a_clinit_that_throws_leaves_its_class_erroneous() {
        // static int x = 1 / 0;
        let mut clinit = MethodBuilder::new(ACC_STATIC, "<clinit>", "()V", 0);
        clinit.ldc_int(1);
        clinit.ldc_int(0);
        clinit.simple(op::IDIV);
        clinit.putstatic("Lazy", "x", "I");
        clinit.return_void();
        let r = read_lazy_twice(clinit);
        // The first read sees an `ExceptionInInitializerError`, the second
        // a class that is not initialized.
        assert_eq!(
            r.stdout,
            "caught: java.lang.ArithmeticException: / by zero\n"
        );
        let no_class = "java.lang.NoClassDefFoundError: Could not initialize class Lazy";
        assert_eq!(r.uncaught.as_deref(), Some(no_class));
        // A `<clinit>` that cannot run: its error reaches the first read
        // unwrapped.
        let r = read_lazy_twice(MethodBuilder::new(
            ACC_STATIC | ACC_NATIVE,
            "<clinit>",
            "()V",
            0,
        ));
        assert_eq!(r.stdout, "caught: Lazy.<clinit>()V\n");
        assert_eq!(r.uncaught.as_deref(), Some(no_class));
    }

    /// `System.out.println(Math.random())`, then `f()` in a `try` range
    /// that catches `UnsatisfiedLinkError`, in a class `Main` that
    /// declares `static native int f()`.
    fn random_then_native_f() -> ClassFile {
        let mut main = main_class(|m| {
            m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
            m.invokestatic("java/lang/Math", "random", "()D");
            m.invokevirtual("java/io/PrintStream", "println", "(D)V");
            let f = |m: &mut MethodBuilder| m.invokestatic("Main", "f", "()I");
            try_catch(m, f, 1, "java/lang/UnsatisfiedLinkError");
        });
        main.add_method(MethodBuilder::new(PUB_STATIC | ACC_NATIVE, "f", "()I", 0));
        main.finish()
    }

    /// The first `Math.random()` of a JVM.
    const FIRST_RANDOM: &str = "0.45848655094905766";

    #[test]
    fn a_native_nothing_implements_throws_unsatisfied_link_error_at_its_invoke() {
        let r = run(vec![random_then_native_f()], |_| {});
        assert_eq!(r.uncaught, None, "{}", r.stderr);
        assert_eq!(r.stdout, format!("{FIRST_RANDOM}\ncaught: Main.f()I\n"));
    }

    #[test]
    fn a_native_registered_between_launches_runs_from_its_next_call() {
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[random_then_native_f()]);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Main", &[]);
        jvm.run_to_completion().unwrap();
        // `f` failed to bind and `Math.random` is bound to its built-in.
        jvm.register_native("Main", "f", "()I", |n, _| {
            n.state.write_stdout("f\n");
            NativeOutcome::Return(Some(Value::Int(5)))
        });
        jvm.register_native("java/lang/Math", "random", "()D", |_, _| {
            NativeOutcome::Return(Some(Value::Double(0.25)))
        });
        jvm.launch("Main", &[]);
        let r = jvm.run_to_completion().unwrap();
        assert_eq!(r.uncaught, None, "{}", r.stderr);
        assert_eq!(
            r.stdout,
            format!("{FIRST_RANDOM}\ncaught: Main.f()I\n0.25\nf\n")
        );
    }

    /// Class `Sync` with `static synchronized void other()`, which prints
    /// "other", and `extra`, and `Main.main`, which starts a `Worker`
    /// thread whose `run` invokes `Sync.work()V`, then does `rest`.
    fn sync_program(
        extra: impl FnOnce(&mut ClassBuilder),
        rest: impl FnOnce(&mut MethodBuilder),
    ) -> Vec<ClassFile> {
        let mut sync = ClassBuilder::new("Sync", "java/lang/Object");
        let mut other = MethodBuilder::new(PUB_STATIC | ACC_SYNCHRONIZED, "other", "()V", 0);
        other.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        other.ldc_string("other");
        other.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
        other.return_void();
        sync.add_method(other);
        extra(&mut sync);

        let mut worker = ClassBuilder::new("Worker", THREAD);
        let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
        init.aload(0);
        init.invokespecial(THREAD, "<init>", "()V");
        init.return_void();
        worker.add_method(init);
        let mut run = MethodBuilder::new(ACC_PUBLIC, "run", "()V", 1);
        run.invokestatic("Sync", "work", "()V");
        run.return_void();
        worker.add_method(run);

        let mut main = ClassBuilder::new("Main", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.new_object("Worker");
        m.dup();
        m.invokespecial("Worker", "<init>", "()V");
        m.astore(1);
        m.aload(1);
        m.invokevirtual(THREAD, "start", "()V");
        rest(&mut m);
        m.return_void();
        main.add_method(m);
        vec![sync.finish(), worker.finish(), main.finish()]
    }

    /// `Worker.join(); Sync.other();`
    fn join_then_other(m: &mut MethodBuilder) {
        m.aload(1);
        m.invokevirtual(THREAD, "join", "()V");
        m.invokestatic("Sync", "other", "()V");
    }

    /// A `static synchronized native void work()`.
    fn native_work(sync: &mut ClassBuilder) {
        let flags = PUB_STATIC | ACC_SYNCHRONIZED | ACC_NATIVE;
        sync.add_method(MethodBuilder::new(flags, "work", "()V", 0));
    }

    /// Register `Sync.work` as a native that sleeps `ms` on the virtual
    /// clock and then completes with `done`.
    fn register_sleeping_work(jvm: &Jvm, ms: f64, done: fn(&mut NativeCtx) -> NativeOutcome) {
        jvm.register_native("Sync", "work", "()V", move |n, _| {
            let cell = n.ctx.block_on(move |engine, resolver| {
                engine.set_timeout(ms, move |_| resolver.resolve(()));
            });
            NativeOutcome::Block(Box::new(move |n2| cell.take().map(|()| done(n2))))
        });
    }

    #[test]
    fn a_synchronized_method_releases_its_monitor_when_stack_overflow_kills_the_thread() {
        let classes = sync_program(
            |sync| {
                // static synchronized void work() { work(); }
                let mut work = MethodBuilder::new(PUB_STATIC | ACC_SYNCHRONIZED, "work", "()V", 0);
                work.invokestatic("Sync", "work", "()V");
                work.return_void();
                sync.add_method(work);
            },
            join_then_other,
        );
        let r = run(classes, |_| {});
        assert_eq!((r.stdout.as_str(), r.uncaught), ("other\n", None));
        assert!(
            r.stderr.contains("java.lang.StackOverflowError"),
            "{}",
            r.stderr
        );
    }

    #[test]
    fn a_synchronized_native_releases_its_monitor_when_it_throws_after_a_block() {
        let classes = sync_program(native_work, join_then_other);
        let r = run(classes, |jvm| {
            register_sleeping_work(jvm, 5.0, |_| NativeOutcome::Throw {
                class: "java/io/IOException".into(),
                message: "work failed".into(),
            })
        });
        assert_eq!((r.stdout.as_str(), r.uncaught), ("other\n", None));
        assert!(r.stderr.contains("work failed"), "{}", r.stderr);
    }

    #[test]
    fn a_synchronized_native_holds_its_monitor_until_it_returns() {
        // Main sleeps while the worker's native holds `Sync`'s monitor
        // across its own, longer sleep; `other` must wait for it.
        let classes = sync_program(native_work, |m| {
            m.ldc_long(50);
            m.invokestatic(THREAD, "sleep", "(J)V");
            m.invokestatic("Sync", "other", "()V");
            m.aload(1);
            m.invokevirtual(THREAD, "join", "()V");
        });
        let r = run(classes, |jvm| {
            register_sleeping_work(jvm, 200.0, |n| {
                n.state.write_stdout("work\n");
                NativeOutcome::Return(None)
            })
        });
        assert_eq!((r.stdout.as_str(), r.uncaught), ("work\nother\n", None));
    }
}

/// The `doppio/net/Socket` natives over a Websockify-bridged echo server.
#[cfg(test)]
mod socket_tests {
    use super::*;
    use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC};
    use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
    use doppio_fs::{backends, FileSystem};
    use doppio_jsengine::{Browser, Engine};
    use doppio_sockets::{ConnId, Network, Segment, ServerConn, TcpServerApp, Websockify};

    const SOCKET: &str = "doppio/net/Socket";
    const MAIN_DESC: &str = "([Ljava/lang/String;)V";

    /// A plain TCP server that sends every segment back.
    struct Echo;

    impl TcpServerApp for Echo {
        fn on_connect(&self, _: &Engine, _: ServerConn) {}
        fn on_data(&self, _: &Engine, conn: ServerConn, data: Segment) {
            conn.send(data.to_vec());
        }
        fn on_close(&self, _: &Engine, _: ConnId) {}
    }

    /// Run class `Main`, whose `main` is `body`, with an echo server on
    /// TCP port 7000 behind Websockify on port 8080.
    fn run_main(body: impl FnOnce(&mut MethodBuilder)) -> JvmRunResult {
        let mut b = ClassBuilder::new("Main", "java/lang/Object");
        let mut m = MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", MAIN_DESC, 2);
        body(&mut m);
        m.return_void();
        b.add_method(m);
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        net.listen(7000, std::rc::Rc::new(Echo));
        Websockify::listen(&net, 8080, 7000);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
        let jvm = Jvm::new(&engine, fs);
        jvm.set_network(net);
        jvm.launch("Main", &[]);
        jvm.run_to_completion().unwrap()
    }

    #[test]
    fn a_write_comes_back_through_a_blocking_read() {
        let r = run_main(|m| {
            m.ldc_string("echo.example.com");
            m.ldc_int(8080);
            m.invokestatic(SOCKET, "connect", "(Ljava/lang/String;I)I");
            m.istore(1);
            m.iload(1);
            m.ldc_string("ping");
            m.invokevirtual("java/lang/String", "getBytes", "()[B");
            m.invokestatic(SOCKET, "write", "(I[B)V");
            m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
            m.new_object("java/lang/String");
            m.dup();
            m.iload(1);
            m.ldc_int(16);
            m.invokestatic(SOCKET, "read", "(II)[B");
            m.invokespecial("java/lang/String", "<init>", "([B)V");
            m.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
            m.iload(1);
            m.invokestatic(SOCKET, "close", "(I)V");
        });
        assert_eq!((r.stdout.as_str(), r.uncaught), ("ping\n", None));
    }

    #[test]
    fn a_read_of_a_descriptor_that_is_not_open_throws() {
        let r = run_main(|m| {
            m.ldc_int(5);
            m.ldc_int(10);
            m.invokestatic(SOCKET, "read", "(II)[B");
            m.pop();
        });
        assert_eq!(
            r.uncaught.as_deref(),
            Some("java.io.IOException: bad socket")
        );
    }
}
