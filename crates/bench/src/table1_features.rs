//! Table 1: "Feature comparison of systems that execute existing code
//! inside the browser. ... DOPPIO and the DOPPIOJVM implement all of
//! these features in a cross-platform approach."
//!
//! Reproduction: the Doppio column is **probed, not asserted** — each
//! feature is exercised end-to-end against this implementation before
//! its checkmark is printed. The comparator columns are the paper's
//! published capability matrix (those systems are not reimplemented
//! here; reproducing their limitations is not the claim under test).

use std::rc::Rc;

use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC};
use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
use doppio_fs::{backends, FileSystem};
use doppio_heap::UnmanagedHeap;
use doppio_jsengine::{Browser, Engine};
use doppio_jvm::{fsutil, Jvm};
use doppio_sockets::{DoppioSocket, Network, ServerConn, SocketState, TcpServerApp, Websockify};

use crate::rule;

struct Echo;
impl TcpServerApp for Echo {
    fn on_connect(&self, _: &Engine, _: ServerConn) {}
    fn on_data(&self, _: &Engine, c: ServerConn, d: Vec<u8>) {
        c.send(d);
    }
    fn on_close(&self, _: &Engine, _: doppio_sockets::ConnId) {}
}

fn probe_filesystem() -> bool {
    let engine = Engine::new(Browser::Chrome);
    let fs = FileSystem::new(&engine, backends::local_storage(&engine));
    let ok = Rc::new(std::cell::Cell::new(false));
    let o = ok.clone();
    fs.write_file("/probe.bin", vec![1, 2, 3], move |_, r| {
        r.unwrap();
    });
    engine.run_until_idle();
    fs.read_file("/probe.bin", move |_, r| o.set(r.unwrap() == vec![1, 2, 3]));
    engine.run_until_idle();
    ok.get()
}

fn probe_heap() -> bool {
    let engine = Engine::new(Browser::Chrome);
    let mut heap = UnmanagedHeap::new(&engine, 4096);
    let p = heap.malloc(16).unwrap();
    heap.write_i64(p, -42).unwrap();
    let v = heap.read_i64(p).unwrap();
    heap.free(p).unwrap();
    v == -42
}

fn probe_sockets() -> bool {
    let engine = Engine::new(Browser::Chrome);
    let net = Network::new(&engine);
    net.listen(7000, Rc::new(Echo));
    Websockify::listen(&net, 8080, 7000);
    let sock = DoppioSocket::connect(&engine, &net, 8080).unwrap();
    engine.run_until_idle();
    sock.send(b"probe").unwrap();
    engine.run_until_idle();
    sock.recv(16) == b"probe" && sock.state() == SocketState::Open
}

/// Run a small JVM program and return (stdout, engine, suspensions).
fn run_jvm(build: impl FnOnce(&mut ClassBuilder)) -> (String, Engine, u64) {
    let mut b = ClassBuilder::new("Probe", "java/lang/Object");
    build(&mut b);
    let engine = Engine::new(Browser::Chrome);
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Probe", &[]);
    let r = jvm.run_to_completion().unwrap();
    (r.stdout, engine, r.runtime.suspensions)
}

fn probe_segmentation() -> bool {
    // A computation long enough to be killed by the watchdog if run as
    // one event: segmentation must keep every event finite.
    let (out, engine, suspensions) = run_jvm(|b| {
        let mut m =
            MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 2);
        let top = m.new_label();
        let done = m.new_label();
        m.ldc_int(0);
        m.istore(1);
        m.bind(top);
        m.iload(1);
        m.ldc_int(400_000);
        m.branch(doppio_classfile::opcodes::IF_ICMPGE, done);
        m.ldc_int(1);
        m.invokestatic("Probe", "id", "(I)I");
        m.pop();
        m.iinc(1, 1);
        m.goto_(top);
        m.bind(done);
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.ldc_string("done");
        m.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
        m.return_void();
        b.add_method(m);
        let mut id = MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "id", "(I)I", 1);
        id.iload(0);
        id.ireturn();
        b.add_method(id);
    });
    out == "done\n" && suspensions > 0 && engine.metrics().get("engine.watchdog_kills") == 0
}

fn probe_sync_api() -> bool {
    // Synchronous readLine over asynchronous input (§4.2).
    let mut b = ClassBuilder::new("Probe", "java/lang/Object");
    let mut m = MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 1);
    m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
    m.invokestatic("doppio/runtime/Console", "readLine", "()Ljava/lang/String;");
    m.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
    m.return_void();
    b.add_method(m);

    let engine = Engine::new(Browser::Chrome);
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Probe", &[]);
    jvm.runtime().start();
    engine.run_until_idle();
    let blocked = !jvm.is_finished();
    jvm.push_stdin(b"echoed\n");
    engine.run_until_idle();
    blocked && jvm.is_finished() && jvm.with_state(|s| s.stdout_text()) == "echoed\n"
}

fn probe_threads() -> bool {
    let src = r#"
        class W extends Thread {
            static int hits = 0;
            void run() { for (int i = 0; i < 50; i++) { W.bump(); } }
            static void bump() { hits++; }
        }
        class Probe {
            static void main(String[] args) {
                W a = new W(); W b = new W();
                a.start(); b.start(); a.join(); b.join();
                System.out.println(W.hits);
            }
        }
    "#;
    let classes = doppio_minijava::compile_to_bytes(src).unwrap();
    let engine = Engine::new(Browser::Chrome);
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Probe", &[]);
    jvm.run_to_completion().unwrap().stdout == "100\n"
}

fn probe_exceptions() -> bool {
    let src = r#"
        class Probe {
            static void main(String[] args) {
                int[] a = new int[1];
                int x = 1;
                int y = 0;
                System.out.println(a[0] + x / (y + 1));
            }
        }
    "#;
    // Exercise the thrown path too.
    let thrown = r#"
        class Probe {
            static void main(String[] args) {
                int zero = 0;
                int x = 1 / zero;
                System.out.println(x);
            }
        }
    "#;
    let run = |src: &str| {
        let classes = doppio_minijava::compile_to_bytes(src).unwrap();
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Probe", &[]);
        jvm.run_to_completion().unwrap()
    };
    let fine = run(src);
    let boom = run(thrown);
    fine.uncaught.is_none()
        && boom
            .uncaught
            .as_deref()
            .unwrap_or_default()
            .contains("ArithmeticException")
}

fn probe_in_browser() -> bool {
    // "Works entirely in the browser": the identical program runs on
    // every simulated browser profile, including IE8's degraded
    // feature set, with identical output — no native escape hatch.
    let mut outs = Vec::new();
    for b in Browser::ALL {
        let classes = doppio_minijava::compile_to_bytes(
            "class Probe { static void main(String[] args) { System.out.println(6 * 7); } }",
        )
        .unwrap();
        let engine = Engine::new(b);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Probe", &[]);
        outs.push(jvm.run_to_completion().unwrap().stdout);
    }
    outs.iter().all(|o| o == "42\n")
}

fn probe_reflection() -> bool {
    // §6.1: explicit frames make stack introspection trivial.
    let (out, _, _) = run_jvm(|b| {
        let mut m =
            MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 2);
        m.new_object("java/lang/RuntimeException");
        m.dup();
        m.ldc_string("introspect");
        m.invokespecial(
            "java/lang/RuntimeException",
            "<init>",
            "(Ljava/lang/String;)V",
        );
        m.astore(1);
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.aload(1);
        m.getfield("java/lang/Throwable", "stackTrace", "Ljava/lang/String;");
        m.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
        m.return_void();
        b.add_method(m);
    });
    out.contains("Probe.main")
}

/// Table 1 with the Doppio column probed live. Panics if a probe fails.
pub fn table1_features() -> String {
    let mut out = String::new();
    out.push_str("Table 1: feature comparison (Doppio column probed live)\n\n");

    type FeatureRow = (&'static str, &'static str, fn() -> bool, [&'static str; 5]);
    let features: Vec<FeatureRow> = vec![
        // (category, feature, probe, [JVM-era comparators: GWT(Java),
        //  Emscripten(LLVM IR), ASM.js, IL2JS(MSIL), WeScheme(Racket)])
        (
            "OS services",
            "File system (browser-based) §5.1",
            probe_filesystem,
            ["", "*", "", "", ""],
        ),
        (
            "OS services",
            "Unmanaged heap §5.2",
            probe_heap,
            ["", "*", "+", "", ""],
        ),
        (
            "OS services",
            "Sockets §5.3",
            probe_sockets,
            ["", "ok", "", "", ""],
        ),
        (
            "Execution",
            "Automatic event segmentation §4.1",
            probe_segmentation,
            ["", "", "", "", "ok"],
        ),
        (
            "Execution",
            "Synchronous API support §4.2",
            probe_sync_api,
            ["", "", "", "", "ok"],
        ),
        (
            "Execution",
            "Multithreading support §4.3",
            probe_threads,
            ["", "", "", "", "ok"],
        ),
        (
            "Execution",
            "Works entirely in the browser",
            probe_in_browser,
            ["", "", "", "", ""],
        ),
        (
            "Language",
            "Exceptions §6.6",
            probe_exceptions,
            ["ok", "ok", "", "ok", "ok"],
        ),
        (
            "Language",
            "Reflection (stack introspection)",
            probe_reflection,
            ["", "", "", "", ""],
        ),
    ];

    let row = |out: &mut String,
               [cat, feat, mark, gwt, emscr, asmjs, il2js, wescheme]: [&str; 8]| {
        putln!(
            out,
            "{cat:<12} {feat:<36} {mark:>7} {gwt:>6} {emscr:>6} {asmjs:>6} {il2js:>6} {wescheme:>9}"
        );
    };
    row(
        &mut out,
        [
            "category", "feature", "Doppio", "GWT", "Emscr", "ASMjs", "IL2JS", "WeScheme",
        ],
    );
    rule(&mut out, 96);
    let mut all = true;
    for (cat, feat, probe, [gwt, emscr, asmjs, il2js, wescheme]) in features {
        let ok = probe();
        all &= ok;
        let mark = if ok { "PASS" } else { "FAIL" };
        row(
            &mut out,
            [cat, feat, mark, gwt, emscr, asmjs, il2js, wescheme],
        );
    }
    rule(&mut out, 96);
    out.push_str(
        "\"*\" = needs a non-default compatibility flag on majority browsers (paper's asterisk);\n\
         \"+\" = will not work for over half the web population (paper's dagger).\n\
         Comparator columns are the paper's published matrix, not re-measured here.\n",
    );
    assert!(all, "a Table 1 probe failed:\n{out}");
    out.push_str("\nAll Doppio features verified by live end-to-end probes.\n");
    out
}
