//! Quickstart: compile a Java program with MiniJava, mount it on the
//! Doppio file system, and run it on DoppioJVM inside a simulated
//! browser — the full pipeline of the paper in one page.
//!
//! Run with: `cargo run --example quickstart`

use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, Engine};
use doppio::jvm::{fsutil, Jvm};
use doppio::minijava::compile_to_bytes;
use doppio::report::RunReport;

const PROGRAM: &str = r#"
    class Greeter {
        String name;
        Greeter(String name) { this.name = name; }
        String greet() { return "Hello, " + name + "!"; }
    }
    class Main {
        static void main(String[] args) {
            Greeter g = new Greeter("browser");
            System.out.println(g.greet());
            long big = 1L << 40;
            System.out.println("2^40 = " + big);
            System.out.println("sqrt(2) = " + Math.sqrt(2.0));
        }
    }
"#;

fn main() {
    // 1. A simulated browser: Chrome's profile (event loop, virtual
    //    clock, watchdog, storage quotas). Histograms on, so the run
    //    report below has latency percentiles to show.
    let engine = Engine::builder(Browser::Chrome).histograms(true).build();

    // 2. A Doppio file system over an in-memory backend, holding the
    //    compiled class files like a web server would.
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    let classes = compile_to_bytes(PROGRAM).expect("compiles");
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);

    // 3. DoppioJVM: launches main, loads classes lazily through the fs
    //    (each load suspends the JVM thread on an async read, §6.4),
    //    and segments execution so the page would stay responsive.
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Main", &[]);
    let result = jvm.run_to_completion().expect("no deadlock");

    print!("{}", result.stdout);
    println!("---");
    println!("executed {} bytecode instructions", result.instructions);
    println!(
        "loaded {} classes through the file system",
        result.class_fetches
    );
    println!(
        "suspended {} times ({} ns) to keep the browser responsive",
        result.runtime.suspensions, result.runtime.suspended_ns
    );
    println!(
        "watchdog kills: {} (a monolithic run would have been killed)",
        engine.metrics().get("engine.watchdog_kills")
    );

    // 4. The one-paragraph run report: every run can summarize itself
    //    (counters, latency percentiles, wait-graph verdict).
    let report = RunReport::collect("quickstart", &engine).with_runtime(jvm.runtime());
    println!("---");
    println!("{}", report.summary());
    assert!(result.stdout.contains("Hello, browser!"));
}
