//! End-to-end check of the tracing layer: a responsive_page-style run
//! (JVM computation segmented under user input) with a `RingSink`
//! attached must produce a parseable Chrome trace whose engine spans
//! agree with the engine's own counters.

use std::rc::Rc;

use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, Engine};
use doppio::jvm::{fsutil, Jvm};
use doppio::minijava::compile_to_bytes;
use doppio::trace::json::{self, Json};
use doppio::trace::{chrome, RingSink};

const CRUNCHER: &str = r#"
    class Main {
        static int work(int x) { return x * 31 + 17; }
        static void main(String[] args) {
            int acc = 0;
            for (int i = 0; i < 200000; i++) { acc = work(acc); }
            System.out.println("crunched: " + acc);
        }
    }
"#;

#[test]
fn a_finished_jvm_frees_its_world() {
    // Running a finished program again schedules nothing, and a
    // finished thread's guest state is dropped: once the embedder drops
    // its handles, nothing the run built still holds the engine, so the
    // trace sink is back to its one owner.
    let sink = Rc::new(RingSink::with_capacity(1 << 12));
    {
        let engine = Engine::builder(Browser::Chrome)
            .trace_sink(sink.clone())
            .build();
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        let classes = compile_to_bytes(
            r#"class Main { static void main(String[] args) { System.out.println("hi"); } }"#,
        )
        .expect("compiles");
        fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Main", &[]);
        let first = jvm.run_to_completion().unwrap();
        let again = jvm.run_to_completion().unwrap();
        assert_eq!(first.stdout, "hi\n");
        assert_eq!(again.stdout, first.stdout);
        assert_eq!(again.wall_ns, 0);
        assert!(!sink.is_empty());
    }
    assert_eq!(Rc::strong_count(&sink), 1);
}

#[test]
fn traced_run_exports_consistent_chrome_json() {
    let sink = Rc::new(RingSink::default());
    let engine = Engine::builder(Browser::Chrome)
        .trace_sink(sink.clone())
        .build();
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    let classes = compile_to_bytes(CRUNCHER).expect("compiles");
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Main", &[]);
    jvm.runtime().start();

    // Interleave user input with the computation, like the example.
    let mut clicks = 0;
    while !jvm.is_finished() {
        for _ in 0..10 {
            if !engine.run_one() {
                break;
            }
        }
        if clicks < 5 && !jvm.is_finished() {
            clicks += 1;
            engine.inject_user_input(|_| {});
        }
    }
    engine.run_until_idle();
    let events_run = engine.metrics().get("engine.events_run");
    assert!(events_run > 0);

    let doc = chrome::export_sink(&sink);
    let v = json::parse(&doc).expect("exported trace must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Nothing fell off the ring: the span count below is exact.
    assert_eq!(
        v.get("metadata")
            .and_then(|m| m.get("dropped_events"))
            .and_then(Json::as_f64),
        Some(0.0)
    );

    // One engine "X" span per dispatched event.
    let engine_spans = events
        .iter()
        .filter(|e| {
            e.get("cat").and_then(Json::as_str) == Some("engine")
                && e.get("ph").and_then(Json::as_str) == Some("X")
        })
        .count();
    assert_eq!(engine_spans as u64, events_run);

    // The run touches the engine, the runtime scheduler, the file
    // system (class loading), and the JVM sampler.
    let mut cats: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("cat").and_then(Json::as_str))
        .filter(|c| *c != "__metadata")
        .collect();
    cats.sort_unstable();
    cats.dedup();
    for want in ["engine", "core", "fs", "jvm"] {
        assert!(cats.contains(&want), "missing category {want}: {cats:?}");
    }

    // Spans carry the ns-precision virtual clock: every ts fits the
    // run's virtual duration.
    let end_us = engine.now_ns() as f64 / 1000.0;
    for e in events {
        if let Some(ts) = e.get("ts").and_then(Json::as_f64) {
            assert!(ts <= end_us, "span ts {ts} beyond clock end {end_us}");
        }
    }
}
