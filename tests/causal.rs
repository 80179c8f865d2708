//! Causal tracing, end-to-end: span propagation across process,
//! pipe, socket, and storage-protocol edges; critical-path analysis
//! and latency attribution on real workloads; and determinism — the
//! critical-path artifact matches its golden at every shard count, and
//! attaching a tracer never moves the virtual clock.

mod common;

use std::rc::Rc;

use common::check_golden_at;
use doppio::fs::{backends, FileSystem};
use doppio::jsengine::Browser;
use doppio::jvm::{fsutil, spawn_jvm};
use doppio::minijava::compile_to_bytes;
use doppio::scale::run_sharded;
use doppio::sockets::Network;
use doppio::storage::{StorageCluster, StorageConfig, WriteOp};
use doppio::trace::{chrome, ArgValue, CausalGraph, CausalReport, RingSink, TraceQuery};
use doppio::{BuildOnKernel, EngineBuilder, Kernel, SpawnOptions};

const PRODUCER: &str = r#"
    class Main {
        static void main(String[] args) {
            for (int i = 0; i < 5; i++) {
                System.out.println("line " + i);
            }
        }
    }
"#;

const FILTER: &str = r#"
    class Main {
        static void main(String[] args) {
            int n = 0;
            String line = Console.readLine();
            while (line != null) {
                System.out.println("got " + line);
                n = n + 1;
                line = Console.readLine();
            }
            System.exit(n);
        }
    }
"#;

/// `producer | filter` on a traced kernel: two JVM guests over a real
/// pipe. Returns the sink and where the virtual clock ended.
fn traced_pipeline(seed: u64, ring_capacity: usize) -> (Rc<RingSink>, u64) {
    let kernel = Kernel::new();
    let sink = Rc::new(RingSink::with_capacity(ring_capacity));
    let engine = EngineBuilder::new(Browser::Chrome)
        .rng_seed(seed)
        .trace_sink(sink.clone())
        .build_on(&kernel);

    let classes_fs = |src: &str| {
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_class_files(&engine, &fs, "/classes", &compile_to_bytes(src).unwrap());
        fs
    };
    let (p1, p2) = (kernel.pipe(), kernel.pipe());
    let (producer, _) = spawn_jvm(
        &kernel,
        SpawnOptions::new("producer").stdout(p1),
        classes_fs(PRODUCER),
        "Main",
    );
    let (filter, _) = spawn_jvm(
        &kernel,
        SpawnOptions::new("filter").stdin(p1).stdout(p2),
        classes_fs(FILTER),
        "Main",
    );
    kernel.run().unwrap();
    assert!(producer.status().unwrap().success());
    assert_eq!(filter.status().unwrap().code(), Some(5));
    (sink, engine.now_ns())
}

/// A replicated-storage workload with tracing on: two cached sessions
/// issue puts/gets against a three-node cluster.
fn traced_storage(seed: u64) -> Rc<RingSink> {
    let sink = Rc::new(RingSink::with_capacity(1 << 16));
    let engine = EngineBuilder::new(Browser::Chrome)
        .rng_seed(seed)
        .trace_sink(sink.clone())
        .build();
    let net = Network::new(&engine);
    let cluster = StorageCluster::launch(&engine, &net, StorageConfig::default(), None);
    let t0 = cluster.client("t0", true);
    let t1 = cluster.client("t1", true);
    for round in 0..3u32 {
        t0.kv_write(
            &engine,
            WriteOp::Put {
                key: "/a".into(),
                data: vec![round as u8],
            },
            Box::new(|_, _| {}),
        );
        t1.kv_get(&engine, "/a", Box::new(|_, _| {}));
        engine.run_until_idle();
    }
    sink
}

#[test]
fn critical_path_artifact_is_identical_across_reruns_and_shard_counts() {
    // Shard three seeds over 1 thread and 4 threads: each shard's
    // report and the merged report must not move a byte.
    check_golden_at("causal/critical_paths", &[1, 4], |threads| {
        let reports = run_sharded(3, threads, |i| {
            let (sink, _) = traced_pipeline(i as u64 + 1, 1 << 16);
            CausalReport::analyze(&sink.events(), sink.dropped())
        });
        let mut out = String::new();
        for (i, r) in reports.iter().enumerate() {
            out += &format!("--- seed {}\n{}\n", i + 1, r.to_json_string());
        }
        out + &format!(
            "--- merged\n{}\n",
            CausalReport::merge(&reports).to_json_string()
        )
    });
}

#[test]
fn attribution_names_at_least_95_percent_of_request_wall_time() {
    let (sink, _) = traced_pipeline(3, 1 << 16);
    let report = CausalReport::analyze(&sink.events(), sink.dropped());
    assert_eq!(report.truncated, 0);
    for name in ["proc:producer", "proc:filter"] {
        let class = report
            .classes
            .get(name)
            .unwrap_or_else(|| panic!("traced request class {name}"));
        assert_eq!(class.requests, 1);
        assert!(
            class.named_ns() * 100 >= class.wall_ns * 95,
            "{name}: only {} of {} ns in named categories ({:?})",
            class.named_ns(),
            class.wall_ns,
            class.attributed
        );
        // The critical path accounts for the slowest request exactly.
        let path_ns: u64 = class.slowest_path.iter().map(|(_, ns)| ns).sum();
        assert_eq!(path_ns, class.slowest_wall_ns, "path steps sum to wall");
    }
}

#[test]
fn journal_append_happens_before_replication_ack() {
    let sink = traced_storage(11);
    let graph = CausalGraph::build(&sink.events(), sink.dropped());
    let query = TraceQuery::new(&graph);
    // The durability ordering the journal exists for: every `Ack{seq}`
    // the primary accepts is causally downstream of the journal append
    // for that seq — reachable through the wire-carried span contexts.
    query
        .assert_happens_before("storage.journal.append", "storage.repl.ack")
        .expect("journal append must happen-before replication ack");
    // And the storage requests themselves were traced: spans exist for
    // a completed storage request.
    let req = graph
        .requests()
        .iter()
        .find(|r| r.class.starts_with("storage:"))
        .expect("a storage request");
    assert!(!query.spans_for(req.trace_id).is_empty());
}

#[test]
fn virtual_time_is_invariant_under_tracing() {
    // The same pipeline with tracing off: kernel events, pipe flow,
    // and exit codes are identical, and the virtual clock ends on the
    // same nanosecond — observation does not perturb the simulation.
    let untraced = |seed: u64| {
        let kernel = Kernel::new();
        let engine = EngineBuilder::new(Browser::Chrome)
            .rng_seed(seed)
            .build_on(&kernel);
        let classes_fs = |src: &str| {
            let fs = FileSystem::new(&engine, backends::in_memory(&engine));
            fsutil::mount_class_files(&engine, &fs, "/classes", &compile_to_bytes(src).unwrap());
            fs
        };
        let (p1, p2) = (kernel.pipe(), kernel.pipe());
        spawn_jvm(
            &kernel,
            SpawnOptions::new("producer").stdout(p1),
            classes_fs(PRODUCER),
            "Main",
        );
        spawn_jvm(
            &kernel,
            SpawnOptions::new("filter").stdin(p1).stdout(p2),
            classes_fs(FILTER),
            "Main",
        );
        kernel.run().unwrap();
        engine.now_ns()
    };
    let (_, traced_ns) = traced_pipeline(7, 1 << 16);
    assert_eq!(traced_ns, untraced(7), "tracing moved the virtual clock");
}

#[test]
fn truncated_ring_degrades_to_a_verdict_not_a_wrong_path() {
    // A ring far too small for the pipeline: events are evicted. The
    // analyzer must refuse to report a path, render the truncation
    // verdict, and fail happens-before assertions loudly.
    let (sink, _) = traced_pipeline(7, 64);
    assert!(sink.dropped() > 0, "tiny ring must truncate");
    let report = CausalReport::analyze(&sink.events(), sink.dropped());
    assert_eq!(report.truncated, sink.dropped());
    assert!(report.classes.is_empty(), "tables withheld on truncation");
    let md = report.to_markdown();
    assert!(
        md.contains(&format!("[truncated: {} events]", sink.dropped())),
        "verdict missing from markdown: {md}"
    );
    let graph = CausalGraph::build(&sink.events(), sink.dropped());
    let err = TraceQuery::new(&graph)
        .assert_happens_before("storage.journal.append", "storage.repl.ack")
        .expect_err("assertions on truncated rings must fail");
    assert!(err.contains("truncated"), "unhelpful error: {err}");

    // A truncated shard poisons a merged report the same way.
    let (full, _) = traced_pipeline(7, 1 << 16);
    let ok = CausalReport::analyze(&full.events(), full.dropped());
    let merged = CausalReport::merge(&[ok, report]);
    assert!(merged.truncated > 0 && merged.classes.is_empty());
}

#[test]
fn chrome_round_trip_preserves_the_critical_path() {
    // Export the causal trace through the Chrome trace_event exporter,
    // re-import it with the strict parser, and re-run the analysis:
    // flow events, span args, and markers all survive, so the critical
    // path is identical.
    let (sink, _) = traced_pipeline(5, 1 << 16);
    let direct = CausalReport::analyze(&sink.events(), sink.dropped());

    let doc = chrome::export_sink(&sink);
    let (events, dropped) = chrome::import(&doc).expect("strict import");
    assert_eq!(dropped, sink.dropped());
    // Every id and integer arg comes back exact: trace, span, parent
    // and flow ids use all 64 bits.
    let original = sink.events();
    assert_eq!(events.len(), original.len());
    let mut big = 0;
    for (got, want) in events.iter().zip(&original) {
        assert_eq!(got.id, want.id, "id of {}", want.name);
        for (key, value) in &want.args {
            let ArgValue::U64(n) = value else { continue };
            if let Some((_, back)) = got.args.iter().find(|(k, _)| k == key) {
                assert_eq!(back, &ArgValue::U64(*n), "{key} of {}", want.name);
                big += usize::from(*n > 1 << 53);
            }
        }
    }
    assert!(big > 100, "only {big} integer args past 2^53 checked");
    let reimported = CausalReport::analyze(&events, dropped);

    assert_eq!(
        direct.to_json_string(),
        reimported.to_json_string(),
        "critical path changed across the chrome export round trip"
    );
    assert!(!direct.classes.is_empty(), "round trip proved nothing");
}
