//! Cloud storage (§5.1): a *replicated* cloud backend mounted into the
//! file-system tree, used by an unmodified JVM program running as a
//! kernel process.
//!
//! "Using this backend API, we have implemented backends for five
//! separate file storage mechanisms ... one provides access to Dropbox
//! cloud storage." The notes app below just calls the ordinary file
//! API; that `/cloud` happens to be a three-node primary/backup
//! cluster behind a socket protocol is invisible to it — but very
//! visible on the virtual clock, and on the causal trace: every cloud
//! write crosses the network fabric, lands in the primary's journal,
//! replicates to both backups, and only then acks.
//!
//! Run with: `cargo run --example cloud_notes`. `tests/determinism.rs`
//! checks its stdout and final RunReport against a golden.

use std::rc::Rc;

use doppio::fs::{backends, FileSystem};
use doppio::jsengine::Browser;
use doppio::jvm::{fsutil, spawn_jvm};
use doppio::minijava::compile_to_bytes;
use doppio::report::RunReport;
use doppio::sockets::Network;
use doppio::storage::{StorageCluster, StorageConfig};
use doppio::trace::{CausalGraph, RingSink, TraceQuery};
use doppio::{BuildOnKernel, EngineBuilder, Kernel, SpawnOptions};

const NOTES_APP: &str = r#"
    class Main {
        static void main(String[] args) {
            // Write three notes: two local, one in the cloud.
            FileSystem.mkdir("/tmp/drafts");
            FileSystem.writeFileBytes("/tmp/drafts/a.txt", "draft A".getBytes());
            FileSystem.writeFileBytes("/tmp/drafts/b.txt", "draft B".getBytes());
            FileSystem.writeFileBytes("/cloud/published.txt",
                "Doppio breaks the browser language barrier".getBytes());

            // List both directories through the same API.
            String[] local = FileSystem.listDir("/tmp/drafts");
            for (int i = 0; i < local.length; i++) {
                System.out.println("local:  " + local[i]
                    + " (" + FileSystem.fileSize("/tmp/drafts/" + local[i]) + " bytes)");
            }
            String[] cloud = FileSystem.listDir("/cloud");
            for (int i = 0; i < cloud.length; i++) {
                System.out.println("cloud:  " + cloud[i]);
            }
            byte[] back = FileSystem.readFileBytes("/cloud/published.txt");
            System.out.println("readback: " + new String(back));
        }
    }
"#;

/// One run's output.
pub struct Notes {
    /// Everything `main` prints: the app's stdout, the report summary
    /// and the happens-before verdict.
    pub stdout: String,
    /// The run report, with its trace and causal sections.
    pub report: RunReport,
}

/// Run the notes app against a fresh three-node cluster.
pub fn run() -> Notes {
    // One kernel hosting both worlds: the JVM guest process and the
    // three storage-node processes it unknowingly talks to.
    let kernel = Kernel::new();
    let sink = Rc::new(RingSink::with_capacity(1 << 16));
    let engine = EngineBuilder::new(Browser::Chrome)
        .rng_seed(7)
        .trace_sink(sink.clone())
        .build_on(&kernel);
    let net = Network::new(&engine);
    let cluster = StorageCluster::launch(&engine, &net, StorageConfig::default(), None);

    // The mount tree: in-memory root and /tmp, the replicated cluster
    // (one cached client session) at /cloud.
    let mnt = backends::mountable(backends::in_memory(&engine));
    mnt.mount("/tmp", backends::in_memory(&engine)).unwrap();
    mnt.mount("/cloud", doppio::storage::replicated(&cluster, "notes"))
        .unwrap();
    let fs = FileSystem::new(&engine, mnt);

    let classes = compile_to_bytes(NOTES_APP).expect("compiles");
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);

    let out = kernel.pipe();
    let (proc_handle, _jvm) =
        spawn_jvm(&kernel, SpawnOptions::new("notes").stdout(out), fs, "Main");
    let status = proc_handle.wait().expect("no deadlock");
    kernel.run().expect("drain");
    assert!(status.success(), "notes app exited {status:?}");

    let mut stdout = String::from_utf8(kernel.host_read(out).expect("live pipe")).expect("utf8");
    assert!(stdout.contains("readback: Doppio breaks the browser language barrier"));

    // End-to-end through the cluster: the published note is durable on
    // the primary AND both backups, not just in the client cache.
    for node in [0, 1, 2] {
        assert_eq!(
            cluster.object(node, "/published.txt").as_deref(),
            Some(b"Doppio breaks the browser language barrier".as_slice()),
            "note missing on node {node}"
        );
    }

    let report = RunReport::collect("cloud_notes", &engine)
        .with_kernel(&kernel)
        .with_trace(&sink)
        .with_causal(&sink);
    stdout.push_str(&format!("---\n{}\n", report.summary()));

    // The whole app ran as one traced `proc:notes` request, and its
    // virtual wall time decomposes into named categories (interpreter
    // slices, network hops, journal/replication waits...).
    let causal = report.causal.as_ref().expect("causal section");
    assert_eq!(causal.truncated, 0);
    let class = causal.classes.get("proc:notes").expect("traced request");
    assert_eq!(class.requests, 1);
    assert!(
        class.named_ns() * 100 >= class.wall_ns * 95,
        "only {} of {} ns attributed",
        class.named_ns(),
        class.wall_ns
    );

    // The protocol ordering the journal exists for, checked on the
    // causal graph: every replication ack happens after (and causally
    // downstream of) a journal append.
    let graph = CausalGraph::build(&sink.events(), sink.dropped());
    let query = TraceQuery::new(&graph);
    query
        .assert_happens_before("storage.journal.append", "storage.repl.ack")
        .expect("journal append must happen-before its replication ack");
    stdout.push_str("journal-before-ack: verified on the causal graph\n");
    Notes { stdout, report }
}

fn main() {
    print!("{}", run().stdout);
}
