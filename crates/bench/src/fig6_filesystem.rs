//! Figure 6: "Doppio file system performance on recorded file system
//! calls from DoppioJVM's javac benchmark relative to Node JS running
//! on top of the native OS file system. The Doppio file system has
//! nearly identical performance to the native file system in Internet
//! Explorer 10, and is only 2.5x slower in Google Chrome."
//!
//! Reproduction: the synthesized javac trace (3185 ops, 1560 files,
//! ~10.5 MB read, ~97 KB written) replays against the in-memory Doppio
//! backend under each browser profile; the baseline is the same replay
//! under the native profile (the Node-JS-on-native-fs analog).
//!
//! Beyond the paper's figure, a backend-comparison sweep replays the
//! same trace under Chrome against the pluggable backends — in-memory,
//! Dropbox, and the replicated object store (a live
//! three-node cluster over simulated sockets) — and, for the
//! replicated store, crashes the primary afterwards to measure journal
//! recovery. Its measurements form the `fig6_filesystem.backend_*`
//! sections. (localStorage sits out: its 5 MB quota cannot hold the
//! trace's working set.)

use doppio_core::RunReport;
use doppio_fs::{backends, FileSystem};
use doppio_jsengine::{Browser, Engine};
use doppio_sockets::Network;
use doppio_storage::{StorageCluster, StorageConfig};
use doppio_workloads::fstrace::{javac_trace, preload, replay};

use crate::{cache_counters, ms, ratio, rule, with_sections, Section};

fn run(browser: Browser) -> u64 {
    let engine = Engine::new(browser);
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    let trace = javac_trace(2014);
    preload(&engine, &fs, &trace);
    replay(&engine, &fs, &trace).wall_ns
}

/// Replay the trace against one named backend under Chrome, append its
/// row (replay virtual time, throughput, client cache hit rate, and for
/// the replicated store the journal recovery cost) and return its
/// section. The replicated run keeps the cluster so recovery can be
/// measured after.
fn backend_row(out: &mut String, name: &str) -> (String, Section) {
    let engine = Engine::new(Browser::Chrome);
    let net = Network::new(&engine);
    let cluster = StorageCluster::launch(&engine, &net, StorageConfig::default(), None);
    let backend = match name {
        "in_memory" => backends::in_memory(&engine),
        "dropbox" => backends::dropbox(&engine),
        "replicated" => doppio_storage::replicated(&cluster, "bench"),
        _ => unreachable!("unknown backend {name}"),
    };
    let fs = FileSystem::new(&engine, backend);
    let trace = javac_trace(2014);
    preload(&engine, &fs, &trace);
    let stats = replay(&engine, &fs, &trace);

    // Journal recovery: crash the primary and charge everything from
    // the crash to quiescence (restart delay + replay + re-dial).
    let (journal_replay_ns, journal_records_replayed) = if name == "replicated" {
        let t0 = engine.now_ns();
        cluster.crash(0, 1_000_000);
        engine.run_until_idle();
        let report = RunReport::collect("fig6", &engine);
        (
            engine.now_ns() - t0,
            report.counter("storage.journal.replayed"),
        )
    } else {
        (0, 0)
    };

    let report = RunReport::collect("fig6", &engine);
    let (_, _, cache_hit_rate) = cache_counters(&report, "storage.cache");
    let ops_per_sec = stats.ops as f64 / (stats.wall_ns as f64 / 1e9);
    let recovery = if journal_records_replayed > 0 {
        format!(
            "{} ({journal_records_replayed} recs)",
            ms(journal_replay_ns)
        )
    } else {
        "-".to_string()
    };
    putln!(
        out,
        "{name:>11} | {:>12} | {ops_per_sec:>12.0} | {:>9.1}% | {recovery:>14}",
        ms(stats.wall_ns),
        cache_hit_rate * 100.0,
    );
    (
        format!("fig6_filesystem.backend_{name}"),
        vec![
            ("replay_wall_ns".into(), stats.wall_ns as f64),
            ("ops_per_sec".into(), ops_per_sec),
            ("cache_hit_rate".into(), cache_hit_rate),
            ("journal_replay_ns".into(), journal_replay_ns as f64),
            (
                "journal_records_replayed".into(),
                journal_records_replayed as f64,
            ),
        ],
    )
}

/// Figure 6's replay table and the backend comparison, then the
/// backends' JSON sections.
pub fn fig6_filesystem() -> String {
    let mut out = String::new();
    let trace = javac_trace(2014);
    putln!(
        out,
        "Figure 6: Doppio fs replaying the recorded javac trace vs native\n\
         trace: {} ops, {} unique files, {:.1} MB read, {:.1} KB written\n\
         (paper: ~1.18x native in IE10, ~2.5x in Chrome)\n",
        trace.ops.len(),
        trace.unique_files(),
        trace.read_bytes() as f64 / 1e6,
        trace.write_bytes() as f64 / 1024.0
    );

    out.push_str("   profile |  replay time |  vs native\n");
    rule(&mut out, 40);
    let times: Vec<(Browser, u64)> = std::iter::once(Browser::Native)
        .chain(Browser::EVALUATED)
        .map(|b| (b, run(b)))
        .collect();
    let native = times[0].1;
    for (b, t) in times {
        let slowdown = ratio(t as f64 / native as f64);
        putln!(out, "{:>10} | {:>12} | {slowdown:>10}", b.name(), ms(t));
    }

    out.push_str("\nBackend comparison (Chrome profile, same trace):\n");
    out.push_str("    backend |  replay time |      ops/sec |  cache hit | journal replay\n");
    rule(&mut out, 72);
    let sections = ["in_memory", "dropbox", "replicated"]
        .into_iter()
        .map(|name| backend_row(&mut out, name))
        .collect();

    out.push_str(
        "\n\nShape checks: every browser is the same order of magnitude as\n\
         native (the paper's headline: a browser fs can approach native),\n\
         with the browser overhead coming from event-loop dispatch and\n\
         per-byte typed-array traffic. The replicated store pays its\n\
         round-trips at replay time and its journal at recovery time.\n",
    );
    with_sections(out, sections)
}
