//! File-system trace generation and replay (Figure 6).
//!
//! The paper evaluates the Doppio file system "on recorded file system
//! calls from DoppioJVM's javac benchmark. This benchmark performs
//! 3185 file system operations, touches 1560 unique files, reads over
//! 10.5 megabytes of data, and writes 97 kilobytes of data back to
//! disk. Much of this activity is due to the JVM classloader." The
//! recording is not available, so [`javac_trace`] synthesizes a trace
//! with exactly those aggregates (classloader-shaped: overwhelmingly
//! whole-file reads of many small class files), and [`replay`] runs it
//! against any backend, measuring virtual time.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use doppio_fs::FileSystem;
use doppio_jsengine::Engine;
use doppio_prng::SplitMix64;

/// One recorded operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Read a whole file.
    ReadFile(String),
    /// Write a whole file of the given size.
    WriteFile(String, usize),
    /// Stat a path.
    Stat(String),
    /// List a directory.
    Readdir(String),
}

/// A trace plus the files that must pre-exist.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Files to create before replay: `(path, size)`.
    pub preload: Vec<(String, usize)>,
    /// The operations, in order.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Total bytes the replay will read.
    pub fn read_bytes(&self) -> usize {
        let size_of = |p: &str| {
            self.preload
                .iter()
                .find(|(q, _)| q == p)
                .map(|(_, s)| *s)
                .unwrap_or(0)
        };
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::ReadFile(p) => size_of(p),
                _ => 0,
            })
            .sum()
    }

    /// Total bytes the replay will write.
    pub fn write_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::WriteFile(_, n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// Unique files touched.
    pub fn unique_files(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for op in &self.ops {
            match op {
                TraceOp::ReadFile(p) | TraceOp::WriteFile(p, _) | TraceOp::Stat(p) => {
                    set.insert(p.clone());
                }
                TraceOp::Readdir(_) => {}
            }
        }
        set.len()
    }
}

/// Synthesize the javac-shaped trace with the paper's aggregates:
/// 3185 operations, 1560 unique files, ~10.5 MB read, ~97 KB written.
pub fn javac_trace(seed: u64) -> Trace {
    let mut rng = SplitMix64::new(seed);
    const READ_FILES: usize = 1535;
    const WRITE_FILES: usize = 25;
    const STATS: usize = 1525;
    const READDIRS: usize = 100;
    // 1535 reads + 25 writes = 1560 unique files;
    // 1535 + 25 + 1525 + 100 = 3185 operations.
    const TOTAL_READ: usize = 10_750_000; // "over 10.5 megabytes"
    const TOTAL_WRITE: usize = 97 * 1024;

    // Class-file-like size distribution over the read set.
    let mut sizes: Vec<usize> = (0..READ_FILES)
        .map(|_| {
            let base: f64 = rng.gen_range(1.0f64..4.0).exp(); // e^1..e^4 ≈ 2.7..54.6
            (base * 220.0) as usize + 256
        })
        .collect();
    let sum: usize = sizes.iter().sum();
    // Scale to the target total.
    for s in &mut sizes {
        *s = (*s as u64 * TOTAL_READ as u64 / sum as u64) as usize;
    }

    let dirs = [
        "java/lang",
        "java/util",
        "java/io",
        "com/sun/tools/javac",
        "sun/misc",
    ];
    let mut preload = Vec::with_capacity(READ_FILES);
    for (i, &size) in sizes.iter().enumerate() {
        let d = dirs[i % dirs.len()];
        preload.push((format!("/lib/{d}/C{i:04}.class"), size));
    }

    let mut ops = Vec::with_capacity(3185);
    // Classloader phase: interleave stats and reads, roughly in the
    // order a compiler touches classes.
    let mut order: Vec<usize> = (0..READ_FILES).collect();
    // Light shuffle: swap random pairs.
    for _ in 0..READ_FILES {
        let a = rng.gen_range(0..READ_FILES);
        let b = rng.gen_range(0..READ_FILES);
        order.swap(a, b);
    }
    let mut stats_left = STATS;
    let mut readdirs_left = READDIRS;
    for (k, &i) in order.iter().enumerate() {
        let path = preload[i].0.clone();
        if stats_left > 0 {
            ops.push(TraceOp::Stat(path.clone()));
            stats_left -= 1;
        }
        ops.push(TraceOp::ReadFile(path));
        if readdirs_left > 0 && k % 15 == 7 {
            ops.push(TraceOp::Readdir(format!("/lib/{}", dirs[k % dirs.len()])));
            readdirs_left -= 1;
        }
    }
    while readdirs_left > 0 {
        ops.push(TraceOp::Readdir("/lib".to_string()));
        readdirs_left -= 1;
    }
    // Output phase: javac writes its class files back.
    let per_write = TOTAL_WRITE / WRITE_FILES;
    for i in 0..WRITE_FILES {
        ops.push(TraceOp::WriteFile(
            format!("/out/Gen{i:02}.class"),
            per_write,
        ));
    }
    Trace { preload, ops }
}

/// Statistics from one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Virtual nanoseconds the replay took (excludes preloading).
    pub wall_ns: u64,
    /// Operations performed.
    pub ops: usize,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

/// Pre-create the trace's files on `fs` (not timed).
pub fn preload(engine: &Engine, fs: &FileSystem, trace: &Trace) {
    // Create directories first.
    let mut dirs: Vec<String> = Vec::new();
    for (p, _) in &trace.preload {
        collect_dirs(p, &mut dirs);
    }
    collect_dirs("/out/x", &mut dirs);
    dirs.sort_by_key(|d| d.matches('/').count());
    dirs.dedup();
    for d in &dirs {
        fs.mkdir(d, |_, _| {});
        engine.run_until_idle();
    }
    for (p, size) in &trace.preload {
        let data = vec![0xCAu8; *size];
        fs.write_file(p, data, |_, r| {
            r.unwrap_or_else(|e| panic!("preload: {e}"));
        });
    }
    engine.run_until_idle();
}

fn collect_dirs(path: &str, out: &mut Vec<String>) {
    let dir = doppio_fs::path::dirname(path);
    let comps = doppio_fs::path::components(&dir);
    let mut cur = String::new();
    for c in comps {
        cur = format!("{cur}/{c}");
        if !out.contains(&cur) {
            out.push(cur.clone());
        }
    }
}

/// Replay the trace against `fs`, returning timing and totals.
///
/// Operations run strictly sequentially (each issues when the previous
/// completes), as the single JVM thread of the original recording did.
pub fn replay(engine: &Engine, fs: &FileSystem, trace: &Trace) -> ReplayStats {
    let queue: Rc<RefCell<VecDeque<TraceOp>>> =
        Rc::new(RefCell::new(trace.ops.iter().cloned().collect()));
    let done = Rc::new(RefCell::new(false));
    let start = engine.now_ns();
    engine.metrics().reset_prefix("fs.");

    issue_next(engine, fs.clone(), queue, done.clone());
    engine.run_until_idle();
    assert!(*done.borrow(), "trace did not complete");

    ReplayStats {
        wall_ns: engine.now_ns() - start,
        ops: trace.ops.len(),
        bytes_read: engine.metrics().get("fs.bytes_read"),
        bytes_written: engine.metrics().get("fs.bytes_written"),
    }
}

fn issue_next(
    engine: &Engine,
    fs: FileSystem,
    queue: Rc<RefCell<VecDeque<TraceOp>>>,
    done: Rc<RefCell<bool>>,
) {
    let op = queue.borrow_mut().pop_front();
    let Some(op) = op else {
        *done.borrow_mut() = true;
        return;
    };
    let fs2 = fs.clone();
    let cont = move |e: &Engine| issue_next(e, fs2, queue, done);
    match op {
        TraceOp::ReadFile(p) => fs.read_file(&p, move |e, r| {
            r.unwrap_or_else(|err| panic!("trace read {err}"));
            cont(e);
        }),
        TraceOp::WriteFile(p, size) => fs.write_file(&p, vec![0xABu8; size], move |e, r| {
            r.unwrap_or_else(|err| panic!("trace write {err}"));
            cont(e);
        }),
        TraceOp::Stat(p) => fs.stat(&p, move |e, r| {
            r.unwrap_or_else(|err| panic!("trace stat {err}"));
            cont(e);
        }),
        TraceOp::Readdir(p) => fs.readdir(&p, move |e, r| {
            r.unwrap_or_else(|err| panic!("trace readdir {err}"));
            cont(e);
        }),
    }
    let _ = engine;
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_fs::backends;
    use doppio_jsengine::Browser;

    #[test]
    fn trace_matches_the_papers_aggregates() {
        let t = javac_trace(1);
        assert_eq!(t.ops.len(), 3185, "3185 file system operations");
        assert_eq!(t.unique_files(), 1560, "1560 unique files");
        let mb = t.read_bytes() as f64 / 1_000_000.0;
        assert!(mb > 10.5 && mb < 11.0, "reads {mb:.2} MB, want ~10.5");
        let kb = t.write_bytes() as f64 / 1024.0;
        assert!((95.0..=97.5).contains(&kb), "writes {kb:.1} KB, want ~97");
    }

    #[test]
    fn replay_runs_to_completion_on_memory_backend() {
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        let t = javac_trace(2);
        preload(&engine, &fs, &t);
        let stats = replay(&engine, &fs, &t);
        assert_eq!(stats.ops, 3185);
        assert_eq!(stats.bytes_read as usize, t.read_bytes());
        assert_eq!(stats.bytes_written as usize, t.write_bytes());
        assert!(stats.wall_ns > 0);
    }

    #[test]
    fn native_profile_replays_faster_than_browser() {
        let run = |browser| {
            let engine = Engine::new(browser);
            let fs = FileSystem::new(&engine, backends::in_memory(&engine));
            let t = javac_trace(3);
            preload(&engine, &fs, &t);
            replay(&engine, &fs, &t).wall_ns
        };
        let native = run(Browser::Native);
        let chrome = run(Browser::Chrome);
        // Figure 6: Doppio's fs is ~2.5x slower than Node in Chrome.
        assert!(chrome > native, "chrome {chrome} native {native}");
        let ratio = chrome as f64 / native as f64;
        assert!(ratio < 20.0, "ratio {ratio:.1} should be same order");
    }
}
