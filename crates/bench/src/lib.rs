//! Shared harness code for the figure/table binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the
//! paper's evaluation:
//!
//! * `table1_features`  — the feature-comparison matrix (Table 1)
//! * `table2_storage`   — the storage-mechanism survey (Table 2)
//! * `fig3_macro`       — macro benchmarks vs the native baseline
//! * `fig4_micro`       — DeltaBlue/pidigits CPU vs wall-clock
//! * `fig5_suspension`  — suspension time as % of runtime
//! * `fig6_filesystem`  — the javac fs-trace replay
//! * `ablation_resume`  — §4.4/§8 ablation: resumption mechanisms and
//!   time-slice sweep
//!
//! Run them with `cargo run -p doppio-bench --release --bin <name>`.

/// Geometric mean of a slice of ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Render a ratio like the paper's figures ("32.4x").
pub fn ratio(x: f64) -> String {
    format!("{x:.1}x")
}

/// Render virtual nanoseconds as milliseconds.
pub fn ms(ns: u64) -> String {
    format!("{:.1} ms", ns as f64 / 1e6)
}

/// Print a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values_is_the_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_matches_known_case() {
        // geomean(2, 8) = 4
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(32.44), "32.4x");
        assert_eq!(ms(1_500_000), "1.5 ms");
    }
}

/// Machine-readable benchmark results (`BENCH_interp.json`).
///
/// Each figure binary appends its measurements as flat sections keyed
/// `"<binary>.<workload>"` (e.g. `"fig4_micro.deltablue"`), merging
/// into whatever other binaries already wrote, so running the whole
/// suite accumulates one combined file at the repository root. Values
/// are plain numbers: virtual-clock times, cache hit/miss counters and
/// rates, and allocator scan lengths.
pub mod results {
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    use doppio_core::report::RunReport;
    use doppio_trace::json::{self, Json};

    /// One flat section of numeric measurements.
    pub type Section = Vec<(String, f64)>;

    /// Where the results file lives: `DOPPIO_BENCH_OUT` if set,
    /// otherwise `BENCH_interp.json` at the repository root.
    pub fn out_path() -> PathBuf {
        match std::env::var_os("DOPPIO_BENCH_OUT") {
            Some(p) => PathBuf::from(p),
            None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_interp.json"),
        }
    }

    /// Where the multi-tenant scale harness's results live:
    /// `DOPPIO_BENCH_SCALE_OUT` if set, otherwise `BENCH_scale.json`
    /// at the repository root.
    pub fn scale_out_path() -> PathBuf {
        match std::env::var_os("DOPPIO_BENCH_SCALE_OUT") {
            Some(p) => PathBuf::from(p),
            None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json"),
        }
    }

    /// True when the light profile is requested (CI smoke runs): skip
    /// the slower browser sweeps and keep only the cheap measurements.
    pub fn light_profile() -> bool {
        std::env::var_os("DOPPIO_BENCH_LIGHT").is_some_and(|v| v != "0" && !v.is_empty())
    }

    /// Merge `sections` into the default results file ([`out_path`]);
    /// see [`write_sections_at`].
    pub fn write_sections(sections: Vec<(String, Section)>) -> PathBuf {
        write_sections_at(out_path(), sections)
    }

    /// Merge `sections` into the results file at `path`: sections
    /// written now replace same-named ones from earlier runs (last
    /// writer wins per section key), everything else is preserved.
    ///
    /// The write is atomic: the merged document lands in a temp file
    /// next to the target (unique per process) and is renamed into
    /// place, so a reader never observes a torn file and concurrent
    /// writers degrade to last-writer-wins rather than interleaved
    /// garbage. Returns the path written.
    pub fn write_sections_at(path: PathBuf, sections: Vec<(String, Section)>) -> PathBuf {
        let mut merged: BTreeMap<String, Json> = match std::fs::read_to_string(&path) {
            Ok(text) => match json::parse(&text) {
                Ok(Json::Obj(m)) => m,
                _ => BTreeMap::new(),
            },
            Err(_) => BTreeMap::new(),
        };
        for (name, section) in sections {
            let obj: BTreeMap<String, Json> = section
                .into_iter()
                .map(|(k, v)| (k, Json::Num(v)))
                .collect();
            merged.insert(name, Json::Obj(obj));
        }
        let text = serialize(&Json::Obj(merged));
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, text).unwrap_or_else(|e| panic!("write {}: {e}", tmp.display()));
        std::fs::rename(&tmp, &path)
            .unwrap_or_else(|e| panic!("rename {} -> {}: {e}", tmp.display(), path.display()));
        path
    }

    /// Serialize a [`Json`] value. Delegates to the shared writer in
    /// [`doppio_trace::json::to_string`] (pretty, two-space indent,
    /// keys in `BTreeMap` order — deterministic across runs).
    pub fn serialize(v: &Json) -> String {
        json::to_string(v)
    }

    /// The standard measurement section for one workload run.
    pub fn run_section(r: &doppio_workloads::RunOutcome) -> Section {
        let (cp_hit, cp_miss, cp_rate) = cache_counters(&r.report, "jvm.cp_cache");
        let (ic_hit, ic_miss, ic_rate) = cache_counters(&r.report, "jvm.icache");
        vec![
            ("wall_ns".into(), r.wall_ns as f64),
            ("cpu_ns".into(), r.cpu_ns as f64),
            ("instructions".into(), r.instructions as f64),
            ("cp_cache_hit".into(), cp_hit as f64),
            ("cp_cache_miss".into(), cp_miss as f64),
            ("cp_cache_hit_rate".into(), cp_rate),
            ("icache_hit".into(), ic_hit as f64),
            ("icache_miss".into(), ic_miss as f64),
            ("icache_hit_rate".into(), ic_rate),
        ]
    }

    /// One interpreter resolution cache's `(hits, misses, hit rate)`
    /// from a run's report: the `<cache>.hit` and `<cache>.miss`
    /// counters (`cache` is `"jvm.cp_cache"` or `"jvm.icache"`), with a
    /// rate of 0 when the cache was never exercised.
    pub fn cache_counters(report: &RunReport, cache: &str) -> (u64, u64, f64) {
        let hit = report.counter(&format!("{cache}.hit"));
        let miss = report.counter(&format!("{cache}.miss"));
        let rate = if hit + miss == 0 {
            0.0
        } else {
            hit as f64 / (hit + miss) as f64
        };
        (hit, miss, rate)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn serializer_round_trips_through_the_parser() {
            let mut obj = BTreeMap::new();
            obj.insert("a \"x\"\n".to_string(), Json::Num(1.5));
            obj.insert(
                "b".to_string(),
                Json::Arr(vec![Json::Null, Json::Bool(true)]),
            );
            obj.insert("c".to_string(), Json::Obj(BTreeMap::new()));
            let v = Json::Obj(obj);
            let text = serialize(&v);
            assert_eq!(json::parse(&text).unwrap(), v);
        }

        #[test]
        fn write_sections_at_merges_atomically_per_section() {
            let dir = std::env::temp_dir()
                .join(format!("doppio-bench-results-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("BENCH_test.json");

            // First writer: two sections.
            write_sections_at(
                path.clone(),
                vec![
                    ("a.one".into(), vec![("x".into(), 1.0)]),
                    ("b.two".into(), vec![("y".into(), 2.0)]),
                ],
            );
            // Second writer: replaces one section, leaves the other.
            write_sections_at(
                path.clone(),
                vec![("a.one".into(), vec![("x".into(), 9.0)])],
            );

            let text = std::fs::read_to_string(&path).unwrap();
            let Json::Obj(m) = json::parse(&text).unwrap() else {
                panic!("results file is not an object");
            };
            assert_eq!(
                m["a.one"],
                Json::Obj([("x".to_string(), Json::Num(9.0))].into_iter().collect())
            );
            assert_eq!(
                m["b.two"],
                Json::Obj([("y".to_string(), Json::Num(2.0))].into_iter().collect())
            );
            // The temp file was renamed away, not left behind.
            let leftovers: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .filter(|n| n.to_string_lossy().contains("tmp"))
                .collect();
            assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A tiny fixed-budget micro-benchmark harness.
///
/// The build is fully offline, so instead of an external bench
/// framework the `benches/` targets use this: size a batch to a few
/// milliseconds, take several measured batches, keep the fastest
/// (least scheduler noise), and print one line per benchmark.
pub mod harness {
    use std::hint::black_box;
    use std::time::Instant;

    /// Minimum wall time a measured batch should cover.
    const BATCH_NS: u128 = 10_000_000;
    /// Measured batches per benchmark (the fastest wins).
    const BATCHES: u32 = 5;

    /// Measure `f` and return the best observed ns/iter. `f` must
    /// return a value derived from its work so it can't be optimized
    /// away (it is `black_box`ed here).
    pub fn measure<T>(mut f: impl FnMut() -> T) -> f64 {
        // Grow the batch until it covers BATCH_NS of wall time.
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            if t0.elapsed().as_nanos() >= BATCH_NS || iters >= 1 << 22 {
                break;
            }
            iters *= 2;
        }
        let mut best = f64::INFINITY;
        for _ in 0..BATCHES {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        best
    }

    /// Run and report one benchmark; returns ns/iter.
    pub fn bench<T>(group: &str, name: &str, f: impl FnMut() -> T) -> f64 {
        let ns = measure(f);
        println!("{group}/{name:<28} {:>12.1} ns/iter", ns);
        ns
    }

    /// Like [`bench`] but also reports throughput for `bytes` of work
    /// per iteration.
    pub fn bench_bytes<T>(group: &str, name: &str, bytes: u64, f: impl FnMut() -> T) -> f64 {
        let ns = measure(f);
        let mibps = bytes as f64 * 1e9 / ns / (1024.0 * 1024.0);
        println!("{group}/{name:<28} {ns:>12.1} ns/iter  {mibps:>9.1} MiB/s");
        ns
    }
}
