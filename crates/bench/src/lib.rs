//! The paper's evaluation (§7), one function per table or figure.
//!
//! Each function runs its measurements on fresh engines and returns
//! the rendered text, followed (for the figures that measure anything)
//! by a JSON object of flat sections keyed `"<figure>.<workload>"`
//! (e.g. `"fig4_micro.deltablue"`). Values are plain numbers:
//! virtual-clock times, cache hit/miss counters and rates, and
//! allocator scan lengths. Everything runs on the virtual clock, so
//! every output is a pure function of the code, and `tests/figures.rs`
//! pins each one byte for byte under `tests/golden/figures/`:
//!
//! * [`table1_features`] — the feature-comparison matrix (Table 1)
//! * [`table2_storage`] — the storage-mechanism survey (Table 2)
//! * [`fig3_macro`] — macro benchmarks vs the native baseline
//! * [`fig4_fig5_micro`] — DeltaBlue/pidigits CPU vs wall-clock
//!   (Figure 4) and suspension time as % of runtime (Figure 5), from
//!   one set of runs
//! * [`fig6_filesystem`] — the javac fs-trace replay
//! * [`ablation_resume`] — §4.4/§8 ablations: resumption mechanisms,
//!   the time-slice sweep and native 64-bit integers
//!
//! Each function asserts the shape its figure claims (identical guest
//! output on every browser, fig4's 90% cp-cache bar, fig5's histogram
//! error bound, the live Table 1 and Table 2 probes), so a golden
//! check of it is also a check of those claims.

use std::collections::BTreeMap;

use doppio_core::report::RunReport;
use doppio_trace::json::{self, Json};

/// `print!` into a `String`.
macro_rules! put {
    ($out:expr, $($arg:tt)*) => {
        $out.push_str(&format!($($arg)*))
    };
}

/// `println!` into a `String`.
macro_rules! putln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        put!($out, $($arg)*);
        $out.push('\n');
    }};
}

mod ablation_resume;
mod fig3_macro;
mod fig4_fig5_micro;
mod fig6_filesystem;
mod table1_features;
mod table2_storage;

pub use ablation_resume::ablation_resume;
pub use fig3_macro::fig3_macro;
pub use fig4_fig5_micro::fig4_fig5_micro;
pub use fig6_filesystem::fig6_filesystem;
pub use table1_features::table1_features;
pub use table2_storage::table2_storage;

/// Geometric mean of a slice of ratios.
fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Render a ratio like the paper's figures ("32.4x").
fn ratio(x: f64) -> String {
    format!("{x:.1}x")
}

/// Render virtual nanoseconds as milliseconds.
fn ms(ns: u64) -> String {
    format!("{:.1} ms", ns as f64 / 1e6)
}

/// Append a horizontal rule sized to `width`.
fn rule(out: &mut String, width: usize) {
    putln!(out, "{}", "-".repeat(width));
}

/// One flat section of numeric measurements.
type Section = Vec<(String, f64)>;

/// `text` followed by `sections` as one pretty-printed JSON object,
/// keys in sorted order.
fn with_sections(mut text: String, sections: Vec<(String, Section)>) -> String {
    let doc = sections
        .into_iter()
        .map(|(name, section)| {
            let fields: BTreeMap<String, Json> = section
                .into_iter()
                .map(|(k, v)| (k, Json::Num(v)))
                .collect();
            (name, Json::Obj(fields))
        })
        .collect();
    text.push_str(&json::to_string(&Json::Obj(doc)));
    text
}

/// The standard measurement section for one workload run.
fn run_section(r: &doppio_workloads::RunOutcome) -> Section {
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

/// One cache's `(hits, misses, hit rate)` from a run's report: the
/// `<cache>.hit` and `<cache>.miss` counters (`cache` is e.g.
/// `"jvm.cp_cache"`), with a rate of 0 when the cache was never
/// exercised.
fn cache_counters(report: &RunReport, cache: &str) -> (u64, u64, f64) {
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
