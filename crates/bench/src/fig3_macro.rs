//! Figure 3: "DoppioJVM's performance on our benchmark applications
//! relative to the HotSpot JVM interpreter ... DoppioJVM runs between
//! 24x and 42x slower (geometric mean: 32x) than the HotSpot
//! interpreter in Google Chrome."
//!
//! Reproduction: each macro workload runs once natively (the HotSpot
//! analog) and once per simulated browser; rows report the virtual
//! wall-clock slowdown. Note Safari's pathological `disasm` column —
//! the typed-array leak of §7.1 pushes it into paging. Per-workload
//! virtual-clock cycles and interpreter cache hit rates form the
//! `fig3_macro.<workload>` sections.

use doppio_jsengine::Browser;
use doppio_workloads::{run_workload, MACRO_WORKLOADS};

use crate::{geomean, ratio, rule, run_section, with_sections};

/// Figure 3's table and shape checks, then its JSON sections.
pub fn fig3_macro() -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 3: macro benchmarks, slowdown vs the native interpreter baseline\n\
         (paper: Chrome 24x-42x slower, geomean 32x; Safari pathological on javap)\n\n",
    );

    let browsers = Browser::EVALUATED;
    let mut sections = Vec::new();

    put!(out, "{:>14} |", "workload");
    for b in browsers {
        put!(out, "{:>9}", b.name());
    }
    putln!(out, "{:>12}", "native(ms)");
    rule(&mut out, 14 + 2 + 9 * browsers.len() + 12);

    let mut per_browser: Vec<Vec<f64>> = vec![Vec::new(); browsers.len()];
    for id in MACRO_WORKLOADS {
        let native = run_workload(id, Browser::Native);
        assert!(native.uncaught.is_none(), "{id} failed natively");
        sections.push((format!("fig3_macro.{id}"), run_section(&native)));
        put!(out, "{:>14} |", id);
        for (i, &b) in browsers.iter().enumerate() {
            let hosted = run_workload(id, b);
            assert_eq!(hosted.stdout, native.stdout, "{id} output differs on {b}");
            let slowdown = hosted.wall_ns as f64 / native.wall_ns as f64;
            per_browser[i].push(slowdown);
            put!(out, "{:>9}", ratio(slowdown));
        }
        putln!(out, "{:>12.1}", native.wall_ns as f64 / 1e6);
    }
    rule(&mut out, 14 + 2 + 9 * browsers.len() + 12);
    put!(out, "{:>14} |", "geomean");
    for g in per_browser.iter().map(|v| geomean(v)) {
        put!(out, "{:>9}", ratio(g));
    }
    putln!(out);

    putln!(out, "\nShape checks:");
    let chrome = geomean(&per_browser[0]);
    putln!(
        out,
        "  Chrome geomean {} (paper: ~32x; 24x-42x per-benchmark range)",
        ratio(chrome)
    );
    let fastest = per_browser
        .iter()
        .enumerate()
        .min_by(|a, b| geomean(a.1).total_cmp(&geomean(b.1)))
        .map(|(i, _)| browsers[i].name())
        .unwrap_or("?");
    putln!(out, "  Fastest browser: {fastest} (paper: Chrome)");
    let safari_disasm = per_browser[2][0];
    let safari_rest = geomean(&per_browser[2][1..]);
    putln!(
        out,
        "  Safari disasm {} vs Safari others {} (paper: javap pathological in Safari)",
        ratio(safari_disasm),
        ratio(safari_rest)
    );
    with_sections(out, sections)
}
