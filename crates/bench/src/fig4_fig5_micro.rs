//! Figures 4 and 5, from one run of each microbenchmark per profile.
//!
//! Figure 4: "DoppioJVM performance on microbenchmarks relative to the
//! HotSpot interpreter. *CPU Time* measures the amount of time that
//! DoppioJVM actually spends executing the benchmark, while
//! *Wall-clock Time* measures overall benchmark duration."
//!
//! Figure 5: "DoppioJVM suspension time on microbenchmarks as a
//! percentage of total runtime. ... DoppioJVM is suspended for less
//! than 2% of execution time in Google Chrome and Safari, suggesting
//! that Doppio's threading facilities are not a significant
//! performance bottleneck."
//!
//! Reproduction: DeltaBlue and pidigits run natively and once per
//! browser. Figure 4 reports both splits relative to the native
//! baseline, exactly as the figure does, plus the interpreter
//! fast-path counters (§6.7's dictionary-lookup cost is what the caches
//! remove) and a fixed-seed allocator churn comparing the
//! segregated-fit heap against the paper's first-fit scan. Figure 5
//! reports `suspended / wall-clock` of the same runs. The per-browser
//! differences are mechanistic: IE10 resumes through `setImmediate`,
//! most browsers through `sendMessage`, and a `setTimeout`-only
//! browser pays the 4 ms clamp on every slice (§4.4).
//!
//! Figure 5 also measures the flip side of the same mechanism —
//! *responsiveness*: synthetic user clicks land every 16 ms of virtual
//! time during DeltaBlue, and their dispatch-latency percentiles per
//! browser form the `fig5_responsiveness.*` sections. Each browser's
//! percentiles are cross-checked against the engine's own
//! `engine.event_latency.user_input` histogram from the same run.

use doppio_heap::{AllocPolicy, UnmanagedHeap};
use doppio_jsengine::{Browser, BrowserProfile, Engine};
use doppio_prng::split_mix64;
use doppio_workloads::responsiveness::run_responsiveness;
use doppio_workloads::{run_workload, RunOutcome, MICRO_WORKLOADS};

use crate::{cache_counters, ratio, rule, run_section, with_sections, Section};

/// One microbenchmark's runs: natively, then once per evaluated
/// browser.
struct Runs {
    id: &'static str,
    native: RunOutcome,
    hosted: Vec<RunOutcome>,
}

/// Figure 4's table and Figure 5's, then both figures' JSON sections.
pub fn fig4_fig5_micro() -> String {
    let runs: Vec<Runs> = MICRO_WORKLOADS
        .into_iter()
        .map(|id| {
            let native = run_workload(id, Browser::Native);
            assert!(native.uncaught.is_none(), "{id} failed natively");
            let hosted = Browser::EVALUATED
                .into_iter()
                .map(|b| {
                    let r = run_workload(id, b);
                    assert_eq!(r.stdout, native.stdout, "{id} output differs on {b}");
                    r
                })
                .collect();
            Runs { id, native, hosted }
        })
        .collect();
    let mut out = String::new();
    let mut sections = Vec::new();
    fig4(&mut out, &mut sections, &runs);
    fig5(&mut out, &mut sections, &runs);
    with_sections(out, sections)
}

fn fig4(out: &mut String, sections: &mut Vec<(String, Section)>, runs: &[Runs]) {
    let browsers = Browser::EVALUATED;
    out.push_str(
        "Figure 4: microbenchmarks, CPU vs wall-clock slowdown vs native baseline\n\
         (paper: CPU and wall-clock nearly coincide — suspension is cheap)\n\n",
    );
    put!(out, "{:>22} |", "workload / split");
    for b in browsers {
        put!(out, "{:>9}", b.name());
    }
    putln!(out);
    rule(out, 22 + 2 + 9 * browsers.len());

    for Runs { id, native, hosted } in runs {
        let (cp_hit, cp_miss, cp_rate) = cache_counters(&native.report, "jvm.cp_cache");
        let (ic_hit, ic_miss, ic_rate) = cache_counters(&native.report, "jvm.icache");
        assert!(
            cp_rate >= 0.90,
            "{id}: cp cache hit rate {cp_rate:.3} below the 90% bar"
        );
        sections.push((format!("fig4_micro.{id}"), run_section(native)));
        put!(out, "{:>22} |", format!("{id} / cpu"));
        for r in hosted {
            put!(out, "{:>9}", ratio(r.cpu_ns as f64 / native.wall_ns as f64));
        }
        putln!(out);
        put!(out, "{:>22} |", format!("{id} / wall-clock"));
        for r in hosted {
            put!(
                out,
                "{:>9}",
                ratio(r.wall_ns as f64 / native.wall_ns as f64)
            );
        }
        putln!(out);
        putln!(
            out,
            "{id}: cp cache {:.1}% hit ({cp_hit} hit / {cp_miss} miss), icache {:.1}% hit ({ic_hit} hit / {ic_miss} miss)",
            cp_rate * 100.0,
            ic_rate * 100.0,
        );
    }

    sections.push(("fig4_micro.alloc_churn".into(), alloc_churn(out)));

    out.push_str(
        "\nShape check: wall-clock should sit within a few percent of CPU\n\
         time on fast-resumption browsers (Chrome/Safari/IE10), and\n\
         notably above it only where resumption is slow.\n",
    );
}

/// Fixed-seed alloc/free churn on both allocator policies: the
/// interesting number is free blocks examined per allocation.
fn alloc_churn(out: &mut String) -> Section {
    let steps = 20_000u64;
    let scans = |policy: AllocPolicy| -> (u64, u64) {
        let mut heap = UnmanagedHeap::with_policy(&Engine::native(), 4 << 20, policy);
        let mut live: Vec<usize> = Vec::new();
        let mut rng = 0x00D0_BB10_u64;
        for _ in 0..steps {
            let roll = split_mix64(&mut rng);
            if live.is_empty() || roll % 100 < 55 {
                let size = match roll % 10 {
                    0..=5 => 4 + (split_mix64(&mut rng) as usize % 60),
                    6..=8 => 64 + (split_mix64(&mut rng) as usize % 448),
                    _ => 512 + (split_mix64(&mut rng) as usize % 3584),
                };
                live.push(heap.malloc(size).expect("churn malloc"));
            } else {
                let idx = split_mix64(&mut rng) as usize % live.len();
                heap.free(live.swap_remove(idx)).expect("churn free");
            }
        }
        let s = heap.stats();
        (s.blocks_scanned, s.mallocs)
    };
    let (seg_scanned, seg_mallocs) = scans(AllocPolicy::SegregatedFit);
    let (ff_scanned, ff_mallocs) = scans(AllocPolicy::FirstFit);
    assert_eq!(seg_mallocs, ff_mallocs, "policies saw the same op stream");
    let seg_per = seg_scanned as f64 / seg_mallocs as f64;
    let ff_per = ff_scanned as f64 / ff_mallocs as f64;
    assert!(
        seg_per < ff_per,
        "segregated fit examined {seg_per:.2} blocks/alloc vs first fit {ff_per:.2}"
    );
    putln!(
        out,
        "\nalloc churn ({} mallocs): segregated fit {:.2} blocks examined/alloc, \
         first fit {:.2} ({} fewer)",
        seg_mallocs,
        seg_per,
        ff_per,
        ratio(ff_per / seg_per)
    );
    vec![
        ("mallocs".into(), seg_mallocs as f64),
        ("segregated_blocks_scanned".into(), seg_scanned as f64),
        ("segregated_scans_per_alloc".into(), seg_per),
        ("first_fit_blocks_scanned".into(), ff_scanned as f64),
        ("first_fit_scans_per_alloc".into(), ff_per),
        ("scan_reduction".into(), ff_per / seg_per),
    ]
}

fn fig5(out: &mut String, sections: &mut Vec<(String, Section)>, runs: &[Runs]) {
    let browsers = Browser::EVALUATED;
    out.push_str(
        "\nFigure 5: suspension time as a percentage of total runtime\n\
         (paper: < 2% in Chrome and Safari for DeltaBlue, < 1% for pidigits)\n\n",
    );
    // Wide enough for `setImmediate` with a space before it.
    put!(out, "{:>12} |", "workload");
    for b in browsers {
        put!(out, "{:>13}", b.name());
    }
    putln!(out);
    rule(out, 12 + 2 + 13 * browsers.len());

    for Runs { id, hosted, .. } in runs {
        put!(out, "{:>12} |", id);
        for (r, b) in hosted.iter().zip(browsers) {
            assert!(r.uncaught.is_none(), "{id} failed on {b}");
            put!(out, "{:>12.2}%", 100.0 * r.suspension_fraction());
        }
        putln!(out);
    }
    rule(out, 12 + 2 + 13 * browsers.len());
    put!(out, "{:>12} |", "resumes via");
    for b in browsers {
        let p = BrowserProfile::of(b);
        put!(out, "{:>13}", p.best_resume_mechanism().to_string());
    }
    putln!(out);

    // The §8 counterfactual: a browser stuck on setTimeout (IE8) pays
    // the 4 ms clamp per suspension.
    let r = run_workload("deltablue", Browser::Ie8);
    putln!(
        out,
        "\nIE 8 (setTimeout fallback, 4 ms clamp): {:.2}% suspended — why §4.4 avoids setTimeout",
        100.0 * r.suspension_fraction()
    );

    // Responsiveness: click-dispatch latency percentiles per browser.
    putln!(
        out,
        "\nresponsiveness: user-input dispatch latency during DeltaBlue (16 ms click rate)"
    );
    out.push_str("   browser |    clicks    p50 ms    p95 ms    p99 ms    max ms\n");
    rule(out, 10 + 2 + 10 * 5);
    for b in browsers {
        let r = run_responsiveness("deltablue", b, 16.0);
        assert!(r.outcome.uncaught.is_none(), "deltablue failed on {b}");
        let row = r
            .outcome
            .report
            .histogram("engine.event_latency.user_input")
            .expect("engine saw the clicks");
        // The report's percentiles must match an independent fold of
        // the probe's exact latencies through the same histogram.
        let snap = r.snapshot();
        assert!(row.count > 0, "no click was dispatched on {b}");
        assert_eq!(row.count, r.latencies.len() as u64);
        assert_eq!(row.p95, snap.percentile(95.0), "p95 disagrees on {b}");
        assert_eq!(row.p99, snap.percentile(99.0), "p99 disagrees on {b}");
        assert_eq!(row.max, snap.max, "max disagrees on {b}");
        // The bucketed p95 sits within the histogram's 12.5% error
        // bound of the exact nearest-rank oracle.
        let exact_p95 = r.exact_percentile(95.0);
        assert!(
            exact_p95 <= row.p95 && row.p95 as f64 <= exact_p95 as f64 * 1.125 + 8.0,
            "p95 {} is outside the 12.5% bound of the exact {exact_p95} on {b}",
            row.p95
        );
        put!(out, "{:>10} |{:>10}", b.name(), row.count);
        for v in [row.p50, row.p95, row.p99, row.max] {
            put!(out, "{:>10.3}", v as f64 / 1e6);
        }
        putln!(out);
        sections.push((
            format!("fig5_responsiveness.{}", b.name().to_lowercase()),
            vec![
                ("clicks".into(), row.count as f64),
                ("p50_ns".into(), row.p50 as f64),
                ("p90_ns".into(), row.p90 as f64),
                ("p95_ns".into(), row.p95 as f64),
                ("p99_ns".into(), row.p99 as f64),
                ("max_ns".into(), row.max as f64),
                ("exact_p95_ns".into(), exact_p95 as f64),
            ],
        ));
    }
    // A blank line between the text and the JSON sections.
    putln!(out);
}
