//! Figure 5: "DoppioJVM suspension time on microbenchmarks as a
//! percentage of total runtime. ... DoppioJVM is suspended for less
//! than 2% of execution time in Google Chrome and Safari, suggesting
//! that Doppio's threading facilities are not a significant
//! performance bottleneck."
//!
//! Reproduction: the same microbenchmark runs, reporting
//! `suspended / wall-clock` per browser. The per-browser differences
//! are mechanistic: IE10 resumes through `setImmediate`, most browsers
//! through `sendMessage`, and a `setTimeout`-only browser pays the 4 ms
//! clamp on every slice (§4.4).
//!
//! The run also measures the flip side of the same mechanism —
//! *responsiveness*: synthetic user clicks land every 16 ms of virtual
//! time during DeltaBlue, and their dispatch-latency percentiles per
//! browser go to `BENCH_interp.json` as `fig5_responsiveness.*`
//! sections. Each browser's percentiles are cross-checked against the
//! engine's own `engine.event_latency.user_input` histogram from the
//! same run. `DOPPIO_BENCH_LIGHT=1` probes Chrome only.

use doppio_bench::results::{self, Section};
use doppio_bench::rule;
use doppio_jsengine::Browser;
use doppio_workloads::responsiveness::run_responsiveness;
use doppio_workloads::{run_workload, MICRO_WORKLOADS};

fn main() {
    println!("Figure 5: suspension time as a percentage of total runtime");
    println!("(paper: < 2% in Chrome and Safari for DeltaBlue, < 1% for pidigits)\n");

    let browsers = Browser::EVALUATED;
    print!("{:>12} |", "workload");
    for b in browsers {
        print!("{:>10}", b.name());
    }
    println!("{:>12}", "mechanism");
    rule(12 + 2 + 10 * browsers.len() + 12);

    for id in MICRO_WORKLOADS {
        print!("{:>12} |", id);
        for b in browsers {
            let r = run_workload(id, b);
            assert!(r.uncaught.is_none(), "{id} failed on {b}");
            print!("{:>9.2}%", 100.0 * r.suspension_fraction());
        }
        println!();
    }
    rule(12 + 2 + 10 * browsers.len() + 12);
    print!("{:>12} |", "resumes via");
    for b in browsers {
        let p = doppio_jsengine::BrowserProfile::of(b);
        print!("{:>10}", p.best_resume_mechanism().to_string());
    }
    println!();

    // The §8 counterfactual: a browser stuck on setTimeout (IE8) pays
    // the 4 ms clamp per suspension.
    let r = run_workload("deltablue", Browser::Ie8);
    println!(
        "\nIE 8 (setTimeout fallback, 4 ms clamp): {:.2}% suspended — why §4.4 avoids setTimeout",
        100.0 * r.suspension_fraction()
    );

    // Responsiveness: click-dispatch latency percentiles per browser.
    let probed: &[Browser] = if results::light_profile() {
        &[Browser::Chrome]
    } else {
        &browsers
    };
    println!("\nresponsiveness: user-input dispatch latency during DeltaBlue (16 ms click rate)");
    print!("{:>10} |", "browser");
    for label in ["clicks", "p50 ms", "p95 ms", "p99 ms", "max ms"] {
        print!("{label:>10}");
    }
    println!();
    rule(10 + 2 + 10 * 5);
    let mut sections: Vec<(String, Section)> = Vec::new();
    for &b in probed {
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
        print!("{:>10} |{:>10}", b.name(), row.count);
        for v in [row.p50, row.p95, row.p99, row.max] {
            print!("{:>10.3}", v as f64 / 1e6);
        }
        println!();
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
    let path = results::write_sections(sections);
    println!("\nresults appended to {}", path.display());
}
