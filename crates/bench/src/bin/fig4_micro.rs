//! Figure 4: "DoppioJVM performance on microbenchmarks relative to the
//! HotSpot interpreter. *CPU Time* measures the amount of time that
//! DoppioJVM actually spends executing the benchmark, while
//! *Wall-clock Time* measures overall benchmark duration."
//!
//! Reproduction: DeltaBlue and pidigits per browser, reporting both
//! splits relative to the native baseline, exactly as the figure does.
//! The run also reports the interpreter fast-path counters (§6.7's
//! dictionary-lookup cost is what the caches remove) and a fixed-seed
//! allocator churn comparing the segregated-fit heap against the
//! paper's first-fit scan, and appends everything machine-readably to
//! `BENCH_interp.json`.
//!
//! Set `DOPPIO_BENCH_LIGHT=1` (the CI smoke profile) to skip the
//! hosted-browser sweep and keep only the native measurements.

use doppio_bench::results::{self, Section};
use doppio_bench::{ratio, rule};
use doppio_heap::{AllocPolicy, UnmanagedHeap};
use doppio_jsengine::{Browser, Engine};
use doppio_workloads::{run_workload, MICRO_WORKLOADS};

fn main() {
    println!("Figure 4: microbenchmarks, CPU vs wall-clock slowdown vs native baseline");
    println!("(paper: CPU and wall-clock nearly coincide — suspension is cheap)\n");

    let light = results::light_profile();
    let browsers: &[Browser] = if light { &[] } else { &Browser::EVALUATED };
    let mut sections: Vec<(String, Section)> = Vec::new();

    if !light {
        print!("{:>22} |", "workload / split");
        for b in browsers {
            print!("{:>9}", b.name());
        }
        println!();
        rule(22 + 2 + 9 * browsers.len());
    }

    for id in MICRO_WORKLOADS {
        let native = run_workload(id, Browser::Native);
        assert!(native.uncaught.is_none(), "{id} failed natively");
        let (cp_hit, cp_miss, cp_rate) = results::cache_counters(&native.report, "jvm.cp_cache");
        let (ic_hit, ic_miss, ic_rate) = results::cache_counters(&native.report, "jvm.icache");
        assert!(
            cp_rate >= 0.90,
            "{id}: cp cache hit rate {cp_rate:.3} below the 90% bar"
        );
        sections.push((format!("fig4_micro.{id}"), results::run_section(&native)));

        if !light {
            let runs: Vec<_> = browsers
                .iter()
                .map(|&b| {
                    let r = run_workload(id, b);
                    assert_eq!(r.stdout, native.stdout, "{id} output differs on {b}");
                    r
                })
                .collect();
            print!("{:>22} |", format!("{id} / cpu"));
            for r in &runs {
                print!("{:>9}", ratio(r.cpu_ns as f64 / native.wall_ns as f64));
            }
            println!();
            print!("{:>22} |", format!("{id} / wall-clock"));
            for r in &runs {
                print!("{:>9}", ratio(r.wall_ns as f64 / native.wall_ns as f64));
            }
            println!();
        }

        println!(
            "{id}: cp cache {:.1}% hit ({cp_hit} hit / {cp_miss} miss), icache {:.1}% hit ({ic_hit} hit / {ic_miss} miss)",
            cp_rate * 100.0,
            ic_rate * 100.0,
        );
    }

    sections.push(("fig4_micro.alloc_churn".into(), alloc_churn()));

    let path = results::write_sections(sections);
    println!("\nresults appended to {}", path.display());
    if !light {
        println!("Shape check: wall-clock should sit within a few percent of CPU");
        println!("time on fast-resumption browsers (Chrome/Safari/IE10), and");
        println!("notably above it only where resumption is slow.");
    }
}

/// Deterministic PRNG for the churn benchmark.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fixed-seed alloc/free churn on both allocator policies: the
/// interesting number is free blocks examined per allocation.
fn alloc_churn() -> Section {
    let steps = 20_000u64;
    let scans = |policy: AllocPolicy| -> (u64, u64) {
        let mut heap = UnmanagedHeap::with_policy(&Engine::native(), 4 << 20, policy);
        let mut live: Vec<usize> = Vec::new();
        let mut rng = 0x00D0_BB10_u64;
        for _ in 0..steps {
            let roll = splitmix64(&mut rng);
            if live.is_empty() || roll % 100 < 55 {
                let size = match roll % 10 {
                    0..=5 => 4 + (splitmix64(&mut rng) as usize % 60),
                    6..=8 => 64 + (splitmix64(&mut rng) as usize % 448),
                    _ => 512 + (splitmix64(&mut rng) as usize % 3584),
                };
                live.push(heap.malloc(size).expect("churn malloc"));
            } else {
                let idx = splitmix64(&mut rng) as usize % live.len();
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
    println!(
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
