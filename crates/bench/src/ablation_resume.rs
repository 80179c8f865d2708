//! Ablations for the design choices of §4.4 and the browser-extension
//! proposals of §8.
//!
//! 1. **Resumption mechanism** — the same computation suspended through
//!    `setImmediate`, `sendMessage`, and clamped `setTimeout`, showing
//!    why §4.4 prefers them in that order.
//! 2. **Time-slice sweep** — suspension overhead vs responsiveness as
//!    the §4.1 time slice varies.
//! 3. **Native 64-bit integers (§8)** — pidigits under a Chrome profile
//!    whose `LongOp` costs what an `IntOp` does: the speedup the paper
//!    predicts browsers could unlock.
//!
//! §6.1's loop back-edge suspend checks are covered by two `doppio-jvm`
//! unit tests: `call_free_loops_defeat_call_boundary_checks` and
//! `backedge_instrumentation_fixes_the_starvation`.

use doppio_core::{DoppioRuntime, FnThread, RoundRobinScheduler, ThreadStep};
use doppio_jsengine::{Browser, BrowserProfile, Cost, Engine};
use doppio_workloads::{run_workload, run_workload_on};

use crate::{ms, ratio, rule};

fn compute_units(units: u64) -> impl FnMut(&mut doppio_core::ThreadContext<'_>) -> ThreadStep {
    let mut remaining = units;
    move |ctx| {
        while remaining > 0 {
            ctx.engine().charge(Cost::Dispatch);
            remaining -= 1;
            if ctx.should_suspend() {
                return ThreadStep::Yielded;
            }
        }
        ThreadStep::Finished
    }
}

/// Run [`compute_units`] on `profile` with a `slice_ns` time slice and
/// append the run's wall, suspended, suspensions and overhead columns
/// after `label`.
fn run_row(out: &mut String, label: &str, profile: BrowserProfile, slice_ns: u64) {
    let engine = Engine::with_profile(profile);
    let rt =
        DoppioRuntime::with_config(&engine, Box::new(RoundRobinScheduler::default()), slice_ns);
    rt.spawn("compute", Box::new(FnThread::new(compute_units(8_000_000))));
    let stats = rt.run_to_completion().expect("no deadlock");
    let (wall, susp) = (stats.wall_ns(), stats.suspended_ns);
    let overhead = 100.0 * susp as f64 / wall as f64;
    putln!(
        out,
        "{label} | {:>12} | {:>12} | {:>11} | {overhead:>8.2}%",
        ms(wall),
        ms(susp),
        stats.suspensions
    );
}

/// The three ablations' tables.
pub fn ablation_resume() -> String {
    let mut out = String::new();
    out.push_str("Ablation 1 (§4.4): resumption mechanism for the same computation\n\n");
    out.push_str("       mechanism |         wall |    suspended | suspensions |  overhead\n");
    rule(&mut out, 72);
    let mk = |name, f: fn(&mut BrowserProfile)| {
        let mut p = BrowserProfile::of(Browser::Chrome);
        f(&mut p);
        (name, p)
    };
    let configs = [
        mk("setImmediate", |p| p.has_set_immediate = true),
        mk("sendMessage", |_| {}),
        mk("setTimeout(4ms)", |p| {
            p.has_set_immediate = false;
            p.synchronous_send_message = true; // forces the fallback
        }),
    ];
    for (name, profile) in configs {
        run_row(&mut out, &format!("{name:>16}"), profile, 10_000_000);
    }

    out.push_str("\nAblation 2 (§4.1): time-slice sweep (Chrome, sendMessage)\n\n");
    out.push_str("       slice |         wall |    suspended | suspensions |  overhead\n");
    rule(&mut out, 68);
    for slice_ms in [1u64, 5, 10, 25, 100] {
        let profile = BrowserProfile::of(Browser::Chrome);
        run_row(
            &mut out,
            &format!("{slice_ms:>10}ms"),
            profile,
            slice_ms * 1_000_000,
        );
    }
    out.push_str("(short slices: responsive but high overhead; long slices risk the watchdog)\n");

    out.push_str("\nAblation 3 (§8): native 64-bit integers\n\n");
    let baseline = run_workload("pidigits", Browser::Chrome);
    let mut fast64 = BrowserProfile::of(Browser::Chrome);
    fast64.cost_ns[Cost::LongOp as usize] = fast64.cost_ns[Cost::IntOp as usize];
    let native64 = run_workload_on("pidigits", Engine::with_profile(fast64));
    assert_eq!(baseline.stdout, native64.stdout);
    let (software, native) = (ms(baseline.wall_ns), ms(native64.wall_ns));
    let speedup = ratio(baseline.wall_ns as f64 / native64.wall_ns as f64);
    putln!(out, "  pidigits, Chrome (software Int64): {software}");
    putln!(out, "  pidigits, Chrome + native 64-bit:  {native}");
    putln!(out, "  speedup from the proposed extension: {speedup}");
    out
}
