//! The adaptive suspend counter (§4.1).
//!
//! "To prevent applications from executing for too long, DOPPIO uses a
//! simple counter to determine when an application needs to suspend.
//! Each suspend check initiated by the language implementation
//! decrements the counter by 1. When the counter reaches 0, DOPPIO
//! determines how long it took for the counter to tick to 0. It then
//! updates a cumulative moving average representing how often the
//! program checks whether or not it should suspend. This new value,
//! along with a preconfigured time slice duration, is then used to set
//! the new counter value."
//!
//! Only the check that takes the counter to zero reads the clock. A
//! guest that defers its virtual-clock charges (DoppioJVM tallies them)
//! calls [`ThreadContext::should_suspend_with`], which hands those
//! charges over just before that one read and at no other check.
//!
//! [`ThreadContext::should_suspend_with`]: crate::ThreadContext::should_suspend_with

/// Default time-slice duration: how long a program may run between
/// suspensions. 10 ms keeps the page responsive with comfortable margin
/// under the ~5 s watchdog, while keeping suspension overhead under the
/// 2% the paper reports.
pub const DEFAULT_TIME_SLICE_NS: u64 = 10_000_000;

/// Initial counter value before any calibration data exists.
const INITIAL_COUNTER: u64 = 1_000;

/// The adaptive suspend counter.
#[derive(Debug, Clone)]
pub struct SuspendTimer {
    time_slice_ns: u64,
    counter: u64,
    counter_initial: u64,
    window_start_ns: u64,
    /// Cumulative moving average of virtual ns per suspend check.
    avg_ns_per_check: f64,
    windows_observed: u64,
    checks_total: u64,
}

impl SuspendTimer {
    /// Create a timer with the default time slice.
    pub fn new(now_ns: u64) -> SuspendTimer {
        SuspendTimer::with_time_slice(now_ns, DEFAULT_TIME_SLICE_NS)
    }

    /// Create a timer with a custom time slice (ablation experiments
    /// sweep this).
    pub fn with_time_slice(now_ns: u64, time_slice_ns: u64) -> SuspendTimer {
        SuspendTimer {
            time_slice_ns,
            counter: INITIAL_COUNTER,
            counter_initial: INITIAL_COUNTER,
            window_start_ns: now_ns,
            avg_ns_per_check: 0.0,
            windows_observed: 0,
            checks_total: 0,
        }
    }

    /// The configured time slice.
    pub fn time_slice_ns(&self) -> u64 {
        self.time_slice_ns
    }

    /// Total suspend checks performed.
    pub fn checks_total(&self) -> u64 {
        self.checks_total
    }

    /// The current estimate of virtual ns per check (0 before the first
    /// window completes).
    pub fn avg_ns_per_check(&self) -> f64 {
        self.avg_ns_per_check
    }

    /// The counter value the last recalibration chose (how many checks
    /// the timer lets a program run between suspensions). Exposed so
    /// the runtime can trace adjustment events.
    pub fn counter_initial(&self) -> u64 {
        self.counter_initial
    }

    /// One suspend check. Returns `true` when the program should
    /// suspend (the counter reached zero); the counter recalibrates on
    /// that boundary.
    pub fn check(&mut self, now_ns: u64) -> bool {
        self.check_with(|| now_ns)
    }

    /// [`check`](Self::check), reading the clock through `now` only
    /// when the counter reaches zero: the one check in a window that
    /// uses the time.
    pub(crate) fn check_with(&mut self, now: impl FnOnce() -> u64) -> bool {
        self.checks_total += 1;
        self.counter -= 1;
        if self.counter > 0 {
            return false;
        }

        // The counter ticked to zero: measure how long the window took
        // and fold it into the cumulative moving average.
        let now_ns = now();
        let elapsed = now_ns.saturating_sub(self.window_start_ns).max(1);
        let sample = elapsed as f64 / self.counter_initial as f64;
        self.windows_observed += 1;
        let n = self.windows_observed as f64;
        self.avg_ns_per_check += (sample - self.avg_ns_per_check) / n;

        // New counter value: how many checks fit in one time slice at
        // the observed rate.
        let per_check = self.avg_ns_per_check.max(1.0);
        self.counter_initial =
            ((self.time_slice_ns as f64 / per_check) as u64).clamp(16, 5_000_000);
        self.counter = self.counter_initial;
        self.window_start_ns = now_ns;
        true
    }

    /// Restart the current window (called after a suspension resumes so
    /// the suspended interval doesn't pollute the rate estimate).
    pub fn reset_window(&mut self, now_ns: u64) {
        self.window_start_ns = now_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the timer with a fixed cost per check and return the
    /// counter value it converges to.
    fn converge(ns_per_check: u64, slice_ns: u64) -> u64 {
        let mut now = 0u64;
        let mut t = SuspendTimer::with_time_slice(now, slice_ns);
        for _ in 0..200_000 {
            now += ns_per_check;
            t.check(now);
        }
        t.counter_initial
    }

    #[test]
    fn counter_converges_to_slice_over_check_cost() {
        // 1000 ns per check, 10 ms slice => ~10_000 checks per slice.
        let c = converge(1_000, 10_000_000);
        assert!((8_000..=12_000).contains(&c), "converged to {c}");
    }

    #[test]
    fn faster_checks_mean_larger_counter() {
        let fast = converge(100, 10_000_000);
        let slow = converge(10_000, 10_000_000);
        assert!(fast > 10 * slow, "fast={fast} slow={slow}");
    }

    #[test]
    fn first_window_fires_after_initial_counter() {
        let mut t = SuspendTimer::new(0);
        let mut fired = 0;
        for i in 1..=INITIAL_COUNTER {
            if t.check(i * 10) {
                fired = i;
                break;
            }
        }
        assert_eq!(fired, INITIAL_COUNTER);
    }

    #[test]
    fn suspensions_are_spaced_about_one_slice_apart() {
        let slice = 1_000_000; // 1 ms
        let mut now = 0u64;
        let mut t = SuspendTimer::with_time_slice(now, slice);
        let mut last_fire = 0u64;
        let mut gaps = Vec::new();
        for _ in 0..3_000_000u64 {
            now += 500; // 0.5 µs per check
            if t.check(now) {
                if last_fire > 0 {
                    gaps.push(now - last_fire);
                }
                last_fire = now;
                t.reset_window(now);
            }
        }
        // Skip the calibration transient, then expect ~1 ms gaps.
        let tail = &gaps[gaps.len() / 2..];
        let avg = tail.iter().sum::<u64>() / tail.len() as u64;
        assert!(
            (slice / 2..=slice * 2).contains(&avg),
            "average gap {avg} ns should approximate the slice {slice} ns"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut t = SuspendTimer::new(0);
        for i in 0..10 {
            t.check(i);
        }
        assert_eq!(t.checks_total(), 10);
    }
}
