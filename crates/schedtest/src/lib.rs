//! Schedule exploration for the Doppio runtime.
//!
//! The runtime's [`Scheduler`] trait (§4.3: "Language implementations
//! can provide a scheduling function") defaults to round-robin, which
//! exercises exactly one interleaving of the guest's threads. This
//! crate turns that single point into a search space:
//!
//! * [`SeededRandomScheduler`] — uniform random picks from a SplitMix64
//!   stream; equal seeds yield equal schedules on every platform.
//! * [`PctScheduler`] — probabilistic concurrency testing (Burckhardt
//!   et al., ASPLOS 2010): random thread priorities plus `d − 1`
//!   priority-change points, giving a `1/(n·k^(d-1))` guarantee of
//!   hitting any depth-`d` ordering bug.
//! * [`ReplayScheduler`] — re-executes a recorded pick sequence
//!   byte-identically, falling back to round-robin past its end (which
//!   is what makes shrunk prefixes runnable).
//!
//! [`explore`] drives a guest workload under `n` schedules, records
//! every pick, and on failure shrinks the schedule to the smallest
//! failing pick prefix and serializes a [`ReplayFile`] so a CI failure
//! reproduces locally with one function call ([`ReplayFile::load`] +
//! [`ReplayFile::scheduler`]).
//!
//! Everything here is deterministic: the engine's clock is virtual, the
//! only randomness is seeded SplitMix64, and schedulers see the ready
//! set in ascending thread-id order.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use doppio_core::{RoundRobinScheduler, Scheduler, ThreadId};
use doppio_prng::SplitMix64;

// ----------------------------------------------------------------
// Schedulers
// ----------------------------------------------------------------

/// Uniform random scheduling from a seeded SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SeededRandomScheduler {
    rng: SplitMix64,
}

impl SeededRandomScheduler {
    /// A scheduler whose picks are fully determined by `seed`.
    pub fn new(seed: u64) -> SeededRandomScheduler {
        SeededRandomScheduler {
            rng: SplitMix64::new(seed),
        }
    }
}

impl Scheduler for SeededRandomScheduler {
    fn pick(&mut self, ready: &[ThreadId]) -> ThreadId {
        ready[self.rng.gen_range(0..ready.len())]
    }
}

/// Probabilistic concurrency testing with `d` priority-change points.
///
/// Each thread gets a random priority on first sight; the highest-
/// priority ready thread always runs. At `d − 1` pre-sampled step
/// indices the running candidate is demoted below every other thread,
/// forcing exactly the kind of rare preemption that exposes ordering
/// bugs of depth `d`.
#[derive(Debug, Clone)]
pub struct PctScheduler {
    rng: SplitMix64,
    /// Priority per thread id (higher runs first); lazily extended.
    priorities: Vec<u64>,
    /// Remaining demotion step indices, descending (pop from the back).
    change_points: Vec<u64>,
    /// Picks made so far.
    step: u64,
    /// Next demotion priority; decrements so each demotion lands below
    /// every previous one.
    next_low: u64,
}

impl PctScheduler {
    /// A PCT scheduler for bugs of depth `depth` in runs of roughly
    /// `expected_steps` scheduling points.
    pub fn new(seed: u64, depth: u32, expected_steps: u64) -> PctScheduler {
        let mut rng = SplitMix64::new(seed);
        let steps = expected_steps.max(1);
        let mut change_points: Vec<u64> =
            (1..depth.max(1)).map(|_| rng.gen_range(0..steps)).collect();
        change_points.sort_unstable();
        change_points.reverse(); // pop smallest first
        PctScheduler {
            rng,
            priorities: Vec::new(),
            change_points,
            step: 0,
            next_low: u64::MAX / 2,
        }
    }

    fn priority(&mut self, t: ThreadId) -> u64 {
        while self.priorities.len() <= t.0 {
            // High bit set: initial priorities always sit above the
            // demotion band.
            let p = self.rng.next_u64() | (1 << 63);
            self.priorities.push(p);
        }
        self.priorities[t.0]
    }
}

impl Scheduler for PctScheduler {
    fn pick(&mut self, ready: &[ThreadId]) -> ThreadId {
        let winner = *ready
            .iter()
            .max_by_key(|t| self.priority(**t))
            .expect("ready is non-empty");
        if self.change_points.last() == Some(&self.step) {
            self.change_points.pop();
            // Demote the would-be winner below everything seen so far
            // and re-pick.
            self.next_low -= 1;
            self.priorities[winner.0] = self.next_low;
        }
        self.step += 1;
        *ready
            .iter()
            .max_by_key(|t| self.priority(**t))
            .expect("ready is non-empty")
    }
}

/// Re-executes a recorded pick sequence byte-identically.
///
/// Each recorded pick is honored while it is valid (the recorded thread
/// is in the ready set); once the sequence is exhausted — or a recorded
/// pick no longer applies, which can only happen when replaying a
/// *shrunk prefix* against a run that diverged — picks fall back to
/// round-robin.
#[derive(Debug)]
pub struct ReplayScheduler {
    picks: Vec<u32>,
    pos: usize,
    fallback: RoundRobinScheduler,
}

impl ReplayScheduler {
    /// Replay `picks` (thread ids in pick order).
    pub fn new(picks: Vec<u32>) -> ReplayScheduler {
        ReplayScheduler {
            picks,
            pos: 0,
            fallback: RoundRobinScheduler::default(),
        }
    }
}

impl Scheduler for ReplayScheduler {
    fn pick(&mut self, ready: &[ThreadId]) -> ThreadId {
        if let Some(&p) = self.picks.get(self.pos) {
            self.pos += 1;
            let want = ThreadId(p as usize);
            if ready.contains(&want) {
                return want;
            }
        }
        self.fallback.pick(ready)
    }
}

/// Shared, cheaply cloneable pick log filled by a
/// [`RecordingScheduler`].
pub type PickLog = Rc<RefCell<Vec<u32>>>;

/// Wraps any scheduler and appends every pick to a [`PickLog`].
pub struct RecordingScheduler {
    inner: Box<dyn Scheduler>,
    log: PickLog,
}

impl RecordingScheduler {
    /// Record `inner`'s picks into `log`.
    pub fn new(inner: Box<dyn Scheduler>, log: PickLog) -> RecordingScheduler {
        RecordingScheduler { inner, log }
    }
}

impl Scheduler for RecordingScheduler {
    fn pick(&mut self, ready: &[ThreadId]) -> ThreadId {
        let t = self.inner.pick(ready);
        self.log.borrow_mut().push(t.0 as u32);
        t
    }
}

// ----------------------------------------------------------------
// Schedule descriptions
// ----------------------------------------------------------------

/// One point in the explored schedule space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleDesc {
    /// The default round-robin schedule.
    RoundRobin,
    /// [`SeededRandomScheduler`] with this seed.
    Seeded(u64),
    /// [`PctScheduler`] with this seed, depth, and step estimate.
    Pct {
        /// PRNG seed.
        seed: u64,
        /// Bug depth `d`.
        depth: u32,
        /// Estimated scheduling points per run.
        expected_steps: u64,
    },
    /// [`ReplayScheduler`] over an explicit pick sequence.
    Replay(Vec<u32>),
}

impl ScheduleDesc {
    /// Instantiate the scheduler this description names.
    pub fn scheduler(&self) -> Box<dyn Scheduler> {
        match self {
            ScheduleDesc::RoundRobin => Box::new(RoundRobinScheduler::default()),
            ScheduleDesc::Seeded(seed) => Box::new(SeededRandomScheduler::new(*seed)),
            ScheduleDesc::Pct {
                seed,
                depth,
                expected_steps,
            } => Box::new(PctScheduler::new(*seed, *depth, *expected_steps)),
            ScheduleDesc::Replay(picks) => Box::new(ReplayScheduler::new(picks.clone())),
        }
    }
}

impl fmt::Display for ScheduleDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleDesc::RoundRobin => write!(f, "round-robin"),
            ScheduleDesc::Seeded(seed) => write!(f, "seeded({seed:#x})"),
            ScheduleDesc::Pct {
                seed,
                depth,
                expected_steps,
            } => write!(f, "pct({seed:#x},d={depth},k={expected_steps})"),
            ScheduleDesc::Replay(picks) => write!(f, "replay({} picks)", picks.len()),
        }
    }
}

// ----------------------------------------------------------------
// The explore driver
// ----------------------------------------------------------------

/// PCT bug depth for the PCT half of [`ExploreConfig::schedules`].
const PCT_DEPTH: u32 = 3;

/// PCT step estimate for the PCT half of [`ExploreConfig::schedules`]
/// (an overestimate just dilutes change points).
const PCT_EXPECTED_STEPS: u64 = 200;

/// Parameters for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Number of schedules to run (schedule 0 is always round-robin).
    pub n_schedules: u32,
    /// Master seed; every per-schedule seed derives from it.
    pub seed: u64,
}

impl ExploreConfig {
    /// `explore(n_schedules, seed)`. Its PCT schedules look for bugs
    /// of depth 3 in runs of about 200 scheduling points.
    pub fn new(n_schedules: u32, seed: u64) -> ExploreConfig {
        ExploreConfig { n_schedules, seed }
    }

    /// The deterministic schedule list this config explores: schedule 0
    /// is round-robin (the baseline), then alternating seeded-random
    /// and PCT schedules seeded from split streams of the master seed.
    pub fn schedules(&self) -> Vec<ScheduleDesc> {
        let mut master = SplitMix64::new(self.seed);
        (0..self.n_schedules)
            .map(|i| {
                let s = master.split().next_u64();
                if i == 0 {
                    ScheduleDesc::RoundRobin
                } else if i % 2 == 1 {
                    ScheduleDesc::Seeded(s)
                } else {
                    ScheduleDesc::Pct {
                        seed: s,
                        depth: PCT_DEPTH,
                        expected_steps: PCT_EXPECTED_STEPS,
                    }
                }
            })
            .collect()
    }
}

/// One schedule's run, as observed by [`explore`].
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Which schedule ran.
    pub schedule: ScheduleDesc,
    /// Every pick the scheduler made, in order.
    pub picks: Vec<u32>,
    /// `Some(message)` when the workload failed under this schedule.
    pub failure: Option<String>,
}

/// A failing schedule, shrunk and packaged for replay.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The schedule that first failed.
    pub schedule: ScheduleDesc,
    /// The failure message from that run.
    pub message: String,
    /// The full pick trace of the failing run.
    pub picks: Vec<u32>,
    /// The minimized pick trace: the picks actually executed when
    /// replaying the smallest failing prefix (so replaying it is
    /// byte-identical, not merely prefix-compatible).
    pub shrunk: Vec<u32>,
    /// The replay file reproducing the failure.
    pub replay: ReplayFile,
}

/// Everything [`explore`] observed.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Per-schedule outcomes, in exploration order. Exploration stops
    /// at the first failure, so this may be shorter than `n_schedules`.
    pub runs: Vec<ScheduleOutcome>,
    /// The first failure, shrunk, if any schedule failed.
    pub failure: Option<FailureReport>,
}

impl ExploreReport {
    /// Whether every explored schedule passed.
    pub fn all_passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Run `workload` under [`ExploreConfig::schedules`], recording pick
/// traces; on the first failure, shrink the schedule to the smallest
/// failing pick prefix and build a [`FailureReport`].
///
/// `workload` is called once per schedule with the scheduler to
/// install; it must build a **fresh, fully deterministic** guest run
/// each time (new engine, new runtime) and return `Err(message)` on
/// failure. Determinism is what makes the shrunk prefix replayable —
/// with a virtual clock and seeded randomness, equal pick sequences
/// give equal runs.
pub fn explore(
    cfg: &ExploreConfig,
    mut workload: impl FnMut(Box<dyn Scheduler>) -> Result<(), String>,
) -> ExploreReport {
    let mut runs = Vec::new();
    for schedule in cfg.schedules() {
        let log: PickLog = Rc::new(RefCell::new(Vec::new()));
        let rec = RecordingScheduler::new(schedule.scheduler(), log.clone());
        let result = workload(Box::new(rec));
        let picks = log.borrow().clone();
        let failure = result.err();
        let failed = failure.is_some();
        runs.push(ScheduleOutcome {
            schedule: schedule.clone(),
            picks: picks.clone(),
            failure: failure.clone(),
        });
        if let Some(message) = failure {
            let (shrunk, message) = shrink(&picks, &message, &mut workload);
            let replay = ReplayFile {
                seed: cfg.seed,
                schedule: schedule.to_string(),
                failure: message.clone(),
                picks: shrunk.clone(),
            };
            return ExploreReport {
                runs,
                failure: Some(FailureReport {
                    schedule,
                    message,
                    picks,
                    shrunk,
                    replay,
                }),
            };
        }
        debug_assert!(!failed);
    }
    ExploreReport {
        runs,
        failure: None,
    }
}

/// [`explore`], with the schedule sweep sharded across OS threads.
///
/// Each schedule's run is an independent world (fresh engine, fresh
/// runtime, own virtual clock), so the sweep shards on
/// [`doppio_scale::run_sharded`]: every schedule runs to completion on
/// some thread, then the outcomes are folded back in schedule-index
/// order. `factory` is called once per run — including shrink replays
/// — and must return a workload closure with the same determinism
/// contract as [`explore`]'s.
///
/// The report is **identical to the serial [`explore`]'s** for the
/// same config and workload: the failure (if any) is the one at the
/// lowest schedule index, `runs` is truncated to end at that schedule
/// (the serial driver never runs past it), and shrinking happens
/// serially on the calling thread with the same greedy prefix search.
/// The only difference is wall-clock time.
pub fn explore_parallel(
    cfg: &ExploreConfig,
    threads: usize,
    factory: impl Fn() -> Box<dyn FnMut(Box<dyn Scheduler>) -> Result<(), String>> + Sync,
) -> ExploreReport {
    let schedules = cfg.schedules();
    let mut runs = doppio_scale::run_sharded(schedules.len(), threads, |i| {
        let schedule = schedules[i].clone();
        let log: PickLog = Rc::new(RefCell::new(Vec::new()));
        let rec = RecordingScheduler::new(schedule.scheduler(), log.clone());
        let failure = factory()(Box::new(rec)).err();
        let picks = log.borrow().clone();
        ScheduleOutcome {
            schedule,
            picks,
            failure,
        }
    });
    let first_failing = runs.iter().position(|run| run.failure.is_some());
    let Some(index) = first_failing else {
        return ExploreReport {
            runs,
            failure: None,
        };
    };
    // Match the serial driver byte-for-byte: it stops at the first
    // failure, so schedules past the lowest failing index never ran.
    runs.truncate(index + 1);
    let failing = runs[index].clone();
    let message = failing.failure.expect("selected a failing run");
    let mut workload = factory();
    let (shrunk, message) = shrink(&failing.picks, &message, &mut workload);
    let replay = ReplayFile {
        seed: cfg.seed,
        schedule: failing.schedule.to_string(),
        failure: message.clone(),
        picks: shrunk.clone(),
    };
    ExploreReport {
        runs,
        failure: Some(FailureReport {
            schedule: failing.schedule,
            message,
            picks: failing.picks,
            shrunk,
            replay,
        }),
    }
}

/// Greedy pick-prefix minimization: binary-search the smallest prefix
/// of `picks` that still fails when replayed (round-robin past the
/// prefix), then re-record the replay of that prefix so the returned
/// trace is exactly what a verifying replay executes.
fn shrink(
    picks: &[u32],
    original_message: &str,
    workload: &mut impl FnMut(Box<dyn Scheduler>) -> Result<(), String>,
) -> (Vec<u32>, String) {
    let try_prefix = |len: usize,
                      workload: &mut dyn FnMut(Box<dyn Scheduler>) -> Result<(), String>|
     -> Option<(Vec<u32>, String)> {
        let log: PickLog = Rc::new(RefCell::new(Vec::new()));
        let rec = RecordingScheduler::new(
            Box::new(ReplayScheduler::new(picks[..len].to_vec())),
            log.clone(),
        );
        let msg = workload(Box::new(rec)).err()?;
        let executed = log.borrow().clone();
        Some((executed, msg))
    };

    // Invariant: `hi` is a known-failing prefix length (the full trace
    // fails by construction — modulo nondeterminism, which the final
    // re-verify below catches).
    let (mut lo, mut hi) = (0usize, picks.len());
    let mut best: Option<(Vec<u32>, String)> = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match try_prefix(mid, workload) {
            Some(found) => {
                best = Some(found);
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    match best {
        // `best` holds the re-recorded full pick trace of the shortest
        // failing replay — already verified, already exact.
        Some((executed, msg)) if hi < picks.len() => (executed, msg),
        _ => {
            // No shorter prefix fails (or shrinking found nothing new):
            // verify the full trace replays, and return what the replay
            // actually executed.
            match try_prefix(picks.len(), workload) {
                Some((executed, msg)) => (executed, msg),
                None => (picks.to_vec(), original_message.to_string()),
            }
        }
    }
}

// ----------------------------------------------------------------
// Replay files
// ----------------------------------------------------------------

/// A serialized failing schedule: enough to reproduce a CI failure
/// locally, byte-identically, with no other context.
///
/// The format is a five-line text file:
///
/// ```text
/// doppio-replay v1
/// seed: 0x1234
/// schedule: pct(0xabcd,d=3,k=200)
/// failure: deadlock: all live threads blocked (...)
/// picks: 0,1,1,0,2
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayFile {
    /// The master seed `explore` ran with.
    pub seed: u64,
    /// Human-readable description of the schedule that failed.
    pub schedule: String,
    /// The failure message (first line only in the file).
    pub failure: String,
    /// The shrunk pick trace.
    pub picks: Vec<u32>,
}

impl ReplayFile {
    const MAGIC: &'static str = "doppio-replay v1";

    /// A [`ReplayScheduler`] that re-executes this file's picks.
    pub fn scheduler(&self) -> Box<dyn Scheduler> {
        Box::new(ReplayScheduler::new(self.picks.clone()))
    }

    /// Serialize to the text format.
    pub fn to_text(&self) -> String {
        let picks: Vec<String> = self.picks.iter().map(u32::to_string).collect();
        format!(
            "{}\nseed: {:#x}\nschedule: {}\nfailure: {}\npicks: {}\n",
            Self::MAGIC,
            self.seed,
            self.schedule,
            self.failure.lines().next().unwrap_or(""),
            picks.join(",")
        )
    }

    /// Parse the text format.
    pub fn from_text(text: &str) -> Result<ReplayFile, String> {
        let mut lines = text.lines();
        if lines.next() != Some(Self::MAGIC) {
            return Err(format!("not a replay file (expected '{}')", Self::MAGIC));
        }
        let mut field = |name: &str| -> Result<String, String> {
            let line = lines.next().ok_or_else(|| format!("missing '{name}:'"))?;
            line.strip_prefix(&format!("{name}: "))
                .map(str::to_string)
                .ok_or_else(|| format!("expected '{name}:', got {line:?}"))
        };
        let seed_text = field("seed")?;
        let seed = seed_text
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .or_else(|| seed_text.parse().ok())
            .ok_or_else(|| format!("bad seed {seed_text:?}"))?;
        let schedule = field("schedule")?;
        let failure = field("failure")?;
        let picks_text = field("picks")?;
        let picks = if picks_text.is_empty() {
            Vec::new()
        } else {
            picks_text
                .split(',')
                .map(|p| p.parse().map_err(|_| format!("bad pick {p:?}")))
                .collect::<Result<_, _>>()?
        };
        Ok(ReplayFile {
            seed,
            schedule,
            failure,
            picks,
        })
    }

    /// Write the file to disk.
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Read a file from disk.
    pub fn load(path: &str) -> Result<ReplayFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        ReplayFile::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(ids: &[usize]) -> Vec<ThreadId> {
        ids.iter().map(|&i| ThreadId(i)).collect()
    }

    #[test]
    fn seeded_scheduler_is_deterministic_and_covers_threads() {
        let r = ready(&[0, 1, 2]);
        let picks = |seed| -> Vec<usize> {
            let mut s = SeededRandomScheduler::new(seed);
            (0..50).map(|_| s.pick(&r).0).collect()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8));
        let seen: std::collections::HashSet<usize> = picks(7).into_iter().collect();
        assert_eq!(seen.len(), 3, "50 picks over 3 threads cover all");
    }

    #[test]
    fn pct_scheduler_demotes_at_change_points() {
        let r = ready(&[0, 1, 2]);
        let mut s = PctScheduler::new(3, 3, 30);
        let picks: Vec<usize> = (0..30).map(|_| s.pick(&r).0).collect();
        // Same seed, same schedule.
        let mut s2 = PctScheduler::new(3, 3, 30);
        let picks2: Vec<usize> = (0..30).map(|_| s2.pick(&r).0).collect();
        assert_eq!(picks, picks2);
        // PCT is priority-driven: long runs of one thread, with change
        // points switching the winner. With 3 threads and depth 3 the
        // 30-step window sees at most 3 distinct "reigns".
        let reigns = picks.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(reigns <= 2, "picks {picks:?}");
    }

    #[test]
    fn pct_change_point_forces_a_preemption() {
        // Scan seeds for one whose change point lands inside the window
        // and check the demoted thread stops winning.
        let r = ready(&[0, 1]);
        let mut saw_switch = false;
        for seed in 0..50 {
            let mut s = PctScheduler::new(seed, 2, 10);
            let picks: Vec<usize> = (0..10).map(|_| s.pick(&r).0).collect();
            if picks.windows(2).any(|w| w[0] != w[1]) {
                saw_switch = true;
                break;
            }
        }
        assert!(saw_switch, "no seed in 0..50 produced a preemption");
    }

    #[test]
    fn replay_follows_recording_then_falls_back() {
        let r = ready(&[0, 1, 2]);
        let mut s = ReplayScheduler::new(vec![2, 0, 2, 1]);
        let picks: Vec<usize> = (0..6).map(|_| s.pick(&r).0).collect();
        assert_eq!(&picks[..4], &[2, 0, 2, 1]);
        // Past the recording: the round-robin fallback takes over (its
        // cursor starts at thread 0, so 1 comes next, then 2).
        assert_eq!(&picks[4..], &[1, 2]);
    }

    #[test]
    fn replay_skips_picks_of_non_ready_threads() {
        let mut s = ReplayScheduler::new(vec![5, 1]);
        // Thread 5 is not ready: fall back for that pick, then honor 1.
        assert_eq!(s.pick(&ready(&[0, 1])).0, 1); // RR fallback: first > last(=0) is 1
        assert_eq!(s.pick(&ready(&[0, 1])).0, 1);
    }

    #[test]
    fn recording_wraps_and_logs() {
        let log: PickLog = Rc::new(RefCell::new(Vec::new()));
        let mut s = RecordingScheduler::new(Box::new(SeededRandomScheduler::new(9)), log.clone());
        let r = ready(&[0, 1, 2, 3]);
        let picks: Vec<u32> = (0..20).map(|_| s.pick(&r).0 as u32).collect();
        assert_eq!(*log.borrow(), picks);
        // Replaying the log reproduces the picks exactly.
        let mut replay = ReplayScheduler::new(log.borrow().clone());
        let rep: Vec<u32> = (0..20).map(|_| replay.pick(&r).0 as u32).collect();
        assert_eq!(rep, picks);
    }

    #[test]
    fn replay_file_round_trips() {
        let f = ReplayFile {
            seed: 0xDEAD_BEEF,
            schedule: "pct(0x12,d=3,k=200)".to_string(),
            failure: "deadlock: all live threads blocked (a, b)\n  detail".to_string(),
            picks: vec![0, 1, 1, 0, 2],
        };
        let parsed = ReplayFile::from_text(&f.to_text()).unwrap();
        assert_eq!(parsed.seed, f.seed);
        assert_eq!(parsed.schedule, f.schedule);
        assert_eq!(parsed.picks, f.picks);
        // Multi-line failures keep their first line.
        assert_eq!(parsed.failure, "deadlock: all live threads blocked (a, b)");
        // Empty pick lists survive too.
        let empty = ReplayFile {
            picks: Vec::new(),
            ..f
        };
        assert_eq!(ReplayFile::from_text(&empty.to_text()).unwrap().picks, []);
    }

    #[test]
    fn replay_file_rejects_garbage() {
        assert!(ReplayFile::from_text("nonsense").is_err());
        assert!(ReplayFile::from_text("doppio-replay v1\nseed: zz\n").is_err());
    }

    /// A deterministic stand-in workload: a "program" that consumes
    /// picks from the scheduler (3 threads, 40 steps) and fails iff
    /// thread 2 ever runs twice in a row within the first `window`
    /// steps.
    fn toy_workload(window: usize) -> impl FnMut(Box<dyn Scheduler>) -> Result<(), String> {
        move |mut sched| {
            let r: Vec<ThreadId> = (0..3).map(ThreadId).collect();
            let mut last = usize::MAX;
            for step in 0..40 {
                let t = sched.pick(&r).0;
                if step < window && t == 2 && last == 2 {
                    return Err(format!("double-run of thread 2 at step {step}"));
                }
                last = t;
            }
            Ok(())
        }
    }

    #[test]
    fn explore_finds_and_shrinks_a_failure() {
        let cfg = ExploreConfig::new(10, 42);
        let report = explore(&cfg, toy_workload(40));
        let failure = report.failure.expect("random schedules double-run");
        // Round-robin (schedule 0) never double-runs: it passed.
        assert!(report.runs[0].failure.is_none());
        assert!(!failure.shrunk.is_empty());
        assert!(failure.shrunk.len() <= failure.picks.len());
        // The shrunk trace replays to the same failure.
        let mut workload = toy_workload(40);
        let err = workload(failure.replay.scheduler()).unwrap_err();
        assert_eq!(err, failure.message);
        // And the shrunk trace ends exactly at the failure point: the
        // last two picks are the double-run.
        let n = failure.shrunk.len();
        assert_eq!(failure.shrunk[n - 1], 2);
        assert_eq!(failure.shrunk[n - 2], 2);
    }

    #[test]
    fn explore_passes_when_no_schedule_fails() {
        let cfg = ExploreConfig::new(6, 7);
        let report = explore(&cfg, toy_workload(0));
        assert!(report.all_passed());
        assert_eq!(report.runs.len(), 6);
    }

    #[test]
    fn explore_is_deterministic_per_seed() {
        let run = || {
            let report = explore(&ExploreConfig::new(8, 99), toy_workload(40));
            report.failure.map(|f| (f.schedule, f.picks, f.shrunk))
        };
        assert_eq!(run(), run());
    }
}
