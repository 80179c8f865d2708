//! Small statistics helpers: medians, nearest-rank percentiles, the
//! "tail" percentile rule, geometric means, and a stable digest.

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `sorted` (ascending).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency summary: median and "tail" — the highest of the standard
/// percentiles that still has at least ten samples above it.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub n: usize,
    pub p50_ns: u64,
    pub tail_ns: u64,
    pub tail_pct: f64,
}

impl Latency {
    pub fn of(samples: &[u64]) -> Latency {
        let mut s = samples.to_vec();
        s.sort_unstable();
        let n = s.len();
        let tail_pct = [99.9, 99.0, 95.0, 90.0, 75.0]
            .into_iter()
            .find(|p| {
                let rank = ((p / 100.0) * n as f64).ceil() as usize;
                n >= rank + 10
            })
            .unwrap_or(50.0);
        Latency {
            n,
            p50_ns: percentile(&s, 50.0),
            tail_ns: percentile(&s, tail_pct),
            tail_pct,
        }
    }

    pub fn p50_ms(&self) -> f64 {
        self.p50_ns as f64 / 1e6
    }

    pub fn tail_ms(&self) -> f64 {
        self.tail_ns as f64 / 1e6
    }

    /// `name_p50_ms … name_tail_ms …` report lines with sample counts.
    pub fn lines(&self, name: &str, unit: &str) -> [String; 2] {
        [
            format!("{name}_p50_ms {} {unit} (p50, n={})", self.p50_ms(), self.n),
            format!(
                "{name}_tail_ms {} {unit} (p{}, n={})",
                self.tail_ms(),
                self.tail_pct,
                self.n
            ),
        ]
    }
}

/// Geometric mean of positive values (0 if any is not positive).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|x| *x <= 0.0 || !x.is_finite()) {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// FNV-1a over a sequence of byte strings: the determinism digest.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for b in bytes.iter().chain(std::iter::once(&0xffu8)) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add_u64s(&mut self, v: &[u64]) {
        for x in v {
            self.add(&x.to_le_bytes());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
