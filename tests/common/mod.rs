//! The byte-identity check every determinism test shares.
//!
//! A scenario is a pure function of its seed, so its rendered output is
//! committed under `tests/golden/` and compared byte for byte. The
//! check produces each scenario more than once in this process: twice,
//! or once per shard-pool size when the scenario is sharded. A byte that
//! moves between commits and hidden host state (allocation order, thread
//! ids, wall clocks) fail the same check.
//!
//! On a mismatch the check writes what it got to
//! `target/tmp/golden/<name>.txt` and fails; copy that file over the
//! golden only when the change is intended.

// Each test crate uses only part of this module.
#![allow(dead_code)]

use std::path::PathBuf;

use doppio::scale::run_sharded;
use doppio::sockets::sha1::sha1;

/// Produce `scenario` twice; both outputs must equal
/// `tests/golden/<name>.txt` (`name` includes the subdirectory, e.g.
/// `jvm/disasm`).
pub fn check_golden(name: &str, scenario: impl Fn() -> String) {
    for run in ["first run", "second run"] {
        assert_golden(name, run, &scenario());
    }
}

/// Produce `scenario` once per shard-pool size in `threads`; every
/// output must equal `tests/golden/<name>.txt`.
pub fn check_golden_at(name: &str, threads: &[usize], scenario: impl Fn(usize) -> String) {
    for &t in threads {
        assert_golden(name, &format!("{t} threads"), &scenario(t));
    }
}

/// Shard one job per seed over 1 and then `threads` OS threads; at
/// both pool sizes seed `s`'s output must equal
/// `tests/golden/<name>_seed<s>.txt`.
pub fn check_golden_seeds(
    name: &str,
    seeds: &[u64],
    threads: usize,
    job: impl Fn(u64) -> String + Sync,
) {
    for t in [1, threads] {
        let outputs = run_sharded(seeds.len(), t, |i| job(seeds[i]));
        for (seed, got) in seeds.iter().zip(outputs) {
            assert_golden(&format!("{name}_seed{seed}"), &format!("{t} threads"), &got);
        }
    }
}

/// An artifact too large to commit, in golden form: its byte length
/// and SHA-1.
pub fn digest(doc: &(impl AsRef<[u8]> + ?Sized)) -> String {
    let doc = doc.as_ref();
    let hex: String = sha1(doc).iter().map(|b| format!("{b:02x}")).collect();
    format!("{} bytes, sha1 {hex}", doc.len())
}

/// Compare `got` with `tests/golden/<name>.txt`; `run` names the
/// production that diverged.
fn assert_golden(name: &str, run: &str, got: &str) {
    let file = format!("{name}.txt");
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(&file);
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if want != got {
        let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join("golden")
            .join(&file);
        let out_dir = out.parent().expect("golden file has a directory");
        std::fs::create_dir_all(out_dir).expect("create golden output dir");
        std::fs::write(&out, got).expect("write golden output");
        panic!(
            "{name} ({run}) drifted from {}; the actual output is in {}",
            golden.display(),
            out.display()
        );
    }
}
