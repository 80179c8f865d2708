//! The paper's evaluation (§7) as goldens: every table and figure that
//! `doppio-bench` renders, text and JSON sections, must equal its file
//! under `tests/golden/figures/`. Each function also asserts its
//! figure's shape (see the `doppio-bench` crate docs), so these tests
//! check those claims too.
//!
//! The figures that take several seconds in the dev profile are
//! `#[ignore]`d; CI runs them in release with
//! `cargo test --release --test figures -- --include-ignored`, which
//! is also the command that regenerates them.

mod common;

use common::check_golden;

#[test]
fn table1_features_matches_its_golden() {
    check_golden("figures/table1_features", doppio_bench::table1_features);
}

#[test]
fn table2_storage_matches_its_golden() {
    check_golden("figures/table2_storage", doppio_bench::table2_storage);
}

#[test]
fn ablation_resume_matches_its_golden() {
    check_golden("figures/ablation_resume", doppio_bench::ablation_resume);
}

#[test]
#[ignore = "31 s per production in the dev profile; CI runs it in release"]
fn fig3_macro_matches_its_golden() {
    check_golden("figures/fig3_macro", doppio_bench::fig3_macro);
}

#[test]
#[ignore = "4.8 s per production in the dev profile; CI runs it in release"]
fn fig4_fig5_micro_matches_its_golden() {
    check_golden("figures/fig4_fig5_micro", doppio_bench::fig4_fig5_micro);
}

#[test]
#[ignore = "4.3 s per production in the dev profile; CI runs it in release"]
fn fig6_filesystem_matches_its_golden() {
    check_golden("figures/fig6_filesystem", doppio_bench::fig6_filesystem);
}
