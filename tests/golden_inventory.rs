//! Every experiment the repository prints has exactly one golden, and
//! every golden has the target that prints it.
//!
//! A figure is either a beyond-paper study (`examples/fig_<study>.rs`,
//! run with `cargo run --example`) or a paper figure
//! (`crates/bench/benches/fig0N_<name>.rs`, run with `cargo bench`); its
//! stdout is pinned by `tests/golden/<target>.txt`, and CI takes the
//! list of targets to run and diff from those files. A target without a
//! golden would never be diffed, and a golden without a target would
//! silently stop being checked.

use std::collections::BTreeSet;
use std::path::Path;

/// Stems of the files in `dir` that start with `fig` and end in `ext`.
fn fig_stems(dir: &str, ext: &str) -> BTreeSet<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .filter_map(|p| Some(p.file_stem()?.to_str()?.to_owned()))
        .filter(|stem| stem.starts_with("fig"))
        .collect()
}

#[test]
fn every_figure_target_has_a_golden_and_every_golden_a_target() {
    let examples = fig_stems("examples", "rs");
    let benches = fig_stems("crates/bench/benches", "rs");
    let goldens = fig_stems("tests/golden", "txt");
    let twins: Vec<_> = examples.intersection(&benches).collect();
    assert!(
        twins.is_empty(),
        "one entry point per figure: {twins:?} is both an example and a bench target"
    );
    let targets: BTreeSet<String> = examples.union(&benches).cloned().collect();
    let no_golden: Vec<_> = targets.difference(&goldens).collect();
    assert!(
        no_golden.is_empty(),
        "figure targets without tests/golden/<target>.txt: {no_golden:?}"
    );
    let no_target: Vec<_> = goldens.difference(&targets).collect();
    assert!(
        no_target.is_empty(),
        "goldens without an example or bench target: {no_target:?}"
    );
}
