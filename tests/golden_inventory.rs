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
//!
//! The same holds for what the tests read: every file under
//! `tests/golden/parity/` and `tests/golden/baseline/` is named by a
//! test source, every golden path a test source names exists, and the
//! one FNV-1a those tests hash with is `ptsbench_testkit::Fnv`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

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

/// Every file under `dir`, at any depth.
fn files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .flat_map(|p| if p.is_dir() { files(&p) } else { vec![p] })
        .collect()
}

/// Every test source of the workspace, under `tests/` and `crates/*/tests/`.
fn test_sources() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = files(&root.join("tests"));
    sources.extend(
        files(&root.join("crates"))
            .into_iter()
            .filter(|p| p.components().any(|c| c.as_os_str() == "tests")),
    );
    sources
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .map(|p| (p.clone(), std::fs::read_to_string(&p).expect("test source")))
        .collect()
}

/// The golden paths the test sources name, relative to `tests/golden/`:
/// every string literal that ends in `.txt`, where a `{…}` stands for a
/// format argument.
fn golden_references() -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (_, text) in test_sources() {
        for (end, _) in text.match_indices(".txt\"") {
            let literal = &text[text[..end].rfind('"').expect("an opening quote") + 1..end + 4];
            if !literal.contains(char::is_whitespace) {
                out.insert(literal.trim_start_matches("tests/golden/").to_owned());
            }
        }
    }
    out
}

/// Whether `reference` names `rel`; its one `{…}`, if any, stands for
/// one or more characters.
fn names(reference: &str, rel: &str) -> bool {
    match reference.split_once('{') {
        None => reference == rel,
        Some((head, rest)) => {
            let tail = rest.split_once('}').map_or("", |(_, tail)| tail);
            rel.len() > head.len() + tail.len() && rel.starts_with(head) && rel.ends_with(tail)
        }
    }
}

#[test]
fn every_recorded_run_is_read_and_every_read_is_recorded() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let recorded: Vec<String> = files(&golden)
        .iter()
        .map(|p| {
            p.strip_prefix(&golden)
                .expect("under tests/golden")
                .display()
                .to_string()
        })
        .collect();
    let references = golden_references();
    let unread: Vec<_> = recorded
        .iter()
        .filter(|rel| rel.starts_with("parity/") || rel.starts_with("baseline/"))
        .filter(|rel| !references.iter().any(|r| names(r, rel)))
        .collect();
    assert!(
        unread.is_empty(),
        "golden files no test source names: {unread:?}"
    );
    let missing: Vec<_> = references
        .iter()
        .filter(|r| !recorded.iter().any(|rel| names(r, rel)))
        .collect();
    assert!(
        missing.is_empty(),
        "golden paths with no file under tests/golden/: {missing:?}"
    );
}

#[test]
fn every_test_hashes_with_the_testkit_fnv() {
    // Spelled in two halves so this file does not name it itself.
    let prime = format!("{}{}", "01", "b3");
    let copies: Vec<_> = test_sources()
        .into_iter()
        .filter(|(_, text)| text.contains(&prime))
        .map(|(path, _)| path)
        .collect();
    assert!(
        copies.is_empty(),
        "FNV-1a copies outside ptsbench-testkit: {copies:?}"
    );
}
