//! The name-rule inventory of `pub` items: every `pub` fn, struct,
//! enum, trait, type, const or static under `crates/<c>/src/` whose name
//! is a word in no `.rs` file outside that directory. Other crates,
//! test and bench targets, examples and `examples/perf` all count as
//! outside; `target`, `.git`, `.bench_build` and `shims` directories are
//! not read.
//!
//! `unreachable_pub` only sees `pub` items in private modules, so an
//! item of a `pub mod` that nothing outside names is invisible to it and
//! to `dead_code`. Every name listed in `tests/golden/visibility.txt`
//! must stay `pub` for a stated reason: `private_interfaces` (it is the
//! type of something public) or a public doc link. A name that newly
//! appears is narrowed to `pub(crate)`, or re-recorded with its reason
//! in CHANGES.md; one that drops off is re-recorded.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Directory names the walk does not enter.
const SKIPPED: [&str; 4] = ["target", ".git", ".bench_build", "shims"];

/// Item keywords a definition line may carry after `pub`.
const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Qualifiers that may sit between `pub` and the item keyword.
const QUALIFIERS: [&str; 3] = ["unsafe", "async", "const"];

/// Every `.rs` file under `dir`, relative to `root`, sorted.
fn sources(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIPPED.contains(&name) {
                sources(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).expect("under the root").to_owned());
        }
    }
}

fn is_word_char(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// The maximal runs of word characters in `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_word_char(c))
        .filter(|w| !w.is_empty())
}

/// `(keyword, name)` of a line `pub [qualifiers] <keyword> <name>…`.
/// Qualifiers are taken greedily, giving one back when `const` is the
/// keyword itself (`pub const NAME`).
fn definition(line: &str) -> Option<(&str, &str)> {
    let rest = line.trim_start().strip_prefix("pub")?;
    if !rest.starts_with(char::is_whitespace) {
        return None;
    }
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    let qualifiers = tokens.iter().take_while(|t| QUALIFIERS.contains(t)).count();
    (0..=qualifiers).rev().find_map(|at| {
        let (keyword, next) = (*tokens.get(at)?, *tokens.get(at + 1)?);
        let name = &next[..next.find(|c| !is_word_char(c)).unwrap_or(next.len())];
        (KINDS.contains(&keyword) && !name.is_empty()).then_some((keyword, name))
    })
}

/// The inventory, one `<crate> <keyword> <name> <file>` line per item.
fn inventory(root: &Path) -> String {
    let mut files = Vec::new();
    sources(root, root, &mut files);
    let texts: Vec<(String, String)> = files
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(root.join(p)).expect("source file");
            (p.display().to_string(), text)
        })
        .collect();
    // For every word, the crates whose `src/` spells it ("" stands for
    // every file outside a `crates/<c>/src/`).
    let mut spelled: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (path, text) in &texts {
        let home = crate_of(path).unwrap_or("");
        for word in words(text) {
            spelled.entry(word).or_default().insert(home);
        }
    }
    let mut out = String::new();
    let crates: BTreeSet<&str> = texts.iter().filter_map(|(p, _)| crate_of(p)).collect();
    for krate in crates {
        for (path, text) in texts.iter().filter(|(p, _)| crate_of(p) == Some(krate)) {
            for (keyword, name) in text.lines().filter_map(definition) {
                if spelled[name].iter().all(|home| *home == krate) {
                    out.push_str(&format!("{krate} {keyword} {name} {path}\n"));
                }
            }
        }
    }
    out
}

/// `<c>` when `path` lies under `crates/<c>/src/`.
fn crate_of(path: &str) -> Option<&str> {
    let (krate, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    rest.starts_with("src/").then_some(krate)
}

#[test]
fn pub_items_no_outside_source_spells_are_the_recorded_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    ptsbench_testkit::assert_golden("visibility.txt", &inventory(root));
}
