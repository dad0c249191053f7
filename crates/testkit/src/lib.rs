//! # ptsbench-testkit — the one way tests pin recorded output
//!
//! Every number a test holds a run to lives in a file under
//! `tests/golden/` at the workspace root, and [`assert_golden`] is the
//! one reader. A mismatch leaves the rendered bytes under
//! `target/golden-actual/`, so a declared re-baseline is one command
//! from the workspace root:
//!
//! ```text
//! cp -r target/golden-actual/. tests/golden/
//! ```
//!
//! [`Fnv`] is the one FNV-1a the suites fold large renders into.
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0100_0000_01b3;

/// A 64-bit FNV-1a state; `.0` is the hash so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv(OFFSET)
    }

    /// Plain FNV-1a over `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// `bytes`, then its length folded in as one more step, so
    /// `("ab", "c")` and `("a", "bc")` hash differently.
    pub fn feed(&mut self, bytes: &[u8]) -> &mut Self {
        self.bytes(bytes);
        self.0 = (self.0 ^ bytes.len() as u64).wrapping_mul(PRIME);
        self
    }

    /// The little-endian bytes of `word`.
    pub fn word(&mut self, word: u64) -> &mut Self {
        self.bytes(&word.to_le_bytes())
    }
}

/// Plain FNV-1a of `bytes` in one call.
pub fn fnv64(bytes: &[u8]) -> u64 {
    Fnv::new().bytes(bytes).0
}

/// The workspace root: this crate sits at `crates/testkit`.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Panics unless `tests/golden/<rel>` holds exactly `actual`'s bytes.
///
/// Nothing is trimmed or normalised. On a mismatch (or a missing file)
/// `actual` is written to `target/golden-actual/<rel>` and the panic
/// names the `cp` that re-records it; on a match a stale copy there is
/// removed, so `cp -r target/golden-actual/. tests/golden/` copies only
/// what the last run saw move.
pub fn assert_golden(rel: &str, actual: &str) {
    let root = root();
    let rendered = root.join("target/golden-actual").join(rel);
    let recorded = std::fs::read(root.join("tests/golden").join(rel)).ok();
    if recorded.as_deref() == Some(actual.as_bytes()) {
        let _ = std::fs::remove_file(&rendered);
        return;
    }
    std::fs::create_dir_all(rendered.parent().expect("a file under target/"))
        .and_then(|()| std::fs::write(&rendered, actual))
        .unwrap_or_else(|e| panic!("tests/golden/{rel} does not match the run: {e}"));
    panic!(
        "tests/golden/{rel} does not match the run, which is left under target/golden-actual/. \
         After a declared change, re-record it from the workspace root:\n    \
         cp target/golden-actual/{rel} tests/golden/{rel}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(Fnv::new().word(0x6261).0, fnv64(b"ab\0\0\0\0\0\0"));
    }

    #[test]
    fn feed_delimits_each_field() {
        let (mut split_late, mut split_early) = (Fnv::new(), Fnv::new());
        split_late.feed(b"ab").feed(b"c");
        split_early.feed(b"a").feed(b"bc");
        assert_ne!(split_late, split_early);
        assert_eq!(Fnv::new().bytes(b"ab").bytes(b"c").0, fnv64(b"abc"));
    }

    #[test]
    fn a_mismatch_leaves_the_run_and_names_the_cp() {
        let rel = "testkit/never-recorded.txt";
        let rendered = root().join("target/golden-actual").join(rel);
        let panic = std::panic::catch_unwind(|| assert_golden(rel, "rendered\n"))
            .expect_err("no such golden");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        let written = std::fs::read_to_string(&rendered).expect("the run is left behind");
        std::fs::remove_file(&rendered).expect("clean up");
        assert_eq!(written, "rendered\n");
        assert!(
            message.contains(&format!("cp target/golden-actual/{rel} tests/golden/{rel}")),
            "{message}"
        );
    }
}
