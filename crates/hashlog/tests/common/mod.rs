//! Helpers the hash log's parity suites share. Each suite is its own
//! crate and uses a subset.
#![allow(dead_code)]

use ptsbench_testkit::Fnv;
use ptsbench_vfs::Vfs;

pub(crate) fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

/// Folds a point read into `reads`: the value, or a marker for none.
pub(crate) fn feed_get(reads: &mut Fnv, value: Option<Vec<u8>>) {
    reads.feed(value.as_deref().unwrap_or(b"<absent>"));
}

/// One line per non-empty segment file: name, size, FNV of its bytes.
/// Segment bytes are looked at through a checked-out `Vfs::appender`,
/// which costs no device traffic.
pub(crate) fn segment_files(fs: &Vfs) -> String {
    let mut names: Vec<String> = fs
        .list()
        .into_iter()
        .filter(|n| n.starts_with("hlog-"))
        .collect();
    names.sort();
    let mut out = String::new();
    for name in names {
        let id = fs.open(&name).expect("open");
        let bytes = fs.appender(id, 0).expect("checkout");
        if bytes.buf.is_empty() {
            continue;
        }
        let mut sum = Fnv::new();
        sum.feed(&bytes.buf);
        out.push_str(&format!(
            "{name} {} {:016x}
",
            bytes.buf.len(),
            sum.0
        ));
    }
    out
}
