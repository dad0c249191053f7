//! What growing a file chunk by chunk leaves behind, pinned: device
//! SMART counters, the virtual clock, the file's size, durability
//! horizon and extents and the `df` view after every chunk, and the
//! bytes read back at the end. The constants were recorded from
//! [`Vfs::append`] / [`Vfs::append_bg`] before any other way to grow a
//! file existed; every way to grow one must reproduce them step by
//! step, and [`ptsbench_vfs::FileAppender`] — the writer encodes into
//! the file's own buffer, then commits — is held to them here.

use proptest::prelude::*;

use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_testkit::{assert_golden, fnv64};
use ptsbench_vfs::{FileId, Vfs, VfsOptions};

const PAGE: u64 = 4096;

/// Free space the file under test finds, on a 16 MiB device.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Nothing else on the device.
    Fresh,
    /// Two free runs of this many pages, the one NextFit takes first
    /// named first; everything else belongs to other files.
    TwoRuns(u64, u64),
}

struct Case<'a> {
    layout: Layout,
    chunks: &'a [usize],
}

/// Whole pages at every step.
const ALIGNED: Case<'static> = Case {
    layout: Layout::Fresh,
    chunks: &[65_536, 262_144, 4_096, 131_072],
};
/// Whole pages, then a tail that ends mid-page (a table's last append).
const UNALIGNED_TAIL: Case<'static> = Case {
    layout: Layout::Fresh,
    chunks: &[262_144, 262_144, 9_001],
};
/// Every chunk starts or ends mid-page: read-modify-write of the tail.
const SUB_PAGE: Case<'static> = Case {
    layout: Layout::Fresh,
    chunks: &[100, 200, 3_000, 796, 1, 4_096, 5_000, 12_288],
};
/// The second chunk starts in one extent and ends in another.
const CROSSING: Case<'static> = Case {
    layout: Layout::TwoRuns(24, 64),
    chunks: &[65_536, 65_536 + 777, 32_768],
};
/// 40 free pages: the third 64 KiB chunk does not fit.
const OUT_OF_SPACE: Case<'static> = Case {
    layout: Layout::TwoRuns(30, 10),
    chunks: &[65_536, 65_536, 65_536, 4_096],
};

fn pattern(chunk: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (chunk * 31 + i * 7 + i / 251) as u8)
        .collect()
}

/// A 16 MiB device with `layout`'s free space and the empty file "t".
fn stack(layout: Layout) -> (Vfs, FileId) {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 16 << 20));
    let v = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    if let Layout::TwoRuns(first, second) = layout {
        let pages = v.stats().partition_pages;
        let fill = |name: &str, pages: u64| {
            let f = v.create(name).expect("create");
            v.write_at(f, 0, &vec![0x5au8; (pages * PAGE) as usize])
                .expect("fill");
        };
        // NextFit's cursor ends behind "hog-b": the tail run is taken
        // first, then the hole "gap" leaves.
        fill("hog-a", 100);
        fill("gap", second);
        fill("hog-b", pages - 100 - second - first);
        v.delete("gap").expect("delete");
    }
    let t = v.create("t").expect("create");
    (v, t)
}

/// Everything that must not move, after one step.
fn snapshot(v: &Vfs, t: FileId) -> String {
    let s = v.ssd().lock().smart();
    let df = v.stats();
    format!(
        "w={} r={} nw={} nr={} er={} gc={}/{} trim={} clock={} size={} durable={} extents={:?} \
         df={}/{}/{}/{}/{}/{}/{}",
        s.host_pages_written,
        s.host_pages_read,
        s.nand_pages_written,
        s.nand_pages_read,
        s.blocks_erased,
        s.gc_pages_relocated,
        s.gc_invocations,
        s.pages_trimmed,
        v.clock().now(),
        v.size(t).expect("size"),
        v.durable_at(t).expect("durable_at"),
        v.extents(t)
            .expect("extents")
            .iter()
            .map(|e| (e.start, e.pages))
            .collect::<Vec<_>>(),
        df.partition_pages,
        df.used_pages,
        df.free_pages,
        df.live_files,
        df.peak_used_pages,
        df.data_bytes,
        df.used_bytes,
    )
}

/// FNV-1a of the file's bytes, read back through the filesystem.
fn contents_sum(v: &Vfs, t: FileId) -> u64 {
    let size = v.size(t).expect("size") as usize;
    let bytes = v.read_at(t, 0, size).expect("read back");
    assert_eq!(bytes.len(), size);
    fnv64(&bytes)
}

/// How the chunks reach the file.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// One `append` / `append_bg` call per chunk.
    Append,
    /// Written at the tail of the file's checked-out buffer, then
    /// committed.
    Appender,
}

/// Grows "t" by `case`'s chunks and renders every step.
fn run(case: &Case, blocking: bool, via: Via) -> String {
    let (v, t) = stack(case.layout);
    let mut appender = match via {
        Via::Append => None,
        Via::Appender => Some(v.appender(t, 0).expect("appender")),
    };
    let mut out = String::new();
    for (i, &len) in case.chunks.iter().enumerate() {
        let chunk = pattern(i, len);
        let result = match &mut appender {
            None if blocking => v.append(t, &chunk),
            None => v.append_bg(t, &chunk),
            Some(a) => {
                a.buf.extend_from_slice(&chunk);
                let result = a.commit(a.buf.len(), blocking);
                if result.is_err() {
                    // What a failed `append` never wrote.
                    a.buf.truncate(a.committed());
                }
                result
            }
        };
        let verdict = if result.is_ok() { "ok" } else { "ERR" };
        out.push_str(&format!("{i} +{len} {verdict} {}\n", snapshot(&v, t)));
        v.check_invariants();
    }
    drop(appender);
    v.check_invariants();
    out.push_str(&format!("bytes={:016x}\n", contents_sum(&v, t)));
    out
}

/// Grows "t" both ways; both must render the same steps.
fn both(case: &Case, blocking: bool) -> String {
    let appended = run(case, blocking, Via::Append);
    assert_eq!(run(case, blocking, Via::Appender), appended);
    appended
}

#[test]
fn aligned_chunks() {
    let got = both(&ALIGNED, true);
    assert_golden("parity/vfs/append_parity/ALIGNED_FG.txt", &got);
    let got = both(&ALIGNED, false);
    assert_golden("parity/vfs/append_parity/ALIGNED_BG.txt", &got);
}

#[test]
fn unaligned_tail() {
    let got = both(&UNALIGNED_TAIL, true);
    assert_golden("parity/vfs/append_parity/UNALIGNED_TAIL_FG.txt", &got);
    let got = both(&UNALIGNED_TAIL, false);
    assert_golden("parity/vfs/append_parity/UNALIGNED_TAIL_BG.txt", &got);
}

#[test]
fn sub_page_chunks() {
    let got = both(&SUB_PAGE, true);
    assert_golden("parity/vfs/append_parity/SUB_PAGE_FG.txt", &got);
    let got = both(&SUB_PAGE, false);
    assert_golden("parity/vfs/append_parity/SUB_PAGE_BG.txt", &got);
}

#[test]
fn chunk_crossing_an_extent_boundary() {
    let got = both(&CROSSING, true);
    assert_golden("parity/vfs/append_parity/CROSSING_FG.txt", &got);
    let got = both(&CROSSING, false);
    assert_golden("parity/vfs/append_parity/CROSSING_BG.txt", &got);
}

#[test]
fn out_of_space_on_the_third_chunk() {
    let got = both(&OUT_OF_SPACE, true);
    assert_golden("parity/vfs/append_parity/OUT_OF_SPACE_FG.txt", &got);
    let got = both(&OUT_OF_SPACE, false);
    assert_golden("parity/vfs/append_parity/OUT_OF_SPACE_BG.txt", &got);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary chunkings, layouts and blocking modes: the appender
    /// and `append*` render the same steps, failures included.
    #[test]
    fn appender_matches_append_on_arbitrary_chunkings(
        chunks in proptest::collection::vec(
            prop_oneof![1usize..9_000, (1usize..40).prop_map(|p| p * 4096), 60_000usize..300_000],
            1..64,
        ),
        blocking in any::<bool>(),
        runs in prop_oneof![Just(None), (1u64..200, 1u64..200).prop_map(Some)],
    ) {
        let layout = runs.map_or(Layout::Fresh, |(a, b)| Layout::TwoRuns(a, b));
        let case = Case { layout, chunks: &chunks };
        prop_assert_eq!(run(&case, blocking, Via::Append), run(&case, blocking, Via::Appender));
    }
}
