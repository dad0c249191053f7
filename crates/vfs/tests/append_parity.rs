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
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
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

/// Both ways of growing the file leave `expected`.
fn assert_both(case: &Case, blocking: bool, expected: &str) {
    assert_parity(&run(case, blocking, Via::Append), expected);
    assert_parity(&run(case, blocking, Via::Appender), expected);
}

fn assert_parity(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "the run drifted from the recorded constants; it now renders:\n{actual}"
    );
}

const ALIGNED_FG: &str = "\
0 +65536 ok w=16 r=0 nw=16 nr=0 er=0 gc=0/0 trim=0 clock=2240000000 size=65536 durable=3200000000 extents=[(0, 16)] df=4096/16/4080/1/16/65536/65536\n\
1 +262144 ok w=80 r=0 nw=80 nr=0 er=0 gc=0/0 trim=0 clock=15040000000 size=327680 durable=16000000000 extents=[(0, 16), (16, 64)] df=4096/80/4016/1/80/327680/327680\n\
2 +4096 ok w=81 r=0 nw=81 nr=0 er=0 gc=0/0 trim=0 clock=15680000000 size=331776 durable=16200000000 extents=[(0, 16), (16, 64), (80, 1)] df=4096/81/4015/1/81/331776/331776\n\
3 +131072 ok w=113 r=0 nw=113 nr=0 er=0 gc=0/0 trim=0 clock=21640000000 size=462848 durable=22600000000 extents=[(0, 16), (16, 64), (80, 1), (81, 32)] df=4096/113/3983/1/113/462848/462848\n\
bytes=0559f511a71ca5cf\n\
";
const ALIGNED_BG: &str = "\
0 +65536 ok w=16 r=0 nw=16 nr=0 er=0 gc=0/0 trim=0 clock=0 size=65536 durable=3200000000 extents=[(0, 16)] df=4096/16/4080/1/16/65536/65536\n\
1 +262144 ok w=80 r=0 nw=80 nr=0 er=0 gc=0/0 trim=0 clock=0 size=327680 durable=16000000000 extents=[(0, 16), (16, 64)] df=4096/80/4016/1/80/327680/327680\n\
2 +4096 ok w=81 r=0 nw=81 nr=0 er=0 gc=0/0 trim=0 clock=0 size=331776 durable=16200000000 extents=[(0, 16), (16, 64), (80, 1)] df=4096/81/4015/1/81/331776/331776\n\
3 +131072 ok w=113 r=0 nw=113 nr=0 er=0 gc=0/0 trim=0 clock=0 size=462848 durable=22600000000 extents=[(0, 16), (16, 64), (80, 1), (81, 32)] df=4096/113/3983/1/113/462848/462848\n\
bytes=0559f511a71ca5cf\n\
";
const UNALIGNED_TAIL_FG: &str = "\
0 +262144 ok w=64 r=0 nw=64 nr=0 er=0 gc=0/0 trim=0 clock=11840000000 size=262144 durable=12800000000 extents=[(0, 64)] df=4096/64/4032/1/64/262144/262144\n\
1 +262144 ok w=128 r=0 nw=128 nr=0 er=0 gc=0/0 trim=0 clock=24640000000 size=524288 durable=25600000000 extents=[(0, 64), (64, 64)] df=4096/128/3968/1/128/524288/524288\n\
2 +9001 ok w=131 r=0 nw=131 nr=0 er=0 gc=0/0 trim=0 clock=25280000000 size=533289 durable=26200000000 extents=[(0, 64), (64, 64), (128, 3)] df=4096/131/3965/1/131/533289/536576\n\
bytes=7c224568cd4167a8\n\
";
const UNALIGNED_TAIL_BG: &str = "\
0 +262144 ok w=64 r=0 nw=64 nr=0 er=0 gc=0/0 trim=0 clock=0 size=262144 durable=12800000000 extents=[(0, 64)] df=4096/64/4032/1/64/262144/262144\n\
1 +262144 ok w=128 r=0 nw=128 nr=0 er=0 gc=0/0 trim=0 clock=0 size=524288 durable=25600000000 extents=[(0, 64), (64, 64)] df=4096/128/3968/1/128/524288/524288\n\
2 +9001 ok w=131 r=0 nw=131 nr=0 er=0 gc=0/0 trim=0 clock=0 size=533289 durable=26200000000 extents=[(0, 64), (64, 64), (128, 3)] df=4096/131/3965/1/131/533289/536576\n\
bytes=7c224568cd4167a8\n\
";
const SUB_PAGE_FG: &str = "\
0 +100 ok w=1 r=0 nw=1 nr=0 er=0 gc=0/0 trim=0 clock=640000000 size=100 durable=200000000 extents=[(0, 1)] df=4096/1/4095/1/1/100/4096\n\
1 +200 ok w=2 r=1 nw=2 nr=1 er=0 gc=0/0 trim=0 clock=3629454545 size=300 durable=3189454545 extents=[(0, 1)] df=4096/1/4095/1/1/300/4096\n\
2 +3000 ok w=3 r=2 nw=3 nr=2 er=0 gc=0/0 trim=0 clock=6618909090 size=3300 durable=6178909090 extents=[(0, 1)] df=4096/1/4095/1/1/3300/4096\n\
3 +796 ok w=4 r=3 nw=4 nr=3 er=0 gc=0/0 trim=0 clock=9608363635 size=4096 durable=9168363635 extents=[(0, 1)] df=4096/1/4095/1/1/4096/4096\n\
4 +1 ok w=5 r=3 nw=5 nr=3 er=0 gc=0/0 trim=0 clock=10248363635 size=4097 durable=9808363635 extents=[(0, 1), (1, 1)] df=4096/2/4094/1/2/4097/8192\n\
5 +4096 ok w=7 r=4 nw=7 nr=4 er=0 gc=0/0 trim=0 clock=13877818180 size=8193 durable=13437818180 extents=[(0, 1), (1, 1), (2, 1)] df=4096/3/4093/1/3/8193/12288\n\
6 +5000 ok w=9 r=5 nw=9 nr=5 er=0 gc=0/0 trim=0 clock=17507272725 size=13193 durable=17067272725 extents=[(0, 1), (1, 1), (2, 1), (3, 1)] df=4096/4/4092/1/4/13193/16384\n\
7 +12288 ok w=13 r=6 nw=13 nr=6 er=0 gc=0/0 trim=0 clock=21136727270 size=25481 durable=21096727270 extents=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 3)] df=4096/7/4089/1/7/25481/28672\n\
bytes=19ef77e67ceb1c63\n\
";
const SUB_PAGE_BG: &str = "\
0 +100 ok w=1 r=0 nw=1 nr=0 er=0 gc=0/0 trim=0 clock=0 size=100 durable=200000000 extents=[(0, 1)] df=4096/1/4095/1/1/100/4096\n\
1 +200 ok w=2 r=1 nw=2 nr=1 er=0 gc=0/0 trim=0 clock=0 size=300 durable=445454545 extents=[(0, 1)] df=4096/1/4095/1/1/300/4096\n\
2 +3000 ok w=3 r=2 nw=3 nr=2 er=0 gc=0/0 trim=0 clock=0 size=3300 durable=690909090 extents=[(0, 1)] df=4096/1/4095/1/1/3300/4096\n\
3 +796 ok w=4 r=3 nw=4 nr=3 er=0 gc=0/0 trim=0 clock=0 size=4096 durable=936363635 extents=[(0, 1)] df=4096/1/4095/1/1/4096/4096\n\
4 +1 ok w=5 r=3 nw=5 nr=3 er=0 gc=0/0 trim=0 clock=0 size=4097 durable=1136363635 extents=[(0, 1), (1, 1)] df=4096/2/4094/1/2/4097/8192\n\
5 +4096 ok w=7 r=4 nw=7 nr=4 er=0 gc=0/0 trim=0 clock=0 size=8193 durable=1581818180 extents=[(0, 1), (1, 1), (2, 1)] df=4096/3/4093/1/3/8193/12288\n\
6 +5000 ok w=9 r=5 nw=9 nr=5 er=0 gc=0/0 trim=0 clock=0 size=13193 durable=2027272725 extents=[(0, 1), (1, 1), (2, 1), (3, 1)] df=4096/4/4092/1/4/13193/16384\n\
7 +12288 ok w=13 r=6 nw=13 nr=6 er=0 gc=0/0 trim=0 clock=0 size=25481 durable=2872727270 extents=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 3)] df=4096/7/4089/1/7/25481/28672\n\
bytes=19ef77e67ceb1c63\n\
";
const CROSSING_FG: &str = "\
0 +65536 ok w=4088 r=0 nw=4088 nr=0 er=0 gc=0/0 trim=0 clock=816640000000 size=65536 durable=817600000000 extents=[(4072, 16)] df=4096/4024/72/3/4072/16482304/16482304\n\
1 +66313 ok w=4105 r=0 nw=4105 nr=0 er=0 gc=0/0 trim=0 clock=820040000000 size=131849 durable=821000000000 extents=[(4072, 16), (4088, 8), (100, 9)] df=4096/4041/55/3/4072/16548617/16551936\n\
2 +32768 ok w=4114 r=1 nw=4114 nr=1 er=0 gc=0/0 trim=0 clock=823669454545 size=164617 durable=824629454545 extents=[(4072, 16), (4088, 8), (100, 9), (109, 8)] df=4096/4049/47/3/4072/16581385/16584704\n\
bytes=f0d97ecd53d5d810\n\
";
const CROSSING_BG: &str = "\
0 +65536 ok w=4088 r=0 nw=4088 nr=0 er=0 gc=0/0 trim=0 clock=813440000000 size=65536 durable=817600000000 extents=[(4072, 16)] df=4096/4024/72/3/4072/16482304/16482304\n\
1 +66313 ok w=4105 r=0 nw=4105 nr=0 er=0 gc=0/0 trim=0 clock=813440000000 size=131849 durable=821000000000 extents=[(4072, 16), (4088, 8), (100, 9)] df=4096/4041/55/3/4072/16548617/16551936\n\
2 +32768 ok w=4114 r=1 nw=4114 nr=1 er=0 gc=0/0 trim=0 clock=813440000000 size=164617 durable=822845454545 extents=[(4072, 16), (4088, 8), (100, 9), (109, 8)] df=4096/4049/47/3/4072/16581385/16584704\n\
bytes=f0d97ecd53d5d810\n\
";
const OUT_OF_SPACE_FG: &str = "\
0 +65536 ok w=4082 r=0 nw=4082 nr=0 er=0 gc=0/0 trim=0 clock=815440000000 size=65536 durable=816400000000 extents=[(4066, 16)] df=4096/4072/24/3/4072/16678912/16678912\n\
1 +65536 ok w=4098 r=0 nw=4098 nr=0 er=0 gc=0/0 trim=0 clock=818880000000 size=131072 durable=819600000000 extents=[(4066, 16), (4082, 14), (100, 2)] df=4096/4088/8/3/4088/16744448/16744448\n\
2 +65536 ERR w=4098 r=0 nw=4098 nr=0 er=0 gc=0/0 trim=0 clock=818880000000 size=131072 durable=819600000000 extents=[(4066, 16), (4082, 14), (100, 2)] df=4096/4088/8/3/4088/16744448/16744448\n\
3 +4096 ok w=4099 r=0 nw=4099 nr=0 er=0 gc=0/0 trim=0 clock=819520000000 size=135168 durable=819800000000 extents=[(4066, 16), (4082, 14), (100, 2), (102, 1)] df=4096/4089/7/3/4089/16748544/16748544\n\
bytes=e27a3ba75942f0bf\n\
";
const OUT_OF_SPACE_BG: &str = "\
0 +65536 ok w=4082 r=0 nw=4082 nr=0 er=0 gc=0/0 trim=0 clock=812240000000 size=65536 durable=816400000000 extents=[(4066, 16)] df=4096/4072/24/3/4072/16678912/16678912\n\
1 +65536 ok w=4098 r=0 nw=4098 nr=0 er=0 gc=0/0 trim=0 clock=812240000000 size=131072 durable=819600000000 extents=[(4066, 16), (4082, 14), (100, 2)] df=4096/4088/8/3/4088/16744448/16744448\n\
2 +65536 ERR w=4098 r=0 nw=4098 nr=0 er=0 gc=0/0 trim=0 clock=812240000000 size=131072 durable=819600000000 extents=[(4066, 16), (4082, 14), (100, 2)] df=4096/4088/8/3/4088/16744448/16744448\n\
3 +4096 ok w=4099 r=0 nw=4099 nr=0 er=0 gc=0/0 trim=0 clock=812240000000 size=135168 durable=819800000000 extents=[(4066, 16), (4082, 14), (100, 2), (102, 1)] df=4096/4089/7/3/4089/16748544/16748544\n\
bytes=e27a3ba75942f0bf\n\
";

#[test]
fn aligned_chunks() {
    assert_both(&ALIGNED, true, ALIGNED_FG);
    assert_both(&ALIGNED, false, ALIGNED_BG);
}

#[test]
fn unaligned_tail() {
    assert_both(&UNALIGNED_TAIL, true, UNALIGNED_TAIL_FG);
    assert_both(&UNALIGNED_TAIL, false, UNALIGNED_TAIL_BG);
}

#[test]
fn sub_page_chunks() {
    assert_both(&SUB_PAGE, true, SUB_PAGE_FG);
    assert_both(&SUB_PAGE, false, SUB_PAGE_BG);
}

#[test]
fn chunk_crossing_an_extent_boundary() {
    assert_both(&CROSSING, true, CROSSING_FG);
    assert_both(&CROSSING, false, CROSSING_BG);
}

#[test]
fn out_of_space_on_the_third_chunk() {
    assert_both(&OUT_OF_SPACE, true, OUT_OF_SPACE_FG);
    assert_both(&OUT_OF_SPACE, false, OUT_OF_SPACE_BG);
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
