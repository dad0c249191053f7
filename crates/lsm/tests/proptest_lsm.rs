//! Property-based tests of the LSM's table format: the SSTable builder
//! and reader round-trip arbitrary entries. The engine's model check
//! runs over every registered engine (`tests/proptest_engines.rs` at the
//! workspace root).

use proptest::prelude::*;

use ptsbench_lsm::iter::Merge;
use ptsbench_lsm::sstable::{SstIter, SstableBuilder, SstableReader};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{Vfs, VfsOptions};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SSTable build + read round-trips arbitrary sorted entries,
    /// point lookups and iterators included.
    #[test]
    fn sstable_round_trips(
        entries in proptest::collection::btree_map(
            proptest::collection::vec(1u8..=255, 1..24),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..300)),
            1..150,
        )
    ) {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
        let mut b = SstableBuilder::create(vfs.clone(), "t", 1024, 10).expect("create");
        for (k, v) in &entries {
            b.add(k, v.as_deref()).expect("add");
        }
        let meta = b.finish().expect("finish");
        prop_assert_eq!(meta.entries, entries.len() as u64);

        let reader = SstableReader::open(vfs, "t", true, None).expect("open");
        // Point lookups for every key.
        for (k, v) in &entries {
            prop_assert_eq!(reader.get(k).expect("get"), Some(v.clone()));
        }
        // Full scan in order (entries are ranges of the scan window).
        let owned = |scan: SstIter<'_>| {
            let (mut scan, mut out) = (Merge::new(vec![scan]), Vec::new());
            while let Some(e) = scan.next_entry() {
                out.push((e.key.to_vec(), e.value.map(<[u8]>::to_vec)));
            }
            out
        };
        let scanned = owned(reader.iter());
        let expect: Vec<_> = entries.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expect);
        // Seeked scan from an arbitrary existing key.
        if let Some((mid, _)) = entries.iter().nth(entries.len() / 2) {
            let from = owned(reader.iter_from(mid));
            let expect_from: Vec<_> =
                entries.range(mid.clone()..).map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(from, expect_from);
        }
    }
}
