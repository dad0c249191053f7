//! Property-based tests of the filesystem: random create / write /
//! append / truncate / delete / rename sequences agree with a
//! name→bytes model — with owned reads and with shared reads held
//! across every later mutation — and the extent allocator never leaks
//! or overlaps, and places every extent where next-fit says.

use std::collections::HashMap;

use proptest::prelude::*;

use ptsbench_ssd::{DeviceConfig, DeviceProfile, LpnRange, Ssd};
use ptsbench_vfs::{Extent, ExtentAllocator, FileSlice, FsStats, Vfs, VfsError, VfsOptions};

#[derive(Debug, Clone)]
enum FsOp {
    Create(u8),
    WriteAt(u8, u16, u16),
    Append(u8, u16),
    Truncate(u8, u16),
    Delete(u8),
    Rename(u8, u8),
    Read(u8, u16, u16),
}

fn fs_op() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        2 => (0..6u8).prop_map(FsOp::Create),
        4 => (0..6u8, 0..20_000u16, 1..9_000u16).prop_map(|(f, o, l)| FsOp::WriteAt(f, o, l)),
        3 => (0..6u8, 1..9_000u16).prop_map(|(f, l)| FsOp::Append(f, l)),
        1 => (0..6u8, 0..20_000u16).prop_map(|(f, l)| FsOp::Truncate(f, l)),
        1 => (0..6u8).prop_map(FsOp::Delete),
        1 => (0..6u8, 0..6u8).prop_map(|(a, b)| FsOp::Rename(a, b)),
        3 => (0..6u8, 0..20_000u16, 1..9_000u16).prop_map(|(f, o, l)| FsOp::Read(f, o, l)),
    ]
}

fn name(i: u8) -> String {
    format!("file-{i}")
}

fn pattern(seed: u16, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seed as usize + i) as u8).collect()
}

/// What a run leaves behind that the flavour of its reads must not
/// move: SMART pages read and written, the virtual clock, the `df` view.
type Footprint = (u64, u64, u64, FsStats);

/// Applies `ops` to a fresh filesystem and a name→bytes model, checking
/// one against the other at every step. With `shared`, reads go through
/// [`Vfs::read_shared`] and every slice is *kept*: whatever happens to
/// its file afterwards — overwritten, grown, truncated, deleted,
/// renamed — it must go on showing the bytes it was read with.
fn run_against_model(ops: &[FsOp], shared: bool) -> Result<Footprint, TestCaseError> {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
    let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    let mut model: HashMap<String, Vec<u8>> = HashMap::new();
    let mut held: Vec<(FileSlice, Vec<u8>)> = Vec::new();
    for op in ops {
        match op {
            FsOp::Create(f) => {
                let n = name(*f);
                let result = vfs.create(&n);
                if let std::collections::hash_map::Entry::Vacant(e) = model.entry(n) {
                    prop_assert!(result.is_ok());
                    e.insert(Vec::new());
                } else {
                    prop_assert!(matches!(result, Err(VfsError::AlreadyExists(_))));
                }
            }
            FsOp::WriteAt(f, offset, len) => {
                let n = name(*f);
                let Ok(id) = vfs.open(&n) else {
                    prop_assert!(!model.contains_key(&n));
                    continue;
                };
                let data = pattern(*offset ^ *len, *len as usize);
                let offset = *offset as u64;
                let result = vfs.write_at(id, offset, &data);
                let m = model.get_mut(&n).expect("model has file");
                if offset > m.len() as u64 {
                    prop_assert!(matches!(result, Err(VfsError::InvalidArgument(_))));
                } else {
                    prop_assert!(result.is_ok(), "write failed: {:?}", result);
                    let end = offset as usize + data.len();
                    if end > m.len() {
                        m.resize(end, 0);
                    }
                    m[offset as usize..end].copy_from_slice(&data);
                }
            }
            FsOp::Append(f, len) => {
                let n = name(*f);
                let Ok(id) = vfs.open(&n) else { continue };
                let data = pattern(*len, *len as usize);
                vfs.append(id, &data).expect("append");
                model
                    .get_mut(&n)
                    .expect("model has file")
                    .extend_from_slice(&data);
            }
            FsOp::Truncate(f, len) => {
                let n = name(*f);
                let Ok(id) = vfs.open(&n) else { continue };
                let m = model.get_mut(&n).expect("model has file");
                let result = vfs.truncate(id, *len as u64);
                if (*len as usize) > m.len() {
                    prop_assert!(result.is_err());
                } else {
                    prop_assert!(result.is_ok());
                    m.truncate(*len as usize);
                }
            }
            FsOp::Delete(f) => {
                let n = name(*f);
                let result = vfs.delete(&n);
                prop_assert_eq!(result.is_ok(), model.remove(&n).is_some());
            }
            FsOp::Rename(a, b) => {
                let (from, to) = (name(*a), name(*b));
                let result = vfs.rename(&from, &to);
                if model.contains_key(&from) && !model.contains_key(&to) && from != to {
                    prop_assert!(result.is_ok());
                    let v = model.remove(&from).expect("source exists");
                    model.insert(to, v);
                } else {
                    prop_assert!(result.is_err());
                }
            }
            FsOp::Read(f, offset, len) => {
                let n = name(*f);
                let Ok(id) = vfs.open(&n) else { continue };
                let m = &model[&n];
                let start = (*offset as usize).min(m.len());
                let end = (start + *len as usize).min(m.len());
                if shared {
                    let got = vfs
                        .read_shared(id, *offset as u64, *len as usize)
                        .expect("read");
                    prop_assert_eq!(&*got, &m[start..end], "read mismatch on {}", n);
                    held.push((got, m[start..end].to_vec()));
                } else {
                    let got = vfs
                        .read_at(id, *offset as u64, *len as usize)
                        .expect("read");
                    prop_assert_eq!(&got, &m[start..end], "read mismatch on {}", n);
                }
            }
        }
        vfs.check_invariants();
        for (slice, bytes) in &held {
            prop_assert_eq!(&**slice, &bytes[..], "a held slice changed under {:?}", op);
        }
    }
    // Final byte-for-byte audit.
    for (n, bytes) in &model {
        let id = vfs.open(n).expect("file exists");
        prop_assert_eq!(vfs.size(id).expect("size") as usize, bytes.len());
        let got = vfs.read_at(id, 0, bytes.len()).expect("read");
        prop_assert_eq!(&got, bytes, "content mismatch on {}", n);
    }
    prop_assert_eq!(vfs.list().len(), model.len());
    let smart = vfs.ssd().lock().smart();
    Ok((
        smart.host_pages_read,
        smart.host_pages_written,
        vfs.clock().now(),
        vfs.stats(),
    ))
}

/// Next-fit over a page bitmap: the extents an allocation of `pages`
/// must yield, or `None` when fewer pages are free. Each extent starts
/// at the roving cursor when that page is free, else at the first free
/// page after it, else at the lowest free page; it runs to the end of
/// its free run or of the request, and the cursor moves past it.
struct NextFitModel {
    free: Vec<bool>,
    cursor: usize,
}

impl NextFitModel {
    fn alloc(&mut self, pages: u64) -> Option<Vec<Extent>> {
        let mut remaining = pages as usize;
        if remaining > self.free.iter().filter(|&&f| f).count() {
            return None;
        }
        let mut out = Vec::new();
        while remaining > 0 {
            let start = (self.cursor..self.free.len())
                .find(|&p| self.free[p])
                .or_else(|| self.free.iter().position(|&f| f))
                .expect("a free page is left");
            let mut end = start;
            while end < self.free.len() && self.free[end] && end - start < remaining {
                self.free[end] = false;
                end += 1;
            }
            out.push(Extent {
                start: start as u64,
                pages: (end - start) as u64,
            });
            remaining -= end - start;
            self.cursor = end;
        }
        Some(out)
    }

    fn release(&mut self, extent: Extent) {
        for p in extent.start..extent.end() {
            self.free[p as usize] = true;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The filesystem agrees byte-for-byte with a HashMap model, a held
    /// shared read keeps its bytes while fresh reads see the new ones,
    /// and sharing instead of copying moves no device traffic, no
    /// virtual time and no usage figure.
    #[test]
    fn vfs_matches_model(ops in proptest::collection::vec(fs_op(), 1..120)) {
        let owned = run_against_model(&ops, false)?;
        let shared = run_against_model(&ops, true)?;
        prop_assert_eq!(owned, shared);
    }

    /// The allocator hands out non-overlapping extents, accounts free
    /// pages exactly and places every extent where a page-bitmap
    /// next-fit model does, under arbitrary alloc/release interleavings.
    #[test]
    fn allocator_never_overlaps(
        steps in proptest::collection::vec((1u64..64, any::<bool>()), 1..200),
    ) {
        let total = 2048u64;
        let mut alloc = ExtentAllocator::new(LpnRange::new(0, total));
        let mut model = NextFitModel { free: vec![true; total as usize], cursor: 0 };
        let mut live: Vec<Extent> = Vec::new();
        let mut live_pages = 0u64;
        for (i, &(pages, release_first)) in steps.iter().enumerate() {
            if release_first && !live.is_empty() {
                let e = live.swap_remove(i % live.len());
                live_pages -= e.pages;
                alloc.release(e);
                model.release(e);
            }
            let expected = model.alloc(pages);
            let got = alloc.alloc(pages).ok();
            prop_assert_eq!(&got, &expected, "placement of {} pages (step {})", pages, i);
            if let Some(extents) = got {
                live_pages += pages;
                live.extend(extents);
            }
            alloc.check_invariants();
            prop_assert_eq!(alloc.used_pages(), live_pages, "page accounting drifted");
            // No two live extents overlap.
            let mut sorted = live.clone();
            sorted.sort_by_key(|e| e.start);
            for w in sorted.windows(2) {
                prop_assert!(w[0].end() <= w[1].start, "extents overlap");
            }
        }
    }
}
