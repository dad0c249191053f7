//! Property-based tests of the filesystem: random create / write /
//! append / truncate / delete / rename sequences agree with a
//! name→bytes model — with owned reads and with shared reads held
//! across every later mutation — a paged file and a one-piece file
//! given the same writes and reads end byte for byte and counter for
//! counter alike, and the extent allocator never leaks or overlaps, and
//! places every extent where next-fit says.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use ptsbench_ssd::{DeviceConfig, DeviceProfile, LpnRange, SmartCounters, Ssd};
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

/// The page size of the paged file: two device pages.
const PIECE: usize = 8192;

/// One step of the paged-versus-flat property. Offsets are taken modulo
/// the file's size plus one, so that writes leave no hole.
#[derive(Debug, Clone)]
enum PagedOp {
    /// A whole page at page `page` (at most one past the last), copied
    /// ([`Vfs::write_at`]) or shared ([`Vfs::write_page`]), foreground
    /// or background.
    WritePage {
        page: u8,
        seed: u16,
        shared: bool,
        bg: bool,
    },
    /// A page the caller keeps, with `len` bytes of it at `at` patched,
    /// written back at page `page` (at most one past the last),
    /// foreground or background: on the paged file through
    /// [`Vfs::rewrite_page`], on the one-piece file as the patched bytes
    /// through [`Vfs::write_at`]. The page is the one the last rewrite
    /// of that offset left — current, or stale if a write replaced it
    /// since — or, with `fresh` or none kept, the file's page read
    /// whole (a stale pattern where the file has no whole page there).
    RewritePage {
        page: u8,
        at: u16,
        len: u16,
        seed: u16,
        fresh: bool,
        bg: bool,
    },
    /// `len` bytes at `offset`, foreground or background: partial,
    /// unaligned, extending.
    Write {
        offset: u16,
        len: u16,
        bg: bool,
    },
    /// `len` bytes at the end of the file.
    Append(u16),
    /// A shared read, held to the end: inside one page or across pages.
    Read {
        offset: u16,
        len: u16,
    },
    Fsync,
    /// Delete the file and create it again.
    Recreate,
}

fn paged_op() -> impl Strategy<Value = PagedOp> {
    prop_oneof![
        4 => (0..8u8, any::<u16>(), any::<bool>(), any::<bool>())
            .prop_map(|(page, seed, shared, bg)| PagedOp::WritePage { page, seed, shared, bg }),
        4 => (0..8u8, 0..PIECE as u16, 1..600u16, any::<u16>(), any::<bool>(), any::<bool>())
            .prop_map(|(page, at, len, seed, fresh, bg)| PagedOp::RewritePage {
                page, at, len, seed, fresh, bg,
            }),
        3 => (any::<u16>(), 1..12_000u16, any::<bool>())
            .prop_map(|(offset, len, bg)| PagedOp::Write { offset, len, bg }),
        1 => (1..9_000u16).prop_map(PagedOp::Append),
        3 => (any::<u16>(), prop_oneof![1..2_000u16, 1..20_000u16])
            .prop_map(|(offset, len)| PagedOp::Read { offset, len }),
        1 => Just(PagedOp::Fsync),
        1 => Just(PagedOp::Recreate),
    ]
}

/// Everything a write or read may move: SMART, the virtual clock, the
/// `df` view, the file's extents, its durability horizon and its bytes.
type Outcome = (SmartCounters, u64, FsStats, Vec<Extent>, u64, Vec<u8>);

/// Applies `ops` to one file — paged or one piece — on a fresh
/// filesystem, checking it against a byte model at every step and
/// every held read against the bytes it was read with.
fn run_paged(ops: &[PagedOp], paged: bool) -> Result<Outcome, TestCaseError> {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
    let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    let create = |vfs: &Vfs| {
        if paged {
            vfs.create_paged("f", PIECE)
        } else {
            vfs.create("f")
        }
    };
    let mut id = create(&vfs).expect("create");
    let mut model: Vec<u8> = Vec::new();
    let mut held: Vec<(FileSlice, Vec<u8>)> = Vec::new();
    // The page each offset's last rewrite left, as a cache keeps it.
    let mut kept: HashMap<usize, Arc<Vec<u8>>> = HashMap::new();
    for op in ops {
        let size = model.len();
        match *op {
            PagedOp::WritePage {
                page,
                seed,
                shared,
                bg,
            } => {
                let offset = page as usize % (size / PIECE + 1) * PIECE;
                let bytes = pattern(seed, PIECE);
                let result = match (shared, bg) {
                    (false, false) => vfs.write_at(id, offset as u64, &bytes),
                    (false, true) => vfs.write_at_bg(id, offset as u64, &bytes),
                    (true, false) => vfs.write_page(id, offset as u64, &Arc::new(bytes.clone())),
                    (true, true) => vfs.write_page_bg(id, offset as u64, &Arc::new(bytes.clone())),
                };
                prop_assert!(result.is_ok(), "page write failed: {:?}", result);
                model.resize(size.max(offset + PIECE), 0);
                model[offset..offset + PIECE].copy_from_slice(&bytes);
            }
            PagedOp::RewritePage {
                page,
                at,
                len,
                seed,
                fresh,
                bg,
            } => {
                let offset = page as usize % (size / PIECE + 1) * PIECE;
                let mut base = match kept.remove(&offset) {
                    Some(base) if !fresh => base,
                    _ if offset + PIECE <= size => {
                        let read = vfs.read_shared(id, offset as u64, PIECE).expect("read");
                        read.into_shared()
                            .unwrap_or_else(|part| Arc::new(part.to_vec()))
                    }
                    _ => Arc::new(pattern(seed ^ 0xa5a5, PIECE)),
                };
                let (at, len) = (at as usize, (len as usize).min(PIECE - at as usize));
                let value = pattern(seed, len);
                let patch = |page: &mut [u8]| page[at..at + len].copy_from_slice(&value);
                let mut want = base.to_vec();
                patch(&mut want);
                let result = match (paged, bg) {
                    (true, false) => vfs.rewrite_page(id, offset as u64, &mut base, patch),
                    (true, true) => vfs.rewrite_page_bg(id, offset as u64, &mut base, patch),
                    (false, false) => {
                        base = Arc::new(want.clone());
                        vfs.write_at(id, offset as u64, &want)
                    }
                    (false, true) => {
                        base = Arc::new(want.clone());
                        vfs.write_at_bg(id, offset as u64, &want)
                    }
                };
                prop_assert!(result.is_ok(), "page rewrite failed: {:?}", result);
                prop_assert_eq!(&base[..], &want[..], "the page left to the caller");
                // Read on both files, so that both are charged for it.
                let on_file = vfs.read_shared(id, offset as u64, PIECE).expect("read");
                prop_assert!(
                    !paged || on_file.shares_buffer(&FileSlice::from(Arc::clone(&base))),
                    "the caller is left the file's page"
                );
                kept.insert(offset, base);
                model.resize(size.max(offset + PIECE), 0);
                model[offset..offset + PIECE].copy_from_slice(&want);
            }
            PagedOp::Write { offset, len, bg } => {
                let offset = offset as usize % (size + 1);
                let bytes = pattern(len, len as usize);
                let result = if bg {
                    vfs.write_at_bg(id, offset as u64, &bytes)
                } else {
                    vfs.write_at(id, offset as u64, &bytes)
                };
                prop_assert!(result.is_ok(), "write failed: {:?}", result);
                model.resize(size.max(offset + bytes.len()), 0);
                model[offset..offset + bytes.len()].copy_from_slice(&bytes);
            }
            PagedOp::Append(len) => {
                let bytes = pattern(len ^ 0x5a5a, len as usize);
                vfs.append(id, &bytes).expect("append");
                model.extend_from_slice(&bytes);
            }
            PagedOp::Read { offset, len } => {
                let offset = offset as usize % (size + 1);
                let got = vfs
                    .read_shared(id, offset as u64, len as usize)
                    .expect("read");
                let want = &model[offset..(offset + len as usize).min(size)];
                prop_assert_eq!(&*got, want, "read mismatch");
                held.push((got, want.to_vec()));
            }
            PagedOp::Fsync => vfs.fsync(id).expect("fsync"),
            PagedOp::Recreate => {
                vfs.delete("f").expect("delete");
                id = create(&vfs).expect("create");
                model.clear();
            }
        }
        vfs.check_invariants();
        for (slice, bytes) in &held {
            prop_assert_eq!(&**slice, &bytes[..], "a held slice changed under {:?}", op);
        }
    }
    let bytes = vfs.read_at(id, 0, model.len() + 1).expect("read");
    prop_assert_eq!(&bytes, &model, "content mismatch");
    if paged {
        let refused = |r: Result<(), VfsError>| matches!(r, Err(VfsError::InvalidArgument(_)));
        prop_assert!(
            refused(vfs.appender(id, 0).map(drop)),
            "a paged file has no one buffer"
        );
        prop_assert!(refused(vfs.truncate(id, 0)), "nor can it be truncated");
    }
    let smart = vfs.ssd().lock().smart();
    Ok((
        smart,
        vfs.clock().now(),
        vfs.stats(),
        vfs.extents(id).expect("extents"),
        vfs.durable_at(id).expect("durable_at"),
        bytes,
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

    /// A paged file shares whole pages and copies everything else; a
    /// one-piece file copies everything. Given the same whole-page
    /// writes (copied and shared, foreground and background), partial
    /// and extending writes, appends, reads inside one page and across
    /// pages, fsyncs and deletes, the two end alike in every counter,
    /// extent and byte, and every read held along the way keeps its
    /// bytes.
    #[test]
    fn paged_file_matches_one_piece_file(ops in proptest::collection::vec(paged_op(), 1..80)) {
        let paged = run_paged(&ops, true)?;
        let flat = run_paged(&ops, false)?;
        prop_assert_eq!(paged, flat);
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
