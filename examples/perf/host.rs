//! The benchmark process observing itself: CPU time and peak RSS from
//! `/proc`, a counting global allocator, and the sample statistics every
//! host-time number is reported with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations while armed; forwards to the system allocator.
/// Armed only around the traced run's allocation pass, so the timed
/// rounds pay one relaxed load per allocation and nothing else.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// (relaxed atomics that publish no other data) and never affect the
// returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` allocation and
        // `new_size` is the caller's, all passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Arms or disarms allocation counting (all threads).
pub fn arm_alloc_counting(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far while armed.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// User + system CPU seconds of this process, all threads, including
/// joined ones (`/proc/self/stat` fields 14 and 15, in USER_HZ = 100
/// ticks; `schedstat` would cover the main thread only).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3, so fields 14/15 are at indices 11/12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// 1-minute load average, if `/proc/loadavg` is readable.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `q`-quantile of `len` sorted samples read through `at`, with
/// linear interpolation between ranks (0 for an empty sample).
fn quantile_by(len: usize, at: impl Fn(usize) -> f64, q: f64) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let rank = q * (len - 1) as f64;
    let (lo, hi) = (at(rank.floor() as usize), at(rank.ceil() as usize));
    lo + (hi - lo) * rank.fract()
}

/// Sorted-sample quantile with linear interpolation between ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    quantile_by(sorted.len(), |i| sorted[i], q)
}

/// Min / median / max of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 0.5),
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            n: sorted.len(),
        }
    }

    /// A value that is exact by construction (virtual-clock metrics,
    /// counts): one sample, no spread.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }
}

/// Host-nanosecond samples of one timed call site.
#[derive(Debug, Default, Clone)]
pub struct NsSamples(Vec<u64>);

impl NsSamples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile in ns (0 when no sample was taken: the metric
    /// does not apply to this workload).
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.0.sort_unstable();
        quantile_by(self.0.len(), |i| self.0[i] as f64, q)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.0.len() as f64
        }
    }
}
