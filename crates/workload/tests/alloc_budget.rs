//! A client generator costs what its client touches, not its key space:
//! building one over a million Zipfian keys allocates a key buffer and a
//! value buffer, and the serving fan-in's 4 096 clients over 8 355 keys
//! allocate a few kilobytes each for the keys they update. A version
//! table sized by the key space — 4 bytes per key per client — would
//! read the same in every virtual metric and cost the fan-in over
//! 130 MB. Counted, not timed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ptsbench_workload::{split_seed, KeyDistribution, OpGenerator, WorkloadSpec};

/// Bytes requested from the allocator so far. A regrown allocation
/// counts in full: it may have been moved.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const ZIPF: KeyDistribution = KeyDistribution::Zipfian { theta: 0.99 };

/// Bytes allocated while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let out = f();
    (out, REQUESTED.load(Ordering::Relaxed) - before)
}

// One test: the counter is process-wide.
#[test]
fn generators_allocate_for_the_keys_they_update_not_the_key_space() {
    let million = WorkloadSpec {
        num_keys: 1_000_000,
        distribution: ZIPF,
        ..WorkloadSpec::default()
    };
    let (generator, bytes) = allocated_by(|| OpGenerator::new(million));
    drop(generator);
    assert!(
        bytes < 16 << 10,
        "one generator over a million keys allocated {bytes} bytes"
    );

    // The serving fan-in: 4 096 routed clients, each over the whole
    // 8 355-key space with its own seed, 100 requests each. Values are
    // 100 bytes rather than the fan-in's 4 000 so that the budget is
    // spent on version tables, not on the value buffer every client
    // needs whatever its table looks like.
    let fanin = WorkloadSpec {
        num_keys: 8_355,
        value_size: 100,
        read_fraction: 0.5,
        distribution: ZIPF,
        ..WorkloadSpec::default()
    };
    let (clients, bytes) = allocated_by(|| {
        let mut clients: Vec<OpGenerator> = (0..4096)
            .map(|c| {
                OpGenerator::new(WorkloadSpec {
                    seed: split_seed(fanin.seed, c),
                    ..fanin.clone()
                })
            })
            .collect();
        for client in &mut clients {
            for _ in 0..100 {
                client.next_op();
            }
        }
        clients
    });
    assert_eq!(clients.len(), 4096);
    assert!(
        bytes < 16 << 20,
        "4 096 fan-in clients allocated {bytes} bytes"
    );
}
