//! # ptsbench-hashlog — a KVell-style log-structured hash KV engine
//!
//! The third engine of the workspace, and the proof that the
//! `ptsbench-core` engine API is open: a design from a *different
//! family* than the two built-in tree structures, wired into the
//! methodology purely through [`register`] — no change to the runner or
//! any pitfall module.
//!
//! The architecture follows KVell (SOSP'19), the system the paper's
//! §4.1 cites when discussing CPU-bound vs device-bound engines:
//!
//! * **Unsorted persistent layout** — values live in append-only log
//!   segments in arrival order; nothing on disk is sorted, so there is
//!   no compaction-style rewriting to keep order (writes are cheap and
//!   sequential, and the FTL sees a single hot append stream).
//! * **In-memory index** — a `BTreeMap` from key to (segment, offset)
//!   resolves every lookup with at most one device read. KVell keeps
//!   its index in RAM and accepts the memory cost; so do we.
//! * **Fast random puts/gets, expensive scans** — a range scan walks
//!   the index in order but pays one *random* device read per entry,
//!   the exact trade-off KVell documents for scan-heavy workloads.
//! * **Garbage collection by segment rewrite** — overwritten and
//!   deleted records make a segment's garbage ratio grow; the engine
//!   rewrites the victim's live records into the active segment and
//!   deletes the file (space reclamation without global sorting).
//! * **Records are written once** — every `put` / `delete` /
//!   `apply_batch` group and every GC relocation is encoded straight
//!   into the active segment's own buffer (the segment file's, checked
//!   out through `Vfs::appender`, or under compression the pending
//!   segment) and committed with one append. A fresh segment's buffer
//!   is reserved once, and a collected victim's buffer becomes the next
//!   segment's, so a steady-state log allocates no segment memory.
//!
//! Durability: records carry a global sequence number, and
//! [`HashLogDb::recover`] replays every segment applying records in
//! sequence order, so the newest version of each key wins regardless of
//! GC-induced relocation.
//!
//! Errors: every fallible call returns [`ptsbench_vfs::StoreError`]
//! (keys and values carry four-byte lengths, so no key is too long), and
//! the engine's [`PtsEngine`] adapter maps it with `PtsError::store`, so
//! running out of space is the uniform `PtsError::OutOfSpace`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod db;
mod options;
mod record;

use db::HashLogEngine;
pub use db::{HashLogDb, HashLogStats, IndexScan};
pub use options::HashLogOptions;

use ptsbench_core::engine::PtsError;
use ptsbench_core::registry::{
    EngineDescriptor, EngineKind, EngineRegistry, EngineTuning, Lifecycle,
};
use ptsbench_core::PtsEngine;
use ptsbench_vfs::{StoreError, Vfs};

/// Registry label of this engine.
pub(crate) const LABEL: &str = "hashlog";

/// Convenience result alias over the shared storage error.
pub type Result<T> = std::result::Result<T, StoreError>;

/// A storage error of this engine as a [`PtsError`].
pub(crate) fn store_error(e: StoreError) -> PtsError {
    PtsError::store(LABEL, e)
}

/// Registers the hash-log engine with the global engine registry and
/// returns its handle. Idempotent; call it once before resolving the
/// engine by label.
pub fn register() -> EngineKind {
    EngineRegistry::register(EngineDescriptor {
        name: "Hash log (KVell-like)",
        label: LABEL,
        // KVell's shared-nothing design is far less CPU- and
        // synchronization-bound than either tree (§4.1): no memtable
        // sorting, no page latching — an index update plus one append.
        default_cpu_cost_ns: 5_000,
        build: build_hashlog,
    })
}

fn build_hashlog(
    vfs: Vfs,
    tuning: &EngineTuning,
    lifecycle: Lifecycle,
) -> std::result::Result<Box<dyn PtsEngine>, PtsError> {
    let opts = options_for(tuning);
    let db = match lifecycle {
        Lifecycle::Open => HashLogDb::open(vfs, opts),
        Lifecycle::Recover => HashLogDb::recover(vfs, opts),
    }
    .map_err(store_error)?;
    Ok(Box::new(HashLogEngine(db)))
}

/// The hash log's options on a drive: structure scaled to it, tuning as
/// given.
fn options_for(tuning: &EngineTuning) -> HashLogOptions {
    HashLogOptions {
        tuning: *tuning,
        ..HashLogOptions::scaled_to_partition(tuning.device_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_core::runner::RunConfig;

    /// The hash log embeds the run's tuning unchanged, every knob set
    /// away from its default.
    #[test]
    fn run_tuning_reaches_the_options_unchanged() {
        let tuning = RunConfig {
            queue_depth: 8,
            cache_bytes: 8 << 20,
            compression_level: 3,
            trace: true,
            maint: ptsbench_maint::MaintConfig::enabled(),
            ..RunConfig::default()
        }
        .tuning();
        let opts = options_for(&tuning);
        assert_eq!(opts.tuning, tuning);
        assert_eq!(opts.compression().level(), 3);
    }
}
