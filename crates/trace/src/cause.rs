//! Cause tags and per-cause device-traffic accounting.
//!
//! A [`Cause`] names the logical operation class on whose behalf the
//! stack is currently touching the device. Layers push/pop the current
//! cause on the device's probe (foreground ops at the experiment
//! driver, inline maintenance inside the engines), and the device
//! charges every host byte and erase to whatever cause is current —
//! so [`CauseStats`] totals close exactly against the SMART host byte
//! counters.

/// Provenance of device traffic: the logical operation class that
/// caused it.
///
/// `Other` is the fallback when no cause scope is active (bare device
/// use outside the experiment drivers); with the full stack traced it
/// stays at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// Foreground point lookup.
    Get,
    /// Foreground insert/overwrite (includes deletes).
    Put,
    /// Foreground range scan.
    Scan,
    /// Bulk-load phase batches.
    BulkLoad,
    /// LSM inline maintenance: memtable flush and level compaction.
    Compaction,
    /// Hashlog segment garbage collection (live-record rewrite).
    SegmentGc,
    /// Write-ahead/journal appends and syncs.
    Wal,
    /// B+Tree checkpoint (dirty-page write-back + journal truncate).
    Checkpoint,
    /// No cause scope active.
    Other,
}

impl Cause {
    /// Number of cause variants (the `CauseStats` array size).
    pub(crate) const COUNT: usize = 9;

    /// Every cause, in rendering order.
    pub const ALL: [Cause; Cause::COUNT] = [
        Cause::Get,
        Cause::Put,
        Cause::Scan,
        Cause::BulkLoad,
        Cause::Compaction,
        Cause::SegmentGc,
        Cause::Wal,
        Cause::Checkpoint,
        Cause::Other,
    ];

    /// Short stable label (report rows, Chrome trace categories).
    pub fn label(self) -> &'static str {
        match self {
            Cause::Get => "get",
            Cause::Put => "put",
            Cause::Scan => "scan",
            Cause::BulkLoad => "load",
            Cause::Compaction => "compaction",
            Cause::SegmentGc => "gc",
            Cause::Wal => "wal",
            Cause::Checkpoint => "checkpoint",
            Cause::Other => "other",
        }
    }

    fn index(self) -> usize {
        Cause::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every cause is in ALL")
    }
}

impl std::fmt::Display for Cause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Device traffic charged to one cause.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CauseCounters {
    /// Host bytes written to the device under this cause.
    pub bytes_written: u64,
    /// Host bytes read from the device under this cause.
    pub bytes_read: u64,
    /// Erase-block erases the FTL performed while serving writes under
    /// this cause (GC dragged in by the write path).
    pub erases: u64,
}

impl CauseCounters {
    fn is_zero(&self) -> bool {
        self.bytes_written == 0 && self.bytes_read == 0 && self.erases == 0
    }

    fn add(&mut self, other: &CauseCounters) {
        self.bytes_written = self.bytes_written.saturating_add(other.bytes_written);
        self.bytes_read = self.bytes_read.saturating_add(other.bytes_read);
        self.erases = self.erases.saturating_add(other.erases);
    }
}

/// Per-cause device-traffic counters.
///
/// Every host byte the device serves is charged to exactly one cause,
/// so [`CauseStats::total_bytes_written`] equals the SMART
/// `host_pages_written * page_size` over the same window — the exact
/// closure `fig_anatomy` asserts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CauseStats {
    counters: [CauseCounters; Cause::COUNT],
}

impl CauseStats {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `bytes` of host writes to `cause`.
    pub fn note_write(&mut self, cause: Cause, bytes: u64) {
        self.counters[cause.index()].bytes_written += bytes;
    }

    /// Charges `bytes` of host reads to `cause`.
    pub fn note_read(&mut self, cause: Cause, bytes: u64) {
        self.counters[cause.index()].bytes_read += bytes;
    }

    /// Charges `erases` block erases to `cause`.
    pub fn note_erases(&mut self, cause: Cause, erases: u64) {
        self.counters[cause.index()].erases += erases;
    }

    /// The counters charged to one cause.
    pub fn get(&self, cause: Cause) -> CauseCounters {
        self.counters[cause.index()]
    }

    /// Folds another shard's counters into this one (fleet breakdown).
    pub fn merge(&mut self, other: &CauseStats) {
        for cause in Cause::ALL {
            self.counters[cause.index()].add(&other.counters[cause.index()]);
        }
    }

    /// Total host bytes written across all causes.
    pub fn total_bytes_written(&self) -> u64 {
        self.counters.iter().map(|c| c.bytes_written).sum()
    }

    /// Total host bytes read across all causes.
    pub fn total_bytes_read(&self) -> u64 {
        self.counters.iter().map(|c| c.bytes_read).sum()
    }

    /// Total erases across all causes.
    pub fn total_erases(&self) -> u64 {
        self.counters.iter().map(|c| c.erases).sum()
    }

    /// Causes with non-zero traffic, in [`Cause::ALL`] order.
    pub fn rows(&self) -> impl Iterator<Item = (Cause, CauseCounters)> + '_ {
        Cause::ALL
            .iter()
            .map(|&c| (c, self.get(c)))
            .filter(|(_, v)| !v.is_zero())
    }

    /// Whether any traffic has been charged at all.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|c| c.is_zero())
    }

    /// Fleet footer line (the style of the cache/SLO footers):
    /// non-zero causes then exact totals.
    pub fn render(&self) -> String {
        let mut out = String::from("cause:");
        for (cause, c) in self.rows() {
            out.push_str(&format!(
                " {}[w={} r={} e={}]",
                cause.label(),
                c.bytes_written,
                c.bytes_read,
                c.erases
            ));
        }
        out.push_str(&format!(
            " total[w={} r={} e={}]",
            self.total_bytes_written(),
            self.total_bytes_read(),
            self.total_erases()
        ));
        out
    }

    /// Compact per-shard segment (`cause[put=w+r compaction=w+r ...]`,
    /// bytes written `+` bytes read per non-zero cause).
    pub fn render_compact(&self) -> String {
        let body = self
            .rows()
            .map(|(cause, c)| format!("{}={}+{}", cause.label(), c.bytes_written, c.bytes_read))
            .collect::<Vec<_>>()
            .join(" ");
        format!("cause[{body}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cause_round_trips_through_the_index() {
        for (i, cause) in Cause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i);
            assert!(!cause.label().is_empty());
        }
        assert_eq!(Cause::ALL.len(), Cause::COUNT);
    }

    #[test]
    fn charges_accumulate_per_cause_and_total_exactly() {
        let mut s = CauseStats::new();
        s.note_write(Cause::Put, 4096);
        s.note_write(Cause::Compaction, 8192);
        s.note_read(Cause::Get, 1024);
        s.note_erases(Cause::Compaction, 3);
        assert_eq!(s.get(Cause::Put).bytes_written, 4096);
        assert_eq!(s.get(Cause::Compaction).bytes_written, 8192);
        assert_eq!(s.get(Cause::Compaction).erases, 3);
        assert_eq!(s.total_bytes_written(), 12288);
        assert_eq!(s.total_bytes_read(), 1024);
        assert_eq!(s.total_erases(), 3);
        assert_eq!(s.rows().count(), 3);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = CauseStats::new();
        a.note_write(Cause::Put, 100);
        let mut b = CauseStats::new();
        b.note_write(Cause::Put, 50);
        b.note_read(Cause::Scan, 7);
        a.merge(&b);
        assert_eq!(a.get(Cause::Put).bytes_written, 150);
        assert_eq!(a.get(Cause::Scan).bytes_read, 7);
    }

    #[test]
    fn rendering_is_deterministic_and_skips_zero_rows() {
        let mut s = CauseStats::new();
        s.note_write(Cause::Wal, 10);
        s.note_read(Cause::Get, 20);
        let text = s.render();
        assert_eq!(
            text,
            "cause: get[w=0 r=20 e=0] wal[w=10 r=0 e=0] total[w=10 r=20 e=0]"
        );
        assert!(!text.contains("compaction"));
        assert_eq!(s.render_compact(), "cause[get=0+20 wal=10+0]");
        assert_eq!(s.render(), s.render(), "byte-identical renders");
    }

    #[test]
    fn empty_stats_report_empty() {
        let s = CauseStats::new();
        assert!(s.is_empty());
        assert_eq!(s.rows().count(), 0);
        assert_eq!(s.render(), "cause: total[w=0 r=0 e=0]");
    }
}
