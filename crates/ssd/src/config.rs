//! Device geometry, profiles, and construction-time configuration.
//!
//! A [`DeviceConfig`] fully describes a simulated drive. Configurations are
//! usually built from a [`DeviceProfile`] — a datasheet-style description of
//! a *paper-scale* device (hundreds of GB) — scaled down to a simulation
//! capacity while preserving every ratio that matters for FTL dynamics:
//! over-provisioning fraction, cache-to-capacity fraction, and
//! bandwidth-to-capacity ratio (so that "filling the drive three times"
//! takes the same simulated minutes as on the reference hardware).
//!
//! Three built-in profiles mirror the drives of the paper's §4.7:
//!
//! | Profile | Mirrors | Character |
//! |---|---|---|
//! | [`DeviceProfile::ssd1`] | Intel P3600 (enterprise flash) | fast NAND, small cache |
//! | [`DeviceProfile::ssd2`] | Intel 660p (consumer QLC flash) | slow NAND, very large cache |
//! | [`DeviceProfile::ssd3`] | Intel Optane (3DXP) | in-place media: no GC at all |

use crate::latency::LatencyConfig;

/// What kind of medium backs the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaKind {
    /// NAND flash: pages must be erased (per block) before reprogramming,
    /// so the FTL writes out of place and garbage-collects.
    Flash,
    /// Byte-addressable in-place media (3D XPoint-like). Writes update in
    /// place; there is no garbage collection and WA-D is always 1.
    InPlace,
}

/// Physical layout of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Bytes per flash page (host sector granularity of the simulator).
    pub page_size: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Number of logical pages advertised to the host.
    pub logical_pages: u64,
    /// Number of physical erase blocks (includes over-provisioning).
    pub physical_blocks: u32,
}

impl Geometry {
    /// Total physical pages.
    pub(crate) fn physical_pages(&self) -> u64 {
        self.physical_blocks as u64 * self.pages_per_block as u64
    }

    /// Validates internal consistency; panics with a description on error.
    pub fn validate(&self) {
        assert!(
            self.page_size.is_power_of_two(),
            "page_size must be a power of two"
        );
        assert!(self.pages_per_block > 0, "pages_per_block must be positive");
        assert!(self.logical_pages > 0, "logical_pages must be positive");
        assert!(
            self.physical_pages() > self.logical_pages + self.pages_per_block as u64,
            "physical space must exceed logical space by at least one block \
             (got {} physical vs {} logical pages)",
            self.physical_pages(),
            self.logical_pages
        );
    }
}

/// Garbage-collection tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcConfig {
    /// The FTL keeps at least this many blocks free; when an allocation
    /// would drop below it, garbage collection reclaims victims until the
    /// reserve is restored.
    pub reserve_blocks: u32,
}

impl Default for GcConfig {
    fn default() -> Self {
        Self { reserve_blocks: 4 }
    }
}

/// Write-back cache (DRAM / SLC staging area) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of pages the cache can hold before host writes start
    /// blocking on destage completion. `0` disables caching: every write
    /// waits for the media itself.
    pub capacity_pages: u32,
}

/// Full configuration of a simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Medium behaviour.
    pub media: MediaKind,
    /// Physical layout.
    pub geometry: Geometry,
    /// GC tuning (ignored for [`MediaKind::InPlace`]).
    pub gc: GcConfig,
    /// Cache behaviour.
    pub cache: CacheConfig,
    /// Timing model.
    pub latency: LatencyConfig,
    /// Read service lanes available to *queued* reads (the NAND-channel
    /// model of the asynchronous submission path, see [`crate::IoQueue`]).
    /// The default of 1 keeps the calibrated aggregate-bandwidth model
    /// authoritative: queued reads then overlap their fixed base latency
    /// but serialize media occupancy, and the synchronous path is
    /// reproduced byte-identically at queue depth 1. Values above 1 are
    /// an explicit what-if knob that multiplies read service
    /// parallelism beyond the profile's calibration.
    pub channels: u32,
    /// Record per-LBA write counts (the `blktrace` equivalent, Fig 4).
    pub trace_writes: bool,
}

impl DeviceConfig {
    /// Builds a configuration from a paper-scale [`DeviceProfile`], scaled
    /// to `logical_bytes` of advertised capacity.
    pub fn from_profile(profile: DeviceProfile, logical_bytes: u64) -> Self {
        profile.scaled_to(logical_bytes)
    }

    /// Validates the configuration; panics with a description on error.
    pub fn validate(&self) {
        self.geometry.validate();
        assert!(self.channels >= 1, "need at least one read channel");
        assert!(
            self.gc.reserve_blocks >= 2,
            "need at least 2 reserve blocks for GC"
        );
        assert!(
            (self.gc.reserve_blocks as u64) < self.geometry.physical_blocks as u64 / 2,
            "reserve blocks must be a small fraction of the device"
        );
    }
}

/// A datasheet-style description of a reference (paper-scale) device.
///
/// All capacities/bandwidths are for the *reference* capacity; calling
/// [`DeviceProfile::scaled_to`] derives a [`DeviceConfig`] for a smaller
/// simulated drive with identical dynamics.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// Name used in reports ("SSD1", ...).
    pub name: String,
    /// Medium behaviour.
    pub media: MediaKind,
    /// Reference advertised capacity in bytes (e.g. 400 GB).
    pub reference_capacity: u64,
    /// Sustained media write bandwidth at reference scale, bytes/second.
    pub write_bandwidth: u64,
    /// Sustained media read bandwidth at reference scale, bytes/second.
    pub read_bandwidth: u64,
    /// Write-back cache size at reference scale, bytes.
    pub cache_bytes: u64,
    /// Host-visible latency of a cached write, nanoseconds.
    pub write_latency_ns: u64,
    /// Host-visible base latency of a read, nanoseconds.
    pub read_latency_ns: u64,
    /// Hardware over-provisioning fraction (extra physical space).
    pub hardware_op: f64,
    /// Bytes per flash page.
    pub page_size: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Backend cost of one block erase, expressed in units of one page
    /// program (erases are amortized across the die array).
    pub erase_cost_programs: f64,
}

impl DeviceProfile {
    /// SSD1: enterprise NVMe flash (Intel P3600-class, the paper's default
    /// drive). Fast NAND, modest cache, healthy hardware OP.
    pub fn ssd1() -> Self {
        Self {
            name: "SSD1".to_string(),
            media: MediaKind::Flash,
            reference_capacity: 400 * GB,
            write_bandwidth: 500 * MB,
            read_bandwidth: 2_200 * MB,
            cache_bytes: 24 * MB,
            write_latency_ns: 25_000,
            read_latency_ns: 90_000,
            // P3600-class drives ship 512 GiB of NAND for 400 GB
            // advertised: ~28% hidden over-provisioning.
            hardware_op: 0.28,
            page_size: 4096,
            // Modern enterprise FTLs stripe writes across dies into large
            // superblocks; several host streams interleave within one
            // erase unit.
            pages_per_block: 512,
            erase_cost_programs: 2.0,
        }
    }

    /// SSD2: consumer QLC flash (Intel 660p-class). Slow media behind a
    /// very large write cache: absorbs small uniform writes with low
    /// latency but stalls badly under sustained large bursts (§4.7).
    pub fn ssd2() -> Self {
        Self {
            name: "SSD2".to_string(),
            media: MediaKind::Flash,
            reference_capacity: 512 * GB,
            write_bandwidth: 110 * MB,
            read_bandwidth: 1_500 * MB,
            cache_bytes: 20 * GB,
            write_latency_ns: 8_000,
            read_latency_ns: 60_000,
            hardware_op: 0.10,
            page_size: 4096,
            pages_per_block: 256,
            erase_cost_programs: 3.0,
        }
    }

    /// SSD3: 3D XPoint (Intel Optane-class). In-place media: no GC, very
    /// low latency, high bandwidth. Used as the performance upper bound.
    pub fn ssd3() -> Self {
        Self {
            name: "SSD3".to_string(),
            media: MediaKind::InPlace,
            reference_capacity: 375 * GB,
            write_bandwidth: 2_000 * MB,
            read_bandwidth: 2_400 * MB,
            cache_bytes: 0,
            write_latency_ns: 11_000,
            read_latency_ns: 10_000,
            hardware_op: 0.02,
            page_size: 4096,
            pages_per_block: 256,
            erase_cost_programs: 0.0,
        }
    }

    /// Derives a [`DeviceConfig`] for a simulated drive of `logical_bytes`,
    /// preserving the reference device's OP fraction, cache:capacity ratio
    /// and fill-time (bandwidth:capacity ratio).
    ///
    /// The scaled device is a *time-dilated replica*: bandwidths shrink
    /// by the capacity ratio and per-command latencies stretch by its
    /// inverse, so one simulated second of device work corresponds to
    /// one second on the reference hardware, and simulated throughput
    /// times the capacity ratio is directly comparable to
    /// reference-scale numbers.
    pub fn scaled_to(&self, logical_bytes: u64) -> DeviceConfig {
        assert!(
            logical_bytes as u128 >= 8 * (self.page_size as u128) * (self.pages_per_block as u128),
            "simulated capacity must cover at least 8 erase blocks"
        );
        let scale = logical_bytes as f64 / self.reference_capacity as f64;
        let dilation = 1.0 / scale;

        let page_size = self.page_size;
        let logical_pages = logical_bytes / page_size as u64;
        let physical_pages_target = (logical_pages as f64 * (1.0 + self.hardware_op)).ceil() as u64;
        let reserve_blocks = GcConfig::default().reserve_blocks;
        // Round up to whole blocks, and guarantee the GC reserve plus
        // write-stream headroom exists on top of the advertised space
        // even for tiny test devices (see `Ftl::new`).
        let min_pages = logical_pages + (reserve_blocks as u64 + 6) * self.pages_per_block as u64;
        let physical_pages = physical_pages_target.max(min_pages);
        let physical_blocks = physical_pages.div_ceil(self.pages_per_block as u64) as u32;

        let write_bw = (self.write_bandwidth as f64 * scale).max(1.0);
        let read_bw = (self.read_bandwidth as f64 * scale).max(1.0);
        let program_occupancy = (page_size as f64 * 1e9 / write_bw).round() as u64;
        let read_occupancy = (page_size as f64 * 1e9 / read_bw).round() as u64;
        let erase_occupancy = (program_occupancy as f64 * self.erase_cost_programs).round() as u64;

        let cache_pages = if self.cache_bytes == 0 {
            0
        } else {
            (((self.cache_bytes as f64 * scale) / page_size as f64).round() as u32).max(8)
        };

        let geometry = Geometry {
            page_size,
            pages_per_block: self.pages_per_block,
            logical_pages,
            physical_blocks,
        };
        let cfg = DeviceConfig {
            name: self.name.clone(),
            media: self.media,
            geometry,
            gc: GcConfig { reserve_blocks },
            cache: CacheConfig {
                capacity_pages: cache_pages,
            },
            latency: LatencyConfig {
                program_occupancy_ns: program_occupancy,
                read_occupancy_ns: read_occupancy,
                erase_occupancy_ns: erase_occupancy,
                cache_write_latency_ns: (self.write_latency_ns as f64 * dilation).round() as u64,
                read_base_latency_ns: (self.read_latency_ns as f64 * dilation).round() as u64,
            },
            channels: 1,
            trace_writes: false,
        };
        cfg.validate();
        cfg
    }
}

/// One megabyte.
pub const MB: u64 = 1024 * 1024;
/// One gigabyte.
pub const GB: u64 = 1024 * MB;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derived_quantities() {
        let g = Geometry {
            page_size: 4096,
            pages_per_block: 256,
            logical_pages: 1024,
            physical_blocks: 5,
        };
        assert_eq!(g.physical_pages(), 1280);
    }

    #[test]
    fn profile_scaling_preserves_op_fraction() {
        let g = DeviceProfile::ssd1().scaled_to(512 * MB).geometry;
        let op = (g.physical_pages() - g.logical_pages) as f64 / g.logical_pages as f64;
        assert!(
            (0.27..=0.30).contains(&op),
            "OP fraction {op} strayed from profile"
        );
    }

    #[test]
    fn profile_scaling_preserves_fill_time() {
        // Time to write the whole logical space once must match the
        // reference device regardless of simulated size.
        let p = DeviceProfile::ssd1();
        let ref_fill_secs = p.reference_capacity as f64 / p.write_bandwidth as f64;
        for size in [64 * MB, 512 * MB, 2 * GB] {
            let cfg = p.scaled_to(size);
            let fill_secs =
                cfg.geometry.logical_pages as f64 * cfg.latency.program_occupancy_ns as f64 / 1e9;
            let rel = (fill_secs - ref_fill_secs).abs() / ref_fill_secs;
            assert!(rel < 0.01, "fill time off by {rel} at size {size}");
        }
    }

    #[test]
    fn profile_scaling_scales_cache() {
        let big = DeviceProfile::ssd2().scaled_to(2 * GB);
        let small = DeviceProfile::ssd2().scaled_to(512 * MB);
        assert!(big.cache.capacity_pages > 3 * small.cache.capacity_pages);
        // SSD2's cache:capacity ratio (~3.9%) must survive scaling.
        let frac = big.cache.capacity_pages as f64 * 4096.0 / (2.0 * GB as f64);
        assert!(frac > 0.03 && frac < 0.05, "cache fraction {frac}");
    }

    #[test]
    fn ssd3_has_no_cache_and_in_place_media() {
        let cfg = DeviceProfile::ssd3().scaled_to(512 * MB);
        assert_eq!(cfg.cache.capacity_pages, 0);
        assert_eq!(cfg.media, MediaKind::InPlace);
    }

    #[test]
    fn tiny_devices_still_get_gc_headroom() {
        let cfg = DeviceProfile::ssd1().scaled_to(16 * MB);
        cfg.validate();
        let spare = cfg.geometry.physical_pages() - cfg.geometry.logical_pages;
        assert!(spare >= (cfg.gc.reserve_blocks as u64 + 2) * cfg.geometry.pages_per_block as u64);
    }

    #[test]
    #[should_panic(expected = "physical space must exceed logical")]
    fn geometry_rejects_no_op() {
        Geometry {
            page_size: 4096,
            pages_per_block: 256,
            logical_pages: 1280,
            physical_blocks: 5,
        }
        .validate();
    }
}
