//! The GMTR v2 binary trace format.
//!
//! A trace is a fully self-contained replay input: one file carries the
//! machine configuration, the kernel's instruction stream, the address
//! space layout (regions plus any pages left unmapped for demand
//! paging), every data-dependent answer the kernel gave during the
//! captured run, and the run's final statistics. Replaying needs nothing
//! but the file — no workload builder, no seed, no matching binary
//! version.
//!
//! Layout (all integers LEB128 varints via [`gmmu_sim::codec`]):
//!
//! ```text
//! header   := magic "GMTR" · version · fingerprint
//! launch   := length-prefixed byte block (fingerprint = FNV-1a of it):
//!             kernel name · num_threads · block_threads · program ·
//!             space config · regions · unmapped-vpn deltas ·
//!             gpu config · source string
//! records  := (tag · body)* terminated by tag 0 · record count
//! stats    := RunStats of the captured run (wall_s zeroed)
//! ```
//!
//! The header fingerprint covers the *launch section bytes*, not a
//! machine fingerprint: any flipped bit in the launch block is refused
//! as [`CodecError::ConfigMismatch`] before the reader interprets a
//! single field. Foreign magic, unknown versions, truncation, and
//! trailing garbage are each refused with their own typed error (see
//! DESIGN.md §11).

use gmmu_sim::codec::{fnv1a64, Codec, CodecError, Loader, Saver};
use gmmu_simt::gpu::RunStats;
use gmmu_simt::program::Program;
use gmmu_simt::GpuConfig;
use gmmu_vm::{Region, SpaceConfig};

/// Magic bytes opening every trace file.
pub const TRACE_MAGIC: [u8; 4] = *b"GMTR";
/// Trace format version. Bumped whenever the layout changes; readers
/// refuse any other version rather than misread it (the codec version
/// policy, DESIGN.md §10–§11). Version 2 dropped the
/// execution-engine fields (`tick_every_cycle`, engine kind, run
/// threads) from the launch's machine configuration: results never
/// depended on them.
pub const TRACE_VERSION: u32 = 2;

/// Warp width, which fixes the lane-mask geometry of trace records.
pub const WARP_LANES: u32 = 32;

const TAG_END: u8 = 0;
const TAG_MEM: u8 = 1;
const TAG_BRANCH: u8 = 2;
const TAG_SYNC: u8 = 3;

/// Everything needed to reconstruct the captured run's starting state.
#[derive(Debug, Clone)]
pub struct TraceLaunch {
    /// Kernel name as [`gmmu_simt::Kernel::name`] reported it.
    pub kernel_name: String,
    /// Total threads launched.
    pub num_threads: u32,
    /// Threads per block.
    pub block_threads: u32,
    /// The instruction stream all threads execute.
    pub program: Program,
    /// Configuration the captured address space was created with.
    pub space: SpaceConfig,
    /// Regions in mapping order — replay re-maps them in this order so
    /// the frame allocator replays the identical allocation sequence.
    pub regions: Vec<Region>,
    /// Virtual page numbers (region-stride granularity) that were
    /// unmapped when the captured run launched (demand-paged starts).
    pub unmapped_vpns: Vec<u64>,
    /// The full machine configuration of the captured run.
    pub config: GpuConfig,
    /// Free-form provenance string (e.g. "bfs tiny seed=7").
    pub source: String,
}

/// One event in the record stream.
///
/// Records are emitted warp-major, then site-ascending, then
/// iteration-ascending, so the byte stream is identical no matter which
/// drive loop produced the capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// The access footprint of one warp's execution of a memory site:
    /// one address per set lane, in ascending lane order.
    Mem {
        /// Static memory site.
        site: u16,
        /// Warp index (`tid / 32`).
        warp: u32,
        /// Per-(thread, site) iteration number.
        iter: u32,
        /// Bit `l` set = lane `l` executed this (site, iter).
        lanes: u32,
        /// Virtual addresses of the set lanes, ascending lane order.
        addrs: Vec<u64>,
    },
    /// The outcome of one warp's execution of a branch site.
    Branch {
        /// Static branch site.
        site: u16,
        /// Warp index.
        warp: u32,
        /// Per-(thread, site) iteration number.
        iter: u32,
        /// Lanes that evaluated the branch at this iteration.
        eval: u32,
        /// Subset of `eval` that took the branch.
        taken: u32,
    },
    /// A synchronization event. Kind 0 = kernel exit; every captured
    /// warp emits exactly one at the end of its record run, which is
    /// how the reader knows the warp's stream is complete.
    Sync {
        /// Warp index.
        warp: u32,
        /// Event kind (0 = kernel exit).
        kind: u8,
    },
}

/// Maps a signed delta onto an unsigned varint (small magnitudes stay
/// short regardless of sign).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A decoded trace: launch state, record stream, and the captured
/// run's statistics.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Starting state of the captured run.
    pub launch: TraceLaunch,
    /// The record stream, in canonical emission order.
    pub records: Vec<TraceRecord>,
    /// Statistics of the captured run, `wall_s` zeroed (the one
    /// nondeterministic field never travels in a trace).
    pub stats: RunStats,
}

fn save_launch(launch: &TraceLaunch, w: &mut Saver) {
    w.str(&launch.kernel_name);
    w.u32(launch.num_threads);
    w.u32(launch.block_threads);
    launch.program.save(w);
    launch.space.save(w);
    launch.regions.save(w);
    // Ascending VPNs encode as first-value + deltas, so a fully
    // demand-paged start (every page unmapped) stays one byte per page.
    w.usize(launch.unmapped_vpns.len());
    let mut prev = 0u64;
    for &vpn in &launch.unmapped_vpns {
        w.u64(vpn.wrapping_sub(prev));
        prev = vpn;
    }
    launch.config.save(w);
    w.str(&launch.source);
}

fn load_launch(r: &mut Loader<'_>) -> Result<TraceLaunch, CodecError> {
    let kernel_name = r.str()?.to_owned();
    let num_threads = r.u32()?;
    let block_threads = r.u32()?;
    let mut program = Program::new(Vec::new());
    program.load(r)?;
    let mut space = SpaceConfig::default();
    space.load(r)?;
    let mut regions: Vec<Region> = Vec::new();
    regions.load(r)?;
    let n_unmapped = r.usize()?;
    let mut unmapped_vpns = Vec::with_capacity(n_unmapped.min(1 << 20));
    let mut prev = 0u64;
    for _ in 0..n_unmapped {
        prev = prev.wrapping_add(r.u64()?);
        unmapped_vpns.push(prev);
    }
    let mut config = GpuConfig::default();
    config.load(r)?;
    let source = r.str()?.to_owned();
    Ok(TraceLaunch {
        kernel_name,
        num_threads,
        block_threads,
        program,
        space,
        regions,
        unmapped_vpns,
        config,
        source,
    })
}

fn save_record(rec: &TraceRecord, w: &mut Saver) {
    match rec {
        TraceRecord::Mem {
            site,
            warp,
            iter,
            lanes,
            addrs,
        } => {
            w.u8(TAG_MEM);
            w.u16(*site);
            w.u32(*warp);
            w.u32(*iter);
            w.u32(*lanes);
            // First address raw, then zigzag lane-to-lane deltas:
            // coalesced warps (the common case) cost ~1 byte per lane.
            let mut prev: Option<u64> = None;
            for &a in addrs {
                match prev {
                    None => w.u64(a),
                    Some(p) => w.u64(zigzag(a.wrapping_sub(p) as i64)),
                }
                prev = Some(a);
            }
        }
        TraceRecord::Branch {
            site,
            warp,
            iter,
            eval,
            taken,
        } => {
            w.u8(TAG_BRANCH);
            w.u16(*site);
            w.u32(*warp);
            w.u32(*iter);
            w.u32(*eval);
            w.u32(*taken);
        }
        TraceRecord::Sync { warp, kind } => {
            w.u8(TAG_SYNC);
            w.u32(*warp);
            w.u8(*kind);
        }
    }
}

fn load_record(tag: u8, r: &mut Loader<'_>) -> Result<TraceRecord, CodecError> {
    match tag {
        TAG_MEM => {
            let site = r.u16()?;
            let warp = r.u32()?;
            let iter = r.u32()?;
            let lanes = r.u32()?;
            let mut addrs = Vec::with_capacity(lanes.count_ones() as usize);
            let mut prev: Option<u64> = None;
            for _ in 0..lanes.count_ones() {
                let a = match prev {
                    None => r.u64()?,
                    Some(p) => p.wrapping_add(unzigzag(r.u64()?) as u64),
                };
                addrs.push(a);
                prev = Some(a);
            }
            Ok(TraceRecord::Mem {
                site,
                warp,
                iter,
                lanes,
                addrs,
            })
        }
        TAG_BRANCH => {
            let site = r.u16()?;
            let warp = r.u32()?;
            let iter = r.u32()?;
            let eval = r.u32()?;
            let taken = r.u32()?;
            if taken & !eval != 0 {
                return Err(CodecError::Corrupt("branch takes lanes it never evaluated"));
            }
            Ok(TraceRecord::Branch {
                site,
                warp,
                iter,
                eval,
                taken,
            })
        }
        TAG_SYNC => Ok(TraceRecord::Sync {
            warp: r.u32()?,
            kind: r.u8()?,
        }),
        _ => Err(CodecError::Corrupt("unknown trace record tag")),
    }
}

impl Trace {
    /// Serializes the trace. Byte output is a pure function of the
    /// contents — the conformance suite asserts that re-capturing a
    /// replayed run reproduces the original file byte for byte.
    pub fn encode(&self) -> Vec<u8> {
        let mut launch = Saver::new();
        save_launch(&self.launch, &mut launch);
        let launch_bytes = launch.into_bytes();
        let mut w = Saver::new();
        w.header(&TRACE_MAGIC, TRACE_VERSION, fnv1a64(&launch_bytes));
        w.bytes(&launch_bytes);
        for rec in &self.records {
            save_record(rec, &mut w);
        }
        w.u8(TAG_END);
        w.u64(self.records.len() as u64);
        let mut stats = self.stats.clone();
        stats.wall_s = 0.0;
        stats.save(&mut w);
        w.into_bytes()
    }

    /// Parses and validates a trace file.
    ///
    /// # Errors
    ///
    /// * [`CodecError::BadMagic`] — not a GMTR file.
    /// * [`CodecError::BadVersion`] — written by a newer format revision.
    /// * [`CodecError::ConfigMismatch`] — launch section does not hash to
    ///   the header fingerprint (bit rot, truncated copy, hand edit).
    /// * [`CodecError::Truncated`] — the byte stream ends mid-value,
    ///   including a missing end-of-records marker.
    /// * [`CodecError::Corrupt`] — structurally invalid contents
    ///   (unknown tags, record-count mismatch, trailing bytes).
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Loader::new(bytes);
        let found = r.header(&TRACE_MAGIC, TRACE_VERSION)?;
        let launch_bytes = r.bytes()?;
        let expected = fnv1a64(launch_bytes);
        if expected != found {
            return Err(CodecError::ConfigMismatch { expected, found });
        }
        let mut lr = Loader::new(launch_bytes);
        let launch = load_launch(&mut lr)?;
        if lr.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes in launch section"));
        }
        let mut records = Vec::new();
        loop {
            let tag = r.u8()?;
            if tag == TAG_END {
                break;
            }
            records.push(load_record(tag, &mut r)?);
        }
        let count = r.u64()?;
        if count != records.len() as u64 {
            return Err(CodecError::Corrupt("record count mismatch"));
        }
        let mut stats = RunStats::zeroed();
        stats.load(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes after trace"));
        }
        Ok(Trace {
            launch,
            records,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Trace {
        use gmmu_simt::program::{MemKind, Op};
        let program = Program::new(vec![
            Op::Mem {
                site: 0,
                kind: MemKind::Load,
            },
            Op::Branch {
                site: 1,
                taken_pc: 0,
                reconv_pc: 2,
            },
        ]);
        Trace {
            launch: TraceLaunch {
                kernel_name: "unit".into(),
                num_threads: 64,
                block_threads: 32,
                program,
                space: SpaceConfig::default(),
                regions: Vec::new(),
                unmapped_vpns: vec![5, 9, 1000],
                config: GpuConfig::default(),
                source: "unit test".into(),
            },
            records: vec![
                TraceRecord::Mem {
                    site: 0,
                    warp: 0,
                    iter: 0,
                    lanes: 0b101,
                    addrs: vec![0x4000_0000, 0x4000_0080],
                },
                TraceRecord::Branch {
                    site: 1,
                    warp: 0,
                    iter: 0,
                    eval: 0b111,
                    taken: 0b010,
                },
                TraceRecord::Sync { warp: 0, kind: 0 },
            ],
            stats: RunStats::zeroed(),
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn encode_decode_round_trips() {
        let t = tiny_trace();
        let bytes = t.encode();
        let back = Trace::decode(&bytes).unwrap();
        assert_eq!(back.launch.kernel_name, t.launch.kernel_name);
        assert_eq!(back.launch.unmapped_vpns, t.launch.unmapped_vpns);
        assert_eq!(back.launch.program, t.launch.program);
        assert_eq!(back.records, t.records);
        assert!(back.stats.diff(&t.stats).is_empty());
        assert_eq!(back.encode(), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn foreign_magic_is_refused() {
        let mut bytes = tiny_trace().encode();
        bytes[..4].copy_from_slice(b"GMCK");
        assert_eq!(Trace::decode(&bytes).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn future_version_is_refused() {
        let mut bytes = tiny_trace().encode();
        // The version encodes as the single varint byte at offset 4.
        assert_eq!(bytes[4], TRACE_VERSION as u8);
        bytes[4] = 3;
        assert_eq!(
            Trace::decode(&bytes).unwrap_err(),
            CodecError::BadVersion(3)
        );
    }

    #[test]
    fn launch_bit_flip_is_a_fingerprint_mismatch() {
        let bytes = tiny_trace().encode();
        // Find a byte inside the launch block (header is 4 magic +
        // 1 version varint + 9 fingerprint varint max; flip well past it
        // but before the records) — the kernel name lives there.
        let mut bad = bytes.clone();
        let idx = bytes
            .windows(4)
            .position(|w| w == b"unit")
            .expect("kernel name in launch block");
        bad[idx] ^= 0x20;
        assert!(matches!(
            Trace::decode(&bad),
            Err(CodecError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_refused_everywhere() {
        let bytes = tiny_trace().encode();
        for cut in [1, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            let err = Trace::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::Truncated | CodecError::ConfigMismatch { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut bytes = tiny_trace().encode();
        bytes.push(0);
        assert_eq!(
            Trace::decode(&bytes).unwrap_err(),
            CodecError::Corrupt("trailing bytes after trace")
        );
    }

    #[test]
    fn impossible_branch_mask_is_corrupt() {
        let mut t = tiny_trace();
        t.records[1] = TraceRecord::Branch {
            site: 1,
            warp: 0,
            iter: 0,
            eval: 0b001,
            taken: 0b010,
        };
        let bytes = t.encode();
        assert_eq!(
            Trace::decode(&bytes).unwrap_err(),
            CodecError::Corrupt("branch takes lanes it never evaluated")
        );
    }
}
