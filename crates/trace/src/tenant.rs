//! Multi-tenant trace capture and replay (`GMTM` v2).
//!
//! A multi-tenant run is N kernels in N address spaces sharing one GPU
//! under a [`TenantPolicy`]. Its trace is a container around N
//! per-tenant sections — each the same `(launch, records)` pair a GMTR
//! file carries — plus the policy and the combined run statistics
//! (including the per-tenant slice GMTR's pinned `RunStats` layout
//! excludes). The single-tenant `GMTR` format is untouched: its byte
//! stream stays pinned by the golden fixtures while `GMTM` evolves
//! independently.
//!
//! Layout (all integers LEB128 varints via [`gmmu_sim::codec`]):
//!
//! ```text
//! header   := magic "GMTM" · version · fingerprint
//! policy   := tagged · walker_tokens · walker_max_age · watchdog
//! launches := n_tenants · n_tenants × length-prefixed launch block
//!             (fingerprint = FNV-1a of the concatenated blocks)
//! records  := n_tenants × ((tag · body)* · tag 0 · record count)
//! stats    := combined RunStats (wall_s zeroed) · per-tenant stats
//! ```
//!
//! The fingerprint covers every tenant's launch bytes, so a flipped bit
//! in any tenant's machine description is refused before interpretation,
//! with the same error taxonomy as `GMTR`.

use crate::capture::{capture_launch, Recorder};
use crate::format::{
    load_launch, load_record, save_launch, save_record, TraceLaunch, TraceRecord, TAG_END,
};
use crate::replay::TraceKernel;
use gmmu_sim::codec::{fnv1a64, Codec, CodecError, Loader, Saver};
use gmmu_sim::Cycle;
use gmmu_simt::gpu::RunStats;
use gmmu_simt::observe::Observer;
use gmmu_simt::program::Kernel;
use gmmu_simt::{Gpu, GpuConfig, TenantJob, TenantPolicy, TenantStats};
use gmmu_vm::AddressSpace;

/// Magic bytes opening every multi-tenant trace file.
pub const MT_TRACE_MAGIC: [u8; 4] = *b"GMTM";
/// Multi-tenant trace format version. Version 2 embeds GMTR v2 launch
/// blocks, whose machine configuration no longer carries the
/// execution-engine fields.
pub const MT_TRACE_VERSION: u32 = 2;

/// One tenant's slice of a multi-tenant trace: the same launch state
/// and record stream a single-tenant GMTR file carries.
#[derive(Debug, Clone)]
pub struct TenantSection {
    /// Starting state of this tenant's kernel and address space.
    pub launch: TraceLaunch,
    /// This tenant's record stream, in canonical emission order.
    pub records: Vec<TraceRecord>,
}

/// A decoded multi-tenant trace.
#[derive(Debug, Clone)]
pub struct MultiTrace {
    /// Multi-tenant policy of the captured run.
    pub policy: TenantPolicy,
    /// Per-tenant sections; index == ASID.
    pub tenants: Vec<TenantSection>,
    /// Combined statistics of the captured run, `wall_s` zeroed and
    /// the per-tenant slice (`stats.tenants`) populated.
    pub stats: RunStats,
}

fn save_policy(p: &TenantPolicy, w: &mut Saver) {
    w.bool(p.tagged);
    w.u32(p.walker_tokens);
    w.u64(p.walker_max_age);
    w.u64(p.watchdog);
}

fn load_policy(r: &mut Loader<'_>) -> Result<TenantPolicy, CodecError> {
    Ok(TenantPolicy {
        tagged: r.bool()?,
        walker_tokens: r.u32()?,
        walker_max_age: r.u64()?,
        watchdog: r.u64()?,
    })
}

fn save_tenant_stats(ts: &[TenantStats], w: &mut Saver) {
    w.usize(ts.len());
    for t in ts {
        w.u16(t.asid);
        w.u64(t.instructions);
        w.u64(t.blocks_done);
        w.u64(t.finished_at);
        w.u64(t.faults);
    }
}

fn load_tenant_stats(r: &mut Loader<'_>) -> Result<Vec<TenantStats>, CodecError> {
    let n = r.usize()?;
    let mut out = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        out.push(TenantStats {
            asid: r.u16()?,
            instructions: r.u64()?,
            blocks_done: r.u64()?,
            finished_at: r.u64()? as Cycle,
            faults: r.u64()?,
        });
    }
    Ok(out)
}

impl MultiTrace {
    /// Serializes the trace; byte output is a pure function of the
    /// contents, so re-capturing a replayed run reproduces the file
    /// byte for byte (the conformance tests assert this).
    pub fn encode(&self) -> Vec<u8> {
        let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(self.tenants.len());
        let mut all = Vec::new();
        for t in &self.tenants {
            let mut s = Saver::new();
            save_launch(&t.launch, &mut s);
            let b = s.into_bytes();
            all.extend_from_slice(&b);
            blocks.push(b);
        }
        let mut w = Saver::new();
        w.header(&MT_TRACE_MAGIC, MT_TRACE_VERSION, fnv1a64(&all));
        save_policy(&self.policy, &mut w);
        w.usize(self.tenants.len());
        for b in &blocks {
            w.bytes(b);
        }
        for t in &self.tenants {
            for rec in &t.records {
                save_record(rec, &mut w);
            }
            w.u8(TAG_END);
            w.u64(t.records.len() as u64);
        }
        let mut stats = self.stats.clone();
        stats.wall_s = 0.0;
        stats.save(&mut w);
        save_tenant_stats(&self.stats.tenants, &mut w);
        w.into_bytes()
    }

    /// Parses and validates a multi-tenant trace file.
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`crate::Trace::decode`]: [`CodecError::BadMagic`]
    /// for foreign files (including single-tenant `GMTR` files),
    /// [`CodecError::BadVersion`] for future revisions,
    /// [`CodecError::ConfigMismatch`] when the launch blocks do not hash
    /// to the header fingerprint, [`CodecError::Truncated`] and
    /// [`CodecError::Corrupt`] for structural damage.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Loader::new(bytes);
        let found = r.header(&MT_TRACE_MAGIC, MT_TRACE_VERSION)?;
        let policy = load_policy(&mut r)?;
        let n = r.usize()?;
        if n == 0 {
            return Err(CodecError::Corrupt("multi-tenant trace with zero tenants"));
        }
        let mut blocks: Vec<&[u8]> = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            blocks.push(r.bytes()?);
        }
        let mut all = Vec::new();
        for b in &blocks {
            all.extend_from_slice(b);
        }
        let expected = fnv1a64(&all);
        if expected != found {
            return Err(CodecError::ConfigMismatch { expected, found });
        }
        let mut tenants = Vec::with_capacity(n);
        for b in blocks {
            let mut lr = Loader::new(b);
            let launch = load_launch(&mut lr)?;
            if lr.remaining() != 0 {
                return Err(CodecError::Corrupt("trailing bytes in launch section"));
            }
            tenants.push(TenantSection {
                launch,
                records: Vec::new(),
            });
        }
        for t in &mut tenants {
            loop {
                let tag = r.u8()?;
                if tag == TAG_END {
                    break;
                }
                t.records.push(load_record(tag, &mut r)?);
            }
            let count = r.u64()?;
            if count != t.records.len() as u64 {
                return Err(CodecError::Corrupt("record count mismatch"));
            }
        }
        let mut stats = RunStats::zeroed();
        stats.load(&mut r)?;
        stats.tenants = load_tenant_stats(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes after trace"));
        }
        Ok(MultiTrace {
            policy,
            tenants,
            stats,
        })
    }
}

/// Captures a multi-tenant run: wraps every kernel in a [`Recorder`],
/// runs the jobs under `policy` on a fresh [`Gpu`] built from `config`,
/// and assembles the sections with the combined statistics. Returns the
/// trace and the run's stats.
///
/// `spaces[t]` must carry ASID `t` (build with
/// [`AddressSpace::with_asid`] or the workloads crate's scenario
/// builder); the run mutates the spaces (demand paging), exactly as the
/// capture-time run did.
pub fn capture_tenants(
    kernels: &[&dyn Kernel],
    spaces: &mut [AddressSpace],
    config: &GpuConfig,
    policy: TenantPolicy,
    source: &str,
) -> (MultiTrace, RunStats) {
    assert_eq!(kernels.len(), spaces.len(), "one space per kernel");
    let launches: Vec<TraceLaunch> = kernels
        .iter()
        .zip(spaces.iter())
        .enumerate()
        .map(|(t, (k, sp))| capture_launch(*k, sp, config, &format!("{source} [tenant {t}]")))
        .collect();
    let recorders: Vec<Recorder<'_>> = kernels.iter().map(|k| Recorder::new(*k)).collect();
    let mut jobs: Vec<TenantJob<'_>> = recorders
        .iter()
        .zip(spaces.iter_mut())
        .map(|(rec, space)| TenantJob {
            kernel: rec as &dyn Kernel,
            space,
        })
        .collect();
    let stats = Gpu::new(config.clone()).run_tenants(&mut jobs, policy, &mut Observer::off());
    drop(jobs);
    let tenants = launches
        .into_iter()
        .zip(recorders)
        .map(|(launch, rec)| TenantSection {
            launch,
            records: rec.into_records(),
        })
        .collect();
    (
        MultiTrace {
            policy,
            tenants,
            stats: stats.clone(),
        },
        stats,
    )
}

/// Replays a multi-tenant trace on the machine described by `config`
/// (normally tenant 0's captured config, possibly with
/// `tick_every_cycle` overridden — it is stats-invariant). Returns the
/// run's statistics and, when the observer's metrics channel is on, the
/// versioned metrics snapshot. Compare against [`MultiTrace::stats`]
/// with [`RunStats::diff`]: an empty diff is the conformance contract.
///
/// # Errors
///
/// [`CodecError::Corrupt`] when a tenant's launch section cannot be
/// rebuilt at its ASID or its records are inconsistent.
pub fn replay_tenants(
    trace: &MultiTrace,
    config: &GpuConfig,
    obs: &mut Observer,
) -> Result<(RunStats, Option<String>), CodecError> {
    let kernels: Vec<TraceKernel> = trace
        .tenants
        .iter()
        .map(|t| TraceKernel::from_parts(&t.launch, &t.records))
        .collect::<Result<_, _>>()?;
    let mut spaces: Vec<AddressSpace> = trace
        .tenants
        .iter()
        .enumerate()
        .map(|(t, sec)| crate::replay::rebuild_space_asid(&sec.launch, t as u16))
        .collect::<Result<_, _>>()?;
    let mut jobs: Vec<TenantJob<'_>> = kernels
        .iter()
        .zip(spaces.iter_mut())
        .map(|(k, space)| TenantJob {
            kernel: k as &dyn Kernel,
            space,
        })
        .collect();
    let mut gpu = Gpu::new(config.clone());
    let stats = gpu.run_tenants(&mut jobs, trace.policy, obs);
    let snapshot = gpu.metrics_snapshot(obs);
    Ok((stats, snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmmu_simt::program::{MemKind, Op, Program};
    use gmmu_vm::SpaceConfig;

    fn tiny_multi() -> MultiTrace {
        let program = Program::new(vec![Op::Mem {
            site: 0,
            kind: MemKind::Load,
        }]);
        let launch = |name: &str| TraceLaunch {
            kernel_name: name.into(),
            num_threads: 32,
            block_threads: 32,
            program: program.clone(),
            space: SpaceConfig::default(),
            regions: Vec::new(),
            unmapped_vpns: Vec::new(),
            config: GpuConfig::default(),
            source: "unit".into(),
        };
        let mut stats = RunStats::zeroed();
        stats.tenants = vec![
            TenantStats {
                asid: 0,
                instructions: 10,
                blocks_done: 1,
                finished_at: 99,
                faults: 0,
            },
            TenantStats {
                asid: 1,
                instructions: 20,
                blocks_done: 1,
                finished_at: 120,
                faults: 3,
            },
        ];
        MultiTrace {
            policy: TenantPolicy::default(),
            tenants: vec![
                TenantSection {
                    launch: launch("a"),
                    records: vec![TraceRecord::Sync { warp: 0, kind: 0 }],
                },
                TenantSection {
                    launch: launch("b"),
                    records: vec![
                        TraceRecord::Mem {
                            site: 0,
                            warp: 0,
                            iter: 0,
                            lanes: 1,
                            addrs: vec![0x4000_0000],
                        },
                        TraceRecord::Sync { warp: 0, kind: 0 },
                    ],
                },
            ],
            stats,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let t = tiny_multi();
        let bytes = t.encode();
        let back = MultiTrace::decode(&bytes).unwrap();
        assert_eq!(back.policy, t.policy);
        assert_eq!(back.tenants.len(), 2);
        assert_eq!(back.tenants[0].launch.kernel_name, "a");
        assert_eq!(back.tenants[1].records, t.tenants[1].records);
        assert_eq!(back.stats.tenants, t.stats.tenants);
        assert_eq!(back.encode(), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn gmtr_magic_is_refused() {
        let mut bytes = tiny_multi().encode();
        bytes[..4].copy_from_slice(b"GMTR");
        assert_eq!(
            MultiTrace::decode(&bytes).unwrap_err(),
            CodecError::BadMagic
        );
    }

    #[test]
    fn future_version_is_refused() {
        let mut bytes = tiny_multi().encode();
        assert_eq!(bytes[4], MT_TRACE_VERSION as u8);
        bytes[4] = 9;
        assert_eq!(
            MultiTrace::decode(&bytes).unwrap_err(),
            CodecError::BadVersion(9)
        );
    }

    #[test]
    fn launch_bit_flip_is_a_fingerprint_mismatch() {
        let bytes = tiny_multi().encode();
        let idx = bytes
            .windows(4)
            .position(|w| w == b"unit")
            .expect("source string in a launch block");
        let mut bad = bytes.clone();
        bad[idx] ^= 0x20;
        assert!(matches!(
            MultiTrace::decode(&bad),
            Err(CodecError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_refused() {
        let bytes = tiny_multi().encode();
        for cut in [1, 5, bytes.len() / 2, bytes.len() - 1] {
            let err = MultiTrace::decode(&bytes[..cut]).unwrap_err();
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
    fn zero_tenants_is_corrupt() {
        let mut t = tiny_multi();
        t.tenants.clear();
        t.stats.tenants.clear();
        let bytes = t.encode();
        assert_eq!(
            MultiTrace::decode(&bytes).unwrap_err(),
            CodecError::Corrupt("multi-tenant trace with zero tenants")
        );
    }
}
