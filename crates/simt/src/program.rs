//! Kernel programs: the IR that SIMT cores execute.
//!
//! A [`Program`] is a flat list of [`Op`]s shared by every thread of a
//! kernel. Threads diverge only at [`Op::Branch`]; each branch names its
//! *reconvergence pc* (the immediate post-dominator), which the authors
//! of a kernel know because programs are structured (if/else and loops).
//!
//! A [`Kernel`] supplies the data-dependent parts as **pure functions**
//! of `(thread, site, iteration)`: the virtual address a memory site
//! touches and the outcome of a branch site. Purity is what lets thread
//! block compaction regroup threads into arbitrary dynamic warps and
//! still replay an access after a TLB miss without storing traces.

use gmmu_vm::VAddr;

/// A global thread id (blocks are contiguous ranges of these).
pub type ThreadId = u32;

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemKind {
    /// A load: the warp waits for the data.
    #[default]
    Load,
    /// A store: fire-and-forget write-through traffic.
    Store,
}

/// One SIMT instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Arithmetic taking `cycles` of result latency.
    Alu {
        /// Result latency in cycles.
        cycles: u32,
    },
    /// A memory access at static site `site`; per-thread addresses come
    /// from [`Kernel::mem_addr`].
    Mem {
        /// Static site id (indexes kernel address generators).
        site: u16,
        /// Load or store.
        kind: MemKind,
    },
    /// Conditional branch at static site `site`. Taken threads jump to
    /// `taken_pc`; others fall through. `reconv_pc` is the immediate
    /// post-dominator where the paths re-join.
    Branch {
        /// Static site id (indexes kernel outcome generators).
        site: u16,
        /// Target when taken (backward target = loop).
        taken_pc: u32,
        /// Reconvergence point.
        reconv_pc: u32,
    },
}

/// A kernel's instruction stream.
///
/// # Examples
///
/// ```
/// use gmmu_simt::program::{Op, MemKind, Program};
/// let p = Program::new(vec![
///     Op::Alu { cycles: 4 },
///     Op::Mem { site: 0, kind: MemKind::Load },
/// ]);
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.num_sites(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    ops: Vec<Op>,
    num_sites: usize,
}

impl Program {
    /// Wraps an op list.
    ///
    /// # Panics
    ///
    /// Panics if a branch targets a pc beyond one past the end, or a
    /// reconvergence pc precedes the branch target ordering rules
    /// (reconv must be ≥ the fall-through pc).
    pub fn new(ops: Vec<Op>) -> Self {
        let len = ops.len() as u32;
        let mut max_site = None;
        for (pc, op) in ops.iter().enumerate() {
            match *op {
                Op::Branch {
                    taken_pc,
                    reconv_pc,
                    site,
                } => {
                    assert!(taken_pc <= len, "branch at {pc} targets beyond end");
                    assert!(reconv_pc <= len, "reconv at {pc} beyond end");
                    assert!(
                        reconv_pc > pc as u32,
                        "reconvergence must lie after the branch"
                    );
                    max_site = max_site.max(Some(site));
                }
                Op::Mem { site, .. } => max_site = max_site.max(Some(site)),
                Op::Alu { .. } => {}
            }
        }
        Self {
            ops,
            num_sites: max_site.map_or(0, |s| s as usize + 1),
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// One past the last pc (the pc at which a thread is done).
    pub fn end_pc(&self) -> u32 {
        self.ops.len() as u32
    }

    /// The instruction at `pc`.
    pub fn op(&self, pc: u32) -> Op {
        self.ops[pc as usize]
    }

    /// Number of distinct static sites (memory + branch).
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }
}

/// A workload kernel: program + data-dependent behaviour.
///
/// Implementations live in `gmmu-workloads`; each models one of the
/// paper's six benchmarks. All methods must be *deterministic pure
/// functions* — the simulator may call them more than once for the same
/// arguments (TLB-miss replay, dynamic warp formation). `Sync` is a
/// supertrait because parallel sweeps share one workload's kernel
/// across their worker threads; purity makes this trivially true for
/// every workload.
pub trait Kernel: Sync {
    /// Short benchmark name (e.g. `"bfs"`).
    fn name(&self) -> &str;

    /// The instruction stream all threads execute.
    fn program(&self) -> &Program;

    /// Total threads launched.
    fn num_threads(&self) -> u32;

    /// Threads per block (a multiple of the warp size; warps of a block
    /// compact together under TBC).
    fn block_threads(&self) -> u32;

    /// Virtual address thread `tid` touches at memory site `site` on its
    /// `iter`-th execution of that site.
    fn mem_addr(&self, tid: ThreadId, site: u16, iter: u32) -> VAddr;

    /// Outcome of branch `site` for `tid` on its `iter`-th execution.
    fn branch_taken(&self, tid: ThreadId, site: u16, iter: u32) -> bool;
}

use gmmu_sim::codec::{Codec, CodecError, Loader, Saver};

impl Codec for MemKind {
    fn save(&self, w: &mut Saver) {
        w.u8(match self {
            MemKind::Load => 0,
            MemKind::Store => 1,
        });
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
        *self = match r.u8()? {
            0 => MemKind::Load,
            1 => MemKind::Store,
            _ => return Err(CodecError::Corrupt("unknown memory-op tag")),
        };
        Ok(())
    }
}

impl Codec for Op {
    fn save(&self, w: &mut Saver) {
        match *self {
            Op::Alu { cycles } => {
                w.u8(0);
                w.u32(cycles);
            }
            Op::Mem { site, kind } => {
                w.u8(1);
                w.u16(site);
                kind.save(w);
            }
            Op::Branch {
                site,
                taken_pc,
                reconv_pc,
            } => {
                w.u8(2);
                w.u16(site);
                w.u32(taken_pc);
                w.u32(reconv_pc);
            }
        }
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
        *self = match r.u8()? {
            0 => Op::Alu { cycles: r.u32()? },
            1 => {
                let site = r.u16()?;
                let mut kind = MemKind::Load;
                kind.load(r)?;
                Op::Mem { site, kind }
            }
            2 => Op::Branch {
                site: r.u16()?,
                taken_pc: r.u32()?,
                reconv_pc: r.u32()?,
            },
            _ => return Err(CodecError::Corrupt("unknown opcode")),
        };
        Ok(())
    }
}

impl Codec for Program {
    fn save(&self, w: &mut Saver) {
        w.usize(self.ops.len());
        for op in &self.ops {
            op.save(w);
        }
    }
    /// Re-checks the structural invariants [`Program::new`] asserts, so a
    /// corrupt stream surfaces as [`CodecError::Corrupt`] instead of a
    /// panic.
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
        let len = r.usize()?;
        let mut ops = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            let mut op = Op::Alu { cycles: 0 };
            op.load(r)?;
            ops.push(op);
        }
        let end = ops.len() as u32;
        for (pc, op) in ops.iter().enumerate() {
            if let Op::Branch {
                taken_pc,
                reconv_pc,
                ..
            } = *op
            {
                if taken_pc > end || reconv_pc > end || reconv_pc <= pc as u32 {
                    return Err(CodecError::Corrupt("malformed branch targets"));
                }
            }
        }
        *self = Program::new(ops);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_counts_sites() {
        let p = Program::new(vec![
            Op::Mem {
                site: 0,
                kind: MemKind::Load,
            },
            Op::Branch {
                site: 3,
                taken_pc: 3,
                reconv_pc: 3,
            },
            Op::Alu { cycles: 1 },
        ]);
        assert_eq!(p.num_sites(), 4);
        assert_eq!(p.end_pc(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "beyond end")]
    fn branch_target_validated() {
        let _ = Program::new(vec![Op::Branch {
            site: 0,
            taken_pc: 9,
            reconv_pc: 1,
        }]);
    }

    #[test]
    #[should_panic(expected = "after the branch")]
    fn reconv_must_follow_branch() {
        let _ = Program::new(vec![
            Op::Alu { cycles: 1 },
            Op::Branch {
                site: 0,
                taken_pc: 0,
                reconv_pc: 1,
            },
        ]);
    }

    #[test]
    fn loops_encode_as_backward_branches() {
        // body; branch(back to 0 if continuing, reconv = 2) ; tail
        let p = Program::new(vec![
            Op::Alu { cycles: 1 },
            Op::Branch {
                site: 0,
                taken_pc: 0,
                reconv_pc: 2,
            },
            Op::Alu { cycles: 1 },
        ]);
        match p.op(1) {
            Op::Branch { taken_pc, .. } => assert!(taken_pc < 1),
            _ => panic!("expected branch"),
        }
    }
}
