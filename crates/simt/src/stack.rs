//! Per-warp SIMT reconvergence stacks.
//!
//! The baseline divergence mechanism (Section 8: "SIMD architectures
//! have supported divergent branch execution by masking vector lanes and
//! stack reconvergence"). Each warp owns a stack of `(pc, reconvergence
//! pc, active mask)` entries; a divergent branch turns the current entry
//! into the reconvergence entry and pushes one child per taken path.
//! Children pop when they reach their reconvergence pc; execution of the
//! merged mask resumes there. Backward (loop) branches fall out of the
//! same mechanism: exiting threads simply wait in the ancestor entry.

/// One stack level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEntry {
    /// Next pc this entry will execute.
    pub pc: u32,
    /// Reconvergence pc: when `pc` reaches it, the entry pops.
    pub rpc: u32,
    /// Active lanes (bit per lane).
    pub mask: u32,
}

/// A warp's reconvergence stack.
///
/// # Examples
///
/// ```
/// use gmmu_simt::stack::SimtStack;
/// // 4 active lanes, program of length 10.
/// let mut s = SimtStack::new(0b1111, 10);
/// let (pc, mask) = s.current().unwrap();
/// assert_eq!((pc, mask), (0, 0b1111));
/// // Lanes 0-1 take a branch at pc 0 to pc 5; reconverge at 8.
/// s.branch(0b0011, 5, 1, 8);
/// assert_eq!(s.current().unwrap(), (5, 0b0011)); // taken side first
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimtStack {
    entries: Vec<StackEntry>,
}

impl SimtStack {
    /// Creates a stack for a warp whose active lanes are `mask`,
    /// executing a program that ends at `end_pc`.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is zero.
    pub fn new(mask: u32, end_pc: u32) -> Self {
        assert!(mask != 0, "a warp needs at least one active lane");
        Self {
            entries: vec![StackEntry {
                pc: 0,
                rpc: end_pc,
                mask,
            }],
        }
    }

    /// The pc and mask to execute next, or `None` when the warp is done.
    pub fn current(&self) -> Option<(u32, u32)> {
        self.entries.last().map(|e| (e.pc, e.mask))
    }

    /// Whether every lane has finished the program.
    pub fn is_done(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current stack depth (diagnostics).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    fn maybe_pop(&mut self) {
        while let Some(top) = self.entries.last() {
            if top.pc == top.rpc {
                self.entries.pop();
            } else {
                break;
            }
        }
    }

    /// Advances past a non-branch instruction to `next_pc`.
    ///
    /// # Panics
    ///
    /// Panics if the warp is already done.
    pub fn advance(&mut self, next_pc: u32) {
        let top = self.entries.last_mut().expect("advance on finished warp");
        top.pc = next_pc;
        self.maybe_pop();
    }

    /// Executes a branch at the current pc: lanes in `taken` (intersected
    /// with the active mask) jump to `taken_pc`, the rest fall through to
    /// `fall_pc`; both re-join at `reconv_pc`.
    ///
    /// # Panics
    ///
    /// Panics if the warp is already done.
    pub fn branch(&mut self, taken: u32, taken_pc: u32, fall_pc: u32, reconv_pc: u32) {
        if let Some(pc) = self.branch_target(taken, taken_pc, fall_pc, reconv_pc) {
            self.advance(pc);
            return;
        }
        let top = self.entries.last_mut().expect("branch on finished warp");
        let t = taken & top.mask;
        let n = top.mask & !t;
        // Divergent: the current entry becomes the reconvergence entry.
        top.pc = reconv_pc;
        let rpc_redundant = top.pc == top.rpc && self.entries.len() > 1;
        if rpc_redundant {
            // The ancestor already waits at this reconvergence point with
            // a superset mask (loop-exit case); drop the redundant level
            // so loop iteration does not grow the stack.
            self.entries.pop();
        }
        if fall_pc != reconv_pc {
            self.entries.push(StackEntry {
                pc: fall_pc,
                rpc: reconv_pc,
                mask: n,
            });
        }
        if taken_pc != reconv_pc {
            self.entries.push(StackEntry {
                pc: taken_pc,
                rpc: reconv_pc,
                mask: t,
            });
        }
        self.maybe_pop();
    }

    /// The pc the current entry moves to when a branch with outcome
    /// `taken` pushes no child: every active lane goes the same way, or
    /// both paths start at the reconvergence pc. `None` when it pushes
    /// one.
    fn branch_target(
        &self,
        taken: u32,
        taken_pc: u32,
        fall_pc: u32,
        reconv_pc: u32,
    ) -> Option<u32> {
        let top = self.entries.last().expect("branch on finished warp");
        let t = taken & top.mask;
        if t == 0 {
            Some(fall_pc)
        } else if t == top.mask {
            Some(taken_pc)
        } else {
            (fall_pc == reconv_pc && taken_pc == reconv_pc).then_some(reconv_pc)
        }
    }

    /// Whether [`SimtStack::advance`] to `next_pc` would finish the
    /// warp: the current entry reaches its reconvergence pc and every
    /// entry below it already waits at its own.
    pub fn advance_finishes(&self, next_pc: u32) -> bool {
        self.entries
            .split_last()
            .is_some_and(|(top, rest)| next_pc == top.rpc && rest.iter().all(|e| e.pc == e.rpc))
    }

    /// Whether [`SimtStack::branch`] with these arguments would finish
    /// the warp.
    pub fn branch_finishes(&self, taken: u32, taken_pc: u32, fall_pc: u32, reconv_pc: u32) -> bool {
        self.branch_target(taken, taken_pc, fall_pc, reconv_pc)
            .is_some_and(|pc| self.advance_finishes(pc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_execution_finishes() {
        let mut s = SimtStack::new(0xf, 3);
        for pc in 1..=3 {
            assert!(!s.is_done());
            s.advance(pc);
        }
        assert!(s.is_done());
        assert_eq!(s.current(), None);
    }

    #[test]
    fn if_else_executes_both_paths_then_reconverges() {
        // 0: branch (taken → 3), 1-2: else, 3-4: then... layout:
        //   0 branch(t→3, reconv 5); 1,2 = else path; 3,4 = then path; 5 = join
        let mut s = SimtStack::new(0b1111, 6);
        s.branch(0b0011, 3, 1, 5);
        // Taken side first.
        assert_eq!(s.current().unwrap(), (3, 0b0011));
        s.advance(4);
        s.advance(5); // reaches reconv → pop to else side
        assert_eq!(s.current().unwrap(), (1, 0b1100));
        s.advance(2);
        s.advance(5); // pop to reconvergence entry
        assert_eq!(s.current().unwrap(), (5, 0b1111));
        s.advance(6);
        assert!(s.is_done());
    }

    #[test]
    fn uniform_branches_do_not_push() {
        let mut s = SimtStack::new(0xff, 10);
        s.branch(0xff, 4, 1, 6); // all taken
        assert_eq!(s.depth(), 1);
        assert_eq!(s.current().unwrap(), (4, 0xff));
        s.advance(5);
        s.advance(6);
        s.branch(0, 2, 7, 9); // none taken
        assert_eq!(s.current().unwrap(), (7, 0xff));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn loop_with_divergent_trip_counts() {
        // 0: body ; 1: branch(taken → 0 = continue, reconv 2) ; 2: tail
        let mut s = SimtStack::new(0b111, 3);
        let trips = [1u32, 3, 2]; // per-lane loop iterations
        let mut executed_body = [0u32; 3];
        let mut guard = 0;
        while !s.is_done() {
            guard += 1;
            assert!(guard < 100, "loop did not terminate");
            let (pc, mask) = s.current().unwrap();
            match pc {
                0 => {
                    for (lane, n) in executed_body.iter_mut().enumerate() {
                        if mask & (1 << lane) != 0 {
                            *n += 1;
                        }
                    }
                    s.advance(1);
                }
                1 => {
                    // Lane continues while it has trips left.
                    let mut taken = 0u32;
                    for lane in 0..3 {
                        if mask & (1 << lane) != 0 && executed_body[lane] < trips[lane] {
                            taken |= 1 << lane;
                        }
                    }
                    s.branch(taken, 0, 2, 2);
                }
                2 => {
                    // Tail executes once with the full mask.
                    assert_eq!(mask, 0b111);
                    s.advance(3);
                }
                other => panic!("unexpected pc {other}"),
            }
        }
        assert_eq!(executed_body, trips);
    }

    #[test]
    fn loop_iteration_does_not_grow_the_stack() {
        let mut s = SimtStack::new(0b11, 3);
        // Lane 0 exits after 1 trip, lane 1 loops 50 times.
        let mut counts = [0u32; 2];
        let trips = [1u32, 50];
        let mut max_depth = 0;
        while !s.is_done() {
            let (pc, mask) = s.current().unwrap();
            max_depth = max_depth.max(s.depth());
            match pc {
                0 => {
                    for (lane, n) in counts.iter_mut().enumerate() {
                        if mask & (1 << lane) != 0 {
                            *n += 1;
                        }
                    }
                    s.advance(1);
                }
                1 => {
                    let mut taken = 0;
                    for lane in 0..2 {
                        if mask & (1 << lane) != 0 && counts[lane] < trips[lane] {
                            taken |= 1 << lane;
                        }
                    }
                    s.branch(taken, 0, 2, 2);
                }
                _ => s.advance(3),
            }
        }
        assert_eq!(counts, trips);
        assert!(max_depth <= 2, "stack grew with iterations: {max_depth}");
    }

    #[test]
    fn nested_divergence() {
        // 0: br A (t→4, r 8); 1: br B (t→3, r 4); 2: ...; layout:
        //  0: branch outer (taken→4, reconv 8)
        //  1: branch inner (taken→3, reconv 4)   [else path of outer]
        //  2: inner-else ; 3: inner-then ; 4..7 outer-then/join etc; 8 end-join
        let mut s = SimtStack::new(0b1111, 9);
        s.branch(0b0011, 4, 1, 8); // outer: lanes 0,1 → 4; lanes 2,3 → 1
        assert_eq!(s.current().unwrap(), (4, 0b0011));
        // Taken side walks 4..8.
        for pc in 5..=8 {
            s.advance(pc);
        }
        // Now the else side at pc 1 runs the inner branch.
        assert_eq!(s.current().unwrap(), (1, 0b1100));
        s.branch(0b0100, 3, 2, 4); // lane 2 → 3; lane 3 → 2
        assert_eq!(s.current().unwrap(), (3, 0b0100));
        s.advance(4); // inner-taken reaches inner reconv
        assert_eq!(s.current().unwrap(), (2, 0b1000));
        s.advance(3);
        s.advance(4); // inner reconverged
        assert_eq!(s.current().unwrap(), (4, 0b1100));
        for pc in 5..=8 {
            s.advance(pc);
        }
        // Everything reconverges at 8 with the full mask.
        assert_eq!(s.current().unwrap(), (8, 0b1111));
        s.advance(9);
        assert!(s.is_done());
    }

    #[test]
    fn every_lane_executes_its_path_exactly_once() {
        // Count per-lane executions through an if/else and assert each
        // lane saw exactly one path plus the join.
        let mut s = SimtStack::new(0b1111, 4);
        // 0: branch (t→2, reconv 3); 1: else; 2: then; 3: join
        let mut then_hits = 0u32;
        let mut else_hits = 0u32;
        let mut join = 0u32;
        s.branch(0b0101, 2, 1, 3);
        while !s.is_done() {
            let (pc, mask) = s.current().unwrap();
            match pc {
                1 => {
                    else_hits |= mask;
                    s.advance(3);
                }
                2 => {
                    then_hits |= mask;
                    s.advance(3);
                }
                3 => {
                    join |= mask;
                    s.advance(4);
                }
                other => panic!("unexpected pc {other}"),
            }
        }
        assert_eq!(then_hits, 0b0101);
        assert_eq!(else_hits, 0b1010);
        assert_eq!(join, 0b1111);
        assert_eq!(then_hits & else_hits, 0);
    }

    #[test]
    fn finish_predictions_match_the_outcome() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut finished_by = [0u32; 2];
        for _ in 0..500 {
            let mut s = SimtStack::new(0b1111, 8);
            while let Some((pc, _)) = s.current() {
                let r = rand();
                let mut next = s.clone();
                // Forward targets within the current entry's
                // reconvergence pc, so every run ends.
                let rpc = s.entries.last().unwrap().rpc;
                if r % 3 == 0 || pc + 1 >= rpc {
                    next.advance(pc + 1);
                    assert_eq!(s.advance_finishes(pc + 1), next.is_done());
                    finished_by[0] += u32::from(next.is_done());
                } else {
                    let taken = (r >> 8) as u32 & 0b1111;
                    let taken_pc = pc + 1 + (r >> 16) as u32 % (rpc - pc);
                    let reconv_pc = taken_pc + (r >> 24) as u32 % (rpc - taken_pc + 1);
                    next.branch(taken, taken_pc, pc + 1, reconv_pc);
                    let predicted = s.branch_finishes(taken, taken_pc, pc + 1, reconv_pc);
                    assert_eq!(predicted, next.is_done(), "{s:?} -> {next:?}");
                    finished_by[1] += u32::from(next.is_done());
                }
                s = next;
            }
        }
        assert!(finished_by.iter().all(|&n| n > 0), "{finished_by:?}");
    }

    #[test]
    #[should_panic(expected = "at least one active lane")]
    fn empty_mask_rejected() {
        let _ = SimtStack::new(0, 4);
    }
}
