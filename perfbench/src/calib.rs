//! Host-speed calibration for the end-to-end timings.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent within a minute, which would swamp the changes it exists to
//! measure. So every timed region is bracketed by a fixed calibration
//! kernel, owned by the benchmark and never changed with the simulator,
//! whose mix of work resembles the simulator's: random reads and writes
//! over a table larger than the private caches, an 8-way set search in a
//! cache-sized array, and hash-map churn like an MSHR file. A region's
//! host seconds are rescaled to a machine where the kernel takes
//! [`NOMINAL_REF_S`]:
//!
//! `normalized = raw × NOMINAL_REF_S / mean(kernel time before, after)`.
//!
//! A change that speeds the simulator up lowers the normalized time just
//! as it lowers the raw time; a machine that slows both down leaves it
//! nearly unchanged.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds the calibration kernel takes on an unloaded host of the
/// machine type the benchmark was defined on (2.1 GHz x86-64).
pub const NOMINAL_REF_S: f64 = 0.013;

const ITERATIONS: u64 = 150_000;
/// Kernel runs per thread in one reading; the reading is their median, so
/// one disturbed run does not skew it.
const RUNS: usize = 3;
const BIG_WORDS: usize = 1 << 20; // 8 MiB
const SMALL_WORDS: usize = 1 << 13; // 64 KiB
const WAYS: usize = 8;
const CHURN: usize = 64;

/// One thread's calibration state, allocated and touched once so the
/// timed kernel never pays for page faults.
struct Tables {
    big: Vec<u64>,
    small: Vec<u64>,
    map: HashMap<u64, u64>,
    ring: Vec<u64>,
}

impl Tables {
    fn new() -> Self {
        Self {
            big: vec![1; BIG_WORDS],
            small: vec![0; SMALL_WORDS],
            map: HashMap::with_capacity(2 * CHURN),
            ring: vec![0; CHURN],
        }
    }

    /// Seconds each of [`RUNS`] runs of the kernel takes.
    fn timed_runs(&mut self) -> Vec<f64> {
        (0..RUNS)
            .map(|_| {
                let t = Instant::now();
                self.kernel();
                t.elapsed().as_secs_f64()
            })
            .collect()
    }

    /// The calibration kernel: a fixed amount of work, deterministic
    /// apart from the hash map's per-process seed.
    fn kernel(&mut self) {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut acc = 0u64;
        for n in 0..ITERATIONS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 30) as usize & (BIG_WORDS - 1);
            self.big[i] = self.big[i].wrapping_add(n);
            let set = ((x >> 20) as usize & (SMALL_WORDS / WAYS - 1)) * WAYS;
            let tag = x >> 58;
            match self.small[set..set + WAYS].iter().position(|&t| t == tag) {
                Some(w) => acc = acc.wrapping_add(w as u64),
                None => self.small[set + (n as usize % WAYS)] = tag,
            }
            let slot = n as usize % CHURN;
            self.map.remove(&self.ring[slot]);
            self.ring[slot] = x >> 40;
            self.map.insert(x >> 40, n);
            acc ^= self.big[acc as usize & (BIG_WORDS - 1)];
        }
        black_box(acc);
    }
}

/// Host-seconds of one timed region: as read, and normalized.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Seconds as read from the clock.
    pub raw_s: f64,
    /// Seconds at the nominal calibration speed.
    pub norm_s: f64,
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, other: Timed) {
        self.raw_s += other.raw_s;
        self.norm_s += other.norm_s;
    }
}

/// Brackets timed regions with the calibration kernel, run on as many
/// threads at once as the measured code uses.
pub struct Calibration {
    tables: Vec<Tables>,
    last_ref_s: f64,
    /// Every kernel reading taken, in seconds.
    pub readings: Vec<f64>,
}

impl Calibration {
    /// Allocates the kernel's tables for `threads` threads and takes a
    /// first reference reading.
    pub fn new(threads: usize) -> Self {
        let mut c = Self {
            tables: (0..threads.max(1)).map(|_| Tables::new()).collect(),
            last_ref_s: 0.0,
            readings: Vec::new(),
        };
        c.last_ref_s = c.reference_s();
        c
    }

    /// Bytes the calibration tables keep resident (so memory metrics can
    /// leave them out).
    pub fn resident_bytes(&self) -> usize {
        self.tables.len() * (BIG_WORDS + SMALL_WORDS) * 8
    }

    /// One reading: the median time of one kernel run, over [`RUNS`]
    /// runs on every thread at once (on the calling thread when there is
    /// one).
    fn reference_s(&mut self) -> f64 {
        let mut runs: Vec<f64> = match self.tables.as_mut_slice() {
            [tables] => tables.timed_runs(),
            all => std::thread::scope(|s| {
                let handles: Vec<_> = all
                    .iter_mut()
                    .map(|tables| s.spawn(|| tables.timed_runs()))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("calibration thread panicked"))
                    .collect()
            }),
        };
        runs.sort_by(f64::total_cmp);
        let secs = runs[runs.len() / 2];
        self.readings.push(secs);
        secs
    }

    /// Runs `f`, returning its result with its raw and normalized host
    /// seconds. The reading after `f` is reused as the next region's
    /// reading before it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.last_ref_s;
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        self.last_ref_s = self.reference_s();
        let speed = NOMINAL_REF_S / ((before + self.last_ref_s) / 2.0);
        (
            out,
            Timed {
                raw_s,
                norm_s: raw_s * speed,
            },
        )
    }
}
