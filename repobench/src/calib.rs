//! Times scaled to a reference speed of the machine.
//!
//! The machine is a small virtual machine on a shared host, and its
//! speed drifts by tens of percent over minutes, program and all: over
//! five minutes of identical calls on the reference machine, the fastest
//! call in each 25-second window ranged over 38 % of its median (IQR)
//! for the figure point, the study and the trip table alike. No amount
//! of repetition inside a run removes that, because a whole run can fall
//! in a slow stretch. So the benchmark times a fixed kernel of its own
//! right before and after every call into the program, and reports each
//! call's time divided by the kernel's time at that moment (the median
//! of those ratios over the run's passes), times [`REFERENCE_S`], the
//! kernel's time on the reference machine: seconds at the reference
//! machine's speed. Over the same five minutes, scaled by a kernel of
//! the same two parts, the windows' median ratios ranged over 4–7 %
//! (IQR) of their median. The kernel is the
//! benchmark's code, not the program's, so no change to the program
//! moves it; the raw seconds stay in the report line.
//!
//! The kernel does the kinds of work a simulation call does: a
//! pseudo-random walk with data-dependent branches, writes and a
//! logarithm per step over a table in fresh pages, then building and
//! walking a hash map of small vectors, as compiling a model does.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::host::process_cpu_seconds;

/// The kernel's wall time on the reference machine in a fast stretch
/// (see `README.md`, "Reference speed").
pub const REFERENCE_S: f64 = 0.025;

/// Steps of the random walk.
const WALK_STEPS: u64 = 1_000_000;
/// Entries of the table it walks (512 KiB of `u64`).
const WALK_TABLE: usize = 1 << 16;
/// Entries of the hash map, and how many times it is built: small, so
/// the kernel adds little to the process's peak resident set.
const MAP_ENTRIES: u64 = 5_000;
const MAP_BUILDS: usize = 8;

/// One run of the kernel; its wall time.
pub fn kernel() -> f64 {
    let start = Instant::now();
    let mut table = vec![0u64; WALK_TABLE];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0.0f64;
    for _ in 0..WALK_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (WALK_TABLE - 1);
        let v = table[i];
        if v & 1 == 0 {
            table[i] = v.wrapping_add(x >> 7);
        } else {
            table[(i ^ 0x55) & (WALK_TABLE - 1)] ^= x;
        }
        acc -= (((x >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)).ln();
    }
    black_box((acc, table));
    for _ in 0..MAP_BUILDS {
        let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
        for i in 0..MAP_ENTRIES {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            map.insert(x >> 20, vec![i; 1 + (x % 13) as usize]);
        }
        black_box(map.iter().fold(0u64, |s, (k, v)| s ^ k ^ v.len() as u64));
    }
    start.elapsed().as_secs_f64()
}

/// The kernel's median wall time over `runs` runs.
pub fn kernel_median(runs: usize) -> f64 {
    let times: Vec<f64> = (0..runs).map(|_| kernel()).collect();
    crate::stats::median(&times).unwrap_or(f64::NAN)
}

/// One timed call into the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall seconds.
    pub wall: f64,
    /// Process CPU seconds.
    pub cpu: f64,
    /// The kernel's wall seconds around the call: the mean of a run
    /// right before and one right after.
    pub reference: f64,
}

impl Sample {
    /// Wall seconds at the reference machine's speed.
    pub fn wall_at_reference(&self) -> f64 {
        at_reference_speed(self.wall, self.reference)
    }

    /// CPU seconds at the reference machine's speed.
    pub fn cpu_at_reference(&self) -> f64 {
        at_reference_speed(self.cpu, self.reference)
    }
}

/// Times consecutive calls, each between two readings of the kernel (a
/// reading after one call is the reading before the next).
pub struct Meter {
    before: f64,
    /// Kernel runs per reading, their median taken.
    runs: usize,
}

impl Meter {
    /// Takes the first reading, of `runs` kernel runs. One run suits
    /// short calls; a call of seconds, timed once per pass, gets a
    /// steadier reading from several.
    pub fn new(runs: usize) -> Meter {
        Meter {
            before: kernel_median(runs),
            runs,
        }
    }

    /// Runs `f` and takes a reading after it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let cpu = process_cpu_seconds();
        let t = Instant::now();
        let value = f();
        let wall = t.elapsed().as_secs_f64();
        let cpu = process_cpu_seconds() - cpu;
        let after = kernel_median(self.runs);
        let reference = (self.before + after) / 2.0;
        self.before = after;
        (
            value,
            Sample {
                wall,
                cpu,
                reference,
            },
        )
    }
}

/// `seconds` measured while the kernel took `reference` seconds, scaled
/// to the reference machine's speed.
pub fn at_reference_speed(seconds: f64, reference: f64) -> f64 {
    seconds * REFERENCE_S / reference
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_kernels_slowdown() {
        // A call that took 3 s while the kernel ran at half speed took
        // 1.5 s at the reference speed.
        let s = at_reference_speed(3.0, 2.0 * REFERENCE_S);
        assert!((s - 1.5).abs() < 1e-12);
        let sample = Sample {
            wall: 1.0,
            cpu: 0.5,
            reference: REFERENCE_S,
        };
        assert_eq!(sample.wall_at_reference(), 1.0);
        assert_eq!(sample.cpu_at_reference(), 0.5);
    }

    #[test]
    fn meter_pairs_each_call_with_the_kernel_around_it() {
        let mut meter = Meter::new(1);
        let (v, s) = meter.time(|| 7);
        assert_eq!(v, 7);
        assert!(s.reference > 0.0 && s.wall >= 0.0 && s.cpu >= 0.0);
    }
}
