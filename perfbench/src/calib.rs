//! Machine-speed calibration for the end-to-end times.
//!
//! The virtual machines this benchmark runs on drift in speed by up to 1.5×
//! over tens of minutes, as neighbours come and go; processor time drifts
//! with wall time (the slowdown is in the processor, not stolen time), so
//! neither clock alone can tell a slower program from a slower machine. So
//! while a workload runs, a sampler thread runs a fixed kernel — code that
//! no change to the repository can touch — every [`INTERVAL`], timing each
//! run in the sampler thread's own processor time (so waiting for a core
//! behind the workload's threads does not count). The end-to-end times are
//! then reported at a fixed reference speed: as measured, times
//! [`REFERENCE_MS`] over the kernel's median.
//!
//! The kernel mixes what the workloads spend their time on: building and
//! searching a string-keyed tree (allocation, comparison, pointer-heavy
//! data like the compiler's) and a dependent random walk over a buffer
//! larger than a core's private caches (like the simulator's memory).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The kernel's median processor time on the reference machine (2-vCPU
/// Xeon virtual machine, quiet): the speed every end-to-end time is
/// reported at.
pub const REFERENCE_MS: f64 = 3.35;

/// Pause between two kernel runs of the sampler.
const INTERVAL: Duration = Duration::from_millis(50);

/// Entries of the kernel's tree.
const TREE: u32 = 800;

/// Words in the kernel's random-walk buffer (4 MiB) and steps of the walk.
const WALK_WORDS: usize = 1 << 20;
const WALK_STEPS: usize = 20_000;

/// The calibration of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    /// Kernel runs timed.
    pub samples: usize,
    /// Their median processor time, in milliseconds.
    pub kernel_ms: f64,
}

impl Speed {
    /// What a time measured in this run reads at the reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / self.kernel_ms
    }
}

/// Run `f` with the sampler running beside it; its result and the run's
/// calibration.
pub fn during<R>(f: impl FnOnce() -> R) -> (R, Speed) {
    let done = AtomicBool::new(false);
    let walk = walk_buffer();
    let (result, times) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut times = Vec::new();
            // At least one sample, however short `f` is.
            loop {
                times.push(kernel_ms(&walk));
                if done.load(Ordering::Relaxed) {
                    break times;
                }
                std::thread::sleep(INTERVAL);
            }
        });
        let result = f();
        done.store(true, Ordering::Relaxed);
        (result, sampler.join().expect("calibration sampler thread"))
    });
    let speed = Speed {
        samples: times.len(),
        kernel_ms: crate::summary::median(&times),
    };
    (result, speed)
}

/// A single-cycle permutation of the buffer's indices (Sattolo's
/// algorithm, fixed seed), so the walk visits every word before repeating.
fn walk_buffer() -> Vec<u32> {
    let mut next: Vec<u32> = (0..WALK_WORDS as u32).collect();
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    for i in (1..WALK_WORDS).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

/// One kernel run, in the calling thread's processor time (ms).
fn kernel_ms(walk: &[u32]) -> f64 {
    let start = thread_cpu_ns();
    let mut tree = BTreeMap::new();
    for i in 0..TREE {
        let key = format!("k{:08x}", i.wrapping_mul(0x9e37_79b9));
        tree.insert(key, vec![i; 6]);
    }
    let mut hits = 0u32;
    for i in 0..TREE {
        let key = format!("k{:08x}", i.wrapping_mul(0x9e37_79b9) ^ 1);
        hits += u32::from(tree.contains_key(&key));
    }
    black_box((tree, hits));
    let mut at = 0u32;
    for _ in 0..WALK_STEPS {
        at = walk[at as usize];
    }
    black_box(at);
    (thread_cpu_ns() - start) as f64 / 1e6
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock id for the calling thread's processor time.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// The calling thread's processor time, in nanoseconds. The standard
/// library offers only wall clocks, hence the C library call.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and CLOCK_THREAD_CPUTIME_ID is a clock every Linux kernel
    // since 2.6.12 supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_one_cycle_over_every_word() {
        let walk = walk_buffer();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = walk[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, WALK_WORDS);
    }

    #[test]
    fn processor_time_counts_work_not_sleep() {
        let t = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(30));
        assert!(thread_cpu_ns() - t < 10_000_000, "sleeping is not work");
        let walk = walk_buffer();
        assert!(kernel_ms(&walk) > 0.0);
    }

    #[test]
    fn a_short_run_still_gets_a_sample() {
        let (value, speed) = during(|| 7);
        assert_eq!(value, 7);
        assert!(speed.samples >= 1 && speed.kernel_ms > 0.0);
        assert!((speed.scale() * speed.kernel_ms - REFERENCE_MS).abs() < 1e-9);
    }
}
