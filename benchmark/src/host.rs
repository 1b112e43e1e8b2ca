//! The host's speed, sampled while a phase is measured, so that a time
//! can be reported as it would read on a host of fixed speed.
//!
//! The container's two virtual CPUs share a physical machine with other
//! tenants. The CPU time one fixed piece of work needs moves by ±15 %
//! from minute to minute and by a third between extremes, and the
//! program's latency moves with it (correlation 0.94 over forty 1.5 s
//! windows). No amount of repetition inside a 15 s run averages that
//! out: the drift is slower than the run. So every phase that is timed
//! is accompanied by a background sampler which runs a calibration unit
//! every 50 ms and notes its *thread CPU time*; the phase's `host.speed`
//! is the reference cost of the unit divided by the median sample, and
//! timed end-to-end figures are scaled by it. Raw figures are printed
//! beside them as `<name>.raw`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::report::median;

/// CPU milliseconds one calibration unit takes on the reference host —
/// by definition: about what this container needs on a quiet minute.
const REFERENCE_UNIT_MS: f64 = 1.5;

const SAMPLE_EVERY: Duration = Duration::from_millis(50);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    /// glibc's `clock_gettime`; `std` links libc.
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// CPU time this thread has consumed, nanoseconds. Unlike wall time it
/// does not grow while the thread is preempted — the sampler shares its
/// CPU with the mesh under test.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // 64-bit Linux, matching `Timespec`), and the clock id is valid.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One calibration unit, shaped like the program's own work: format,
/// hash, sort and drop a few thousand short IRIs. Returns its CPU cost
/// in milliseconds.
fn calibration_unit() -> f64 {
    let began = thread_cpu_ns();
    let mut set = std::collections::HashSet::new();
    let mut rows = Vec::with_capacity(4000);
    for i in 0..4000u32 {
        let iri = format!(
            "http://example.org/univ/d{}/student{}",
            i % 97,
            i.wrapping_mul(2_654_435_761) % 1009
        );
        set.insert(iri.clone());
        rows.push(iri);
    }
    rows.sort();
    std::hint::black_box((&rows, &set));
    (thread_cpu_ns() - began) as f64 / 1e6
}

/// Samples the host's speed in the background from [`Sampler::start`]
/// until [`Sampler::speed`].
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = vec![calibration_unit()];
            // Relaxed: the flag publishes no other data.
            while !seen.load(Ordering::Relaxed) {
                std::thread::sleep(SAMPLE_EVERY);
                samples.push(calibration_unit());
            }
            samples
        });
        Sampler { stop, handle }
    }

    /// Stops sampling. Above 1 the host ran faster than the reference
    /// while the sampler was up, below 1 slower.
    pub fn speed(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self
            .handle
            .join()
            .expect("the sampler thread does not panic");
        REFERENCE_UNIT_MS / median(&samples)
    }
}
