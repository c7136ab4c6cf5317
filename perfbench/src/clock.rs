//! The benchmark's host clocks.
//!
//! Host timings are read off the process CPU clock, not the wall clock.
//! On a shared host the wall clock also counts time the benchmark was
//! ready to run but had no core: other tenants' work and hypervisor
//! steal, which drift by tens of percent over minutes and swamp any
//! change in the program. The process CPU clock counts only the time
//! the benchmark's own threads ran, summed over the engine's worker
//! threads, including those that have already exited; a guest kernel
//! that accounts steal time leaves stolen time out of it too. It still
//! moves when other tenants contend for caches and memory. A host time
//! here is the host work an operation costs, not its wall-clock latency.
//!
//! The wall clock is still read for what needs it: the `--seconds`
//! budget, span timelines, and the engine speedup (serial against
//! parallel), which only wall time can show.

use std::time::Instant;

/// A reading of both host clocks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    /// The wall clock.
    pub wall: Instant,
    /// Process CPU seconds.
    cpu: f64,
}

impl Stamp {
    /// Read both clocks.
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// Process CPU seconds from `earlier` to `self`.
    pub fn cpu_since(&self, earlier: &Stamp) -> f64 {
        self.cpu - earlier.cpu
    }

    /// Wall seconds from `earlier` to `self`.
    pub fn wall_since(&self, earlier: &Stamp) -> f64 {
        (self.wall - earlier.wall).as_secs_f64()
    }
}

/// CPU seconds this process has used, from `CLOCK_PROCESS_CPUTIME_ID`
/// (the benchmark runs on Linux; it reads `/proc` as well).
#[allow(unsafe_code)]
fn process_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2; // Linux's id
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call; an unknown clock id fails with EINVAL and writes nothing.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_while_busy() {
        let t0 = Stamp::now();
        let mut t1 = t0;
        while t1.cpu_since(&t0) < 0.01 {
            assert!(t1.wall_since(&t0) < 10.0, "the CPU clock stands still");
            t1 = Stamp::now();
        }
    }
}
