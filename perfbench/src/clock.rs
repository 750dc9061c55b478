//! Host time: wall clock and this process's CPU time.
//!
//! The gated end-to-end times are process CPU time (`CLOCK_PROCESS_CPUTIME_ID`:
//! every thread of the process, user and system). On a virtual machine that
//! shares its host, wall time also counts the time the host runs other
//! guests instead of this one; with paravirtual steal-time accounting the
//! kernel leaves that time out of CPU time. Wall time is printed beside it.

use std::time::Instant;

// `Timespec` below is the 64-bit Linux layout of `struct timespec`, and
// `/proc/stat` is Linux's.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux clocks and /proc: build it for 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far, all threads (live and ended).
///
/// # Panics
/// If the clock cannot be read.
#[must_use]
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and process CPU seconds of one interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Spent {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds, all threads.
    pub cpu_s: f64,
}

/// A started interval.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Start now.
    #[must_use]
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Time since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Spent {
        Spent {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu_s,
        }
    }

    /// Time from this start to a later one.
    #[must_use]
    pub fn until(&self, later: &Stopwatch) -> Spent {
        Spent {
            wall_s: (later.wall - self.wall).as_secs_f64(),
            cpu_s: later.cpu_s - self.cpu_s,
        }
    }

    /// Wall seconds since [`Stopwatch::start`] (no CPU clock read).
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

/// Host-wide CPU ticks from `/proc/stat`: (steal, all).
fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let all = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, all))
}

/// Share of all vCPU time the host gave to other guests since
/// [`StealMeter::start`].
#[derive(Debug, Clone, Copy)]
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    /// Start now.
    #[must_use]
    pub fn start() -> StealMeter {
        StealMeter(steal_ticks())
    }

    /// The steal share so far, if `/proc/stat` reports it.
    #[must_use]
    pub fn share(&self) -> Option<f64> {
        let (steal0, all0) = self.0?;
        let (steal1, all1) = steal_ticks()?;
        let all = all1.checked_sub(all0)?;
        (all > 0).then(|| steal1.saturating_sub(steal0) as f64 / all as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_counts_work_and_not_sleep() {
        let watch = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = watch.elapsed();
        assert!(slept.wall_s >= 0.05);
        assert!(slept.cpu_s < 0.04, "sleeping used {} CPU s", slept.cpu_s);

        let watch = Stopwatch::start();
        let mut x = 0u64;
        while watch.wall_s() < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        assert!(watch.elapsed().cpu_s > 0.0);
    }
}
