//! The benchmark's only window onto real time and `/proc`.
//!
//! `upanns-lint` bans `Instant` outside `crates/runtime/` so that the model
//! crates can never observe the wall clock. A benchmark has to, so every
//! wall-clock and `/proc` read of the harness lives in this one file, each
//! site carrying its own reasoned directive; the rest of the harness sees
//! only `f64` seconds from [`now_s`].

use std::sync::OnceLock;
// lint: allow(no-wall-clock, reason = "the benchmark's host clock; host time is what it measures")
use std::time::Instant;

// lint: allow(no-wall-clock, reason = "process-start anchor that every host-clock reading is relative to")
static START: OnceLock<Instant> = OnceLock::new();

/// Host seconds since the first call in this process (`main` calls it first,
/// so in practice: since process start).
pub fn now_s() -> f64 {
    // lint: allow(no-wall-clock, reason = "the one place the harness reads the wall clock")
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now_s();
    let out = f();
    (out, now_s() - start)
}

/// Calibration bursts per second in the machine state the committed
/// baseline is expressed in (its most common state while the benchmark was
/// written). One *calibrated* second is one wall second there.
const REFERENCE_RATE: f64 = 60.0;

/// How a piece of this repository's code slows down when the calibration
/// kernel slows down by a factor `s`: by `s` to this power. Fitted on 400
/// rounds of kernel / engine call / index search / k-means training taken
/// over an hour in which the kernel's rate wandered over a factor of 2.5:
/// the fits gave 0.6 (`UpAnnsEngine::execute` on long lists) to 0.9
/// (`IvfPqIndex::search`), and at 0.8 the medians of ten consecutive rounds
/// stayed within 7-15 % of each other for every one of them, against
/// 40-75 % uncalibrated and 11-24 % at 1.0.
const SENSITIVITY: f64 = 0.8;

/// The calibration kernel's fixed input.
struct Calibration {
    table: Vec<f32>,
    codes: Vec<u8>,
}

/// One burst (about 17 ms) of the calibration kernel; returns the machine's
/// speed during it as the factor a host time measured next to it is
/// multiplied by to become a *calibrated* time.
///
/// The sandbox this benchmark runs in executes one binary on one seed at
/// speeds a factor of 2.5 apart, wandering from second to second and from
/// minute to minute — wider than any regression worth catching, and not
/// visible in steal time or CPU time. The kernel is a fixed piece of work
/// of the benchmark's own, sharing no code with the repository, so its rate
/// tracks the machine and not the program under test: it gathers a 16 x 256
/// `f32` table through 64 KiB of byte codes, the shape of an ADC scan,
/// in-cache and bound by the core. (A pointer chase through 4 MiB, tried
/// beside it, predicted nothing the gather did not: what wanders is the
/// core's speed, not the memory's.) The correction is partial by
/// construction — a burst sees 17 ms of a machine that changes within a
/// 300 ms engine call — so a reading is the median of many pieces, each
/// calibrated by the bursts right around it.
pub fn calibration_burst() -> f64 {
    const CODES: usize = 64 * 1024;
    const M: usize = 16;
    const PASSES: usize = 650;
    static INPUT: OnceLock<Calibration> = OnceLock::new();
    let input = INPUT.get_or_init(|| {
        // A fixed LCG: the input only has to be the same every time.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        };
        let table = (0..M * 256)
            .map(|_| (next() % 1_000) as f32 * 1e-3)
            .collect();
        let codes = (0..CODES).map(|_| next() as u8).collect();
        Calibration { table, codes }
    });
    let start = now_s();
    let mut sum = 0.0f32;
    for _ in 0..PASSES {
        for vector in input.codes.chunks_exact(M) {
            let mut distance = 0.0f32;
            for (sub, &code) in vector.iter().enumerate() {
                distance += input.table[sub * 256 + usize::from(code)];
            }
            sum += distance;
        }
    }
    std::hint::black_box(sum);
    let rate = 1.0 / (now_s() - start);
    (rate / REFERENCE_RATE).powf(SENSITIVITY)
}

/// Kernel clock ticks per second. `/proc/self/stat` counts CPU time in
/// these; Linux has reported 100 on every architecture since 2.6.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has consumed, or
/// `None` where `/proc` is unavailable.
pub fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The second field (comm) may contain spaces; fields are stable after
    // its closing parenthesis: state is field 3, utime 14, stime 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) of this process in MiB, or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_and_proc_is_readable() {
        let a = now_s();
        let (_, dt) = timed(|| std::hint::black_box((0..10_000u64).sum::<u64>()));
        assert!(dt >= 0.0);
        assert!(now_s() >= a);
        assert!(cpu_s().is_some_and(|c| c >= 0.0));
        assert!(peak_rss_mb().is_some_and(|m| m > 0.0));
    }
}
