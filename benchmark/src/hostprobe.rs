//! The host-speed reference.
//!
//! The benchmark runs on a small shared virtual machine whose speed moves
//! by half again for seconds to minutes at a time, whatever the program
//! does: back-to-back runs of identical work differ by 20–40%, far more
//! than the 10% regressions the bounds are meant to catch. So the harness
//! times a fixed kernel of its own next to the work — string-keyed B-tree
//! inserts and 128-bit integer arithmetic, the instruction mix of the
//! program's exact-rational geometry — while the program is idle, and
//! divides every duration by how much slower than [`REFERENCE_NS`] the
//! kernel ran around it. Durations are therefore reported in microseconds
//! of the quiet reference host. The kernel is part of the harness, so no
//! change to the program can move it.

use std::collections::BTreeMap;
use std::time::Instant;

/// What [`probe`] takes on the 2-core reference host when it is quiet.
pub const REFERENCE_NS: f64 = 200_000.0;

/// Probes per burst; a burst is about 10 ms.
const BURST: usize = 31;

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.abs()
}

/// One run of the fixed kernel, in nanoseconds.
pub fn probe() -> u64 {
    let start = Instant::now();
    let mut map: BTreeMap<String, Vec<i128>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..600 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(format!("R{:05}", x % 3000))
            .or_default()
            .push(i128::from(x) * 7919 + i);
    }
    let mut acc = 0i128;
    for (key, values) in &map {
        for v in values {
            acc += gcd(*v, 1_000_003 + key.len() as i128);
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as u64
}

/// The median of a burst of probes, in nanoseconds. Call it only while
/// the program under test is idle, so it measures the host and not the
/// program's own use of the cores.
pub fn burst() -> f64 {
    let mut times: Vec<u64> = (0..BURST).map(|_| probe()).collect();
    times.sort_unstable();
    times[BURST / 2] as f64
}

/// How much slower than the reference the host ran between two bursts.
pub fn factor(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / REFERENCE_NS
}

/// Time `f` between two bursts: its result, and its duration in seconds of
/// the reference host.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = burst();
    let start = Instant::now();
    let out = f();
    let raw = start.elapsed().as_secs_f64();
    (out, raw / factor(before, burst()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_one_at_reference_speed() {
        assert_eq!(factor(REFERENCE_NS, REFERENCE_NS), 1.0);
        assert_eq!(factor(REFERENCE_NS, 2.0 * REFERENCE_NS), 1.5);
    }

    #[test]
    fn timed_divides_by_the_host_factor() {
        let (value, secs) = timed(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            7
        });
        assert_eq!(value, 7);
        // whatever the host's speed, a 20 ms sleep cannot normalise to
        // less than a tenth or more than ten times itself
        assert!(secs > 0.002 && secs < 0.2, "{secs}");
        assert!(burst() > 0.0);
    }
}
