//! The yardstick: a fixed piece of work that reads the speed of the host at
//! the moment it runs.
//!
//! This VM's speed moves by 20–30 % over minutes, in CPU time as much as in
//! wall time and with no steal time reported: what moves is the memory side
//! (a register-only loop moves by 3 %, page-faulting and allocating code by
//! 25–30 %, the workloads by 20–25 %). So the harness runs this yardstick
//! between the timed subprocesses and reports each host time multiplied by
//! [`REFERENCE_S`] over the yardstick's median of that run: seconds as they
//! would read on the host at its reference speed.
//!
//! The yardstick uses nothing of the repo, so a change to the program under
//! test cannot move it, and it runs in a process of its own (this binary in
//! `--yardstick` mode) so that, like the program, it starts on a fresh
//! address space and pays for its own page faults.

use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// First argument of the yardstick mode of this binary.
pub const FLAG: &str = "--yardstick";

/// A round figure at the slow end of what the yardstick reads on this host
/// when it is quiet (0.17–0.20 s). Only a scale: it keeps a normalised time
/// near the raw one.
pub const REFERENCE_S: f64 = 0.2;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Three parts of about 0.06 s each on this host: a register-only
/// loop (clock speed), random increments into a fresh 64 MiB table (page
/// faults and memory latency), and many small vectors hashed and sorted
/// (allocator and caches) — the mix the miners are made of.
fn work() -> f64 {
    let start = Instant::now();
    let mut s = 88172645463325252u64;

    let mut acc = 0u64;
    for _ in 0..1u32 << 25 {
        acc ^= xorshift(&mut s);
    }
    std::hint::black_box(acc);

    let mut table = vec![0u32; 1 << 24];
    for _ in 0..1u32 << 21 {
        let i = (xorshift(&mut s) >> 40) as usize;
        table[i] = table[i].wrapping_add(1);
    }
    std::hint::black_box(&table);
    drop(table);

    let mut counts: HashMap<Vec<u32>, u64> = HashMap::new();
    for _ in 0..150_000 {
        let key = vec![
            (xorshift(&mut s) % 300) as u32,
            (xorshift(&mut s) % 300) as u32,
            (xorshift(&mut s) % 7) as u32,
        ];
        *counts.entry(key).or_insert(0) += 1;
    }
    let mut sorted: Vec<_> = counts.into_iter().collect();
    sorted.sort();
    std::hint::black_box(&sorted);
    drop(sorted);

    start.elapsed().as_secs_f64()
}

/// `--yardstick`: do the work and print how long it took.
pub fn main_mode() {
    println!("{}", work());
}

/// One reading: the yardstick in a process of its own, the caller blocked
/// until it has exited.
pub fn read() -> std::io::Result<f64> {
    let out = Command::new(std::env::current_exe()?)
        .arg(FLAG)
        .stdin(Stdio::null())
        .output()?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| std::io::Error::other("the yardstick printed no time"))
}

/// `raw_s` as it would read on the host at its reference speed, given the
/// yardstick's reading at the time `raw_s` was taken.
pub fn normalised(raw_s: f64, yardstick_s: f64) -> f64 {
    raw_s * REFERENCE_S / yardstick_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalising_divides_the_host_speed_out() {
        // A host 25 % slow reads the yardstick and the program 25 % high.
        let quiet = normalised(0.8, REFERENCE_S);
        let slow = normalised(0.8 * 1.25, REFERENCE_S * 1.25);
        assert!((quiet - 0.8).abs() < 1e-12);
        assert!((slow - quiet).abs() < 1e-12);
    }

    #[test]
    fn the_work_takes_measurable_time() {
        assert!(work() > 0.0);
    }
}
