//! The machine's speed, from a fixed loop the client times between items.
//!
//! The test machine runs the same code at speeds up to 1.7 times apart,
//! in phases of seconds to minutes that no run is long enough to average
//! away (see `README.md`). So at every pause the client times a fixed
//! loop of the benchmark's own, on the CPU it is about to run on: an
//! in-cache part, which a slower core slows, and a walk through main
//! memory, which a busier memory system slows. The end-to-end times are
//! scaled by how fast that loop ran in the run:
//! they read as if the whole run had gone at the speed at which the loop
//! takes [`REFERENCE`]. The loop runs none of the program's code, so a
//! change to the program moves the scaled times as much as the measured
//! ones.

use alive2_testgen::rng::Rng64;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// About the loop's median time on the test machine (two vCPUs of a KVM
/// guest on a 2.1 GHz Xeon), so that scaled times read close to measured
/// ones there.
pub const REFERENCE: Duration = Duration::from_micros(6_000);

/// Entries of the cycle the in-cache part walks: 1 MiB of `u32`, which a
/// core's L2 cache holds once it is warm.
const SMALL: usize = 1 << 18;

/// Entries of the cycle the memory part walks: 16 MiB of `u32`, so that
/// nearly every step waits for main memory.
const LARGE: usize = 1 << 22;

/// The loop's times over one session.
pub struct Probe {
    small: Vec<u32>,
    large: Vec<u32>,
    times: Vec<f64>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            small: cycle(SMALL, 1),
            large: cycle(LARGE, 2),
            times: Vec::new(),
        }
    }

    /// Runs the loop once and keeps its time. The in-cache part runs once
    /// untimed first: otherwise what the item before left in the caches
    /// would decide how long it takes.
    pub fn sample(&mut self) {
        std::hint::black_box(in_cache(&self.small));
        let t = Instant::now();
        std::hint::black_box(in_cache(&self.small) ^ walk(&self.large, 30_000));
        self.times.push(t.elapsed().as_secs_f64());
    }

    /// The loop's median time so far.
    pub fn speed(&self) -> Speed {
        let mut v = self.times.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median_s = match n {
            0 => return Speed::default(),
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        Speed { loops: n, median_s }
    }
}

/// How fast the loop ran in a session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Speed {
    pub loops: usize,
    pub median_s: f64,
}

/// No loop timed: the reference speed, so nothing is scaled.
impl Default for Speed {
    fn default() -> Speed {
        Speed {
            loops: 0,
            median_s: REFERENCE.as_secs_f64(),
        }
    }
}

impl Speed {
    /// [`REFERENCE`] over the loop's median time: below 1 when the
    /// machine ran slower than that.
    pub fn factor(&self) -> f64 {
        REFERENCE.as_secs_f64() / self.median_s
    }
}

/// A time of `secs` seconds at the reference speed. `waited` of it was
/// spent waiting out a pair's limit, which is wall-clock time by
/// definition and stays as it is; the rest is scaled by `factor`.
pub fn at_reference(secs: f64, waited: f64, factor: f64) -> f64 {
    (secs - waited) * factor + waited
}

/// A random cyclic permutation of `0..len` (Sattolo's shuffle): a walk
/// from any entry visits every entry before it returns, so it never
/// settles into a few cache lines.
fn cycle(len: usize, seed: u64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..len as u32).collect();
    let mut rng = Rng64::seed_from_u64(seed);
    for i in (1..len).rev() {
        next.swap(i, rng.range_usize(0, i));
    }
    next
}

/// `steps` dependent loads along the cycle.
fn walk(cycle: &[u32], steps: usize) -> u64 {
    let (mut acc, mut j) = (0u64, 0u32);
    for _ in 0..steps {
        j = cycle[j as usize];
        acc = acc.wrapping_add(u64::from(j));
    }
    acc
}

/// The in-cache part: a walk of the small cycle (dependent loads, as in
/// the SAT solver's clause and watch lists), a hash map of small vectors
/// (allocation and hashing, as in building and hash-consing terms), and
/// data-dependent branches.
fn in_cache(small: &[u32]) -> u64 {
    let mut acc = walk(small, 60_000);
    let mut map: HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..3_000u64 {
        map.entry(i.wrapping_mul(0x9e37) % 1_500)
            .or_default()
            .push(i as u32);
    }
    for i in 0..3_000u64 {
        acc = acc.wrapping_add(map.get(&(i % 1_700)).map_or(0, |v| v.len() as u64));
    }
    let mut x = acc | 1;
    for _ in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += u64::from(x & 3 == 0);
    }
    acc ^ x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_walk_visits_every_entry_before_it_returns() {
        let next = cycle(1_000, 7);
        let (mut j, mut steps) = (next[0], 1);
        while j != 0 {
            j = next[j as usize];
            steps += 1;
        }
        assert_eq!(steps, 1_000);
        assert_eq!(walk(&next, 1_000), (0..1_000u64).sum::<u64>());
    }

    #[test]
    fn the_factor_scales_what_was_not_waited_out() {
        let mut p = Probe::new();
        assert_eq!(p.speed().factor(), 1.0, "no loop timed: no scaling");
        p.times = vec![0.1, 0.005, 0.004];
        let speed = p.speed();
        assert_eq!(speed.median_s, 0.005);
        assert!((speed.factor() - 1.2).abs() < 1e-12);
        assert!((at_reference(3.0, 1.0, 0.5) - 2.0).abs() < 1e-12);
        assert_eq!(at_reference(1.0, 1.0, 0.5), 1.0);
        p.sample();
        assert_eq!(p.speed().loops, 4);
    }
}
