//! The in-tree hasher for the crate's internal tables.
//!
//! Every table keyed by a dense handle (`TermId`, `VarId`, `Lit`, a gate,
//! a term node) uses [`FxHasher`]: FxHash's multiply-rotate step, one step
//! per integer written. std's default SipHash is built to resist inputs
//! chosen by an attacker, which these keys are not, and costs several
//! times more per probe. The tables are only ever probed, never iterated
//! into an answer, so the choice of hasher cannot reach a verdict, a model
//! or a counter.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash: `h = (h.rotl(5) ^ word) · K` per word. Fast and well spread in
/// the high bits; not collision-resistant, so it never keys the query
/// cache (that is [`crate::cache::TermKey`]'s two-lane stream). Every
/// unsigned integer write is one step; std's signed writes forward to
/// them.
#[derive(Clone, Copy, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn step(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(Self::K);
    }
}

/// Feeds `bytes` to `word` eight at a time; a short tail is packed with
/// its length in the top byte, so streams of different lengths differ.
#[inline]
pub(crate) fn write_words(bytes: &[u8], mut word: impl FnMut(u64)) {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        word(u64::from_le_bytes(c.try_into().expect("eight bytes")));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut buf = [0u8; 8];
        buf[..tail.len()].copy_from_slice(tail);
        word(u64::from_le_bytes(buf) | (tail.len() as u64) << 56);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        write_words(bytes, |w| self.step(w));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.step(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.step(i as u64);
        self.step((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.step(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FxHasher`]s for the std collections.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed by [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn fx(v: impl Hash) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn integers_take_one_step_and_bytes_are_length_tagged() {
        let mut one = FxHasher::default();
        one.write_u32(7);
        let mut by_word = FxHasher::default();
        by_word.write_u64(7);
        assert_eq!(one.finish(), by_word.finish());
        // A zero-padded tail must not alias a longer stream.
        let (mut a, mut b) = (FxHasher::default(), FxHasher::default());
        a.write(b"ab");
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
        assert_ne!(fx(1u64), fx(2u64));
        assert_ne!(fx((1u32, 2u32)), fx((2u32, 1u32)));
    }
}
