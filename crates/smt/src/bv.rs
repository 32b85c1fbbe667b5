//! Fixed-width, arbitrary-precision bit-vector values.
//!
//! [`BitVec`] is the concrete value domain shared by the SMT term language,
//! the bit-blaster, model evaluation, and IR constant folding. Semantics
//! follow SMT-LIB's `QF_BV` theory (and therefore LLVM's wrapping integer
//! semantics): all arithmetic is modulo `2^width`, `udiv`/`urem` by zero are
//! total (`all-ones` / dividend), and `sdiv`/`srem` truncate toward zero.

use std::fmt;

/// A bit-vector value with a fixed width of at least one bit.
///
/// Bits beyond `width` are kept zero (a canonical form), so `Eq` and `Hash`
/// can be derived structurally.
///
/// # Examples
///
/// ```
/// use alive2_smt::bv::BitVec;
///
/// let a = BitVec::from_u64(8, 250);
/// let b = BitVec::from_u64(8, 10);
/// assert_eq!(a.add(&b), BitVec::from_u64(8, 4)); // wraps mod 2^8
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    width: u32,
    /// Little-endian 64-bit words; always exactly `words_for(width)` long.
    words: Words,
}

fn words_for(width: u32) -> usize {
    ((width as usize) + 63) / 64
}

/// The words of a [`BitVec`]: inline up to two (128 bits, which covers
/// the integer, float and pointer widths of typical IR), so building or
/// copying such a value allocates nothing; on the heap beyond. Compares
/// and hashes as its word slice.
#[derive(Clone)]
enum Words {
    Inline(u8, [u64; 2]),
    Heap(Box<[u64]>),
}

impl Words {
    fn zeroed(n: usize) -> Words {
        if n <= 2 {
            Words::Inline(n as u8, [0; 2])
        } else {
            Words::Heap(vec![0; n].into_boxed_slice())
        }
    }

    fn copy_of(src: &[u64]) -> Words {
        let mut w = Words::zeroed(src.len());
        w.copy_from_slice(src);
        w
    }
}

impl std::ops::Deref for Words {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Words::Inline(n, w) => &w[..*n as usize],
            Words::Heap(w) => w,
        }
    }
}

impl std::ops::DerefMut for Words {
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Words::Inline(n, w) => &mut w[..*n as usize],
            Words::Heap(w) => w,
        }
    }
}

impl PartialEq for Words {
    fn eq(&self, other: &Words) -> bool {
        **self == **other
    }
}

impl Eq for Words {}

impl std::hash::Hash for Words {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        (**self).hash(h);
    }
}

impl<'a> IntoIterator for &'a Words {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl BitVec {
    /// Creates a zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn zero(width: u32) -> Self {
        assert!(width > 0, "bit-vector width must be positive");
        BitVec {
            width,
            words: Words::zeroed(words_for(width)),
        }
    }

    /// Creates the value 1 of the given width.
    pub fn one(width: u32) -> Self {
        Self::from_u64(width, 1)
    }

    /// Creates the all-ones value (i.e. `-1` / `UMAX`) of the given width.
    pub fn all_ones(width: u32) -> Self {
        let mut v = Self::zero(width);
        for w in v.words.iter_mut() {
            *w = u64::MAX;
        }
        v.canonicalize();
        v
    }

    /// Creates a value from the low bits of `val`, truncated to `width`.
    pub fn from_u64(width: u32, val: u64) -> Self {
        let mut v = Self::zero(width);
        v.words[0] = val;
        v.canonicalize();
        v
    }

    /// Creates a value from `val` interpreted in two's complement.
    pub fn from_i64(width: u32, val: i64) -> Self {
        let mut v = Self::zero(width);
        let ext = if val < 0 { u64::MAX } else { 0 };
        for (i, w) in v.words.iter_mut().enumerate() {
            *w = if i == 0 { val as u64 } else { ext };
        }
        v.canonicalize();
        v
    }

    /// Creates a value from `val` interpreted in two's complement.
    pub fn from_i128(width: u32, val: i128) -> Self {
        let mut v = Self::zero(width);
        let ext = if val < 0 { u64::MAX } else { 0 };
        for (i, w) in v.words.iter_mut().enumerate() {
            *w = match i {
                0 => val as u64,
                1 => (val >> 64) as u64,
                _ => ext,
            };
        }
        v.canonicalize();
        v
    }

    /// Creates a value from little-endian words, truncated to `width`.
    pub fn from_words(width: u32, src: &[u64]) -> Self {
        let mut v = Self::zero(width);
        for (dst, s) in v.words.iter_mut().zip(src) {
            *dst = *s;
        }
        v.canonicalize();
        v
    }

    /// Creates a value from bits, least significant first.
    pub fn from_bits(bits: &[bool]) -> Self {
        assert!(!bits.is_empty(), "bit-vector width must be positive");
        let mut v = Self::zero(bits.len() as u32);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.words[i / 64] |= 1u64 << (i % 64);
            }
        }
        v
    }

    /// The signed minimum value (`100...0`).
    pub fn min_signed(width: u32) -> Self {
        let mut v = Self::zero(width);
        v.set_bit(width - 1, true);
        v
    }

    /// The signed maximum value (`011...1`).
    pub fn max_signed(width: u32) -> Self {
        let mut v = Self::all_ones(width);
        v.set_bit(width - 1, false);
        v
    }

    fn canonicalize(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << rem) - 1;
        }
    }

    /// Width of this value in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The little-endian 64-bit words backing this value.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reads bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: u32) -> bool {
        assert!(i < self.width);
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i` (0 = least significant).
    pub fn set_bit(&mut self, i: u32, val: bool) {
        assert!(i < self.width);
        let w = (i / 64) as usize;
        let mask = 1u64 << (i % 64);
        if val {
            self.words[w] |= mask;
        } else {
            self.words[w] &= !mask;
        }
    }

    /// The sign bit (most significant bit).
    pub fn sign_bit(&self) -> bool {
        self.bit(self.width - 1)
    }

    /// True if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if this is the value 1.
    pub fn is_one(&self) -> bool {
        self.words[0] == 1 && self.words[1..].iter().all(|&w| w == 0)
    }

    /// True if every bit is one.
    pub fn is_all_ones(&self) -> bool {
        *self == Self::all_ones(self.width)
    }

    /// The low 64 bits of the value.
    pub fn to_u64(&self) -> u64 {
        self.words[0]
    }

    /// The value as an `i64`, sign-extended from `width`. Widths above 64
    /// truncate to the low word (a lossy conversion either way).
    pub fn to_i64(&self) -> i64 {
        if self.width >= 64 {
            self.words[0] as i64
        } else if self.sign_bit() {
            (self.words[0] | !((1u64 << self.width) - 1)) as i64
        } else {
            self.words[0] as i64
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of leading (most significant) zero bits.
    pub fn leading_zeros(&self) -> u32 {
        for i in (0..self.width).rev() {
            if self.bit(i) {
                return self.width - 1 - i;
            }
        }
        self.width
    }

    /// Number of trailing (least significant) zero bits.
    pub fn trailing_zeros(&self) -> u32 {
        for i in 0..self.width {
            if self.bit(i) {
                return i;
            }
        }
        self.width
    }

    /// True if the value is a power of two (exactly one set bit).
    pub fn is_power_of_two(&self) -> bool {
        self.count_ones() == 1
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Self {
        let mut r = self.clone();
        for w in r.words.iter_mut() {
            *w = !*w;
        }
        r.canonicalize();
        r
    }

    /// Bitwise AND.
    pub fn and(&self, rhs: &Self) -> Self {
        self.zip(rhs, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(&self, rhs: &Self) -> Self {
        self.zip(rhs, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, rhs: &Self) -> Self {
        self.zip(rhs, |a, b| a ^ b)
    }

    fn zip(&self, rhs: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.width, rhs.width, "width mismatch");
        let mut r = self.clone();
        for (a, b) in r.words.iter_mut().zip(&rhs.words) {
            *a = f(*a, *b);
        }
        r.canonicalize();
        r
    }

    /// Wrapping addition.
    pub fn add(&self, rhs: &Self) -> Self {
        assert_eq!(self.width, rhs.width, "width mismatch");
        let mut r = Self::zero(self.width);
        let mut carry = 0u64;
        for i in 0..r.words.len() {
            let (s1, c1) = self.words[i].overflowing_add(rhs.words[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            r.words[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        r.canonicalize();
        r
    }

    /// Wrapping subtraction.
    pub fn sub(&self, rhs: &Self) -> Self {
        self.add(&rhs.neg())
    }

    /// Two's complement negation.
    pub fn neg(&self) -> Self {
        self.not().add(&Self::one(self.width))
    }

    /// Wrapping multiplication.
    pub fn mul(&self, rhs: &Self) -> Self {
        assert_eq!(self.width, rhs.width, "width mismatch");
        let n = self.words.len();
        let mut acc = Words::zeroed(n);
        for i in 0..n {
            let mut carry = 0u128;
            for j in 0..n - i {
                let cur =
                    acc[i + j] as u128 + (self.words[i] as u128) * (rhs.words[j] as u128) + carry;
                acc[i + j] = cur as u64;
                carry = cur >> 64;
            }
        }
        let mut r = BitVec {
            width: self.width,
            words: acc,
        };
        r.canonicalize();
        r
    }

    /// Unsigned comparison `self < rhs`.
    pub fn ult(&self, rhs: &Self) -> bool {
        assert_eq!(self.width, rhs.width, "width mismatch");
        for i in (0..self.words.len()).rev() {
            if self.words[i] != rhs.words[i] {
                return self.words[i] < rhs.words[i];
            }
        }
        false
    }

    /// Unsigned comparison `self <= rhs`.
    pub fn ule(&self, rhs: &Self) -> bool {
        !rhs.ult(self)
    }

    /// Signed comparison `self < rhs`.
    pub fn slt(&self, rhs: &Self) -> bool {
        match (self.sign_bit(), rhs.sign_bit()) {
            (true, false) => true,
            (false, true) => false,
            _ => self.ult(rhs),
        }
    }

    /// Signed comparison `self <= rhs`.
    pub fn sle(&self, rhs: &Self) -> bool {
        !rhs.slt(self)
    }

    /// Unsigned division; division by zero yields all-ones (SMT-LIB).
    pub fn udiv(&self, rhs: &Self) -> Self {
        if rhs.is_zero() {
            return Self::all_ones(self.width);
        }
        self.udivrem(rhs).0
    }

    /// Unsigned remainder; remainder by zero yields the dividend (SMT-LIB).
    pub fn urem(&self, rhs: &Self) -> Self {
        if rhs.is_zero() {
            return self.clone();
        }
        self.udivrem(rhs).1
    }

    fn udivrem(&self, rhs: &Self) -> (Self, Self) {
        debug_assert!(!rhs.is_zero());
        let mut quot = Self::zero(self.width);
        let mut rem = Self::zero(self.width);
        for i in (0..self.width).rev() {
            rem = rem.shl_amount(1);
            rem.set_bit(0, self.bit(i));
            if rhs.ule(&rem) {
                rem = rem.sub(rhs);
                quot.set_bit(i, true);
            }
        }
        (quot, rem)
    }

    /// Signed division truncating toward zero; by-zero follows SMT-LIB's
    /// `bvsdiv` totalization: `x sdiv 0 = x < 0 ? 1 : -1`. `INT_MIN sdiv -1`
    /// wraps back to `INT_MIN` (the `neg()` calls below are modular).
    pub fn sdiv(&self, rhs: &Self) -> Self {
        if rhs.is_zero() {
            return if self.sign_bit() {
                Self::one(self.width)
            } else {
                Self::all_ones(self.width)
            };
        }
        let (sa, sb) = (self.sign_bit(), rhs.sign_bit());
        let a = if sa { self.neg() } else { self.clone() };
        let b = if sb { rhs.neg() } else { rhs.clone() };
        let q = a.udiv(&b);
        if sa != sb {
            q.neg()
        } else {
            q
        }
    }

    /// Signed remainder (sign follows the dividend); by-zero yields the
    /// dividend (SMT-LIB bvsrem totalization).
    pub fn srem(&self, rhs: &Self) -> Self {
        if rhs.is_zero() {
            return self.clone();
        }
        let sa = self.sign_bit();
        let a = if sa { self.neg() } else { self.clone() };
        let b = if rhs.sign_bit() {
            rhs.neg()
        } else {
            rhs.clone()
        };
        let r = a.urem(&b);
        if sa {
            r.neg()
        } else {
            r
        }
    }

    fn shl_amount(&self, amt: u32) -> Self {
        let mut r = Self::zero(self.width);
        for i in amt..self.width {
            if self.bit(i - amt) {
                r.set_bit(i, true);
            }
        }
        r
    }

    /// Logical shift left; shifts `>= width` yield zero.
    pub fn shl(&self, amt: &Self) -> Self {
        match amt.shift_amount(self.width) {
            None => Self::zero(self.width),
            Some(a) => self.shl_amount(a),
        }
    }

    /// Logical shift right; shifts `>= width` yield zero.
    pub fn lshr(&self, amt: &Self) -> Self {
        match amt.shift_amount(self.width) {
            None => Self::zero(self.width),
            Some(a) => {
                let mut r = Self::zero(self.width);
                for i in 0..self.width - a {
                    if self.bit(i + a) {
                        r.set_bit(i, true);
                    }
                }
                r
            }
        }
    }

    /// Arithmetic shift right; shifts `>= width` yield 0 or all-ones
    /// depending on the sign bit.
    pub fn ashr(&self, amt: &Self) -> Self {
        let sign = self.sign_bit();
        let fill = |r: &mut Self, from: u32| {
            if sign {
                for i in from..r.width {
                    r.set_bit(i, true);
                }
            }
        };
        match amt.shift_amount(self.width) {
            None => {
                let mut r = Self::zero(self.width);
                fill(&mut r, 0);
                r
            }
            Some(a) => {
                let mut r = self.lshr(amt);
                fill(&mut r, self.width - a);
                r
            }
        }
    }

    /// Interprets `self` as a shift amount: `Some(a)` if `a < bound`.
    fn shift_amount(&self, bound: u32) -> Option<u32> {
        if self.words[1..].iter().any(|&w| w != 0) || self.words[0] >= bound as u64 {
            None
        } else {
            Some(self.words[0] as u32)
        }
    }

    /// Zero-extends to `new_width`.
    ///
    /// # Panics
    ///
    /// Panics if `new_width < width`.
    pub fn zext(&self, new_width: u32) -> Self {
        assert!(new_width >= self.width);
        let mut r = Self::zero(new_width);
        for (dst, src) in r.words.iter_mut().zip(&self.words) {
            *dst = *src;
        }
        r
    }

    /// Sign-extends to `new_width`.
    pub fn sext(&self, new_width: u32) -> Self {
        assert!(new_width >= self.width);
        let mut r = self.zext(new_width);
        if self.sign_bit() {
            for i in self.width..new_width {
                r.set_bit(i, true);
            }
        }
        r
    }

    /// Truncates to the low `new_width` bits.
    pub fn trunc(&self, new_width: u32) -> Self {
        assert!(new_width <= self.width && new_width > 0);
        let mut r = BitVec {
            width: new_width,
            words: Words::copy_of(&self.words[..words_for(new_width)]),
        };
        r.canonicalize();
        r
    }

    /// Extracts bits `[lo, hi]` inclusive (SMT-LIB `extract`).
    pub fn extract(&self, hi: u32, lo: u32) -> Self {
        assert!(hi >= lo && hi < self.width);
        let mut r = Self::zero(hi - lo + 1);
        for i in lo..=hi {
            if self.bit(i) {
                r.set_bit(i - lo, true);
            }
        }
        r
    }

    /// Concatenation: `self` becomes the high bits (SMT-LIB `concat`).
    pub fn concat(&self, low: &Self) -> Self {
        let mut r = low.zext(self.width + low.width);
        for i in 0..self.width {
            if self.bit(i) {
                r.set_bit(low.width + i, true);
            }
        }
        r
    }

    /// Byte-swaps the value.
    ///
    /// # Panics
    ///
    /// Panics if the width is not a multiple of 8.
    pub fn bswap(&self) -> Self {
        assert_eq!(self.width % 8, 0, "bswap requires a whole number of bytes");
        let nbytes = self.width / 8;
        let mut r = Self::zero(self.width);
        for b in 0..nbytes {
            let src = self.extract(b * 8 + 7, b * 8);
            for i in 0..8 {
                if src.bit(i) {
                    r.set_bit((nbytes - 1 - b) * 8 + i, true);
                }
            }
        }
        r
    }

    /// Reverses the bit order of the value.
    pub fn bitreverse(&self) -> Self {
        let mut r = Self::zero(self.width);
        for i in 0..self.width {
            if self.bit(i) {
                r.set_bit(self.width - 1 - i, true);
            }
        }
        r
    }

    /// Rotates left by `amt % width` bits.
    pub fn rotl(&self, amt: u32) -> Self {
        let a = amt % self.width;
        let mut r = Self::zero(self.width);
        for i in 0..self.width {
            if self.bit(i) {
                r.set_bit((i + a) % self.width, true);
            }
        }
        r
    }

    /// True if `self + rhs` overflows unsigned.
    pub fn uadd_overflows(&self, rhs: &Self) -> bool {
        self.add(rhs).ult(self)
    }

    /// True if `self + rhs` overflows signed.
    pub fn sadd_overflows(&self, rhs: &Self) -> bool {
        let r = self.add(rhs);
        self.sign_bit() == rhs.sign_bit() && r.sign_bit() != self.sign_bit()
    }

    /// True if `self - rhs` overflows unsigned (i.e. `self < rhs`).
    pub fn usub_overflows(&self, rhs: &Self) -> bool {
        self.ult(rhs)
    }

    /// True if `self - rhs` overflows signed.
    pub fn ssub_overflows(&self, rhs: &Self) -> bool {
        let r = self.sub(rhs);
        self.sign_bit() != rhs.sign_bit() && r.sign_bit() != self.sign_bit()
    }

    /// True if `self * rhs` overflows unsigned.
    pub fn umul_overflows(&self, rhs: &Self) -> bool {
        let wide = self.zext(self.width * 2).mul(&rhs.zext(self.width * 2));
        !wide.extract(self.width * 2 - 1, self.width).is_zero()
    }

    /// True if `self * rhs` overflows signed.
    pub fn smul_overflows(&self, rhs: &Self) -> bool {
        let wide = self.sext(self.width * 2).mul(&rhs.sext(self.width * 2));
        let narrow = wide.trunc(self.width).sext(self.width * 2);
        wide != narrow
    }

    /// Formats as a hexadecimal string without a leading `0x`.
    pub fn to_hex(&self) -> String {
        let mut s = String::new();
        let nibbles = (self.width + 3) / 4;
        for n in (0..nibbles).rev() {
            let lo = n * 4;
            let hi = (lo + 3).min(self.width - 1);
            let v = self.extract(hi, lo).to_u64();
            s.push(std::char::from_digit(v as u32, 16).unwrap());
        }
        s
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bv{}(0x{})", self.width, self.to_hex())
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width <= 64 {
            write!(f, "{}", self.to_u64())
        } else {
            write!(f, "0x{}", self.to_hex())
        }
    }
}

impl fmt::LowerHex for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_canonical_form() {
        let v = BitVec::from_u64(4, 0xff);
        assert_eq!(v.to_u64(), 0xf);
        assert_eq!(BitVec::from_i64(8, -1), BitVec::all_ones(8));
        assert_eq!(BitVec::from_i64(128, -1), BitVec::all_ones(128));
        assert!(BitVec::zero(7).is_zero());
        assert!(BitVec::one(7).is_one());
    }

    #[test]
    #[should_panic]
    fn zero_width_panics() {
        BitVec::zero(0);
    }

    #[test]
    fn add_sub_wraps() {
        let w = 8;
        for (a, b) in [(200u64, 100u64), (255, 1), (0, 0), (127, 127)] {
            let x = BitVec::from_u64(w, a);
            let y = BitVec::from_u64(w, b);
            assert_eq!(x.add(&y).to_u64(), (a + b) & 0xff);
            assert_eq!(x.sub(&y).to_u64(), a.wrapping_sub(b) & 0xff);
        }
    }

    #[test]
    fn wide_arithmetic_carries_across_words() {
        let a = BitVec::from_words(128, &[u64::MAX, 0]);
        let one = BitVec::one(128);
        let sum = a.add(&one);
        assert_eq!(sum.words(), &[0, 1]);
        assert_eq!(sum.sub(&one), a);
    }

    #[test]
    fn mul_matches_u64() {
        for (a, b) in [(3u64, 7u64), (0xff, 0xff), (1 << 20, 1 << 21)] {
            let x = BitVec::from_u64(32, a);
            let y = BitVec::from_u64(32, b);
            assert_eq!(x.mul(&y).to_u64(), a.wrapping_mul(b) & 0xffff_ffff);
        }
    }

    #[test]
    fn division_matches_u64_and_i64() {
        for (a, b) in [(100i64, 7i64), (-100, 7), (100, -7), (-100, -7), (7, 100)] {
            let x = BitVec::from_i64(16, a);
            let y = BitVec::from_i64(16, b);
            assert_eq!(x.sdiv(&y).to_i64(), a / b, "{a} sdiv {b}");
            assert_eq!(x.srem(&y).to_i64(), a % b, "{a} srem {b}");
        }
        let x = BitVec::from_u64(16, 50000);
        let y = BitVec::from_u64(16, 123);
        assert_eq!(x.udiv(&y).to_u64(), 50000 / 123);
        assert_eq!(x.urem(&y).to_u64(), 50000 % 123);
    }

    #[test]
    fn division_by_zero_totalization() {
        let x = BitVec::from_u64(8, 42);
        let z = BitVec::zero(8);
        assert_eq!(x.udiv(&z), BitVec::all_ones(8));
        assert_eq!(x.urem(&z), x);
        assert_eq!(x.sdiv(&z), BitVec::all_ones(8));
        assert_eq!(BitVec::from_i64(8, -42).sdiv(&z), BitVec::one(8));
        assert_eq!(x.srem(&z), x);
    }

    #[test]
    fn shifts() {
        let x = BitVec::from_u64(8, 0b1001_0110);
        assert_eq!(x.shl(&BitVec::from_u64(8, 2)).to_u64(), 0b0101_1000);
        assert_eq!(x.lshr(&BitVec::from_u64(8, 2)).to_u64(), 0b0010_0101);
        assert_eq!(x.ashr(&BitVec::from_u64(8, 2)).to_u64(), 0b1110_0101);
        assert_eq!(x.shl(&BitVec::from_u64(8, 8)).to_u64(), 0);
        assert_eq!(x.lshr(&BitVec::from_u64(8, 200)).to_u64(), 0);
        assert_eq!(x.ashr(&BitVec::from_u64(8, 200)), BitVec::all_ones(8));
    }

    #[test]
    fn comparisons() {
        let a = BitVec::from_i64(8, -3);
        let b = BitVec::from_i64(8, 5);
        assert!(a.slt(&b));
        assert!(!a.ult(&b)); // 253 > 5 unsigned
        assert!(b.ule(&a));
        assert!(a.sle(&a));
    }

    #[test]
    fn extend_truncate_extract_concat() {
        let x = BitVec::from_i64(8, -2); // 0xfe
        assert_eq!(x.zext(16).to_u64(), 0xfe);
        assert_eq!(x.sext(16).to_u64(), 0xfffe);
        assert_eq!(x.trunc(4).to_u64(), 0xe);
        assert_eq!(x.extract(7, 4).to_u64(), 0xf);
        let hi = BitVec::from_u64(8, 0xab);
        let lo = BitVec::from_u64(8, 0xcd);
        assert_eq!(hi.concat(&lo).to_u64(), 0xabcd);
    }

    #[test]
    fn bit_counting() {
        let x = BitVec::from_u64(16, 0b0000_1010_0000_0000);
        assert_eq!(x.count_ones(), 2);
        assert_eq!(x.leading_zeros(), 4);
        assert_eq!(x.trailing_zeros(), 9);
        assert_eq!(BitVec::zero(16).leading_zeros(), 16);
        assert!(BitVec::from_u64(16, 0x400).is_power_of_two());
    }

    #[test]
    fn bswap_and_bitreverse() {
        let x = BitVec::from_u64(32, 0x1234_5678);
        assert_eq!(x.bswap().to_u64(), 0x7856_3412);
        let y = BitVec::from_u64(8, 0b1000_0001);
        assert_eq!(y.bitreverse().to_u64(), 0b1000_0001);
        assert_eq!(BitVec::from_u64(8, 0b1100_0000).bitreverse().to_u64(), 0b11);
    }

    #[test]
    fn overflow_predicates() {
        let w = 8;
        let a = BitVec::from_u64(w, 200);
        let b = BitVec::from_u64(w, 100);
        assert!(a.uadd_overflows(&b));
        assert!(!a.sadd_overflows(&b)); // -56 + 100 fits
        let c = BitVec::from_i64(w, 100);
        let d = BitVec::from_i64(w, 100);
        assert!(c.sadd_overflows(&d));
        assert!(c.smul_overflows(&d));
        assert!(c.umul_overflows(&d)); // 10000 > 255
        assert!(BitVec::from_u64(w, 3).usub_overflows(&BitVec::from_u64(w, 4)));
        assert!(BitVec::min_signed(w).ssub_overflows(&BitVec::one(w)));
    }

    #[test]
    fn hex_formatting() {
        assert_eq!(BitVec::from_u64(12, 0xabc).to_hex(), "abc");
        assert_eq!(format!("{:?}", BitVec::from_u64(8, 255)), "bv8(0xff)");
    }

    #[test]
    fn signed_extremes() {
        assert_eq!(BitVec::min_signed(8).to_i64(), -128);
        assert_eq!(BitVec::max_signed(8).to_i64(), 127);
        // INT_MIN sdiv -1 wraps to INT_MIN (SMT-LIB semantics).
        let m = BitVec::min_signed(8);
        assert_eq!(m.sdiv(&BitVec::all_ones(8)), m);
        // INT_MIN srem -1 is 0 (the one srem case where neg() wraps).
        assert_eq!(m.srem(&BitVec::all_ones(8)), BitVec::zero(8));
    }

    /// Exhaustive differential check of every binary operation against a
    /// `u128`/`i128` reference at width 4 (256 operand pairs). This is the
    /// oracle the rewrite rules inherit their identities from, so any
    /// divergence here is a soundness bug twice over.
    #[test]
    fn exhaustive_width4_vs_i128_reference() {
        const W: u32 = 4;
        const M: u128 = (1 << W) - 1;
        let signed = |v: u64| -> i128 {
            let v = v as i128;
            if v >= 1 << (W - 1) {
                v - (1 << W)
            } else {
                v
            }
        };
        for a in 0..=M as u64 {
            for b in 0..=M as u64 {
                let x = BitVec::from_u64(W, a);
                let y = BitVec::from_u64(W, b);
                let (sa, sb) = (signed(a), signed(b));
                let chk = |got: &BitVec, want: u128, op: &str| {
                    assert_eq!(
                        got.to_u64() as u128,
                        want & M,
                        "{a} {op} {b} (signed {sa} {op} {sb})"
                    );
                };
                chk(&x.add(&y), (a + b) as u128, "add");
                chk(&x.sub(&y), (a as u128).wrapping_sub(b as u128), "sub");
                chk(&x.mul(&y), (a * b) as u128, "mul");
                chk(&x.and(&y), (a & b) as u128, "and");
                chk(&x.or(&y), (a | b) as u128, "or");
                chk(&x.xor(&y), (a ^ b) as u128, "xor");
                chk(&x.not(), !(a as u128), "not");
                chk(&x.neg(), (a as u128).wrapping_neg(), "neg");
                // SMT-LIB total division semantics.
                let udiv = if b == 0 { M } else { (a / b) as u128 };
                let urem = if b == 0 { a as u128 } else { (a % b) as u128 };
                chk(&x.udiv(&y), udiv, "udiv");
                chk(&x.urem(&y), urem, "urem");
                let sdiv = if sb == 0 {
                    if sa < 0 {
                        1
                    } else {
                        -1
                    }
                } else {
                    sa / sb // i128 can't overflow; wrap is applied by & M
                };
                let srem = if sb == 0 { sa } else { sa % sb };
                chk(&x.sdiv(&y), sdiv as u128, "sdiv");
                chk(&x.srem(&y), srem as u128, "srem");
                // Shifts: amounts >= width saturate.
                let shl = if b >= W as u64 { 0 } else { (a as u128) << b };
                let lshr = if b >= W as u64 { 0 } else { (a >> b) as u128 };
                let ashr = if b >= W as u64 {
                    if sa < 0 {
                        M
                    } else {
                        0
                    }
                } else {
                    (sa >> b) as u128
                };
                chk(&x.shl(&y), shl, "shl");
                chk(&x.lshr(&y), lshr, "lshr");
                chk(&x.ashr(&y), ashr, "ashr");
                // Comparisons.
                assert_eq!(x.ult(&y), a < b, "{a} ult {b}");
                assert_eq!(x.ule(&y), a <= b, "{a} ule {b}");
                assert_eq!(x.slt(&y), sa < sb, "{sa} slt {sb}");
                assert_eq!(x.sle(&y), sa <= sb, "{sa} sle {sb}");
                // Overflow predicates.
                assert_eq!(x.uadd_overflows(&y), a + b > M as u64, "{a}+{b} uov");
                let sadd = sa + sb;
                assert_eq!(
                    x.sadd_overflows(&y),
                    !(-(1 << (W - 1))..1 << (W - 1)).contains(&sadd),
                    "{sa}+{sb} sov"
                );
                assert_eq!(x.usub_overflows(&y), a < b, "{a}-{b} uov");
                let ssub = sa - sb;
                assert_eq!(
                    x.ssub_overflows(&y),
                    !(-(1 << (W - 1))..1 << (W - 1)).contains(&ssub),
                    "{sa}-{sb} sov"
                );
                assert_eq!(x.umul_overflows(&y), a * b > M as u64, "{a}*{b} uov");
                let smul = sa * sb;
                assert_eq!(
                    x.smul_overflows(&y),
                    !(-(1 << (W - 1))..1 << (W - 1)).contains(&smul),
                    "{sa}*{sb} sov"
                );
            }
        }
    }

    /// Shift amounts crossing the 64-bit word boundary: a shift amount
    /// that is huge (non-zero high words) must saturate, not be read mod
    /// 2^64 from the low word.
    #[test]
    fn wide_shift_amounts_saturate() {
        let x = BitVec::from_words(128, &[0x1234, 0x5678]);
        // amount with only a high word set: >= width, so saturates.
        let huge = BitVec::from_words(128, &[0, 1]);
        assert!(x.shl(&huge).is_zero());
        assert!(x.lshr(&huge).is_zero());
        assert!(x.ashr(&huge).is_zero()); // sign bit clear
        let neg = BitVec::all_ones(128);
        assert_eq!(neg.ashr(&huge), neg); // sign bit set: fills with ones
                                          // amount exactly = width.
        let w = BitVec::from_u64(128, 128);
        assert!(x.shl(&w).is_zero());
        // amount = width - 1 still shifts (only bit 0 survives).
        let w1 = BitVec::from_u64(128, 127);
        let odd = BitVec::from_words(128, &[0x1235, 0x5678]);
        assert_eq!(odd.shl(&w1), {
            let mut v = BitVec::zero(128);
            v.set_bit(127, true);
            v
        });
        assert!(x.shl(&w1).is_zero()); // bit 0 of x is clear
    }
}
