//! The type system of the LLVM-style IR (paper §2).
//!
//! Supported first-class types: fixed bit-width integers, IEEE-754 floats
//! (half / float / double), opaque pointers, and the aggregates — vectors
//! (homogeneous, constant-indexed), arrays (homogeneous, variable-indexed)
//! and structs (heterogeneous, constant-indexed).

use std::fmt;

/// Floating-point precision.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FloatKind {
    /// IEEE-754 binary16.
    Half,
    /// IEEE-754 binary32.
    Single,
    /// IEEE-754 binary64.
    Double,
}

impl FloatKind {
    /// Total bit width.
    pub fn bits(self) -> u32 {
        match self {
            FloatKind::Half => 16,
            FloatKind::Single => 32,
            FloatKind::Double => 64,
        }
    }

    /// Number of explicit significand bits (without the hidden bit).
    pub fn sig_bits(self) -> u32 {
        match self {
            FloatKind::Half => 10,
            FloatKind::Single => 23,
            FloatKind::Double => 52,
        }
    }

    /// Number of exponent bits.
    pub fn exp_bits(self) -> u32 {
        self.bits() - self.sig_bits() - 1
    }
}

/// An IR type.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// `void` — only valid as a function return type.
    Void,
    /// `iN` — integer of width `N ≥ 1`.
    Int(u32),
    /// Floating-point type.
    Float(FloatKind),
    /// Opaque pointer (`ptr`).
    Ptr,
    /// `<N x T>` — SIMD vector of `N` elements.
    Vector(u32, Box<Type>),
    /// `[N x T]` — array of `N` elements.
    Array(u32, Box<Type>),
    /// `{T1, T2, …}` — literal struct.
    Struct(Vec<Type>),
}

/// Width in bits of a pointer's offset component in the memory encoding.
/// The paper uses 64; we keep this configurable at the semantics layer and
/// use 64 for sizing/printing purposes here.
pub const PTR_BITS: u32 = 64;

impl Type {
    /// Shorthand for `i1`.
    pub fn i1() -> Type {
        Type::Int(1)
    }

    /// Shorthand for `i8`.
    pub fn i8() -> Type {
        Type::Int(8)
    }

    /// Shorthand for `i32`.
    pub fn i32() -> Type {
        Type::Int(32)
    }

    /// Shorthand for `i64`.
    pub fn i64() -> Type {
        Type::Int(64)
    }

    /// A vector type.
    pub fn vec(n: u32, elem: Type) -> Type {
        Type::Vector(n, Box::new(elem))
    }

    /// An array type.
    pub fn array(n: u32, elem: Type) -> Type {
        Type::Array(n, Box::new(elem))
    }

    /// True for floating-point types.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::Float(_))
    }

    /// True for the pointer type.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr)
    }

    /// True for vectors.
    pub fn is_vector(&self) -> bool {
        matches!(self, Type::Vector(..))
    }

    /// The integer width.
    ///
    /// # Panics
    ///
    /// Panics if the type is not `iN`.
    pub fn int_width(&self) -> u32 {
        match self {
            Type::Int(w) => *w,
            other => panic!("expected integer type, found {other}"),
        }
    }

    /// The element type of a vector or array.
    ///
    /// # Panics
    ///
    /// Panics for non-sequence types.
    pub fn elem_type(&self) -> &Type {
        match self {
            Type::Vector(_, t) | Type::Array(_, t) => t,
            other => panic!("expected vector or array type, found {other}"),
        }
    }

    /// The element count of a vector or array.
    ///
    /// # Panics
    ///
    /// Panics for non-sequence types.
    pub fn elem_count(&self) -> u32 {
        match self {
            Type::Vector(n, _) | Type::Array(n, _) => *n,
            other => panic!("expected vector or array type, found {other}"),
        }
    }

    /// Total width in bits when the value is held in a register (pointers
    /// count as [`PTR_BITS`]; aggregates are the concatenation of their
    /// elements, §3.1 of the paper).
    pub fn bit_width(&self) -> u32 {
        match self {
            Type::Void => 0,
            Type::Int(w) => *w,
            Type::Float(k) => k.bits(),
            Type::Ptr => PTR_BITS,
            Type::Vector(n, t) | Type::Array(n, t) => n * t.bit_width(),
            Type::Struct(ts) => ts.iter().map(Type::bit_width).sum(),
        }
    }

    /// Size in bytes when stored to memory. Sub-byte scalars round up to a
    /// byte; aggregates are packed element-by-element (we model packed
    /// layout — no padding — to keep byte-level semantics deterministic).
    pub fn byte_size(&self) -> u64 {
        match self {
            Type::Void => 0,
            Type::Int(w) => ((*w as u64) + 7) / 8,
            Type::Float(k) => (k.bits() as u64) / 8,
            Type::Ptr => (PTR_BITS as u64) / 8,
            Type::Vector(n, t) | Type::Array(n, t) => (*n as u64) * t.byte_size(),
            Type::Struct(ts) => ts.iter().map(Type::byte_size).sum(),
        }
    }

    /// The scalar type of a vector, or the type itself otherwise. Useful
    /// for instructions that apply element-wise.
    pub fn scalar_type(&self) -> &Type {
        match self {
            Type::Vector(_, t) => t,
            other => other,
        }
    }

    /// For element-wise operations: iterates `n` times for `<n x T>`,
    /// once otherwise.
    pub fn lanes(&self) -> u32 {
        match self {
            Type::Vector(n, _) => *n,
            _ => 1,
        }
    }

    /// The aggregate element type at a constant index path position.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or the type is scalar.
    pub fn field_type(&self, index: u32) -> &Type {
        match self {
            Type::Vector(n, _) | Type::Array(n, _) => {
                assert!(index < *n, "aggregate index {index} out of range");
            }
            Type::Struct(ts) => {
                assert!(
                    (index as usize) < ts.len(),
                    "struct index {index} out of range"
                );
            }
            other => panic!("cannot index into {other}"),
        }
        self.try_field_type(index).unwrap()
    }

    /// Non-panicking [`Type::field_type`]: `None` when the index is out
    /// of range or the type has no fields. The parser uses this to turn
    /// hostile index paths into parse errors instead of panics.
    pub fn try_field_type(&self, index: u32) -> Option<&Type> {
        match self {
            Type::Vector(n, t) | Type::Array(n, t) => (index < *n).then_some(&**t),
            Type::Struct(ts) => ts.get(index as usize),
            _ => None,
        }
    }

    /// Number of immediate fields of an aggregate.
    pub fn field_count(&self) -> u32 {
        match self {
            Type::Vector(n, _) | Type::Array(n, _) => *n,
            Type::Struct(ts) => ts.len() as u32,
            _ => 0,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int(w) => write!(f, "i{w}"),
            Type::Float(FloatKind::Half) => write!(f, "half"),
            Type::Float(FloatKind::Single) => write!(f, "float"),
            Type::Float(FloatKind::Double) => write!(f, "double"),
            Type::Ptr => write!(f, "ptr"),
            Type::Vector(n, t) => write!(f, "<{n} x {t}>"),
            Type::Array(n, t) => write!(f, "[{n} x {t}]"),
            Type::Struct(ts) => {
                write!(f, "{{ ")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, " }}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(Type::i32().to_string(), "i32");
        assert_eq!(Type::Float(FloatKind::Double).to_string(), "double");
        assert_eq!(Type::vec(4, Type::i8()).to_string(), "<4 x i8>");
        assert_eq!(Type::array(3, Type::Ptr).to_string(), "[3 x ptr]");
        assert_eq!(
            Type::Struct(vec![Type::i32(), Type::i1()]).to_string(),
            "{ i32, i1 }"
        );
    }

    #[test]
    fn widths_and_sizes() {
        assert_eq!(Type::Int(7).bit_width(), 7);
        assert_eq!(Type::Int(7).byte_size(), 1);
        assert_eq!(Type::vec(4, Type::i32()).bit_width(), 128);
        assert_eq!(Type::vec(4, Type::i32()).byte_size(), 16);
        assert_eq!(Type::Ptr.bit_width(), PTR_BITS);
        assert_eq!(Type::Struct(vec![Type::i8(), Type::i32()]).byte_size(), 5);
        assert_eq!(Type::Float(FloatKind::Half).bit_width(), 16);
    }

    #[test]
    fn lanes_and_scalars() {
        let v = Type::vec(8, Type::Int(16));
        assert_eq!(v.lanes(), 8);
        assert_eq!(v.scalar_type(), &Type::Int(16));
        assert_eq!(Type::i32().lanes(), 1);
        assert_eq!(Type::i32().scalar_type(), &Type::i32());
    }

    #[test]
    fn field_access() {
        let s = Type::Struct(vec![Type::i8(), Type::Ptr, Type::i1()]);
        assert_eq!(s.field_count(), 3);
        assert_eq!(s.field_type(1), &Type::Ptr);
        let a = Type::array(10, Type::i64());
        assert_eq!(a.field_type(9), &Type::i64());
    }

    #[test]
    fn float_kind_layout() {
        assert_eq!(FloatKind::Single.exp_bits(), 8);
        assert_eq!(FloatKind::Double.exp_bits(), 11);
        assert_eq!(FloatKind::Half.exp_bits(), 5);
    }

    #[test]
    #[should_panic]
    fn struct_index_out_of_range_panics() {
        Type::Struct(vec![Type::i8()]).field_type(1);
    }
}
