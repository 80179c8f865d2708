//! A software 64-bit integer.
//!
//! JavaScript numbers are IEEE-754 doubles: there is no 64-bit integer
//! type, and bit operations only see the low 32 bits. DoppioJVM
//! therefore carries the JVM `long` type as a *software* pair of 32-bit
//! halves — the paper's §8 notes this is "extremely slow when compared
//! to normal numeric operations in JavaScript", motivating its proposal
//! for native 64-bit support.
//!
//! This module is that software implementation: every operation is
//! expressed in terms of 32-bit halves, exactly as the JavaScript
//! version must compute it, and a property test checks it against
//! native `i64`. The JVM interpreter does not use it: it runs `long`
//! bytecodes on native `i64` and charges
//! [`Cost::LongOp`](doppio_jsengine::Cost), so the virtual clock still
//! prices §8's software longs.

use std::cmp::Ordering;
use std::fmt;

/// A 64-bit signed integer represented as two 32-bit halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Int64 {
    /// Low 32 bits.
    lo: u32,
    /// High 32 bits (two's complement sign lives here).
    hi: u32,
}

// The arithmetic methods intentionally mirror the JVM's operation
// names (and have JVM semantics: wrapping, Option on division), so the
// std operator traits — which cannot fail and are expected not to wrap
// silently — are not implemented.
#[allow(clippy::should_implement_trait)]
impl Int64 {
    /// Zero.
    pub const ZERO: Int64 = Int64 { lo: 0, hi: 0 };
    /// One.
    pub const ONE: Int64 = Int64 { lo: 1, hi: 0 };
    /// The most negative value.
    pub const MIN: Int64 = Int64 {
        lo: 0,
        hi: 0x8000_0000,
    };
    /// The most positive value.
    pub const MAX: Int64 = Int64 {
        lo: 0xFFFF_FFFF,
        hi: 0x7FFF_FFFF,
    };

    /// Build from 32-bit halves.
    pub fn from_parts(lo: u32, hi: u32) -> Int64 {
        Int64 { lo, hi }
    }

    /// The low 32 bits.
    pub fn lo(self) -> u32 {
        self.lo
    }

    /// The high 32 bits.
    pub fn hi(self) -> u32 {
        self.hi
    }

    /// Convert from a native `i64` (test oracle / interop boundary).
    pub fn from_i64(v: i64) -> Int64 {
        Int64 {
            lo: v as u32,
            hi: (v >> 32) as u32,
        }
    }

    /// Convert to a native `i64` (test oracle / interop boundary).
    pub fn to_i64(self) -> i64 {
        ((self.hi as i64) << 32) | self.lo as i64
    }

    /// Whether the value is negative.
    pub fn is_negative(self) -> bool {
        self.hi & 0x8000_0000 != 0
    }

    /// Whether the value is zero.
    pub fn is_zero(self) -> bool {
        self.lo == 0 && self.hi == 0
    }

    /// Two's-complement negation, computed on the halves.
    pub fn neg(self) -> Int64 {
        Int64 {
            lo: !self.lo,
            hi: !self.hi,
        }
        .add(Int64::ONE)
    }

    /// Addition with carry propagation across the halves.
    pub fn add(self, other: Int64) -> Int64 {
        let (lo, carry) = self.lo.overflowing_add(other.lo);
        let hi = self
            .hi
            .wrapping_add(other.hi)
            .wrapping_add(u32::from(carry));
        Int64 { lo, hi }
    }

    /// Subtraction (`self - other`).
    pub fn sub(self, other: Int64) -> Int64 {
        self.add(other.neg())
    }

    /// Multiplication via 16-bit limbs, the way the JavaScript
    /// implementation must do it (doubles only hold 53 bits exactly).
    pub fn mul(self, other: Int64) -> Int64 {
        // Split each operand into four 16-bit limbs.
        let a = [
            self.lo & 0xFFFF,
            self.lo >> 16,
            self.hi & 0xFFFF,
            self.hi >> 16,
        ];
        let b = [
            other.lo & 0xFFFF,
            other.lo >> 16,
            other.hi & 0xFFFF,
            other.hi >> 16,
        ];
        let mut c = [0u64; 4];
        for i in 0..4 {
            for j in 0..4 - i {
                c[i + j] += (a[i] as u64) * (b[j] as u64);
            }
        }
        // Propagate carries between limbs.
        let mut limbs = [0u32; 4];
        let mut carry = 0u64;
        for (i, limb) in limbs.iter_mut().enumerate() {
            let v = c[i] + carry;
            *limb = (v & 0xFFFF) as u32;
            carry = v >> 16;
        }
        Int64 {
            lo: limbs[0] | (limbs[1] << 16),
            hi: limbs[2] | (limbs[3] << 16),
        }
    }

    /// Truncating signed division. Returns `None` on division by zero
    /// (the caller — the JVM — throws `ArithmeticException`).
    ///
    /// `MIN / -1` wraps to `MIN`, as the JVM specifies.
    pub fn div(self, other: Int64) -> Option<Int64> {
        if other.is_zero() {
            return None;
        }
        if self == Int64::MIN && other == Int64::from_i64(-1) {
            return Some(Int64::MIN);
        }
        let neg = self.is_negative() != other.is_negative();
        let (mut n, d) = (self.unsigned_abs(), other.unsigned_abs());
        // Long division on the halves: shift-subtract, 64 iterations.
        let mut q = UInt64Halves { lo: 0, hi: 0 };
        let mut r = UInt64Halves { lo: 0, hi: 0 };
        for _ in 0..64 {
            // r = (r << 1) | msb(n); n <<= 1
            r = r.shl1_with(n.msb());
            n = n.shl1_with(false);
            q = q.shl1_with(false);
            if !r.lt(d) {
                r = r.sub(d);
                q.lo |= 1;
            }
        }
        let quotient = Int64 { lo: q.lo, hi: q.hi };
        Some(if neg { quotient.neg() } else { quotient })
    }

    /// Signed remainder with the JVM's sign rule
    /// (`rem` takes the sign of the dividend).
    pub fn rem(self, other: Int64) -> Option<Int64> {
        let q = self.div(other)?;
        Some(self.sub(q.mul(other)))
    }

    fn unsigned_abs(self) -> UInt64Halves {
        let v = if self.is_negative() { self.neg() } else { self };
        UInt64Halves { lo: v.lo, hi: v.hi }
    }

    /// Bitwise AND.
    pub fn and(self, other: Int64) -> Int64 {
        Int64 {
            lo: self.lo & other.lo,
            hi: self.hi & other.hi,
        }
    }

    /// Bitwise OR.
    pub fn or(self, other: Int64) -> Int64 {
        Int64 {
            lo: self.lo | other.lo,
            hi: self.hi | other.hi,
        }
    }

    /// Bitwise XOR.
    pub fn xor(self, other: Int64) -> Int64 {
        Int64 {
            lo: self.lo ^ other.lo,
            hi: self.hi ^ other.hi,
        }
    }

    /// Bitwise NOT.
    pub fn not(self) -> Int64 {
        Int64 {
            lo: !self.lo,
            hi: !self.hi,
        }
    }

    /// Left shift; the JVM masks the distance to 6 bits.
    pub fn shl(self, n: u32) -> Int64 {
        let n = n & 63;
        if n == 0 {
            self
        } else if n < 32 {
            Int64 {
                lo: self.lo << n,
                hi: (self.hi << n) | (self.lo >> (32 - n)),
            }
        } else {
            Int64 {
                lo: 0,
                hi: self.lo << (n - 32),
            }
        }
    }

    /// Arithmetic (sign-extending) right shift; distance masked to 6 bits.
    pub fn shr(self, n: u32) -> Int64 {
        let n = n & 63;
        if n == 0 {
            self
        } else if n < 32 {
            Int64 {
                lo: (self.lo >> n) | (self.hi << (32 - n)),
                hi: ((self.hi as i32) >> n) as u32,
            }
        } else {
            Int64 {
                lo: ((self.hi as i32) >> (n - 32)) as u32,
                hi: ((self.hi as i32) >> 31) as u32,
            }
        }
    }

    /// Logical (zero-filling) right shift; distance masked to 6 bits.
    pub fn ushr(self, n: u32) -> Int64 {
        let n = n & 63;
        if n == 0 {
            self
        } else if n < 32 {
            Int64 {
                lo: (self.lo >> n) | (self.hi << (32 - n)),
                hi: self.hi >> n,
            }
        } else {
            Int64 {
                lo: self.hi >> (n - 32),
                hi: 0,
            }
        }
    }

    /// Three-way comparison, as the JVM's `lcmp` computes it.
    pub fn compare(self, other: Int64) -> Ordering {
        match (self.is_negative(), other.is_negative()) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => (self.hi, self.lo).cmp(&(other.hi, other.lo)),
        }
    }
}

impl fmt::Display for Int64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_i64())
    }
}

/// Unsigned helper used by the long-division loop.
#[derive(Clone, Copy)]
struct UInt64Halves {
    lo: u32,
    hi: u32,
}

impl UInt64Halves {
    fn msb(self) -> bool {
        self.hi & 0x8000_0000 != 0
    }

    fn shl1_with(self, bit: bool) -> UInt64Halves {
        UInt64Halves {
            hi: (self.hi << 1) | (self.lo >> 31),
            lo: (self.lo << 1) | u32::from(bit),
        }
    }

    fn lt(self, other: UInt64Halves) -> bool {
        (self.hi, self.lo) < (other.hi, other.lo)
    }

    fn sub(self, other: UInt64Halves) -> UInt64Halves {
        let (lo, borrow) = self.lo.overflowing_sub(other.lo);
        UInt64Halves {
            lo,
            hi: self
                .hi
                .wrapping_sub(other.hi)
                .wrapping_sub(u32::from(borrow)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: &[i64] = &[
        0,
        1,
        -1,
        2,
        -2,
        42,
        -42,
        i32::MAX as i64,
        i32::MIN as i64,
        i64::MAX,
        i64::MIN,
        i64::MAX - 1,
        i64::MIN + 1,
        0x0123_4567_89AB_CDEF,
        -0x0123_4567_89AB_CDEF,
        1_000_000_007,
        -999_999_937_000_000,
    ];

    #[test]
    fn round_trips_through_parts() {
        for &v in SAMPLES {
            assert_eq!(Int64::from_i64(v).to_i64(), v);
        }
    }

    #[test]
    fn add_sub_match_native() {
        for &a in SAMPLES {
            for &b in SAMPLES {
                let (x, y) = (Int64::from_i64(a), Int64::from_i64(b));
                assert_eq!(x.add(y).to_i64(), a.wrapping_add(b), "{a} + {b}");
                assert_eq!(x.sub(y).to_i64(), a.wrapping_sub(b), "{a} - {b}");
            }
        }
    }

    #[test]
    fn mul_matches_native() {
        for &a in SAMPLES {
            for &b in SAMPLES {
                let (x, y) = (Int64::from_i64(a), Int64::from_i64(b));
                assert_eq!(x.mul(y).to_i64(), a.wrapping_mul(b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn div_rem_match_native() {
        for &a in SAMPLES {
            for &b in SAMPLES {
                let (x, y) = (Int64::from_i64(a), Int64::from_i64(b));
                if b == 0 {
                    assert_eq!(x.div(y), None);
                    assert_eq!(x.rem(y), None);
                } else {
                    assert_eq!(x.div(y).unwrap().to_i64(), a.wrapping_div(b), "{a} / {b}");
                    assert_eq!(x.rem(y).unwrap().to_i64(), a.wrapping_rem(b), "{a} % {b}");
                }
            }
        }
    }

    #[test]
    fn min_div_minus_one_wraps_like_the_jvm() {
        let q = Int64::MIN.div(Int64::from_i64(-1)).unwrap();
        assert_eq!(q, Int64::MIN);
    }

    #[test]
    fn shifts_match_native_with_jvm_masking() {
        for &a in SAMPLES {
            for n in [0u32, 1, 5, 31, 32, 33, 63, 64, 65, 127] {
                let x = Int64::from_i64(a);
                let m = n & 63;
                assert_eq!(x.shl(n).to_i64(), a.wrapping_shl(m), "{a} << {n}");
                assert_eq!(x.shr(n).to_i64(), a.wrapping_shr(m), "{a} >> {n}");
                assert_eq!(
                    x.ushr(n).to_i64(),
                    ((a as u64).wrapping_shr(m)) as i64,
                    "{a} >>> {n}"
                );
            }
        }
    }

    #[test]
    fn bitwise_ops_match_native() {
        for &a in SAMPLES {
            for &b in SAMPLES {
                let (x, y) = (Int64::from_i64(a), Int64::from_i64(b));
                assert_eq!(x.and(y).to_i64(), a & b);
                assert_eq!(x.or(y).to_i64(), a | b);
                assert_eq!(x.xor(y).to_i64(), a ^ b);
                assert_eq!(x.not().to_i64(), !a);
            }
        }
    }

    #[test]
    fn compare_matches_native() {
        for &a in SAMPLES {
            for &b in SAMPLES {
                assert_eq!(
                    Int64::from_i64(a).compare(Int64::from_i64(b)),
                    a.cmp(&b),
                    "{a} <=> {b}"
                );
            }
        }
    }

    #[test]
    fn constants_are_correct() {
        assert_eq!(Int64::ZERO.to_i64(), 0);
        assert_eq!(Int64::ONE.to_i64(), 1);
        assert_eq!(Int64::MIN.to_i64(), i64::MIN);
        assert_eq!(Int64::MAX.to_i64(), i64::MAX);
    }
}
