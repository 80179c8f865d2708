//! Shared byte buffers and the scatter-gather segments built from them.
//!
//! Real network stacks avoid copying a payload at every layer: a
//! `writev` takes an iovec of buffers, and an `sk_buff` carries its
//! payload as page fragments that a clone or a split shares. The
//! simulated fabric does the same. A [`Bytes`] is a view of one
//! reference-counted allocation, so cloning and slicing it copy
//! nothing, and a [`Segment`] — what the fabric delivers — is an ordered
//! list of them: a protocol sends its small header as one part and the
//! payload it already holds as another, and a receiver can keep slices
//! of the parts instead of copying out of one contiguous buffer.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::rc::Rc;

/// A cheaply cloneable, immutable byte buffer: the bytes `start..end`
/// of one shared allocation.
///
/// Built from a `Vec<u8>` it takes over the vector's buffer without
/// copying; [`clone`](Clone::clone) and [`slice`](Bytes::slice) share
/// it. It dereferences to `[u8]`, so `to_vec()` copies the bytes out
/// when a caller needs to own them.
#[derive(Clone, Default)]
pub struct Bytes {
    buf: Rc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in this view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether this view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The sub-range `range` of this view, sharing its allocation.
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds or decreasing, as slicing `[u8]`
    /// would.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "slice {start}..{end} out of range for Bytes of length {}",
            self.len()
        );
        Bytes {
            buf: self.buf.clone(),
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// Whether `a` and `b` view the same bytes of the same allocation
    /// (equal contents in two allocations are not enough).
    pub fn ptr_eq(a: &Bytes, b: &Bytes) -> bool {
        Rc::ptr_eq(&a.buf, &b.buf) && a.start == b.start && a.end == b.end
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes {
            start: 0,
            end: v.len(),
            buf: Rc::new(v),
        }
    }
}

impl From<&str> for Bytes {
    /// Copies `s`.
    fn from(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    /// Hashes the bytes, as `[u8]` does, consistently with `Eq`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Bytes {
    /// Formats the bytes as `[u8]` does.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One network segment: an ordered list of [`Bytes`] parts that the
/// fabric carries as one contiguous run of bytes.
///
/// A segment never holds an empty part. Its length, and so its transfer
/// delay, is the sum of its parts' lengths; where the parts begin and
/// end is invisible on the wire.
#[derive(Clone, Default)]
pub struct Segment {
    parts: Vec<Bytes>,
    len: usize,
}

impl Segment {
    /// An empty segment.
    pub fn new() -> Segment {
        Segment::default()
    }

    /// Append `part` (an empty part is dropped).
    pub fn push(&mut self, part: Bytes) {
        if !part.is_empty() {
            self.len += part.len();
            self.parts.push(part);
        }
    }

    /// Total bytes across all parts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The parts, in order.
    pub fn parts(&self) -> &[Bytes] {
        &self.parts
    }

    /// Split into the first `at` bytes and the rest, without copying:
    /// the part that straddles `at` is sliced in two.
    ///
    /// # Panics
    ///
    /// If `at > self.len()`.
    pub fn split_at(self, mut at: usize) -> (Segment, Segment) {
        assert!(
            at <= self.len,
            "split at {at} past a segment of length {}",
            self.len
        );
        let mut head = Segment::new();
        let mut tail = Segment::new();
        for part in self.parts {
            if at >= part.len() {
                at -= part.len();
                head.push(part);
            } else if at > 0 {
                head.push(part.slice(..at));
                tail.push(part.slice(at..));
                at = 0;
            } else {
                tail.push(part);
            }
        }
        (head, tail)
    }

    /// The bytes of every part, copied into one vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for part in &self.parts {
            out.extend_from_slice(part);
        }
        out
    }
}

impl From<Bytes> for Segment {
    fn from(part: Bytes) -> Segment {
        let mut s = Segment::new();
        s.push(part);
        s
    }
}

impl From<Vec<u8>> for Segment {
    fn from(v: Vec<u8>) -> Segment {
        Segment::from(Bytes::from(v))
    }
}

impl FromIterator<Bytes> for Segment {
    fn from_iter<I: IntoIterator<Item = Bytes>>(parts: I) -> Segment {
        let mut s = Segment::new();
        for part in parts {
            s.push(part);
        }
        s
    }
}

impl IntoIterator for Segment {
    type Item = Bytes;
    type IntoIter = std::vec::IntoIter<Bytes>;

    fn into_iter(self) -> Self::IntoIter {
        self.parts.into_iter()
    }
}

impl fmt::Debug for Segment {
    /// Formats the parts as a list of byte lists.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.parts).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_share_their_allocation_across_clones_and_slices() {
        let v: Vec<u8> = (0..10).collect();
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "built without copying");
        let c = b.clone();
        assert!(Bytes::ptr_eq(&b, &c));
        let s = b.slice(2..5);
        assert_eq!(&*s, &[2, 3, 4]);
        assert_eq!(s.as_ptr(), ptr.wrapping_add(2));
        assert!(!Bytes::ptr_eq(&b, &s), "a sub-range is a different view");
        assert!(Bytes::ptr_eq(&s.slice(..), &s));
        assert_eq!(*s.slice(1..=1), [3]);
        assert!(!Bytes::ptr_eq(&b, &Bytes::copy_from_slice(&b)));
        assert_eq!(b, Bytes::copy_from_slice(&b));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slicing_past_the_end_panics() {
        Bytes::from(vec![1, 2]).slice(1..3);
    }

    #[test]
    fn segments_drop_empty_parts() {
        let s: Segment = [Bytes::from(vec![1, 2]), Bytes::new(), Bytes::from(vec![3])]
            .into_iter()
            .collect();
        assert_eq!(s.parts().len(), 2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.to_vec(), [1, 2, 3]);
        assert!(Segment::from(Vec::new()).is_empty());
    }
}
