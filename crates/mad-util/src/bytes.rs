//! A cheaply-cloneable, sliceable byte buffer.
//!
//! [`Bytes`] is a shared owner (`Arc<[u8]>`) plus a range. Cloning and
//! slicing are O(1) and never copy payload — the property the drivers want
//! when one received packet fans out to several consumers (e.g. a gateway
//! relaying a fragment while the local unpack still holds it).

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable byte buffer sharing its storage with all clones and slices.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (allocates nothing of note).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copy `data` into a fresh shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from_vec(data.to_vec())
    }

    /// Take ownership of `data` without copying.
    fn from_vec(data: Vec<u8>) -> Self {
        let end = data.len();
        Bytes {
            data: data.into(),
            start: 0,
            end,
        }
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if this view covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of this view. O(1); panics if the range is out of bounds
    /// or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds of {} bytes",
            self.len()
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off and return the bytes from `at` onward, leaving the prefix
    /// in `self`. O(1); panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        let tail = self.slice(at..);
        self.end = self.start + at;
        tail
    }

    /// View as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copy this view out into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes::from_vec(data)
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::copy_from_slice(data)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(data: [u8; N]) -> Self {
        Bytes::copy_from_slice(&data)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_split_share_storage() {
        let b = Bytes::from_vec((0u8..32).collect());
        let mid = b.slice(8..24);
        assert_eq!(mid.len(), 16);
        assert_eq!(mid[0], 8);
        let sub = mid.slice(4..);
        assert_eq!(sub[0], 12);
        assert_eq!(sub.len(), 12);

        let mut rest = b.slice(10..);
        assert_eq!(rest[0], 10);
        let tail = rest.split_off(2);
        assert_eq!(rest.as_slice(), &[10, 11]);
        assert_eq!(tail[0], 12);
        // The original view is untouched by the splits.
        assert_eq!(b.len(), 32);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::copy_from_slice(&[1, 2, 3]).slice(1..5);
    }

    #[test]
    fn equality_ignores_provenance() {
        let a = Bytes::from_vec(vec![9, 9, 1, 2, 3]).slice(2..);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(&a[..], &[1, 2, 3]);
    }
}
