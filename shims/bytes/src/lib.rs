//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal implementation of the small slice of the `bytes`
//! API it actually uses: [`Bytes`], [`BytesMut`], the big-endian
//! `put_*` writers from [`BufMut`] and [`Buf::advance`]. Semantics
//! match the real crate for the covered surface; zero-copy sharing is
//! intentionally not reproduced (clones copy).
//!
//! Like upstream, the writers and accessors are `#[inline]`. The
//! workspace builds without LTO, so without the hints each `put_u16`
//! of an encoded frame is an out-of-line call into this crate.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A cheaply cloneable immutable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes {
    inner: Arc<Vec<u8>>,
}

impl Bytes {
    /// An empty buffer.
    #[inline]
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copy a slice into a new buffer.
    #[inline]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            inner: Arc::new(data.to_vec()),
        }
    }

    /// Number of bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        Bytes { inner: Arc::new(v) }
    }
}

impl From<&[u8]> for Bytes {
    #[inline]
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<BytesMut> for Bytes {
    #[inline]
    fn from(b: BytesMut) -> Self {
        Bytes::from(b.inner)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        &self.inner
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.inner.iter() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    #[inline]
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            inner: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Make room for at least `additional` more bytes.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional);
    }

    /// Drop all contents.
    #[inline]
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Append a slice.
    #[inline]
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.inner.extend_from_slice(data);
    }

    /// Split off and return the first `at` bytes, leaving the rest.
    #[inline]
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let rest = self.inner.split_off(at);
        BytesMut {
            inner: std::mem::replace(&mut self.inner, rest),
        }
    }

    /// Freeze into an immutable [`Bytes`].
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.inner)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.inner.iter() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

/// Read access to a buffer with a cursor (only the cursor movement the
/// workspace uses).
pub trait Buf {
    /// Discard the first `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cnt` exceeds the bytes held.
    fn advance(&mut self, cnt: usize);
}

impl Buf for BytesMut {
    /// Keeps the allocation (unlike [`BytesMut::split_to`], which in
    /// this stand-in hands it to the returned head).
    #[inline]
    fn advance(&mut self, cnt: usize) {
        self.inner.drain(..cnt);
    }
}

/// Big-endian write access to a growable buffer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_is_big_endian() {
        let mut b = BytesMut::new();
        b.put_u16(0x0102);
        b.put_u32(0x0304_0506);
        assert_eq!(&b[..], &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn split_to_splits() {
        let mut b = BytesMut::new();
        b.extend_from_slice(&[1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
    }

    #[test]
    fn advance_discards_the_head_and_keeps_the_allocation() {
        let mut b = BytesMut::with_capacity(64);
        b.extend_from_slice(&[1, 2, 3, 4, 5]);
        let cap = b.inner.capacity();
        b.advance(2);
        assert_eq!(&b[..], &[3, 4, 5]);
        b.advance(3);
        assert!(b.is_empty());
        assert_eq!(b.inner.capacity(), cap);
    }

    #[test]
    fn freeze_roundtrip() {
        let mut b = BytesMut::with_capacity(4);
        b.put_u8(9);
        let f = b.freeze();
        assert_eq!(f.to_vec(), vec![9]);
        assert!(!f.is_empty());
        assert_eq!(f.len(), 1);
    }
}
