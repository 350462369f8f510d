//! Offline shim for the `bytes` crate: an immutable, cheaply-clonable
//! byte buffer. Implements the subset of the `bytes::Bytes` API this
//! workspace uses, plus a buffer pool tuned for the simulator's traffic
//! pattern: message payloads are built as `Vec<u8>`, wrapped in `Bytes`,
//! carried through mailboxes, read once, and dropped.
//!
//! Two representations back a [`Bytes`]:
//!
//! * `Shared` — a plain `Arc<[u8]>`, used for copies of borrowed slices;
//! * `Pooled` — an `Arc<Vec<u8>>`-like cell whose backing `Vec` returns to
//!   a global free list when the last handle drops. `From<Vec<u8>>` uses
//!   this arm, which makes it **zero-copy** (the old shim copied the whole
//!   vector into a fresh `Arc<[u8]>`) and keeps steady-state message
//!   traffic off the global allocator: buffers cycle send → recv → pool →
//!   next send.
//!
//! [`take_buf`] closes the loop for producers that build payloads
//! incrementally: it hands out a pooled (cleared, capacity-retaining)
//! `Vec<u8>` to fill and pass back through `Bytes::from`.
#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on pooled buffers; beyond this, dropped buffers free
/// normally so a burst cannot pin memory forever.
const POOL_CAP: usize = 256;

fn pool() -> &'static Mutex<Vec<Vec<u8>>> {
    static POOL: OnceLock<Mutex<Vec<Vec<u8>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

/// A recyclable buffer: the backing `Vec` goes back to the pool when the
/// last `Bytes` handle drops.
struct PooledBuf {
    data: Vec<u8>,
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if self.data.capacity() == 0 {
            return;
        }
        let buf = std::mem::take(&mut self.data);
        if let Ok(mut pool) = pool().lock() {
            if pool.len() < POOL_CAP {
                pool.push(buf);
            }
        }
    }
}

/// Pops a pooled buffer (cleared, capacity retained) or returns a fresh
/// empty `Vec`. Fill it and wrap it with `Bytes::from` to recycle it.
pub fn take_buf() -> Vec<u8> {
    let mut buf = pool()
        .lock()
        .ok()
        .and_then(|mut p| p.pop())
        .unwrap_or_default();
    buf.clear();
    buf
}

/// Number of buffers currently in the pool (test/diagnostic hook).
pub fn pool_len() -> usize {
    pool().lock().map(|p| p.len()).unwrap_or(0)
}

enum Repr {
    Shared(Arc<[u8]>),
    Pooled(Arc<PooledBuf>),
}

impl Clone for Repr {
    fn clone(&self) -> Self {
        match self {
            Repr::Shared(a) => Repr::Shared(Arc::clone(a)),
            Repr::Pooled(a) => Repr::Pooled(Arc::clone(a)),
        }
    }
}

/// Cheaply clonable contiguous immutable bytes.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes {
            repr: Repr::Shared(Arc::from(&[][..])),
        }
    }

    /// Buffer holding a copy of `data`. (Upstream borrows statics without
    /// copying; the copy here is semantically equivalent.)
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Shared(Arc::from(data)),
        }
    }

    /// Buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            repr: Repr::Shared(Arc::from(data)),
        }
    }

    /// Buffer holding a copy of `data` in a pooled (recyclable) buffer:
    /// the copy lands in a recycled allocation when one is available, and
    /// the buffer returns to the pool when the last handle drops.
    pub fn pooled_copy(data: &[u8]) -> Self {
        let mut buf = take_buf();
        buf.extend_from_slice(data);
        Bytes::from(buf)
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Shared(a) => a,
            Repr::Pooled(a) => &a.data,
        }
    }

    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// Copy out as a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    /// Sub-range copy, `[begin, end)`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        Bytes {
            repr: Repr::Shared(Arc::from(&self.as_bytes()[range])),
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Zero-copy: takes ownership of the vector. The allocation is
    /// recycled through the pool when the last handle drops.
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            repr: Repr::Pooled(Arc::new(PooledBuf { data: v })),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes {
            repr: Repr::Shared(Arc::from(v)),
        }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes {
            repr: Repr::Shared(Arc::from(v)),
        }
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes {
            repr: Repr::Shared(Arc::from(v.as_bytes())),
        }
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_bytes() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_bytes() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_bytes() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = self.as_bytes();
        write!(f, "b\"")?;
        for &b in data.iter().take(32) {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        if data.len() > 32 {
            write!(f, "..{} bytes", data.len())?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_compares() {
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b, Bytes::copy_from_slice(&[1, 2, 3]));
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        let c = b.clone();
        drop(b);
        assert_eq!(c.as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn empty_and_static() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"hi").as_ref(), b"hi");
    }

    #[test]
    fn slice_copies_range() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4]);
        assert_eq!(b.slice(1..4).as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn from_vec_is_zero_copy() {
        let v = vec![7u8; 100];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ref().as_ptr(), ptr, "From<Vec<u8>> must not copy");
    }

    #[test]
    fn dropped_pooled_buffers_recycle() {
        // Use a distinctive capacity so we can recognize the buffer when
        // it comes back from the (global, test-shared) pool.
        let mut v = Vec::with_capacity(4096 + 123);
        v.extend_from_slice(b"payload");
        let b = Bytes::from(v);
        let c = b.clone();
        drop(b);
        drop(c); // last handle: buffer returns to the pool
        let reused = take_buf();
        assert!(reused.is_empty(), "pooled buffers come back cleared");
        drop(Bytes::from(reused));
    }

    #[test]
    fn pooled_copy_round_trips() {
        let b = Bytes::pooled_copy(b"abc");
        assert_eq!(b.as_ref(), b"abc");
        assert_eq!(b, Bytes::from(vec![b'a', b'b', b'c']));
    }
}
