//! The one reader of untrusted little-endian bytes: image files, pages and
//! the records on them.
//!
//! A count read off such bytes can claim anything, and one that sizes an
//! allocation, bounds a loop or forms an offset before it is checked is an
//! out-of-memory, a hang or a panic waiting for a corrupt file. So a
//! [`Cursor`] hands out a count only as a `usize` that has passed
//! [`Cursor::count`]'s check: no more elements than the bytes left could
//! hold at the smallest size one can have. Fixed-size entries are read in
//! place from a [`Table`], which only a checked length can make, so a
//! record pays one check for its count and none per entry.
//!
//! The integer readers are private to this module, and `clippy.toml`
//! disallows `u16`, `u32` and `u64::from_le_bytes` everywhere else: a
//! decoder that reads a count past this module does not compile under
//! `cargo clippy -- -D warnings`.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::disallowed_macros
    )
)]
#![expect(clippy::disallowed_methods, reason = "the module the integer readers are confined to")]

use crate::error::StorageError;
use std::fmt;

/// Why a read failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes are left than the value takes.
    Truncated,
    /// A count claims more elements than the bytes left could hold.
    CountExceedsBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DecodeError::Truncated => "truncated",
            DecodeError::CountExceedsBytes => "count exceeds the bytes left",
        })
    }
}

impl From<DecodeError> for StorageError {
    fn from(e: DecodeError) -> StorageError {
        StorageError::CorruptPage(match e {
            DecodeError::Truncated => "record or node shorter than its header",
            DecodeError::CountExceedsBytes => "entry count exceeds what the bytes hold",
        })
    }
}

/// A read position in untrusted bytes. Every read checks that the bytes
/// are there and moves past them.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the first byte of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { rest: buf, len: buf.len() }
    }

    /// Bytes read so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes left.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array::<1>().map(|[b]| b)
    }

    /// A `u32` value — an id, a tag, a parameter. A count is read with
    /// [`Cursor::count`].
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u32` count of elements that follow, each at least `min_size`
    /// bytes: `Err` unless that many fit in the bytes left. The only way
    /// from a count on disk to a `usize`.
    #[inline]
    pub fn count(&mut self, min_size: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        self.fits(n, min_size)
    }

    /// [`Cursor::count`] for a `u16` count.
    #[inline]
    pub fn count_u16(&mut self, min_size: usize) -> Result<usize, DecodeError> {
        let n = usize::from(u16::from_le_bytes(self.array()?));
        self.fits(n, min_size)
    }

    #[inline]
    fn fits(&self, n: usize, min_size: usize) -> Result<usize, DecodeError> {
        match n <= self.rest.len() / min_size.max(1) {
            true => Ok(n),
            false => Err(DecodeError::CountExceedsBytes),
        }
    }

    /// A checked count of `stride`-byte entries, then the entries.
    #[inline]
    pub fn table(&mut self, stride: usize) -> Result<Table<'a>, DecodeError> {
        let len = self.count(stride)?;
        self.table_of(len, stride)
    }

    /// The next `len` entries of `stride` bytes, read in place.
    #[inline]
    pub fn table_of(&mut self, len: usize, stride: usize) -> Result<Table<'a>, DecodeError> {
        let bytes = self.take(len.checked_mul(stride).ok_or(DecodeError::CountExceedsBytes)?)?;
        Ok(Table { bytes, stride, len })
    }

    /// A `u32` count of little-endian `u32` words, then the words: the
    /// count checked against the bytes left, 4 to a word.
    #[inline]
    pub fn words(&mut self) -> Result<Words<'a>, DecodeError> {
        let n = self.u32()? as usize;
        let split = n.checked_mul(4).and_then(|len| self.rest.split_at_checked(len));
        let (words, rest) = split.ok_or(DecodeError::CountExceedsBytes)?;
        self.rest = rest;
        Ok(Words(words.as_chunks::<4>().0))
    }
}

/// `len` entries of `stride` bytes each, as they lie in the bytes. A
/// field is read at `(entry, offset)`; the entry must be below
/// [`Table::len`] and the field must end within the stride.
#[derive(Clone, Copy, Debug)]
pub struct Table<'a> {
    bytes: &'a [u8],
    stride: usize,
    len: usize,
}

impl Table<'_> {
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "entry < len and the field within its stride: inside the len * stride bytes Cursor::table_of checked"
    )]
    fn field<const N: usize>(&self, entry: usize, at: usize) -> [u8; N] {
        let start = entry * self.stride + at;
        let mut b = [0u8; N];
        b.copy_from_slice(&self.bytes[start..start + N]);
        b
    }

    #[inline]
    pub fn u16(&self, entry: usize, at: usize) -> u16 {
        u16::from_le_bytes(self.field(entry, at))
    }

    #[inline]
    pub fn u32(&self, entry: usize, at: usize) -> u32 {
        u32::from_le_bytes(self.field(entry, at))
    }

    #[inline]
    pub fn u64(&self, entry: usize, at: usize) -> u64 {
        u64::from_le_bytes(self.field(entry, at))
    }

    #[inline]
    pub fn f64(&self, entry: usize, at: usize) -> f64 {
        f64::from_le_bytes(self.field(entry, at))
    }
}

/// A run of little-endian `u32` words, as they lie in the bytes.
#[derive(Clone, Copy, Debug)]
pub struct Words<'a>(&'a [[u8; 4]]);

impl Words<'_> {
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.0.iter().map(|&w| u32::from_le_bytes(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_advance_and_stop_at_the_end() {
        let bytes = [7, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F];
        let mut c = Cursor::new(&bytes);
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.u32(), Ok(1));
        assert_eq!(c.f64(), Ok(1.0));
        assert_eq!((c.pos(), c.remaining()), (13, 0));
        assert_eq!(c.u8(), Err(DecodeError::Truncated));
        assert_eq!(c.take(1), Err(DecodeError::Truncated));
        assert_eq!(c.take(0), Ok(&[][..]));
    }

    /// A count passes only when its elements fit the bytes after it, at
    /// the smallest size one can take; `u32::MAX` never does.
    #[test]
    fn a_count_is_checked_against_the_bytes_left() {
        let mut bytes = 3u32.to_le_bytes().to_vec();
        bytes.extend([0; 12]);
        assert_eq!(Cursor::new(&bytes).count(4), Ok(3));
        assert_eq!(Cursor::new(&bytes).count(5), Err(DecodeError::CountExceedsBytes));
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Cursor::new(&bytes).count(1), Err(DecodeError::CountExceedsBytes));
        assert_eq!(Cursor::new(&bytes[..3]).count(1), Err(DecodeError::Truncated));
        assert_eq!(Cursor::new(&[2, 0, 9]).count_u16(1), Err(DecodeError::CountExceedsBytes));
        assert_eq!(Cursor::new(&[1, 0, 9]).count_u16(1), Ok(1));
    }

    /// A failed read says which check failed, and reaches a page reader's
    /// caller as a corrupt page.
    #[test]
    fn decode_errors_read_as_corrupt_pages() {
        assert_eq!(DecodeError::Truncated.to_string(), "truncated");
        assert_eq!(DecodeError::CountExceedsBytes.to_string(), "count exceeds the bytes left");
        assert_eq!(
            StorageError::from(DecodeError::Truncated),
            StorageError::CorruptPage("record or node shorter than its header")
        );
        assert_eq!(
            StorageError::from(DecodeError::CountExceedsBytes),
            StorageError::CorruptPage("entry count exceeds what the bytes hold")
        );
    }

    #[test]
    fn tables_and_words_read_in_place() {
        let mut bytes = 2u32.to_le_bytes().to_vec();
        for (id, w) in [(5u32, 0.5f64), (6, 2.0)] {
            bytes.extend(id.to_le_bytes());
            bytes.extend(w.to_le_bytes());
        }
        bytes.extend([2, 0, 0, 0, 9, 0, 0, 0, 10, 0, 0, 0]);
        let mut c = Cursor::new(&bytes);
        let t = c.table(12).unwrap();
        assert_eq!((t.len(), t.u32(1, 0), t.f64(1, 4), t.u16(0, 0)), (2, 6, 2.0, 5));
        let words = c.words().unwrap();
        assert_eq!(words.iter().collect::<Vec<_>>(), [9, 10]);
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.words().map(|w| w.iter().count()), Err(DecodeError::Truncated));
        let over = [2, 0, 0, 0, 9, 0, 0, 0];
        assert_eq!(
            Cursor::new(&over).words().map(|w| w.iter().count()),
            Err(DecodeError::CountExceedsBytes)
        );
        assert_eq!(c.table_of(usize::MAX, 2).map(|t| t.len()), Err(DecodeError::CountExceedsBytes));
    }
}
