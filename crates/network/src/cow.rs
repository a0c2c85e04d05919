//! Chunked copy-on-write columns.
//!
//! A [`CowChunks`] is a column of values cut into chunks of `2^shift`
//! elements, each chunk behind its own [`Arc`]. Cloning the column copies
//! the chunk pointers and nothing else (`O(#chunks)` reference-count
//! bumps); writing an element through [`CowChunks::make_mut`] copies the one
//! chunk that holds it if a clone still shares that chunk, and every other
//! chunk stays shared. A structure that is forked on every publication —
//! the live engine's snapshots (`road_core::live`) — therefore pays for what
//! an update touched, not for the size of the column: a reweight of 8 edges
//! copies at most 8 chunks of edge records, not all of them.
//!
//! The column counts what copy-on-write copied, in bytes of the chunks it
//! un-shared ([`CowChunks::bytes_copied`]); heap data an element owns (a
//! map inside a directory shard) is cloned with it and not counted. The
//! counter is a plain field of the value, carried by a clone, so the writer
//! that owns a column reads its own history without any synchronisation.
//!
//! A chunk never straddles what one read needs when the caller aligns its
//! data to chunks: [`CowChunks::slice`] returns a contiguous run only from
//! within one chunk, which is how the query arena keeps every node's arcs
//! in one slice (`road_core::arena`).

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

use std::ops::Range;
use std::sync::Arc;

/// A column of `T` in power-of-two chunks, each shared copy-on-write; see
/// the [module docs](self).
///
/// ```
/// use road_network::cow::CowChunks;
///
/// let mut column = CowChunks::from_vec((0..10u32).collect(), 2); // chunks of 4
/// let fork = column.clone();
/// *column.make_mut(5).unwrap() = 50;
/// assert_eq!(column.get(5), Some(&50));
/// assert_eq!(fork.get(5), Some(&5)); // the fork keeps its values
/// assert_eq!(column.shared_chunks(&fork), 2); // of 3: only chunk 1 was copied
/// assert_eq!(column.bytes_copied(), 16);
/// ```
pub struct CowChunks<T> {
    chunks: Vec<Arc<[T]>>,
    shift: u32,
    len: usize,
    copied: u64,
}

impl<T> Clone for CowChunks<T> {
    /// Shares every chunk; `O(#chunks)`.
    fn clone(&self) -> Self {
        CowChunks {
            chunks: self.chunks.clone(),
            shift: self.shift,
            len: self.len,
            copied: self.copied,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for CowChunks<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> CowChunks<T> {
    /// An empty column with chunks of `2^shift` elements.
    pub fn new(shift: u32) -> Self {
        CowChunks { chunks: Vec::new(), shift, len: 0, copied: 0 }
    }

    /// `items` cut into chunks of `2^shift`, in order.
    pub fn from_vec(items: Vec<T>, shift: u32) -> Self {
        let len = items.len();
        let per_chunk = 1usize << shift;
        let mut chunks = Vec::with_capacity(len.div_ceil(per_chunk));
        let mut rest = items.into_iter();
        while rest.len() > 0 {
            chunks.push(rest.by_ref().take(per_chunk).collect());
        }
        CowChunks { chunks, shift, len, copied: 0 }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the column holds no element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements per chunk: `2^shift`.
    #[inline]
    pub fn chunk_len(&self) -> usize {
        1 << self.shift
    }

    /// Element `i`, if in range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i >> self.shift)?.get(i & (self.chunk_len() - 1))
    }

    /// Elements `range` as one slice, if the range lies inside one chunk
    /// (an empty range always does).
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> Option<&[T]> {
        if range.is_empty() {
            return Some(&[]);
        }
        // A range that straddles runs past its first chunk's end, which
        // the chunk's own bounds check refuses.
        let chunk = range.start >> self.shift;
        let base = chunk << self.shift;
        self.chunks.get(chunk)?.get(range.start - base..range.end - base)
    }

    /// Every element, in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// Number of chunks.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// How many chunks, position by position, this column physically
    /// shares with `other` (same allocation, not merely equal contents).
    pub fn shared_chunks(&self, other: &CowChunks<T>) -> usize {
        self.chunks.iter().zip(&other.chunks).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Bytes of chunks this column (and the columns it was cloned from)
    /// copied to un-share them.
    #[inline]
    pub fn bytes_copied(&self) -> u64 {
        self.copied
    }
}

impl<T: Clone> CowChunks<T> {
    /// Element `i` for writing, if in range. Copies the chunk holding it
    /// first when a clone still shares that chunk; every other chunk stays
    /// shared.
    pub fn make_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let offset = i & (self.chunk_len() - 1);
        let chunk = self.chunks.get_mut(i >> self.shift)?;
        if Arc::get_mut(chunk).is_none() {
            self.copied += (chunk.len() * std::mem::size_of::<T>()) as u64;
            *chunk = Arc::from(&**chunk);
        }
        Arc::get_mut(chunk)?.get_mut(offset)
    }

    /// Appends an element. A chunk is one allocation of fixed length, so
    /// appending to a last chunk with room reallocates it — a copy of its
    /// elements, counted when a clone shared that chunk. Build a column
    /// with [`CowChunks::from_vec`]; `push` grows one by a few.
    pub fn push(&mut self, value: T) {
        let per_chunk = self.chunk_len();
        match self.chunks.last_mut() {
            Some(last) if last.len() < per_chunk => {
                if Arc::get_mut(last).is_none() {
                    self.copied += (last.len() * std::mem::size_of::<T>()) as u64;
                }
                let mut grown = Vec::with_capacity(last.len() + 1);
                grown.extend_from_slice(last);
                grown.push(value);
                *last = Arc::from(grown);
            }
            _ => self.chunks.push(Arc::from([value])),
        }
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_cut_at_powers_of_two() {
        let column = CowChunks::from_vec((0..9u8).collect(), 2);
        assert_eq!((column.len(), column.num_chunks(), column.chunk_len()), (9, 3, 4));
        assert_eq!(column.iter().copied().collect::<Vec<_>>(), (0..9).collect::<Vec<_>>());
        assert_eq!(column.get(8), Some(&8));
        assert_eq!(column.get(9), None);
        assert_eq!(column.slice(4..8), Some(&[4u8, 5, 6, 7][..]));
        assert_eq!(column.slice(3..5), None, "straddles chunks 0 and 1");
        assert_eq!(column.slice(8..10), None, "runs past the end");
        assert_eq!(column.slice(7..7), Some(&[][..]));
        assert!(CowChunks::<u8>::from_vec(Vec::new(), 3).is_empty());
    }

    #[test]
    fn a_write_copies_one_chunk_and_a_clone_keeps_its_values() {
        let mut column = CowChunks::from_vec(vec![0u64; 32], 3);
        *column.make_mut(3).unwrap() = 1;
        assert_eq!(column.bytes_copied(), 0, "nothing shared yet, nothing copied");
        let fork = column.clone();
        *column.make_mut(20).unwrap() = 7;
        *column.make_mut(21).unwrap() = 8;
        assert_eq!(column.bytes_copied(), 64, "one chunk of 8 u64s, copied once");
        assert_eq!(column.shared_chunks(&fork), 3);
        assert_eq!((fork.get(20), column.get(20)), (Some(&0), Some(&7)));
        assert_eq!(fork.get(3), Some(&1));
        assert!(column.make_mut(32).is_none());
        assert_eq!(column.bytes_copied(), 64, "an out-of-range write copies nothing");
    }

    #[test]
    fn push_fills_the_last_chunk_then_opens_one() {
        let mut column = CowChunks::new(1);
        column.push('a');
        let fork = column.clone();
        column.push('b');
        assert_eq!(column.bytes_copied(), 4, "the shared last chunk was copied to grow");
        column.push('c');
        assert_eq!((column.len(), column.num_chunks()), (3, 2));
        assert_eq!(column.iter().collect::<String>(), "abc");
        assert_eq!((fork.len(), fork.iter().collect::<String>()), (1, "a".to_owned()));
    }
}
