//! Chunked per-flow columns.
//!
//! A [`FlowColumn`] holds one value per flow id. It is the one container
//! every per-flow array in the workspace lives in: the flow table's keys
//! and slots, the platform's counters and detail side table, and the
//! report's columns.
//!
//! Storage is a list of chunks of [`FLOW_CHUNK`] entries. The first chunk
//! grows like a `Vec`, so a run with a handful of flows allocates a
//! handful of entries. Every later chunk is allocated once, at full size.
//! Growth past the first chunk therefore copies and moves no element and
//! leaves no freed doubling buffer behind: a million-flow column holds
//! its entries plus less than one chunk.

use std::ops::{Index, IndexMut};

/// Entries per chunk, as a power of two.
const CHUNK_BITS: u32 = 16;
/// Entries per chunk: 2^16. Fixed, not a knob.
pub const FLOW_CHUNK: usize = 1 << CHUNK_BITS;
const MASK: usize = FLOW_CHUNK - 1;

/// A per-flow column: a dense array indexed by flow id, stored in
/// fixed-size chunks (see the module docs).
#[derive(Debug, Clone)]
pub struct FlowColumn<T> {
    /// Chunk `c` holds entries `c * FLOW_CHUNK ..`. Every chunk but the
    /// last is full; every chunk but the first has capacity
    /// `FLOW_CHUNK`.
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for FlowColumn<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlowColumn<T> {
    /// An empty column (no allocation).
    pub const fn new() -> Self {
        FlowColumn {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries the allocated chunks can hold without allocating again.
    pub fn capacity(&self) -> usize {
        self.chunks.iter().map(Vec::capacity).sum()
    }

    /// Bytes of entry storage allocated: [`FlowColumn::capacity`] times
    /// the entry size. The chunk list itself (one pointer triple per
    /// 2^16 entries) is not counted.
    pub fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }

    /// Append `value` as entry `len()`.
    #[inline]
    pub fn push(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < FLOW_CHUNK => {
                if last.len() == last.capacity() {
                    // Only the first chunk is ever short of room: it
                    // doubles up to one full chunk, never past it.
                    let want = (2 * last.capacity()).min(FLOW_CHUNK);
                    last.reserve_exact(want - last.len());
                }
                last.push(value);
            }
            Some(_) => {
                let mut chunk = Vec::with_capacity(FLOW_CHUNK);
                chunk.push(value);
                self.chunks.push(chunk);
            }
            None => {
                let mut chunk = Vec::with_capacity(4);
                chunk.push(value);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    /// Entry `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i >> CHUNK_BITS)?.get(i & MASK)
    }

    /// Entry `i` mutably, or `None` past the end.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.chunks.get_mut(i >> CHUNK_BITS)?.get_mut(i & MASK)
    }

    /// Every entry, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flatten()
    }

    /// Every entry mutably, in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.chunks.iter_mut().flatten()
    }

    /// Grow to `n` entries, filling new ones with `f()`. Flow ids are
    /// dense and recycled, never retired, so a column never shrinks:
    /// `n` below `len()` panics.
    pub fn resize_with(&mut self, n: usize, mut f: impl FnMut() -> T) {
        assert!(n >= self.len, "a flow column never shrinks");
        while self.len < n {
            self.push(f());
        }
    }

    /// Grow to `n` entries, filling new ones with copies of `value`
    /// (see [`FlowColumn::resize_with`]).
    pub fn resize(&mut self, n: usize, value: T)
    where
        T: Clone,
    {
        self.resize_with(n, || value.clone());
    }
}

// Every chunk but the last is full, so the chunk's own bounds check is
// the `i < len` check.
impl<T> Index<usize> for FlowColumn<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.chunks[i >> CHUNK_BITS][i & MASK]
    }
}

impl<T> IndexMut<usize> for FlowColumn<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i >> CHUNK_BITS][i & MASK]
    }
}

impl<T> FromIterator<T> for FlowColumn<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut col = FlowColumn::new();
        for v in iter {
            col.push(v);
        }
        col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A column of `n` entries `0..n`.
    fn counted(n: usize) -> FlowColumn<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn pushes_cross_two_chunk_boundaries_in_order() {
        let n = 2 * FLOW_CHUNK + 3;
        let col = counted(n);
        assert_eq!(col.len(), n);
        for i in [0, FLOW_CHUNK - 1, FLOW_CHUNK, 2 * FLOW_CHUNK, n - 1] {
            assert_eq!(col[i], i as u32);
        }
        assert!(col.iter().copied().eq(0..n as u32), "id order");
        assert_eq!(col.capacity(), 3 * FLOW_CHUNK, "full chunks only");
    }

    #[test]
    fn get_past_the_end_is_none() {
        let mut col = counted(FLOW_CHUNK + 1);
        assert_eq!(col.get(FLOW_CHUNK), Some(&(FLOW_CHUNK as u32)));
        // Past `len` but inside the last chunk's capacity.
        assert_eq!(col.get(FLOW_CHUNK + 1), None);
        assert_eq!(col.get_mut(FLOW_CHUNK + 1), None);
        assert_eq!(col.get(usize::MAX), None);
        assert_eq!(FlowColumn::<u32>::new().get(0), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_past_the_end_panics() {
        let col = counted(FLOW_CHUNK + 1);
        let _ = col[FLOW_CHUNK + 1];
    }

    #[test]
    fn resize_grows_with_the_value() {
        let mut col = counted(3);
        col.resize(FLOW_CHUNK + 2, 7);
        assert_eq!(col.len(), FLOW_CHUNK + 2);
        assert_eq!((col[2], col[3], col[FLOW_CHUNK + 1]), (2, 7, 7));
        col.resize(FLOW_CHUNK + 2, 0);
        assert_eq!(col.len(), FLOW_CHUNK + 2, "same length: no-op");
        col.push(9);
        assert_eq!(col[FLOW_CHUNK + 2], 9);
    }

    #[test]
    #[should_panic(expected = "never shrinks")]
    fn resize_below_len_panics() {
        counted(3).resize(2, 0);
    }

    #[test]
    fn entries_never_move_once_their_chunk_exists() {
        // A doubling `Vec` would move every entry on each growth. Here
        // the first chunk stops moving once full, and a later chunk never
        // moves at all.
        let mut col = counted(FLOW_CHUNK + 1);
        let first: *const u32 = &col[0];
        let later: *const u32 = &col[FLOW_CHUNK];
        col.resize(4 * FLOW_CHUNK + 1, 0);
        assert_eq!(col.chunks.len(), 5, "three more chunks");
        assert!(std::ptr::eq(&col[0], first));
        assert!(std::ptr::eq(&col[FLOW_CHUNK], later));
    }

    #[test]
    fn iter_mut_visits_in_id_order() {
        let mut col = counted(FLOW_CHUNK + 5);
        for (i, v) in col.iter_mut().enumerate() {
            *v = (i as u32) * 2;
        }
        assert_eq!(col[FLOW_CHUNK + 4], (FLOW_CHUNK as u32 + 4) * 2);
        assert_eq!(col.iter().last(), Some(&((FLOW_CHUNK as u32 + 4) * 2)));
    }
}
