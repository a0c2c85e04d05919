//! Fixed-size pages.

use std::fmt;

/// Page size in bytes; the paper fixes this at 4 KB.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within a [`crate::store::PageStore`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel for "no page".
    pub const NONE: PageId = PageId(u32::MAX);

    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// `true` unless this is the [`PageId::NONE`] sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 != u32::MAX
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "p{}", self.0)
        } else {
            write!(f, "p<none>")
        }
    }
}

/// One 4 KB page of raw bytes, held inline: the store and the buffer
/// pools share pages as `Arc<Page>`, one allocation per page, and cloning
/// a `Page` (what [`std::sync::Arc::make_mut`] does to a shared one) is
/// the only 4 KB copy in the stack.
#[derive(Clone)]
pub struct Page([u8; PAGE_SIZE]);

impl Page {
    /// An all-zero page.
    pub fn zeroed() -> Self {
        Page([0u8; PAGE_SIZE])
    }

    /// Immutable view of the bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.0
    }

    /// Mutable view of the bytes.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.0
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

/// Number of pages needed to hold `bytes` bytes.
#[inline]
pub fn pages_for(bytes: usize) -> usize {
    bytes.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_is_zeroed_and_writable() {
        let mut p = Page::zeroed();
        assert!(p.bytes().iter().all(|&b| b == 0));
        p.bytes_mut()[17] = 0xAB;
        assert_eq!(p.bytes()[17], 0xAB);
    }

    #[test]
    fn page_id_sentinel() {
        assert!(!PageId::NONE.is_valid());
        assert!(PageId(0).is_valid());
        assert_eq!(format!("{:?}", PageId(3)), "p3");
        assert_eq!(format!("{:?}", PageId::NONE), "p<none>");
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE + 1), 2);
        assert_eq!(pages_for(10 * PAGE_SIZE), 10);
    }
}
