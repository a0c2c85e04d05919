//! Error type for the storage layer's fallible paths.
//!
//! The serving stack must not panic under traffic (clippy holds each
//! serving-path module to it with a `deny` of the panicking lints): a
//! poisoned lock or a page whose
//! decoded header contradicts the page format surfaces as a
//! [`StorageError`] and propagates to the query as an `Err`, never as an
//! unwound thread.

use std::fmt;

/// A failure in the paged-storage layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageError {
    /// A lock guarding shared pool state was poisoned: some thread
    /// panicked while holding it. The named lock says which one.
    LockPoisoned(&'static str),
    /// A decoded page violated its format invariants (e.g. an entry count
    /// larger than the page can physically hold).
    CorruptPage(&'static str),
    /// An internal invariant did not hold; reported instead of panicking
    /// so a serving thread survives the bug.
    Internal(&'static str),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::LockPoisoned(which) => {
                write!(f, "{which} lock poisoned by a panicked thread")
            }
            StorageError::CorruptPage(what) => write!(f, "corrupt page: {what}"),
            StorageError::Internal(what) => write!(f, "storage invariant violated: {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(StorageError::LockPoisoned("stripe").to_string().contains("stripe"));
        assert!(StorageError::CorruptPage("leaf count").to_string().contains("leaf count"));
        assert!(StorageError::Internal("frame evicted").to_string().contains("frame evicted"));
    }
}
