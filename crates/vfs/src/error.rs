//! The filesystem's error type and the storage error every engine on
//! it returns.

use ptsbench_ssd::SsdError;

/// Errors returned by [`crate::Vfs`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// No file with the given name exists.
    NotFound(String),
    /// A file with the given name already exists.
    AlreadyExists(String),
    /// The partition has no free space for the requested allocation.
    /// Mirrors `ENOSPC` — the error RocksDB hits on the paper's two
    /// largest datasets (§4.5).
    NoSpace {
        /// Pages requested.
        requested_pages: u64,
        /// Pages available.
        available_pages: u64,
    },
    /// A stale file handle (file was deleted).
    StaleHandle,
    /// An invalid argument, e.g. writing past EOF leaving a hole.
    InvalidArgument(String),
    /// The simulated device rejected a command (mirrors `EIO`): an
    /// address beyond the advertised space, or an FTL that cannot
    /// reclaim a block. Propagated instead of panicking so engines can
    /// surface device failures as results.
    Device(SsdError),
}

impl std::fmt::Display for VfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VfsError::NotFound(name) => write!(f, "file not found: {name}"),
            VfsError::AlreadyExists(name) => write!(f, "file already exists: {name}"),
            VfsError::NoSpace {
                requested_pages,
                available_pages,
            } => write!(
                f,
                "no space left on device (requested {requested_pages} pages, \
                 {available_pages} free)"
            ),
            VfsError::StaleHandle => write!(f, "stale file handle"),
            VfsError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            VfsError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for VfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VfsError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SsdError> for VfsError {
    fn from(e: SsdError) -> Self {
        VfsError::Device(e)
    }
}

/// Errors returned by the record log and by every engine built on the
/// [`crate::Vfs`]: the LSM, the B+Tree and the hash log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The filesystem or device refused an operation (`NoSpace` is the
    /// one the paper's large-dataset runs hit).
    Vfs(VfsError),
    /// Stored data failed validation.
    Corruption(String),
    /// The engine cannot store this input, e.g. a key too long for its
    /// format; nothing was written.
    InvalidInput(String),
}

impl StoreError {
    /// Whether this is the out-of-space condition.
    pub fn is_out_of_space(&self) -> bool {
        matches!(self, StoreError::Vfs(VfsError::NoSpace { .. }))
    }

    /// Refuses a key longer than `u16::MAX` bytes, the most a tree page
    /// or an SSTable entry records a key's length in.
    pub fn check_key(key: &[u8]) -> Result<(), StoreError> {
        if key.len() > usize::from(u16::MAX) {
            return Err(StoreError::InvalidInput(format!(
                "key of {} bytes exceeds {} bytes",
                key.len(),
                u16::MAX
            )));
        }
        Ok(())
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Vfs(e) => write!(f, "filesystem error: {e}"),
            StoreError::Corruption(msg) => write!(f, "corruption: {msg}"),
            StoreError::InvalidInput(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Vfs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VfsError> for StoreError {
    fn from(e: VfsError) -> Self {
        StoreError::Vfs(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(VfsError::NotFound("x".into()).to_string().contains("x"));
        let e = VfsError::NoSpace {
            requested_pages: 10,
            available_pages: 3,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn device_errors_wrap_and_chain() {
        let e: VfsError = SsdError::NoFreeBlocks.into();
        assert!(e.to_string().contains("device error"));
        let source = std::error::Error::source(&e).expect("chained source");
        assert!(source.to_string().contains("free physical blocks"));
    }

    #[test]
    fn store_errors_keep_their_messages() {
        let full = StoreError::from(VfsError::NoSpace {
            requested_pages: 2,
            available_pages: 1,
        });
        assert!(full.is_out_of_space());
        assert_eq!(
            full.to_string(),
            "filesystem error: no space left on device (requested 2 pages, 1 free)"
        );
        assert!(!StoreError::Vfs(VfsError::Device(SsdError::NoFreeBlocks)).is_out_of_space());
        assert_eq!(
            StoreError::Corruption("x".into()).to_string(),
            "corruption: x"
        );
        assert_eq!(
            StoreError::check_key(&[0; 70_000]),
            Err(StoreError::InvalidInput(
                "key of 70000 bytes exceeds 65535 bytes".into()
            ))
        );
        assert_eq!(StoreError::check_key(&[0; 65_535]), Ok(()));
    }
}
