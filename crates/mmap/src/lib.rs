//! # jem-mmap — read-only file mapping for zero-copy index loads
//!
//! The single `unsafe` island of the workspace: a thin wrapper over the
//! platform `mmap`/`munmap` pair exposing a mapped file as `&[u64]`.
//! Everything above this crate (`jem-index`'s flat-table view, `jem-core`'s
//! persistence) stays `#![forbid(unsafe_code)]` — they consume the word
//! slice through a safe trait and never see a raw pointer.
//!
//! Scope is deliberately tiny:
//!
//! * read-only, private mappings of whole files;
//! * word-granular: the file length must be a positive multiple of 8, and
//!   the mapping is handed out as little-endian `u64`s (the JEMIDX
//!   index format is specified in words, so this is the natural unit and
//!   makes the alignment story trivial — `mmap` returns page-aligned
//!   memory, which is always 8-byte aligned);
//! * no `libc` dependency: the two syscall wrappers are declared
//!   directly.
//!
//! On non-Unix targets [`MmapWords::map`] returns
//! [`std::io::ErrorKind::Unsupported`]; callers fall back to reading the
//! file into an owned `Vec<u64>` (the portable path behind the same trait).
//!
//! # Safety argument
//!
//! The mapping is `PROT_READ` + `MAP_PRIVATE`: the kernel will never let
//! this memory be written through this mapping, and writes by other
//! processes to the underlying file are not guaranteed to be visible but
//! cannot unmap the pages. The one real hazard of file-backed mappings —
//! `SIGBUS` on access past a truncated file — is bounded by validating the
//! mapped length against the file size at map time; a file truncated
//! *after* mapping while the index is being served is outside the safety
//! contract (the operator owns the artifact; atomic rename-into-place
//! writes, which the CLI uses, never shrink a live file).

use std::fs::File;
use std::io;

/// A read-only memory-mapped file viewed as a slice of `u64` words.
///
/// Construction validates that the file is non-empty and word-sized;
/// [`MmapWords::words`] then exposes the mapping for the lifetime of the
/// value. The mapping is released on drop.
pub struct MmapWords {
    inner: imp::Map,
}

impl MmapWords {
    /// `true` when this target supports `mmap` (Unix); `false` means
    /// [`MmapWords::map`] always fails with `Unsupported` and callers
    /// should use their owned-buffer fallback.
    pub const SUPPORTED: bool = imp::SUPPORTED;

    /// Map `file` read-only in its entirety.
    ///
    /// Fails (never panics) if the platform lacks `mmap`, the file is
    /// empty, its length is not a multiple of 8, or the `mmap` syscall
    /// itself errors.
    pub fn map(file: &File) -> io::Result<MmapWords> {
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "cannot map an empty file",
            ));
        }
        if len % 8 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("file length {len} is not a multiple of 8 bytes"),
            ));
        }
        let bytes = usize::try_from(len).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "file too large to map on this architecture",
            )
        })?;
        Ok(MmapWords {
            inner: imp::Map::new(file, bytes)?,
        })
    }

    /// The mapped file as little-endian `u64` words.
    pub fn words(&self) -> &[u64] {
        self.inner.words()
    }

    /// Number of mapped words.
    pub fn len(&self) -> usize {
        self.words().len()
    }

    /// True when no words are mapped (unreachable for a successful map —
    /// empty files are rejected — but keeps the type honest).
    pub fn is_empty(&self) -> bool {
        self.words().is_empty()
    }
}

impl std::fmt::Debug for MmapWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapWords")
            .field("words", &self.len())
            .finish()
    }
}

#[cfg(unix)]
mod imp {
    use std::fs::File;
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    pub const SUPPORTED: bool = true;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            // `off_t`: pointer-sized on every Unix we target (LP64, or
            // ILP32 without LFS). Always passed as 0 here.
            offset: isize,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub struct Map {
        ptr: *mut c_void,
        bytes: usize,
    }

    // SAFETY: the mapping is immutable (PROT_READ) for its whole lifetime,
    // so shared references to it from any thread are sound, and the raw
    // pointer is owned exclusively by this value until drop.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        pub fn new(file: &File, bytes: usize) -> io::Result<Map> {
            // SAFETY: requesting a fresh read-only private mapping; the
            // kernel picks the address. `bytes` was validated non-zero by
            // the caller. A failed map returns MAP_FAILED (-1), turned
            // into an error below, so `ptr` is a live mapping of exactly
            // `bytes` bytes whenever a `Map` is constructed.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    bytes,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Map { ptr, bytes })
        }

        pub fn words(&self) -> &[u64] {
            // SAFETY: `ptr` is page-aligned (so u64-aligned) and covers
            // `bytes` readable bytes for as long as `self` lives; `bytes`
            // is a multiple of 8 by construction. The pages are PROT_READ,
            // never written through any alias.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u64, self.bytes / 8) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`bytes` describe the mapping created in `new`
            // and not yet unmapped; nothing can read it after drop.
            unsafe {
                munmap(self.ptr, self.bytes);
            }
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use std::fs::File;
    use std::io;

    pub const SUPPORTED: bool = false;

    pub struct Map {}

    impl Map {
        pub fn new(_file: &File, _bytes: usize) -> io::Result<Map> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "mmap is not supported on this platform",
            ))
        }

        pub fn words(&self) -> &[u64] {
            &[]
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("jem-mmap-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn maps_words_back_identically() {
        let path = temp_path("roundtrip");
        let expect: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        {
            let mut f = File::create(&path).unwrap();
            for w in &expect {
                f.write_all(&w.to_le_bytes()).unwrap();
            }
        }
        let map = MmapWords::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(map.words(), expect.as_slice());
        assert_eq!(map.len(), expect.len());
        assert!(!map.is_empty());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_empty_file() {
        let path = temp_path("empty");
        File::create(&path).unwrap();
        let err = MmapWords::map(&File::open(&path).unwrap()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_unaligned_length() {
        let path = temp_path("odd");
        {
            let mut f = File::create(&path).unwrap();
            f.write_all(&[0u8; 13]).unwrap();
        }
        let err = MmapWords::map(&File::open(&path).unwrap()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapping_outlives_the_file_handle() {
        let path = temp_path("handle");
        {
            let mut f = File::create(&path).unwrap();
            f.write_all(&42u64.to_le_bytes()).unwrap();
        }
        let map = {
            let f = File::open(&path).unwrap();
            MmapWords::map(&f).unwrap()
            // `f` drops here; the mapping keeps the pages alive.
        };
        assert_eq!(map.words(), &[42]);
        std::fs::remove_file(&path).unwrap();
    }
}
