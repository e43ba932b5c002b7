//! Memory-mapped spill files for out-of-core chunks.
//!
//! A [`SpillFile`] holds one dense chunk's values on disk and maps them
//! read-only into the address space; [`SpillFile::load`] copies the
//! mapped bytes back into a [`DenseMatrix`] — the copy *is* the fault-in,
//! so a load costs one streaming pass and the chunk's pages can be
//! reclaimed by the OS between operators. Spill files are written
//! crash-safely (same-dir temp file + atomic rename): a crash mid-write
//! can never leave a torn spill file behind a valid name.
//!
//! Two process-wide knobs, each read once at first use:
//!
//! * `MORPHEUS_CHUNK_BYTES` — resident budget in bytes for chunked
//!   matrices; chunks beyond it spill. Unset means "never spill".
//! * `MORPHEUS_SPILL_DIR` — directory for spill files (default: the
//!   system temp dir).
//!
//! Failure model: spilling is an *optimization* with a degradation rung,
//! never a correctness hazard. Any I/O failure while establishing a
//! spill file — injectable via the `spill.write` and `spill.map`
//! failpoints — keeps the chunk resident in memory, notes
//! [`Degradation::SpillFallback`], and leaves no file behind. Once a
//! file is successfully mapped, loads are plain memory copies and cannot
//! fail. On non-Unix targets spilling degrades to resident chunks the
//! same way.

// Spilling is raw-byte I/O plus a C-ABI `mmap`: the unsafe blocks are
// (a) viewing an `&[f64]` as `&[u8]` and back (always-valid transmutes of
// plain-old-data), and (b) the mmap/munmap calls themselves, checked
// against the file length before the pointer is ever dereferenced.
#![allow(unsafe_code)]

use morpheus_dense::DenseMatrix;
use morpheus_runtime::faults::{self, Degradation};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable bounding the resident bytes of a chunked matrix.
pub const CHUNK_BYTES_ENV: &str = "MORPHEUS_CHUNK_BYTES";

/// Environment variable selecting the spill-file directory.
pub const SPILL_DIR_ENV: &str = "MORPHEUS_SPILL_DIR";

/// The resident budget in bytes (`MORPHEUS_CHUNK_BYTES`), read once.
/// Unset or unparseable means `u64::MAX`: chunks never spill and the
/// chunked backend behaves exactly as before this knob existed.
pub fn resident_budget_bytes() -> u64 {
    static BUDGET: OnceLock<u64> = OnceLock::new();
    *BUDGET.get_or_init(|| match std::env::var(CHUNK_BYTES_ENV) {
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            eprintln!("morpheus: unparseable {CHUNK_BYTES_ENV}={v:?}, spilling disabled");
            u64::MAX
        }),
        Err(_) => u64::MAX,
    })
}

/// The spill directory (`MORPHEUS_SPILL_DIR`, default the system temp
/// dir), read once.
pub fn spill_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| match std::env::var_os(SPILL_DIR_ENV) {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => std::env::temp_dir(),
    })
}

/// One dense chunk spilled to a memory-mapped file.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    map: Map,
    rows: usize,
    cols: usize,
}

impl SpillFile {
    /// Writes `d`'s values to a fresh spill file (temp + atomic rename)
    /// and maps it read-only. Fails — leaving no file behind — on any
    /// I/O error, on empty matrices (nothing to map), and on non-Unix
    /// targets.
    pub fn write(d: &DenseMatrix) -> io::Result<SpillFile> {
        let (rows, cols) = (d.rows(), d.cols());
        if rows * cols == 0 {
            return Err(io::Error::other("spill: empty chunk"));
        }
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = spill_dir().join(format!(
            "morpheus-spill-{}-{}.bin",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let values = d.as_slice();
        // Same-process round-trip: native-endian raw bytes of the f64
        // buffer, so load() restores bit-identical values.
        let bytes: &[u8] = unsafe {
            std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
        };
        let tmp = PathBuf::from(format!("{}.tmp.{}", path.display(), std::process::id()));
        std::fs::write(&tmp, bytes).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        if faults::fire("spill.write").is_some() {
            let _ = std::fs::remove_file(&tmp);
            return Err(io::Error::other("injected spill write failure"));
        }
        std::fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        if faults::fire("spill.map").is_some() {
            let _ = std::fs::remove_file(&path);
            return Err(io::Error::other("injected spill map failure"));
        }
        let map = Map::of_file(&path, bytes.len()).inspect_err(|_| {
            let _ = std::fs::remove_file(&path);
        })?;
        Ok(SpillFile {
            path,
            map,
            rows,
            cols,
        })
    }

    /// Chunk rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Chunk columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bytes on disk.
    pub fn len_bytes(&self) -> usize {
        self.map.len
    }

    /// Faults the chunk back in: one streaming copy of the mapped bytes
    /// into a fresh [`DenseMatrix`]. Infallible once the map exists.
    pub fn load(&self) -> DenseMatrix {
        let n = self.rows * self.cols;
        let mut values = vec![0.0f64; n];
        unsafe {
            std::ptr::copy_nonoverlapping(self.map.ptr.cast::<f64>(), values.as_mut_ptr(), n);
        }
        DenseMatrix::from_vec(self.rows, self.cols, values)
            .expect("spill: rows * cols matches the written buffer")
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        // Unlinking before Map::drop unmaps is fine: the mapping keeps
        // the inode alive until munmap.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A read-only `mmap` of a whole file. Declared against the C ABI
/// directly — this workspace builds without crates.io, and `libc` links
/// implicitly on the supported Unix targets.
#[derive(Debug)]
struct Map {
    ptr: *const u8,
    len: usize,
}

// The mapping is read-only and never remapped after construction.
unsafe impl Send for Map {}
unsafe impl Sync for Map {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    pub const PROT_READ: i32 = 0x1;
    pub const MAP_SHARED: i32 = 0x01;
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl Map {
    #[cfg(unix)]
    fn of_file(path: &std::path::Path, len: usize) -> io::Result<Map> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let actual = file.metadata()?.len();
        if (actual as usize) < len {
            return Err(io::Error::other(format!(
                "spill: file shrank to {actual} bytes, expected {len}"
            )));
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(Map {
            ptr: ptr.cast_const().cast::<u8>(),
            len,
        })
    }

    #[cfg(not(unix))]
    fn of_file(_path: &std::path::Path, _len: usize) -> io::Result<Map> {
        Err(io::Error::other("spill: mmap unsupported on this target"))
    }
}

impl Drop for Map {
    fn drop(&mut self) {
        #[cfg(unix)]
        unsafe {
            sys::munmap(self.ptr.cast_mut().cast(), self.len);
        }
    }
}

/// Attempts to spill a dense chunk, degrading to `None` (chunk stays
/// resident) on any failure, with the fallback counted in
/// [`faults::stats`].
pub(crate) fn try_spill(d: &DenseMatrix) -> Option<SpillFile> {
    match SpillFile::write(d) {
        Ok(f) => Some(f),
        Err(_) => {
            faults::note(Degradation::SpillFallback);
            None
        }
    }
}

/// Calibrated spill I/O rates `(read_ns_per_byte, write_ns_per_byte)`,
/// measured once per process by round-tripping a ~1 MiB chunk through
/// the configured spill directory. Falls back to conservative built-in
/// rates (disk-like, so planning stays sane) when the directory is
/// unusable or spilling is faulted off.
pub fn io_rates() -> (f64, f64) {
    static RATES: OnceLock<(f64, f64)> = OnceLock::new();
    *RATES.get_or_init(|| {
        const FALLBACK: (f64, f64) = (0.5, 1.0);
        let probe = DenseMatrix::from_fn(1024, 128, |i, j| (i * 131 + j * 17) as f64);
        let bytes = (probe.rows() * probe.cols() * 8) as f64;
        let t0 = std::time::Instant::now();
        let Ok(f) = SpillFile::write(&probe) else {
            return FALLBACK;
        };
        let write_ns = t0.elapsed().as_nanos() as f64;
        let t1 = std::time::Instant::now();
        let back = f.load();
        let read_ns = t1.elapsed().as_nanos() as f64;
        // Paranoia over rates only — a corrupt round-trip must never make
        // it into planning silently.
        debug_assert_eq!(back.as_slice(), probe.as_slice());
        (read_ns / bytes, write_ns / bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_bit_identical() {
        let d = DenseMatrix::from_fn(37, 5, |i, j| (i as f64 * 0.7 - j as f64) / 3.0);
        let f = SpillFile::write(&d).expect("spill to temp dir");
        assert_eq!(f.rows(), 37);
        assert_eq!(f.cols(), 5);
        assert_eq!(f.len_bytes(), 37 * 5 * 8);
        let back = f.load();
        assert_eq!(back.as_slice(), d.as_slice());
        // Load again: the map stays valid for the file's lifetime.
        assert_eq!(f.load().as_slice(), d.as_slice());
    }

    #[test]
    fn spill_file_is_removed_on_drop() {
        let d = DenseMatrix::from_fn(8, 8, |i, j| (i + j) as f64);
        let f = SpillFile::write(&d).unwrap();
        let path = f.path.clone();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists());
    }

    #[test]
    fn empty_chunks_refuse_to_spill() {
        let d = DenseMatrix::zeros(0, 4);
        assert!(SpillFile::write(&d).is_err());
    }

    #[test]
    fn io_rates_are_positive_and_finite() {
        let (r, w) = io_rates();
        assert!(r.is_finite() && r > 0.0);
        assert!(w.is_finite() && w > 0.0);
    }
}
