//! Spill files for out-of-core chunks.
//!
//! A [`SpillFile`] holds one dense chunk's values on disk behind an open
//! handle. The file is unlinked as soon as it is created, so no spill file
//! is ever visible in the directory, and none outlives the handle or the
//! process, a crash included. [`SpillFile::load`] reads the values back
//! with positioned reads into a fresh [`DenseMatrix`]: one streaming pass
//! per load, and nothing of the chunk stays in memory between operators.
//!
//! Two process-wide knobs, each read once at first use:
//!
//! * `MORPHEUS_CHUNK_BYTES` — resident budget in bytes for chunked
//!   matrices; chunks beyond it spill. Unset means "never spill".
//! * `MORPHEUS_SPILL_DIR` — directory for spill files (default: the
//!   system temp dir).
//!
//! Failure model: spilling is an *optimization* with a degradation rung,
//! never a correctness hazard. Any I/O failure while writing a spill file
//! — injectable via the `spill.write` failpoint — keeps the chunk
//! resident in memory and notes [`Degradation::SpillFallback`]. A load
//! fails only if the file changed under its handle (truncated, say): it
//! returns [`io::ErrorKind::UnexpectedEof`] naming the file, and the
//! chunked matrix panics with that message (see
//! [`ChunkedMatrix`](crate::ChunkedMatrix)). Empty chunks and non-Unix
//! targets (no positioned reads in std) refuse to spill and stay
//! resident the same way.

use morpheus_dense::DenseMatrix;
use morpheus_runtime::faults::{self, Degradation};
use morpheus_runtime::Executor;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable bounding the resident bytes of a chunked matrix.
pub const CHUNK_BYTES_ENV: &str = "MORPHEUS_CHUNK_BYTES";

/// Environment variable selecting the spill-file directory.
pub const SPILL_DIR_ENV: &str = "MORPHEUS_SPILL_DIR";

/// Bytes moved per write or read call, through a buffer on the stack.
/// Inside a chunked pass, a heap buffer allocated per load made loads
/// about 1.7× slower, and 64 KiB or 1 MiB windows about 10 % slower.
const WINDOW_BYTES: usize = 256 << 10;

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

/// One dense chunk spilled to an unlinked file, kept by its open handle.
#[derive(Debug)]
pub struct SpillFile {
    file: File,
    /// The name the file was created under; it only labels errors.
    path: PathBuf,
    rows: usize,
    cols: usize,
}

impl SpillFile {
    /// Creates a spill file, unlinks it at once and writes `d`'s values
    /// through it in native byte order, so [`load`](Self::load) restores
    /// them bit for bit. Fails — leaving no file behind — on any I/O
    /// error, on empty matrices, and on non-Unix targets.
    pub fn write(d: &DenseMatrix) -> io::Result<SpillFile> {
        let (rows, cols) = (d.rows(), d.cols());
        if rows * cols == 0 || !cfg!(unix) {
            return Err(io::Error::other("spill: empty chunk or non-Unix target"));
        }
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = spill_dir().join(format!(
            "morpheus-spill-{}-{}.bin",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        std::fs::remove_file(&path)?;
        let mut buf = [0u8; WINDOW_BYTES];
        for values in d.as_slice().chunks(WINDOW_BYTES / 8) {
            let bytes = &mut buf[..values.len() * 8];
            for (b, v) in bytes.chunks_exact_mut(8).zip(values) {
                b.copy_from_slice(&v.to_ne_bytes());
            }
            file.write_all(bytes)?;
        }
        if faults::fire("spill.write").is_some() {
            return Err(io::Error::other("injected spill write failure"));
        }
        Ok(SpillFile {
            file,
            path,
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
        self.rows * self.cols * 8
    }

    /// Reads the chunk back into a fresh [`DenseMatrix`], one streaming
    /// pass of positioned reads; concurrent loads may share the handle.
    ///
    /// # Errors
    /// Any read error, naming the file. A file that shrank under the
    /// handle gives [`io::ErrorKind::UnexpectedEof`].
    pub fn load(&self) -> io::Result<DenseMatrix> {
        self.load_beside(&Executor::new(1), || ()).1
    }

    /// [`load`](Self::load) with `work` run beside it on one `ex.par_join`
    /// stride. The other stride reads windows from the start; the `work`
    /// stride reads whichever are left once `work` returns, so a short
    /// `work` does not idle behind the read.
    pub(crate) fn load_beside<R: Send>(
        &self,
        ex: &Executor,
        work: impl FnOnce() -> R + Send,
    ) -> (R, io::Result<DenseMatrix>) {
        let mut values = vec![0.0; self.rows * self.cols];
        let windows = Mutex::new(values.chunks_mut(WINDOW_BYTES / 8).enumerate());
        let read = || -> io::Result<()> {
            let mut buf = [0u8; WINDOW_BYTES];
            loop {
                let next = windows
                    .lock()
                    .expect("spill: nothing panics while holding the window lock")
                    .next();
                let Some((k, dst)) = next else {
                    return Ok(());
                };
                let bytes = &mut buf[..dst.len() * 8];
                read_exact_at(&self.file, bytes, (k * WINDOW_BYTES) as u64).map_err(|e| {
                    io::Error::new(e.kind(), format!("spill file {}: {e}", self.path.display()))
                })?;
                for (v, b) in dst.iter_mut().zip(bytes.chunks_exact(8)) {
                    *v = f64::from_ne_bytes(b.try_into().expect("8-byte chunk"));
                }
            }
        };
        let ((r, mine), theirs) = ex.par_join(|| (work(), read()), read);
        let loaded = mine.and(theirs).map(|()| {
            DenseMatrix::from_vec(self.rows, self.cols, values)
                .expect("spill: rows * cols matches the written buffer")
        });
        (r, loaded)
    }

    /// Shrinks the file under the live handle, as another process could,
    /// and returns the name it was created under.
    #[cfg(test)]
    pub(crate) fn truncate(&self, len: u64) -> &std::path::Path {
        self.file.set_len(len).expect("truncate a spill file");
        &self.path
    }
}

/// `FileExt::read_exact_at`: positioned, so loads need no shared cursor.
/// std has it on Unix only; elsewhere [`SpillFile::write`] refuses, so
/// this is never reached.
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    return std::os::unix::fs::FileExt::read_exact_at(file, buf, offset);
    #[cfg(not(unix))]
    {
        let _ = (file, buf, offset);
        unreachable!("spill: write refuses on non-Unix targets")
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
        let Ok(back) = f.load() else {
            return FALLBACK;
        };
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
        // 70 000 values span three read windows, the last one partial.
        let d = DenseMatrix::from_fn(14_000, 5, |i, j| (i as f64 * 0.7 - j as f64) / 3.0);
        let f = SpillFile::write(&d).expect("spill to temp dir");
        assert_eq!(f.rows(), 14_000);
        assert_eq!(f.cols(), 5);
        assert_eq!(f.len_bytes(), 14_000 * 5 * 8);
        assert_eq!(f.file.metadata().unwrap().len(), 14_000 * 5 * 8);
        let back = f.load().unwrap();
        assert_eq!(back.as_slice(), d.as_slice());
        // Load again: the handle stays readable for the file's lifetime.
        assert_eq!(f.load().unwrap().as_slice(), d.as_slice());
    }

    #[test]
    fn no_spill_file_is_visible_once_write_returns() {
        let d = DenseMatrix::from_fn(8, 8, |i, j| (i + j) as f64);
        let f = SpillFile::write(&d).unwrap();
        assert!(!f.path.exists(), "{} is still linked", f.path.display());
        assert_eq!(f.load().unwrap().as_slice(), d.as_slice());
    }

    #[test]
    fn truncated_file_is_an_eof_naming_the_file() {
        let d = DenseMatrix::from_fn(2000, 64, |i, j| (i * 64 + j) as f64);
        let f = SpillFile::write(&d).unwrap();
        for len in [0, f.len_bytes() as u64 / 2] {
            let name = f.truncate(len).display().to_string();
            let err = f.load().expect_err("a truncated spill must not load");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            assert!(err.to_string().contains(&name), "{err}");
        }
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
