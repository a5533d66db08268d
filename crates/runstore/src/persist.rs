//! Crash-safe persistence primitives.
//!
//! These used to live in `heapmd::persist`; they were re-homed here so
//! the run-store — the lowest layer of the observability plane — can
//! use them without a cycle, and `heapmd` re-exports them unchanged.
//!
//! * [`write_atomic`] — the classic write-to-temp-then-rename protocol,
//!   so a reader never observes a half-written artifact: it sees either
//!   the old file or the new one, never a torn mix. [`AtomicFile`] is
//!   the same protocol for a file written in pieces over time.
//! * [`crc32`] — the IEEE CRC-32 used by the length-framed trace
//!   stream and by every run-store column block to detect torn or
//!   bit-flipped bytes.
//!
//! Both are std-only; determinism matters because the chaos suite
//! replays identical fault schedules against these exact code paths.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Bytes [`crc32`] folds per step.
const CRC_SLICE: usize = 16;

/// The sliced lookup tables, built at compile time: row 0 is the
/// classic bytewise table of the reflected IEEE polynomial, and row
/// `k` advances a byte's contribution past `k` further zero bytes.
static CRC_TABLES: [[u32; 256]; CRC_SLICE] = crc_tables();

const fn crc_tables() -> [[u32; 256]; CRC_SLICE] {
    let mut t = [[0u32; 256]; CRC_SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut row = 1;
    while row < CRC_SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = t[row - 1][i];
            t[row][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        row += 1;
    }
    t
}

/// IEEE 802.3 CRC-32 (the polynomial used by zip/png/ethernet),
/// sliced 16 bytes per step over compile-time tables; the tail
/// shorter than a slice goes bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut slices = bytes.chunks_exact(CRC_SLICE);
    for slice in &mut slices {
        let mut s = [0u8; CRC_SLICE];
        s.copy_from_slice(slice);
        let head = crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        s[..4].copy_from_slice(&head.to_le_bytes());
        // Byte `i` still has `CRC_SLICE - 1 - i` bytes to pass.
        crc = 0;
        for (i, &b) in s.iter().enumerate() {
            crc ^= t[CRC_SLICE - 1 - i][b as usize];
        }
    }
    for &b in slices.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Writes `bytes` to `path` atomically: the contents land in a
/// temporary sibling file first, are flushed, and only then renamed
/// over `path`. A crash at any point leaves either the previous file
/// or the complete new one — never a truncated hybrid.
///
/// # Errors
///
/// Propagates any I/O error; on failure the temporary file is removed
/// (best-effort) and `path` is untouched.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let mut f = AtomicFile::create(path)?;
    f.write_all(bytes)?;
    f.publish()
}

/// A file written in pieces under its temporary sibling name and
/// published over its target in one rename, like [`write_atomic`]:
/// until [`publish`](Self::publish) the target keeps its old bytes, and
/// dropping the file unpublished removes the temporary.
///
/// A writer that must own its sink writes through a second handle from
/// [`try_clone`](Self::try_clone); this one keeps the right to publish.
#[derive(Debug)]
pub struct AtomicFile {
    file: fs::File,
    tmp: PathBuf,
    target: PathBuf,
    published: bool,
}

impl AtomicFile {
    /// Creates (or truncates) the temporary sibling of `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error of creating it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let target = path.as_ref().to_path_buf();
        let tmp = tmp_sibling(&target);
        Ok(AtomicFile {
            file: fs::File::create(&tmp)?,
            tmp,
            target,
            published: false,
        })
    }

    /// Another handle on the temporary file.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error of duplicating the handle.
    pub fn try_clone(&self) -> io::Result<fs::File> {
        self.file.try_clone()
    }

    /// Flushes the temporary file to disk and renames it over the
    /// target. Flush every other handle first.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error; the temporary is then removed and the
    /// target is untouched.
    pub fn publish(mut self) -> io::Result<()> {
        self.file.sync_all()?;
        fs::rename(&self.tmp, &self.target)?;
        self.published = true;
        Ok(())
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.published {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// The temporary sibling used by [`write_atomic`] and [`AtomicFile`]:
/// `<file>.tmp` in the same directory, so the final rename cannot cross
/// filesystems.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    /// The textbook bytewise loop the sliced [`crc32`] must agree with.
    fn bytewise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_bytewise_loop_at_every_length_and_alignment() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..72)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    bytewise_crc32(bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("heapmd-runstore-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!tmp_sibling(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_atomic_to_missing_directory_errors_without_tmp_litter() {
        let path = std::env::temp_dir()
            .join("heapmd-runstore-persist-missing")
            .join("no-such-dir")
            .join("x.json");
        assert!(write_atomic(&path, b"x").is_err());
        assert!(!tmp_sibling(&path).exists());
    }

    #[test]
    fn an_atomic_file_publishes_only_when_asked() {
        let dir = std::env::temp_dir().join(format!("heapmd-atomic-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.hmdt");
        std::fs::write(&path, b"old").unwrap();

        // Written through a second handle, as a streaming writer does:
        // the target keeps its old bytes until the publish.
        let file = AtomicFile::create(&path).unwrap();
        let mut handle = file.try_clone().unwrap();
        handle.write_all(b"new bytes").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert_eq!(std::fs::read(tmp_sibling(&path)).unwrap(), b"new bytes");
        drop(handle);
        file.publish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new bytes");
        assert!(!tmp_sibling(&path).exists());

        // Dropped unpublished (a failed run): the old file stays and the
        // temporary goes.
        let mut file = AtomicFile::create(&path).unwrap();
        file.write_all(b"half").unwrap();
        drop(file);
        assert_eq!(std::fs::read(&path).unwrap(), b"new bytes");
        assert!(!tmp_sibling(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
