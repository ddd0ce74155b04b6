//! Length-prefixed, checksummed write-ahead log in one append-only file.
//!
//! Record framing on disk:
//!
//! ```text
//! ┌──────────┬───────────────┬───────────────┐
//! │ u32 len  │ u32 crc32(p)  │ payload p ... │   repeated
//! └──────────┴───────────────┴───────────────┘
//! ```
//!
//! Frames are packed back to back.  A frame with `len == 0` and `crc == 0`
//! is zero padding and reads as a clean end of log (real payloads always
//! carry at least a one-byte record tag, and the CRC-32 of the empty string
//! is 0).  The reader stops at the first frame that does not fully check out
//! and reports *why* — a torn tail ([`TailStatus::Truncated`]) is silently
//! expected after a crash, while a checksum mismatch
//! ([`TailStatus::Corrupt`]) stops replay at the last valid record.

use crate::checksum::crc32;
use crate::codec::Decoder;
use crate::error::{Result, StoreError};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::Path;

/// Upper bound on a single record's payload — anything larger is corruption,
/// not data.
pub const MAX_RECORD_LEN: u32 = 1 << 30;

/// How the log's tail ended during a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The log ends exactly at a frame boundary (or in zero padding).
    Clean,
    /// The final frame is incomplete — a torn write from a crash.  Expected;
    /// recovery drops it.
    Truncated,
    /// A complete frame failed its checksum — bytes were damaged in place.
    Corrupt,
}

/// The result of scanning a WAL from the start.
#[derive(Debug)]
pub struct WalScan {
    /// Every fully-valid record payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix; the writer reopens (and truncates)
    /// at this offset.
    pub valid_len: u64,
    /// Why the scan stopped.
    pub tail: TailStatus,
}

/// Append-only WAL writer over a file opened for append.  Each frame is
/// written through to the OS before [`WalWriter::append`] returns;
/// durability is only guaranteed after [`WalWriter::sync`] (the
/// group-commit point).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    /// Bytes of every frame written so far: the file's length.
    len: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the log at `path`, truncating it to
    /// `valid_len` (as reported by [`scan_wal`]) so a torn tail is physically
    /// discarded before new appends land.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidState`] if `valid_len` lies past the end of the
    /// file, before the file is changed (appends there would follow a zero
    /// gap that a scan reads as the end of the log); I/O errors from
    /// open/truncate.
    pub fn open<P: AsRef<Path>>(path: P, valid_len: u64) -> Result<Self> {
        let file = OpenOptions::new().append(true).create(true).open(path)?;
        let file_len = file.metadata()?.len();
        if valid_len > file_len {
            return Err(StoreError::InvalidState(format!(
                "cannot reopen a {file_len}-byte log at byte {valid_len}"
            )));
        }
        file.set_len(valid_len)?;
        Ok(WalWriter {
            file,
            len: valid_len,
        })
    }

    /// Logical byte length of the log (all appended frames).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no frame has ever been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one framed record.  The bytes reach the OS before this
    /// returns (WAL-before-state), but are only crash-durable after
    /// [`WalWriter::sync`].
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidState`] for a payload longer than
    /// [`MAX_RECORD_LEN`], before any byte is written; I/O errors from the
    /// writes.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() as u64 > u64::from(MAX_RECORD_LEN) {
            return Err(StoreError::InvalidState(format!(
                "a {}-byte record exceeds the {MAX_RECORD_LEN}-byte limit",
                payload.len()
            )));
        }
        self.file.write_all(&frame_header(payload))?;
        self.file.write_all(payload)?;
        self.len += 8 + payload.len() as u64;
        Ok(())
    }

    /// Appends only the first `keep` bytes of the frame for `payload`,
    /// simulating the torn write a crash leaves behind.  Crash-injection
    /// hook for the recovery tests; not part of the durable API.
    ///
    /// # Errors
    ///
    /// I/O errors from the write.
    #[doc(hidden)]
    pub fn append_torn(&mut self, payload: &[u8], keep: usize) -> Result<()> {
        let mut frame = frame_header(payload).to_vec();
        frame.extend_from_slice(payload);
        frame.truncate(keep);
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Forces every appended frame to stable storage — the group-commit
    /// point.
    ///
    /// # Errors
    ///
    /// I/O errors from the sync.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// The 8-byte header framing `payload`: its length, then its CRC-32.
fn frame_header(payload: &[u8]) -> [u8; 8] {
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Scans the WAL at `path` from the beginning, validating every frame.  A
/// missing file is an empty log: a store that crashed after writing its
/// `meta.bin` but before creating the log has logged nothing.
///
/// # Errors
///
/// I/O errors from reading the file.  Damaged *content* is not an error —
/// it ends the scan with the appropriate [`TailStatus`].
pub fn scan_wal<P: AsRef<Path>>(path: P) -> Result<WalScan> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let mut log = Decoder::new(&bytes);
    let mut records = Vec::new();
    let mut valid_len = 0;
    let tail = loop {
        if log.remaining() == 0 {
            break TailStatus::Clean;
        }
        let (Ok(len), Ok(crc)) = (log.u32(), log.u32()) else {
            break TailStatus::Truncated;
        };
        if len == 0 {
            // Zero padding: a clean end if the checksum word is also zero,
            // damage otherwise (no real record is empty — payloads always
            // carry a tag byte).
            break if crc == 0 {
                TailStatus::Clean
            } else {
                TailStatus::Corrupt
            };
        }
        if len > MAX_RECORD_LEN {
            break TailStatus::Corrupt;
        }
        let Ok(payload) = log.take(len as usize) else {
            break TailStatus::Truncated;
        };
        if crc32(payload) != crc {
            break TailStatus::Corrupt;
        }
        records.push(payload.to_vec());
        valid_len = bytes.len() - log.remaining();
    };
    Ok(WalScan {
        records,
        valid_len: valid_len as u64,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ns_store_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// A payload the size of a `churn_sharded_1m` round record: RNG clocks
    /// plus a 1,009,146-user outage mask.
    fn churn_round_sized() -> Vec<u8> {
        (0..126_219u32).map(|j| (j % 251) as u8).collect()
    }

    #[test]
    fn appended_records_scan_back_in_order() {
        let path = temp_wal("roundtrip.bin");
        let mut wal = WalWriter::open(&path, 0).unwrap();
        assert!(wal.is_empty());
        let mut payloads: Vec<Vec<u8>> = (0..40u32)
            .map(|i| {
                let n = 1 + (i as usize * 97) % 700;
                (0..n).map(|j| (i as u8).wrapping_add(j as u8)).collect()
            })
            .collect();
        payloads.insert(20, churn_round_sized());
        for p in &payloads {
            wal.append(p).unwrap();
        }
        wal.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.valid_len, wal.len());
        assert_eq!(scan.records, payloads);
    }

    #[test]
    fn reopen_at_valid_len_continues_the_log() {
        let path = temp_wal("reopen.bin");
        let mut wal = WalWriter::open(&path, 0).unwrap();
        wal.append(b"first").unwrap();
        wal.append(&churn_round_sized()).unwrap();
        wal.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        let mut wal = WalWriter::open(&path, scan.valid_len).unwrap();
        assert_eq!(wal.len(), scan.valid_len);
        wal.append(b"third").unwrap();
        wal.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.valid_len, wal.len());
        assert_eq!(
            scan.records,
            vec![b"first".to_vec(), churn_round_sized(), b"third".to_vec()]
        );
    }

    #[test]
    fn reopening_past_the_end_is_refused_and_changes_nothing() {
        let path = temp_wal("past_end.bin");
        let mut wal = WalWriter::open(&path, 0).unwrap();
        wal.append(b"alpha").unwrap();
        wal.sync().unwrap();
        let raw = std::fs::read(&path).unwrap();
        assert_eq!(raw.len(), 13);
        for valid_len in [113u64, 8192] {
            assert!(
                matches!(
                    WalWriter::open(&path, valid_len),
                    Err(StoreError::InvalidState(_))
                ),
                "valid_len {valid_len}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), raw, "valid_len {valid_len}");
            let scan = scan_wal(&path).unwrap();
            assert_eq!(scan.tail, TailStatus::Clean);
            assert_eq!(scan.valid_len, 13);
            assert_eq!(scan.records, vec![b"alpha".to_vec()]);
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_dropped_on_reopen() {
        let path = temp_wal("torn.bin");
        let mut wal = WalWriter::open(&path, 0).unwrap();
        wal.append(b"kept").unwrap();
        let torn = vec![0x55u8; 300];
        for keep in [1usize, 7, 8, 9, 150] {
            wal.append_torn(&torn, keep).unwrap();
            wal.sync().unwrap();
            let scan = scan_wal(&path).unwrap();
            assert_eq!(scan.tail, TailStatus::Truncated, "keep={keep}");
            assert_eq!(scan.records, vec![b"kept".to_vec()]);
            // Reopening at valid_len discards the torn frame.
            wal = WalWriter::open(&path, scan.valid_len).unwrap();
        }
        wal.append(b"after").unwrap();
        wal.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.records, vec![b"kept".to_vec(), b"after".to_vec()]);
    }

    #[test]
    fn flipped_bit_is_caught_by_the_checksum() {
        let path = temp_wal("flip.bin");
        let mut wal = WalWriter::open(&path, 0).unwrap();
        wal.append(b"alpha").unwrap();
        wal.append(b"beta").unwrap();
        wal.sync().unwrap();
        // Flip one payload bit of the second record on disk.
        let mut raw = std::fs::read(&path).unwrap();
        let second_payload_at = 8 + 5 + 8;
        raw[second_payload_at] ^= 0x04;
        std::fs::write(&path, &raw).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.tail, TailStatus::Corrupt);
        assert_eq!(scan.records, vec![b"alpha".to_vec()]);
        assert_eq!(scan.valid_len, 8 + 5);
    }

    #[test]
    fn zero_padding_reads_as_clean_end() {
        let path = temp_wal("padding.bin");
        let mut wal = WalWriter::open(&path, 0).unwrap();
        wal.append(b"only").unwrap();
        wal.sync().unwrap();
        let valid = wal.len();
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &raw).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.valid_len, valid);
        assert_eq!(scan.records, vec![b"only".to_vec()]);
    }

    #[test]
    fn oversize_records_are_refused_before_any_byte_is_written() {
        let path = temp_wal("oversize.bin");
        let mut wal = WalWriter::open(&path, 0).unwrap();
        wal.append(b"kept").unwrap();
        let len = wal.len();
        // Zeroed pages the length check never touches: no memory is
        // committed for them.
        let oversize = vec![0u8; MAX_RECORD_LEN as usize + 1];
        assert!(matches!(
            wal.append(&oversize),
            Err(StoreError::InvalidState(_))
        ));
        drop(oversize);
        assert_eq!(wal.len(), len);
        wal.append(b"after").unwrap();
        wal.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.records, vec![b"kept".to_vec(), b"after".to_vec()]);
    }

    #[test]
    fn absurd_length_is_corrupt_not_an_allocation() {
        let path = temp_wal("absurd.bin");
        let mut wal = WalWriter::open(&path, 0).unwrap();
        wal.append(b"ok").unwrap();
        wal.sync().unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.extend_from_slice(&[0u8; 12]);
        std::fs::write(&path, &raw).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.tail, TailStatus::Corrupt);
        assert_eq!(scan.records, vec![b"ok".to_vec()]);
    }
}
