//! Length-prefixed, checksummed write-ahead log over page-granular segments.
//!
//! Record framing on disk:
//!
//! ```text
//! ┌──────────┬───────────────┬───────────────┐
//! │ u32 len  │ u32 crc32(p)  │ payload p ... │   repeated
//! └──────────┴───────────────┴───────────────┘
//! ```
//!
//! Frames are packed back to back and freely span page boundaries.  A frame
//! with `len == 0` and `crc == 0` is zero padding and reads as a clean end of
//! log (real payloads always carry at least a one-byte record tag, and the
//! CRC-32 of the empty string is 0).  The reader stops at the first frame
//! that does not fully check out and reports *why* — a torn tail
//! ([`TailStatus::Truncated`]) is silently expected after a crash, while a
//! checksum mismatch ([`TailStatus::Corrupt`]) stops replay at the last
//! valid record.

use crate::buffer::BufferPool;
use crate::checksum::crc32;
use crate::error::{Result, StoreError};
use crate::page::{SegmentFile, PAGE_SIZE};
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
    /// `(hits, misses, evictions)` of the page cache the scan read through —
    /// the telemetry layer's buffer-pool source.
    pub pool_stats: (u64, u64, u64),
    /// Why the scan stopped.
    pub tail: TailStatus,
}

/// Append-only WAL writer.  Appends buffer through an in-memory tail page
/// and are written through to the OS immediately; durability is only
/// guaranteed after [`WalWriter::sync`] (the group-commit point).
#[derive(Debug)]
pub struct WalWriter {
    segment: SegmentFile,
    /// The partially-filled last page of the log.
    tail: Box<[u8]>,
    /// Valid bytes in `tail`.
    tail_len: usize,
    /// Page number `tail` maps to.
    tail_page: u64,
}

impl WalWriter {
    /// Opens the log at `path`, truncating it to `valid_len` (as reported by
    /// [`scan_wal`]) so a torn tail is physically discarded before new
    /// appends land.
    ///
    /// # Errors
    ///
    /// I/O errors from open/truncate/read.
    pub fn open<P: AsRef<Path>>(path: P, valid_len: u64) -> Result<Self> {
        let mut segment = SegmentFile::open(path)?;
        segment.truncate(valid_len)?;
        let tail_page = valid_len / PAGE_SIZE as u64;
        let tail_len = (valid_len % PAGE_SIZE as u64) as usize;
        let mut tail = vec![0u8; PAGE_SIZE].into_boxed_slice();
        if tail_len > 0 {
            let got = segment.read_page(tail_page, &mut tail)?;
            if got < tail_len {
                return Err(StoreError::Corrupt(format!(
                    "wal tail page {tail_page} holds {got} bytes, expected at least {tail_len}"
                )));
            }
            tail[tail_len..].fill(0);
        }
        Ok(WalWriter {
            segment,
            tail,
            tail_len,
            tail_page,
        })
    }

    /// Logical byte length of the log (all appended frames).
    pub fn len(&self) -> u64 {
        self.tail_page * PAGE_SIZE as u64 + self.tail_len as u64
    }

    /// Whether no frame has ever been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one framed record.  The bytes reach the OS before this
    /// returns (WAL-before-state), but are only crash-durable after
    /// [`WalWriter::sync`].
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidState`] for a payload longer than
    /// [`MAX_RECORD_LEN`], before any byte is written; I/O errors from the
    /// page writes.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() as u64 > u64::from(MAX_RECORD_LEN) {
            return Err(StoreError::InvalidState(format!(
                "a {}-byte record exceeds the {MAX_RECORD_LEN}-byte limit",
                payload.len()
            )));
        }
        let len = (payload.len() as u32).to_le_bytes();
        let crc = crc32(payload).to_le_bytes();
        self.push(&len)?;
        self.push(&crc)?;
        self.push(payload)?;
        self.flush_tail()
    }

    /// Appends only the first `keep` bytes of the frame for `payload`,
    /// simulating the torn write a crash leaves behind.  Crash-injection
    /// hook for the recovery tests; not part of the durable API.
    ///
    /// # Errors
    ///
    /// I/O errors from the page writes.
    #[doc(hidden)]
    pub fn append_torn(&mut self, payload: &[u8], keep: usize) -> Result<()> {
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let keep = keep.min(frame.len());
        self.push(&frame[..keep])?;
        self.flush_tail()
    }

    /// Forces every appended frame to stable storage — the group-commit
    /// point.
    ///
    /// # Errors
    ///
    /// I/O errors from the sync.
    pub fn sync(&mut self) -> Result<()> {
        self.segment.sync()
    }

    /// Copies `bytes` into the log through the tail page, writing each page
    /// as it fills.
    fn push(&mut self, mut bytes: &[u8]) -> Result<()> {
        while !bytes.is_empty() {
            let room = PAGE_SIZE - self.tail_len;
            let take = room.min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len == PAGE_SIZE {
                self.segment
                    .write_page(self.tail_page, &self.tail, PAGE_SIZE)?;
                self.tail_page += 1;
                self.tail_len = 0;
                self.tail.fill(0);
            }
        }
        Ok(())
    }

    /// Writes the partial tail page through to the OS.
    fn flush_tail(&mut self) -> Result<()> {
        if self.tail_len > 0 {
            self.segment
                .write_page(self.tail_page, &self.tail, self.tail_len)?;
        }
        Ok(())
    }
}

/// Scans the WAL at `path` from the beginning, validating every frame.
///
/// # Errors
///
/// I/O errors from reading the segment.  Damaged *content* is not an error —
/// it ends the scan with the appropriate [`TailStatus`].
pub fn scan_wal<P: AsRef<Path>>(path: P) -> Result<WalScan> {
    let segment = SegmentFile::open(path)?;
    let mut pool = BufferPool::new(segment);
    let file_len = pool.segment().len()?;
    // Pull the log through the page cache into one contiguous buffer; WALs
    // here are small (one epoch of round records) and the scan happens once
    // per recovery.
    let mut bytes = Vec::with_capacity(file_len as usize);
    let mut page_no = 0u64;
    while (bytes.len() as u64) < file_len {
        let (page, valid) = pool.page(page_no)?;
        bytes.extend_from_slice(&page[..valid]);
        if valid < PAGE_SIZE {
            break;
        }
        page_no += 1;
    }
    let (hits, misses) = pool.stats();
    let pool_stats = (hits, misses, pool.evictions());
    let mut records = Vec::new();
    let mut offset = 0usize;
    let tail = loop {
        if offset == bytes.len() {
            break TailStatus::Clean;
        }
        if bytes.len() - offset < 8 {
            break TailStatus::Truncated;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
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
        if len > MAX_RECORD_LEN || (len as usize) > bytes.len() - offset - 8 {
            break if len > MAX_RECORD_LEN {
                TailStatus::Corrupt
            } else {
                TailStatus::Truncated
            };
        }
        let payload = &bytes[offset + 8..offset + 8 + len as usize];
        if crc32(payload) != crc {
            break TailStatus::Corrupt;
        }
        records.push(payload.to_vec());
        offset += 8 + len as usize;
    };
    Ok(WalScan {
        records,
        valid_len: offset as u64,
        pool_stats,
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

    #[test]
    fn append_scan_roundtrip_across_page_boundaries() {
        let path = temp_wal("roundtrip.bin");
        let mut wal = WalWriter::open(&path, 0).unwrap();
        assert!(wal.is_empty());
        let payloads: Vec<Vec<u8>> = (0..40u32)
            .map(|i| {
                let n = 1 + (i as usize * 97) % 700;
                (0..n).map(|j| (i as u8).wrapping_add(j as u8)).collect()
            })
            .collect();
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
        wal.append(b"second").unwrap();
        wal.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        let mut wal = WalWriter::open(&path, scan.valid_len).unwrap();
        wal.append(b"third").unwrap();
        wal.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(
            scan.records,
            vec![b"first".to_vec(), b"second".to_vec(), b"third".to_vec()]
        );
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
