//! Snapshot, store-meta and ledger files: the non-log half of the store.
//!
//! All three share one framing — an 8-byte magic, a `u32` body length, a
//! `u32` CRC-32 of the body, then the body — and are written atomically
//! (temp file, fsync, rename) so a crash leaves either the old file or the
//! new one, never a torn hybrid.  A snapshot that fails its checksum is
//! simply skipped during recovery; the WAL replays from the previous one
//! (or from round zero).
//!
//! A save costs about one pass over its bytes.  The body is encoded straight
//! into the temp file through a fixed buffer; each full buffer is folded
//! into a running CRC while it is still in cache, then written.  The header
//! is written last: the length and CRC go in at offset 8 once the body is
//! out, and only then is the temp file synced and renamed over the target.
//! The bytes are the same as those of a body built whole in memory and
//! written behind its header.  A load checks the CRC over the body in the
//! buffer the file was read into, and decodes from that same buffer.

use crate::checksum::{crc32, Crc32};
use crate::codec::{Decoder, Word};
use crate::error::{Result, StoreError};
use network_shuffle::prelude::{
    AccountantCheckpoint, AccountantShardCheckpoint, CoordinatorCheckpoint, CoordinatorConfig,
    ProtocolKind,
};
use ns_dp::prelude::BudgetLedger;
use ns_graph::prelude::{EngineCheckpoint, ShardCheckpoint};
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::records::{draw_mode_code, draw_mode_from_code};

/// Magic of snapshot files (`snap-<round>.bin`).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"NSSNAP01";
/// Magic of the store's `meta.bin`.
pub const META_MAGIC: &[u8; 8] = b"NSMETA01";
/// Magic of budget-ledger files.
pub const LEDGER_MAGIC: &[u8; 8] = b"NSLEDG01";

/// Body bytes a framed-file writer gathers before each checksummed write.
const WRITE_BUFFER: usize = 1 << 20;

/// The `u32` length field of a framed body of `body_len` bytes.
///
/// # Errors
///
/// [`StoreError::InvalidState`] past `u32::MAX` bytes, which the field
/// cannot hold: a wrapped length would make the file read as corrupt.
fn frame_len(body_len: u64) -> Result<u32> {
    u32::try_from(body_len).map_err(|_| {
        StoreError::InvalidState(format!(
            "a framed body of at least {body_len} bytes exceeds the {}-byte limit",
            u32::MAX
        ))
    })
}

/// Streams a framed file's body into the file through a fixed buffer,
/// keeping its CRC and byte count as it goes.
struct BodyWriter {
    file: fs::File,
    buf: Box<[u8]>,
    /// Bytes of `buf` holding encoded body not yet written.
    filled: usize,
    crc: Crc32,
    /// Body bytes written to the file so far.
    written: u64,
}

impl BodyWriter {
    fn new(file: fs::File) -> Self {
        BodyWriter {
            file,
            buf: vec![0; WRITE_BUFFER].into_boxed_slice(),
            filled: 0,
            crc: Crc32::new(),
            written: 0,
        }
    }

    fn put<T: Word>(&mut self, value: T) -> Result<()> {
        self.put_all(&[value])
    }

    /// Appends a length prefix, then the values.
    fn put_counted<T: Word>(&mut self, values: &[T]) -> Result<()> {
        self.put(values.len())?;
        self.put_all(values)
    }

    fn put_all<T: Word>(&mut self, mut values: &[T]) -> Result<()> {
        loop {
            let room = (self.buf.len() - self.filled) / T::WIDTH;
            let (now, rest) = values.split_at(room.min(values.len()));
            let end = self.filled + now.len() * T::WIDTH;
            for (dst, &v) in self.buf[self.filled..end]
                .chunks_exact_mut(T::WIDTH)
                .zip(now)
            {
                v.put_le(dst);
            }
            self.filled = end;
            if rest.is_empty() {
                return Ok(());
            }
            self.flush()?;
            values = rest;
        }
    }

    /// Checksums and writes the buffered bytes, refusing them first if they
    /// would take the body past what the frame's length field holds.
    fn flush(&mut self) -> Result<()> {
        let pending = &self.buf[..self.filled];
        let written = self.written + pending.len() as u64;
        frame_len(written)?;
        self.crc.update(pending);
        self.file.write_all(pending)?;
        self.written = written;
        self.filled = 0;
        Ok(())
    }
}

/// Writes `magic`, a placeholder header and the body `encode` streams into
/// the temp file `tmp`, then fills in the header and syncs the file.
fn write_temp(
    tmp: &Path,
    magic: &[u8; 8],
    encode: impl FnOnce(&mut BodyWriter) -> Result<()>,
) -> Result<()> {
    let mut file = fs::File::create(tmp)?;
    file.write_all(magic)?;
    file.write_all(&[0; 8])?;
    let mut body = BodyWriter::new(file);
    encode(&mut body)?;
    body.flush()?;
    let len = frame_len(body.written)?;
    let crc = body.crc.finish();
    let mut file = body.file;
    file.seek(SeekFrom::Start(8))?;
    file.write_all(&len.to_le_bytes())?;
    file.write_all(&crc.to_le_bytes())?;
    file.sync_data()?;
    Ok(())
}

/// Writes the framed file `magic + len + crc + body` to `path` atomically:
/// `encode` streams the body into a temp file in the same directory, which
/// is synced and renamed over the target.  On any error the temp file is
/// removed and the target is left as it was.
fn write_framed(
    path: &Path,
    magic: &[u8; 8],
    encode: impl FnOnce(&mut BodyWriter) -> Result<()>,
) -> Result<()> {
    let tmp = path.with_extension("tmp");
    if let Err(e) = write_temp(&tmp, magic, encode) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    fs::rename(&tmp, path)?;
    // Make the rename itself durable where the platform allows it.
    if let Some(dir) = path.parent() {
        if let Ok(dir_file) = fs::File::open(dir) {
            let _ = dir_file.sync_all();
        }
    }
    Ok(())
}

/// Reads a framed file, verifies it and hands its body to `decode`, in
/// place in the buffer the file was read into.
///
/// # Errors
///
/// I/O errors from the read; [`StoreError::Corrupt`] for bad magic, short
/// files, length mismatches or checksum failures, and whatever `decode`
/// returns.
fn read_verified<T>(
    path: &Path,
    magic: &[u8; 8],
    decode: impl FnOnce(&[u8]) -> Result<T>,
) -> Result<T> {
    let raw = fs::read(path)?;
    let mut file = Decoder::new(&raw);
    let (Ok(file_magic), Ok(len), Ok(crc)) = (file.take(8), file.u32(), file.u32()) else {
        return Err(StoreError::Corrupt(format!(
            "{}: {} bytes is too short for a framed file",
            path.display(),
            raw.len()
        )));
    };
    if file_magic != magic {
        return Err(StoreError::Corrupt(format!(
            "{}: bad magic {file_magic:?}",
            path.display()
        )));
    }
    let body = file.take(file.remaining())?;
    if body.len() != len as usize {
        return Err(StoreError::Corrupt(format!(
            "{}: header claims {len} body bytes, file holds {}",
            path.display(),
            body.len()
        )));
    }
    if crc32(body) != crc {
        return Err(StoreError::Corrupt(format!(
            "{}: body checksum mismatch",
            path.display()
        )));
    }
    decode(body)
}

// ---------------------------------------------------------------------------
// Coordinator checkpoints (snapshot bodies)
// ---------------------------------------------------------------------------

/// Encodes a full coordinator checkpoint into a framed body.
fn encode_checkpoint(checkpoint: &CoordinatorCheckpoint, w: &mut BodyWriter) -> Result<()> {
    let engine = &checkpoint.engine;
    w.put(engine.round)?;
    w.put(draw_mode_code(engine.draw_mode))?;
    w.put_counted(&engine.positions)?;
    w.put(engine.shards.len())?;
    for shard in &engine.shards {
        w.put_all(&shard.rng_key)?;
        w.put(shard.rng_counter)?;
        w.put(shard.rng_cursor)?;
        w.put_counted(&shard.bucket_starts)?;
        w.put_counted(&shard.bucket_walkers)?;
    }
    let accountant = &checkpoint.accountant;
    w.put(accountant.round)?;
    w.put(accountant.shards.len())?;
    for shard in &accountant.shards {
        w.put_counted(&shard.origins)?;
        w.put_counted(&shard.rows)?;
    }
    w.put(checkpoint.recorder_rounds)?;
    w.put_counted(&checkpoint.recorder_messages)?;
    w.put_counted(&checkpoint.recorder_peaks)
}

fn take_usize_vec(d: &mut Decoder<'_>) -> Result<Vec<usize>> {
    let n = d.len()?;
    d.lens(n)
}

fn take_u32_vec(d: &mut Decoder<'_>) -> Result<Vec<u32>> {
    let n = d.len()?;
    d.u32s(n)
}

/// Decodes a snapshot body written by [`save_snapshot`].
///
/// # Errors
///
/// [`StoreError::Corrupt`] on any structural mismatch, before allocating
/// for an array the body cannot hold, and when the accountant's or the
/// traffic recorder's clock differs from the engine's round (a coordinator
/// only ever captures them in lockstep).
pub fn decode_checkpoint(body: &[u8]) -> Result<CoordinatorCheckpoint> {
    let mut d = Decoder::new(body);
    let round = d.len()?;
    let draw_mode = draw_mode_from_code(d.take(1)?[0])?;
    let positions = take_u32_vec(&mut d)?;
    let shard_count = d.len()?;
    let mut shards = Vec::new();
    for _ in 0..shard_count {
        let mut rng_key = [0u32; 8];
        for word in &mut rng_key {
            *word = d.u32()?;
        }
        let rng_counter = d.u64()?;
        let rng_cursor = d.u32()?;
        let bucket_starts = take_usize_vec(&mut d)?;
        let bucket_walkers = take_u32_vec(&mut d)?;
        shards.push(ShardCheckpoint {
            rng_key,
            rng_counter,
            rng_cursor,
            bucket_starts,
            bucket_walkers,
        });
    }
    let engine = EngineCheckpoint {
        positions,
        round,
        draw_mode,
        shards,
    };
    let accountant_round = d.len()?;
    let accountant_shards = d.len()?;
    let mut acc_shards = Vec::new();
    for _ in 0..accountant_shards {
        let origins = take_usize_vec(&mut d)?;
        let row_count = d.len()?;
        let rows = d.f64s(row_count)?;
        acc_shards.push(AccountantShardCheckpoint { origins, rows });
    }
    let accountant = AccountantCheckpoint {
        round: accountant_round,
        shards: acc_shards,
    };
    let recorder_rounds = d.len()?;
    let recorder_messages = take_usize_vec(&mut d)?;
    let recorder_peaks = take_usize_vec(&mut d)?;
    d.finish()?;
    if accountant_round != round || recorder_rounds != round {
        return Err(StoreError::Corrupt(format!(
            "snapshot clocks disagree: engine at round {round}, accountant at \
             {accountant_round}, recorder at {recorder_rounds}"
        )));
    }
    Ok(CoordinatorCheckpoint {
        engine,
        accountant,
        recorder_rounds,
        recorder_messages,
        recorder_peaks,
    })
}

/// Path of the snapshot capturing `round` inside `dir`.
pub fn snapshot_path(dir: &Path, round: usize) -> PathBuf {
    dir.join(format!("snap-{round}.bin"))
}

/// Atomically persists `checkpoint` as `snap-<round>.bin` in `dir`.
///
/// # Errors
///
/// I/O errors from the atomic write; [`StoreError::InvalidState`] for a
/// body past `u32::MAX` bytes, with the previous file left in place.
pub fn save_snapshot(dir: &Path, checkpoint: &CoordinatorCheckpoint) -> Result<PathBuf> {
    let path = snapshot_path(dir, checkpoint.engine.round);
    write_framed(&path, SNAPSHOT_MAGIC, |w| encode_checkpoint(checkpoint, w))?;
    Ok(path)
}

/// Loads and validates the snapshot for `round` from `dir`.
///
/// # Errors
///
/// I/O errors; [`StoreError::Corrupt`] when the file fails verification.
pub fn load_snapshot(dir: &Path, round: usize) -> Result<CoordinatorCheckpoint> {
    read_verified(
        &snapshot_path(dir, round),
        SNAPSHOT_MAGIC,
        decode_checkpoint,
    )
}

// ---------------------------------------------------------------------------
// Store meta (the epoch's immutable configuration)
// ---------------------------------------------------------------------------

/// The immutable facts `meta.bin` pins: the coordinator configuration plus
/// the topology's identity, so recovery can refuse a mismatched graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreMeta {
    /// The coordinator configuration of the epoch.
    pub config: CoordinatorConfig,
    /// Node count of the graph the epoch runs on.
    pub node_count: usize,
    /// Shard count of the partition the epoch runs on.
    pub shard_count: usize,
}

fn protocol_code(kind: ProtocolKind) -> u8 {
    match kind {
        ProtocolKind::All => 0,
        ProtocolKind::Single => 1,
    }
}

fn protocol_from_code(code: u8) -> Result<ProtocolKind> {
    match code {
        0 => Ok(ProtocolKind::All),
        1 => Ok(ProtocolKind::Single),
        other => Err(StoreError::Corrupt(format!(
            "unknown protocol code {other}"
        ))),
    }
}

/// Encodes a [`StoreMeta`] into a framed body.
fn encode_meta(meta: &StoreMeta, w: &mut BodyWriter) -> Result<()> {
    w.put(meta.config.seed)?;
    w.put(meta.config.laziness)?;
    w.put(protocol_code(meta.config.protocol))?;
    w.put(meta.config.tracked_per_shard as u64)?;
    w.put(draw_mode_code(meta.config.draw_mode))?;
    w.put(meta.node_count)?;
    w.put(meta.shard_count)
}

/// Decodes a `meta.bin` body written by [`save_meta`].
///
/// # Errors
///
/// [`StoreError::Corrupt`] on structural mismatch.
pub fn decode_meta(body: &[u8]) -> Result<StoreMeta> {
    let mut d = Decoder::new(body);
    let seed = d.u64()?;
    let laziness = d.f64()?;
    let protocol = protocol_from_code(d.take(1)?[0])?;
    let tracked_per_shard = d.u64()? as usize;
    let draw_mode = draw_mode_from_code(d.take(1)?[0])?;
    let node_count = d.len()?;
    let shard_count = d.len()?;
    d.finish()?;
    Ok(StoreMeta {
        config: CoordinatorConfig {
            seed,
            laziness,
            protocol,
            tracked_per_shard,
            draw_mode,
        },
        node_count,
        shard_count,
    })
}

/// Atomically writes `meta.bin` into `dir`.
///
/// # Errors
///
/// I/O errors from the atomic write.
pub fn save_meta(dir: &Path, meta: &StoreMeta) -> Result<()> {
    write_framed(&dir.join("meta.bin"), META_MAGIC, |w| encode_meta(meta, w))
}

/// Loads and validates `meta.bin` from `dir`.
///
/// # Errors
///
/// I/O errors; [`StoreError::Corrupt`] on verification failure.
pub fn load_meta(dir: &Path) -> Result<StoreMeta> {
    read_verified(&dir.join("meta.bin"), META_MAGIC, decode_meta)
}

// ---------------------------------------------------------------------------
// Budget ledgers
// ---------------------------------------------------------------------------

/// Atomically persists a budget ledger at `path`.
///
/// # Errors
///
/// I/O errors from the atomic write; [`StoreError::InvalidState`] for a
/// body past `u32::MAX` bytes, with the previous file left in place.
pub fn save_ledger(path: &Path, ledger: &BudgetLedger) -> Result<()> {
    write_framed(path, LEDGER_MAGIC, |w| {
        w.put(ledger.user_count())?;
        w.put_all(ledger.remaining_epsilon())?;
        w.put_all(ledger.remaining_delta())
    })
}

/// Loads and validates a budget ledger from `path`.
///
/// # Errors
///
/// I/O errors; [`StoreError::Corrupt`] on verification or shape failure,
/// before allocating for a user count the body cannot hold.
pub fn load_ledger(path: &Path) -> Result<BudgetLedger> {
    read_verified(path, LEDGER_MAGIC, |body| {
        let mut d = Decoder::new(body);
        let n = d.len()?;
        let epsilon = d.f64s(n)?;
        let delta = d.f64s(n)?;
        d.finish()?;
        Ok(BudgetLedger::from_remaining(epsilon, delta)?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_dp::prelude::PrivacyGuarantee;
    use ns_graph::round::DrawMode;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("ns_store_snapshot_test")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_checkpoint() -> CoordinatorCheckpoint {
        CoordinatorCheckpoint {
            engine: EngineCheckpoint {
                positions: vec![3, 1, 4, 1, 5],
                round: 9,
                draw_mode: DrawMode::Fast,
                shards: vec![
                    ShardCheckpoint {
                        rng_key: [1, 2, 3, 4, 5, 6, 7, 8],
                        rng_counter: 42,
                        rng_cursor: 7,
                        bucket_starts: vec![0, 2, 5],
                        bucket_walkers: vec![0, 3, 1, 2, 4],
                    },
                    ShardCheckpoint {
                        rng_key: [8, 7, 6, 5, 4, 3, 2, 1],
                        rng_counter: 0,
                        rng_cursor: 16,
                        bucket_starts: vec![0, 0],
                        bucket_walkers: vec![],
                    },
                ],
            },
            accountant: AccountantCheckpoint {
                round: 9,
                shards: vec![AccountantShardCheckpoint {
                    origins: vec![0, 4],
                    rows: vec![0.25, 0.75, -0.0, f64::from_bits(0x3FF0000000000001)],
                }],
            },
            recorder_rounds: 9,
            recorder_messages: vec![10, 0, 3, 7, 2],
            recorder_peaks: vec![2, 1, 1, 3, 1],
        }
    }

    /// Writes `magic`, the frame header and `body`, as a save would.
    fn write_raw_frame(path: &Path, magic: &[u8; 8], body: &[u8]) {
        let mut raw = magic.to_vec();
        raw.extend_from_slice(&(body.len() as u32).to_le_bytes());
        raw.extend_from_slice(&crc32(body).to_le_bytes());
        raw.extend_from_slice(body);
        fs::write(path, raw).unwrap();
    }

    /// Checks `path`'s framing: 16 header bytes plus the body, and a header
    /// length and CRC that describe everything after the header.
    fn assert_frame_describes_its_body(path: &Path, magic: &[u8; 8]) -> Vec<u8> {
        let raw = fs::read(path).unwrap();
        let body = raw[16..].to_vec();
        assert_eq!(&raw[..8], magic);
        assert_eq!(raw[8..12], (body.len() as u32).to_le_bytes());
        assert_eq!(raw[12..16], crc32(&body).to_le_bytes());
        body
    }

    #[test]
    fn checkpoint_body_roundtrips_bit_for_bit() {
        let dir = temp_dir("body");
        let checkpoint = sample_checkpoint();
        let path = save_snapshot(&dir, &checkpoint).unwrap();
        let body = assert_frame_describes_its_body(&path, SNAPSHOT_MAGIC);
        let decoded = decode_checkpoint(&body).unwrap();
        let again = temp_dir("body_again");
        let path2 = save_snapshot(&again, &decoded).unwrap();
        assert_eq!(fs::read(&path).unwrap(), fs::read(&path2).unwrap());
        assert_eq!(decoded.engine.positions, checkpoint.engine.positions);
        assert_eq!(decoded.engine.round, 9);
        assert_eq!(decoded.engine.draw_mode, DrawMode::Fast);
        assert_eq!(
            decoded.accountant.shards[0].rows[3].to_bits(),
            0x3FF0000000000001
        );
    }

    #[test]
    fn snapshot_files_roundtrip_and_reject_corruption() {
        let dir = temp_dir("snap");
        let checkpoint = sample_checkpoint();
        let path = save_snapshot(&dir, &checkpoint).unwrap();
        assert_eq!(path, snapshot_path(&dir, 9));
        let loaded = load_snapshot(&dir, 9).unwrap();
        assert_eq!(loaded.engine.positions, checkpoint.engine.positions);
        // Flip one body bit: checksum must catch it.
        let mut raw = fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x10;
        fs::write(&path, &raw).unwrap();
        assert!(matches!(
            load_snapshot(&dir, 9),
            Err(StoreError::Corrupt(_))
        ));
        // Wrong magic.
        let mut raw = fs::read(&path).unwrap();
        raw[0] = b'X';
        fs::write(&path, &raw).unwrap();
        assert!(load_snapshot(&dir, 9).is_err());
        // Missing snapshot is an Io error, not a panic.
        assert!(matches!(load_snapshot(&dir, 10), Err(StoreError::Io(_))));
    }

    /// A checkpoint whose body spans several write buffers and ends partway
    /// into one.
    fn large_checkpoint() -> CoordinatorCheckpoint {
        let mut checkpoint = sample_checkpoint();
        let n = 150_001;
        checkpoint.engine.positions = (0..n as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        checkpoint.engine.shards[0].bucket_starts = (0..n).step_by(3).collect();
        checkpoint.accountant.shards[0].rows = (0..2 * n)
            .map(|i| f64::from_bits((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 2))
            .collect();
        checkpoint.recorder_messages = (0..n).rev().collect();
        checkpoint
    }

    #[test]
    fn snapshots_spanning_several_buffers_roundtrip_bitwise() {
        let dir = temp_dir("large_snap");
        let checkpoint = large_checkpoint();
        let path = save_snapshot(&dir, &checkpoint).unwrap();
        let body = assert_frame_describes_its_body(&path, SNAPSHOT_MAGIC);
        assert!(body.len() > 5 * WRITE_BUFFER / 2, "{}", body.len());
        assert_ne!(body.len() % WRITE_BUFFER, 0);
        let loaded = load_snapshot(&dir, checkpoint.engine.round).unwrap();
        assert_eq!(loaded.engine.positions, checkpoint.engine.positions);
        assert_eq!(
            loaded.engine.shards[0].bucket_starts,
            checkpoint.engine.shards[0].bucket_starts
        );
        let bits = |rows: &[f64]| rows.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&loaded.accountant.shards[0].rows),
            bits(&checkpoint.accountant.shards[0].rows)
        );
        assert_eq!(loaded.recorder_messages, checkpoint.recorder_messages);
        // Saving what was loaded reproduces the file byte for byte.
        let again = temp_dir("large_snap_again");
        let path2 = save_snapshot(&again, &loaded).unwrap();
        assert_eq!(fs::read(&path).unwrap(), fs::read(&path2).unwrap());
    }

    #[test]
    fn ledgers_spanning_several_buffers_roundtrip_bitwise() {
        let dir = temp_dir("large_ledger");
        let path = dir.join("ledger.bin");
        let n = 200_000;
        let epsilon = (0..n).map(|u| 1.0 + u as f64 * 1e-3).collect();
        let delta = (0..n).map(|u| 1e-6 / (1 + u) as f64).collect();
        let ledger = BudgetLedger::from_remaining(epsilon, delta).unwrap();
        save_ledger(&path, &ledger).unwrap();
        let body = assert_frame_describes_its_body(&path, LEDGER_MAGIC);
        assert_eq!(body.len(), 8 + 16 * n);
        let loaded = load_ledger(&path).unwrap();
        for u in 0..n {
            let (e0, d0) = ledger.remaining(u);
            let (e1, d1) = loaded.remaining(u);
            assert_eq!(e0.to_bits(), e1.to_bits());
            assert_eq!(d0.to_bits(), d1.to_bits());
        }
    }

    #[test]
    fn the_frame_length_holds_u32_max_bytes_and_refuses_more() {
        assert_eq!(frame_len(0).unwrap(), 0);
        assert_eq!(frame_len(u64::from(u32::MAX)).unwrap(), u32::MAX);
        assert!(matches!(
            frame_len(u64::from(u32::MAX) + 1),
            Err(StoreError::InvalidState(_))
        ));
    }

    #[test]
    fn a_body_crossing_the_limit_is_refused_before_it_is_written() {
        let dir = temp_dir("limit");
        let path = dir.join("body.tmp");
        let mut w = BodyWriter::new(fs::File::create(&path).unwrap());
        // As if all but the last 4 bytes the length field holds were
        // written already.
        w.written = u64::from(u32::MAX) - 4;
        w.put(7u32).unwrap();
        w.flush().unwrap();
        w.put(0u8).unwrap();
        assert!(matches!(w.flush(), Err(StoreError::InvalidState(_))));
        drop(w);
        assert_eq!(fs::read(&path).unwrap(), 7u32.to_le_bytes());
    }

    #[test]
    fn a_failed_save_removes_its_temp_file_and_keeps_the_target() {
        let dir = temp_dir("failed");
        let path = dir.join("ledger.bin");
        let ledger = BudgetLedger::uniform(3, PrivacyGuarantee::new(2.0, 1e-6).unwrap()).unwrap();
        save_ledger(&path, &ledger).unwrap();
        let before = fs::read(&path).unwrap();
        let refused = write_framed(&path, LEDGER_MAGIC, |w| {
            w.put_all(&vec![1.5f64; WRITE_BUFFER / 4])?;
            Err(StoreError::InvalidState("refused".into()))
        });
        assert!(matches!(refused, Err(StoreError::InvalidState(_))));
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(fs::read(&path).unwrap(), before);
    }

    /// Counts a corrupt or hostile file might carry: past any body, and
    /// past `usize` once multiplied by a value width of 8 or of 4.
    const LYING_COUNTS: [u64; 4] = [1 << 40, (1 << 61) + 1, u64::MAX / 4 + 1, u64::MAX];

    /// Byte offsets of the array counts in `sample_checkpoint`'s body, with
    /// their honest values: the positions (`u32`s), the engine shards,
    /// shard 0's bucket starts (`usize`s), the accountant shards and the
    /// tracked rows (`f64`s).
    const CHECKPOINT_COUNTS: [(usize, u64); 5] = [(9, 5), (37, 2), (89, 3), (233, 1), (265, 4)];

    #[test]
    fn a_lying_checkpoint_array_count_is_corrupt() {
        let dir = temp_dir("lying_snap");
        let path = save_snapshot(&dir, &sample_checkpoint()).unwrap();
        let body = fs::read(&path).unwrap()[16..].to_vec();
        for (at, honest) in CHECKPOINT_COUNTS {
            assert_eq!(body[at..at + 8], honest.to_le_bytes(), "offset {at}");
            for n in LYING_COUNTS {
                let mut lying = body.clone();
                lying[at..at + 8].copy_from_slice(&n.to_le_bytes());
                assert!(
                    matches!(decode_checkpoint(&lying), Err(StoreError::Corrupt(_))),
                    "offset {at} count {n}"
                );
                write_raw_frame(&path, SNAPSHOT_MAGIC, &lying);
                assert!(
                    matches!(load_snapshot(&dir, 9), Err(StoreError::Corrupt(_))),
                    "offset {at} count {n}"
                );
            }
        }
        write_raw_frame(&path, SNAPSHOT_MAGIC, &body);
        load_snapshot(&dir, 9).unwrap();
    }

    #[test]
    fn a_snapshot_whose_clocks_disagree_is_corrupt() {
        let dir = temp_dir("clocks");
        let mut early_accountant = sample_checkpoint();
        early_accountant.accountant.round -= 1;
        let mut late_recorder = sample_checkpoint();
        late_recorder.recorder_rounds += 1;
        for bad in [early_accountant, late_recorder] {
            save_snapshot(&dir, &bad).unwrap();
            assert!(matches!(
                load_snapshot(&dir, 9),
                Err(StoreError::Corrupt(_))
            ));
        }
        save_snapshot(&dir, &sample_checkpoint()).unwrap();
        assert_eq!(load_snapshot(&dir, 9).unwrap(), sample_checkpoint());
    }

    #[test]
    fn a_lying_ledger_user_count_is_corrupt() {
        let dir = temp_dir("lying_ledger");
        let path = dir.join("ledger.bin");
        let ledger = BudgetLedger::uniform(2, PrivacyGuarantee::new(2.0, 1e-6).unwrap()).unwrap();
        save_ledger(&path, &ledger).unwrap();
        let body = fs::read(&path).unwrap()[16..].to_vec();
        assert_eq!(body[..8], 2u64.to_le_bytes());
        for n in LYING_COUNTS {
            let mut lying = body.clone();
            lying[..8].copy_from_slice(&n.to_le_bytes());
            write_raw_frame(&path, LEDGER_MAGIC, &lying);
            assert!(
                matches!(load_ledger(&path), Err(StoreError::Corrupt(_))),
                "user count {n}"
            );
        }
        write_raw_frame(&path, LEDGER_MAGIC, &body);
        assert_eq!(load_ledger(&path).unwrap().user_count(), 2);
    }

    #[test]
    fn meta_roundtrips_including_sentinel_tracking() {
        let dir = temp_dir("meta");
        let mut config = CoordinatorConfig::single(0xDEAD_BEEF, usize::MAX);
        config.laziness = 0.2;
        config.draw_mode = DrawMode::Fast;
        let meta = StoreMeta {
            config,
            node_count: 40,
            shard_count: 4,
        };
        save_meta(&dir, &meta).unwrap();
        assert_eq!(load_meta(&dir).unwrap(), meta);
    }

    #[test]
    fn ledger_files_roundtrip_bitwise() {
        let dir = temp_dir("ledger");
        let path = dir.join("ledger.bin");
        let mut ledger =
            BudgetLedger::uniform(5, PrivacyGuarantee::new(2.0, 1e-6).unwrap()).unwrap();
        ledger
            .charge(2, &PrivacyGuarantee::new(0.7, 1e-7).unwrap())
            .unwrap();
        save_ledger(&path, &ledger).unwrap();
        let loaded = load_ledger(&path).unwrap();
        for u in 0..5 {
            let (e0, d0) = ledger.remaining(u);
            let (e1, d1) = loaded.remaining(u);
            assert_eq!(e0.to_bits(), e1.to_bits());
            assert_eq!(d0.to_bits(), d1.to_bits());
        }
    }
}
