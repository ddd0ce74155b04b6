//! Snapshot, store-meta and ledger files: the non-log half of the store.
//!
//! All three share one framing — an 8-byte magic, a `u32` body length, a
//! `u32` CRC-32 of the body, then the body — and are written atomically
//! (temp file, fsync, rename) so a crash leaves either the old file or the
//! new one, never a torn hybrid.  A snapshot that fails its checksum is
//! simply skipped during recovery; the WAL replays from the previous one
//! (or from round zero).

use crate::checksum::crc32;
use crate::codec::{put_f64, put_len, put_u32, put_u64, Decoder};
use crate::error::{Result, StoreError};
use network_shuffle::prelude::{
    AccountantCheckpoint, AccountantShardCheckpoint, CoordinatorCheckpoint, CoordinatorConfig,
    ProtocolKind,
};
use ns_dp::prelude::BudgetLedger;
use ns_graph::prelude::{EngineCheckpoint, ShardCheckpoint};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::records::{draw_mode_code, draw_mode_from_code};

/// Magic of snapshot files (`snap-<round>.bin`).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"NSSNAP01";
/// Magic of the store's `meta.bin`.
pub const META_MAGIC: &[u8; 8] = b"NSMETA01";
/// Magic of budget-ledger files.
pub const LEDGER_MAGIC: &[u8; 8] = b"NSLEDG01";

/// Writes `magic + frame(body)` to `path` atomically: temp file in the same
/// directory, fsync, rename over the target.
///
/// # Errors
///
/// I/O errors from the write/rename.
pub fn write_atomic(path: &Path, magic: &[u8; 8], body: &[u8]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(magic)?;
        file.write_all(&(body.len() as u32).to_le_bytes())?;
        file.write_all(&crc32(body).to_le_bytes())?;
        file.write_all(body)?;
        file.sync_data()?;
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

/// Reads and validates a file written by [`write_atomic`], returning the
/// body.
///
/// # Errors
///
/// I/O errors from the read; [`StoreError::Corrupt`] for bad magic, short
/// files, length mismatches or checksum failures.
pub fn read_verified(path: &Path, magic: &[u8; 8]) -> Result<Vec<u8>> {
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
    Ok(body.to_vec())
}

// ---------------------------------------------------------------------------
// Coordinator checkpoints (snapshot bodies)
// ---------------------------------------------------------------------------

/// Encodes a full coordinator checkpoint into `out` (cleared first).
pub fn encode_checkpoint(checkpoint: &CoordinatorCheckpoint, out: &mut Vec<u8>) {
    out.clear();
    let engine = &checkpoint.engine;
    put_len(out, engine.round);
    out.push(draw_mode_code(engine.draw_mode));
    put_len(out, engine.positions.len());
    for &p in &engine.positions {
        put_u32(out, p);
    }
    put_len(out, engine.shards.len());
    for shard in &engine.shards {
        for &word in &shard.rng_key {
            put_u32(out, word);
        }
        put_u64(out, shard.rng_counter);
        put_u32(out, shard.rng_cursor);
        put_len(out, shard.bucket_starts.len());
        for &s in &shard.bucket_starts {
            put_len(out, s);
        }
        put_len(out, shard.bucket_walkers.len());
        for &w in &shard.bucket_walkers {
            put_u32(out, w);
        }
    }
    let accountant = &checkpoint.accountant;
    put_len(out, accountant.round);
    put_len(out, accountant.shards.len());
    for shard in &accountant.shards {
        put_len(out, shard.origins.len());
        for &origin in &shard.origins {
            put_len(out, origin);
        }
        put_len(out, shard.rows.len());
        for &row in &shard.rows {
            put_f64(out, row);
        }
    }
    put_len(out, checkpoint.recorder_rounds);
    put_len(out, checkpoint.recorder_messages.len());
    for &m in &checkpoint.recorder_messages {
        put_len(out, m);
    }
    put_len(out, checkpoint.recorder_peaks.len());
    for &p in &checkpoint.recorder_peaks {
        put_len(out, p);
    }
}

fn take_usize_vec(d: &mut Decoder<'_>) -> Result<Vec<usize>> {
    let n = d.len()?;
    let mut v = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        v.push(d.len()?);
    }
    Ok(v)
}

fn take_u32_vec(d: &mut Decoder<'_>) -> Result<Vec<u32>> {
    let n = d.len()?;
    let mut v = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        v.push(d.u32()?);
    }
    Ok(v)
}

/// Decodes a checkpoint body written by [`encode_checkpoint`].
///
/// # Errors
///
/// [`StoreError::Corrupt`] on any structural mismatch.
pub fn decode_checkpoint(body: &[u8]) -> Result<CoordinatorCheckpoint> {
    let mut d = Decoder::new(body);
    let round = d.len()?;
    let draw_mode = draw_mode_from_code(d.take(1)?[0])?;
    let positions = take_u32_vec(&mut d)?;
    let shard_count = d.len()?;
    let mut shards = Vec::with_capacity(shard_count.min(1 << 16));
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
    let mut acc_shards = Vec::with_capacity(accountant_shards.min(1 << 16));
    for _ in 0..accountant_shards {
        let origins = take_usize_vec(&mut d)?;
        let row_count = d.len()?;
        let mut rows = Vec::with_capacity(row_count.min(1 << 24));
        for _ in 0..row_count {
            rows.push(d.f64()?);
        }
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
/// I/O errors from the atomic write.
pub fn save_snapshot(dir: &Path, checkpoint: &CoordinatorCheckpoint) -> Result<PathBuf> {
    let mut body = Vec::new();
    encode_checkpoint(checkpoint, &mut body);
    let path = snapshot_path(dir, checkpoint.engine.round);
    write_atomic(&path, SNAPSHOT_MAGIC, &body)?;
    Ok(path)
}

/// Loads and validates the snapshot for `round` from `dir`.
///
/// # Errors
///
/// I/O errors; [`StoreError::Corrupt`] when the file fails verification.
pub fn load_snapshot(dir: &Path, round: usize) -> Result<CoordinatorCheckpoint> {
    let body = read_verified(&snapshot_path(dir, round), SNAPSHOT_MAGIC)?;
    decode_checkpoint(&body)
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

/// Encodes a [`StoreMeta`] body.
pub fn encode_meta(meta: &StoreMeta, out: &mut Vec<u8>) {
    out.clear();
    put_u64(out, meta.config.seed);
    put_f64(out, meta.config.laziness);
    out.push(protocol_code(meta.config.protocol));
    put_u64(out, meta.config.tracked_per_shard as u64);
    out.push(draw_mode_code(meta.config.draw_mode));
    put_len(out, meta.node_count);
    put_len(out, meta.shard_count);
}

/// Decodes a [`StoreMeta`] body.
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
    let mut body = Vec::new();
    encode_meta(meta, &mut body);
    write_atomic(&dir.join("meta.bin"), META_MAGIC, &body)
}

/// Loads and validates `meta.bin` from `dir`.
///
/// # Errors
///
/// I/O errors; [`StoreError::Corrupt`] on verification failure.
pub fn load_meta(dir: &Path) -> Result<StoreMeta> {
    let body = read_verified(&dir.join("meta.bin"), META_MAGIC)?;
    decode_meta(&body)
}

// ---------------------------------------------------------------------------
// Budget ledgers
// ---------------------------------------------------------------------------

/// Atomically persists a budget ledger at `path`.
///
/// # Errors
///
/// I/O errors from the atomic write.
pub fn save_ledger(path: &Path, ledger: &BudgetLedger) -> Result<()> {
    let mut body = Vec::new();
    put_len(&mut body, ledger.user_count());
    for &e in ledger.remaining_epsilon() {
        put_f64(&mut body, e);
    }
    for &d in ledger.remaining_delta() {
        put_f64(&mut body, d);
    }
    write_atomic(path, LEDGER_MAGIC, &body)
}

/// Loads and validates a budget ledger from `path`.
///
/// # Errors
///
/// I/O errors; [`StoreError::Corrupt`] on verification or shape failure.
pub fn load_ledger(path: &Path) -> Result<BudgetLedger> {
    let body = read_verified(path, LEDGER_MAGIC)?;
    let mut d = Decoder::new(&body);
    let n = d.len()?;
    let mut epsilon = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        epsilon.push(d.f64()?);
    }
    let mut delta = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        delta.push(d.f64()?);
    }
    d.finish()?;
    Ok(BudgetLedger::from_remaining(epsilon, delta)?)
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

    #[test]
    fn checkpoint_body_roundtrips_bit_for_bit() {
        let checkpoint = sample_checkpoint();
        let mut body = Vec::new();
        encode_checkpoint(&checkpoint, &mut body);
        let decoded = decode_checkpoint(&body).unwrap();
        let mut body2 = Vec::new();
        encode_checkpoint(&decoded, &mut body2);
        assert_eq!(body, body2);
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
