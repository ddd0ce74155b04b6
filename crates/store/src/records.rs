//! The logical WAL records of a durable shuffle epoch.
//!
//! Every [`crate::wal`] frame carries exactly one record, tagged by its
//! first byte.  The record set mirrors the coordinator's lifecycle:
//! admission batches and the realized outage schedule are logged verbatim
//! (they are *inputs*, not derivable), `BeginExchange` pins the phase
//! change, one [`WalRecord::Round`] precedes every executed round, and
//! snapshot/finalize markers delimit recovery.
//!
//! Round records do double duty: they drive replay **and** carry the
//! pre-round per-shard RNG clocks, the draw mode and the realized outage
//! mask as consistency checks — during recovery the replayed engine must
//! reproduce each logged clock exactly or recovery fails closed with
//! [`crate::error::StoreError::ReplayDiverged`].

use crate::codec::{put_bytes, put_len, put_mask, put_u32, put_u64, Decoder};
use crate::error::{Result, StoreError};
use ns_graph::round::DrawMode;

/// Record tags (the payload's first byte).
pub mod tag {
    /// An admitted batch of `(origin, payload)` reports.
    pub const ADMITTED_BATCH: u8 = 1;
    /// The realized outage schedule was attached.
    pub const SCHEDULE_ATTACHED: u8 = 2;
    /// Admission closed; the exchange engine was built.
    pub const BEGIN_EXCHANGE: u8 = 3;
    /// One exchange round is about to execute.
    pub const ROUND: u8 = 4;
    /// A snapshot of the full coordinator state was persisted.
    pub const SNAPSHOT_MARKER: u8 = 5;
    /// The epoch finalized; the store is closed.
    pub const FINALIZED: u8 = 6;
}

/// A decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// One admitted batch: `(origin, opaque payload bytes)` per report, in
    /// admission order.  Replay re-admits (and re-seals — the simulated PKI
    /// is process-local) the identical batch.
    AdmittedBatch {
        /// The batch entries.
        entries: Vec<(u64, Vec<u8>)>,
    },
    /// The realized outage schedule, mask per round (bit-packed on disk).
    ScheduleAttached {
        /// `masks[t][u]` — user `u` up in round `t`.
        masks: Vec<Vec<bool>>,
    },
    /// Admission closed.
    BeginExchange,
    /// One exchange round, logged *before* execution (WAL-before-state).
    Round {
        /// The engine round this record precedes (0-based).
        round: u64,
        /// Draw mode in force.
        draw_mode: DrawMode,
        /// Pre-round `(counter, cursor)` of every shard's RNG stream.
        clocks: Vec<(u64, u32)>,
        /// The realized availability mask for this round, when a schedule is
        /// attached.
        mask: Option<Vec<bool>>,
    },
    /// Snapshot `snap-<round>.bin` was durably written.
    SnapshotMarker {
        /// The round the snapshot captures.
        round: u64,
    },
    /// The epoch finalized at `round`; no further records are valid.
    Finalized {
        /// The final round.
        round: u64,
    },
}

/// Stable one-byte encoding of [`DrawMode`].
pub fn draw_mode_code(mode: DrawMode) -> u8 {
    match mode {
        DrawMode::Compat => 0,
        DrawMode::Fast => 1,
    }
}

/// Inverse of [`draw_mode_code`].
///
/// # Errors
///
/// [`StoreError::Corrupt`] for unknown codes.
pub fn draw_mode_from_code(code: u8) -> Result<DrawMode> {
    match code {
        0 => Ok(DrawMode::Compat),
        1 => Ok(DrawMode::Fast),
        other => Err(StoreError::Corrupt(format!("unknown draw mode {other}"))),
    }
}

/// Encodes a round record straight into `out` from borrowed state — the
/// steady-state append path, which must not allocate (beyond `out`'s
/// retained capacity).
pub fn encode_round(
    out: &mut Vec<u8>,
    round: u64,
    draw_mode: DrawMode,
    clocks: &[(u64, u32)],
    mask: Option<&[bool]>,
) {
    out.clear();
    out.push(tag::ROUND);
    put_u64(out, round);
    out.push(draw_mode_code(draw_mode));
    put_len(out, clocks.len());
    for &(counter, cursor) in clocks {
        put_u64(out, counter);
        put_u32(out, cursor);
    }
    match mask {
        None => out.push(0),
        Some(mask) => {
            out.push(1);
            put_mask(out, mask);
        }
    }
}

/// Encodes a schedule record straight into `out` from borrowed masks, one
/// per round, so attaching a schedule copies no mask.
pub(crate) fn encode_schedule<'a>(
    out: &mut Vec<u8>,
    masks: impl ExactSizeIterator<Item = &'a [bool]>,
) {
    out.clear();
    out.push(tag::SCHEDULE_ATTACHED);
    put_len(out, masks.len());
    for mask in masks {
        put_mask(out, mask);
    }
}

impl WalRecord {
    /// Encodes the record into `out` (cleared first).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            WalRecord::AdmittedBatch { entries } => {
                out.push(tag::ADMITTED_BATCH);
                put_len(out, entries.len());
                for (origin, payload) in entries {
                    put_u64(out, *origin);
                    put_bytes(out, payload);
                }
            }
            WalRecord::ScheduleAttached { masks } => {
                encode_schedule(out, masks.iter().map(Vec::as_slice));
            }
            WalRecord::BeginExchange => out.push(tag::BEGIN_EXCHANGE),
            WalRecord::Round {
                round,
                draw_mode,
                clocks,
                mask,
            } => encode_round(out, *round, *draw_mode, clocks, mask.as_deref()),
            WalRecord::SnapshotMarker { round } => {
                out.push(tag::SNAPSHOT_MARKER);
                put_u64(out, *round);
            }
            WalRecord::Finalized { round } => {
                out.push(tag::FINALIZED);
                put_u64(out, *round);
            }
        }
    }

    /// Decodes one record payload, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for unknown tags, overruns or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<WalRecord> {
        let mut d = Decoder::new(payload);
        let tag = d.take(1)?[0];
        let record = match tag {
            tag::ADMITTED_BATCH => {
                let count = d.len()?;
                let mut entries = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    let origin = d.u64()?;
                    let payload = d.bytes()?.to_vec();
                    entries.push((origin, payload));
                }
                WalRecord::AdmittedBatch { entries }
            }
            tag::SCHEDULE_ATTACHED => {
                let rounds = d.len()?;
                let mut masks = Vec::with_capacity(rounds.min(1 << 20));
                for _ in 0..rounds {
                    masks.push(d.mask()?);
                }
                WalRecord::ScheduleAttached { masks }
            }
            tag::BEGIN_EXCHANGE => WalRecord::BeginExchange,
            tag::ROUND => {
                let round = d.u64()?;
                let draw_mode = draw_mode_from_code(d.take(1)?[0])?;
                let shard_count = d.len()?;
                let mut clocks = Vec::with_capacity(shard_count.min(1 << 20));
                for _ in 0..shard_count {
                    let counter = d.u64()?;
                    let cursor = d.u32()?;
                    clocks.push((counter, cursor));
                }
                let mask = match d.take(1)?[0] {
                    0 => None,
                    1 => Some(d.mask()?),
                    other => {
                        return Err(StoreError::Corrupt(format!(
                            "round record has invalid mask flag {other}"
                        )))
                    }
                };
                WalRecord::Round {
                    round,
                    draw_mode,
                    clocks,
                    mask,
                }
            }
            tag::SNAPSHOT_MARKER => WalRecord::SnapshotMarker { round: d.u64()? },
            tag::FINALIZED => WalRecord::Finalized { round: d.u64()? },
            other => {
                return Err(StoreError::Corrupt(format!("unknown record tag {other}")));
            }
        };
        d.finish()?;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_record_kind_roundtrips() {
        let records = vec![
            WalRecord::AdmittedBatch {
                entries: vec![(0, vec![1, 2, 3]), (7, vec![]), (41, vec![0xFF; 100])],
            },
            WalRecord::ScheduleAttached {
                masks: vec![
                    vec![true; 9],
                    vec![false, true, false, true, true, false, true, true, true],
                ],
            },
            WalRecord::BeginExchange,
            WalRecord::Round {
                round: 12,
                draw_mode: DrawMode::Fast,
                clocks: vec![(100, 3), (7, 16)],
                mask: Some(vec![true, false, true]),
            },
            WalRecord::Round {
                round: 0,
                draw_mode: DrawMode::Compat,
                clocks: vec![(0, 16)],
                mask: None,
            },
            WalRecord::SnapshotMarker { round: 8 },
            WalRecord::Finalized { round: 20 },
        ];
        let mut buf = Vec::new();
        for record in &records {
            record.encode(&mut buf);
            assert_eq!(&WalRecord::decode(&buf).unwrap(), record);
        }
    }

    #[test]
    fn encode_round_matches_the_enum_encoding() {
        let clocks = vec![(5u64, 2u32), (9, 16)];
        let mask = vec![true, true, false, true];
        let mut direct = Vec::new();
        encode_round(&mut direct, 3, DrawMode::Compat, &clocks, Some(&mask));
        let mut via_enum = Vec::new();
        WalRecord::Round {
            round: 3,
            draw_mode: DrawMode::Compat,
            clocks,
            mask: Some(mask),
        }
        .encode(&mut via_enum);
        assert_eq!(direct, via_enum);
    }

    #[test]
    fn bad_tags_flags_and_trailers_are_corrupt() {
        assert!(WalRecord::decode(&[99]).is_err());
        assert!(WalRecord::decode(&[]).is_err());
        assert!(draw_mode_from_code(2).is_err());
        // Trailing garbage after a valid record.
        let mut buf = Vec::new();
        WalRecord::BeginExchange.encode(&mut buf);
        buf.push(0);
        assert!(WalRecord::decode(&buf).is_err());
        // Invalid mask flag in a round record.
        let mut buf = Vec::new();
        encode_round(&mut buf, 1, DrawMode::Compat, &[], None);
        *buf.last_mut().unwrap() = 9;
        assert!(WalRecord::decode(&buf).is_err());
    }
}
