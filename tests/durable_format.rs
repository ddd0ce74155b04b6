//! Golden on-disk format tests of the durable store, plus recovery-level
//! corruption behavior.
//!
//! The golden test runs one fixed durable epoch and hex-dumps every file the
//! store wrote — `meta.bin`, `wal.bin`, the periodic snapshot and the budget
//! ledger — against `tests/golden/store_format.txt`.  Any byte-level format
//! change (codec, record layout, checksums, file headers) shows up as a
//! golden diff; regenerate deliberately with `NS_BLESS=1`.
//!
//! The corruption tests exercise the documented failure modes end to end:
//! a truncated WAL tail is silently dropped, a flipped bit stops recovery at
//! the last valid record, and a damaged snapshot falls back to an older one
//! without giving up bitwise equality.  Two mutation sweeps cut the golden
//! epoch's files at every length and flip every byte: the log keeps exactly
//! the frames before the damage, and the framed files refuse to load.

use network_shuffle::prelude::{CoordinatorConfig, OutageSchedule, ShuffleCoordinator};
use ns_dp::prelude::PrivacyGuarantee;
use ns_graph::generators::random_regular;
use ns_graph::prelude::{Graph, Partition};
use ns_graph::rng::seeded_rng;
use ns_store::prelude::{
    load_ledger, load_meta, load_snapshot, scan_wal, DurableConfig, DurableCoordinator, StoreError,
    TailStatus, WAL_FILE,
};
use ns_suite::crash_harness::{accountant_params, outage_masks, payloads};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/store_format.txt");

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ns_durable_format").join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fixture_graph() -> Graph {
    random_regular(12, 4, &mut seeded_rng(5)).unwrap()
}

fn hex_dump(out: &mut String, label: &str, bytes: &[u8]) {
    writeln!(out, "== {label} ({} bytes) ==", bytes.len()).unwrap();
    for (row, chunk) in bytes.chunks(16).enumerate() {
        write!(out, "{:06x} ", row * 16).unwrap();
        for byte in chunk {
            write!(out, " {byte:02x}").unwrap();
        }
        out.push('\n');
    }
}

/// Runs the fixed golden epoch: 12 users, 2 shards, a 3-round outage
/// schedule, group commit 2, snapshots every 4 rounds, 6 rounds, a budget
/// ledger, finalize.  Returns the store directory.
fn run_golden_epoch(dir: &Path) {
    let graph = fixture_graph();
    let partition = Partition::new(&graph, 2).unwrap();
    let config = CoordinatorConfig {
        laziness: 0.25,
        ..CoordinatorConfig::all(9, usize::MAX)
    };
    let durable = DurableConfig {
        group_commit: 2,
        snapshot_every: 4,
    };
    let mut store = DurableCoordinator::create(&graph, &partition, config, durable, dir).unwrap();
    store
        .attach_ledger(
            &dir.join("ledger.bin"),
            PrivacyGuarantee::new(64.0, 1e-3).unwrap(),
        )
        .unwrap();
    store.admit_population(payloads(12)).unwrap();
    store
        .with_outages(OutageSchedule::from_masks(outage_masks(12, 3)).unwrap())
        .unwrap();
    store.begin_exchange().unwrap();
    store.run_rounds(6).unwrap();
    store
        .finalize(&accountant_params(12), |_| vec![0xD0])
        .unwrap();
}

#[test]
fn on_disk_format_matches_the_golden_dump() {
    let dir = temp_dir("golden");
    run_golden_epoch(&dir);
    let mut dump = String::new();
    for file in ["meta.bin", WAL_FILE, "snap-4.bin", "ledger.bin"] {
        let bytes = fs::read(dir.join(file)).unwrap_or_else(|e| panic!("read {file}: {e}"));
        hex_dump(&mut dump, file, &bytes);
    }
    if std::env::var("NS_BLESS").is_ok() {
        fs::write(GOLDEN, &dump).unwrap();
        return;
    }
    let golden = fs::read_to_string(GOLDEN)
        .expect("golden store-format dump missing; regenerate with NS_BLESS=1");
    assert_eq!(
        dump, golden,
        "on-disk store format changed; if intentional, regenerate with NS_BLESS=1"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The golden log cut at every length keeps exactly the frames wholly before
/// the cut, ending `Clean` at a frame boundary and `Truncated` elsewhere; the
/// golden log with any one byte flipped keeps exactly the frames before the
/// damaged one and never reads as a clean end.
#[test]
fn every_wal_cut_and_byte_flip_keeps_exactly_the_frames_before_it() {
    let dir = temp_dir("wal_sweep");
    run_golden_epoch(&dir);
    let wal_path = dir.join(WAL_FILE);
    let golden = fs::read(&wal_path).unwrap();
    let full = scan_wal(&wal_path).unwrap();
    assert_eq!(full.tail, TailStatus::Clean);
    assert_eq!(full.valid_len, golden.len() as u64);
    let frame_ends: Vec<usize> = full
        .records
        .iter()
        .scan(0, |end, record| {
            *end += 8 + record.len();
            Some(*end)
        })
        .collect();
    let frames_ending_by = |offset: usize| frame_ends.iter().take_while(|&&e| e <= offset).count();
    for cut in 0..=golden.len() {
        fs::write(&wal_path, &golden[..cut]).unwrap();
        let scan = scan_wal(&wal_path).unwrap();
        let kept = frames_ending_by(cut);
        assert_eq!(scan.records, full.records[..kept], "cut at {cut}");
        let kept_len = if kept == 0 { 0 } else { frame_ends[kept - 1] };
        assert_eq!(scan.valid_len, kept_len as u64, "cut at {cut}");
        let tail = if kept_len == cut {
            TailStatus::Clean
        } else {
            TailStatus::Truncated
        };
        assert_eq!(scan.tail, tail, "cut at {cut}");
    }
    for at in 0..golden.len() {
        let mut damaged = golden.clone();
        damaged[at] ^= 0xFF;
        fs::write(&wal_path, &damaged).unwrap();
        let scan = scan_wal(&wal_path).unwrap();
        let kept = frames_ending_by(at);
        assert_eq!(scan.records, full.records[..kept], "flip at {at}");
        assert_ne!(scan.tail, TailStatus::Clean, "flip at {at}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `meta.bin`, the snapshot and the ledger cut at every shorter length, or
/// with any one byte flipped, fail to load as [`StoreError::Corrupt`].
#[test]
fn every_cut_and_byte_flip_of_the_framed_files_is_corrupt() {
    let dir = temp_dir("framed_sweep");
    run_golden_epoch(&dir);
    type Load = fn(&Path) -> Result<(), StoreError>;
    let loads: [(&str, Load); 3] = [
        ("meta.bin", |dir| load_meta(dir).map(drop)),
        ("snap-4.bin", |dir| load_snapshot(dir, 4).map(drop)),
        ("ledger.bin", |dir| {
            load_ledger(&dir.join("ledger.bin")).map(drop)
        }),
    ];
    for (file, load) in loads {
        let path = dir.join(file);
        let golden = fs::read(&path).unwrap();
        load(&dir).unwrap_or_else(|e| panic!("{file}: golden bytes must load: {e}"));
        let cuts = (0..golden.len()).map(|cut| (format!("cut at {cut}"), golden[..cut].to_vec()));
        let flips = (0..golden.len()).map(|at| {
            let mut damaged = golden.clone();
            damaged[at] ^= 0xFF;
            (format!("flip at {at}"), damaged)
        });
        for (damage, bytes) in cuts.chain(flips) {
            fs::write(&path, &bytes).unwrap();
            let result = load(&dir);
            assert!(
                matches!(result, Err(StoreError::Corrupt(_))),
                "{file} {damage}: got {result:?}"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Reference engine state after `rounds` uninterrupted (non-durable)
/// rounds: `(positions, per-shard clocks)`.
fn reference_state(
    graph: &Graph,
    partition: &Partition,
    rounds: usize,
) -> (Vec<u32>, Vec<(u64, u32)>) {
    let config = CoordinatorConfig::all(31, usize::MAX);
    let mut reference: ShuffleCoordinator<'_, Vec<u8>> =
        ShuffleCoordinator::new(graph, partition, config).unwrap();
    reference
        .admit_population(payloads(graph.node_count()))
        .unwrap();
    reference.begin_exchange().unwrap();
    reference.run_rounds(rounds).unwrap();
    let engine = reference.engine().unwrap();
    let clocks = (0..engine.shard_count())
        .map(|s| engine.rng_clock(s))
        .collect();
    (engine.checkpoint().positions, clocks)
}

fn store_state(store: &DurableCoordinator<'_>) -> (Vec<u32>, Vec<(u64, u32)>) {
    let engine = store.coordinator().engine().unwrap();
    let clocks = (0..engine.shard_count())
        .map(|s| engine.rng_clock(s))
        .collect();
    (engine.checkpoint().positions, clocks)
}

/// Builds a 7-round durable run (no ledger, no outages) and returns its dir.
fn run_plain_epoch(dir: &Path, snapshot_every: usize) -> (Graph, Partition) {
    let graph = fixture_graph();
    let partition = Partition::new(&graph, 2).unwrap();
    {
        let config = CoordinatorConfig::all(31, usize::MAX);
        let durable = DurableConfig {
            group_commit: 1,
            snapshot_every,
        };
        let mut store =
            DurableCoordinator::create(&graph, &partition, config, durable, dir).unwrap();
        store.admit_population(payloads(12)).unwrap();
        store.begin_exchange().unwrap();
        store.run_rounds(7).unwrap();
        // Dropped without finalize.
    }
    (graph, partition)
}

#[test]
fn truncated_wal_tail_is_dropped_and_replay_continues_bitwise() {
    let dir = temp_dir("truncate");
    let (graph, partition) = run_plain_epoch(&dir, 0);
    let wal_path = dir.join(WAL_FILE);
    let full = scan_wal(&wal_path).unwrap();
    assert_eq!(full.tail, TailStatus::Clean);
    // Cut into the middle of the last frame: a torn group-commit tail.
    let bytes = fs::read(&wal_path).unwrap();
    fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();
    let durable = DurableConfig {
        group_commit: 1,
        snapshot_every: 0,
    };
    let mut store = DurableCoordinator::recover(&graph, &partition, durable, &dir).unwrap();
    assert_eq!(store.recovered_tail(), Some(TailStatus::Truncated));
    assert_eq!(store.round(), 6, "exactly the torn last round is dropped");
    // Re-running the dropped round lands on the uninterrupted trajectory.
    store.run_rounds(1).unwrap();
    assert_eq!(store_state(&store), reference_state(&graph, &partition, 7));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_bit_stops_recovery_at_the_last_valid_record() {
    let dir = temp_dir("bitflip");
    let (graph, partition) = run_plain_epoch(&dir, 0);
    let wal_path = dir.join(WAL_FILE);
    // Flip one bit inside the last record's payload.
    let mut bytes = fs::read(&wal_path).unwrap();
    let victim = bytes.len() - 5;
    bytes[victim] ^= 0x10;
    fs::write(&wal_path, &bytes).unwrap();
    let scan = scan_wal(&wal_path).unwrap();
    assert_eq!(scan.tail, TailStatus::Corrupt);
    let durable = DurableConfig {
        group_commit: 1,
        snapshot_every: 0,
    };
    let mut store = DurableCoordinator::recover(&graph, &partition, durable, &dir).unwrap();
    assert_eq!(store.recovered_tail(), Some(TailStatus::Corrupt));
    assert_eq!(store.round(), 6, "recovery stops at the last valid record");
    store.run_rounds(1).unwrap();
    assert_eq!(store_state(&store), reference_state(&graph, &partition, 7));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_falls_back_to_an_older_one_bitwise() {
    let dir = temp_dir("snapfall");
    // Snapshots at rounds 3 and 6.
    let (graph, partition) = run_plain_epoch(&dir, 3);
    let snap = dir.join("snap-6.bin");
    let mut bytes = fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&snap, &bytes).unwrap();
    let durable = DurableConfig {
        group_commit: 1,
        snapshot_every: 3,
    };
    let store = DurableCoordinator::recover(&graph, &partition, durable, &dir).unwrap();
    assert_eq!(store.round(), 7);
    assert_eq!(store_state(&store), reference_state(&graph, &partition, 7));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tampered_snapshot_contents_fail_replay_closed() {
    let dir = temp_dir("tamper");
    let (graph, partition) = run_plain_epoch(&dir, 3);
    // Remove the newer snapshot and substitute the older one's *file* under
    // the newer name: the checksum is valid but the captured round is wrong,
    // so recovery must skip it rather than resume a different trajectory.
    fs::copy(dir.join("snap-3.bin"), dir.join("snap-6.bin")).unwrap();
    let durable = DurableConfig {
        group_commit: 1,
        snapshot_every: 3,
    };
    let store = DurableCoordinator::recover(&graph, &partition, durable, &dir).unwrap();
    assert_eq!(store.round(), 7);
    assert_eq!(store_state(&store), reference_state(&graph, &partition, 7));
    // And a meta file from a different topology is refused outright.
    let other = random_regular(14, 4, &mut seeded_rng(6)).unwrap();
    let other_partition = Partition::new(&other, 2).unwrap();
    let err = match DurableCoordinator::recover(&other, &other_partition, durable, &dir) {
        Ok(_) => panic!("recovery accepted a mismatched topology"),
        Err(err) => err,
    };
    assert!(matches!(err, StoreError::InvalidState(_)), "got {err:?}");
    let _ = fs::remove_dir_all(&dir);
}
