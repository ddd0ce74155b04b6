//! Call accounting, output checks, end-state digests and sample statistics.

use network_shuffle::prelude::ShuffleCoordinator;
use ns_dp::prelude::PrivacyGuarantee;
use ns_graph::sharded_engine::ShardedMixingEngine;
use std::path::Path;
use std::time::Instant;

/// Attempted and failed calls of one run.  Every lifecycle call and every
/// output check is one attempt; an `Err` or a failed check is one failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one call; an error is recorded and handed back to the caller.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Result<T, String> {
        self.attempted += 1;
        result.map_err(|e| {
            self.failed += 1;
            let message = format!("{what}: {e}");
            self.failures.push(message.clone());
            message
        })
    }

    /// Counts one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("check failed: {what}"));
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// FNV-1a over a byte stream — a stable, dependency-free state digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of an engine's round-boundary state plus a quote: round,
/// positions, per-shard RNG clocks and the quote's bits.
pub fn engine_digest(engine: &ShardedMixingEngine<'_>, quote: &PrivacyGuarantee) -> Digest {
    let mut d = Digest::new();
    d.u64(engine.round() as u64);
    for &p in engine.positions() {
        d.bytes(&p.to_le_bytes());
    }
    for shard in 0..engine.shard_count() {
        let (counter, cursor) = engine.rng_clock(shard);
        d.u64(counter).u64(u64::from(cursor));
    }
    d.u64(quote.epsilon.to_bits()).u64(quote.delta.to_bits());
    d
}

/// [`engine_digest`] of a coordinator that has begun its exchange.
pub fn coordinator_digest(
    coordinator: &ShuffleCoordinator<'_, Vec<u8>>,
    quote: &PrivacyGuarantee,
) -> Result<Digest, String> {
    coordinator
        .engine()
        .map(|engine| engine_digest(engine, quote))
        .ok_or_else(|| "no exchange engine to digest".to_string())
}

/// The checks every epoch ends with, bare or traced, full or short.
pub struct Finished {
    pub n: usize,
    pub collected: usize,
    pub final_quote: PrivacyGuarantee,
    pub charged: PrivacyGuarantee,
    pub budget: PrivacyGuarantee,
    pub messages: usize,
    /// The crash and recovery of a full epoch; a short epoch has none.
    pub recovery: Option<Recovery>,
}

/// Where a full epoch crashed and where recovery brought it back.
pub struct Recovery {
    pub round: usize,
    pub crash_at: usize,
    pub digest: u64,
    pub crash_digest: u64,
}

impl Finished {
    /// Runs the output checks against the persisted ledger at `ledger` and
    /// returns the end-state digest.
    pub fn check(&self, ops: &mut Ops, ledger: &Path, pre_finalize: Digest) -> u64 {
        ops.check("collected report count equals n", self.collected == self.n);
        ops.check(
            "charged quote bits equal the final live quote bits",
            self.charged.epsilon.to_bits() == self.final_quote.epsilon.to_bits()
                && self.charged.delta.to_bits() == self.final_quote.delta.to_bits(),
        );
        let want_eps = self.budget.epsilon - self.charged.epsilon;
        let want_delta = self.budget.delta - self.charged.delta;
        let charged_once = match ns_store::prelude::load_ledger(ledger) {
            Ok(l) => {
                l.user_count() == self.n
                    && l.remaining_epsilon()
                        .iter()
                        .all(|e| e.to_bits() == want_eps.to_bits())
                    && l.remaining_delta()
                        .iter()
                        .all(|d| d.to_bits() == want_delta.to_bits())
            }
            Err(_) => false,
        };
        ops.check(
            "reloaded ledger charges every admitted user exactly once",
            charged_once,
        );
        if let Some(r) = &self.recovery {
            ops.check(
                "recovered round equals the crash round",
                r.round == r.crash_at,
            );
            ops.check(
                "recovered state equals the crashed state",
                r.digest == r.crash_digest,
            );
        }
        let mut d = pre_finalize;
        d.u64(self.messages as u64).u64(self.collected as u64);
        d.finish()
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile `q ∈ [0, 1]` of the raw samples.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Total bytes of the regular files under `path` (a file or a directory).
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| entries.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}

/// Number of snapshot files in a store directory.
pub fn snapshot_files(store: &Path) -> u64 {
    std::fs::read_dir(store)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("snap-"))
                .count() as u64
        })
        .unwrap_or(0)
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub const MIB: f64 = 1024.0 * 1024.0;
