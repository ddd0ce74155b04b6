//! Traffic and memory metrics backing the complexity comparison of Table 3.
//!
//! Table 3 of the paper compares Prochlo, mix-nets and network shuffling on
//! *entity space complexity* (memory needed by whoever performs the
//! shuffling) and *user traffic complexity* (reports sent per user).  The
//! simulation records the corresponding concrete quantities so the
//! `table3` experiment can show the empirical scaling.
//!
//! [`TrafficRecorder`] computes the measurements incrementally: it plugs
//! into the mixing engine's [`RoundObserver`] hook and folds each round's
//! sent/load vectors into the running totals, so no post-hoc sweep over
//! per-client counters is needed.

use ns_graph::sharded_engine::{RoundObserver, RoundStats};
use serde::{Deserialize, Serialize};

/// Per-run traffic and memory measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMetrics {
    /// Number of users `n`.
    pub user_count: usize,
    /// Number of communication rounds executed.
    pub rounds: usize,
    /// Relay messages sent by each user over the whole run.
    pub messages_per_user: Vec<usize>,
    /// Largest number of reports simultaneously held by each user.
    pub peak_reports_per_user: Vec<usize>,
    /// Total number of reports received by the curator.
    pub server_reports: usize,
}

impl TrafficMetrics {
    /// Total relay messages across all users.
    pub fn total_messages(&self) -> usize {
        self.messages_per_user.iter().sum()
    }

    /// Mean relay messages per user.
    pub fn mean_messages_per_user(&self) -> f64 {
        if self.user_count == 0 {
            0.0
        } else {
            self.total_messages() as f64 / self.user_count as f64
        }
    }

    /// Maximum relay messages sent by any single user.
    pub fn max_messages_per_user(&self) -> usize {
        self.messages_per_user.iter().copied().max().unwrap_or(0)
    }

    /// Maximum number of reports any user had to hold at once — the user-side
    /// memory requirement (`O(1)` in expectation for network shuffling).
    pub fn max_peak_reports(&self) -> usize {
        self.peak_reports_per_user
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Mean of the per-user peak report counts.
    pub fn mean_peak_reports(&self) -> f64 {
        if self.user_count == 0 {
            0.0
        } else {
            self.peak_reports_per_user.iter().sum::<usize>() as f64 / self.user_count as f64
        }
    }
}

/// Streaming builder of [`TrafficMetrics`], driven by the mixing engine.
///
/// Every user starts as the holder of exactly her own report, so the peak
/// vector is initialised to 1; each observed round then adds the round's
/// sends to the per-user message totals and raises the per-user peaks to the
/// post-round loads.  (Within a round a holder's count only dips below its
/// boundary values, so round boundaries are where peaks occur — the same
/// quantity the per-client counters used to track.)
#[derive(Debug, Clone)]
pub struct TrafficRecorder {
    rounds: usize,
    messages_per_user: Vec<usize>,
    peak_reports_per_user: Vec<usize>,
}

impl TrafficRecorder {
    /// A recorder for `n` users, each initially holding one report.
    pub fn new(n: usize) -> Self {
        TrafficRecorder {
            rounds: 0,
            messages_per_user: vec![0; n],
            peak_reports_per_user: vec![1; n],
        }
    }

    /// A recorder whose per-user peaks start from an explicit initial load —
    /// used by the service layer, where batch admission can leave some users
    /// holding zero (or several) reports before the first round.  With one
    /// report per user this is exactly [`TrafficRecorder::new`].
    pub fn with_initial_load(initial_load: &[usize]) -> Self {
        TrafficRecorder {
            rounds: 0,
            messages_per_user: vec![0; initial_load.len()],
            peak_reports_per_user: initial_load.to_vec(),
        }
    }

    /// Reassembles a recorder from captured parts — the durable runtime's
    /// snapshot-restore hook.  The parts are exactly what
    /// [`TrafficRecorder::rounds`] / [`TrafficRecorder::messages_per_user`] /
    /// [`TrafficRecorder::peak_reports_per_user`] expose, so a capture →
    /// restore round trip continues the recording bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the two per-user vectors have different lengths.
    pub fn from_parts(
        rounds: usize,
        messages_per_user: Vec<usize>,
        peak_reports_per_user: Vec<usize>,
    ) -> Self {
        assert_eq!(
            messages_per_user.len(),
            peak_reports_per_user.len(),
            "per-user vectors must cover the same users"
        );
        TrafficRecorder {
            rounds,
            messages_per_user,
            peak_reports_per_user,
        }
    }

    /// Rounds observed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Relay messages per user accumulated so far.
    pub fn messages_per_user(&self) -> &[usize] {
        &self.messages_per_user
    }

    /// Per-user peak held-report counts so far.
    pub fn peak_reports_per_user(&self) -> &[usize] {
        &self.peak_reports_per_user
    }

    /// Finishes the recording, attaching the curator-side report count.
    pub fn into_metrics(self, server_reports: usize) -> TrafficMetrics {
        TrafficMetrics {
            user_count: self.messages_per_user.len(),
            rounds: self.rounds,
            messages_per_user: self.messages_per_user,
            peak_reports_per_user: self.peak_reports_per_user,
            server_reports,
        }
    }
}

impl RoundObserver for TrafficRecorder {
    fn on_round(&mut self, stats: &RoundStats<'_>) {
        self.rounds = stats.round;
        for (total, &sent) in self.messages_per_user.iter_mut().zip(stats.sent) {
            *total += sent as usize;
        }
        for (peak, &load) in self.peak_reports_per_user.iter_mut().zip(stats.load) {
            *peak = (*peak).max(load as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> TrafficMetrics {
        TrafficMetrics {
            user_count: 4,
            rounds: 3,
            messages_per_user: vec![3, 4, 2, 3],
            peak_reports_per_user: vec![1, 2, 1, 3],
            server_reports: 4,
        }
    }

    #[test]
    fn aggregates() {
        let m = metrics();
        assert_eq!(m.total_messages(), 12);
        assert!((m.mean_messages_per_user() - 3.0).abs() < 1e-12);
        assert_eq!(m.max_messages_per_user(), 4);
        assert_eq!(m.max_peak_reports(), 3);
        assert!((m.mean_peak_reports() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_do_not_divide_by_zero() {
        let m = TrafficMetrics {
            user_count: 0,
            rounds: 0,
            messages_per_user: vec![],
            peak_reports_per_user: vec![],
            server_reports: 0,
        };
        assert_eq!(m.mean_messages_per_user(), 0.0);
        assert_eq!(m.mean_peak_reports(), 0.0);
        assert_eq!(m.max_messages_per_user(), 0);
        assert_eq!(m.max_peak_reports(), 0);
    }

    #[test]
    fn recorder_accumulates_messages_and_peaks() {
        let mut recorder = TrafficRecorder::new(3);
        recorder.on_round(&RoundStats {
            round: 1,
            sent: &[1, 1, 0],
            load: &[0, 2, 1],
        });
        recorder.on_round(&RoundStats {
            round: 2,
            sent: &[0, 2, 1],
            load: &[3, 0, 0],
        });
        let m = recorder.into_metrics(3);
        assert_eq!(m.user_count, 3);
        assert_eq!(m.rounds, 2);
        assert_eq!(m.messages_per_user, vec![1, 3, 1]);
        // Peaks start at 1 (own report) and track post-round loads.
        assert_eq!(m.peak_reports_per_user, vec![3, 2, 1]);
        assert_eq!(m.server_reports, 3);
    }
}
