//! Service-layer telemetry: accountant phase timers, admission audit and
//! traffic adapters over the `ns-obs` registry.
//!
//! Everything here follows the same contract as
//! [`ns_graph::telemetry::EngineTelemetry`]: handles are preregistered
//! slots, recording is relaxed atomic writes (plus, for the audit sink, a
//! short uncontended mutex hold off the round hot path), and an attached
//! bundle never draws randomness or branches on recorded values — an
//! instrumented coordinator run is bitwise identical to a bare one
//! (`tests/observability.rs`).
//!
//! The pre-existing observation types stay what they were:
//! [`crate::metrics::TrafficRecorder`] still builds
//! [`crate::metrics::TrafficMetrics`], and
//! [`ns_graph::ensemble::RowStats`] still carries the accounting moments.
//! The registry integration is adapters *around* them —
//! [`ObservedRounds`] forwards every round to the wrapped observer and
//! folds the same sent/load vectors into counters;
//! [`AccountantTelemetry::record_worst_stats`] publishes a `RowStats` as
//! gauges — so no behavior changes with telemetry detached.

use crate::accountant::closed_form::AccountantParams;
use ns_graph::sharded_engine::{RoundObserver, RoundStats};
use ns_graph::telemetry::EngineTelemetry;
use ns_obs::{Clock, Counter, Gauge, Histogram, MetricsRegistry, TraceEvent, TraceWriter};
use std::io;
use std::sync::{Arc, Mutex};

/// Metric names the service layer registers (the README's catalogue).
pub mod names {
    /// Accountant sweep per round ([`advance_round`], or the two-thread
    /// sweep of a coordinator round), ns: from the sweep's start until its
    /// last range is folded, on whichever thread folded it.  A masked
    /// round's dark-neighbour count pass, which the first unit runs before
    /// any range, and the moments fold, which the sweep runs as its ranges
    /// finish, are inside it.
    ///
    /// [`advance_round`]: crate::service::StreamingAccountant::advance_round
    pub const ACCT_ADVANCE_NS: &str = "ns_acct_advance_ns";
    /// Worst tracked `Σ p²` moment, scaled by 1e6
    /// ([`super::AccountantTelemetry::record_worst_stats`]).
    pub const ACCT_WORST_SUM_SQ_MICRO: &str = "ns_acct_worst_sum_sq_micro";
    /// Worst tracked support ratio, in permille.
    pub const ACCT_WORST_SUPPORT_PERMILLE: &str = "ns_acct_worst_support_permille";
    /// Admission batches decided (admitted or refused).
    pub const ADMIT_BATCHES_TOTAL: &str = "ns_admit_batches_total";
    /// Reports admitted.
    pub const ADMIT_REPORTS_TOTAL: &str = "ns_admit_reports_total";
    /// Admission batches refused.
    pub const ADMIT_REFUSALS_TOTAL: &str = "ns_admit_refusals_total";
    /// Relay messages sent, totalled over all users and rounds.
    pub const TRAFFIC_SENT_TOTAL: &str = "ns_traffic_sent_total";
    /// Largest per-user load observed in the latest round.
    pub const TRAFFIC_PEAK_LOAD: &str = "ns_traffic_peak_load";
}

/// Preregistered handles for the streaming accountant: the per-round
/// advance timer and the worst-moment gauges.
#[derive(Clone, Debug)]
pub struct AccountantTelemetry {
    pub(crate) clock: Clock,
    pub(crate) advance_ns: Histogram,
    worst_sum_sq_micro: Gauge,
    worst_support_permille: Gauge,
}

impl AccountantTelemetry {
    /// Registers (or re-binds) the accountant metrics in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        AccountantTelemetry {
            clock: registry.clock().clone(),
            advance_ns: registry.histogram(names::ACCT_ADVANCE_NS),
            worst_sum_sq_micro: registry.gauge(names::ACCT_WORST_SUM_SQ_MICRO),
            worst_support_permille: registry.gauge(names::ACCT_WORST_SUPPORT_PERMILLE),
        }
    }

    /// Publishes a worst-case [`ns_graph::ensemble::RowStats`] to the
    /// registry gauges — the `RowStats` adapter.  Fixed-point scaled
    /// (`Σ p²` by 1e6, support ratio to permille) because gauges are
    /// integers.
    pub fn record_worst_stats(&self, stats: &ns_graph::ensemble::RowStats) {
        self.worst_sum_sq_micro
            .set((stats.sum_of_squares.max(0.0) * 1e6) as u64);
        self.worst_support_permille
            .set((stats.support_ratio.max(0.0) * 1e3) as u64);
    }
}

/// A shared, lockable [`TraceWriter`] — the admission audit log and the
/// durable runtime's structured trace funnel into one ring so flushed
/// JSONL interleaves in record order.  The mutex is held only for the
/// fixed-size copy of one event (or for a flush, which callers keep off
/// steady-state paths), and recording never allocates.
#[derive(Clone)]
pub struct AuditSink(Arc<Mutex<TraceWriter>>);

impl AuditSink {
    /// Wraps a writer for shared recording.
    pub fn new(writer: TraceWriter) -> Self {
        AuditSink(Arc::new(Mutex::new(writer)))
    }

    /// Records one event (drops it silently if the lock is poisoned —
    /// observability must never take the run down).
    pub fn record(&self, ev: TraceEvent) {
        if let Ok(mut writer) = self.0.lock() {
            writer.record(ev);
        }
    }

    /// Drains the buffered events as JSONL into `out`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn flush_to(&self, out: &mut dyn io::Write) -> io::Result<usize> {
        match self.0.lock() {
            Ok(mut writer) => writer.flush_to(out),
            Err(_) => Ok(0),
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.0.lock().map(|w| w.len()).unwrap_or(0)
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for AuditSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditSink")
            .field("len", &self.len())
            .finish()
    }
}

/// The coordinator's full telemetry bundle: engine phase timers, the
/// accountant breakdown, admission counters, the traffic adapter and
/// (optionally) the admission audit log.  Clone-cheap; attach with
/// [`crate::service::ShuffleCoordinator::set_telemetry`].
#[derive(Clone, Debug)]
pub struct CoordinatorTelemetry {
    pub(crate) engine: EngineTelemetry,
    pub(crate) accountant: AccountantTelemetry,
    pub(crate) traffic: TrafficTelemetry,
    pub(crate) admit_batches: Counter,
    pub(crate) admit_reports: Counter,
    pub(crate) admit_refusals: Counter,
    pub(crate) audit: Option<AuditSink>,
    /// Parameters the admission audit quotes the live `(ε, δ)` at; with
    /// `None` the audit records `null` for both.
    pub(crate) quote_params: Option<AccountantParams>,
}

impl CoordinatorTelemetry {
    /// Registers the full service-layer catalogue in `registry`.  No audit
    /// log and no quote parameters until the builders below add them.
    pub fn register(registry: &MetricsRegistry) -> Self {
        CoordinatorTelemetry {
            engine: EngineTelemetry::register(registry),
            accountant: AccountantTelemetry::register(registry),
            traffic: TrafficTelemetry::register(registry),
            admit_batches: registry.counter(names::ADMIT_BATCHES_TOTAL),
            admit_reports: registry.counter(names::ADMIT_REPORTS_TOTAL),
            admit_refusals: registry.counter(names::ADMIT_REFUSALS_TOTAL),
            audit: None,
            quote_params: None,
        }
    }

    /// Attaches the admission audit log: every admit/refuse decision is
    /// recorded into `sink` as a structured `admit` event.
    pub fn with_audit(mut self, sink: AuditSink) -> Self {
        self.audit = Some(sink);
        self
    }

    /// Sets the parameters audit records quote the live `(ε, δ)` under.
    pub fn with_quote_params(mut self, params: AccountantParams) -> Self {
        self.quote_params = Some(params);
        self
    }

    /// The engine phase-timer share of the bundle.
    pub fn engine(&self) -> &EngineTelemetry {
        &self.engine
    }

    /// The accountant share of the bundle.
    pub fn accountant(&self) -> &AccountantTelemetry {
        &self.accountant
    }

    /// The attached audit sink, if any.
    pub fn audit(&self) -> Option<&AuditSink> {
        self.audit.as_ref()
    }

    /// Counts one refused batch decided *outside* the service's own
    /// admission path (the durable layer's pre-checks refuse before
    /// [`crate::service::ShuffleCoordinator::admit`] runs) and returns the
    /// decision number, so every refusal still lands in the same batch
    /// sequence the audit log records.
    pub fn record_external_refusal(&self) -> u64 {
        self.admit_batches.inc();
        self.admit_refusals.inc();
        self.admit_batches.get()
    }
}

/// Registry adapter over the per-round traffic statistics: total relay
/// messages and the latest round's peak load.
#[derive(Clone, Debug)]
pub struct TrafficTelemetry {
    sent_total: Counter,
    peak_load: Gauge,
}

impl TrafficTelemetry {
    /// Registers (or re-binds) the traffic metrics in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        TrafficTelemetry {
            sent_total: registry.counter(names::TRAFFIC_SENT_TOTAL),
            peak_load: registry.gauge(names::TRAFFIC_PEAK_LOAD),
        }
    }

    /// Folds one round's statistics into the registry slots.
    pub fn record_round(&self, stats: &RoundStats<'_>) {
        let sent: u64 = stats.sent.iter().map(|&s| u64::from(s)).sum();
        self.sent_total.add(sent);
        let peak = stats.load.iter().copied().max().unwrap_or(0);
        self.peak_load.set(u64::from(peak));
    }
}

/// The [`RoundObserver`] adapter: forwards every round to the wrapped
/// observer unchanged and, when telemetry is attached, folds the same
/// statistics into the registry — which is how the coordinator keeps
/// [`crate::metrics::TrafficRecorder`] as its source of truth while the
/// registry sees the identical stream.
pub struct ObservedRounds<'a, O> {
    inner: &'a mut O,
    telemetry: Option<&'a TrafficTelemetry>,
}

impl<'a, O: RoundObserver> ObservedRounds<'a, O> {
    /// Wraps `inner`; with `telemetry` `None` this is a zero-cost
    /// passthrough.
    pub fn new(inner: &'a mut O, telemetry: Option<&'a TrafficTelemetry>) -> Self {
        ObservedRounds { inner, telemetry }
    }
}

impl<O: RoundObserver> RoundObserver for ObservedRounds<'_, O> {
    fn on_round(&mut self, stats: &RoundStats<'_>) {
        if let Some(t) = self.telemetry {
            t.record_round(stats);
        }
        self.inner.on_round(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_rounds_forwards_and_folds() {
        let registry = MetricsRegistry::new();
        let traffic = TrafficTelemetry::register(&registry);
        let mut recorder = crate::metrics::TrafficRecorder::new(3);
        {
            let mut observed = ObservedRounds::new(&mut recorder, Some(&traffic));
            observed.on_round(&RoundStats {
                round: 1,
                sent: &[1, 2, 0],
                load: &[0, 2, 1],
            });
        }
        assert_eq!(recorder.rounds(), 1);
        assert_eq!(recorder.messages_per_user(), &[1, 2, 0]);
        let rendered = registry.render();
        assert!(rendered.contains("counter ns_traffic_sent_total 3"));
        assert!(rendered.contains("gauge ns_traffic_peak_load 2"));
    }

    #[test]
    fn audit_sink_records_and_flushes_jsonl() {
        let (clock, _driver) = Clock::fake();
        let sink = AuditSink::new(TraceWriter::new(clock, 8));
        sink.record(TraceEvent::Admit {
            batch: 1,
            reports: 10,
            accepted: true,
            reason: "ok",
            epsilon: 0.5,
            delta: 1e-6,
        });
        assert_eq!(sink.len(), 1);
        let mut out = Vec::new();
        assert_eq!(sink.flush_to(&mut out).unwrap(), 1);
        let text = String::from_utf8(out).unwrap();
        ns_obs::schema::validate_jsonl(&text).expect("schema");
        assert!(text.contains("\"reason\": \"ok\""));
    }

    #[test]
    fn worst_stats_gauges_are_fixed_point_scaled() {
        let registry = MetricsRegistry::new();
        let acct = AccountantTelemetry::register(&registry);
        acct.record_worst_stats(&ns_graph::ensemble::RowStats {
            sum_of_squares: 0.25,
            support_ratio: 0.5,
        });
        let rendered = registry.render();
        assert!(rendered.contains("gauge ns_acct_worst_sum_sq_micro 250000"));
        assert!(rendered.contains("gauge ns_acct_worst_support_permille 500"));
    }
}
