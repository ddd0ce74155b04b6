//! The two named workloads, their round plan and their seeded inputs.

use network_shuffle::prelude::{
    AccountantParams, CoordinatorConfig, OutageModel, OutageSchedule, ProtocolKind,
};
use ns_dp::prelude::PrivacyGuarantee;
use ns_graph::prelude::{Graph, NodeId};
use ns_graph::round::DrawMode;
use ns_store::DurableConfig;

use crate::Res;

/// Durability knobs of every run, set explicitly: the program's
/// `DurableConfig::from_env` is never consulted.
pub const DURABLE: DurableConfig = DurableConfig {
    group_commit: 4,
    snapshot_every: 16,
};

/// Requested Chung–Lu population; its largest connected component holds
/// n = 1,009,146 users at seed 20220408.
pub const DEFAULT_REQUESTED_N: usize = 1_160_000;

/// The `sharded_deployment` degree profile: Twitch-calibrated irregularity
/// and mean degree.
const IRREGULARITY: f64 = 7.584;
const MEAN_DEGREE: f64 = 10.0;

/// Local randomizer budget the quotes are stated at.
const EPSILON_0: f64 = 2.0;

/// One benchmark workload: everything about the epoch except its size.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shards: usize,
    pub protocol: ProtocolKind,
    pub tracked_per_shard: usize,
    pub draw_mode: DrawMode,
    pub admit_batches: usize,
    /// `MarkovOnOff { fail, recover }` churn, attached with `with_outages`.
    pub churn: Option<(f64, f64)>,
    /// Program telemetry attached with `attach_telemetry(.., Some(params))`.
    pub telemetry: bool,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "churn_sharded_1m",
        shards: 4,
        protocol: ProtocolKind::Single,
        tracked_per_shard: 2,
        draw_mode: DrawMode::Compat,
        admit_batches: 4,
        churn: Some((0.01, 0.04)),
        telemetry: false,
    },
    Workload {
        name: "static_mono_1m",
        shards: 1,
        protocol: ProtocolKind::All,
        tracked_per_shard: 1,
        draw_mode: DrawMode::Fast,
        admit_batches: 256,
        churn: None,
        telemetry: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn config(&self, seed: u64) -> CoordinatorConfig {
        CoordinatorConfig {
            seed,
            laziness: 0.0,
            protocol: self.protocol,
            tracked_per_shard: self.tracked_per_shard,
            draw_mode: self.draw_mode,
        }
    }
}

/// The epoch's round plan: `rounds` timed rounds, with the crash half-way
/// between the last two snapshots (round `16j + 8`).
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub rounds: usize,
    pub crash_at: usize,
}

/// 32 rounds: snapshots after rounds 16 and 32, the crash after round 24,
/// so recovery loads snapshot 16 and replays 8 rounds.
pub const PLAN: Plan = Plan {
    rounds: 2 * DURABLE.snapshot_every,
    crash_at: 2 * DURABLE.snapshot_every - DURABLE.snapshot_every / 2,
};

impl Plan {
    pub fn is_snapshot_round(&self, completed: usize) -> bool {
        completed.is_multiple_of(DURABLE.snapshot_every)
    }
}

/// Everything a run reads, generated from the seed before any timing.
pub struct Inputs {
    pub seed: u64,
    pub graph: Graph,
    /// `payloads[u]` is user `u`'s 4-byte randomized report.
    pub payloads: Vec<Vec<u8>>,
    pub schedule: Option<OutageSchedule>,
    pub params: AccountantParams,
    /// A budget no user exhausts in one epoch.
    pub budget: PrivacyGuarantee,
}

/// SplitMix64: the seeded stream every generated input is drawn from.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Inputs {
    pub fn generate(
        workload: &Workload,
        requested_n: usize,
        plan: &Plan,
        seed: u64,
    ) -> Res<Inputs> {
        let graph = ns_datasets::catalog::generate_with_targets(
            requested_n,
            IRREGULARITY,
            MEAN_DEGREE,
            seed,
        )?;
        let n = graph.node_count();
        let payloads = (0..n)
            .map(|u| {
                (splitmix(seed ^ splitmix(u as u64)) as u32)
                    .to_le_bytes()
                    .to_vec()
            })
            .collect();
        let schedule = match workload.churn {
            Some((fail, recover)) => {
                Some(OutageModel::MarkovOnOff { fail, recover }.sample_schedule(
                    n,
                    plan.rounds,
                    splitmix(seed ^ 0x6f75_7461_6765),
                )?)
            }
            None => None,
        };
        Ok(Inputs {
            seed,
            params: AccountantParams::with_defaults(n, EPSILON_0)?,
            budget: PrivacyGuarantee::new(1.0e6, 0.5)?,
            graph,
            payloads,
            schedule,
        })
    }

    /// The population split into `count` contiguous admission batches.
    pub fn batches(&self, count: usize) -> Vec<Vec<(NodeId, Vec<u8>)>> {
        let n = self.payloads.len();
        let size = n.div_ceil(count.clamp(1, n));
        (0..n)
            .step_by(size)
            .map(|start| {
                (start..(start + size).min(n))
                    .map(|u| (u, self.payloads[u].clone()))
                    .collect()
            })
            .collect()
    }
}
