//! The per-user client state machine (Algorithms 1 and 2).
//!
//! Since the batched-engine refactor, report *movement* is executed by
//! [`ns_graph::sharded_engine::ShardedMixingEngine`] over flat arrays — the
//! fast path in [`crate::simulation::run_protocol`] never constructs a
//! `Client`.
//! What remains here is the cryptographic per-user state machine: sealing
//! the own report for the curator, the two-layer envelope exchange of the
//! wire protocol ([`Client::relay_round`] / [`Client::receive`], used by the
//! reference simulation in [`crate::simulation::reference`]), and the
//! final-round submission logic ([`Client::finalize`]).

use crate::crypto::{Envelope, KeyPair, PublicKey, SecretKey};
use crate::error::{Error, Result};
use crate::protocol::ProtocolKind;
use crate::report::{Report, Submission};
use ns_graph::NodeId;
use rand::Rng;

/// A message in flight between two users: the curator-sealed report wrapped
/// in an end-to-end envelope for the next hop.
pub type RelayMessage<P> = Envelope<Envelope<Report<P>>>;

/// How a client finalizes its submission at the last round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalizePolicy {
    /// Submit all held reports (`A_all`); empty submission if none.
    All,
    /// Submit one uniformly chosen report, or a dummy when none is held
    /// (`A_single`).
    Single,
}

impl From<ProtocolKind> for FinalizePolicy {
    fn from(kind: ProtocolKind) -> Self {
        match kind {
            ProtocolKind::All => FinalizePolicy::All,
            ProtocolKind::Single => FinalizePolicy::Single,
        }
    }
}

/// What a finalizing user does with her held reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalizeChoice {
    /// Upload every held report (empty submission if none).
    All,
    /// Upload the held report at this index, discarding the rest.
    Pick(usize),
    /// Hold nothing: upload a freshly randomized dummy.
    Dummy,
}

impl FinalizePolicy {
    /// Decides the final-round action for a user holding `held_count`
    /// reports.
    ///
    /// This is the single definition of the submission rule (Algorithms 1
    /// and 2, final round) — the per-client state machine and the batched
    /// simulation both resolve their choice (and draw their selection
    /// randomness) here, so the two paths cannot drift apart.
    pub fn choose<R: Rng + ?Sized>(self, held_count: usize, rng: &mut R) -> FinalizeChoice {
        match self {
            FinalizePolicy::All => FinalizeChoice::All,
            FinalizePolicy::Single => {
                if held_count == 0 {
                    FinalizeChoice::Dummy
                } else {
                    FinalizeChoice::Pick(rng.gen_range(0..held_count))
                }
            }
        }
    }
}

/// A user participating in network shuffling.
///
/// The client holds curator-sealed reports; it never sees the payload of a
/// report produced by another user (Section 4.4's honest-but-curious
/// guarantee), which the type system enforces because the inner envelope can
/// only be opened with the curator's secret key.
#[derive(Debug, Clone)]
pub struct Client<P> {
    id: NodeId,
    keys: KeyPair,
    curator_key: PublicKey,
    neighbors: Vec<NodeId>,
    held: Vec<Envelope<Report<P>>>,
    /// Diagnostic counters for the Table 3 complexity experiment.
    messages_sent: usize,
    peak_held: usize,
}

impl<P: Clone> Client<P> {
    /// Creates a client for user `id` with the given neighbour list.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if the neighbour list is empty — such
    /// a user cannot participate in the exchange (Section 4.2 assumes every
    /// user has at least one communication partner).
    pub fn new(
        id: NodeId,
        keys: KeyPair,
        curator_key: PublicKey,
        neighbors: Vec<NodeId>,
    ) -> Result<Self> {
        if neighbors.is_empty() {
            return Err(Error::InvalidConfiguration(format!(
                "user {id} has no neighbours and cannot participate in network shuffling"
            )));
        }
        Ok(Client {
            id,
            keys,
            curator_key,
            neighbors,
            held: Vec::new(),
            messages_sent: 0,
            peak_held: 0,
        })
    }

    /// The user's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The user's end-to-end public key, to be published via the PKI.
    pub fn public_key(&self) -> PublicKey {
        self.keys.public
    }

    /// Number of reports currently held.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Largest number of reports held at any point (memory proxy, Table 3).
    pub fn peak_held(&self) -> usize {
        self.peak_held
    }

    /// Total relay messages sent so far (traffic proxy, Table 3).
    pub fn messages_sent(&self) -> usize {
        self.messages_sent
    }

    /// Step 2 of Algorithms 1 and 2: the user randomizes her value and seals
    /// it for the curator, becoming the initial holder of her own report.
    pub fn submit_own_report(&mut self, payload: P) {
        let report = Report::genuine(self.id, payload);
        self.held.push(Envelope::seal(self.curator_key, report));
        self.peak_held = self.peak_held.max(self.held.len());
    }

    /// One relay round: every held report is sent to a uniformly random
    /// neighbour (wrapped in an end-to-end envelope for that neighbour).
    ///
    /// With probability `laziness` a report stays put for this round, which
    /// models a temporarily unavailable recipient (Section 4.5).
    ///
    /// The caller must route the returned messages and deliver them with
    /// [`Client::receive`].
    pub fn relay_round<R: Rng + ?Sized>(
        &mut self,
        peer_key: impl Fn(NodeId) -> PublicKey,
        laziness: f64,
        rng: &mut R,
    ) -> Vec<(NodeId, RelayMessage<P>)> {
        let mut outgoing = Vec::with_capacity(self.held.len());
        let mut kept = Vec::new();
        for envelope in self.held.drain(..) {
            if laziness > 0.0 && rng.gen::<f64>() < laziness {
                kept.push(envelope);
                continue;
            }
            let destination = self.neighbors[rng.gen_range(0..self.neighbors.len())];
            let message = Envelope::seal(peer_key(destination), envelope);
            outgoing.push((destination, message));
        }
        self.messages_sent += outgoing.len();
        self.held = kept;
        outgoing
    }

    /// Delivers an incoming relay message: the client strips the end-to-end
    /// layer and stores the still-curator-sealed report.
    ///
    /// # Errors
    ///
    /// [`Error::WrongKey`] if the message was not addressed to this client —
    /// a routing bug in the simulation, surfaced rather than ignored.
    pub fn receive(&mut self, message: RelayMessage<P>) -> Result<()> {
        let inner = message.open(&self.keys.secret)?;
        self.held.push(inner);
        self.peak_held = self.peak_held.max(self.held.len());
        Ok(())
    }

    /// Final round: produce the submission for the curator.
    ///
    /// * [`FinalizePolicy::All`] — every held (still sealed) report is
    ///   uploaded; a null submission when none is held.
    /// * [`FinalizePolicy::Single`] — one held report chosen uniformly at
    ///   random is uploaded; if none is held, `make_dummy` is invoked to
    ///   produce a dummy payload which is sealed and flagged as a dummy.
    ///
    /// Returns the submission still sealed for the curator; the curator's
    /// secret key is required to read the payloads.
    pub fn finalize<R: Rng + ?Sized>(
        &mut self,
        policy: FinalizePolicy,
        make_dummy: impl FnOnce(&mut R) -> P,
        rng: &mut R,
    ) -> SealedSubmission<P> {
        let reports = match policy.choose(self.held.len(), rng) {
            FinalizeChoice::All => std::mem::take(&mut self.held),
            FinalizeChoice::Dummy => {
                let dummy = Report::dummy(self.id, make_dummy(rng));
                vec![Envelope::seal(self.curator_key, dummy)]
            }
            FinalizeChoice::Pick(idx) => {
                let chosen = self.held.swap_remove(idx);
                self.held.clear();
                vec![chosen]
            }
        };
        SealedSubmission {
            submitter: self.id,
            reports,
        }
    }
}

/// A submission as transmitted on the wire: reports still sealed for the
/// curator.
#[derive(Debug, Clone)]
pub struct SealedSubmission<P> {
    /// The uploading user (observable by the curator; Section 3.3).
    pub submitter: NodeId,
    /// Curator-sealed reports.
    pub reports: Vec<Envelope<Report<P>>>,
}

impl<P> SealedSubmission<P> {
    /// Opens every report with the curator's secret key.
    ///
    /// # Errors
    ///
    /// [`Error::WrongKey`] if a report was sealed for a different key.
    pub fn open(self, curator_secret: &SecretKey) -> Result<Submission<P>> {
        let mut reports = Vec::with_capacity(self.reports.len());
        for sealed in self.reports {
            reports.push(sealed.open(curator_secret)?);
        }
        Ok(Submission {
            submitter: self.submitter,
            reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::KeyPair;
    use ns_graph::rng::seeded_rng;

    fn setup() -> (KeyPair, Vec<KeyPair>) {
        let curator = KeyPair::generate();
        let users: Vec<KeyPair> = (0..4).map(|_| KeyPair::generate()).collect();
        (curator, users)
    }

    #[test]
    fn client_requires_neighbors() {
        let (curator, users) = setup();
        assert!(Client::<u32>::new(0, users[0], curator.public, vec![]).is_err());
        assert!(Client::<u32>::new(0, users[0], curator.public, vec![1]).is_ok());
    }

    #[test]
    fn own_report_is_sealed_for_curator_not_for_self() {
        let (curator, users) = setup();
        let mut client = Client::new(0, users[0], curator.public, vec![1, 2]).unwrap();
        client.submit_own_report(99u32);
        assert_eq!(client.held_count(), 1);
        let mut rng = seeded_rng(1);
        let submission = client.finalize(FinalizePolicy::All, |_| 0, &mut rng);
        // The submitter cannot open her own sealed report with her key...
        let sealed = submission.reports[0].clone();
        assert!(sealed.clone().open(&users[0].secret).is_err());
        // ...but the curator can.
        let report = sealed.open(&curator.secret).unwrap();
        assert_eq!(report.payload, 99);
        assert_eq!(report.origin, 0);
    }

    #[test]
    fn relay_round_moves_reports_to_neighbors() {
        let (curator, users) = setup();
        let mut sender = Client::new(0, users[0], curator.public, vec![1, 2]).unwrap();
        let mut receiver1 = Client::new(1, users[1], curator.public, vec![0]).unwrap();
        let mut receiver2 = Client::new(2, users[2], curator.public, vec![0]).unwrap();
        sender.submit_own_report(5u32);

        let mut rng = seeded_rng(2);
        let outgoing = sender.relay_round(|id| users[id].public, 0.0, &mut rng);
        assert_eq!(outgoing.len(), 1);
        assert_eq!(sender.held_count(), 0);
        assert_eq!(sender.messages_sent(), 1);

        let (dest, message) = outgoing.into_iter().next().unwrap();
        assert!(dest == 1 || dest == 2);
        if dest == 1 {
            receiver1.receive(message).unwrap();
            assert_eq!(receiver1.held_count(), 1);
        } else {
            receiver2.receive(message).unwrap();
            assert_eq!(receiver2.held_count(), 1);
        }
    }

    #[test]
    fn receive_rejects_misrouted_messages() {
        let (curator, users) = setup();
        let mut sender = Client::new(0, users[0], curator.public, vec![1]).unwrap();
        let mut wrong_receiver = Client::new(2, users[2], curator.public, vec![0]).unwrap();
        sender.submit_own_report(1u32);
        let mut rng = seeded_rng(3);
        let outgoing = sender.relay_round(|id| users[id].public, 0.0, &mut rng);
        let (_, message) = outgoing.into_iter().next().unwrap();
        assert!(matches!(
            wrong_receiver.receive(message),
            Err(Error::WrongKey { .. })
        ));
    }

    #[test]
    fn laziness_keeps_reports_in_place() {
        let (curator, users) = setup();
        let mut client = Client::new(0, users[0], curator.public, vec![1]).unwrap();
        client.submit_own_report(1u32);
        let mut rng = seeded_rng(4);
        // laziness = 1 is rejected by the simulation config; here we use a
        // value close to 1 so the report almost surely stays.
        let outgoing = client.relay_round(|id| users[id].public, 0.999_999, &mut rng);
        assert!(outgoing.is_empty());
        assert_eq!(client.held_count(), 1);
    }

    #[test]
    fn finalize_all_returns_everything_and_null_when_empty() {
        let (curator, users) = setup();
        let mut client = Client::new(0, users[0], curator.public, vec![1]).unwrap();
        let mut rng = seeded_rng(5);
        let empty = client.finalize(FinalizePolicy::All, |_| 0u32, &mut rng);
        assert!(empty.reports.is_empty());

        client.submit_own_report(1);
        client.submit_own_report(2);
        let full = client.finalize(FinalizePolicy::All, |_| 0u32, &mut rng);
        assert_eq!(full.reports.len(), 2);
        assert_eq!(client.held_count(), 0);
    }

    #[test]
    fn finalize_single_picks_one_or_a_dummy() {
        let (curator, users) = setup();
        let mut rng = seeded_rng(6);

        // Empty: dummy flagged as such.
        let mut empty_client = Client::new(0, users[0], curator.public, vec![1]).unwrap();
        let sub = empty_client.finalize(FinalizePolicy::Single, |_| 77u32, &mut rng);
        assert_eq!(sub.reports.len(), 1);
        let opened = sub.open(&curator.secret).unwrap();
        assert!(opened.reports[0].is_dummy);
        assert_eq!(opened.reports[0].payload, 77);

        // Holding several: exactly one genuine report is submitted and the
        // rest are discarded.
        let mut full_client = Client::new(1, users[1], curator.public, vec![0]).unwrap();
        full_client.submit_own_report(10);
        full_client.submit_own_report(20);
        full_client.submit_own_report(30);
        let sub = full_client.finalize(FinalizePolicy::Single, |_| 0u32, &mut rng);
        assert_eq!(sub.reports.len(), 1);
        assert_eq!(full_client.held_count(), 0);
        let opened = sub.open(&curator.secret).unwrap();
        assert!(!opened.reports[0].is_dummy);
        assert!([10, 20, 30].contains(&opened.reports[0].payload));
    }

    #[test]
    fn peak_held_tracks_maximum() {
        let (curator, users) = setup();
        let mut client = Client::new(0, users[0], curator.public, vec![1]).unwrap();
        client.submit_own_report(1u32);
        client.submit_own_report(2u32);
        assert_eq!(client.peak_held(), 2);
        let mut rng = seeded_rng(7);
        let _ = client.finalize(FinalizePolicy::All, |_| 0, &mut rng);
        assert_eq!(client.peak_held(), 2);
    }

    #[test]
    fn policy_from_protocol_kind() {
        assert_eq!(FinalizePolicy::from(ProtocolKind::All), FinalizePolicy::All);
        assert_eq!(
            FinalizePolicy::from(ProtocolKind::Single),
            FinalizePolicy::Single
        );
    }
}
