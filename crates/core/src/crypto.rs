//! Simulated public-key infrastructure and envelope encryption (Section 4.4).
//!
//! The communication protocol of the paper uses two key pairs:
//!
//! * `<c₁^pk, c₁^sk>` — one per user, for end-to-end encryption of the hop
//!   between two users, so the (possibly adversarial) server relaying the
//!   message cannot read it;
//! * `<c₂^pk, c₂^sk>` — the curator's envelope key, so relaying users cannot
//!   read the report content they forward.
//!
//! **This module does not implement real cryptography.**  The privacy
//! analysis of the paper never relies on cryptographic hardness, only on the
//! *visibility structure*: who can open which envelope.  [`Envelope`]
//! enforces exactly that structure (opening with the wrong secret key is an
//! error that tests can assert on), which is sufficient for a faithful
//! simulation; a deployment would substitute an AEAD + PKI without touching
//! the rest of the crate.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counter backing key generation, so key ids are unique within a
/// process.
static NEXT_KEY_ID: AtomicU64 = AtomicU64::new(1);

/// Identifier of a public key registered with the PKI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey(u64);

/// The secret counterpart of a [`PublicKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey(u64);

/// A public/secret key pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyPair {
    /// The shareable half.
    pub public: PublicKey,
    /// The secret half, held only by the key's owner.
    pub secret: SecretKey,
}

impl KeyPair {
    /// Generates a fresh key pair.
    pub fn generate() -> Self {
        let id = NEXT_KEY_ID.fetch_add(1, Ordering::Relaxed);
        KeyPair {
            public: PublicKey(id),
            secret: SecretKey(id),
        }
    }
}

impl PublicKey {
    /// Raw id (for diagnostics).
    pub fn id(&self) -> u64 {
        self.0
    }
}

impl SecretKey {
    /// Raw id (for diagnostics).
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// A payload sealed to a recipient's public key.
///
/// Only the matching secret key can open it; everyone else sees opaque data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope<T> {
    recipient: PublicKey,
    payload: T,
}

impl<T> Envelope<T> {
    /// Seals `payload` for the holder of `recipient`.
    pub fn seal(recipient: PublicKey, payload: T) -> Self {
        Envelope { recipient, payload }
    }

    /// The public key this envelope is addressed to (visible metadata, as in
    /// any real hybrid-encryption scheme).
    pub fn recipient(&self) -> PublicKey {
        self.recipient
    }

    /// Opens the envelope with a secret key.
    ///
    /// # Errors
    ///
    /// [`Error::WrongKey`] if `secret` does not match the recipient key.
    pub fn open(self, secret: &SecretKey) -> Result<T> {
        if secret.0 == self.recipient.0 {
            Ok(self.payload)
        } else {
            Err(Error::WrongKey {
                expected: self.recipient.0,
                got: secret.0,
            })
        }
    }
}

/// The public-key registry: users and the curator publish their public keys
/// here and fetch each other's (Figure 3, "broadcast public keys").
#[derive(Debug, Clone, Default)]
pub struct Pki {
    user_keys: Vec<PublicKey>,
    curator_key: Option<PublicKey>,
}

impl Pki {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Pki::default()
    }

    /// Registers user `i`'s end-to-end public key.  Users must register in
    /// id order (the registry is positional).
    pub fn register_user(&mut self, key: PublicKey) -> usize {
        self.user_keys.push(key);
        self.user_keys.len() - 1
    }

    /// Registers the curator's envelope public key.
    pub fn register_curator(&mut self, key: PublicKey) {
        self.curator_key = Some(key);
    }

    /// Looks up user `i`'s public key.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownUser`] if `i` has not registered.
    pub fn user_key(&self, i: usize) -> Result<PublicKey> {
        self.user_keys.get(i).copied().ok_or(Error::UnknownUser(i))
    }

    /// The curator's public key.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if the curator has not registered.
    pub fn curator_key(&self) -> Result<PublicKey> {
        self.curator_key
            .ok_or_else(|| Error::InvalidConfiguration("curator key not registered".into()))
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.user_keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keypairs_are_unique() {
        let a = KeyPair::generate();
        let b = KeyPair::generate();
        assert_ne!(a.public.id(), b.public.id());
        assert_eq!(a.public.id(), a.secret.id());
    }

    #[test]
    fn envelope_opens_only_with_matching_key() {
        let owner = KeyPair::generate();
        let other = KeyPair::generate();
        let env = Envelope::seal(owner.public, "secret payload");
        assert_eq!(env.recipient(), owner.public);
        let err = env.clone().open(&other.secret).unwrap_err();
        assert!(matches!(err, Error::WrongKey { .. }));
        assert_eq!(env.open(&owner.secret).unwrap(), "secret payload");
    }

    #[test]
    fn nested_envelopes_model_the_two_layer_protocol() {
        // Report sealed for the curator, then wrapped for the next-hop user.
        let curator = KeyPair::generate();
        let hop = KeyPair::generate();
        let inner = Envelope::seal(curator.public, vec![1u8, 2, 3]);
        let outer = Envelope::seal(hop.public, inner);

        // The relaying user can strip the outer layer but not the inner one.
        let inner_again = outer.open(&hop.secret).unwrap();
        assert!(inner_again.clone().open(&hop.secret).is_err());
        assert_eq!(inner_again.open(&curator.secret).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn pki_registration_and_lookup() {
        let mut pki = Pki::new();
        let u0 = KeyPair::generate();
        let u1 = KeyPair::generate();
        let curator = KeyPair::generate();
        assert_eq!(pki.register_user(u0.public), 0);
        assert_eq!(pki.register_user(u1.public), 1);
        pki.register_curator(curator.public);

        assert_eq!(pki.user_key(1).unwrap(), u1.public);
        assert!(matches!(pki.user_key(5), Err(Error::UnknownUser(5))));
        assert_eq!(pki.curator_key().unwrap(), curator.public);
        assert_eq!(pki.user_count(), 2);

        let empty = Pki::new();
        assert!(empty.curator_key().is_err());
    }
}
