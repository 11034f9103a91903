//! Capabilities: the authentication ticket a client obtains from the
//! metadata/management service and presents with every request (§IV).
//!
//! Threat model (the one the paper assumes): clients are *not* trusted, the
//! network *is*. The capability describes what the holder may do and is
//! signed with a key shared among DFS services; storage-node handlers verify
//! the signature and check that the requested operation is allowed.

use crate::siphash::{siphash24_words, MacKey};

/// Access rights bitmap.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Rights(pub u8);

impl Rights {
    pub const READ: Rights = Rights(0b01);
    pub const WRITE: Rights = Rights(0b10);
    pub const RW: Rights = Rights(0b11);

    #[inline]
    pub(crate) fn allows(self, needed: Rights) -> bool {
        self.0 & needed.0 == needed.0
    }
}

/// A signed capability descriptor (37 B on the wire, see [`crate::sizes`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Capability {
    /// The node the capability was issued to: its holder.
    pub(crate) client: u32,
    pub file: u64,
    pub(crate) rights: Rights,
    /// Absolute simulated-time expiry in nanoseconds.
    pub expires_at_ns: u64,
    /// Freshness nonce chosen by the issuer.
    pub nonce: u64,
    pub(crate) mac: u64,
}

impl Capability {
    fn mac_input(&self) -> [u64; 5] {
        [
            self.client as u64,
            self.file,
            self.rights.0 as u64,
            self.expires_at_ns,
            self.nonce,
        ]
    }

    /// Issue a capability signed under `key`.
    pub fn issue(
        key: &MacKey,
        client: u32,
        file: u64,
        rights: Rights,
        expires_at_ns: u64,
        nonce: u64,
    ) -> Capability {
        let mut cap = Capability {
            client,
            file,
            rights,
            expires_at_ns,
            nonce,
            mac: 0,
        };
        cap.mac = siphash24_words(key, &cap.mac_input());
        cap
    }

    /// Verify signature, expiry, and that `rights` are granted.
    pub fn verify(&self, key: &MacKey, now_ns: u64, needed: Rights) -> Result<(), AuthError> {
        if siphash24_words(key, &self.mac_input()) != self.mac {
            return Err(AuthError::BadSignature);
        }
        if now_ns >= self.expires_at_ns {
            return Err(AuthError::Expired);
        }
        if !self.rights.allows(needed) {
            return Err(AuthError::InsufficientRights);
        }
        Ok(())
    }
}

/// Reasons a request is rejected by the authentication policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuthError {
    BadSignature,
    Expired,
    InsufficientRights,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AuthError::BadSignature => "bad capability signature",
            AuthError::Expired => "capability expired",
            AuthError::InsufficientRights => "operation not permitted by capability",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfsHeader, DfsOp, Status};

    fn key() -> MacKey {
        MacKey::from_seed(0xDEAD)
    }

    #[test]
    fn issue_and_verify_roundtrip() {
        let cap = Capability::issue(&key(), 7, 42, Rights::RW, 1_000_000, 99);
        assert!(cap.verify(&key(), 500_000, Rights::WRITE).is_ok());
    }

    #[test]
    fn tampered_fields_fail_signature() {
        let cap = Capability::issue(&key(), 7, 42, Rights::READ, 1_000_000, 99);
        let mut evil = cap;
        evil.rights = Rights::RW; // privilege escalation attempt
        assert_eq!(
            evil.verify(&key(), 0, Rights::WRITE),
            Err(AuthError::BadSignature)
        );
        let mut other_file = cap;
        other_file.file = 43;
        assert_eq!(
            other_file.verify(&key(), 0, Rights::READ),
            Err(AuthError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_fails() {
        let cap = Capability::issue(&key(), 1, 1, Rights::READ, 10, 0);
        assert_eq!(
            cap.verify(&MacKey::from_seed(1), 0, Rights::READ),
            Err(AuthError::BadSignature)
        );
    }

    #[test]
    fn expiry_enforced() {
        let cap = Capability::issue(&key(), 1, 1, Rights::READ, 10, 0);
        assert_eq!(
            cap.verify(&key(), 10, Rights::READ),
            Err(AuthError::Expired)
        );
        assert!(cap.verify(&key(), 9, Rights::READ).is_ok());
    }

    #[test]
    fn rights_enforced() {
        let cap = Capability::issue(&key(), 1, 1, Rights::READ, 10, 0);
        assert_eq!(
            cap.verify(&key(), 0, Rights::WRITE),
            Err(AuthError::InsufficientRights)
        );
        let rw = Capability::issue(&key(), 1, 1, Rights::RW, 10, 0);
        assert!(rw.verify(&key(), 0, Rights::RW).is_ok());
    }

    /// A request naming a client other than the holder is refused as an
    /// expired capability is: to the holder. Only a capability whose
    /// signature fails is refused to the sender.
    #[test]
    fn wrong_holder_is_refused_to_the_holder() {
        let header = |client, capability| DfsHeader {
            greq_id: 1,
            op: DfsOp::Read,
            client,
            tenant: 0,
            capability,
        };
        let admit = |h: DfsHeader| h.admit(&key(), 0, Rights::READ, 3, true);
        let cap = Capability::issue(&key(), 1, 5, Rights::RW, 10, 0);
        assert_eq!(admit(header(1, cap)), Ok(()));
        assert_eq!(admit(header(2, cap)), Err((1, Status::AuthFailed)));
        let expired = Capability::issue(&key(), 1, 5, Rights::RW, 0, 0);
        assert_eq!(admit(header(1, expired)), Err((1, Status::AuthFailed)));
        let forged = Capability::issue(&MacKey::from_seed(1), 1, 5, Rights::RW, 10, 0);
        assert_eq!(admit(header(1, forged)), Err((3, Status::AuthFailed)));
    }

    #[test]
    fn rights_bit_algebra() {
        assert!(Rights::RW.allows(Rights::READ));
        assert!(Rights::RW.allows(Rights::WRITE));
        assert!(!Rights::READ.allows(Rights::WRITE));
    }
}
