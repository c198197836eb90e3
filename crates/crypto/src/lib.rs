//! Simulation-grade cryptographic primitives for the `oram-timing` stack.
//!
//! The HPCA'14 paper assumes an AES-128 engine with *fixed latency* inside
//! the ORAM controller (§4.1: "all encryption routines are fixed latency"),
//! a symmetric *session key* negotiated with the user (§5), probabilistic
//! encryption of ORAM buckets (§3), and an HMAC used to bind programs and
//! leakage parameters to user data (§8, §10).
//!
//! This crate provides functional stand-ins for all of those pieces:
//!
//! * [`BlockCipher`] — a 128-bit block cipher built from an ARX permutation.
//! * [`Prf`] — a keyed pseudo-random function (used e.g. for default ORAM
//!   leaf assignments).
//! * [`ProbCipher`] — probabilistic (nonce-counter) encryption; encrypting
//!   the same plaintext twice yields unrelated-looking ciphertexts, which
//!   is exactly the property the paper's §3.2 root-bucket timing probe
//!   relies on.
//! * [`Mac`] — a fixed-length message authentication code.
//! * [`keys`] — session-key negotiation and the run-once key register that
//!   defeats replay attacks (§8).
//!
//! # Security disclaimer
//!
//! **Nothing in this crate is cryptographically secure.** These primitives
//! exist so that the *architecture* around them can be simulated
//! faithfully: ciphertexts change on re-encryption, keys that are
//! "forgotten" render data undecryptable within the simulation, and every
//! operation has a deterministic, data-independent latency. Substituting a
//! real AES/HMAC implementation would not change any simulation result,
//! because no experiment in the paper depends on cryptanalytic strength.
//!
//! # Example
//!
//! ```
//! use otc_crypto::{ProbCipher, SymmetricKey};
//!
//! let key = SymmetricKey::from_seed(7);
//! let mut enc = ProbCipher::new(key);
//! let plaintext = [42u8; 64];
//! let c1 = enc.encrypt(&plaintext);
//! let c2 = enc.encrypt(&plaintext);
//! // Probabilistic: same plaintext, different ciphertexts.
//! assert_ne!(c1.bytes, c2.bytes);
//! assert_eq!(enc.decrypt(&c1), plaintext);
//! assert_eq!(enc.decrypt(&c2), plaintext);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cipher;
mod mac;
mod prf;
mod prob;
mod rng;

pub mod keys;

pub use cipher::{Block, BlockCipher};
pub use keys::{KeyRegister, ProcessorKeyPair, SealedKey, SymmetricKey};
pub use mac::{Mac, MacTag};
pub use prf::Prf;
pub use prob::{Ciphertext, ProbCipher};
pub use rng::SplitMix64;
