//! BIND version parsing and the ISC advisory matrix.
//!
//! The paper overlays "well-documented software bugs" (its citation \[4\] is
//! the ISC BIND vulnerability page, February 2004) on the delegation graphs
//! it measured: 27,141 of 166,771 surveyed servers ran versions with known
//! exploits, which poisons 45% of all names' TCBs.
//!
//! This crate provides that overlay for the reproduction:
//!
//! * [`version`] — parse and order BIND version strings as they appear in
//!   `version.bind` CHAOS TXT answers (`"8.2.4"`, `"9.2.3-P1"`, …);
//! * [`advisory`] — advisories with affected version ranges; the encoded
//!   matrix reproduces the ISC table of the era, including the four
//!   exploits the paper names against BIND 8.2.4 (`libbind`, `negcache`,
//!   `sigrec`, `DoS multi`);
//! * [`fingerprint`] — read the banner out of a `version.bind` response.
//!   A banner is assessed under the paper's optimistic rule: servers
//!   whose version is hidden or unparseable are assumed
//!   **non-vulnerable**.

#![forbid(unsafe_code)]

pub mod advisory;
pub mod fingerprint;
pub mod version;

pub use advisory::{Advisory, Severity, VersionRange, VulnDb};
pub use version::BindVersion;
