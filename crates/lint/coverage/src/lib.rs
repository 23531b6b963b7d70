//! Coverage proof for the workspace lint policy.
//!
//! `boxes-lint` retired BX002–BX009, BX011, BX013 and BX018 in favour of
//! rustc and clippy lints (`[workspace.lints]` in the root `Cargo.toml`
//! plus `clippy.toml`). Each retired rule's bad fixture lives in [`bad`]:
//! every offending statement carries
//! `#[expect(lint, reason = "BXnnn bad fixture")]`, so `cargo clippy --lib`
//! under `-D warnings` fails if the policy stops reporting it (the
//! expectation goes unfulfilled) or reports something new. The clean
//! fixtures in [`clean`] compile with no warnings at all. The crate is
//! never published and never called: it exists to be linted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    dead_code,
    reason = "fixtures are compiled for their lints and never called"
)]
#![expect(
    clippy::disallowed_macros,
    reason = "BX018 bad fixture: the `thread_local!` in bad/shared_state.rs"
)]

pub mod bad;
pub mod clean;
