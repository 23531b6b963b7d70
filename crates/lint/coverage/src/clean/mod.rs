//! The compliant counterpart of every bad fixture: no lint fires here.

mod casts;
mod clocks;
mod fs_access;
mod io_results;
mod panics;
pub mod public_docs;
mod reports;
mod shared_state;
mod spans;
