//! Code each retired rule used to reject, with the lint that rejects it
//! now named at every site.

mod borrows;
mod casts;
mod clocks;
mod fs_access;
mod io_results;
mod panics;
pub mod public_docs;
mod reports;
mod shared_state;
mod spans;
