//! BX007: wall-clock reads in library code. Every clock access is
//! nondeterministic and would make the seeded crash sweeps unreproducible.

#[expect(clippy::disallowed_types, reason = "BX007 bad fixture")]
use std::time::{Instant, SystemTime};

fn stamp_op(log: &mut Vec<u128>) {
    #[expect(clippy::disallowed_types, reason = "BX007 bad fixture")]
    let since = SystemTime::now();
    #[expect(clippy::disallowed_types, reason = "BX007 bad fixture")]
    let started = Instant::now();
    log.push(since.elapsed().map_or(0, |d| d.as_nanos()));
    log.push(started.elapsed().as_nanos());
}
