//! BX007: ordering comes from a logical tick threaded through the API,
//! never from a clock. Durations are data, not clock reads.

use std::time::Duration;

fn stamp_op(log: &mut Vec<u64>, tick: u64) -> (u64, Duration) {
    log.push(tick);
    (tick + 1, Duration::from_millis(tick))
}
