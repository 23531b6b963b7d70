//! BX003: panics in non-test library code.

use std::cmp::Ordering;
use std::collections::BTreeMap;

fn brittle(map: &BTreeMap<u32, u64>, key: u32) -> u64 {
    #[expect(clippy::unwrap_used, reason = "BX003 bad fixture")]
    let hit = *map.get(&key).unwrap();
    #[expect(clippy::expect_used, reason = "BX003 bad fixture")]
    let also = *map.get(&key).expect("key present");
    match hit.cmp(&also) {
        Ordering::Equal => {}
        #[expect(clippy::panic, reason = "BX003 bad fixture")]
        Ordering::Less | Ordering::Greater => panic!("impossible"),
    }
    match hit {
        #[expect(clippy::unreachable, reason = "BX003 bad fixture")]
        0 => unreachable!("zero is reserved"),
        n => n,
    }
}
