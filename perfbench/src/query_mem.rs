//! `query-mem`: the read path on the journaled memory stack.
//!
//! B-BOX bulk-loaded from a two-level document, WAL over `MemLogStore`.
//! Closed loop, one client: each round runs 16 seeded ancestor tests of
//! 4 lookups each plus one non-ancestor control test, then one scattered
//! insert, until a number of inserts fixed by the budget is done; rounds
//! without an insert fill the rest of the budget. Recovery replays the
//! durable log bytes over `disk_image`.

use std::time::Instant;

use boxes_core::bbox::BBoxConfig;
use boxes_core::pager::IoStats;
use boxes_core::wal::MemLogStore;
use boxes_core::xml::generate::two_level;
use boxes_core::xml::workload::{Anchor, ElemRef, Op};
use boxes_core::{reopen_bbox, BBoxScheme, DocumentDriver, LabelingScheme};

use crate::measure::{micros, secs, Rng};
use crate::phase::{
    attach_wal, fixed_updates, io_stats, memory_pager, pager_probe, recover_memory, shard_totals,
    timed_recoveries, wal_delta, Counts, Phase, BLOCK_SIZE,
};
use crate::trace::{begin_op, span};
use crate::Params;

/// Children of the bulk-loaded two-level document.
const CHILDREN: usize = 10_000;
/// Set-ups per run; `setup_s` is their median and the last one is measured.
const SETUPS: usize = 25;
const RECOVERIES: usize = 7;
const ANCESTOR_TESTS: usize = 16;
/// Scattered inserts per second of budget (see [`fixed_updates`]). The
/// rounds with an insert took 67% to 77% of a 30 s budget on a 2-core VM;
/// the rounds after them only look up.
const UPDATES_PER_SECOND: f64 = 128.0;
/// Rounds whose I/O and WAL counts are reported (a fixed prefix, so the
/// counts repeat exactly at a fixed seed).
const COUNTED_ROUNDS: usize = 512;
const PROBES: usize = 1024;

type Label = <BBoxScheme as LabelingScheme>::Label;

pub fn run(p: &Params, traced: bool) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let config = BBoxConfig::from_block_size(BLOCK_SIZE);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let base = {
            let _s = span("xml.generate");
            two_level(CHILDREN)
        };
        let pager = memory_pager();
        let wal = attach_wal(&pager, Box::new(MemLogStore::new()), traced);
        let driver = {
            let _s = span("core.bulk_load");
            DocumentDriver::load(BBoxScheme::new(pager.clone(), config), &base)
        };
        phase.setup_s.push(secs(t));
        built = Some((pager, wal, driver));
    }
    let (pager, wal, mut driver) = built.expect("at least one setup");

    let mut rng = Rng::new(p.seed, 21);
    let updates = fixed_updates(p.seconds, UPDATES_PER_SECOND);
    let shard0 = shard_totals(&pager);
    let wal0 = wal.stats();
    let mut counted = Counts::default();
    let mut lookup_io = IoStats::default();
    let mut update_io = IoStats::default();
    let started = Instant::now();
    let mut round = 0;
    // Every round runs the lookups; the first `updates` rounds end with an
    // insert. Rounds go on until both are done: the inserts and the budget.
    while round < updates || secs(started) < p.seconds {
        let io0 = io_stats(&pager);
        let t = Instant::now();
        let root = driver.element(ElemRef(0));
        let children = driver.element_count();
        for _ in 0..ANCESTOR_TESTS {
            let d = driver.element(ElemRef(rng.range(1, children)));
            let [sa, ea, sd, ed] = lookups(&driver, &mut phase, [root.0, root.1, d.0, d.1]);
            phase
                .checks
                .check("ancestor_pair", sa < sd && sd < ed && ed < ea, || {
                    format!("round {round}: root does not contain {d:?}")
                });
        }
        let c1 = rng.range(1, children);
        let c2 = 1 + (c1 - 1 + rng.range(1, children - 1)) % (children - 1);
        let (x, y) = (driver.element(ElemRef(c1)), driver.element(ElemRef(c2)));
        let [sx, ex, sy, ey] = lookups(&driver, &mut phase, [x.0, x.1, y.0, y.1]);
        phase
            .checks
            .check("control_pair", !(sx < sy && ey < ex), || {
                format!("round {round}: sibling {c1} tests as ancestor of {c2}")
            });
        phase.lookup.busy(secs(t));
        let io1 = io_stats(&pager);
        round += 1;
        if round > updates {
            continue;
        }

        let t = Instant::now();
        let anchor = Anchor::BeforeStart(ElemRef(rng.range(1, children)));
        begin_op();
        let t_call = Instant::now();
        {
            let _s = span("core.update");
            driver.apply(&Op::InsertElement { anchor });
        }
        phase.update.push(micros(t_call));
        phase.update.busy(secs(t));
        let io2 = io_stats(&pager);
        if round <= COUNTED_ROUNDS {
            lookup_io = lookup_io + io1.since(&io0);
            update_io = update_io + io2.since(&io1);
        }
        if round == COUNTED_ROUNDS {
            counted = Counts {
                updates: COUNTED_ROUNDS as u64,
                lookups: (COUNTED_ROUNDS * (ANCESTOR_TESTS + 1) * 4) as u64,
                update_io,
                lookup_io,
                wal: wal_delta(wal.stats(), wal0),
                space_bytes: pager.allocated_bytes() as u64,
                labels: driver.scheme.len(),
            };
        }
    }
    phase.counts = counted;
    phase.attempted += phase.update.count() + phase.lookup.count();
    let shard1 = shard_totals(&pager);
    phase.shard_acquisitions = shard1.0 - shard0.0;
    phase.shard_contended = shard1.1 - shard0.1;
    phase.frozen_versions_max = shard1.2;

    begin_op();
    pager.publish_barrier();
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        driver.verify_document_order();
    }))
    .is_ok();
    phase.checks.check("verify_document_order", ok, || {
        "document order broken".into()
    });
    if traced {
        pager_probe(&pager);
    }

    // Probe labels before the close, then recover from the durable log
    // bytes plus the disk image.
    let probes: Vec<_> = (0..PROBES)
        .map(|_| {
            let (s, _) = driver.element(ElemRef(rng.range(0, driver.element_count())));
            (s, driver.scheme.lookup(s))
        })
        .collect();
    let live = driver.scheme.len();
    timed_recoveries(&mut phase, RECOVERIES, live, &probes, || {
        recover_memory(&pager, &wal, |rec| reopen_bbox(rec, config))
    });
    Ok(phase)
}

/// Look up four labels, timing each call.
fn lookups(
    driver: &DocumentDriver<BBoxScheme>,
    phase: &mut Phase,
    lids: [boxes_core::lidf::Lid; 4],
) -> [Label; 4] {
    lids.map(|lid| {
        begin_op();
        let t = Instant::now();
        let label = {
            let _s = span("core.lookup");
            driver.scheme.lookup(lid)
        };
        phase.lookup.push(micros(t));
        label
    })
}
