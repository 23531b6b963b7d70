//! `snapshot-mix`: one writer and one snapshot reader, concurrently.
//!
//! W-BOX through `SessionManager` on the journaled memory stack. The
//! writer thread applies a number of seeded scattered inserts fixed by the
//! budget, paced evenly over it, and publishes every 8 ops; the reader
//! thread opens a fresh snapshot every 256 lookups of
//! seeded random LIDs and re-reads one probe LID per snapshot, which must
//! keep the label it first had. Two threads in all, one per core: the
//! writer is spawned, the reader is the calling thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use boxes_core::driver::partner_map;
use boxes_core::lidf::Lid;
use boxes_core::pager::IoStats;
use boxes_core::wal::MemLogStore;
use boxes_core::wbox::WBoxConfig;
use boxes_core::xml::generate::two_level;
use boxes_core::{reopen_wbox, LabelingScheme, WBoxScheme};
use boxes_session::SessionManager;

use crate::measure::{micros, secs, Checks, Latencies, Reservoir, Rng};
use crate::phase::{
    attach_wal, fixed_updates, io_stats, memory_pager, pager_probe, recover_memory, shard_totals,
    timed_recoveries, wal_delta, Counts, Phase, BLOCK_SIZE,
};
use crate::trace::{begin_op, flush_thread, span};
use crate::Params;

/// Children of the bulk-loaded two-level document.
const CHILDREN: usize = 50_000;
const SETUPS: usize = 9;
const RECOVERIES: usize = 7;
/// The writer publishes a new epoch after this many inserts.
const PUBLISH_EVERY: usize = 8;
/// The reader opens a fresh snapshot after this many lookups.
const LOOKUPS_PER_SNAPSHOT: usize = 256;
/// Writer inserts per second of budget (see [`fixed_updates`]); about a
/// third of what the writer can do beside the reader on a 2-core VM.
const UPDATES_PER_SECOND: f64 = 512.0;
/// Writer ops whose I/O and WAL counts are reported.
const COUNTED_OPS: usize = 512;
const PROBES: usize = 1024;

/// What the writer thread hands back, besides its counted prefix and its
/// sample of inserted elements.
#[derive(Default)]
struct WriterOut {
    /// Inserts, with the wall-clock seconds of inserts and publishes as
    /// busy time, pacing sleeps excluded.
    update: Latencies,
    /// How late the latest op started against its slot.
    late_max_s: f64,
}

/// What the reader thread hands back.
#[derive(Default)]
struct ReaderOut {
    /// Lookups, with the wall-clock seconds of snapshot opens, lookups and
    /// probe re-reads as busy time.
    lookup: Latencies,
    io: IoStats,
    lookups: u64,
    frozen_max: usize,
    checks: Checks,
}

pub fn run(p: &Params, traced: bool) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let config = WBoxConfig::from_block_size(BLOCK_SIZE);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let base = {
            let _s = span("xml.generate");
            two_level(CHILDREN)
        };
        let partner = partner_map(&base);
        let pager = memory_pager();
        let wal = attach_wal(&pager, Box::new(MemLogStore::new()), traced);
        let manager = SessionManager::<WBoxScheme>::create(pager.clone(), config);
        let lids = {
            let mut writer = manager.writer().map_err(|e| e.to_string())?;
            let lids = {
                let _s = span("core.bulk_load");
                writer.bulk_load_document(&partner)
            };
            let _s = span("session.publish");
            writer.publish();
            lids
        };
        phase.setup_s.push(secs(t));
        built = Some((pager, wal, manager, lids, partner));
    }
    let (pager, wal, manager, lids, partner) = built.expect("at least one setup");
    // Start tags of the root's children: the insert anchors.
    let anchors: Vec<Lid> = (1..lids.len() - 1)
        .filter(|&i| partner[i] > i)
        .map(|i| lids[i])
        .collect();

    let shard0 = shard_totals(&pager);
    let wal0 = wal.stats();
    let updates = fixed_updates(p.seconds, UPDATES_PER_SECOND);
    let writer_done = AtomicBool::new(false);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(p.seconds);
    let (writer_res, reader_out) = std::thread::scope(|s| {
        let writer = s.spawn(|| -> Result<_, String> {
            let _done = SetOnDrop(&writer_done);
            let mut w = manager.writer().map_err(|e| e.to_string())?;
            let mut rng = Rng::new(p.seed, 31);
            let mut out = WriterOut::default();
            let mut counted = None;
            let io0 = io_stats(&pager);
            let mut inserted = Reservoir::new(PROBES, p.seed);
            let interval = p.seconds / updates as f64;
            for ops in 1..=updates {
                // Paced: op `ops` starts no earlier than its slot, so the
                // writer runs beside the reader for the whole budget.
                let due = started + Duration::from_secs_f64(interval * (ops - 1) as f64);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let t = Instant::now();
                out.late_max_s = out.late_max_s.max(t.duration_since(due).as_secs_f64());
                let anchor = anchors[rng.range(0, anchors.len())];
                begin_op();
                let t_call = Instant::now();
                let (st, en) = {
                    let _s = span("core.update");
                    w.insert_element_before(anchor)
                };
                out.update.push(micros(t_call));
                if ops % PUBLISH_EVERY == 0 {
                    begin_op();
                    let _s = span("session.publish");
                    w.publish();
                }
                out.update.busy(secs(t));
                inserted.push((anchor, st, en));
                if ops == COUNTED_OPS {
                    counted = Some(Counts {
                        updates: COUNTED_OPS as u64,
                        update_io: io_stats(&pager).since(&io0),
                        wal: wal_delta(wal.stats(), wal0),
                        space_bytes: pager.allocated_bytes() as u64,
                        labels: w.len(),
                        ..Counts::default()
                    });
                }
            }
            flush_thread();
            Ok((out, counted.expect("counted prefix reached"), inserted))
        });
        // The reader runs on this thread: two threads in all.
        let reader = read_loop(p, &manager, &lids, deadline, &writer_done);
        (writer.join().expect("writer thread panicked"), reader)
    });
    let (writer, counted, inserted) = writer_res?;
    let reader = reader_out?;

    phase.attempted += writer.update.count() + reader.lookup.count();
    phase.update = writer.update;
    phase.writer_late_max_s = writer.late_max_s;
    phase.lookup = reader.lookup;
    phase.frozen_versions_max = reader.frozen_max;
    phase.checks.merge(reader.checks);
    let shard1 = shard_totals(&pager);
    phase.shard_acquisitions = shard1.0 - shard0.0;
    phase.shard_contended = shard1.1 - shard0.1;

    let w = manager.writer().map_err(|e| e.to_string())?;
    begin_op();
    {
        let _s = span("session.publish");
        w.publish();
    }
    phase.counts = Counts {
        lookups: reader.lookups,
        lookup_io: reader.io,
        ..counted
    };

    // Every inserted element must sit just before its anchor's start tag.
    let mut rng = Rng::new(p.seed, 33);
    let mut probes = Vec::with_capacity(2 * PROBES);
    for &(anchor, st, en) in inserted.kept() {
        let (ls, le, la) = (w.lookup(st), w.lookup(en), w.lookup(anchor));
        phase
            .checks
            .check("inserted_order", ls < le && le < la, || {
                format!("{st:?}..{en:?} not before anchor {anchor:?}")
            });
        probes.push((st, ls));
        let lid = lids[rng.range(0, lids.len())];
        probes.push((lid, w.lookup(lid)));
    }
    if traced {
        pager_probe(&pager);
    }
    let live = w.len();
    drop(w);

    timed_recoveries(&mut phase, RECOVERIES, live, &probes, || {
        recover_memory(&pager, &wal, |rec| reopen_wbox(rec, config))
    });
    Ok(phase)
}

/// Sets its flag when dropped, also when the writer fails or panics, so
/// the reader never waits for a writer that is gone.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The reader: snapshot after snapshot until both the budget and the
/// writer are done.
fn read_loop(
    p: &Params,
    manager: &SessionManager<WBoxScheme>,
    lids: &[Lid],
    deadline: Instant,
    writer_done: &AtomicBool,
) -> Result<ReaderOut, String> {
    let mut out = ReaderOut::default();
    let mut rng = Rng::new(p.seed, 32);
    while Instant::now() < deadline || !writer_done.load(Ordering::Acquire) {
        let t = Instant::now();
        begin_op();
        let snap = {
            let _s = span("session.snapshot_open");
            manager.snapshot().map_err(|e| e.to_string())?
        };
        let probe = lids[rng.range(0, lids.len())];
        let first = snap.lookup(probe);
        let io0 = snap.io();
        for _ in 0..LOOKUPS_PER_SNAPSHOT {
            let lid = lids[rng.range(0, lids.len())];
            begin_op();
            let t = Instant::now();
            {
                let _s = span("session.lookup");
                std::hint::black_box(snap.lookup(lid));
            }
            out.lookup.push(micros(t));
        }
        out.io = out.io + snap.io().since(&io0);
        out.lookups += LOOKUPS_PER_SNAPSHOT as u64;
        let again = snap.lookup(probe);
        out.checks.check("snapshot_probe", again == first, || {
            format!(
                "epoch {}: {probe:?} read {first} then {again}",
                snap.epoch()
            )
        });
        let busy = secs(t);
        // Untimed: the frozen versions while this snapshot still pins its own.
        out.frozen_max = out.frozen_max.max(shard_totals(manager.pager()).2);
        let t = Instant::now();
        drop(snap);
        out.lookup.busy(busy + secs(t));
    }
    Ok(out)
}
