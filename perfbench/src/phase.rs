//! What one measured phase of a workload produces, and the metrics derived
//! from it: end-to-end metrics from an untraced phase, per-layer metrics
//! from a traced phase plus its spans.

use std::sync::Arc;
use std::time::Instant;

use boxes_core::lidf::Lid;
use boxes_core::pager::{IoStats, Pager, PagerConfig, SharedPager};
use boxes_core::wal::{LogStore, Recovered, Wal, WalConfig, WalStats};
use boxes_core::LabelingScheme;

use crate::measure::{median, peak_rss_mb, secs, Checks, Latencies};
use crate::trace::{begin_op, span, Analysis, TracedJournal, TracedStore};

/// Every block is 8 KiB, the block size of the paper's experiments.
pub const BLOCK_SIZE: usize = boxes_core::pager::DEFAULT_BLOCK_SIZE;

/// Flush policy of every workload's WAL: an fsync every 4 commits (group
/// commit) and a checkpoint every 64 sync batches.
pub const WAL_POLICY: WalConfig = WalConfig {
    sync_every: 4,
    checkpoint_every: 64,
};

/// Updates per checkpoint under [`WAL_POLICY`].
const CHECKPOINT_CYCLE: usize = (WAL_POLICY.sync_every * WAL_POLICY.checkpoint_every) as usize;

/// The number of updates a run with a budget of `seconds` applies, about
/// `per_second` per second of budget. It depends on the budget alone, so
/// the structure that recovery and peak memory measure is the same however
/// fast the code runs. It is at least 640, past every counted prefix, and
/// ends halfway through a checkpoint cycle, so recovery replays a log of
/// the same length in every run.
pub fn fixed_updates(seconds: f64, per_second: f64) -> usize {
    let cycles = (seconds * per_second / CHECKPOINT_CYCLE as f64) as usize;
    cycles.max(2) * CHECKPOINT_CYCLE + CHECKPOINT_CYCLE / 2
}

/// Attach a WAL over `store` to `pager`. In a traced phase both the store
/// and the journal are wrapped in forwarding span recorders.
pub fn attach_wal(pager: &SharedPager, store: Box<dyn LogStore>, traced: bool) -> Arc<Wal> {
    if traced {
        let wal = Wal::with_store(BLOCK_SIZE, WAL_POLICY, None, Box::new(TracedStore(store)));
        pager.attach_journal(Arc::new(TracedJournal(Arc::clone(&wal))));
        wal
    } else {
        let wal = Wal::with_store(BLOCK_SIZE, WAL_POLICY, None, store);
        pager.attach_journal(wal.clone());
        wal
    }
}

/// A fresh in-memory pager with the benchmark's block size.
pub fn memory_pager() -> SharedPager {
    Pager::new(PagerConfig::with_block_size(BLOCK_SIZE))
}

/// Counters over the fixed-size prefix of a workload's operations, so they
/// repeat exactly at a fixed seed however long the run lasts.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub updates: u64,
    pub lookups: u64,
    pub update_io: IoStats,
    pub lookup_io: IoStats,
    pub wal: WalStats,
    pub space_bytes: u64,
    pub labels: u64,
}

/// `later - earlier`, field by field.
pub fn wal_delta(later: WalStats, earlier: WalStats) -> WalStats {
    WalStats {
        records: later.records - earlier.records,
        frames: later.frames - earlier.frames,
        appended_bytes: later.appended_bytes - earlier.appended_bytes,
        syncs: later.syncs - earlier.syncs,
        barriers: later.barriers - earlier.barriers,
        checkpoints: later.checkpoints - earlier.checkpoints,
        sync_failures: later.sync_failures - earlier.sync_failures,
    }
}

/// Raw results of one measured phase.
#[derive(Default)]
pub struct Phase {
    /// Wall time of each update call, µs, and the wall-clock seconds of the
    /// load loop's update work: the calls with what the loop does around
    /// them (anchor choice, publishes).
    pub update: Latencies,
    /// Wall time of each label lookup, µs, and the wall-clock seconds of the
    /// load loop's lookup work: the calls with what the loop does around
    /// them (target choice, label comparisons, snapshot opens).
    pub lookup: Latencies,
    /// How late the paced writer of `snapshot-mix` started its latest op
    /// against its slot; 0 on the closed-loop workloads.
    pub writer_late_max_s: f64,
    pub setup_s: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub counts: Counts,
    /// Shard mutex acquisitions and contended acquisitions during the load.
    pub shard_acquisitions: u64,
    pub shard_contended: u64,
    /// Most frozen snapshot versions seen parked in the page table at once.
    pub frozen_versions_max: usize,
    pub checks: Checks,
    /// Operations attempted: updates, lookups, recoveries and checks.
    pub attempted: u64,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The end-to-end metrics of an untraced phase, and the informational ones
/// printed beside them: the 99th percentiles, the sample and window counts
/// and the paced writer's lateness. Latencies and rates are medians over
/// windows of consecutive ops (see [`Latencies`]). The 99th percentiles are
/// not gated: the update p99 falls where rare splits and checkpoints meet
/// the bulk of the ops, and it moved by a third or more between seeds.
pub fn end_to_end(p: &Phase) -> (Vec<Metric>, Vec<Metric>) {
    let (upd, look) = (&p.update, &p.lookup);
    let c = &p.counts;
    let gated = vec![
        metric("update_p50_us", upd.p50(), "us"),
        metric("update_p95_us", upd.p95(), "us"),
        metric("update_ops_per_s", upd.rate(), "1/s"),
        metric("lookup_p50_us", look.p50(), "us"),
        metric("lookup_p95_us", look.p95(), "us"),
        metric("lookups_per_s", look.rate(), "1/s"),
        metric("recovery_s", median(&p.recovery_s), "s"),
        metric("setup_s", median(&p.setup_s), "s"),
        metric(
            "io_per_update",
            per(c.update_io.total(), c.updates),
            "count",
        ),
        metric(
            "io_per_lookup",
            per(c.lookup_io.total(), c.lookups),
            "count",
        ),
        metric(
            "wal_bytes_per_update",
            per(c.wal.appended_bytes, c.updates),
            "B",
        ),
        metric("space_bytes_per_label", per(c.space_bytes, c.labels), "B"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let info = vec![
        metric("update_p99_us", upd.p99(), "us"),
        metric("lookup_p99_us", look.p99(), "us"),
        metric("updates_timed", upd.count() as f64, "count"),
        metric("lookups_timed", look.count() as f64, "count"),
        metric("update_windows", upd.windows() as f64, "count"),
        metric("lookup_windows", look.windows() as f64, "count"),
        metric("writer_late_max_ms", p.writer_late_max_s * 1e3, "ms"),
    ];
    (gated, info)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The per-layer metrics of a traced phase `t` with spans `a`; `base` is the
/// untraced phase of the same run, the base of the ratios.
pub fn per_layer(base: &Phase, t: &Phase, a: &Analysis) -> Vec<Metric> {
    let med = |name: &str| median(&a.durations_us(name));
    let c = &t.counts;
    let reads_per_lookup = per(c.lookup_io.reads, c.lookups);
    let read_us = med("pager.read");
    let base_lookup_p50 = base.lookup.p50();

    let updates: Vec<_> = a.named("core.update").collect();
    let update_ns: u64 = updates.iter().map(|s| s.dur_ns()).sum();
    let update_ops: std::collections::HashSet<u64> = updates.iter().map(|s| s.op).collect();
    let share = |ns: u64| per(ns, update_ns);
    let commit_ns: u64 = a.named("wal.commit").map(|s| s.dur_ns()).sum();
    let commit_self_ns: u64 = a.named("wal.commit").map(|s| a.self_ns(s)).sum();
    let sync_in_update_ns: u64 = a
        .named("wal.sync")
        .filter(|s| update_ops.contains(&s.op))
        .map(|s| s.dur_ns())
        .sum();
    // A checkpoint is the `wal.applied` call that rotates the log.
    let applied_us: std::collections::HashMap<u64, f64> = a
        .named("wal.applied")
        .map(|s| (s.id, s.dur_ns() as f64 / 1e3))
        .collect();
    let checkpoint_us: Vec<f64> = a
        .named("wal.rotate")
        .filter_map(|s| applied_us.get(&s.parent).copied())
        .collect();
    let apply_self: Vec<f64> = updates.iter().map(|s| a.self_ns(s) as f64 / 1e3).collect();
    let mut image_s = a.durations_us("pager.recover_image");
    image_s.extend(a.durations_us("pager.disk_image"));
    let s = |us: f64| us / 1e6;

    vec![
        metric("pager.crc32_us", med("pager.crc32"), "us"),
        metric("pager.read_us", read_us, "us"),
        metric(
            "pager.read_share_of_lookup",
            reads_per_lookup * read_us / base_lookup_p50,
            "ratio",
        ),
        metric("pager.snapshot_read_us", med("pager.snapshot_read"), "us"),
        metric(
            "pager.shard_contended_ratio",
            per(t.shard_contended, t.shard_acquisitions),
            "ratio",
        ),
        metric(
            "pager.frozen_versions_max",
            t.frozen_versions_max as f64,
            "count",
        ),
        metric(
            "pager.reads_per_update",
            per(c.update_io.reads, c.updates),
            "count",
        ),
        metric(
            "pager.writes_per_update",
            per(c.update_io.writes, c.updates),
            "count",
        ),
        metric("pager.reads_per_lookup", reads_per_lookup, "count"),
        metric("pager.recover_image_s", s(median(&image_s)), "s"),
        metric("wal.commit_us", med("wal.commit"), "us"),
        metric("wal.commit_share", share(commit_ns), "ratio"),
        metric("wal.encode_share", share(commit_self_ns), "ratio"),
        metric("wal.append_us", med("wal.append"), "us"),
        metric("wal.sync_us", med("wal.sync"), "us"),
        metric("wal.sync_share", share(sync_in_update_ns), "ratio"),
        metric("wal.syncs_per_update", per(c.wal.syncs, c.updates), "count"),
        metric("wal.checkpoints", c.wal.checkpoints as f64, "count"),
        metric("wal.checkpoint_ms", median(&checkpoint_us) / 1e3, "ms"),
        metric("wal.barrier_us", med("wal.barrier"), "us"),
        metric("wal.recover_s", s(med("wal.recover")), "s"),
        metric("core.apply_self_us", median(&apply_self), "us"),
        metric("core.bulk_load_s", s(med("core.bulk_load")), "s"),
        metric("core.reopen_s", s(med("core.reopen")), "s"),
        metric(
            "session.snapshot_open_us",
            med("session.snapshot_open"),
            "us",
        ),
        metric("session.publish_us", med("session.publish"), "us"),
        metric(
            "session.snapshots_opened",
            a.named("session.snapshot_open").count() as f64,
            "count",
        ),
        metric("xml.generate_s", s(med("xml.generate")), "s"),
        metric(
            "bench.trace_overhead_ratio",
            t.update.p50() / base.update.p50(),
            "ratio",
        ),
    ]
}

/// Time the pager layer directly on up to 256 allocated blocks of `pager`:
/// `Pager::read`, `crc32` of each block, and reads through a snapshot view.
/// Traced phases only; the spans carry the timings.
pub fn pager_probe(pager: &SharedPager) {
    let ids = allocated_ids(pager, 256);
    for &id in &ids {
        let block = {
            let _s = span("pager.read");
            pager.read(id)
        };
        let _s = span("pager.crc32");
        std::hint::black_box(boxes_core::pager::crc32(std::hint::black_box(&block)));
    }
    let (view, _metas) = {
        let _s = span("pager.snapshot_view");
        pager.snapshot_view()
    };
    for &id in &ids {
        let _s = span("pager.snapshot_read");
        std::hint::black_box(view.read(id));
    }
}

/// Up to `limit` allocated block ids, lowest first.
fn allocated_ids(pager: &Pager, limit: usize) -> Vec<boxes_core::pager::BlockId> {
    let total = pager.allocated_blocks();
    let want = total.min(limit);
    let mut ids = Vec::with_capacity(want);
    let mut raw = 0u32;
    let bound = u32::try_from(4 * total + 1024).unwrap_or(u32::MAX);
    while ids.len() < want && raw < bound {
        let id = boxes_core::pager::BlockId(raw);
        if pager.is_allocated(id) {
            ids.push(id);
        }
        raw += 1;
    }
    ids
}

/// The pager's I/O counters.
pub fn io_stats(pager: &Pager) -> IoStats {
    let _s = span("pager.stats");
    pager.stats()
}

/// Sum of shard acquisitions, contended acquisitions and frozen versions.
pub fn shard_totals(pager: &Pager) -> (u64, u64, usize) {
    let _s = span("pager.shard_stats");
    pager.shard_stats().iter().fold((0, 0, 0), |(a, c, v), s| {
        (a + s.acquisitions, c + s.contended, v + s.versions)
    })
}

/// Run `recover` `rounds` times, timing each call (closed state to a
/// reopened scheme) into `recovery_s`. Every recovered scheme must hold
/// `live` labels and the `probes` labels it had before the close.
pub fn timed_recoveries<S: LabelingScheme>(
    phase: &mut Phase,
    rounds: usize,
    live: u64,
    probes: &[(Lid, S::Label)],
    mut recover: impl FnMut() -> Result<S, String>,
) {
    for round in 0..rounds {
        begin_op();
        let t = Instant::now();
        let recovered = recover();
        phase.recovery_s.push(secs(t));
        phase.attempted += 1;
        let scheme = match recovered {
            Ok(s) => s,
            Err(e) => {
                phase.checks.fail(format!("recovery {round}: {e}"));
                continue;
            }
        };
        let len = scheme.len();
        phase.checks.check("recovered_len", len == live, || {
            format!("recovered {len} labels, {live} expected")
        });
        for (lid, want) in probes {
            let got = scheme.lookup(*lid);
            phase.checks.check("recovered_probe", got == *want, || {
                format!("{lid:?} recovered as {got:?}, was {want:?}")
            });
        }
    }
}

/// Recover a memory stack: replay `wal`'s durable bytes over `pager`'s disk
/// image, then `reopen` the scheme.
pub fn recover_memory<S>(
    pager: &Pager,
    wal: &Wal,
    reopen: impl Fn(&Recovered) -> Option<S>,
) -> Result<S, String> {
    let bytes = wal.durable_bytes();
    let image = {
        let _s = span("pager.disk_image");
        pager.disk_image()
    };
    let rec = {
        let _s = span("wal.recover");
        boxes_core::wal::recover(&bytes, image).map_err(|e| format!("recover: {e}"))?
    };
    let _s = span("core.reopen");
    reopen(&rec).ok_or_else(|| "no scheme state in the log".to_string())
}
