//! `ingest-file`: the write path end to end on real files.
//!
//! W-BOX on a file-backed pager with a `FileLogStore` WAL. Each pass
//! inserts a seeded XMark document element by element in document order
//! (the paper's Fig. 8 stream, closed loop, one client), looks up every
//! label on the file stack, closes everything and cold-recovers from the
//! files. One pass runs per 15 seconds of budget; every pass replays
//! the same document, so the first pass's I/O counts are the run's counts.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use boxes_core::lidf::Lid;
use boxes_core::pager::{recover_image, Pager, PagerConfig, SharedPager};
use boxes_core::wal::{FileLogStore, Wal};
use boxes_core::wbox::WBoxConfig;
use boxes_core::xml::generate::xmark;
use boxes_core::xml::workload::{document_order, ElemRef, UpdateStream};
use boxes_core::{reopen_wbox, DocumentDriver, LabelingScheme, WBoxScheme};

use crate::measure::{micros, secs, Rng, ScratchDir};
use crate::phase::{
    attach_wal, io_stats, pager_probe, shard_totals, timed_recoveries, wal_delta, Counts, Phase,
    BLOCK_SIZE,
};
use crate::trace::{begin_op, span};
use crate::Params;

/// Elements of the XMark document each pass inserts.
const ELEMENTS: usize = 17_000;
/// Budget seconds per pass (a pass takes about 14 s on a 2-core VM).
const SECONDS_PER_PASS: f64 = 15.0;
/// Set-ups per run at least; `setup_s` is their median.
const SETUPS: usize = 9;
/// Cold recoveries per pass; `recovery_s` is their median.
const RECOVERIES: usize = 5;
/// Labels re-checked after every recovery.
const PROBES: usize = 1024;

pub fn run(p: &Params, traced: bool) -> Result<Phase, String> {
    let dir = ScratchDir::new("ingest-file").map_err(|e| format!("scratch dir: {e}"))?;
    let mut phase = Phase::default();
    let mut first_labels = Vec::new();
    // The pass count depends on the budget alone, so runs of equal length
    // do equal work (peak memory included).
    let passes = (p.seconds / SECONDS_PER_PASS).ceil().max(1.0) as usize;
    for pass in 0..passes {
        run_pass(p, traced, &dir, pass, &mut first_labels, &mut phase)?;
    }
    // Set-up time is a median over several set-ups, however many passes ran.
    while phase.setup_s.len() < SETUPS {
        let (db, log) = (dir.path().join("db-setup"), dir.path().join("log-setup"));
        drop(setup(p, traced, &db, &log, &mut phase)?);
        remove(&db)?;
        remove(&log)?;
    }
    Ok(phase)
}

type Stack = (
    SharedPager,
    Arc<Wal>,
    DocumentDriver<WBoxScheme>,
    UpdateStream,
);

/// Generate the document and open the file stack, timing it as set-up.
fn setup(
    p: &Params,
    traced: bool,
    db: &Path,
    log: &Path,
    phase: &mut Phase,
) -> Result<Stack, String> {
    let t = Instant::now();
    let doc = {
        let _s = span("xml.generate");
        xmark(ELEMENTS, p.seed)
    };
    let stream = document_order(&doc, 0);
    let pager = Pager::new(PagerConfig::with_block_size(BLOCK_SIZE).backed_by_file(db));
    let store = FileLogStore::create(log, BLOCK_SIZE).map_err(|e| format!("create log: {e}"))?;
    let wal = attach_wal(&pager, Box::new(store), traced);
    let driver = {
        let _s = span("core.bulk_load");
        let config = WBoxConfig::from_block_size(BLOCK_SIZE);
        DocumentDriver::load(WBoxScheme::new(pager.clone(), config), &stream.base)
    };
    phase.setup_s.push(secs(t));
    Ok((pager, wal, driver, stream))
}

fn remove(path: &Path) -> Result<(), String> {
    std::fs::remove_file(path).map_err(|e| format!("remove {}: {e}", path.display()))
}

fn run_pass(
    p: &Params,
    traced: bool,
    dir: &ScratchDir,
    pass: usize,
    first_labels: &mut Vec<(Lid, u64)>,
    phase: &mut Phase,
) -> Result<(), String> {
    let db = dir.path().join(format!("db-{pass}"));
    let log = dir.path().join(format!("log-{pass}"));
    let config = WBoxConfig::from_block_size(BLOCK_SIZE);

    let (pager, wal, mut driver, stream) = setup(p, traced, &db, &log, phase)?;

    // Load: the whole document, one element per update.
    let io0 = io_stats(&pager);
    let wal0 = wal.stats();
    let shard0 = shard_totals(&pager);
    for op in &stream.ops {
        begin_op();
        let t = Instant::now();
        {
            let _s = span("core.update");
            driver.apply(op);
        }
        phase.update.push(micros(t));
        phase.update.busy(secs(t));
    }
    let io1 = io_stats(&pager);
    {
        begin_op();
        pager.publish_barrier();
    }
    let wal1 = wal.stats();
    let updates = stream.ops.len() as u64;
    phase.attempted += updates;

    // Lookups: every label, on the file stack.
    let mut labels = Vec::with_capacity(2 * driver.element_count());
    let io_look = io_stats(&pager);
    for r in 0..driver.element_count() {
        let (s, e) = driver.element(ElemRef(r));
        for lid in [s, e] {
            begin_op();
            let t = Instant::now();
            let label = {
                let _s = span("core.lookup");
                driver.scheme.lookup(lid)
            };
            phase.lookup.push(micros(t));
            phase.lookup.busy(secs(t));
            labels.push((lid, label));
        }
    }
    let io2 = io_stats(&pager);
    phase.attempted += labels.len() as u64;
    let shard1 = shard_totals(&pager);
    phase.shard_acquisitions += shard1.0 - shard0.0;
    phase.shard_contended += shard1.1 - shard0.1;
    phase.frozen_versions_max = phase.frozen_versions_max.max(shard1.2);

    let live = driver.scheme.len();
    phase
        .checks
        .check("label_count", live == labels.len() as u64, || {
            format!("pass {pass}: {live} live labels, {} expected", labels.len())
        });
    if pass == 0 {
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            driver.verify_document_order();
        }))
        .is_ok();
        phase.checks.check("verify_document_order", ok, || {
            "document order broken".into()
        });
        first_labels.clone_from(&labels);
        phase.counts = Counts {
            updates,
            lookups: labels.len() as u64,
            update_io: io1.since(&io0),
            lookup_io: io2.since(&io_look),
            wal: wal_delta(wal1, wal0),
            space_bytes: pager.allocated_bytes() as u64,
            labels: live,
        };
    } else {
        // Every pass replays the same document, so its labels and counts
        // must repeat those of the verified pass 0.
        let same =
            io1.since(&io0) == phase.counts.update_io && wal_delta(wal1, wal0) == phase.counts.wal;
        phase.checks.check("deterministic_io", same, || {
            format!("pass {pass}: I/O or WAL counts differ from pass 0")
        });
        phase
            .checks
            .check("labels_repeat", labels == *first_labels, || {
                format!("pass {pass}: labels differ from pass 0")
            });
    }
    if traced {
        pager_probe(&pager);
    }

    // Close everything, then cold-recover from the files alone.
    drop(driver);
    drop(wal);
    drop(pager);
    let mut rng = Rng::new(p.seed, 11);
    let probes: Vec<_> = (0..PROBES.min(labels.len()))
        .map(|_| labels[rng.range(0, labels.len())])
        .collect();
    timed_recoveries(phase, RECOVERIES, live, &probes, || {
        let bytes = {
            let _s = span("wal.read_log");
            FileLogStore::read_log(&log, BLOCK_SIZE).map_err(|e| format!("read log: {e}"))?
        };
        let image = {
            let _s = span("pager.recover_image");
            recover_image(&db, BLOCK_SIZE).map_err(|e| format!("read image: {e}"))?
        };
        let rec = {
            let _s = span("wal.recover");
            boxes_core::wal::recover(&bytes, image).map_err(|e| format!("recover: {e}"))?
        };
        let _s = span("core.reopen");
        reopen_wbox(&rec, config).ok_or_else(|| "no W-BOX in the log".to_string())
    });
    remove(&db)?;
    remove(&log)
}
