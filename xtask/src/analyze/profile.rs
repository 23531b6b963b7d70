//! The profile/attribution pass: replay seeded workloads through every
//! scheme with the `boxes-trace` layer live and enforce the **accounting
//! identity** — every block read/write/alloc/free (and every fault-service
//! retry, repair and backoff tick) the pager counted must fall inside some
//! operation span opened on that pager. Spans read the pager's own
//! counters, so the check is structural: a handle's span tally must equal
//! its counter delta. An unattributed I/O means a scheme hot path reached
//! the pager outside any span, i.e. the observability wiring has a hole;
//! the gate fails.
//!
//! The identity is also enforced with **concurrent sessions**: eight
//! snapshot readers (each a `boxes-session` reader on its own view pager)
//! perform fixed lookups while the writer streams — the span tallies of
//! the base pager and every snapshot view must equal those handles' I/O
//! deltas exactly, and together account for everything traced in the leg.
//!
//! The pass also writes two deterministic artifacts:
//!
//! * `target/trace-report.json` — the `boxes-trace/3` span/counter report
//!   aggregated over every profiled leg (per-op I/O histograms, phase
//!   totals, per-handle tallies);
//! * `target/BENCH_boxes.json` — the `boxes-bench/2` perf trajectory for a
//!   reduced lineup (per-op distributions, amortized windows, and the
//!   multithreaded `concurrent_lookup` scaling rows).

use std::path::Path;
use std::sync::{Arc, Barrier};

use boxes_bench::report::{bench_json_full, write_bench_json, ConcurrentLeg, JsonWorkload};
use boxes_bench::{run_schemes, SchemeKind};
use boxes_core::bbox::BBoxConfig;
use boxes_core::lidf::{BlockPtrRecord, Lidf};
use boxes_core::naive::NaiveConfig;
use boxes_core::pager::{
    BlockId, FaultPlan, FaultPlanConfig, IoStats, Pager, PagerConfig, RetryPolicy, SharedPager,
};
use boxes_core::wal::{Wal, WalConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::xml::workload::{concentrated, scattered, UpdateStream};
use boxes_core::{BBoxScheme, DocumentDriver, LabelingScheme, NaiveScheme, WBoxScheme};
use boxes_session::{SessionManager, SessionScheme};
use boxes_trace as trace;

/// Retry budget for the faulty leg — generous, so in-budget noise never
/// surfaces as an operation failure.
const BUDGET: u32 = 8;

/// The trace side of the identity for a set of pager handles: what their
/// spans measured, what they counted outside any span, and how many spans
/// are open on them.
struct TraceMark {
    attributed: trace::TraceCounters,
    unattributed: trace::TraceCounters,
    open_spans: usize,
}

fn mark(pager: &Pager) -> TraceMark {
    TraceMark {
        attributed: trace::tally(pager),
        unattributed: trace::unattributed(pager),
        open_spans: trace::open_spans(pager),
    }
}

impl TraceMark {
    /// Fold another handle's mark into this one.
    fn merge(&mut self, other: &TraceMark) {
        self.attributed.merge(&other.attributed);
        self.unattributed.merge(&other.unattributed);
        self.open_spans += other.open_spans;
    }
}

/// Enforce the identity for one leg: between `before` and `after`,
///
/// 1. nothing was counted outside a span (`unattributed` did not move);
/// 2. the attributed counters agree field-for-field with the pagers' own
///    [`IoStats`] delta on the seven shared counters;
/// 3. every span was closed (RAII discipline — no leaks).
fn check_identity(
    label: &str,
    before: &TraceMark,
    after: &TraceMark,
    pager_delta: IoStats,
) -> Result<(), String> {
    let un = after.unattributed.since(&before.unattributed);
    if !un.is_zero() {
        return Err(format!(
            "{label}: unattributed I/O (hot path outside any span): {un:?}"
        ));
    }
    let attr = after.attributed.since(&before.attributed);
    let pairs: [(&str, u64, u64); 7] = [
        ("reads", attr.reads, pager_delta.reads),
        ("writes", attr.writes, pager_delta.writes),
        ("allocs", attr.allocs, pager_delta.allocs),
        ("frees", attr.frees, pager_delta.frees),
        ("retries", attr.retries, pager_delta.retries),
        ("repairs", attr.repairs, pager_delta.repairs),
        (
            "backoff_ticks",
            attr.backoff_ticks,
            pager_delta.backoff_ticks,
        ),
    ];
    for (name, traced, counted) in pairs {
        if traced != counted {
            return Err(format!(
                "{label}: accounting identity broken on `{name}`: \
                 trace attributed {traced}, pager counted {counted}"
            ));
        }
    }
    if after.open_spans != 0 {
        return Err(format!(
            "{label}: {} span(s) left open after the leg (RAII leak)",
            after.open_spans
        ));
    }
    Ok(())
}

/// Build a scheme on `pager`, replay `stream` through the document driver,
/// and check the identity over the whole leg (construction + bulk load +
/// every update op). The leg must do real work: a zero pager delta would
/// make the identity vacuous, so it fails too.
fn profile_stream<S: LabelingScheme>(
    label: &str,
    pager: SharedPager,
    scheme: S,
    stream: &UpdateStream,
) -> Result<(), String> {
    let before = mark(&pager);
    let stats0 = pager.stats();
    let mut driver = DocumentDriver::load(scheme, &stream.base);
    for op in &stream.ops {
        driver.apply(op);
    }
    let delta = pager.stats().since(&stats0);
    if delta.total() == 0 {
        return Err(format!("{label}: leg did no I/O — identity check vacuous"));
    }
    check_identity(label, &before, &mark(&pager), delta)
}

/// Journaled pager for the profiled legs (WAL attached so commit/sync and
/// read-repair activity shows up in the WAL counters too).
fn journaled_pager(block_size: usize) -> SharedPager {
    let pager = Pager::new(PagerConfig::with_block_size(block_size));
    pager.attach_journal(Wal::new(
        block_size,
        WalConfig {
            sync_every: 4,
            checkpoint_every: 8,
        },
    ));
    pager
}

/// Standalone LIDF leg: the allocator's own phase spans must attribute all
/// of its I/O even when no scheme-level op span is open.
fn profile_lidf(seed: u64) -> Result<(), String> {
    let pager = Pager::new(PagerConfig::with_block_size(256).with_pool(4));
    let before = mark(&pager);
    let stats0 = pager.stats();
    let mut lidf: Lidf<BlockPtrRecord> = Lidf::new(pager.clone());
    let mut lids = Vec::new();
    let mut state = seed;
    for i in 0..200u64 {
        let r = boxes_core::pager::splitmix64(state ^ i);
        state = r;
        if i % 5 == 4 && lids.len() > 8 {
            let victim = lids.swap_remove(usize::try_from(r).unwrap_or(0) % lids.len());
            lidf.free(victim);
        } else {
            lids.push(lidf.alloc(BlockPtrRecord::new(BlockId(
                u32::try_from(r & 0xffff).unwrap_or(0),
            ))));
        }
    }
    for lid in &lids {
        let _ = lidf.read(*lid);
        let _ = lidf.is_live(*lid);
    }
    let mut n = 0u64;
    lidf.scan(|_, _| n += 1);
    if n != lids.len() as u64 {
        return Err(format!(
            "lidf: scan saw {n} live records, expected {}",
            lids.len()
        ));
    }
    let delta = pager.stats().since(&stats0);
    if delta.total() == 0 {
        return Err("lidf: leg did no I/O — identity check vacuous".into());
    }
    check_identity("lidf", &before, &mark(&pager), delta)
}

/// Faulty leg: in-budget transient errors, latency stalls and bit rot over
/// a journaled W-BOX workload. The retries, repairs and backoff ticks the
/// fault service generates must be attributed to the operation span that
/// was open when the fault fired — fault-service I/O is not exempt from
/// the identity.
fn profile_faulty(seed: u64) -> Result<(), String> {
    let block_size = 1024;
    for derivation in 0..8u64 {
        let pager = journaled_pager(block_size);
        let before = mark(&pager);
        let plan = FaultPlan::new(FaultPlanConfig {
            read_error_rate: 3000,
            write_error_rate: 3000,
            bit_flip_rate: 1200,
            latency_rate: 1500,
            ..FaultPlanConfig::quiet(
                seed.wrapping_add(derivation.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                block_size,
            )
        });
        pager.attach_fault_injector(plan.clone());
        pager.set_retry_policy(RetryPolicy {
            budget: BUDGET,
            ..RetryPolicy::default()
        });
        let stats0 = pager.stats();
        let scheme = WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(block_size));
        let stream = scattered(120, 80);
        let mut driver = DocumentDriver::load(scheme, &stream.base);
        for op in &stream.ops {
            driver.apply(op);
        }
        let delta = pager.stats().since(&stats0);
        check_identity("faulty/wbox", &before, &mark(&pager), delta)?;
        // The leg is only meaningful if the plan actually made the fault
        // counters move; a quiet roll retries with a derived seed.
        if delta.retries > 0 && delta.repairs > 0 {
            return Ok(());
        }
    }
    Err("faulty/wbox: no derivation produced both retries and repairs".into())
}

/// The tallies of every handle the tracer has seen, summed.
fn traced_total() -> trace::TraceCounters {
    let mut total = trace::TraceCounters::default();
    for source in trace::report().sources {
        total.merge(&source.counters);
    }
    total
}

/// Sum the seven shared counters of two [`IoStats`] deltas.
fn add_stats(a: &mut IoStats, b: &IoStats) {
    a.reads += b.reads;
    a.writes += b.writes;
    a.allocs += b.allocs;
    a.frees += b.frees;
    a.retries += b.retries;
    a.repairs += b.repairs;
    a.backoff_ticks += b.backoff_ticks;
}

/// A spin-yield token relay: participant `p` of `n` acts on every turn
/// `t` with `t % n == p`, so work interleaves in a fixed round-robin
/// order. The trace layer allocates span ids and ticks globally; the
/// relay makes that allocation deterministic while every session stays
/// *open* concurrently (existence is concurrent, execution is turn-based).
struct Relay {
    turn: std::sync::atomic::AtomicU64,
}

impl Relay {
    fn wait_for(&self, turn: u64) {
        use std::sync::atomic::Ordering;
        while self.turn.load(Ordering::Acquire) != turn {
            std::thread::yield_now();
        }
    }

    fn advance(&self) {
        use std::sync::atomic::Ordering;
        self.turn.fetch_add(1, Ordering::Release);
    }
}

/// Concurrent-session leg: eight reader threads hold open snapshot
/// sessions — all live at once for the entire leg — and each performs a
/// fixed lookup batch per relay round while the writer session streams
/// inserts on this thread. The accounting identity must hold *per
/// handle*: nothing lands unattributed, the tallies of the base pager and
/// every snapshot view equal those handles' I/O deltas, and together they
/// are everything any handle's spans measured during the leg. The relay
/// keeps trace ticks and pager ids deterministic, so the leg's spans land
/// byte-stably in `trace-report.json`.
fn profile_sessions() -> Result<(), String> {
    const READERS: usize = 8;
    const PARTIES: u64 = READERS as u64 + 1; // the writer is the last participant
    const ROUNDS: u64 = 5;
    const BATCH: usize = 8; // lookups per reader per round
    let block_size = 1024;
    let manager = Arc::new(SessionManager::<WBoxScheme>::create(
        journaled_pager(block_size),
        WBoxConfig::from_block_size(block_size),
    ));
    let lids = {
        let mut writer = manager.writer().map_err(|e| e.to_string())?;
        let partner: Vec<usize> = (0..32).map(|i| i ^ 1).collect();
        let lids = writer.bulk_load_document(&partner);
        writer.publish();
        lids
    };

    let before = mark(manager.pager());
    let traced0 = traced_total();
    let base0 = manager.pager().stats();
    let mut writer = manager.writer().map_err(|e| e.to_string())?;
    let relay = Arc::new(Relay {
        turn: std::sync::atomic::AtomicU64::new(0),
    });
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let manager = Arc::clone(&manager);
            let relay = Arc::clone(&relay);
            let lids = lids.clone();
            std::thread::spawn(move || -> Result<(IoStats, TraceMark), String> {
                // Turn r of round 0: open this reader's session. It
                // stays open across every later round, so all eight
                // sessions (plus the writer) are live concurrently.
                relay.wait_for(r as u64);
                let snap = manager.snapshot().map_err(|e| e.to_string())?;
                relay.advance();
                for round in 1..=ROUNDS {
                    relay.wait_for(round * PARTIES + r as u64);
                    for i in 0..BATCH {
                        let _ = snap.lookup(lids[(i * 5 + r) % lids.len()]);
                    }
                    relay.advance();
                }
                // The view is new, so its whole mark is the leg's delta.
                Ok((snap.io(), mark(snap.pager())))
            })
        })
        .collect();

    // The writer takes the last turn of each round (self-journaling ops,
    // so every commit lands inside the op's span).
    relay.wait_for(READERS as u64);
    relay.advance();
    for round in 1..=ROUNDS {
        relay.wait_for(round * PARTIES + READERS as u64);
        for i in 0..3 {
            writer.insert_element_before(lids[(round as usize * 3 + i) % lids.len()]);
        }
        if round == ROUNDS {
            writer.publish();
        }
        relay.advance();
    }
    drop(writer);

    let mut after = mark(manager.pager());
    let mut pager_delta = manager.pager().stats().since(&base0);
    for handle in readers {
        let (io, view) = handle
            .join()
            .map_err(|_| "reader thread panicked".to_string())??;
        add_stats(&mut pager_delta, &io);
        after.merge(&view);
    }
    check_identity("sessions/wbox-readers", &before, &after, pager_delta)?;
    let handles = after.attributed.since(&before.attributed);
    let traced = traced_total().since(&traced0);
    if handles != traced {
        return Err(format!(
            "sessions/wbox-readers: the per-handle tallies do not sum to \
             everything traced in the leg: handles {handles:?}, traced {traced:?}"
        ));
    }
    Ok(())
}

/// Deterministic multithreaded snapshot-lookup legs for the trajectory:
/// for each thread count, that many reader sessions open concurrently and
/// each performs a fixed lookup batch. Throughput is lookups per
/// critical-path logical I/O (the busiest single session) — wall-clock
/// free, so the rows are byte-stable. Readers share no I/O, so the
/// aggregate must scale: the 4-reader leg is required to beat the
/// 1-reader leg by more than 2x.
fn concurrent_legs<S>(name: &str, config: S::Config) -> Result<Vec<ConcurrentLeg>, String>
where
    S: SessionScheme + 'static,
    S::Config: 'static,
{
    const LOOKUPS: u64 = 64;
    let mut legs = Vec::new();
    for threads in [1usize, 4, 8, 16] {
        let manager = Arc::new(SessionManager::<S>::create(
            journaled_pager(1024),
            config.clone(),
        ));
        let lids = {
            let mut writer = manager.writer().map_err(|e| e.to_string())?;
            let partner: Vec<usize> = (0..64).map(|i| i ^ 1).collect();
            let lids = writer.bulk_load_document(&partner);
            writer.publish();
            lids
        };
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let manager = Arc::clone(&manager);
                let barrier = Arc::clone(&barrier);
                let lids = lids.clone();
                std::thread::spawn(move || -> Result<u64, String> {
                    let snap = manager.snapshot().map_err(|e| e.to_string())?;
                    barrier.wait();
                    let io0 = snap.io().total();
                    for i in 0..usize::try_from(LOOKUPS).unwrap_or(0) {
                        let _ = snap.lookup(lids[(i * 7 + t) % lids.len()]);
                    }
                    Ok(snap.io().total() - io0)
                })
            })
            .collect();
        let mut ios = Vec::new();
        for handle in handles {
            ios.push(
                handle
                    .join()
                    .map_err(|_| "reader thread panicked".to_string())??,
            );
        }
        let max_session_io = ios.iter().copied().max().unwrap_or(0).max(1);
        let total_io: u64 = ios.iter().sum();
        legs.push(ConcurrentLeg {
            scheme: name.into(),
            threads,
            lookups_per_thread: LOOKUPS,
            max_session_io,
            total_io,
            throughput_per_io: (threads as u64 * LOOKUPS) as f64 / max_session_io as f64,
        });
    }
    let (t1, t4) = (legs[0].throughput_per_io, legs[1].throughput_per_io);
    if t4 <= 2.0 * t1 {
        return Err(format!(
            "{name}: 4-reader aggregate throughput {t4:.2}/io is not >2x \
             the 1-reader leg {t1:.2}/io"
        ));
    }
    Ok(legs)
}

/// Write `target/trace-report.json` from the aggregate tracer state.
fn write_trace_report(root: &Path) -> Result<(), String> {
    let report = trace::report();
    let path = root.join("target").join("trace-report.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
    }
    std::fs::write(&path, report.to_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  profile: wrote {}", path.display());
    Ok(())
}

/// Write `target/BENCH_boxes.json`: the reduced-lineup perf trajectory
/// plus the multithreaded `concurrent_lookup` scaling rows.
fn write_bench_trajectory(root: &Path) -> Result<(), String> {
    let lineup = [
        SchemeKind::WBox,
        SchemeKind::WBoxO,
        SchemeKind::BBox,
        SchemeKind::Naive(8),
    ];
    let block_size = 1024;
    let conc = concentrated(1200, 400);
    let scat = scattered(1200, 300);
    let conc_results = run_schemes(&lineup, &conc, block_size);
    let scat_results = run_schemes(&lineup, &scat, block_size);
    let workloads = [
        JsonWorkload {
            name: "concentrated",
            results: &conc_results,
        },
        JsonWorkload {
            name: "scattered",
            results: &scat_results,
        },
    ];
    let mut concurrent = concurrent_legs::<WBoxScheme>("W-BOX", WBoxConfig::from_block_size(1024))?;
    concurrent.extend(concurrent_legs::<BBoxScheme>(
        "B-BOX",
        BBoxConfig::from_block_size(1024),
    )?);
    let json = bench_json_full(block_size, &workloads, &concurrent);
    let path = root.join("target").join("BENCH_boxes.json");
    write_bench_json(&path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  profile: wrote {}", path.display());
    Ok(())
}

/// Run every attribution leg; prints one line per leg and returns overall
/// success.
pub(crate) fn profile_lint(seed: u64, root: &Path) -> bool {
    trace::reset();

    let mut checks: Vec<(String, Result<(), String>)> = Vec::new();

    // Every scheme variant over a seeded stream, journaled.
    let stream_c = concentrated(160, 90);
    let stream_s = scattered(200, 70);

    let p = journaled_pager(1024);
    checks.push((
        "wbox/concentrated".into(),
        profile_stream(
            "wbox/concentrated",
            p.clone(),
            WBoxScheme::new(p.clone(), WBoxConfig::from_block_size(1024)),
            &stream_c,
        ),
    ));
    let p = journaled_pager(1024);
    checks.push((
        "wbox-pair/scattered".into(),
        profile_stream(
            "wbox-pair/scattered",
            p.clone(),
            WBoxScheme::new(p.clone(), WBoxConfig::from_block_size_paired(1024)),
            &stream_s,
        ),
    ));
    let p = journaled_pager(1024);
    checks.push((
        "wbox-ordinal/concentrated".into(),
        profile_stream(
            "wbox-ordinal/concentrated",
            p.clone(),
            WBoxScheme::new(p.clone(), WBoxConfig::from_block_size(1024).with_ordinal()),
            &stream_c,
        ),
    ));
    let p = journaled_pager(256);
    checks.push((
        "bbox/concentrated".into(),
        profile_stream(
            "bbox/concentrated",
            p.clone(),
            BBoxScheme::new(p.clone(), BBoxConfig::from_block_size(256)),
            &stream_c,
        ),
    ));
    let p = journaled_pager(256);
    checks.push((
        "bbox-ordinal/scattered".into(),
        profile_stream(
            "bbox-ordinal/scattered",
            p.clone(),
            BBoxScheme::new(p.clone(), BBoxConfig::from_block_size(256).with_ordinal()),
            &stream_s,
        ),
    ));
    let p = journaled_pager(1024);
    checks.push((
        "naive-8/scattered".into(),
        profile_stream(
            "naive-8/scattered",
            p.clone(),
            NaiveScheme::new(p.clone(), NaiveConfig { extra_bits: 8 }),
            &stream_s,
        ),
    ));

    // Allocator and fault-service legs.
    checks.push(("lidf/standalone".into(), profile_lidf(seed)));
    checks.push(("faulty/wbox".into(), profile_faulty(seed)));

    // Concurrent sessions: the identity with eight live snapshot readers.
    checks.push(("sessions/wbox-readers".into(), profile_sessions()));

    let mut ok = true;
    for (name, result) in checks {
        match result {
            Ok(()) => println!("  profile: {name:<28} ok"),
            Err(msg) => {
                eprintln!("  profile: {name:<28} FAILED\n    {msg}");
                ok = false;
            }
        }
    }

    // Artifacts: the span/counter report over everything profiled above,
    // then the bench trajectory (run last — it is not identity-checked).
    if let Err(msg) = write_trace_report(root) {
        eprintln!("  profile: trace-report FAILED: {msg}");
        ok = false;
    }
    if let Err(msg) = write_bench_trajectory(root) {
        eprintln!("  profile: bench trajectory FAILED: {msg}");
        ok = false;
    }
    ok
}
