//! Deterministic interleaving rig for the sharded, latch-per-frame pager.
//!
//! Three legs, all driven by `boxes_core::sched::Scheduler` seeds or free
//! threads:
//!
//! * **Leg A (journaled, oracle-checked)** — a writer, a barrier actor and
//!   three snapshot readers replay seeded schedules against a journaled
//!   pager under group commit (`sync_every` ∈ {1, 2}). A serial model —
//!   committed map, overlay mirror, per-epoch published images — is
//!   updated in the *same* schedule order, so every snapshot read, every
//!   `publish_barrier` return value, every epoch number and the final
//!   committed state are checked against the linearization the schedule
//!   defines.
//! * **Leg B (unjournaled, CLOCK pool)** — writers, readers and an evictor
//!   (flush / clear-pool) interleave over a tiny buffer pool in both
//!   [`PoolPolicy`] modes; a plain map is the oracle since the scheduler
//!   serializes the ops.
//! * **Leg C (free-running stress)** — 8 snapshot readers (4 pinned to
//!   disjoint shard sets, 4 overlapping the full range) hammer the sharded
//!   table while a writer republished every block 8 times; readers must
//!   see their pinned epoch's image bit-for-bit. Shard contention tallies
//!   land in `target/latch-report.json` for the CI artifact.
//!
//! Total scheduled legs: `LEG_A_SCHEDULES + LEG_B_SCHEDULES` ≥ 200, the
//! acceptance bar for this rig.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use boxes_audit::Auditable;
use boxes_core::sched::Scheduler;
use boxes_pager::{
    codec, lock_unpoisoned, splitmix64, BlockId, Journal, JournalAck, Pager, PagerConfig,
    PoolPolicy, SharedPager, TxnRecord,
};

const BS: usize = 64;

/// Leg A runs this many seeds per `sync_every` value (two values → ×2).
const LEG_A_SEEDS: usize = 70;
/// Leg B runs this many seeds per pool policy (two policies → ×2).
const LEG_B_SEEDS: usize = 40;
/// Scheduled legs A + B; the rig's acceptance bar is ≥ 200.
const LEG_A_SCHEDULES: usize = LEG_A_SEEDS * 2;
/// See [`LEG_A_SCHEDULES`].
const LEG_B_SCHEDULES: usize = LEG_B_SEEDS * 2;

/// Seeds for the free-running stress leg (Leg C).
const STRESS_SEEDS: [u64; 2] = [0x5e55_1001, 0xbeef];

/// Deterministic value stream (splitmix64 walk) for block/byte choices.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Non-zero fill byte (zero is reserved for "never written").
    fn byte(&mut self) -> u8 {
        u8::try_from(self.next() % 251).unwrap_or(0).wrapping_add(1)
    }

    fn pick(&mut self, n: usize) -> usize {
        codec::u64_to_index(self.next() % codec::usize_to_u64(n.max(1)))
    }
}

/// Retires the actor when its thread unwinds, so a failed assertion in one
/// actor cannot wedge the remaining actors on the condvar.
struct RetireOnExit {
    sched: Arc<Scheduler>,
    actor: usize,
}

impl Drop for RetireOnExit {
    fn drop(&mut self) {
        self.sched.retire(self.actor);
    }
}

// ---------------------------------------------------------------------------
// Leg A: journaled pager vs serial model oracle
// ---------------------------------------------------------------------------

/// Test journal: every `sync_every`-th commit is durable, the rest are
/// deferred into the group-commit overlay; `barrier` always syncs.
struct TestJournal {
    sync_every: AtomicU64,
    commits: AtomicU64,
}

impl TestJournal {
    fn new() -> Arc<Self> {
        Arc::new(TestJournal {
            sync_every: AtomicU64::new(1),
            commits: AtomicU64::new(0),
        })
    }
}

impl Journal for TestJournal {
    fn commit(&self, _record: &TxnRecord) -> JournalAck {
        let n = self.commits.fetch_add(1, Ordering::SeqCst) + 1;
        let k = self.sync_every.load(Ordering::SeqCst).max(1);
        if n.is_multiple_of(k) {
            JournalAck::Durable
        } else {
            JournalAck::Deferred
        }
    }

    fn applied(&self) {}

    fn barrier(&self) -> JournalAck {
        JournalAck::Durable
    }
}

/// Serial oracle for Leg A, updated in schedule order (the scheduler
/// serializes actors, so "in schedule order" *is* the linearization).
struct ModelA {
    /// Durably applied state: block → fill byte.
    committed: HashMap<u32, u8>,
    /// Mirror of the pager's group-commit overlay, in commit order.
    pending: Vec<(u32, u8)>,
    /// Epoch → full committed image at publish time.
    published: HashMap<u64, HashMap<u32, u8>>,
    /// Mirror of the pager's published epoch counter.
    epoch: u64,
    /// Mirror of the journal's commit counter (for `sync_every` parity).
    commits: u64,
}

impl ModelA {
    fn publish(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        for (block, byte) in pending {
            self.committed.insert(block, byte);
        }
        self.epoch += 1;
        let image = self.committed.clone();
        self.published.insert(self.epoch, image);
    }
}

const A_BLOCKS: usize = 24;
const A_WRITER_OPS: usize = 12;
const A_BARRIER_OPS: usize = 3;
const A_READERS: usize = 3;
/// Per reader: 2 rounds of (open snapshot, 4 reads, drop snapshot).
const A_READER_OPS: usize = 12;

/// One seeded Leg A schedule: replay the script, oracle-check every step.
fn leg_a_schedule(seed: u64, sync_every: u64) {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    // Allocate before attaching the journal (journaled allocs must sit in a
    // TxnScope; the schedule only ever rewrites these fixed blocks).
    let ids: Vec<BlockId> = (0..A_BLOCKS).map(|_| pager.alloc()).collect();
    let journal = TestJournal::new();
    pager.attach_journal(Arc::<TestJournal>::clone(&journal) as Arc<dyn Journal>);

    // Baseline: populate every block through durable single-commit txns so
    // epoch 0..=A_BLOCKS publishes are mirrored exactly.
    let mut model = ModelA {
        committed: HashMap::new(),
        pending: Vec::new(),
        published: HashMap::new(),
        epoch: 0,
        commits: 0,
    };
    let mut base = Stream(seed ^ 0xba5e);
    for id in &ids {
        let byte = base.byte();
        let scope = pager.txn();
        pager.write(*id, &[byte; BS]);
        scope.commit();
        model.commits += 1;
        model.committed.insert(id.0, byte);
        model.publish();
    }
    assert_eq!(
        pager.published_epoch(),
        model.epoch,
        "baseline epochs agree"
    );
    journal.sync_every.store(sync_every, Ordering::SeqCst);
    // Keep parity clean when switching to group commit.
    journal.commits.store(0, Ordering::SeqCst);
    model.commits = 0;

    let model = Arc::new(Mutex::new(model));
    let reads_checked = AtomicU64::new(0);

    // Actors: 0 = writer, 1 = barrier, 2.. = readers.
    let mut ops = vec![A_WRITER_OPS, A_BARRIER_OPS];
    ops.extend(std::iter::repeat_n(A_READER_OPS, A_READERS));
    let sched = Scheduler::seeded(seed, &ops);

    thread::scope(|s| {
        // Writer: one single-block txn per turn; mirror the ack outcome.
        {
            let sched = Arc::clone(&sched);
            let pager = Arc::clone(&pager);
            let model = Arc::clone(&model);
            let ids = &ids;
            s.spawn(move || {
                let _retire = RetireOnExit {
                    sched: Arc::clone(&sched),
                    actor: 0,
                };
                let mut r = Stream(seed ^ 0x3217e5);
                for _ in 0..A_WRITER_OPS {
                    if !sched.wait_turn(0) {
                        break;
                    }
                    let id = ids[r.pick(ids.len())];
                    let byte = r.byte();
                    let scope = pager.txn();
                    pager.write(id, &[byte; BS]);
                    scope.commit();
                    let mut m = lock_unpoisoned(&model);
                    m.commits += 1;
                    if m.commits.is_multiple_of(sync_every) {
                        m.pending.push((id.0, byte));
                        m.publish();
                        assert_eq!(
                            pager.published_epoch(),
                            m.epoch,
                            "durable commit publishes exactly one epoch"
                        );
                    } else {
                        m.pending.push((id.0, byte));
                        assert_eq!(
                            pager.published_epoch(),
                            m.epoch,
                            "deferred commit must not publish"
                        );
                    }
                    drop(m);
                    sched.step_done(0);
                }
            });
        }
        // Barrier actor: force group-commit boundaries; the return value
        // must match the model's "overlay dirty" prediction.
        {
            let sched = Arc::clone(&sched);
            let pager = Arc::clone(&pager);
            let model = Arc::clone(&model);
            s.spawn(move || {
                let _retire = RetireOnExit {
                    sched: Arc::clone(&sched),
                    actor: 1,
                };
                for _ in 0..A_BARRIER_OPS {
                    if !sched.wait_turn(1) {
                        break;
                    }
                    let mut m = lock_unpoisoned(&model);
                    let dirty = !m.pending.is_empty();
                    let published = pager.publish_barrier();
                    assert_eq!(published, dirty, "barrier publishes iff overlay dirty");
                    if dirty {
                        m.publish();
                        assert_eq!(pager.published_epoch(), m.epoch, "barrier epoch agrees");
                    }
                    drop(m);
                    sched.step_done(1);
                }
            });
        }
        // Readers: open a snapshot, pin its published image from the model,
        // and verify every later read against that frozen image even as the
        // writer republishes the same blocks.
        for reader in 0..A_READERS {
            let actor = 2 + reader;
            let sched = Arc::clone(&sched);
            let pager = Arc::clone(&pager);
            let model = Arc::clone(&model);
            let ids = &ids;
            let reads_checked = &reads_checked;
            s.spawn(move || {
                let _retire = RetireOnExit {
                    sched: Arc::clone(&sched),
                    actor,
                };
                let mut r = Stream(seed ^ codec::usize_to_u64(actor) ^ 0x5ead);
                let mut view: Option<(SharedPager, HashMap<u32, u8>)> = None;
                for op in 0..A_READER_OPS {
                    if !sched.wait_turn(actor) {
                        break;
                    }
                    match op % 6 {
                        0 => {
                            let (v, _metas) = pager.snapshot_view();
                            let epoch = v.snapshot_epoch().unwrap_or(0);
                            let m = lock_unpoisoned(&model);
                            let image = m
                                .published
                                .get(&epoch)
                                .unwrap_or_else(|| {
                                    panic!("snapshot pinned unpublished epoch {epoch}")
                                })
                                .clone();
                            view = Some((v, image));
                        }
                        5 => {
                            view = None;
                        }
                        _ => {
                            if let Some((v, image)) = &view {
                                let id = ids[r.pick(ids.len())];
                                let want = image.get(&id.0).copied().unwrap_or(0);
                                let data = v.read(id);
                                assert!(
                                    data.iter().all(|b| *b == want),
                                    "snapshot read of {id:?} diverged from the \
                                     pinned epoch image (want {want})"
                                );
                                reads_checked.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                    sched.step_done(actor);
                }
            });
        }
    });

    // Closing barrier, then the final committed state must match the model.
    let mut m = lock_unpoisoned(&model);
    if pager.publish_barrier() {
        m.publish();
    }
    assert_eq!(pager.published_epoch(), m.epoch, "final epoch agrees");
    for id in &ids {
        let want = m.committed.get(&id.0).copied().unwrap_or(0);
        let data = pager.read(*id);
        assert!(
            data.iter().all(|b| *b == want),
            "final state of {id:?} diverged from the serial model"
        );
    }
    drop(m);
    assert_eq!(
        reads_checked.load(Ordering::SeqCst),
        codec::usize_to_u64(A_READERS * 8),
        "every scheduled snapshot read was oracle-checked"
    );
    assert!(
        pager.health().is_ok(),
        "no faults injected: health stays ok"
    );
    let audit = pager.audit();
    assert!(
        audit.is_clean(),
        "audit clean after all snapshots dropped: {audit:?}"
    );
}

#[test]
fn leg_a_journaled_schedules_agree_with_serial_oracle() {
    const TOTAL_SCHEDULES: usize = LEG_A_SCHEDULES + LEG_B_SCHEDULES;
    const _: () = assert!(
        TOTAL_SCHEDULES >= 200,
        "rig must replay at least 200 seeded schedules"
    );
    for i in 0..LEG_A_SEEDS {
        let seed = splitmix64(0xA150_0000 + codec::usize_to_u64(i));
        leg_a_schedule(seed, 1);
        leg_a_schedule(seed, 2);
    }
}

// ---------------------------------------------------------------------------
// Leg B: unjournaled CLOCK/LRU pool under interleaved eviction pressure
// ---------------------------------------------------------------------------

const B_BLOCKS: usize = 16;
const B_POOL: usize = 4;
const B_WRITER_OPS: usize = 8;
const B_READER_OPS: usize = 8;
const B_EVICTOR_OPS: usize = 4;

/// One seeded Leg B schedule: 2 writers + 2 readers + 1 evictor over a
/// 4-frame pool; a plain map is the oracle.
fn leg_b_schedule(seed: u64, policy: PoolPolicy) {
    let pager = Pager::new(
        PagerConfig::with_block_size(BS)
            .with_pool(B_POOL)
            .with_pool_policy(policy),
    );
    let ids: Vec<BlockId> = (0..B_BLOCKS).map(|_| pager.alloc()).collect();
    let model: Arc<Mutex<HashMap<u32, u8>>> =
        Arc::new(Mutex::new(ids.iter().map(|id| (id.0, 0u8)).collect()));
    let ops = [
        B_WRITER_OPS,
        B_WRITER_OPS,
        B_READER_OPS,
        B_READER_OPS,
        B_EVICTOR_OPS,
    ];
    let sched = Scheduler::seeded(seed, &ops);

    thread::scope(|s| {
        for (actor, &op_count) in ops.iter().enumerate() {
            let sched = Arc::clone(&sched);
            let pager = Arc::clone(&pager);
            let model = Arc::clone(&model);
            let ids = &ids;
            s.spawn(move || {
                let _retire = RetireOnExit {
                    sched: Arc::clone(&sched),
                    actor,
                };
                let mut r = Stream(seed ^ codec::usize_to_u64(actor * 7 + 1));
                for op in 0..op_count {
                    if !sched.wait_turn(actor) {
                        break;
                    }
                    match actor {
                        0 | 1 => {
                            let id = ids[r.pick(ids.len())];
                            let byte = r.byte();
                            pager.write(id, &[byte; BS]);
                            lock_unpoisoned(&model).insert(id.0, byte);
                        }
                        2 | 3 => {
                            let id = ids[r.pick(ids.len())];
                            let want = lock_unpoisoned(&model).get(&id.0).copied().unwrap_or(0);
                            let data = pager.read(id);
                            assert!(
                                data.iter().all(|b| *b == want),
                                "pooled read of {id:?} diverged (want {want}, {policy:?})"
                            );
                        }
                        _ => {
                            if op % 2 == 0 {
                                pager.flush();
                            } else {
                                pager.clear_pool();
                            }
                        }
                    }
                    sched.step_done(actor);
                }
            });
        }
    });

    pager.flush();
    let m = lock_unpoisoned(&model);
    for id in &ids {
        let want = m.get(&id.0).copied().unwrap_or(0);
        let data = pager.read(*id);
        assert!(
            data.iter().all(|b| *b == want),
            "post-flush state of {id:?} diverged ({policy:?})"
        );
    }
    drop(m);
    let stats = pager.stats();
    assert!(
        stats.retries == 0 && stats.repairs == 0,
        "no faults injected: {stats:?}"
    );
    let pool = pager.pool_stats();
    assert!(
        pool.hits + pool.misses > 0,
        "reads were served through the pool: {pool:?}"
    );
    assert!(pager.health().is_ok());
    let audit = pager.audit();
    assert!(audit.is_clean(), "audit clean after leg B: {audit:?}");
}

#[test]
fn leg_b_pool_schedules_agree_with_map_oracle_under_both_policies() {
    for i in 0..LEG_B_SEEDS {
        let seed = splitmix64(0xB0_0000 + codec::usize_to_u64(i));
        leg_b_schedule(seed, PoolPolicy::Clock);
        leg_b_schedule(seed, PoolPolicy::Lru);
    }
}

// ---------------------------------------------------------------------------
// Leg C: free-running 8-reader stress over disjoint + overlapping shards
// ---------------------------------------------------------------------------

const C_BLOCKS: usize = 64;
const C_READERS: usize = 8;
const C_ROUNDS: usize = 40;
const C_WRITER_PASSES: usize = 8;

fn c_pattern(seed: u64, i: usize) -> u8 {
    u8::try_from(splitmix64(seed ^ codec::usize_to_u64(i)) % 251)
        .unwrap_or(0)
        .wrapping_add(1)
}

/// One stress run. Returns (shard acquisitions, shard contention) tallies.
fn stress_run(seed: u64) -> (u64, u64) {
    let pager = Pager::new(PagerConfig::with_block_size(BS));
    let ids: Vec<BlockId> = (0..C_BLOCKS).map(|_| pager.alloc()).collect();
    for (i, id) in ids.iter().enumerate() {
        pager.write(*id, &[c_pattern(seed, i); BS]);
    }
    let journal = TestJournal::new();
    pager.attach_journal(Arc::<TestJournal>::clone(&journal) as Arc<dyn Journal>);

    let shard_count = pager.shard_stats().len();
    // Pin every reader's snapshot *before* the writer starts, so all eight
    // views observe the baseline epoch.
    let views: Vec<SharedPager> = (0..C_READERS).map(|_| pager.snapshot_view().0).collect();
    thread::scope(|s| {
        // 8 readers, all pinned to the pre-writer epoch. Readers 0–3 own
        // disjoint quarters of the shard space; readers 4–7 overlap the
        // full range, so the same shards see latch traffic from both
        // groups at once.
        for (reader, view) in views.into_iter().enumerate() {
            let ids = &ids;
            s.spawn(move || {
                let mine: Vec<(usize, BlockId)> = ids
                    .iter()
                    .enumerate()
                    .filter(|(_, id)| {
                        // Disjoint shard quarters for 0–3, full range for 4–7.
                        reader >= 4 || (codec::u32_to_usize(id.0) % shard_count) / 4 == reader
                    })
                    .map(|(i, id)| (i, *id))
                    .collect();
                assert!(!mine.is_empty(), "every reader owns blocks");
                for _ in 0..C_ROUNDS {
                    for (i, id) in &mine {
                        let data = view.read(*id);
                        let want = c_pattern(seed, *i);
                        assert!(
                            data.iter().all(|b| *b == want),
                            "pinned reader {reader} saw writer traffic on {id:?}"
                        );
                    }
                }
            });
        }
        // Writer: republish every block repeatedly with durable commits,
        // forcing copy-on-write freezes under the pinned readers.
        {
            let pager = Arc::clone(&pager);
            let ids = &ids;
            s.spawn(move || {
                for pass in 1..=C_WRITER_PASSES {
                    for (i, id) in ids.iter().enumerate() {
                        let byte = c_pattern(seed ^ codec::usize_to_u64(pass), i);
                        let scope = pager.txn();
                        pager.write(*id, &[byte; BS]);
                        scope.commit();
                    }
                }
            });
        }
    });

    // All views dropped: the final state is the writer's last pass and the
    // frozen versions must have been reclaimed.
    for (i, id) in ids.iter().enumerate() {
        let want = c_pattern(seed ^ codec::usize_to_u64(C_WRITER_PASSES), i);
        let data = pager.read(*id);
        assert!(
            data.iter().all(|b| *b == want),
            "final stress state of {id:?} is the writer's last pass"
        );
    }
    let audit = pager.audit();
    assert!(audit.is_clean(), "audit clean after stress: {audit:?}");
    let mut acquisitions = 0u64;
    let mut contended = 0u64;
    for shard in pager.shard_stats() {
        assert_eq!(shard.versions, 0, "frozen versions reclaimed");
        acquisitions += shard.acquisitions;
        contended += shard.contended;
    }
    assert!(acquisitions > 0, "stress run exercised the shard latches");
    (acquisitions, contended)
}

#[test]
fn leg_c_stress_readers_stay_pinned_and_report_latch_traffic() {
    let mut rows = Vec::new();
    for seed in STRESS_SEEDS {
        let (acquisitions, contended) = stress_run(seed);
        rows.push(format!(
            "    {{\"seed\": {seed}, \"readers\": {C_READERS}, \
             \"shard_acquisitions\": {acquisitions}, \"shard_contended\": {contended}}}"
        ));
    }
    let report = format!(
        "{{\n  \"schema\": \"boxes-latch/2\",\n  \"shard_count\": 16,\n  \
         \"scheduled_legs\": {{\"leg_a\": {LEG_A_SCHEDULES}, \"leg_b\": {LEG_B_SCHEDULES}, \
         \"minimum\": 200}},\n  \"stress\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    // CARGO_TARGET_TMPDIR is <workspace>/target/tmp for integration tests;
    // its parent is the target dir CI uploads artifacts from.
    let target = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .parent()
        .map(std::path::Path::to_path_buf)
        .unwrap_or_else(std::env::temp_dir);
    let _ = std::fs::write(target.join("latch-report.json"), report);
}
