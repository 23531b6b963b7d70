//! Deterministic per-operation observability for the BOXes stack.
//!
//! The paper's claims are I/O *cost bounds* — W-BOX O(1) lookup and
//! O(log_B N) amortized insert, B-BOX O(log_B N) lookup and O(1) amortized
//! update — so the unit of observation here is the logical operation, not
//! wall-clock time. The pager is the only counter: it counts every I/O
//! once, and this crate only reads those counts. It provides:
//!
//! * [`OpSpan`]: an RAII span opened on a pager handle, carrying a scheme
//!   tag ("W-BOX", "B-BOX", …) and an op or phase label ("insert",
//!   "split", "lidf", …). It snapshots the handle's counters
//!   ([`Pager::counters`]: its `IoStats`, its buffer-pool hits and its
//!   journal's activity) when it opens and when it closes; the difference
//!   is the span's I/O. Spans nest per thread, and a parent's interval
//!   contains its children's, so its delta includes theirs.
//! * [`Counter`] / [`TraceCounters`]: the twelve counters a span measures.
//! * Per-(scheme, op) and per-(scheme, phase) aggregates with log2 I/O
//!   histograms, plus a bounded ring buffer of closed [`SpanEvent`]s.
//! * Per-source tallies: the outermost span on a handle adds its delta to
//!   that handle's [`tally`].
//! * [`TraceReport`]: a snapshot with JSON export
//!   ([`TraceReport::to_json`]). The JSON string is what
//!   `cargo xtask analyze --profile-only` writes to
//!   `target/trace-report.json`.
//!
//! # Accounting identity
//!
//! For every pager handle, at any moment,
//!
//! ```text
//! tally(pager) + unattributed(pager) == pager.counters()
//! ```
//!
//! and [`unattributed`] stays zero as long as every touch of the handle
//! happens under some span opened on it. The `--profile-only` analyze pass
//! fails if a scheme hot path leaks I/O outside its spans. The identity is
//! per handle, so work on another handle — another pager, or a snapshot
//! view, which has its own counters — cannot move it, whatever thread that
//! work runs on. Two threads running spans on the *same* handle at once
//! would each see the other's I/O; schemes have a single mutator and every
//! snapshot reader gets its own view, so nothing here does that.
//!
//! # Determinism
//!
//! There is no wall clock anywhere (the workspace bans `Instant` and
//! `SystemTime` in library code): time is a logical tick counter advanced
//! once per span open and once per close, so two runs of the same seeded
//! workload produce byte-identical reports. Span
//! stacks are *per-thread by key, not thread-local by storage*: the
//! mutex-guarded registry keys each stack by `ThreadId`, so the whole
//! tracer is a single `Sync` value (the workspace bans `thread_local!`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;

use boxes_pager::{Pager, SharedPager};

/// Number of distinct [`Counter`] kinds.
pub const COUNTER_KINDS: usize = 12;

/// One of the counters a span measures. The first seven are
/// `boxes_pager::IoStats` field for field; the rest are the buffer pool's
/// hits and the journal's [`boxes_pager::JournalCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// A charged pager block read (`IoStats::reads`).
    BlockRead,
    /// A charged pager block write (`IoStats::writes`).
    BlockWrite,
    /// A pager block allocation (`IoStats::allocs`).
    Alloc,
    /// A pager block free (`IoStats::frees`).
    Free,
    /// A retried backend I/O attempt (`IoStats::retries`).
    Retry,
    /// A journal read-repair of a corrupt block (`IoStats::repairs`).
    Repair,
    /// Deterministic backoff/latency ticks (`IoStats::backoff_ticks`).
    BackoffTicks,
    /// A read served by the buffer pool without a charged I/O.
    CacheHit,
    /// A WAL commit record appended to the log.
    WalAppend,
    /// A WAL sync barrier (group-commit flush).
    WalSync,
    /// A WAL checkpoint (log rotation onto a fold record).
    WalCheckpoint,
    /// A block image reconstructed by replaying the WAL (read-repair
    /// source, i.e. a log replay).
    WalReplay,
}

impl Counter {
    /// Stable snake_case name used in JSON keys and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::BlockRead => "reads",
            Counter::BlockWrite => "writes",
            Counter::Alloc => "allocs",
            Counter::Free => "frees",
            Counter::Retry => "retries",
            Counter::Repair => "repairs",
            Counter::BackoffTicks => "backoff_ticks",
            Counter::CacheHit => "cache_hits",
            Counter::WalAppend => "wal_appends",
            Counter::WalSync => "wal_syncs",
            Counter::WalCheckpoint => "wal_checkpoints",
            Counter::WalReplay => "wal_replays",
        }
    }

    /// All counter kinds in report order.
    #[must_use]
    pub fn all() -> [Counter; COUNTER_KINDS] {
        [
            Counter::BlockRead,
            Counter::BlockWrite,
            Counter::Alloc,
            Counter::Free,
            Counter::Retry,
            Counter::Repair,
            Counter::BackoffTicks,
            Counter::CacheHit,
            Counter::WalAppend,
            Counter::WalSync,
            Counter::WalCheckpoint,
            Counter::WalReplay,
        ]
    }
}

/// A bundle of per-kind totals. Field order mirrors [`Counter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Charged pager block reads.
    pub reads: u64,
    /// Charged pager block writes.
    pub writes: u64,
    /// Pager block allocations.
    pub allocs: u64,
    /// Pager block frees.
    pub frees: u64,
    /// Retried backend I/O attempts.
    pub retries: u64,
    /// Journal read-repairs.
    pub repairs: u64,
    /// Deterministic backoff/latency ticks.
    pub backoff_ticks: u64,
    /// Buffer-pool hits (reads served without a charged I/O).
    pub cache_hits: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// WAL sync barriers.
    pub wal_syncs: u64,
    /// WAL checkpoints.
    pub wal_checkpoints: u64,
    /// WAL log-image replays (read-repair reconstructions).
    pub wal_replays: u64,
}

impl TraceCounters {
    /// Value of one counter kind.
    #[must_use]
    pub fn get(&self, kind: Counter) -> u64 {
        match kind {
            Counter::BlockRead => self.reads,
            Counter::BlockWrite => self.writes,
            Counter::Alloc => self.allocs,
            Counter::Free => self.frees,
            Counter::Retry => self.retries,
            Counter::Repair => self.repairs,
            Counter::BackoffTicks => self.backoff_ticks,
            Counter::CacheHit => self.cache_hits,
            Counter::WalAppend => self.wal_appends,
            Counter::WalSync => self.wal_syncs,
            Counter::WalCheckpoint => self.wal_checkpoints,
            Counter::WalReplay => self.wal_replays,
        }
    }

    fn bump(&mut self, kind: Counter, n: u64) {
        let slot = match kind {
            Counter::BlockRead => &mut self.reads,
            Counter::BlockWrite => &mut self.writes,
            Counter::Alloc => &mut self.allocs,
            Counter::Free => &mut self.frees,
            Counter::Retry => &mut self.retries,
            Counter::Repair => &mut self.repairs,
            Counter::BackoffTicks => &mut self.backoff_ticks,
            Counter::CacheHit => &mut self.cache_hits,
            Counter::WalAppend => &mut self.wal_appends,
            Counter::WalSync => &mut self.wal_syncs,
            Counter::WalCheckpoint => &mut self.wal_checkpoints,
            Counter::WalReplay => &mut self.wal_replays,
        };
        *slot = slot.saturating_add(n);
    }

    /// Fold another bundle into this one (saturating).
    pub fn merge(&mut self, other: &TraceCounters) {
        for kind in Counter::all() {
            self.bump(kind, other.get(kind));
        }
    }

    /// Charged block I/O total: reads + writes. This is the quantity the
    /// paper's theorems bound and the one the histograms bucket.
    #[must_use]
    pub fn io_total(&self) -> u64 {
        self.reads.saturating_add(self.writes)
    }

    /// Counter-wise difference against an earlier snapshot (saturating).
    #[must_use]
    pub fn since(&self, earlier: &TraceCounters) -> TraceCounters {
        let mut out = TraceCounters::default();
        for kind in Counter::all() {
            out.bump(kind, self.get(kind).saturating_sub(earlier.get(kind)));
        }
        out
    }

    /// True when every counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == TraceCounters::default()
    }

    fn json_into(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        for kind in Counter::all() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(kind.name());
            out.push_str("\":");
            out.push_str(&self.get(kind).to_string());
        }
        out.push('}');
    }
}

/// Number of log2 buckets in a per-op I/O histogram: bucket `i` counts ops
/// whose charged I/O total `t` satisfies `floor(log2(max(t,1))) == i`,
/// with the last bucket absorbing everything larger.
pub const HIST_BUCKETS: usize = 16;

/// Aggregate over every closed span sharing a (scheme, label) pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpAgg {
    /// Closed spans folded in.
    pub count: u64,
    /// Counter totals across those spans (children included).
    pub totals: TraceCounters,
    /// Largest single-span charged I/O total.
    pub max_io: u64,
    /// log2 histogram of per-span charged I/O totals.
    pub hist: [u64; HIST_BUCKETS],
}

impl OpAgg {
    fn absorb(&mut self, c: &TraceCounters) {
        self.count = self.count.saturating_add(1);
        self.totals.merge(c);
        let io = c.io_total();
        self.max_io = self.max_io.max(io);
        let bucket = log2_bucket(io).min(HIST_BUCKETS - 1);
        self.hist[bucket] = self.hist[bucket].saturating_add(1);
    }
}

fn log2_bucket(v: u64) -> usize {
    let mut b = 0usize;
    let mut x = v;
    while x > 1 {
        x >>= 1;
        b += 1;
    }
    b
}

/// A closed span, as captured in the bounded event ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Unique id (1-based, allocation order).
    pub id: u64,
    /// Id of the enclosing span at open time, or 0 for a root span.
    pub parent: u64,
    /// Nesting depth at open time (0 = root).
    pub depth: u64,
    /// Scheme tag ("W-BOX", "B-BOX", "LIDF", …); phases inherit the
    /// enclosing span's tag.
    pub scheme: &'static str,
    /// Op or phase label ("insert", "split", "lidf", …).
    pub label: &'static str,
    /// Whether this was a phase sub-span rather than a top-level op.
    pub phase: bool,
    /// Logical tick at open.
    pub start_tick: u64,
    /// Logical tick at close.
    pub end_tick: u64,
    /// The span's I/O: its handle's counters at close minus at open.
    pub counters: TraceCounters,
}

struct Frame {
    id: u64,
    parent: u64,
    depth: u64,
    scheme: &'static str,
    label: &'static str,
    phase: bool,
    start_tick: u64,
    /// [`Pager::id`] of the handle the span reads.
    source: u64,
    /// No enclosing span on this thread reads the same handle, so this
    /// span's delta goes into the handle's tally.
    outermost: bool,
    /// The handle's counters when the span opened.
    start: TraceCounters,
}

/// Bound on the ring buffer of closed-span events.
const EVENT_CAPACITY: usize = 4096;

/// The shared registry, span stacks included: stacks are keyed by
/// `ThreadId` inside the one mutex-guarded global rather than living in
/// `thread_local!` storage, so the whole tracer is a single `Sync` value.
#[derive(Default)]
struct Tracer {
    next_id: u64,
    ticks: u64,
    open_spans: u64,
    events: VecDeque<SpanEvent>,
    dropped_events: u64,
    ops: BTreeMap<(&'static str, &'static str), OpAgg>,
    phases: BTreeMap<(&'static str, &'static str), OpAgg>,
    out_of_order_closes: u64,
    /// Per-thread span stacks; an entry is removed when its stack drains.
    stacks: HashMap<ThreadId, Vec<Frame>>,
    /// Per-handle tallies, keyed by [`Pager::id`].
    sources: BTreeMap<u64, TraceCounters>,
}

impl Tracer {
    fn tick(&mut self) -> u64 {
        self.ticks = self.ticks.saturating_add(1);
        self.ticks
    }
}

static TRACER: OnceLock<Mutex<Tracer>> = OnceLock::new();

fn with_tracer<R>(f: impl FnOnce(&mut Tracer) -> R) -> R {
    // Recover from poisoning: crash injection panics mid-workload by
    // design, and every registry mutation completes before control leaves
    // this crate.
    let mut guard = boxes_pager::lock_unpoisoned(TRACER.get_or_init(Mutex::default));
    f(&mut guard)
}

/// Everything `pager` has counted so far, as a counter bundle.
fn counters(pager: &Pager) -> TraceCounters {
    let c = pager.counters();
    TraceCounters {
        reads: c.io.reads,
        writes: c.io.writes,
        allocs: c.io.allocs,
        frees: c.io.frees,
        retries: c.io.retries,
        repairs: c.io.repairs,
        backoff_ticks: c.io.backoff_ticks,
        cache_hits: c.cache_hits,
        wal_appends: c.journal.appends,
        wal_syncs: c.journal.syncs,
        wal_checkpoints: c.journal.checkpoints,
        wal_replays: c.journal.replays,
    }
}

fn open_span(
    pager: &SharedPager,
    scheme: &'static str,
    label: &'static str,
    phase: bool,
) -> OpSpan {
    let start = counters(pager);
    let source = pager.id();
    let id = with_tracer(|t| {
        let tid = std::thread::current().id();
        let stack = t.stacks.get(&tid);
        let (parent, depth, scheme) = match stack.and_then(|s| s.last()) {
            // Phase sub-spans inherit the scheme tag they run under.
            Some(top) => {
                let s = if phase && scheme.is_empty() {
                    top.scheme
                } else {
                    scheme
                };
                (top.id, top.depth.saturating_add(1), s)
            }
            None => (0, 0, scheme),
        };
        let outermost = !stack.is_some_and(|s| s.iter().any(|f| f.source == source));
        let start_tick = t.tick();
        t.next_id = t.next_id.saturating_add(1);
        t.open_spans = t.open_spans.saturating_add(1);
        let id = t.next_id;
        t.stacks.entry(tid).or_default().push(Frame {
            id,
            parent,
            depth,
            scheme,
            label,
            phase,
            start_tick,
            source,
            outermost,
            start,
        });
        id
    });
    OpSpan {
        id,
        pager: Arc::clone(pager),
    }
}

fn close_span(id: u64, end: &TraceCounters) {
    // Spans close LIFO in correct code; tolerate (and count) an
    // out-of-order close rather than corrupting the stack. A close for a
    // frame this thread does not own (never possible through the RAII
    // handle) is ignored.
    with_tracer(|t| {
        let tid = std::thread::current().id();
        let Some(stack) = t.stacks.get_mut(&tid) else {
            return;
        };
        let Some(pos) = stack.iter().rposition(|f| f.id == id) else {
            return;
        };
        let out_of_order = pos != stack.len() - 1;
        let frame = stack.remove(pos);
        if stack.is_empty() {
            t.stacks.remove(&tid);
        }
        let end_tick = t.tick();
        t.open_spans = t.open_spans.saturating_sub(1);
        if out_of_order {
            t.out_of_order_closes = t.out_of_order_closes.saturating_add(1);
        }
        let delta = end.since(&frame.start);
        if frame.outermost {
            t.sources.entry(frame.source).or_default().merge(&delta);
        }
        let map = if frame.phase {
            &mut t.phases
        } else {
            &mut t.ops
        };
        map.entry((frame.scheme, frame.label))
            .or_default()
            .absorb(&delta);
        if t.events.len() >= EVENT_CAPACITY {
            t.events.pop_front();
            t.dropped_events = t.dropped_events.saturating_add(1);
        }
        t.events.push_back(SpanEvent {
            id: frame.id,
            parent: frame.parent,
            depth: frame.depth,
            scheme: frame.scheme,
            label: frame.label,
            phase: frame.phase,
            start_tick: frame.start_tick,
            end_tick,
            counters: delta,
        });
    });
}

/// RAII span: open at construction, closed on drop. Bind it to a named
/// local — `let _span = OpSpan::op(...)` — so it lives for the scope;
/// binding to `_` or leaking it defeats attribution, and the workspace
/// lints `let_underscore_must_use` and `mem_forget` reject both.
#[must_use = "an unbound span closes immediately and attributes nothing"]
pub struct OpSpan {
    id: u64,
    /// The handle whose counters the span reads.
    pager: SharedPager,
}

impl OpSpan {
    /// Open a top-level operation span on `pager`: `scheme` tags which
    /// labeling scheme runs the primitive, `op` names it ("lookup",
    /// "insert", "delete", "bulk_load", …).
    pub fn op(pager: &SharedPager, scheme: &'static str, op: &'static str) -> OpSpan {
        open_span(pager, scheme, op, false)
    }

    /// Open a phase sub-span on `pager` ("split", "merge", "respace",
    /// "relabel", "rebuild", "lidf", …). The scheme tag is inherited from
    /// the enclosing span.
    pub fn phase(pager: &SharedPager, name: &'static str) -> OpSpan {
        open_span(pager, "", name, true)
    }
}

impl Drop for OpSpan {
    fn drop(&mut self) {
        close_span(self.id, &counters(&self.pager));
    }
}

/// Reset the global registry to empty (aggregates, events, ticks, source
/// tallies). Open spans survive and still close cleanly, but their deltas
/// then land in the fresh registry: reset between spans — on a single
/// thread, with no reader threads mid-op — not inside one.
pub fn reset() {
    with_tracer(|t| {
        *t = Tracer {
            next_id: t.next_id,
            open_spans: t.open_spans,
            stacks: std::mem::take(&mut t.stacks),
            ..Tracer::default()
        };
    });
}

/// What the outermost spans on `pager` have measured, summed.
#[must_use]
pub fn tally(pager: &Pager) -> TraceCounters {
    let id = pager.id();
    with_tracer(|t| t.sources.get(&id).copied().unwrap_or_default())
}

/// What `pager` counted that no closed span on it measured: its
/// [`Pager::counters`] minus its [`tally`]. Zero while all of the handle's work
/// runs under spans opened on it (and none is open).
#[must_use]
pub fn unattributed(pager: &Pager) -> TraceCounters {
    counters(pager).since(&tally(pager))
}

/// Number of spans currently open on `pager`, across all threads.
#[must_use]
pub fn open_spans(pager: &Pager) -> usize {
    let id = pager.id();
    with_tracer(|t| {
        t.stacks
            .values()
            .flatten()
            .filter(|f| f.source == id)
            .count()
    })
}

/// One handle's row in a [`TraceReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceTally {
    /// The handle's [`Pager::id`].
    pub id: u64,
    /// What the outermost spans on the handle measured, summed.
    pub counters: TraceCounters,
}

/// Immutable snapshot of the tracer: aggregates, per-source tallies, and
/// the ring of recent closed spans.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Logical tick at snapshot time.
    pub ticks: u64,
    /// Spans still open when the snapshot was taken, on any handle.
    pub open_spans: u64,
    /// Spans that closed out of LIFO order (should stay 0).
    pub out_of_order_closes: u64,
    /// Ring events discarded because the buffer was full.
    pub dropped_events: u64,
    /// Per-(scheme, op) aggregates over top-level op spans.
    pub ops: Vec<((String, String), OpAgg)>,
    /// Per-(scheme, phase) aggregates over phase sub-spans.
    pub phases: Vec<((String, String), OpAgg)>,
    /// Per-handle tallies, in handle-id order.
    pub sources: Vec<SourceTally>,
    /// Most recent closed spans, oldest first.
    pub events: Vec<SpanEvent>,
}

/// Take a [`TraceReport`] snapshot of the global registry.
#[must_use]
pub fn report() -> TraceReport {
    with_tracer(|t| TraceReport {
        ticks: t.ticks,
        open_spans: t.open_spans,
        out_of_order_closes: t.out_of_order_closes,
        dropped_events: t.dropped_events,
        ops: t
            .ops
            .iter()
            .map(|(&(s, l), agg)| ((s.to_string(), l.to_string()), agg.clone()))
            .collect(),
        phases: t
            .phases
            .iter()
            .map(|(&(s, l), agg)| ((s.to_string(), l.to_string()), agg.clone()))
            .collect(),
        sources: t
            .sources
            .iter()
            .map(|(&id, &counters)| SourceTally { id, counters })
            .collect(),
        events: t.events.iter().cloned().collect(),
    })
}

fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                out.push_str("\\u00");
                let v = u32::from(c);
                let hi = (v >> 4) & 0xf;
                let lo = v & 0xf;
                for d in [hi, lo] {
                    out.push(char::from_digit(d, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
}

fn agg_json_into(scheme: &str, label: &str, agg: &OpAgg, out: &mut String) {
    out.push_str("{\"scheme\":\"");
    json_escape_into(scheme, out);
    out.push_str("\",\"label\":\"");
    json_escape_into(label, out);
    out.push_str("\",\"count\":");
    out.push_str(&agg.count.to_string());
    out.push_str(",\"io_total\":");
    out.push_str(&agg.totals.io_total().to_string());
    out.push_str(",\"max_io\":");
    out.push_str(&agg.max_io.to_string());
    out.push_str(",\"counters\":");
    agg.totals.json_into(out);
    out.push_str(",\"io_hist_log2\":[");
    for (i, v) in agg.hist.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push_str("]}");
}

impl TraceReport {
    /// Serialize the report as a stable single-line JSON document. The
    /// schema is documented in DESIGN.md ("Observability & tracing").
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"boxes-trace/3\",\"ticks\":");
        out.push_str(&self.ticks.to_string());
        out.push_str(",\"open_spans\":");
        out.push_str(&self.open_spans.to_string());
        out.push_str(",\"out_of_order_closes\":");
        out.push_str(&self.out_of_order_closes.to_string());
        out.push_str(",\"dropped_events\":");
        out.push_str(&self.dropped_events.to_string());
        out.push_str(",\"ops\":[");
        for (i, ((s, l), agg)) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            agg_json_into(s, l, agg, &mut out);
        }
        out.push_str("],\"phases\":[");
        for (i, ((s, l), agg)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            agg_json_into(s, l, agg, &mut out);
        }
        out.push_str("],\"sources\":[");
        for (i, s) in self.sources.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            out.push_str(&s.id.to_string());
            out.push_str(",\"counters\":");
            s.counters.json_into(&mut out);
            out.push('}');
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            out.push_str(&e.id.to_string());
            out.push_str(",\"parent\":");
            out.push_str(&e.parent.to_string());
            out.push_str(",\"depth\":");
            out.push_str(&e.depth.to_string());
            out.push_str(",\"scheme\":\"");
            json_escape_into(e.scheme, &mut out);
            out.push_str("\",\"label\":\"");
            json_escape_into(e.label, &mut out);
            out.push_str("\",\"phase\":");
            out.push_str(if e.phase { "true" } else { "false" });
            out.push_str(",\"start_tick\":");
            out.push_str(&e.start_tick.to_string());
            out.push_str(",\"end_tick\":");
            out.push_str(&e.end_tick.to_string());
            out.push_str(",\"counters\":");
            e.counters.json_into(&mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxes_pager::{Journal, JournalAck, JournalCounters, PagerConfig, TxnRecord};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The aggregates and the event ring are global, so tests that open
    /// spans must not interleave with tests that reset and then assert on
    /// them. Each such test holds this lock for its whole body
    /// (poison-recovering: a failed test must not wedge the rest of the
    /// suite).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        boxes_pager::lock_unpoisoned(&LOCK)
    }

    fn pager() -> SharedPager {
        Pager::new(PagerConfig::with_block_size(64))
    }

    fn io(reads: u64, writes: u64) -> TraceCounters {
        TraceCounters {
            reads,
            writes,
            ..TraceCounters::default()
        }
    }

    #[test]
    fn io_outside_spans_is_unattributed() {
        let _guard = serial();
        let p = pager();
        let id = p.alloc();
        p.read(id);
        p.read(id);
        assert_eq!(
            unattributed(&p),
            TraceCounters {
                allocs: 1,
                ..io(2, 0)
            }
        );
        assert!(tally(&p).is_zero());
    }

    #[test]
    fn span_delta_includes_nested_phases() {
        let _guard = serial();
        reset();
        let p = pager();
        let id = p.alloc();
        let block = [0u8; 64];
        {
            let _op = OpSpan::op(&p, "W-BOX", "insert");
            p.read(id);
            {
                let _phase = OpSpan::phase(&p, "split");
                for _ in 0..3 {
                    p.write(id, &block);
                }
            }
            p.write(id, &block);
        }
        let r = report();
        assert_eq!(r.open_spans, 0);
        assert_eq!(tally(&p), io(1, 4));
        assert_eq!(unattributed(&p).allocs, 1);
        // The op aggregate covers the phase's interval too.
        let (_, op_agg) = &r.ops[0];
        assert_eq!(op_agg.totals, io(1, 4));
        // The phase shows up under the inherited scheme tag.
        let ((scheme, label), p_agg) = &r.phases[0];
        assert_eq!((scheme.as_str(), label.as_str()), ("W-BOX", "split"));
        assert_eq!(p_agg.totals, io(0, 3));
        // Two closed spans in the ring, child first.
        assert_eq!(r.events.len(), 2);
        assert!(r.events[0].phase && !r.events[1].phase);
        assert!(r.events[0].end_tick < r.events[1].end_tick);
    }

    #[test]
    fn tally_plus_unattributed_is_the_pagers_count() {
        let _guard = serial();
        let p = pager();
        let id = p.alloc();
        {
            let _op = OpSpan::op(&p, "B-BOX", "delete");
            for _ in 0..5 {
                p.read(id);
            }
            p.free(id);
        }
        let mut total = tally(&p);
        total.merge(&unattributed(&p));
        assert_eq!(total, counters(&p));
        assert_eq!(total.allocs, 1);
        assert_eq!(tally(&p).reads, 5);
        assert_eq!(tally(&p).frees, 1);
        assert_eq!(open_spans(&p), 0);
    }

    /// Journal stub: every commit is durable and appends one record.
    struct CountingJournal(AtomicU64);

    impl Journal for CountingJournal {
        fn commit(&self, _record: &TxnRecord) -> JournalAck {
            self.0.fetch_add(1, Ordering::SeqCst);
            JournalAck::Durable
        }

        fn applied(&self) {}

        fn counters(&self) -> JournalCounters {
            JournalCounters {
                appends: self.0.load(Ordering::SeqCst),
                ..JournalCounters::default()
            }
        }
    }

    #[test]
    fn journal_and_pool_counters_reach_the_span() {
        let _guard = serial();
        let journaled = pager();
        journaled.attach_journal(Arc::new(CountingJournal(AtomicU64::new(0))));
        {
            let _op = OpSpan::op(&journaled, "W-BOX", "insert");
            let _txn = journaled.txn();
            journaled.alloc();
        }
        assert_eq!(tally(&journaled).wal_appends, 1);
        assert_eq!(tally(&journaled).allocs, 1);

        let pooled = Pager::new(PagerConfig::with_block_size(64).with_pool(2));
        let id = pooled.alloc();
        {
            let _op = OpSpan::op(&pooled, "W-BOX", "lookup");
            pooled.read(id);
            pooled.read(id);
        }
        assert_eq!(tally(&pooled).reads, 1);
        assert_eq!(tally(&pooled).cache_hits, 1);
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let _guard = serial();
        reset();
        let p = pager();
        for _ in 0..EVENT_CAPACITY + 6 {
            let _s = OpSpan::op(&p, "LIDF", "read");
        }
        let r = report();
        assert_eq!(r.events.len(), EVENT_CAPACITY);
        assert_eq!(r.dropped_events, 6);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(4), 2);
        assert_eq!(log2_bucket(1 << 15), 15);
    }

    #[test]
    fn json_is_stable_and_wellformed() {
        let _guard = serial();
        reset();
        let p = Pager::new(PagerConfig::with_block_size(64).with_pool(2));
        let id = p.alloc();
        {
            let _op = OpSpan::op(&p, "W-BOX", "lookup");
            p.read(id);
            p.read(id);
        }
        let a = report().to_json();
        let b = report().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"boxes-trace/3\""));
        assert!(a.contains("\"scheme\":\"W-BOX\""));
        assert!(a.contains("\"cache_hits\":1"));
        assert!(a.contains(&format!("\"sources\":[{{\"id\":{},", p.id())));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn handles_tally_separately_across_threads() {
        let _guard = serial();
        let a = pager();
        let id = a.alloc();
        {
            let _op = OpSpan::op(&a, "W-BOX", "insert");
            a.write(id, &[1u8; 64]);
            // Another thread's work on another handle, inside this span,
            // lands in that handle's tally only.
            let b_tally = std::thread::spawn(|| {
                let b = pager();
                let _op = OpSpan::op(&b, "W-BOX", "lookup");
                let id = b.alloc();
                b.read(id);
                b.read(id);
                drop(_op);
                tally(&b)
            })
            .join()
            .expect("reader thread");
            assert_eq!(
                b_tally,
                TraceCounters {
                    allocs: 1,
                    ..io(2, 0)
                }
            );
        }
        assert_eq!(tally(&a), io(0, 1));
    }

    #[test]
    fn nested_spans_on_one_handle_tally_once() {
        let _guard = serial();
        let p = pager();
        let id = p.alloc();
        {
            let _op = OpSpan::op(&p, "W-BOX", "insert");
            let _inner = OpSpan::op(&p, "W-BOX", "lookup");
            let _phase = OpSpan::phase(&p, "lidf");
            p.read(id);
            assert_eq!(open_spans(&p), 3);
        }
        assert_eq!(tally(&p), io(1, 0));
        assert_eq!(open_spans(&p), 0);
    }

    #[test]
    fn out_of_order_close_is_tolerated() {
        let _guard = serial();
        reset();
        let p = pager();
        let id = p.alloc();
        let a = OpSpan::op(&p, "W-BOX", "a");
        let b = OpSpan::op(&p, "W-BOX", "b");
        p.read(id);
        drop(a);
        p.write(id, &[0u8; 64]);
        drop(b);
        let r = report();
        assert_eq!(r.open_spans, 0);
        assert_eq!(r.out_of_order_closes, 1);
        assert_eq!(open_spans(&p), 0);
    }
}
