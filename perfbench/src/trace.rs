//! In-memory span recorder for the traced run, plus the forwarding
//! `Journal` and `LogStore` wrappers that put spans around the WAL.
//!
//! Spans are recorded only from this benchmark's own code, around calls
//! into the library's public API. Each thread buffers its spans locally;
//! [`flush_thread`] hands them to a process-wide list that [`take_all`]
//! drains when the run ends. With recording disabled a span costs one
//! relaxed atomic load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use boxes_core::pager::{BlockId, Journal, JournalAck, TxnRecord};
use boxes_core::wal::{LogStore, StoreError, Wal};

/// One recorded span. `parent` is 0 for a root span; `op` is the id of the
/// benchmark operation (update, lookup, recovery, ...) that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

// Relaxed throughout: the flag publishes no other data, and thread ids are
// plain counters.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

struct Local {
    thread: u64,
    next: u64,
    op: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        next: 0,
        op: 0,
        stack: Vec::new(),
        spans: Vec::new(),
    });
}

fn now_ns() -> u64 {
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).expect("run shorter than 584 years")
}

/// Turn span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start a new benchmark operation on this thread; spans opened until the
/// next call carry its id.
pub fn begin_op() {
    if enabled() {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.next += 1;
            l.op = (l.thread << 40) | l.next;
        });
    }
}

/// An open span; recorded when dropped.
#[must_use = "a span measures the scope that holds it"]
pub struct SpanGuard {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
}

/// Open a span named `name`, a child of the innermost open span on this
/// thread.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            id: 0,
            parent: 0,
            start_ns: 0,
        };
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.next += 1;
        let id = (l.thread << 40) | l.next;
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        SpanGuard {
            name,
            id,
            parent,
            start_ns: now_ns(),
        }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.stack.last() == Some(&self.id) {
                l.stack.pop();
            }
            let span = Span {
                name: self.name,
                id: self.id,
                parent: self.parent,
                op: l.op,
                thread: l.thread,
                start_ns: self.start_ns,
                end_ns,
            };
            l.spans.push(span);
        });
    }
}

/// Move this thread's spans to the process-wide list. Call it when a
/// thread's measured work ends.
pub fn flush_thread() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    FINISHED.lock().expect("span list lock").extend(spans);
}

/// Drain every flushed span (the calling thread's included).
pub fn take_all() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *FINISHED.lock().expect("span list lock"))
}

/// Indexed view of a finished span list: durations by name and self time
/// (a span's duration minus the time its direct children cover).
pub struct Analysis {
    pub spans: Vec<Span>,
    child_ns: HashMap<u64, u64>,
}

impl Analysis {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        Analysis { spans, child_ns }
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64 / 1e3).collect()
    }

    /// Self time of `span`, in nanoseconds.
    pub fn self_ns(&self, span: &Span) -> u64 {
        span.dur_ns()
            .saturating_sub(self.child_ns.get(&span.id).copied().unwrap_or(0))
    }

    /// Write every span as tab-separated text: one header line, then one
    /// line per span ordered by start time.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut sorted: Vec<&Span> = self.spans.iter().collect();
        sorted.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tid\tparent\tthread\tname\tstart_ns\tend_ns")?;
        for s in sorted {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Forwards every `Journal` call to a [`Wal`], recording `wal.commit`,
/// `wal.applied` and `wal.barrier` spans. It changes timing only.
pub struct TracedJournal(pub Arc<Wal>);

impl Journal for TracedJournal {
    fn commit(&self, record: &TxnRecord) -> JournalAck {
        let _s = span("wal.commit");
        self.0.commit(record)
    }

    fn applied(&self) {
        let _s = span("wal.applied");
        self.0.applied();
    }

    fn repair_image(&self, id: BlockId) -> Option<Box<[u8]>> {
        let _s = span("wal.repair_image");
        self.0.repair_image(id)
    }

    fn barrier(&self) -> JournalAck {
        let _s = span("wal.barrier");
        self.0.barrier()
    }

    fn healthy(&self) -> bool {
        self.0.healthy()
    }
}

/// Forwards every `LogStore` call to the wrapped store, recording
/// `wal.append`, `wal.sync`, `wal.rotate` and `wal.durable` spans. It
/// changes timing only.
pub struct TracedStore(pub Box<dyn LogStore>);

impl LogStore for TracedStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let _s = span("wal.append");
        self.0.append(bytes)
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        let _s = span("wal.sync");
        self.0.sync()
    }

    fn durable(&self) -> Result<Vec<u8>, StoreError> {
        let _s = span("wal.durable");
        self.0.durable()
    }

    fn durable_len(&self) -> u64 {
        self.0.durable_len()
    }

    fn pending_len(&self) -> u64 {
        self.0.pending_len()
    }

    fn rotate(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let _s = span("wal.rotate");
        self.0.rotate(bytes)
    }
}
