//! Measurement plumbing shared by the workloads: percentiles, the seeded
//! generator, correctness-check tallies, peak memory and the scratch
//! directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

use boxes_core::pager::splitmix64;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of `samples`; 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&sorted(samples), 0.5)
}

/// A uniform sample of at most `cap` items of a stream (reservoir
/// sampling), so the benchmark's own memory stays flat however many ops a
/// run completes.
pub struct Reservoir<T> {
    seen: u64,
    cap: usize,
    kept: Vec<T>,
    rng: Rng,
}

impl<T> Reservoir<T> {
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            seen: 0,
            cap,
            kept: Vec::with_capacity(cap),
            rng: Rng::new(seed, 41),
        }
    }

    pub fn push(&mut self, item: T) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(item);
        } else {
            let seen = usize::try_from(self.seen).expect("count fits usize");
            let slot = self.rng.range(0, seen);
            if slot < self.cap {
                self.kept[slot] = item;
            }
        }
    }

    pub fn kept(&self) -> &[T] {
        &self.kept
    }
}

/// Ops per window of [`Latencies`].
const WINDOW: usize = 256;

/// Wall times of one kind of op and the wall-clock seconds of the loop
/// work around them, kept as statistics of windows of at least [`WINDOW`]
/// consecutive ops. Each reported figure is the median over the windows of
/// that window's figure, so a stall that hits a few windows of a run (a
/// neighbour taking a core for a second) barely moves it.
#[derive(Default)]
pub struct Latencies {
    count: u64,
    /// Samples of the open window, µs.
    open: Vec<f64>,
    /// Busy seconds of the open window.
    open_busy_s: f64,
    closed: Vec<Window>,
}

/// Figures of one window.
struct Window {
    p50: f64,
    p95: f64,
    p99: f64,
    /// Ops over busy seconds.
    rate: f64,
}

impl Latencies {
    /// Record the wall time of one op call.
    pub fn push(&mut self, us: f64) {
        self.count += 1;
        self.open.push(us);
    }

    /// Add wall-clock seconds of loop work: the op calls with what the loop
    /// does around them. The window closes here once it holds [`WINDOW`]
    /// ops, so every window's busy time covers the work of its own ops.
    pub fn busy(&mut self, s: f64) {
        self.open_busy_s += s;
        if self.open.len() >= WINDOW {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let v = sorted(&self.open);
        self.closed.push(Window {
            p50: percentile(&v, 0.50),
            p95: percentile(&v, 0.95),
            p99: percentile(&v, 0.99),
            rate: v.len() as f64 / self.open_busy_s,
        });
        self.open.clear();
        self.open_busy_s = 0.0;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Median over the closed windows of `f`; ops after the last closed
    /// window are counted but not in a figure.
    fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.closed.iter().map(f).collect::<Vec<_>>())
    }

    pub fn p50(&self) -> f64 {
        self.median_of(|w| w.p50)
    }

    pub fn p95(&self) -> f64 {
        self.median_of(|w| w.p95)
    }

    pub fn p99(&self) -> f64 {
        self.median_of(|w| w.p99)
    }

    /// Ops per busy second.
    pub fn rate(&self) -> f64 {
        self.median_of(|w| w.rate)
    }

    /// Windows closed so far.
    pub fn windows(&self) -> usize {
        self.closed.len()
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Microseconds since `t`.
pub fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Seeded splitmix64 stream: the workload seed drives documents, lookup
/// targets and insert anchors, so equal seeds give equal inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform index in `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        let span = u64::try_from(hi - lo).expect("usize fits u64");
        lo + usize::try_from(self.next_u64() % span).expect("below hi")
    }
}

/// Tally of correctness checks: how many of each kind ran and which
/// failed. Every failure makes the run report `correct: false` and exit
/// non-zero.
#[derive(Default)]
pub struct Checks {
    pub ran: std::collections::BTreeMap<&'static str, u64>,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Checks {
    /// Record one check of `kind`; `detail` is built only on failure.
    pub fn check(&mut self, kind: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        *self.ran.entry(kind).or_default() += 1;
        if !ok {
            self.fail(detail());
        }
    }

    pub fn fail(&mut self, detail: String) {
        self.failed += 1;
        if self.first_failures.len() < 8 {
            self.first_failures.push(detail);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        for (k, v) in other.ran {
            *self.ran.entry(k).or_default() += v;
        }
        self.failed += other.failed;
        for f in other.first_failures {
            if self.first_failures.len() < 8 {
                self.first_failures.push(f);
            }
        }
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh directory for the benchmark's files, created next to the
/// benchmark executable (inside the build directory, whatever the working
/// directory) and removed with everything in it when dropped — also when a
/// failed check unwinds.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base.join(format!("perfbench-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Drop cannot report errors; a leftover directory is named by pid
        // and replaced by the next run with that pid.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
