//! I/O accounting counters.

/// Snapshot of pager I/O counters. Cheap to copy; the experiment harness
/// diffs two snapshots to attribute cost to a single operation, mirroring the
/// per-operation I/O counts reported in the paper's figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Block reads that reached the simulated disk.
    pub reads: u64,
    /// Block writes that reached the simulated disk.
    pub writes: u64,
    /// Block allocations.
    pub allocs: u64,
    /// Block frees.
    pub frees: u64,
    /// I/O attempts repeated after a transient fault (retry policy).
    pub retries: u64,
    /// Blocks reconstructed from the journal after a checksum mismatch
    /// (read-repair).
    pub repairs: u64,
    /// Deterministic backoff/latency ticks charged by faulted I/O — the
    /// wall-clock-free stand-in for time spent waiting on a flaky disk.
    pub backoff_ticks: u64,
}

impl IoStats {
    /// Total data-moving I/Os (reads + writes) — the paper's cost metric.
    /// Retries, repairs and backoff are fault-service overhead and tracked
    /// separately.
    #[inline]
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Counter-wise difference `self - earlier`; use to cost one operation.
    #[inline]
    #[must_use]
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
            retries: self.retries - earlier.retries,
            repairs: self.repairs - earlier.repairs,
            backoff_ticks: self.backoff_ticks - earlier.backoff_ticks,
        }
    }
}

/// Cumulative activity counters of a [`crate::Journal`]; trace spans report
/// them as the `wal_*` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalCounters {
    /// Commit records appended to the log.
    pub appends: u64,
    /// Durability barriers (fsyncs) that succeeded.
    pub syncs: u64,
    /// Checkpoints (log rotations onto a fold record).
    pub checkpoints: u64,
    /// Block images rebuilt from the log for read-repair.
    pub replays: u64,
}

/// Everything one pager handle has counted since it was made: its I/O, its
/// buffer-pool hits and its journal's activity. Every field only grows, so
/// two snapshots bracket the cost of whatever ran between them — a trace
/// span is exactly such a pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagerCounters {
    /// The handle's I/O counters.
    pub io: IoStats,
    /// Reads served by the buffer pool without a charged I/O.
    pub cache_hits: u64,
    /// The attached journal's counters (zero without one).
    pub journal: JournalCounters,
}

impl std::ops::Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            allocs: self.allocs + rhs.allocs,
            frees: self.frees + rhs.frees,
            retries: self.retries + rhs.retries,
            repairs: self.repairs + rhs.repairs,
            backoff_ticks: self.backoff_ticks + rhs.backoff_ticks,
        }
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} I/Os ({} reads, {} writes)",
            self.total(),
            self.reads,
            self.writes
        )?;
        if self.retries != 0 || self.repairs != 0 {
            write!(
                f,
                " [{} retries, {} repairs, {} backoff ticks]",
                self.retries, self.repairs, self.backoff_ticks
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_counterwise() {
        let early = IoStats {
            reads: 3,
            writes: 1,
            allocs: 2,
            frees: 0,
            retries: 1,
            repairs: 0,
            backoff_ticks: 2,
        };
        let late = IoStats {
            reads: 10,
            writes: 4,
            allocs: 2,
            frees: 1,
            retries: 5,
            repairs: 2,
            backoff_ticks: 9,
        };
        let d = late.since(&early);
        assert_eq!(d.reads, 7);
        assert_eq!(d.writes, 3);
        assert_eq!(d.allocs, 0);
        assert_eq!(d.frees, 1);
        assert_eq!(d.retries, 4);
        assert_eq!(d.repairs, 2);
        assert_eq!(d.backoff_ticks, 7);
        assert_eq!(d.total(), 10);
    }

    #[test]
    fn add_is_counterwise() {
        let a = IoStats {
            reads: 1,
            writes: 2,
            allocs: 3,
            frees: 4,
            retries: 5,
            repairs: 6,
            backoff_ticks: 7,
        };
        let sum = a + a;
        assert_eq!(sum.reads, 2);
        assert_eq!(sum.frees, 8);
        assert_eq!(sum.retries, 10);
        assert_eq!(sum.repairs, 12);
        assert_eq!(sum.backoff_ticks, 14);
    }

    #[test]
    fn display_mentions_fault_service_only_when_present() {
        let quiet = IoStats {
            reads: 1,
            ..IoStats::default()
        };
        assert!(!format!("{quiet}").contains("retries"));
        let faulted = IoStats {
            retries: 3,
            ..IoStats::default()
        };
        assert!(format!("{faulted}").contains("3 retries"));
    }
}
