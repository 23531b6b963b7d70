//! Emit `target/BENCH_wall.json`: wall-clock latency percentiles for the
//! W-BOX update path, in-memory stack vs the real-file stack (file-backed
//! pager + `FileLogStore` with fsync-per-group-commit), plus the
//! coarse-vs-sharded read-path comparison: 8 reader threads hammering the
//! same blocks through `Pager::read` (every read takes the coordinator
//! mutex) vs through per-thread snapshot views (reads resolve inside the
//! sharded page table, coordinator-free). Deliberately a *separate*
//! artifact from the byte-stable `BENCH_boxes.json`: wall times are
//! nondeterministic by nature, so they get their own file that CI
//! archives but never diffs.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use boxes_bench::report::write_bench_json;
use boxes_bench::Scale;
use boxes_core::pager::{BlockId, Pager, PagerConfig, SharedPager};
use boxes_core::wal::{Wal, WalConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::{DocumentDriver, WBoxScheme};

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("boxes-bench-wall-{tag}-{}", std::process::id()));
    p
}

/// Latency summary of one variant's replay, all in microseconds.
struct WallRow {
    name: &'static str,
    ops: usize,
    total_ms: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    max_us: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn run_variant(name: &'static str, on_file: bool, bs: usize, scale: &Scale) -> WallRow {
    let stream =
        boxes_core::xml::workload::concentrated(scale.base_elements / 2, scale.insert_elements / 2);
    let db = temp_path(&format!("db-{name}"));
    let log = temp_path(&format!("log-{name}"));
    let pager = if on_file {
        Pager::new(PagerConfig::with_block_size(bs).backed_by_file(&db))
    } else {
        Pager::new(PagerConfig::with_block_size(bs))
    };
    let config = WalConfig {
        sync_every: 4,
        checkpoint_every: 0,
    };
    let wal = if on_file {
        Wal::create_file(&log, bs, config).expect("file log creates")
    } else {
        Wal::new(bs, config)
    };
    pager.attach_journal(wal);
    let scheme = WBoxScheme::new(pager.clone(), WBoxConfig::from_block_size(bs));
    let mut driver = DocumentDriver::load(scheme, &stream.base);
    let start = Instant::now();
    let mut lat_us: Vec<f64> = Vec::with_capacity(stream.ops.len());
    for op in &stream.ops {
        let t = Instant::now();
        driver.apply(op);
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(driver);
    drop(pager);
    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&log).ok();
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    WallRow {
        name,
        ops: lat_us.len(),
        total_ms,
        p50_us: percentile(&lat_us, 0.50),
        p90_us: percentile(&lat_us, 0.90),
        p99_us: percentile(&lat_us, 0.99),
        max_us: lat_us.last().copied().unwrap_or(0.0),
    }
}

/// One row of the coarse-vs-sharded 8-reader comparison.
struct LatchRow {
    name: &'static str,
    threads: usize,
    reads: usize,
    total_ms: f64,
}

/// 8 threads read the same 256 blocks for a fixed number of rounds.
/// `sharded` routes reads through per-thread snapshot views (the latch
/// fast path); otherwise every read goes through the base pager and its
/// coordinator mutex.
fn run_latch(name: &'static str, sharded: bool, bs: usize) -> LatchRow {
    const THREADS: usize = 8;
    const BLOCKS: usize = 256;
    const ROUNDS: usize = 100;
    let pager = Pager::new(PagerConfig::with_block_size(bs));
    let ids: Vec<BlockId> = (0..BLOCKS)
        .map(|i| {
            let id = pager.alloc();
            pager.write(id, &vec![(i % 251) as u8; bs]);
            id
        })
        .collect();
    let barrier = Arc::new(Barrier::new(THREADS));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let pager = Arc::clone(&pager);
            let barrier = Arc::clone(&barrier);
            let ids = &ids;
            s.spawn(move || {
                let reader: SharedPager = if sharded {
                    pager.snapshot_view().0
                } else {
                    pager
                };
                barrier.wait();
                for _ in 0..ROUNDS {
                    for id in ids {
                        std::hint::black_box(reader.read(*id));
                    }
                }
            });
        }
    });
    LatchRow {
        name,
        threads: THREADS,
        reads: THREADS * BLOCKS * ROUNDS,
        total_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn main() {
    let (scale, bs) = Scale::from_args();
    eprintln!("bench_wall: scale={} block_size={bs}", scale.name);
    let rows = [
        run_variant("mem", false, bs, &scale),
        run_variant("file", true, bs, &scale),
    ];
    let mut json = String::new();
    json.push_str("{\"schema\":\"boxes-bench-wall/2\",\"scale\":\"");
    json.push_str(scale.name);
    json.push_str("\",\"block_size\":");
    json.push_str(&bs.to_string());
    json.push_str(",\"sync_every\":4,\"variants\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"ops\":{},\"total_ms\":{:.3},\"ops_per_s\":{:.0},\
             \"p50_us\":{:.2},\"p90_us\":{:.2},\"p99_us\":{:.2},\"max_us\":{:.2}}}",
            r.name,
            r.ops,
            r.total_ms,
            r.ops as f64 / (r.total_ms / 1e3),
            r.p50_us,
            r.p90_us,
            r.p99_us,
            r.max_us,
        ));
    }
    json.push_str("],\"latch\":[");
    let latch_rows = [
        run_latch("coarse", false, bs),
        run_latch("sharded", true, bs),
    ];
    for (i, r) in latch_rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"threads\":{},\"reads\":{},\"total_ms\":{:.3},\
             \"reads_per_s\":{:.0}}}",
            r.name,
            r.threads,
            r.reads,
            r.total_ms,
            r.reads as f64 / (r.total_ms / 1e3),
        ));
    }
    json.push_str("]}\n");
    let path = Path::new("target/BENCH_wall.json");
    match write_bench_json(path, &json) {
        Ok(()) => println!("wrote {} ({} bytes)", path.display(), json.len()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    for r in &rows {
        println!(
            "  {:>4}: {} ops in {:.1} ms  p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us",
            r.name, r.ops, r.total_ms, r.p50_us, r.p90_us, r.p99_us, r.max_us
        );
    }
    for r in &latch_rows {
        println!(
            "  latch/{:>7}: {} threads, {} reads in {:.1} ms ({:.0} reads/s)",
            r.name,
            r.threads,
            r.reads,
            r.total_ms,
            r.reads as f64 / (r.total_ms / 1e3),
        );
    }
}
