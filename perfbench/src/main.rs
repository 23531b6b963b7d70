//! Wall-clock benchmark of the BOXes storage stack.
//!
//! ```text
//! perfbench --workload <ingest-file|query-mem|snapshot-mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures with tracing off and reports the end-to-end
//! metrics. `--trace 1` runs the workload twice, half the time each: once
//! untraced (the base of the overhead ratio) and once with spans recorded
//! around every call into the library, and reports the per-layer metrics.
//! The spans are written next to the executable when the run ends.
//!
//! Every metric is printed as `name = value unit`; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A failed correctness check makes the run exit
//! with code 1; bad arguments exit with code 2.

mod ingest_file;
mod measure;
mod phase;
mod query_mem;
mod snapshot_mix;
mod trace;

use phase::{Metric, Phase};

/// Parsed command line.
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["ingest-file", "query-mem", "snapshot-mix"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Params {
    let mut p = Params {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => p.workload = value,
            "--seed" => p.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                p.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                p.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown argument {flag} {value}")),
        }
    }
    if p.workload.is_empty() {
        usage("--workload is required");
    }
    p
}

fn run_phase(p: &Params, traced: bool) -> Result<Phase, String> {
    trace::set_enabled(traced);
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match p.workload.as_str() {
            "ingest-file" => ingest_file::run(p, traced),
            "query-mem" => query_mem::run(p, traced),
            _ => snapshot_mix::run(p, traced),
        }));
    trace::set_enabled(false);
    match result {
        Ok(r) => r,
        Err(payload) => Err(
            match payload.downcast_ref::<boxes_core::pager::PagerError>() {
                Some(e) => format!("typed pager error: {e}"),
                None => "the workload panicked".into(),
            },
        ),
    }
}

fn main() {
    let mut p = parse_args();
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} threads_available={}",
        p.workload,
        p.seed,
        p.seconds,
        u8::from(p.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let mut info = Vec::new();
    let (phases, metrics) = if p.trace {
        p.seconds /= 2.0;
        let base = run_phase(&p, false).unwrap_or_else(|e| fatal(&e));
        let traced = run_phase(&p, true).unwrap_or_else(|e| fatal(&e));
        let analysis = trace::Analysis::new(trace::take_all());
        write_spans(&p, &analysis);
        let metrics = phase::per_layer(&base, &traced, &analysis);
        (vec![base, traced], metrics)
    } else {
        let base = run_phase(&p, false).unwrap_or_else(|e| fatal(&e));
        let (metrics, extra) = phase::end_to_end(&base);
        info = extra;
        (vec![base], metrics)
    };

    let mut attempted = 0;
    let mut failed = 0;
    let mut ran = std::collections::BTreeMap::new();
    for ph in &phases {
        attempted += ph.attempted + ph.checks.ran.values().sum::<u64>();
        failed += ph.checks.failed;
        for (k, v) in &ph.checks.ran {
            *ran.entry(*k).or_insert(0u64) += v;
        }
        for f in &ph.checks.first_failures {
            eprintln!("perfbench: FAILED: {f}");
        }
    }
    let correct = failed == 0;
    for m in metrics.iter().chain(&info) {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_ratio = {} ratio",
        failed as f64 / attempted.max(1) as f64
    );
    let ran: Vec<String> = ran.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("checks: {}", ran.join(" "));
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("perfbench: FAILED: {msg}");
    std::process::exit(1);
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Write the traced phase's spans next to the executable.
fn write_spans(p: &Params, analysis: &trace::Analysis) {
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let dir = exe
        .parent()
        .unwrap_or(std::path::Path::new("."))
        .join("perfbench-spans");
    let path = dir.join(format!("{}-seed{}.tsv", p.workload, p.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| analysis.write_tsv(&path)) {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            analysis.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}
