//! `reqbench`: the end-to-end request benchmark. A request enters as
//! Pascal source text and is done when its `asm` string is in hand.
//!
//! ```text
//! cargo run --release --manifest-path reqbench/Cargo.toml -- \
//!     --workload huge_single --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every call into the compiler's layers
//! and reports the per-layer metrics derived from them (spans are
//! written to `.bench_out/`). Every output is checked against the
//! direct compiler's VM output; any mismatch makes the exit code 1.
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. See `reqbench/DESIGN.md` for the workloads and
//! what each metric is for.

mod closed;
mod inputs;
mod layers;
mod oracle;
mod report;
mod stats;
mod sut;
mod sys;
mod trace;

use report::{Metric, Outcome};
use stats::{median, Summary};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Command-line arguments.
#[derive(Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Time one set-up of the workload's system, print the seconds and
    /// exit (how a run measures `setup_s`, one child process per
    /// set-up).
    pub setup_probe: bool,
}

/// The workloads, by name, as `BENCHMARK.json` lists them. A run's
/// result line carries exactly the metrics listed there
/// ([`LISTED_E2E`] untraced, [`LISTED_LAYERS`] traced); everything else
/// it measures goes to the human-readable report.
pub const WORKLOADS: [&str; 3] = ["huge_single", "dup_closed", "fig5_sim"];

/// End-to-end metrics.
pub const LISTED_E2E: [&str; 4] = ["setup_s", "peak_rss_mb", "latency_p50_ms", "cpu_ms_per_req"];

/// Per-layer metrics: those at least one workload exercises.
pub const LISTED_LAYERS: [&str; 38] = [
    "parser.p50_ms",
    "parser.mb_s",
    "agtree.p50_ms",
    "agtree.knodes_ms",
    "service.offer_p50_us",
    "service.dispatch_wait_p50_ms",
    "service.pump_share",
    "split.decompose_ms",
    "pool.eval_p50_ms",
    "pool.assemble_p50_ms",
    "pool.regions_per_req",
    "pool.attrs_sent_per_req",
    "pool.kb_sent_per_req",
    "pool.cpu_util",
    "eval.rules_per_req",
    "eval.cost_units_per_req",
    "memo.hit_ratio",
    "memo.inserts_per_kreq",
    "memo.evictions_per_kreq",
    "memo.deferred_per_kreq",
    "output.p50_ms",
    "teardown.ast_ms",
    "teardown.output_ms",
    "teardown.tree_ms",
    "alloc.count_per_req",
    "alloc.mb_per_req",
    "client.harvest_lag_p50_ms",
    "sim.call_p50_ms",
    "sim.trace_records",
    "sim.virtual_eval_s",
    "sim.virtual_speedup",
    "ladder.static_eval_ms",
    "ladder.pool1_ms",
    "ladder.pool_ms",
    "ladder.pool1_over_static",
    "ladder.pool_over_static",
    "trace.unexplained_share",
    "trace.overhead",
];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" | "--setup-probe" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
                if flag == "--trace" {
                    args.trace = on;
                } else {
                    args.setup_probe = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// The end-to-end metrics, in `BENCHMARK.json`'s order: median set-up
/// time, peak RSS, median request latency and process CPU time per
/// request.
pub fn e2e_metrics(
    setups: &[f64],
    peak_rss_mb: f64,
    latency_ms: &[f64],
    cpu_s: f64,
) -> Vec<Metric> {
    let n = latency_ms.len() as f64;
    vec![
        Metric::new("setup_s", median(setups), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("latency_p50_ms", median(latency_ms), "ms"),
        Metric::new("cpu_ms_per_req", cpu_s * 1e3 / n, "ms"),
    ]
}

/// A report line naming the percentile a tail was taken at.
pub fn tail_note(what: &str, s: &Summary) -> String {
    format!(
        "{what}: n={} p50 {:.3} ms, tail p{} {:.3} ms ({} samples beyond), max {:.3} ms",
        s.n, s.p50, s.tail_pct, s.tail, s.beyond, s.max
    )
}

/// A report line listing the set-up times of a run.
pub fn setup_note(setups: &[f64]) -> String {
    let times: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    format!("set-up times (s): {}", times.join(" "))
}

/// Writes a traced run's spans to `.bench_out/`.
pub fn write_trace(tr: &trace::Tracer, args: &Args) {
    let path = std::path::PathBuf::from(format!(
        ".bench_out/spans-{}-{}.jsonl",
        args.workload, args.seed
    ));
    if let Err(e) = tr.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reqbench: {e}");
            eprintln!("usage: reqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if args.setup_probe {
        println!("{:?}", closed::time_set_up(&args));
        return;
    }
    let mut outcome: Outcome = match args.workload.as_str() {
        "huge_single" => closed::huge_single(&args),
        "dup_closed" => closed::dup_closed(&args),
        "fig5_sim" => closed::fig5_sim(&args),
        _ => unreachable!("validated in parse_args"),
    };
    let listed: &[&str] = if args.trace {
        &LISTED_LAYERS
    } else {
        &LISTED_E2E
    };
    let (keep, extra) = outcome
        .metrics
        .drain(..)
        .partition(|m| listed.contains(&m.name));
    outcome.metrics = keep;
    outcome.extra = extra;
    eprint!("{}", outcome.text(&args.workload));
    println!("{}", outcome.json());
    if !outcome.correct() || outcome.metrics.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_listed_workloads_and_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap())
            .collect();
        let want: Vec<&str> = WORKLOADS
            .iter()
            .chain(&LISTED_E2E)
            .chain(&LISTED_LAYERS)
            .copied()
            .collect();
        assert_eq!(names, want);
    }

    #[test]
    fn traced_runs_compute_every_listed_layer_metric() {
        let names: Vec<&str> = layers::metrics(&trace::Tracer::new(true), &Default::default())
            .iter()
            .map(|m| m.name)
            .collect();
        for n in LISTED_LAYERS {
            assert!(names.contains(&n), "{n} is not computed");
        }
    }

    #[test]
    fn arguments_parse_and_are_checked() {
        let a = parse_args(&argv(
            "--workload dup_closed --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("dup_closed", 9, 3.0, true)
        );
        let p = parse_args(&argv("--workload fig5_sim --seed 4 --setup-probe 1")).unwrap();
        assert!(p.setup_probe && !p.trace);
        assert!(parse_args(&argv("--workload fig5_sim --setup-probe yes")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload fig5_sim --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fig5_sim --seed")).is_err());
    }
}
