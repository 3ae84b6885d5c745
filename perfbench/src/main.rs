//! The repository benchmark: one command that runs a named workload with a
//! seed, checks its outputs, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `serve-steady` — open-loop sensor-network serving over a rate ladder;
//! * `serve-rejoin` — the same open loop over a durable group, with kills
//!   rejoined by log replay and by Algorithm-3 peer decode;
//! * `fusion-design` — a closed loop generating backups (Table 1 sets,
//!   |⊤| = 6561, warm re-fusion).
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run, whose
//! spans are written to `perfbench/traces/`.  The line before it records
//! the run's parameters and every figure measured.  `--plant-fault` makes
//! the run produce one wrong output, which its checks must catch.  The
//! exit code is non-zero when any check fails.

mod design;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;

use report::{Metric, Outcome};

/// End-to-end metrics, reported by every workload.  On the serving
/// workloads a latency is one event's, from its due time until every live
/// server applied it, over the nominal step (a fixed share of the drain
/// capacity the run measures); on `fusion-design` it is one design
/// iteration's (all three jobs).  `setup_s` is the median of several
/// set-ups in the run: on the serving workloads, spawning the group (and
/// fusing its backup on `serve-rejoin`), building the pipeline and one
/// report round; on `fusion-design`, building the inputs and the warm
/// session.  `peak_rss_mb` is the growth of the peak resident set over the
/// serving run past the resident set after set-up (the harness keeps no
/// buffer that grows with the run), and the process's peak on
/// `fusion-design`.  CPU-bound set-up and `fusion-design` times are scaled
/// to the reference machine's speed by a calibration kernel run around each
/// measurement (`report::timed_at_reference`); the serving latencies stay
/// as measured.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_latency_us", "us"),
    ("p99_latency_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run; a layer the workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("ingest.push_ns", "ns"),
    ("ingest.queue_wait_us", "us"),
    ("ingest.backpressure", "count"),
    ("ingest.pump_ns", "ns"),
    ("ingest.idle_pump_ratio", "ratio"),
    ("ingest.batch_events", "count"),
    ("ingest.time_flush_ratio", "ratio"),
    ("parallel.dispatch_ns", "ns"),
    ("executor.step_ns", "ns"),
    ("parallel.marker_rtt_us", "us"),
    ("wal.append_ns", "ns"),
    ("durable.apply_ns", "ns"),
    ("recovery.restart_ms", "ms"),
    ("recovery.frames_replayed", "count"),
    ("ingest.backlog_replay_ms", "ms"),
    ("ingest.diverted", "count"),
    ("parallel.collect_us", "us"),
    ("system.decode_us", "us"),
    ("rejoin.replay_ms", "ms"),
    ("rejoin.decode_ms", "ms"),
    ("ladder.sustained_events_per_s", "1/s"),
    ("serve.drain_events_per_s", "1/s"),
    ("product.build_ms", "ms"),
    ("fault_graph.build_ms", "ms"),
    ("fault_graph.weakest_edges_us", "us"),
    ("fault_graph.speculate_us", "us"),
    ("closed.close_merged_us", "us"),
    ("generate.search_ms", "ms"),
    ("generate.candidates_examined", "count"),
    ("generate.descent_ratio", "ratio"),
    ("delta.update_ms", "ms"),
    ("delta.closures_remapped", "count"),
    ("delta.stripes_touched", "count"),
    ("session.cache_hit_ratio", "ratio"),
    ("design.table1_s", "s"),
    ("design.fusion_n6561_s", "s"),
    ("design.refusion_ms", "ms"),
    ("loadgen.lag_us", "us"),
    ("failed_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str = "usage: perfbench --workload <serve-steady|serve-rejoin|fusion-design> \
                     --seed <n> --seconds <s> --trace <0|1> [--plant-fault]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    plant: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        plant: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--plant-fault" => args.plant = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Picks `names` out of `measured`, in order, reading 0 for a metric the
/// workload does not produce.
fn select(measured: &[Metric], names: &[(&'static str, &'static str)]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric { name, value, unit }
        })
        .collect()
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (steal0, total0) = report::cpu_jiffies();
    let mut out: Outcome = match args.workload.as_str() {
        "serve-steady" => serve::run(false, args.seed, args.seconds, args.traced, args.plant),
        "serve-rejoin" => serve::run(true, args.seed, args.seconds, args.traced, args.plant),
        "fusion-design" => design::run(args.seed, args.seconds, args.traced, args.plant),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (steal1, total1) = report::cpu_jiffies();
    let steal_pct =
        100.0 * steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64;
    out.info("host_steal_pct", format!("{steal_pct:.2}"));
    out.info(
        "calibration_ns_per_op",
        report::calibration_ns().to_string(),
    );
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.layer("failed_ratio", failed_ratio, "ratio");
    if args.traced {
        let path = std::path::Path::new("perfbench/traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &out.spans) {
            Ok(()) => out.info("trace_file", format!("\"{}\"", path.display())),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    let correct = out.failed == 0;
    let end_to_end = select(&out.end_to_end, &END_TO_END);
    let per_layer = select(&out.per_layer, &PER_LAYER);
    let mut info: Vec<String> = vec![
        format!("\"workload\": \"{}\"", args.workload),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", args.traced),
        format!("\"failed_ratio\": {failed_ratio}"),
    ];
    info.extend(out.info.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    info.push(format!("\"end_to_end\": {}", metrics_json(&end_to_end)));
    info.push(format!("\"per_layer\": {}", metrics_json(&per_layer)));
    println!("{{{}}}", info.join(", "));
    let reported = if args.traced { &per_layer } else { &end_to_end };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics_json(reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
