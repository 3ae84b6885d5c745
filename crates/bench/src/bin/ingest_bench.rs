//! End-to-end events/sec benchmark for the batched ingestion front-end.
//!
//! Run with: `cargo run --release -p fsm-fusion-bench --bin ingest_bench`
//!
//! Drives the paper's sensor-network scenario through the full serving
//! path — N client threads blocking-push into bounded queues, the
//! aggregator thread draining them into batches (flushed at the size cap or
//! when the queues run dry), a
//! [`ParallelServerGroup`] applying them — and records sustained events/sec
//! plus p50/p99 enqueue-to-apply latency into the `ingest` section of
//! `BENCH_fusion.json` (upserted next to `perf_baseline`'s sections).
//!
//! Latency is measured in two composable halves.  The pipeline itself
//! timestamps every event at enqueue and samples enqueue→flush at flush
//! time; the flush→apply half is bounded with *marker generations*: every
//! [`MARKER_EVERY_BATCHES`] batches the aggregator requests an
//! asynchronous report round and times how long until every server answers
//! it.  Command channels are FIFO per server, so a marker's completion
//! proves every batch flushed before it was applied.  The reported
//! percentile is `percentile(enqueue→flush) + percentile(marker RTT)` — a
//! slight upper bound (the marker RTT includes the reply hop), which is
//! the conservative side to gate on.
//!
//! Alongside the main run, a sweep re-measures throughput across batch-size
//! caps through [`SensorNetwork::serve`], plus
//! one point with a server killed mid-run to document that fault isolation
//! (divert + backoff + isolate) does not stall the healthy lanes.
//!
//! Flags:
//!
//! * `--events N` — events in the main threaded run (default 1,000,000).
//! * `--clients N` — producer threads (default 4).
//! * `--batch N` — the batch-size cap for the main run (default 256).
//! * `--out FILE` — the JSON to upsert (default `BENCH_fusion.json`).
//! * `--check` — compare against the `ingest` section already in the out
//!   file and exit non-zero if calibration-normalized events/sec fell more
//!   than 2×; the file is left untouched.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsm_dfsm::Event;
use fsm_distsys::{
    IngestConfig, IngestMetrics, IngestPipeline, OsClock, OsEnvironment, ParallelServerGroup,
    SensorNetwork, ServerGroup,
};
use fsm_fusion_bench::{extract_json_section, percentile, upsert_json_section};
use fsm_fusion_core::MachineReport;

/// Throughput may fall by at most this calibration-normalized factor in
/// `--check` mode before the run fails (mirrors `perf_baseline`'s gate).
const REGRESSION_FACTOR: f64 = 2.0;

/// Sensors in the scenario; the group serves these plus the one analytic
/// backup, so five servers total.
const SENSORS: usize = 4;

/// The aggregator requests a marker report round every this many batches.
const MARKER_EVERY_BATCHES: u64 = 64;

/// A fixed chunk of pure integer work (the same splitmix64 loop as
/// `perf_baseline`'s calibration op) timed alongside the run, so `--check`
/// compares work per cycle instead of absolute machine speed.
fn calibration_ns() -> f64 {
    fn round() -> f64 {
        let start = Instant::now();
        let mut x = 0xDEAD_BEEFu64;
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            acc = acc.wrapping_add(z ^ (z >> 31));
        }
        std::hint::black_box(acc);
        start.elapsed().as_nanos() as f64
    }
    round(); // warm-up
    let mut rounds = [0f64; 5];
    for r in rounds.iter_mut() {
        *r = round();
    }
    rounds.sort_unstable_by(f64::total_cmp);
    rounds[rounds.len() / 2]
}

struct MainRun {
    events: usize,
    clients: usize,
    events_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    metrics: IngestMetrics,
}

/// The main measured run: `clients` OS threads blocking-push the workload
/// round-robin while this thread pumps, flushes and tracks markers.
fn threaded_run(
    net: &SensorNetwork,
    events: usize,
    clients: usize,
    config: &IngestConfig,
) -> MainRun {
    let machines = net.serving_machines();
    let servers = machines.len();
    let mut group = ParallelServerGroup::spawn(&machines);
    let mut pipeline = IngestPipeline::new(clients, servers, config);
    let workload = net.random_workload(events, 1);
    let stream: Vec<Event> = workload.iter().cloned().collect();

    let clock = OsClock::new();
    let finished = Arc::new(AtomicUsize::new(0));
    let mut marker_rtt_ns: Vec<u64> = Vec::new();
    let start = Instant::now();

    std::thread::scope(|scope| {
        for c in 0..clients {
            let handle = pipeline.client(c);
            let finished = Arc::clone(&finished);
            let slice: Vec<Event> = stream.iter().skip(c).step_by(clients).cloned().collect();
            scope.spawn(move || {
                for event in slice {
                    handle.push_blocking(event, clock.now());
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }

        // Aggregator: pump (each pump flushes), and float a bounded window
        // of marker report rounds to time the flush→apply half.
        let mut outstanding: VecDeque<(u64, Instant)> = VecDeque::new();
        let mut answers: HashMap<u64, usize> = HashMap::new();
        let mut marked_at_batches = 0u64;
        loop {
            let progressed = pipeline.pump(&mut group, clock.now());
            let batches = pipeline.metrics().batches;
            if batches >= marked_at_batches + MARKER_EVERY_BATCHES && outstanding.len() < 8 {
                marked_at_batches = batches;
                outstanding.push_back((group.request_reports(), Instant::now()));
            }
            while let Some((_, generation, _)) = group.try_recv_report() {
                *answers.entry(generation).or_insert(0) += 1;
            }
            while let Some(&(generation, sent)) = outstanding.front() {
                if answers.get(&generation).copied().unwrap_or(0) < servers {
                    break;
                }
                marker_rtt_ns.push(sent.elapsed().as_nanos() as u64);
                answers.remove(&generation);
                outstanding.pop_front();
            }
            if finished.load(Ordering::Acquire) == clients && pipeline.queued() == 0 {
                pipeline.drain(&mut group, clock.now());
                break;
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
    });

    // One final marker after the tail flush, so the elapsed time covers
    // every event actually reaching its server's machine.
    let generation = group.request_reports();
    let sent = Instant::now();
    let mut answered = vec![false; servers];
    while answered.iter().filter(|a| **a).count() < servers {
        match group.recv_report_timeout(Duration::from_secs(10)) {
            Some((server, g, _)) if g == generation => answered[server] = true,
            Some(_) => {} // stale reply from an abandoned in-flight marker
            None => panic!("servers stopped answering the final marker"),
        }
    }
    marker_rtt_ns.push(sent.elapsed().as_nanos() as u64);
    let elapsed = start.elapsed();

    // Cross-check: the analytic backup counted every event mod 3.
    let reports = group.collect_reports().expect("all servers stay healthy");
    assert_eq!(
        reports[servers - 1],
        MachineReport::State(events % SensorNetwork::MODULUS),
        "the backup's count must match the workload"
    );
    group.shutdown();

    let mut enqueue_to_flush = pipeline.take_latency_samples();
    let metrics = pipeline.metrics();
    assert_eq!(
        metrics.flushed_events, events as u64,
        "every event must flush"
    );
    let mut compose = |p: f64| {
        (percentile(&mut enqueue_to_flush, p) + percentile(&mut marker_rtt_ns, p)) as f64 / 1_000.0
    };
    MainRun {
        events,
        clients,
        events_per_sec: events as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: compose(50.0),
        p99_us: compose(99.0),
        metrics,
    }
}

struct SweepPoint {
    label: String,
    batch_max: usize,
    events: usize,
    events_per_sec: f64,
    diverted: u64,
}

/// Throughput at one batch-size cap through the single-threaded
/// [`SensorNetwork::serve`] path (the same code the tests pin).
fn sweep_point(net: &SensorNetwork, events: usize, batch_max: usize) -> SweepPoint {
    let env = OsEnvironment::seeded(7);
    let workload = net.random_workload(events, 7);
    let config = IngestConfig::new().batch_max(batch_max);
    let report = net
        .serve(&env, 2, &workload, &config)
        .expect("sweep serve succeeds");
    assert!(report.missing.is_empty(), "no server may go missing");
    SweepPoint {
        label: format!("batch{batch_max}"),
        batch_max,
        events,
        events_per_sec: report.events_per_sec,
        diverted: report.metrics.diverted,
    }
}

/// The fault-isolation point: kill one server mid-run and measure that the
/// healthy lanes keep absorbing traffic (its batches divert, the plain
/// group's restart probe fails `NotDurable` and the lane isolates).
fn killed_point(net: &SensorNetwork, events: usize) -> SweepPoint {
    let machines = net.serving_machines();
    let mut group = ParallelServerGroup::spawn(&machines);
    let config = IngestConfig::new()
        .batch_max(256)
        .retry_base(Duration::from_millis(1))
        .divert_cap(events);
    let mut pipeline = IngestPipeline::new(1, machines.len(), &config);
    let workload = net.random_workload(events, 99);
    let clock = OsClock::new();
    let start = Instant::now();
    for (j, event) in workload.iter().enumerate() {
        if j == events / 2 {
            pipeline.kill_server(&mut group, 0, clock.now());
        }
        // `push` pumps when the queue fills; pumping after every push
        // would flush one-event batches.
        pipeline.push(&mut group, 0, event.clone(), clock.now());
    }
    pipeline.drain(&mut group, clock.now());
    let elapsed = start.elapsed();
    let partial = ServerGroup::try_collect_reports(&mut group);
    assert!(partial[0].is_none(), "the victim must be the one missing");
    assert!(
        partial[1..].iter().all(|r| r.is_some()),
        "killing one server must not stall its siblings"
    );
    let metrics = pipeline.metrics();
    assert!(metrics.diverted > 0, "the victim's tail must have diverted");
    group.shutdown();
    SweepPoint {
        label: "one_server_killed".into(),
        batch_max: 256,
        events,
        events_per_sec: events as f64 / elapsed.as_secs_f64().max(1e-9),
        diverted: metrics.diverted,
    }
}

/// Renders the whole `"ingest": { ... }` section (no trailing comma), ready
/// for [`upsert_json_section`].
fn render_ingest(main: &MainRun, sweep: &[SweepPoint], cal_ns: f64) -> String {
    let mut s = String::new();
    s.push_str("\"ingest\": {\n");
    let _ = writeln!(s, "    \"events\": {},", main.events);
    let _ = writeln!(s, "    \"clients\": {},", main.clients);
    let _ = writeln!(s, "    \"calibration_ns_per_op\": {cal_ns:.1},");
    let _ = writeln!(s, "    \"events_per_sec\": {:.1},", main.events_per_sec);
    let _ = writeln!(s, "    \"enqueue_to_apply_p50_us\": {:.1},", main.p50_us);
    let _ = writeln!(s, "    \"enqueue_to_apply_p99_us\": {:.1},", main.p99_us);
    let m = &main.metrics;
    let _ = writeln!(
        s,
        "    \"batches\": {}, \"size_flushes\": {}, \"idle_flushes\": {}, \"max_batch\": {},",
        m.batches, m.size_flushes, m.idle_flushes, m.max_batch
    );
    s.push_str("    \"sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        let comma = if i + 1 == sweep.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "      {{ \"label\": \"{}\", \"batch_max\": {}, \"events\": {}, \"events_per_sec\": {:.1}, \"diverted\": {} }}{comma}",
            p.label, p.batch_max, p.events, p.events_per_sec, p.diverted
        );
    }
    s.push_str("    ]\n");
    s.push_str("  }");
    s
}

/// Pulls one `"key": <number>` field out of a rendered section.
fn json_number(section: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let pos = section.find(&needle)?;
    let rest = section[pos + needle.len()..].trim_start();
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn main() -> ExitCode {
    let mut events = 1_000_000usize;
    let mut clients = 4usize;
    let mut batch_max = 256usize;
    let mut out_path = String::from("BENCH_fusion.json");
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--events" => events = take("--events").parse().expect("--events: integer"),
            "--clients" => clients = take("--clients").parse().expect("--clients: integer"),
            "--batch" => batch_max = take("--batch").parse().expect("--batch: integer"),
            "--out" => out_path = take("--out"),
            "--check" => check = true,
            other => {
                eprintln!(
                    "unknown flag `{other}`; use [--events N] [--clients N] [--batch N] \
                     [--out FILE] [--check]"
                );
                return ExitCode::from(2);
            }
        }
    }
    let events = events.max(1_000);
    let clients = clients.max(1);

    let net = SensorNetwork::new(SENSORS).expect("SENSORS is non-zero");
    let cal_ns = calibration_ns();
    let config = IngestConfig::new().batch_max(batch_max);

    let main_run = threaded_run(&net, events, clients, &config);
    println!(
        "ingest {} events x {} clients: {:>12.0} events/sec   p50 {:.1} us   p99 {:.1} us",
        main_run.events,
        main_run.clients,
        main_run.events_per_sec,
        main_run.p50_us,
        main_run.p99_us
    );
    println!(
        "       batches={} size={} idle={} max_batch={}",
        main_run.metrics.batches,
        main_run.metrics.size_flushes,
        main_run.metrics.idle_flushes,
        main_run.metrics.max_batch
    );

    let sweep_events = (events / 20).max(10_000);
    let sweep = vec![
        sweep_point(&net, sweep_events, 64),
        sweep_point(&net, sweep_events, 256),
        sweep_point(&net, sweep_events, 1024),
        killed_point(&net, sweep_events),
    ];
    for p in &sweep {
        println!(
            "sweep  {:<22} {:>12.0} events/sec   (diverted {})",
            p.label, p.events_per_sec, p.diverted
        );
    }

    let existing = std::fs::read_to_string(&out_path).unwrap_or_default();
    if check {
        let Some(section) = extract_json_section(&existing, "ingest") else {
            eprintln!("{out_path} has no ingest section to check against");
            return ExitCode::FAILURE;
        };
        let (Some(base_eps), Some(base_cal)) = (
            json_number(&section, "events_per_sec"),
            json_number(&section, "calibration_ns_per_op"),
        ) else {
            eprintln!("baseline ingest section is missing events_per_sec/calibration");
            return ExitCode::FAILURE;
        };
        // events/sec scales inversely with machine slowness; multiplying by
        // the calibration ns cancels clock speed out of the comparison.
        let fresh_norm = main_run.events_per_sec * cal_ns;
        let base_norm = base_eps * base_cal;
        let ratio = base_norm / fresh_norm;
        println!(
            "check  events_per_sec {ratio:>6.2}x slower than baseline (limit {REGRESSION_FACTOR}x)"
        );
        if ratio > REGRESSION_FACTOR {
            eprintln!(
                "ingest throughput regression: {:.0} events/sec (normalized {fresh_norm:.3e}) \
                 vs baseline {base_eps:.0} (normalized {base_norm:.3e})",
                main_run.events_per_sec
            );
            return ExitCode::FAILURE;
        }
        println!("check passed: throughput within {REGRESSION_FACTOR}x of baseline");
        return ExitCode::SUCCESS;
    }

    let section = render_ingest(&main_run, &sweep, cal_ns);
    let updated = upsert_json_section(&existing, "ingest", &section);
    if let Err(e) = std::fs::write(&out_path, updated) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {out_path} (ingest section)");
    ExitCode::SUCCESS
}
