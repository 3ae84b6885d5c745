//! `fusion-design`: generating backups, the paper's offline cost, as a
//! closed loop on one thread.
//!
//! Each iteration runs three jobs through explicitly configured
//! [`FusionSession`]s:
//!
//! * (a) the five Table 1 machine sets, each generated cold;
//! * (b) eight disjoint mod-3 counters (|⊤| = 6561, f = 1) through
//!   `build_product` + `generate_fusion`, cold;
//! * (c) a warm `update_top` add/remove cycle on a replication-shaped
//!   family (six counters, four copies each, |⊤| = 729), followed by
//!   `generate_top_fusion`.
//!
//! Every result is checked with `is_fusion` and against the backup sizes
//! recorded below; the warm re-fusion must equal a cold session's.

use std::time::Instant;

use fsm_dfsm::{Dfsm, ReachableProduct};
use fsm_distsys::Seeded;
use fsm_fusion_core::{
    is_fusion, projection_partitions, ClosureKernel, Engine, FaultGraph, FusionConfig,
    FusionGeneration, FusionSession, Partition, TopDelta,
};
use fsm_machines::{mod_counter, table1_rows, MachineSet};

use crate::report::{
    cpu_jiffies, least_stolen, median, nproc, peak_rss_mb, percentile, steal_share,
    timed_at_reference, timed_setup, Outcome,
};
use crate::trace::{self, Layer};

/// Backup sizes Algorithm 2 produces for each Table 1 row, by label.
const TABLE1_SIZES: [(&str, &[usize]); 5] = [
    ("MESI, 1-Counter, 0-Counter, Shift Register", &[96, 96]),
    (
        "Even Parity, Odd Parity, Toggle, Pattern Gen, MESI",
        &[16, 16, 32],
    ),
    ("1-Counter, 0-Counter, Divider, A, B", &[36, 36]),
    ("MESI, TCP, A, B", &[176]),
    ("Pattern Generator, TCP, A, B", &[77, 88]),
];
/// Backup sizes for the |⊤| = 6561 counter family at f = 1.
const N6561_SIZES: &[usize] = &[3];
/// Faults the re-fused replication-shaped family must tolerate.
const REFUSION_F: usize = 4;
/// Backup sizes of the warm re-fusion.
const REFUSION_SIZES: &[usize] = &[3, 3];
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 25;

/// `count` mod-`modulus` counters over disjoint events: |⊤| =
/// `modulus^count`.
fn counter_family(count: usize, modulus: usize) -> Vec<Dfsm> {
    let alphabet: Vec<String> = (0..count).map(|i| format!("e{i}")).collect();
    let refs: Vec<&str> = alphabet.iter().map(String::as_str).collect();
    (0..count)
        .map(|i| mod_counter(&format!("C{i}"), modulus, &format!("e{i}"), &refs))
        .collect()
}

fn session() -> FusionSession {
    FusionConfig::new()
        .engine(Engine::Sequential)
        .workers(1)
        .build()
}

/// Everything set up before the loop: the inputs and the warm session.
struct Setup {
    rows: Vec<MachineSet>,
    big: Vec<Dfsm>,
    family: Vec<Dfsm>,
    warm: FusionSession,
}

fn set_up(seed: u64) -> Setup {
    // The seed orders the Table 1 rows and picks which counter's fourth
    // replica the re-fusion cycle adds and removes.
    let all = table1_rows();
    let keys = Seeded(seed).split(0).observations(1 << 20, all.len());
    let mut order: Vec<usize> = (0..all.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    let rows = order.iter().map(|&i| all[i].clone()).collect();
    let primaries = counter_family(6, 3);
    let cycled = Seeded(seed).split(1).observations(primaries.len(), 1)[0];
    let mut family: Vec<Dfsm> = Vec::with_capacity(24);
    for copy in 0..4 {
        for (i, m) in primaries.iter().enumerate() {
            if copy < 3 || i != cycled {
                family.push(m.clone());
            }
        }
    }
    family.push(primaries[cycled].clone());
    let last = family.len() - 1;
    let mut warm = session();
    warm.install_top(&family[..last])
        .expect("install the family");
    // The first add has nothing to remap and builds cold; every cycle
    // after it stays warm.
    warm.update_top(TopDelta::AddMachine(family[last].clone()))
        .expect("prime add");
    warm.update_top(TopDelta::RemoveMachine(last))
        .expect("prime remove");
    warm.generate_top_fusion(REFUSION_F).expect("prime fusion");
    Setup {
        rows,
        big: counter_family(8, 3),
        family,
        warm,
    }
}

/// One generated fusion with what its check needs.
struct Fused {
    product: ReachableProduct,
    originals: Vec<Partition>,
    generation: FusionGeneration,
    /// Wall time of `build_product`.
    build_ms: f64,
}

fn fuse_cold(machines: &[Dfsm], f: usize) -> Fused {
    let mut s = session();
    let start = Instant::now();
    let product =
        trace::span(Layer::ProductBuild, || s.build_product(machines)).expect("product builds");
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    let originals = projection_partitions(&product);
    let generation = trace::span(Layer::GenerateSearch, || {
        s.generate_fusion(product.top(), &originals, f)
    })
    .expect("Algorithm 2 succeeds");
    Fused {
        product,
        originals,
        generation,
        build_ms,
    }
}

/// Checks one result: a fusion for `f` with the recorded backup sizes.
fn check_fused(out: &mut Outcome, fused: &Fused, f: usize, sizes: &[usize], plant: bool) {
    let mut partitions = fused.generation.partitions.clone();
    if plant {
        partitions.pop(); // a wrong output the check must catch
    }
    out.check(is_fusion(
        fused.product.size(),
        &fused.originals,
        &partitions,
        f,
    ));
    out.check(fused.generation.machine_sizes() == sizes);
}

/// Runs `fusion-design` for `seconds`.
pub fn run(seed: u64, seconds: f64, traced: bool, plant: bool) -> Outcome {
    let (setup, setup_s) = timed_setup(SETUP_REPS, || set_up(seed));
    let Setup {
        rows,
        big,
        family,
        mut warm,
    } = setup;
    let last = family.len() - 1;
    let mut out = Outcome::default();

    // The warm session must re-fuse exactly what a cold one generates.
    let cold = fuse_cold(&family[..last], REFUSION_F);
    let warm_first = warm.generate_top_fusion(REFUSION_F).expect("warm fusion");
    out.check(warm_first.partitions == cold.generation.partitions);
    check_fused(&mut out, &cold, REFUSION_F, REFUSION_SIZES, false);

    let mut iteration_us = Vec::new();
    let mut traced_us = Vec::new();
    let mut raw_us = Vec::new();
    let (mut table1_s, mut n6561_s, mut refusion_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut search_ms, mut product_ms, mut update_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Vec<Vec<Partition>>, Vec<Partition>)> = None;
    let mut last_table1: Vec<Fused> = Vec::new();
    let mut last_big: Option<Fused> = None;
    let mut delta_counts = (0u64, 0usize);
    let mut candidates = 0usize;
    let mut descents = 0usize;
    let loop_start = Instant::now();
    let mut iterations = 0usize;
    // Iteration 0 warms the process up; it is checked but not timed.
    while iterations < 3 || loop_start.elapsed().as_secs_f64() < seconds {
        // Traced runs alternate traced and untraced iterations, so the run
        // measures its own tracing overhead.
        let on = traced && iterations % 2 == 1;
        trace::set_enabled(on);
        let jiffies = cpu_jiffies();
        let ((table1, big_fused, refusion, cycle_ms, job_ms), scaled_s, raw_s) =
            timed_at_reference(|| {
                trace::span(Layer::DesignIteration, || {
                    let t = Instant::now();
                    let table1: Vec<Fused> = rows
                        .iter()
                        .map(|row| fuse_cold(&row.machines, row.f))
                        .collect();
                    let a = t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    let big_fused = fuse_cold(&big, 1);
                    let big_build_ms = big_fused.build_ms;
                    let b = t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    let up = trace::span(Layer::DeltaUpdate, || {
                        warm.update_top(TopDelta::AddMachine(family[last].clone()))
                    })
                    .expect("warm add");
                    let down = trace::span(Layer::DeltaUpdate, || {
                        warm.update_top(TopDelta::RemoveMachine(last))
                    })
                    .expect("warm remove");
                    let cycle_ms = t.elapsed().as_secs_f64() * 1e3;
                    let refusion = trace::span(Layer::GenerateSearch, || {
                        warm.generate_top_fusion(REFUSION_F)
                    })
                    .expect("warm fusion");
                    let c = t.elapsed().as_secs_f64();
                    (
                        table1,
                        big_fused,
                        (refusion, up, down),
                        cycle_ms,
                        (a, b, c, big_build_ms),
                    )
                })
            });
        let elapsed_us = scaled_s * 1e6;
        raw_us.push(raw_s * 1e6);
        let steal = steal_share(jiffies, cpu_jiffies());
        if iterations > 0 {
            if on {
                traced_us.push(elapsed_us);
            } else {
                iteration_us.push((elapsed_us, steal));
            }
            table1_s.push(job_ms.0);
            n6561_s.push(job_ms.1);
            refusion_ms.push(job_ms.2 * 1e3);
            product_ms.push(job_ms.3);
            update_ms.push(cycle_ms);
            search_ms.push(
                table1
                    .iter()
                    .map(|f| f.generation.stats.elapsed_micros as f64 / 1e3)
                    .sum::<f64>(),
            );
        }
        let (refusion, up, down) = refusion;
        out.check(!up.graph_rebuilt && !down.graph_rebuilt);
        delta_counts = (
            up.closures_remapped + down.closures_remapped,
            up.graph_stripes_touched + down.graph_stripes_touched,
        );

        // Checks run outside the timed jobs: the first iteration in full,
        // later ones against the first's partitions.
        let parts: Vec<Vec<Partition>> = table1
            .iter()
            .map(|f| f.generation.partitions.clone())
            .collect();
        match &first {
            None => {
                for (row, fused) in rows.iter().zip(&table1) {
                    let sizes = TABLE1_SIZES
                        .iter()
                        .find(|(label, _)| *label == row.label)
                        .map_or(&[][..], |(_, s)| *s);
                    check_fused(&mut out, fused, row.f, sizes, false);
                }
                check_fused(&mut out, &big_fused, 1, N6561_SIZES, plant);
                candidates = table1
                    .iter()
                    .map(|f| f.generation.stats.candidates_examined)
                    .sum();
                descents = table1
                    .iter()
                    .map(|f| f.generation.stats.descent_steps)
                    .sum();
                first = Some((parts, big_fused.generation.partitions.clone()));
            }
            Some((t1, b)) => {
                out.check(&parts == t1);
                out.check(&big_fused.generation.partitions == b);
            }
        }
        out.check(refusion.partitions == cold.generation.partitions);
        last_table1 = table1;
        last_big = Some(big_fused);
        iterations += 1;
    }
    trace::set_enabled(traced);

    // Layer probes on the last iteration's inputs, timed alone.
    let mut probes = Probes::default();
    if traced {
        probes = probe_layers(&last_table1, last_big.as_ref().expect("ran once"));
    }
    trace::set_enabled(false);
    let trace = trace::take();

    out.info(
        "jobs_s",
        format!(
            "[{}]",
            (0..table1_s.len())
                .map(|i| format!(
                    "[{:.3},{:.3},{:.4}]",
                    table1_s[i],
                    n6561_s[i],
                    refusion_ms[i] / 1e3
                ))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    // Iterations the host stole much of the CPU from are left out; the two
    // least disturbed always stay.
    let used = least_stolen(iteration_us.clone(), 2);
    let p50 = median(&mut used.clone());
    let mut as_ns: Vec<u64> = used.iter().map(|&u| (u * 1e3) as u64).collect();
    let p99 = percentile(&mut as_ns, 99.0) as f64 / 1e3;
    out.e2e("setup_s", setup_s, "s");
    out.e2e("p50_latency_us", p50, "us");
    out.e2e("p99_latency_us", p99, "us");
    out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");

    out.layer("product.build_ms", median(&mut product_ms), "ms");
    out.layer("fault_graph.build_ms", probes.graph_build_ms, "ms");
    out.layer("fault_graph.weakest_edges_us", probes.weakest_us, "us");
    out.layer("fault_graph.speculate_us", probes.speculate_us, "us");
    out.layer("closed.close_merged_us", probes.close_merged_us, "us");
    out.layer("generate.search_ms", median(&mut search_ms), "ms");
    out.layer("generate.candidates_examined", candidates as f64, "count");
    out.layer(
        "generate.descent_ratio",
        descents as f64 / candidates.max(1) as f64,
        "ratio",
    );
    out.layer("delta.update_ms", median(&mut update_ms), "ms");
    out.layer("delta.closures_remapped", delta_counts.0 as f64, "count");
    out.layer("delta.stripes_touched", delta_counts.1 as f64, "count");
    let cache = warm.cache_stats();
    out.layer(
        "session.cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
    );
    out.layer("design.table1_s", median(&mut table1_s), "s");
    out.layer("design.fusion_n6561_s", median(&mut n6561_s), "s");
    out.layer("design.refusion_ms", median(&mut refusion_ms), "ms");
    let it = trace.get(Layer::DesignIteration);
    out.layer(
        "trace.coverage",
        if it.total_ns == 0 {
            0.0
        } else {
            1.0 - it.self_ns as f64 / it.total_ns as f64
        },
        "ratio",
    );
    let overhead = if traced_us.is_empty() {
        0.0
    } else {
        (median(&mut traced_us) / p50 - 1.0) * 100.0
    };
    out.layer("trace.overhead_pct", overhead, "%");

    out.info("nproc", nproc().to_string());
    out.info("driver_threads", "1");
    out.info("iterations", iterations.to_string());
    out.info("quiet_iterations", used.len().to_string());
    out.info(
        "iteration_raw_us",
        format!(
            "[{}]",
            raw_us
                .iter()
                .map(|u| format!("{u:.0}"))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    out.info(
        "table1_order",
        format!(
            "[{}]",
            rows.iter()
                .map(|r| format!("\"{}\"", r.label))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    out.info(
        "table1_sizes",
        format!(
            "[{}]",
            last_table1
                .iter()
                .map(|f| format!("{:?}", f.generation.machine_sizes()))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    out.info(
        "n6561_sizes",
        format!(
            "{:?}",
            last_big
                .as_ref()
                .map_or(Vec::new(), |f| f.generation.machine_sizes())
        ),
    );
    out.info(
        "refusion_sizes",
        format!("{:?}", cold.generation.machine_sizes()),
    );
    out.info("refusion_f", REFUSION_F.to_string());
    out.spans = trace.spans;
    out
}

#[derive(Default)]
struct Probes {
    graph_build_ms: f64,
    weakest_us: f64,
    speculate_us: f64,
    close_merged_us: f64,
}

/// Times the fault graph of the |⊤| = 6561 run and the closure kernel of
/// the Table 1 tops alone (median of a few calls each).
fn probe_layers(table1: &[Fused], big: &Fused) -> Probes {
    fn med_us<T>(reps: usize, layer: Layer, mut f: impl FnMut() -> T) -> f64 {
        let mut us: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(trace::span(layer, &mut f));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&mut us)
    }
    let n = big.product.size();
    let graph_build_ms = med_us(3, Layer::FaultGraphBuild, || {
        FaultGraph::from_partitions(n, &big.originals)
    }) / 1e3;
    let graph = FaultGraph::from_partitions(n, &big.originals);
    let weakest_us = med_us(5, Layer::FaultGraphWeakest, || graph.weakest_edges());
    let candidate = &big.generation.partitions[0];
    let speculate_us = med_us(21, Layer::FaultGraphSpeculate, || {
        graph.speculate(candidate)
    });
    let mut close_us = Vec::new();
    for fused in table1 {
        let kernel = ClosureKernel::new(fused.product.top());
        let p = &fused.originals[0];
        close_us.push(med_us(21, Layer::ClosedCloseMerged, || {
            kernel.close_merged(p, 0, 1)
        }));
    }
    Probes {
        graph_build_ms,
        weakest_us,
        speculate_us,
        close_merged_us: close_us.iter().sum::<f64>() / close_us.len().max(1) as f64,
    }
}
