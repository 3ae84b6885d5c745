//! Criterion benchmarks for the complexity claims of Section 5.1: Algorithm
//! 2's running time as a function of `|⊤|` (the paper's bound is
//! `O(N³ · |Σ| · f)`) and of the fault count `f`, plus the sensor-network
//! scenario from the introduction.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use fsm_dfsm::ReachableProduct;
use fsm_distsys::{FusedSystem, SensorNetwork};
use fsm_fusion_bench::counter_family;
use fsm_fusion_core::{generate_fusion, projection_partitions, FaultModel};

fn bench_generation_vs_top_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation_scaling_top_size");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(10));
    for count in [2usize, 3, 4, 5] {
        let machines = counter_family(count, 3);
        let product = ReachableProduct::new(&machines).unwrap();
        let originals = projection_partitions(&product);
        group.bench_function(format!("f1_top{}", product.size()), |b| {
            b.iter(|| generate_fusion(product.top(), &originals, 1).unwrap())
        });
    }
    group.finish();
}

fn bench_generation_vs_fault_count(c: &mut Criterion) {
    let machines = counter_family(3, 3);
    let product = ReachableProduct::new(&machines).unwrap();
    let originals = projection_partitions(&product);
    let mut group = c.benchmark_group("generation_scaling_faults");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(10));
    for f in 1..=3usize {
        group.bench_function(format!("top27_f{f}"), |b| {
            b.iter(|| generate_fusion(product.top(), &originals, f).unwrap())
        });
    }
    group.finish();
}

fn bench_ablation_greedy_vs_exhaustive(c: &mut Criterion) {
    // Section 7 ablation: the greedy Algorithm 2 vs. the exhaustive optimal
    // search over the closed partition lattice, on the Fig. 1 counters.
    // Both return a 3-state backup here; the benchmark quantifies the cost
    // gap between the two strategies.
    use fsm_fusion_core::exhaustive_minimum_fusion;
    let machines = fsm_machines::fig1_machines();
    let product = ReachableProduct::new(&machines).unwrap();
    let originals = projection_partitions(&product);
    let mut group = c.benchmark_group("ablation_greedy_vs_exhaustive");
    group.sample_size(20);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));
    group.bench_function("greedy_algorithm2_f1", |b| {
        b.iter(|| generate_fusion(product.top(), &originals, 1).unwrap())
    });
    group.bench_function("exhaustive_optimum_f1", |b| {
        b.iter(|| {
            exhaustive_minimum_fusion(product.top(), &originals, 1, 1, 10_000)
                .unwrap()
                .unwrap()
        })
    });
    group.finish();
}

fn bench_sensor_network(c: &mut Criterion) {
    let mut group = c.benchmark_group("sensor_network");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(10));
    for sensors in [100usize, 1000] {
        group.bench_function(format!("observe_and_recover_{sensors}_sensors"), |b| {
            b.iter(|| {
                let mut net = SensorNetwork::new(sensors).unwrap();
                net.observe_randomly(10 * sensors, 1).unwrap();
                net.crash_sensor(sensors / 2).unwrap();
                net.recover().unwrap()
            })
        });
    }
    // The full pipeline (cross product + Algorithm 2 + Algorithm 3) for a
    // small network, for comparison.
    group.bench_function("exact_mode_4_sensors", |b| {
        b.iter(|| {
            let net = SensorNetwork::new(4).unwrap();
            let machines = SensorNetwork::sensor_machines(4);
            let mut sys = FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
            sys.apply_workload(&net.random_workload(40, 1));
            sys.crash(2).unwrap();
            sys.recover().unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generation_vs_top_size,
    bench_generation_vs_fault_count,
    bench_ablation_greedy_vs_exhaustive,
    bench_sensor_network
);
criterion_main!(benches);
