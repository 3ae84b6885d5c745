//! Criterion benchmarks for recovery (Algorithm 3, Section 5.2).
//!
//! The paper's complexity analysis is `O((n + m) · N)`: linear in the number
//! of machines and the size of the top machine.  These benchmarks sweep both
//! dimensions and also time the end-to-end system recovery (report
//! collection + vote + state restoration) and the replication baseline.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fsm_dfsm::ReachableProduct;
use fsm_distsys::{FusedSystem, ReplicatedSystem, Seeded, Workload};
use fsm_fusion_bench::counter_family;
use fsm_fusion_core::{
    generate_fusion, projection_partitions, FaultModel, MachineReport, RecoveryEngine,
};

/// Builds a recovery engine for `count` disjoint mod-3 counters plus their
/// single-fault fusion, along with a report vector in which machine 0 has
/// crashed.
fn engine_for(count: usize) -> (RecoveryEngine, Vec<MachineReport>) {
    let machines = counter_family(count, 3);
    let product = ReachableProduct::new(&machines).unwrap();
    let originals = projection_partitions(&product);
    let fusion = generate_fusion(product.top(), &originals, 1).unwrap();
    let mut engine = RecoveryEngine::new(product.size());
    for (i, p) in originals.iter().enumerate() {
        engine.add_machine(format!("M{i}"), p.clone()).unwrap();
    }
    for (i, p) in fusion.partitions.iter().enumerate() {
        engine.add_machine(format!("F{i}"), p.clone()).unwrap();
    }
    let mut reports = vec![MachineReport::Crashed];
    reports.extend((1..engine.num_machines()).map(|_| MachineReport::State(0)));
    (engine, reports)
}

fn bench_algorithm3_vote(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_algorithm3");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));
    for count in [2usize, 3, 4, 5] {
        let (engine, reports) = engine_for(count);
        group.bench_function(
            format!("vote_n{count}_top{}", 3usize.pow(count as u32)),
            |b| b.iter(|| engine.recover(&reports).unwrap()),
        );
    }
    group.finish();
}

fn bench_end_to_end_recovery(c: &mut Criterion) {
    let machines = fsm_machines::fig1_machines();
    let mut group = c.benchmark_group("recovery_end_to_end");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));

    group.bench_function("fused_crash_recover", |b| {
        b.iter_batched(
            || {
                let mut sys = FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
                sys.apply_workload(&Workload::from_bits("011010011"));
                sys.crash(0).unwrap();
                sys
            },
            |mut sys| sys.recover().unwrap(),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("replicated_crash_recover", |b| {
        b.iter_batched(
            || {
                let mut sys = ReplicatedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
                sys.apply_workload(&Workload::from_bits("011010011"));
                sys.crash(0, 0).unwrap();
                sys
            },
            |mut sys| sys.recover().unwrap(),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("fused_byzantine_recover", |b| {
        b.iter_batched(
            || {
                let mut sys = FusedSystem::new(&machines, 1, FaultModel::Byzantine).unwrap();
                sys.apply_workload(&Workload::from_bits("011010011"));
                sys.corrupt_differently(0).unwrap();
                sys
            },
            |mut sys| sys.recover().unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_event_throughput(c: &mut Criterion) {
    // How fast the fused system consumes events during normal (fault-free)
    // operation, compared with the replicated system — fusion runs fewer
    // servers, so it should be at least as fast.
    let machines = fsm_machines::table1_rows()[1].machines.clone();
    let workload = Seeded(3).workload_over_machines(&machines, 1_000);
    let mut group = c.benchmark_group("event_throughput_1000_events");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));
    group.bench_function("fused_f1", |b| {
        b.iter_batched(
            || FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap(),
            |mut sys| {
                sys.apply_workload(&workload);
                sys
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("replicated_f1", |b| {
        b.iter_batched(
            || ReplicatedSystem::new(&machines, 1, FaultModel::Crash).unwrap(),
            |mut sys| {
                sys.apply_workload(&workload);
                sys
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_algorithm3_vote,
    bench_end_to_end_recovery,
    bench_event_throughput
);
criterion_main!(benches);
