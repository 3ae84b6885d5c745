//! The paper's motivating scenario: a 100-sensor network backed by a single
//! fused 3-state machine (Section 1) instead of 100 replica sensors.
//!
//! Run with: `cargo run --example sensor_network`

use fsm_fusion::prelude::*;

fn main() {
    const SENSORS: usize = 100;
    const OBSERVATIONS: usize = 50_000;

    // The fused backup is the sum-mod-3 counter over every sensor's events:
    // a 3-state fusion known in closed form, so no 3^100-state product is
    // built.
    let mut network = SensorNetwork::new(SENSORS).expect("non-empty network");
    network
        .observe_randomly(OBSERVATIONS, 2024)
        .expect("observations only touch existing sensors");

    let (fusion_states, replication_states) = network.backup_state_space_comparison();
    println!(
        "{SENSORS} sensors, {OBSERVATIONS} observations processed.\n\
         Backup state space: fusion = {fusion_states} states, replication = {replication_states:e} states."
    );

    // A sensor dies; the month's count would be lost without a backup.
    let victim = 42;
    let truth = network
        .sensor_state(victim)
        .expect("alive before the crash");
    network.crash_sensor(victim).expect("sensor exists");
    println!("\n!! sensor {victim} crashed (its count mod 3 was {truth})");

    let recovered = network.recover().expect("one crash is within the budget");
    println!(
        "Recovered sensor {victim} count mod 3 = {} (correct: {})",
        recovered[victim],
        recovered[victim] == truth
    );
    assert_eq!(recovered[victim], truth);

    // Cross-check on a small network against the generic pipeline: Algorithm
    // 2 generates a different 3-state backup (it counts sensor0 up and the
    // other sensors down), and Algorithm 3 recovers the same count through it.
    let small = SensorNetwork::sensor_machines(4);
    let mut system = FusedSystem::new(&small, 1, FaultModel::Crash).expect("generation succeeds");
    let mut analytic = SensorNetwork::new(4).expect("non-empty network");
    system.apply_workload(&analytic.random_workload(400, 7));
    analytic
        .observe_randomly(400, 7)
        .expect("observations only touch existing sensors");
    system.crash(1).expect("sensor exists");
    analytic.crash_sensor(1).expect("sensor exists");
    system.recover().expect("one crash is within the budget");
    let sum = analytic.recover().expect("one crash is within the budget");
    println!(
        "\nCross-check with 4 sensors: |top| = {} states, generated backup sizes = {:?}, \
         sensor 1 recovers to {} through Algorithm 2's backup and {} through the sum counter",
        system.product().size(),
        system.fusion().machine_sizes(),
        system.server(1).current_state().index(),
        sum[1]
    );
    assert_eq!(system.fusion().machine_sizes(), vec![3]);
    assert_eq!(system.server(1).current_state().index(), sum[1]);

    println!("\nSensor network example finished successfully.");
}
