//! Scaling experiments beyond the paper's table:
//!
//! * Algorithm 2 generation time vs. `|⊤|` (the paper analyses
//!   `O(N³·|Σ|·f)`, Section 5.1),
//! * Algorithm 3 recovery latency vs. the number of machines
//!   (`O((n+m)·N)`, Section 5.2),
//! * sensor-network backup savings vs. the number of sensors (the Section 1
//!   and Section 7 claims: 1 backup for 100 sensors, 5 backups for 1000
//!   machines vs. 5000 for replication).
//!
//! Run with: `cargo run --release -p fsm-fusion-bench --bin scaling`

use std::time::Instant;

use fsm_distsys::SensorNetwork;
use fsm_fusion_bench::counter_family;
use fsm_fusion_core::{
    projection_partitions, replication_state_space, FusionConfig, FusionSession, MachineReport,
    RecoveryEngine,
};

fn main() {
    // One session drives both generation sweeps; successive machine sets
    // reset the cache (different tops) but share scratch buffers.
    let mut session = FusionConfig::new().build();
    generation_scaling(&mut session);
    recovery_scaling(&mut session);
    sensor_network_scaling();
}

fn generation_scaling(session: &mut FusionSession) {
    println!("== Algorithm 2 generation time vs |top| (f = 1) ==");
    println!(
        "{:>10} {:>8} {:>12} {:>16}",
        "machines", "|top|", "backup", "time (ms)"
    );
    for count in 2..=6usize {
        let machines = counter_family(count, 3);
        let product = session.build_product(&machines).unwrap();
        let originals = projection_partitions(&product);
        let start = Instant::now();
        let fusion = session
            .generate_fusion(product.top(), &originals, 1)
            .unwrap();
        let elapsed = start.elapsed();
        println!(
            "{:>10} {:>8} {:>12?} {:>16.2}",
            count,
            product.size(),
            fusion.machine_sizes(),
            elapsed.as_secs_f64() * 1000.0
        );
    }
    println!();
}

fn recovery_scaling(session: &mut FusionSession) {
    println!("== Algorithm 3 recovery latency vs number of machines (counters, f = 1) ==");
    println!("{:>10} {:>8} {:>16}", "machines", "|top|", "recover (µs)");
    for count in 2..=6usize {
        let machines = counter_family(count, 3);
        let product = session.build_product(&machines).unwrap();
        let originals = projection_partitions(&product);
        let fusion = session
            .generate_fusion(product.top(), &originals, 1)
            .unwrap();
        let mut engine = RecoveryEngine::new(product.size());
        for (i, p) in originals.iter().enumerate() {
            engine.add_machine(format!("M{i}"), p.clone()).unwrap();
        }
        for (i, p) in fusion.partitions.iter().enumerate() {
            engine.add_machine(format!("F{i}"), p.clone()).unwrap();
        }
        // Crash machine 0; everyone else reports its initial block.
        let mut reports = vec![MachineReport::Crashed];
        reports.extend((1..engine.num_machines()).map(|_| MachineReport::State(0)));
        let start = Instant::now();
        let iterations = 1000;
        for _ in 0..iterations {
            let r = engine.recover(&reports).unwrap();
            std::hint::black_box(r);
        }
        let elapsed = start.elapsed();
        println!(
            "{:>10} {:>8} {:>16.2}",
            count,
            product.size(),
            elapsed.as_secs_f64() * 1e6 / iterations as f64
        );
    }
    println!();
}

fn sensor_network_scaling() {
    println!("== Sensor network: fused backup vs replication (1 crash fault) ==");
    println!(
        "{:>10} {:>18} {:>24} {:>14}",
        "sensors", "fusion states", "replication states", "recover ok"
    );
    for n in [10usize, 50, 100, 500, 1000] {
        let mut net = SensorNetwork::new(n).unwrap();
        net.observe_randomly(10 * n, n as u64).unwrap();
        let truth = net.sensor_state(n / 2).unwrap();
        net.crash_sensor(n / 2).unwrap();
        let recovered = net.recover().unwrap();
        let (fusion, _) = net.backup_state_space_comparison();
        let replication = replication_state_space(&vec![3usize; n], 1);
        println!(
            "{:>10} {:>18} {:>24.3e} {:>14}",
            n,
            fusion,
            replication as f64,
            recovered[n / 2] == truth
        );
    }
    println!("\nPaper's claims: 100 sensors need one 3-state fused backup; 1000 machines with");
    println!("5 faults need 5 fused backups where replication needs 5000 extra machines.");
}
