//! Fault tolerance for protocol state machines: MESI + TCP + the Figure 2
//! machines (the paper's table row 4), compared against replication.
//!
//! Run with: `cargo run --release --example protocol_fault_tolerance`
//! (release mode recommended: fusion generation for this row explores a
//! 176-state cross product).

use fsm_fusion::machines::{fig2_machine_a, fig2_machine_b, mesi, tcp};
use fsm_fusion::prelude::*;

fn main() {
    let machines = vec![mesi(), tcp(), fig2_machine_a(), fig2_machine_b()];
    println!("Machines:");
    for m in &machines {
        println!(
            "  {:<4} {} states, {} events",
            m.name(),
            m.size(),
            m.alphabet().len()
        );
    }

    // Tolerate one crash fault across the whole group.  The session owns
    // the kernel, scratch and initial fault graph of the generation.
    let mut session = FusionConfig::new().build();
    let mut fused = FusedSystem::with_session(&machines, 1, FaultModel::Crash, &mut session)
        .expect("fusion generation succeeds");
    let mut replicated = ReplicatedSystem::new(&machines, 1, FaultModel::Crash)
        .expect("replication always succeeds");

    println!(
        "\n|top| = {} states; fusion backup: {} machine(s), {} states total product; \
         replication backup: {} machines, {} states total product.",
        fused.product().size(),
        fused.num_backups(),
        fused.fusion_state_space(),
        replicated.num_backups(),
        replicated.backup_state_space(),
    );

    // Drive both systems with the same protocol workload: a mix of cache
    // operations, TCP segments and binary events.
    let workload = Seeded(7).workload_over_machines(&machines, 2_000);
    fused.apply_workload(&workload);
    replicated.apply_workload(&workload);

    println!("\nAfter {} events:", workload.len());
    for (i, machine) in machines.iter().enumerate() {
        println!(
            "  {:<4} state = {}",
            machine.name(),
            fused
                .server(i)
                .machine()
                .state_name(fused.server(i).current_state())
        );
    }

    // Crash the TCP machine in both systems and recover.
    fused.crash(1).expect("server exists");
    replicated.crash(1, 0).expect("replica exists");
    let fused_outcome = fused.recover().expect("within fault budget");
    let replicated_states = replicated.recover().expect("within fault budget");

    let tcp_state = fused.server(1).current_state();
    println!(
        "\nTCP connection state recovered by fusion:      {}",
        machines[1].state_name(tcp_state)
    );
    println!(
        "TCP connection state recovered by replication: {}",
        machines[1].state_name(replicated_states[1])
    );
    assert!(fused_outcome.matches_oracle);
    assert_eq!(tcp_state, replicated_states[1]);

    println!(
        "\nBoth strategies recover the same state; fusion used {} backup states, replication {}.",
        fused.fusion_state_space(),
        replicated.backup_state_space()
    );
    println!("Protocol fault-tolerance example finished successfully.");
}
