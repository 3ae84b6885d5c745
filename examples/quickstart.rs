//! Quickstart: the paper's Figure 1 example, end to end.
//!
//! Two mod-3 counters (one counting `0` events, one counting `1` events)
//! are backed up by a single generated 3-state fusion machine.  We run a
//! workload, crash one counter, and recover its state from the survivor and
//! the backup — with a fraction of the state replication would need.
//!
//! Run with: `cargo run --example quickstart`

use fsm_fusion::prelude::*;

fn main() {
    // 1. The original machines (Fig. 1(i) and 1(ii)).
    let machines = fsm_fusion::machines::fig1_machines();
    println!("Original machines:");
    for m in &machines {
        println!("  {} with {} states", m.name(), m.size());
    }

    // 2. A fusion session: repeated generations through the same session
    //    reuse scratch buffers and the cached initial fault graph.
    let mut session = FusionConfig::new().build();

    // 3. Build a fusion-backed system tolerating one crash fault.
    let mut system = FusedSystem::with_session(&machines, 1, FaultModel::Crash, &mut session)
        .expect("fusion generation succeeds for the Fig. 1 counters");
    println!(
        "\nReachable cross product (top) has {} states; replication would need {} backup states, fusion uses {}.",
        system.product().size(),
        system.replication_state_space(),
        system.fusion_state_space(),
    );
    for (i, m) in system.fusion().machines.iter().enumerate() {
        println!("  generated backup F{}: {} states", i + 1, m.size());
    }

    // 4. Drive all machines with a common event stream (the environment).
    let workload = Workload::from_bits("011010011101");
    system.apply_workload(&workload);
    println!(
        "\nAfter {} events: 0-counter = {}, 1-counter = {}, backup = {}",
        workload.len(),
        system.server(0).current_state(),
        system.server(1).current_state(),
        system.server(2).current_state(),
    );

    // 5. Crash the 0-counter: its execution state is lost.
    system.crash(0).expect("server 0 exists");
    println!("\n!! machine {} crashed", system.server(0).name());

    // 6. Recover: Algorithm 3 votes over the surviving states.
    let outcome = system.recover().expect("one crash is within the budget");
    println!(
        "Recovered top state #{} with {} votes; repaired servers: {:?}",
        outcome.recovery.top_state, outcome.recovery.votes, outcome.repaired
    );
    println!(
        "0-counter restored to state {} (matches ground truth: {})",
        system.server(0).current_state(),
        outcome.matches_oracle
    );

    assert!(outcome.matches_oracle);
    println!("\nQuickstart finished successfully.");
}
