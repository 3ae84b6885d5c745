//! Byzantine fault tolerance: machines that lie about their state.
//!
//! An `(f, m)`-fusion tolerates `f` crash faults but only `⌊f/2⌋` Byzantine
//! faults (Theorem 2).  This example provisions the Figure 1 counters for
//! one Byzantine fault (so the generator targets `dmin > 2`), lets one
//! machine lie, shows that the liar is detected and out-voted, and then
//! demonstrates that two simultaneous liars defeat the same system.
//!
//! Run with: `cargo run --example byzantine_recovery`

use fsm_fusion::prelude::*;

fn main() {
    let machines = fsm_fusion::machines::fig1_machines();
    // One session serves both systems built in this example; the second
    // construction reuses the first one's kernel and initial fault graph.
    let mut session = FusionConfig::new().build();
    let mut system = FusedSystem::with_session(&machines, 1, FaultModel::Byzantine, &mut session)
        .expect("fusion generation succeeds");
    println!(
        "Provisioned for 1 Byzantine fault: {} original machines + {} backups (dmin target > 2).",
        system.num_originals(),
        system.num_backups()
    );

    let workload = Workload::from_bits("1101001011010");
    system.apply_workload(&workload);

    // One machine silently corrupts its state.
    let liar = 1;
    let truth = system.server(liar).current_state();
    let forged = system
        .corrupt_differently(liar)
        .expect("machine has >1 state");
    println!(
        "\nMachine {} lies: true state {}, reported state {}.",
        system.server(liar).name(),
        truth,
        forged
    );

    let outcome = system.recover().expect("one liar is tolerated");
    println!(
        "Recovery found top state #{}; suspected Byzantine machines: {:?}; liar corrected back to {}.",
        outcome.recovery.top_state,
        outcome.recovery.suspected_byzantine,
        system.server(liar).current_state()
    );
    assert!(outcome.matches_oracle);
    assert!(outcome.recovery.suspected_byzantine.contains(&liar));

    // Now exceed the budget: two liars in a system provisioned for one.
    println!("\n-- exceeding the budget: two simultaneous liars --");
    let mut overloaded =
        FusedSystem::with_session(&machines, 1, FaultModel::Byzantine, &mut session)
            .expect("fusion generation succeeds");
    overloaded.apply_workload(&workload);
    overloaded
        .corrupt_differently(0)
        .expect("machine has >1 state");
    overloaded
        .corrupt_differently(1)
        .expect("machine has >1 state");
    match overloaded.recover() {
        Ok(outcome) if outcome.matches_oracle => {
            println!("Recovery happened to pick the right state (the liars were not coordinated).")
        }
        Ok(outcome) => println!(
            "Recovery picked top state #{} which is WRONG — as Theorem 2 predicts, two liars are too many.",
            outcome.recovery.top_state
        ),
        Err(e) => println!("Recovery failed outright ({e}) — two liars are too many."),
    }

    println!("\nByzantine recovery example finished successfully.");
}
