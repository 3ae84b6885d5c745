//! End-to-end reproduction of the paper's evaluation table (Section 6):
//! for every row, generate the backup machines, compare the fusion and
//! replication state spaces, and run a crash / recovery round trip on the
//! full machine set.
//!
//! Absolute numbers (|⊤|, backup sizes) differ from the paper because the
//! paper does not publish its exact event encodings; the *shape* — fusion
//! needs no more backup state than replication, the number of backup
//! machines equals `f + 1 − dmin`, and recovery is exact within the fault
//! budget — is asserted here.  EXPERIMENTS.md records the measured values
//! next to the paper's.

use fsm_fusion::fusion::{minimum_backup_count, projection_partitions, FusionReport};
use fsm_fusion::prelude::*;

fn paper_replication_column() -> [u128; 5] {
    [82_944, 2_097_152, 59_049, 396, 156_816]
}

#[test]
fn every_row_generates_a_fusion_no_larger_than_replication() {
    let rows = table1_rows();
    assert_eq!(rows.len(), 5);
    for (row, expected_replication) in rows.iter().zip(paper_replication_column()) {
        let report = FusionReport::measure(row.label.clone(), &row.machines, row.f)
            .expect("fusion generation succeeds for every table row");
        // The replication column is fully determined by machine sizes and f,
        // so it must match the paper exactly.
        assert_eq!(
            report.replication_state_space(),
            expected_replication,
            "row `{}`",
            row.label
        );
        // Fusion must never need more backup state than replication.
        assert!(
            report.fusion_state_space() <= report.replication_state_space(),
            "row `{}`: fusion {} > replication {}",
            row.label,
            report.fusion_state_space(),
            report.replication_state_space()
        );
        // And it must use at most as many backup machines.
        assert!(report.fusion_backup_machines() <= report.replication_backup_machines());
        // |⊤| never exceeds the full product of machine sizes.
        assert!(report.top_size as u128 <= row.size_product());
    }
}

#[test]
fn backup_machine_count_matches_the_minimum_from_theorem_4() {
    for row in table1_rows() {
        let product = ReachableProduct::new(&row.machines).expect("valid machines");
        let originals = projection_partitions(&product);
        let expected = minimum_backup_count(product.size(), &originals, row.f);
        let (_, fusion) =
            generate_fusion_for_machines(&row.machines, row.f).expect("fusion generation succeeds");
        assert_eq!(
            fusion.len(),
            expected,
            "row `{}`: Algorithm 2 must add exactly f + 1 - dmin machines",
            row.label
        );
        // The fused system tolerates f crash faults: dmin > f.
        let mut all = originals.clone();
        all.extend(fusion.partitions.iter().cloned());
        let graph = FaultGraph::from_partitions(product.size(), &all);
        assert!(graph.tolerates_crash_faults(row.f), "row `{}`", row.label);
        assert!(
            !graph.tolerates_crash_faults(row.f + fusion.len() + 1),
            "row `{}`: tolerance should not be unboundedly larger",
            row.label
        );
    }
}

#[test]
fn crash_recovery_round_trip_for_every_row() {
    for row in table1_rows() {
        let mut system = FusedSystem::new(&row.machines, row.f, FaultModel::Crash)
            .expect("fusion generation succeeds");
        let workload = Seeded(0xC0FFEE).workload_over_machines(&row.machines, 300);
        system.apply_workload(&workload);

        // Record ground truth, crash `f` machines (the originals first), and
        // recover.
        let truth: Vec<_> = (0..system.num_servers())
            .map(|i| system.server(i).current_state())
            .collect();
        for i in 0..row.f.min(system.num_servers()) {
            system.crash(i).expect("server exists");
        }
        let outcome = system
            .recover()
            .expect("f crashes are within the fault budget");
        assert!(outcome.matches_oracle, "row `{}`", row.label);
        for (i, expected) in truth.iter().enumerate() {
            assert_eq!(
                system.server(i).current_state(),
                *expected,
                "row `{}`, server {i}",
                row.label
            );
        }
        assert!(system.consistent_with_oracle(), "row `{}`", row.label);
    }
}

#[test]
fn byzantine_recovery_round_trip_for_rows_with_enough_distance() {
    // Each row is provisioned for f crash faults; the same backup set
    // tolerates floor(f/2) Byzantine faults (Theorem 2).  Exercise the rows
    // with f >= 2.
    for row in table1_rows().into_iter().filter(|r| r.f >= 2) {
        let byz = row.f / 2;
        let mut system = FusedSystem::new(&row.machines, byz, FaultModel::Byzantine)
            .expect("fusion generation succeeds");
        let workload = Seeded(0xBEEF).workload_over_machines(&row.machines, 200);
        system.apply_workload(&workload);
        let truth: Vec<_> = (0..system.num_servers())
            .map(|i| system.server(i).current_state())
            .collect();
        for i in 0..byz {
            system.corrupt_differently(i).expect("server exists");
        }
        let outcome = system
            .recover()
            .expect("byzantine faults within the budget");
        assert!(outcome.matches_oracle, "row `{}`", row.label);
        for (i, expected) in truth.iter().enumerate() {
            assert_eq!(
                system.server(i).current_state(),
                *expected,
                "row `{}`",
                row.label
            );
        }
    }
}

#[test]
fn fused_and_replicated_systems_recover_identical_states() {
    // Same machines, same workload, same primary crash: fusion and
    // replication must agree on every recovered state (they both recover
    // the truth).
    for row in table1_rows().into_iter().filter(|r| r.f == 1 || r.f == 2) {
        let f = 1; // compare single-fault recovery across strategies
        let mut fused =
            FusedSystem::new(&row.machines, f, FaultModel::Crash).expect("generation succeeds");
        let mut replicated =
            ReplicatedSystem::new(&row.machines, f, FaultModel::Crash).expect("valid machines");
        let workload = Seeded(0xABCD).workload_over_machines(&row.machines, 250);
        fused.apply_workload(&workload);
        replicated.apply_workload(&workload);

        fused.crash(0).expect("server exists");
        replicated.crash(0, 0).expect("replica exists");

        let fused_outcome = fused.recover().expect("within budget");
        let replicated_states = replicated.recover().expect("within budget");
        assert!(fused_outcome.matches_oracle, "row `{}`", row.label);
        assert_eq!(
            replicated_states.len(),
            row.machines.len(),
            "row `{}`: one recovered state per machine",
            row.label
        );
        for (i, &replicated_state) in replicated_states.iter().enumerate() {
            assert_eq!(
                fused.server(i).current_state(),
                replicated_state,
                "row `{}`, machine {i}",
                row.label
            );
        }
        // Fusion never uses more backup state than replication.
        assert!(fused.fusion_state_space() <= replicated.backup_state_space());
    }
}
