//! Property-based tests of the paper's theory (Theorems 1–6) on randomly
//! generated machine families.
//!
//! Each property instantiates random DFSMs over a shared alphabet, builds
//! the reachable cross product, and checks that the executable forms of the
//! paper's definitions and theorems hold.

use fsm_fusion::fusion::{
    close, fusion_exists, generate_fusion, is_closed, is_fusion, lower_cover, minimum_backup_count,
    projection_partitions, quotient_machine, set_representation, subset_theorem_holds, FaultGraph,
    Partition,
};
use fsm_fusion::machines::{random_dfsm, RandomDfsmConfig};
use fsm_fusion::prelude::*;
use proptest::prelude::*;

/// A small random machine family over the shared binary alphabet.
fn machine_family(seed: u64, count: usize, max_states: usize) -> Vec<Dfsm> {
    (0..count)
        .map(|i| {
            random_dfsm(
                &format!("M{i}"),
                &RandomDfsmConfig {
                    states: 2 + ((seed as usize + 3 * i) % (max_states - 1)),
                    alphabet: vec!["0".into(), "1".into()],
                    seed: seed.wrapping_add(i as u64 * 7919),
                },
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Closing any partition of ⊤ yields a closed partition that is coarser
    /// or equal, and closing is idempotent.
    #[test]
    fn close_produces_closed_coarser_idempotent(seed in 0u64..500, merges in 0usize..4) {
        let machines = machine_family(seed, 2, 4);
        let product = ReachableProduct::new(&machines).unwrap();
        let top = product.top();
        let n = top.size();
        // Random-ish partition: start from singletons and merge a few pairs.
        let mut p = Partition::singletons(n);
        for k in 0..merges {
            let x = (seed as usize + 13 * k) % n;
            let y = (seed as usize * 31 + 7 * k) % n;
            p = p.merge_elements(x, y);
        }
        let c = close(top, &p).unwrap();
        prop_assert!(is_closed(top, &c));
        prop_assert!(c.le(&p));
        prop_assert_eq!(close(top, &c).unwrap(), c);
    }

    /// Projection partitions of the cross product are closed, and Algorithm 1
    /// (set representation by lock-step simulation) reproduces them exactly.
    #[test]
    fn algorithm1_agrees_with_projection(seed in 0u64..500) {
        let machines = machine_family(seed, 3, 4);
        let product = ReachableProduct::new(&machines).unwrap();
        for (i, p) in projection_partitions(&product).into_iter().enumerate() {
            prop_assert!(is_closed(product.top(), &p));
            let via_alg1 = set_representation(product.top(), &machines[i]).unwrap();
            prop_assert_eq!(p, via_alg1);
        }
    }

    /// Theorem 1: the fault graph's dmin equals 1 + the number of crash
    /// faults the machine set tolerates; adding machines never decreases it.
    #[test]
    fn dmin_is_monotone_under_adding_machines(seed in 0u64..500) {
        let machines = machine_family(seed, 3, 4);
        let product = ReachableProduct::new(&machines).unwrap();
        let parts = projection_partitions(&product);
        let mut graph = FaultGraph::new(product.size());
        let mut last = graph.dmin();
        for p in &parts {
            graph.add_machine(p);
            let now = graph.dmin();
            if last != u32::MAX {
                prop_assert!(now >= last);
                prop_assert!(now <= last + 1);
            }
            last = now;
        }
        prop_assert_eq!(graph.max_crash_faults(), graph.dmin().saturating_sub(1) as usize);
    }

    /// Theorem 4 + Theorem 5: Algorithm 2 produces exactly
    /// `max(0, f + 1 - dmin)` machines, the result is an (f, m)-fusion, and
    /// an (f, m)-fusion exists iff `m + dmin > f`.
    #[test]
    fn generation_matches_existence_bound(seed in 0u64..200, f in 0usize..3) {
        let machines = machine_family(seed, 2, 4);
        let product = ReachableProduct::new(&machines).unwrap();
        let originals = projection_partitions(&product);
        let n = product.size();
        let fusion = generate_fusion(product.top(), &originals, f).unwrap();
        prop_assert!(is_fusion(n, &originals, &fusion.partitions, f));
        prop_assert_eq!(fusion.len(), minimum_backup_count(n, &originals, f));
        prop_assert!(fusion_exists(n, &originals, f, fusion.len()));
        if !fusion.is_empty() {
            prop_assert!(!fusion_exists(n, &originals, f, fusion.len() - 1));
        }
        // Every generated machine is a closed partition of ⊤ and its
        // quotient machine simulates ⊤ correctly on random words.
        for p in &fusion.partitions {
            prop_assert!(is_closed(product.top(), p));
            let q = quotient_machine(product.top(), p, "F").unwrap();
            let w = Seeded(seed).uniform_workload(product.top().alphabet(), 30);
            let t_final = product.top().run(w.iter());
            let q_final = q.run(w.iter());
            prop_assert_eq!(p.block_of(t_final.index()), q_final.index());
        }
    }

    /// Theorem 3: every subset of a generated fusion is itself a fusion of
    /// correspondingly lower strength.
    #[test]
    fn subset_theorem(seed in 0u64..200, f in 1usize..3) {
        let machines = machine_family(seed, 2, 3);
        let product = ReachableProduct::new(&machines).unwrap();
        let originals = projection_partitions(&product);
        let fusion = generate_fusion(product.top(), &originals, f).unwrap();
        prop_assert!(subset_theorem_holds(product.size(), &originals, &fusion.partitions, f));
    }

    /// The lower cover of any closed partition consists of pairwise
    /// incomparable closed partitions strictly below it.
    #[test]
    fn lower_cover_properties(seed in 0u64..200) {
        let machines = machine_family(seed, 2, 3);
        let product = ReachableProduct::new(&machines).unwrap();
        let top = product.top();
        let parts = projection_partitions(&product);
        for p in &parts {
            let cover = lower_cover(top, p).unwrap();
            for q in &cover {
                prop_assert!(is_closed(top, q));
                prop_assert!(q.lt(p));
            }
            for (i, q) in cover.iter().enumerate() {
                for (j, r) in cover.iter().enumerate() {
                    if i != j {
                        prop_assert!(q.incomparable(r));
                    }
                }
            }
        }
    }

    /// End-to-end crash recovery on random machine families: crash any f
    /// servers (originals or backups), recovery restores the exact states.
    #[test]
    fn random_crash_recovery_roundtrip(seed in 0u64..200, f in 1usize..3, workload_len in 1usize..80) {
        let machines = machine_family(seed, 3, 3);
        let mut system = FusedSystem::new(&machines, f, FaultModel::Crash).unwrap();
        let workload = Seeded(seed).workload_over_machines(&machines, workload_len);
        system.apply_workload(&workload);
        let truth: Vec<_> = (0..system.num_servers())
            .map(|i| system.server(i).current_state())
            .collect();
        // Crash f distinct servers chosen from the seed.
        let n = system.num_servers();
        let mut victims: Vec<usize> = (0..n).collect();
        victims.rotate_left(seed as usize % n);
        for &v in victims.iter().take(f.min(n)) {
            system.crash(v).unwrap();
        }
        let outcome = system.recover().unwrap();
        prop_assert!(outcome.matches_oracle);
        for (i, expected) in truth.iter().enumerate() {
            prop_assert_eq!(system.server(i).current_state(), *expected);
        }
    }

    /// End-to-end Byzantine recovery: one liar in a system provisioned for
    /// one Byzantine fault is always detected and corrected.
    #[test]
    fn random_byzantine_recovery_roundtrip(seed in 0u64..150, workload_len in 1usize..60) {
        let machines = machine_family(seed, 2, 3);
        let mut system = FusedSystem::new(&machines, 1, FaultModel::Byzantine).unwrap();
        let workload = Seeded(seed).workload_over_machines(&machines, workload_len);
        system.apply_workload(&workload);
        let liar = seed as usize % system.num_servers();
        if system.server(liar).machine().size() < 2 {
            return Ok(()); // a 1-state machine cannot lie
        }
        let truth = system.server(liar).current_state();
        system.corrupt_differently(liar).unwrap();
        let outcome = system.recover().unwrap();
        prop_assert!(outcome.matches_oracle);
        prop_assert_eq!(system.server(liar).current_state(), truth);
        prop_assert!(outcome.recovery.suspected_byzantine.contains(&liar));
    }

    /// The erasure-code analogy: dmin of the fault graph equals the minimum
    /// Hamming distance of the induced code words.
    #[test]
    fn dmin_equals_code_minimum_distance(seed in 0u64..300) {
        let machines = machine_family(seed, 3, 4);
        let product = ReachableProduct::new(&machines).unwrap();
        let parts = projection_partitions(&product);
        let graph = FaultGraph::from_partitions(product.size(), &parts);
        let assignments: Vec<Vec<usize>> = parts
            .iter()
            .map(|p| (0..product.size()).map(|t| p.block_of(t)).collect())
            .collect();
        let code_dmin = fsm_erasure::code_minimum_distance(&assignments);
        if product.size() >= 2 {
            prop_assert_eq!(graph.dmin() as usize, code_dmin.unwrap());
        }
    }
}
