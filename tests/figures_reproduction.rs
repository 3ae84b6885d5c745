//! Reproduction of the paper's Figures 1–5 (the running examples), as
//! integration tests spanning the machine library and the fusion core.

#[path = "support/lattice_oracle.rs"]
mod lattice_oracle;

use fsm_fusion::dfsm::are_isomorphic;
use fsm_fusion::fusion::{
    basis, enumerate_lattice, generate_fusion, is_closed, set_representation, FaultGraph, Partition,
};
use fsm_fusion::machines::{
    fig1_fusion_f1, fig1_fusion_f2, fig1_machines, fig2_machines, fig3_top, mod_counter,
};
use fsm_fusion::prelude::*;

/// Figure 1: the mod-3 counters, their 9-state cross product and the
/// hand-derived fusions F1 = (n0+n1) mod 3 and F2 = (n0−n1) mod 3.
#[test]
fn figure1_counters_and_their_fusions() {
    let machines = fig1_machines();
    let product = ReachableProduct::new(&machines).unwrap();
    assert_eq!(product.size(), 9, "Fig. 1(iii): |R({{A,B}})| = 9");

    // Both hand-derived fusions are ≤ ⊤, have 3 states, and each alone forms
    // a (1,1)-fusion of {A, B}.
    let originals = fsm_fusion::fusion::projection_partitions(&product);
    for fusion_machine in [fig1_fusion_f1(), fig1_fusion_f2()] {
        let part = set_representation(product.top(), &fusion_machine).unwrap();
        assert_eq!(part.num_blocks(), 3);
        assert!(is_closed(product.top(), &part));
        let mut with_fusion = originals.clone();
        with_fusion.push(part);
        let g = FaultGraph::from_partitions(product.size(), &with_fusion);
        assert!(
            g.tolerates_crash_faults(1),
            "{} forms a (1,1)-fusion",
            fusion_machine.name()
        );
    }

    // {F1, F2} together form a (2,2)-fusion: the system then tolerates two
    // crash faults and one Byzantine fault.
    let mut all = originals.clone();
    all.push(set_representation(product.top(), &fig1_fusion_f1()).unwrap());
    all.push(set_representation(product.top(), &fig1_fusion_f2()).unwrap());
    let g = FaultGraph::from_partitions(product.size(), &all);
    assert!(g.tolerates_crash_faults(2));
    assert!(g.tolerates_byzantine_faults(1));

    // Algorithm 2 generates a 3-state machine for one fault — the same size
    // as the paper's hand-derived F1.
    let generated = generate_fusion(product.top(), &originals, 1).unwrap();
    assert_eq!(generated.machine_sizes(), vec![3]);
    // It is the sum counter, the difference counter, or isomorphic to one of
    // them (all minimal 3-state fusions of this pair).
    let gen_part = &generated.partitions[0];
    let f1_part = set_representation(product.top(), &fig1_fusion_f1()).unwrap();
    let f2_part = set_representation(product.top(), &fig1_fusion_f2()).unwrap();
    assert!(
        gen_part == &f1_part
            || gen_part == &f2_part
            || are_isomorphic(&generated.machines[0], &fig1_fusion_f1())
            || are_isomorphic(&generated.machines[0], &fig1_fusion_f2()),
        "generated fusion should match a Fig. 1 fusion"
    );
}

/// Figure 2: machines A and B with a 4-state reachable cross product, and
/// the order A ≤ R({A,B}).
#[test]
fn figure2_cross_product_and_order() {
    let machines = fig2_machines();
    let product = ReachableProduct::new(&machines).unwrap();
    assert_eq!(product.size(), 4);
    assert!(are_isomorphic(product.top(), &fig3_top()));

    // Both A and B are ≤ ⊤: their set representations are closed partitions
    // with 3 blocks each.
    for m in &machines {
        let part = set_representation(product.top(), m).unwrap();
        assert_eq!(part.num_blocks(), 3);
        assert!(is_closed(product.top(), &part));
    }
}

/// Figure 3: the closed partition lattice of the 4-state top machine.
#[test]
fn figure3_closed_partition_lattice() {
    let top = fig3_top();
    let lattice = enumerate_lattice(&top, 10_000).unwrap();
    assert!(!lattice.truncated);
    // ⊤ and ⊥ are present.
    assert!(lattice.top().is_singletons());
    assert!(lattice.bottom().is_single_block());
    // A and B (as partitions of the top's states) are elements of the
    // lattice, as Fig. 3 shows.
    let a = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
    let b = Partition::from_blocks(4, &[vec![0], vec![1], vec![2, 3]]).unwrap();
    assert!(lattice.elements.contains(&a));
    assert!(lattice.elements.contains(&b));
    // They belong to the basis (the lower cover of ⊤).
    let basis = basis(&top).unwrap();
    assert!(basis.contains(&a));
    assert!(basis.contains(&b));
    // Every element is closed and the Hasse diagram is non-trivial.
    for p in &lattice.elements {
        assert!(is_closed(&top, p));
    }
    assert!(!lattice.hasse_edges().is_empty());
}

/// Figure 3's Hasse diagram: the covering pairs of the 4-state top's
/// lattice, exactly, and as the definition gives them.
#[test]
fn figure3_hasse_edges_match_the_definition() {
    let lattice = enumerate_lattice(&fig3_top(), 10_000).unwrap();
    let shown: Vec<String> = lattice.elements.iter().map(|p| p.to_string()).collect();
    assert_eq!(
        shown,
        [
            "{0 | 1 | 2 | 3}",
            "{0,3 | 1 | 2}",
            "{0 | 1 | 2,3}",
            "{0,2,3 | 1}",
            "{0,1,2,3}"
        ]
    );
    // ⊤ covers A and B, both cover {t0,t2,t3 | t1}, which covers ⊥.
    let edges = lattice.hasse_edges();
    assert_eq!(edges, [(1, 0), (2, 0), (3, 1), (3, 2), (4, 3)]);
    assert_eq!(edges, lattice_oracle::hasse_edges(&lattice.elements));
}

/// The Hasse diagram of the 212-element lattice of four mod-3 counters
/// (|⊤| = 81) equals the covering pairs by definition.
#[test]
fn four_counter_hasse_edges_match_the_definition() {
    let events = ["e0", "e1", "e2", "e3"];
    let machines: Vec<Dfsm> = (0..4)
        .map(|i| mod_counter(&format!("C{i}"), 3, events[i], &events))
        .collect();
    let product = ReachableProduct::new(&machines).unwrap();
    let lattice = enumerate_lattice(product.top(), 5000).unwrap();
    assert_eq!(lattice.len(), 212);
    let edges = lattice.hasse_edges();
    assert_eq!(edges.len(), 1120);
    assert_eq!(edges, lattice_oracle::hasse_edges(&lattice.elements));
}

/// Figure 4: fault graphs G({A}), G({A,B}) and the fused system.
#[test]
fn figure4_fault_graphs() {
    let top = fig3_top();
    let machines = fig2_machines();
    let a = set_representation(&top, &machines[0]).unwrap();
    let b = set_representation(&top, &machines[1]).unwrap();

    // G({A}): exactly one zero-weight edge (the pair A cannot distinguish).
    let g_a = FaultGraph::from_partitions(4, std::slice::from_ref(&a));
    assert_eq!(g_a.dmin(), 0);
    assert_eq!(g_a.edges_with_weight(0).len(), 1);
    assert_eq!(g_a.edges_with_weight(1).len(), 5);

    // G({A,B}): dmin = 1 — the pair cannot tolerate even one fault.
    let g_ab = FaultGraph::from_partitions(4, &[a.clone(), b.clone()]);
    assert_eq!(g_ab.dmin(), 1);
    assert_eq!(g_ab.max_crash_faults(), 0);

    // Adding a generated (2,2)-fusion raises dmin above 2 (Fig. 4(iii)):
    // the system then tolerates two crash faults and one Byzantine fault.
    let fusion = generate_fusion(&top, &[a.clone(), b.clone()], 2).unwrap();
    assert_eq!(fusion.len(), 2);
    let mut all = vec![a, b];
    all.extend(fusion.partitions);
    let g_all = FaultGraph::from_partitions(4, &all);
    assert!(g_all.dmin() >= 3);
    assert_eq!(g_all.max_crash_faults(), g_all.dmin() as usize - 1);
    assert!(g_all.max_byzantine_faults() >= 1);
}

/// Figure 5 / Algorithm 1: the set representation of machine A over the top
/// machine is {t0,t3}, {t1}, {t2}.
#[test]
fn figure5_set_representation() {
    let top = fig3_top();
    let machines = fig2_machines();
    let a = set_representation(&top, &machines[0]).unwrap();
    let expected = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
    assert_eq!(a, expected);
    // And the B machine groups {t2, t3} together.
    let b = set_representation(&top, &machines[1]).unwrap();
    assert!(b.same_block(2, 3));
    assert!(b.separates(0, 1));
}

/// The worked recovery examples of Section 5.2 on the Fig. 2 machines with a
/// generated (2,2)-fusion: two crashes, then one Byzantine fault.
#[test]
fn section52_recovery_walkthrough() {
    let machines = fig2_machines();
    let mut system = FusedSystem::new(&machines, 2, FaultModel::Crash).unwrap();
    assert_eq!(system.num_backups(), 2);

    system.apply_workload(&Workload::from_bits("0101101"));
    let truth: Vec<_> = (0..system.num_servers())
        .map(|i| system.server(i).current_state())
        .collect();

    // Crash both originals (two crash faults, the budget).
    system.crash(0).unwrap();
    system.crash(1).unwrap();
    let outcome = system.recover().unwrap();
    assert!(outcome.matches_oracle);
    for (i, expected) in truth.iter().enumerate() {
        assert_eq!(system.server(i).current_state(), *expected);
    }

    // The same backup set tolerates one Byzantine fault (f/2).
    let mut system = FusedSystem::new(&machines, 1, FaultModel::Byzantine).unwrap();
    system.apply_workload(&Workload::from_bits("0101101"));
    let liar = 0;
    let truth = system.server(liar).current_state();
    system.corrupt_differently(liar).unwrap();
    let outcome = system.recover().unwrap();
    assert!(outcome.matches_oracle);
    assert_eq!(system.server(liar).current_state(), truth);
    assert!(outcome.recovery.suspected_byzantine.contains(&liar));
}
