//! Regenerates the paper's Figures 1–5 (the running examples): the mod-3
//! counters and their fusions, the Fig. 2 machines and their cross product,
//! the closed partition lattice, the fault graphs and the set
//! representation.
//!
//! Run with: `cargo run --release -p fsm-fusion-bench --bin figures [-- fig1|fig2|fig3|fig4|fig5]`
//! (no argument prints every figure).

use fsm_fusion_core::{
    projection_partitions, set_representation, FaultGraph, FusionConfig, FusionSession, Partition,
};
use fsm_machines::{fig1_fusion_f1, fig1_fusion_f2, fig1_machines, fig2_machines, fig3_top};

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let all = which.is_empty();
    let wants = |name: &str| all || which.iter().any(|w| w == name);

    // One session drives every figure: fig3's
    // lattice enumeration and fig4's fusion generation share the kernel of
    // the same 4-state top machine.
    let mut session = FusionConfig::new().build();

    if wants("fig1") {
        fig1(&mut session);
    }
    if wants("fig2") {
        fig2(&mut session);
    }
    if wants("fig3") {
        fig3(&mut session);
    }
    if wants("fig4") {
        fig4(&mut session);
    }
    if wants("fig5") {
        fig5();
    }
}

fn fig1(session: &mut FusionSession) {
    println!("== Figure 1: mod-3 counters and their fusions ==");
    let machines = fig1_machines();
    let product = session.build_product(&machines).unwrap();
    println!(
        "A = {} ({} states), B = {} ({} states), R({{A,B}}) has {} states (paper: 9).",
        machines[0].name(),
        machines[0].size(),
        machines[1].name(),
        machines[1].size(),
        product.size()
    );
    let originals = projection_partitions(&product);
    let fusion = session
        .generate_fusion(product.top(), &originals, 1)
        .unwrap();
    println!(
        "Algorithm 2 for f = 1 generates {} machine(s) of sizes {:?} (paper: one 3-state machine, F1).",
        fusion.len(),
        fusion.machine_sizes()
    );
    for hand in [fig1_fusion_f1(), fig1_fusion_f2()] {
        let part = set_representation(product.top(), &hand).unwrap();
        let mut with = originals.clone();
        with.push(part);
        let g = FaultGraph::from_partitions(product.size(), &with);
        println!(
            "Hand-derived {} is a (1,1)-fusion: dmin({{A,B,{}}}) = {} (needs > 1).",
            hand.name(),
            hand.name(),
            g.dmin()
        );
    }
    println!();
}

fn fig2(session: &mut FusionSession) {
    println!("== Figure 2: machines A, B and their reachable cross product ==");
    let machines = fig2_machines();
    for m in &machines {
        println!("{m}");
    }
    let product = session.build_product(&machines).unwrap();
    println!(
        "R({{A,B}}) has {} states out of a possible {} (paper: 4 states).",
        product.size(),
        product.full_product_size()
    );
    println!("{}", product.top());
}

fn fig3(session: &mut FusionSession) {
    println!("== Figure 3: closed partition lattice of the top machine ==");
    let top = fig3_top();
    let lattice = session.enumerate_lattice(&top, 10_000).unwrap();
    println!(
        "{} closed partitions between top and bottom (paper draws 10).",
        lattice.len()
    );
    for (i, p) in lattice.elements.iter().enumerate() {
        println!("  #{i}: {} blocks   {}", p.num_blocks(), p);
    }
    let b = session
        .lower_cover(&top, &Partition::singletons(top.size()))
        .unwrap();
    println!(
        "Basis (lower cover of top): {} machines (paper: A, B, M1, M2).",
        b.len()
    );
    println!("Hasse edges: {:?}\n", lattice.hasse_edges());
}

fn fig4(session: &mut FusionSession) {
    println!("== Figure 4: fault graphs ==");
    let top = fig3_top();
    let machines = fig2_machines();
    let a = set_representation(&top, &machines[0]).unwrap();
    let b = set_representation(&top, &machines[1]).unwrap();
    let report = |label: &str, g: &FaultGraph| {
        println!(
            "{label}: dmin = {}, weight histogram {:?}, tolerates {} crash / {} Byzantine faults",
            g.dmin(),
            g.weight_histogram(),
            g.max_crash_faults(),
            g.max_byzantine_faults()
        );
    };
    report(
        "G({A})        ",
        &FaultGraph::from_partitions(4, std::slice::from_ref(&a)),
    );
    report(
        "G({A,B})      ",
        &FaultGraph::from_partitions(4, &[a.clone(), b.clone()]),
    );
    let fusion = session
        .generate_fusion(&top, &[a.clone(), b.clone()], 2)
        .unwrap();
    let mut all = vec![a.clone(), b.clone()];
    all.extend(fusion.partitions.iter().cloned());
    report("G({A,B,F1,F2})", &FaultGraph::from_partitions(4, &all));
    let mut with_top = vec![a, b, fusion.partitions[0].clone()];
    with_top.push(fsm_fusion_core::Partition::singletons(4));
    report("G({A,B,F1,⊤}) ", &FaultGraph::from_partitions(4, &with_top));
    println!();
}

fn fig5() {
    println!("== Figure 5 / Algorithm 1: set representation ==");
    let top = fig3_top();
    let machines = fig2_machines();
    for m in &machines {
        let part = set_representation(&top, m).unwrap();
        print!(
            "{}",
            fsm_fusion_core::set_repr::format_set_representation(&top, m, &part)
        );
    }
    println!();
}
