//! Explore the closed partition lattice of the paper's Figure 2/3 example:
//! print the reachable cross product, the full lattice, the basis, the fault
//! graphs of Figure 4 and the set representation of Figure 5.
//!
//! Run with: `cargo run --example lattice_explorer`

use fsm_fusion::fusion::{quotient_machine, set_representation, FaultGraph};
use fsm_fusion::machines::{fig2_machines, fig3_top};
use fsm_fusion::prelude::*;

fn main() {
    // One session for every lattice walk and generation below: they share
    // its closure kernel and scratch buffers.
    let mut session = FusionConfig::new().build();

    let machines = fig2_machines();
    let product = session
        .build_product(&machines)
        .expect("product of valid machines");
    println!("== Figure 2: reachable cross product ==");
    println!("{}", product.top());

    // The 4-state top machine with the paper's t0..t3 naming.
    let top = fig3_top();

    println!("== Figure 3: closed partition lattice of the top machine ==");
    let lattice = session
        .enumerate_lattice(&top, 10_000)
        .expect("small lattice");
    println!(
        "{} closed partitions (truncated: {})",
        lattice.len(),
        lattice.truncated
    );
    for (i, p) in lattice.elements.iter().enumerate() {
        println!("  #{i}: {} blocks  {}", p.num_blocks(), p);
    }
    println!(
        "Hasse edges (coarser -> finer): {:?}",
        lattice.hasse_edges()
    );

    // The basis is the lower cover of ⊤.
    let b = session
        .lower_cover(&top, &Partition::singletons(top.size()))
        .expect("basis of a valid machine");
    println!("\nBasis (lower cover of top): {} machines", b.len());
    for p in &b {
        let m = quotient_machine(&top, p, "basis").expect("closed partition");
        println!("  {} -> {} states", p, m.size());
    }

    println!("\n== Figure 4: fault graphs ==");
    let a_part = set_representation(&top, &machines[0]).expect("A <= top");
    let b_part = set_representation(&top, &machines[1]).expect("B <= top");
    let g_a = FaultGraph::from_partitions(top.size(), std::slice::from_ref(&a_part));
    let g_ab = FaultGraph::from_partitions(top.size(), &[a_part.clone(), b_part.clone()]);
    println!(
        "G({{A}}):    dmin = {}, weight histogram {:?}",
        g_a.dmin(),
        g_a.weight_histogram()
    );
    println!(
        "G({{A,B}}):  dmin = {}, weight histogram {:?}",
        g_ab.dmin(),
        g_ab.weight_histogram()
    );

    // Generate a (2,2)-fusion as the paper does with {M1, M2}.
    let fusion = session
        .generate_fusion(&top, &[a_part.clone(), b_part.clone()], 2)
        .expect("a (2,2)-fusion exists");
    let mut all = vec![a_part.clone(), b_part.clone()];
    all.extend(fusion.partitions.iter().cloned());
    let g_all = FaultGraph::from_partitions(top.size(), &all);
    println!(
        "G({{A,B,F1,F2}}): dmin = {} -> tolerates {} crash faults / {} Byzantine faults",
        g_all.dmin(),
        g_all.max_crash_faults(),
        g_all.max_byzantine_faults()
    );

    println!("\n== Figure 5: set representation of A over the top machine ==");
    print!(
        "{}",
        fsm_fusion::fusion::set_repr::format_set_representation(&top, &machines[0], &a_part)
    );

    println!("\n== DOT export (render with graphviz) ==");
    println!("{}", fsm_fusion::dfsm::to_dot_default(&top));
}
