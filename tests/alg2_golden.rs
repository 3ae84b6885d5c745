//! Algorithm-2 identity sweep against a committed golden file.
//!
//! Every workload below runs through one shared `FusionSession` (so `f`
//! sweeps are answered from its initial-fault-graph slot) and through the
//! free `generate_fusion`; both must print exactly the line recorded in
//! `tests/data/alg2_golden.txt`.  A line holds the backup partitions as an
//! FNV-1a digest of their canonical assignments, the backup machine sizes
//! and every `GenerationStats` counter except wall-clock time.
//!
//! The file pins refactors of the fault graph, the descent and the session
//! to bit-identical output.  A change that means to alter the fusions must
//! regenerate it: the failure message prints the full computed file.

use std::fmt::Write as _;

use fsm_fusion::fusion::{projection_partitions, FusionConfig, FusionGeneration, Partition};
use fsm_fusion::machines::{mod_counter, random_machine_family, table1_rows};
use fsm_fusion::prelude::*;

const GOLDEN: &str = include_str!("data/alg2_golden.txt");

/// FNV-1a over each partition's length and canonical assignment.
fn digest(parts: &[Partition]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: usize| {
        for b in (x as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in parts {
        eat(p.len());
        for &b in p.assignment() {
            eat(b);
        }
    }
    h
}

/// `count` mod-3 counters over disjoint events: `|⊤| = 3^count`.
fn counter_family(count: usize) -> Vec<Dfsm> {
    let alphabet: Vec<String> = (0..count).map(|i| format!("e{i}")).collect();
    let refs: Vec<&str> = alphabet.iter().map(String::as_str).collect();
    (0..count)
        .map(|i| mod_counter(&format!("C{i}"), 3, refs[i], &refs))
        .collect()
}

/// `(label, machines, fault counts)` of every workload, in file order.
fn workloads() -> Vec<(String, Vec<Dfsm>, Vec<usize>)> {
    let mut out = Vec::new();
    for (r, row) in table1_rows().into_iter().enumerate() {
        out.push((format!("table1_row{}", r + 1), row.machines, vec![1, 2, 3]));
    }
    for count in 2..=6 {
        out.push((
            format!("counters_mod3_x{count}"),
            counter_family(count),
            vec![1, 2, 3],
        ));
    }
    out.push(("counters_mod3_x8".into(), counter_family(8), vec![1]));
    for seed in 0..8u64 {
        out.push((
            format!("random3_seed{seed}"),
            random_machine_family(3, 2..=5, &["0", "1"], 1000 + seed),
            vec![1, 2],
        ));
    }
    out
}

fn line(label: &str, n: usize, f: usize, fusion: &FusionGeneration) -> String {
    let s = &fusion.stats;
    format!(
        "{label} n={n} f={f} sizes={:?} initial_dmin={} final_dmin={} outer={} descent={} \
         candidates={} digest={:016x}",
        fusion.machine_sizes(),
        s.initial_dmin,
        s.final_dmin,
        s.outer_iterations,
        s.descent_steps,
        s.candidates_examined,
        digest(&fusion.partitions),
    )
}

#[test]
fn algorithm2_matches_the_committed_golden_sweep() {
    let mut session = FusionConfig::new().build();
    let mut computed = String::new();
    for (label, machines, fs) in workloads() {
        let product = ReachableProduct::new(&machines).expect("valid machines");
        let originals = projection_partitions(&product);
        let n = product.size();
        for f in fs {
            let warm = session
                .generate_fusion(product.top(), &originals, f)
                .expect("session fusion");
            let cold = generate_fusion(product.top(), &originals, f).expect("free fusion");
            let text = line(&label, n, f, &warm);
            assert_eq!(text, line(&label, n, f, &cold), "session vs free");
            writeln!(computed, "{text}").unwrap();
        }
    }
    let expected: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<&str> = computed.lines().collect();
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "line {i} differs; computed file:\n{computed}");
    }
    assert_eq!(
        got.len(),
        expected.len(),
        "line count differs; computed file:\n{computed}"
    );
}
