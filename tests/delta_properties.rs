//! Property tests pinning `FusionSession::update_top` bit-identical to a
//! cold session built on the post-delta `⊤`.
//!
//! A warm session installs an initial machine set and runs a generation
//! (so its fault-graph slot holds state), then applies a random sequence of
//! [`TopDelta`]s — adds, removes, extends — through the incremental paths:
//! product stride-extension and fault-graph pullback/contraction.  A cold
//! session is built directly on the final machine set.  Everything
//! observable must match exactly:
//!
//! * the fusion partitions, machine sizes and state space,
//! * every `GenerationStats` field (dmin before/after, outer iterations,
//!   descent steps, candidates examined) — the kept graph may only change
//!   wall-clock time, never the walk,
//! * the product numbering itself (tuples and state names per `StateId`),
//! * lattice walks and the lower cover of `⊤`, free and through the
//!   session, equal the test-only `n`-state oracle
//!   (`tests/support/lattice_oracle.rs`) before the deltas and after every
//!   one of them.

#[path = "support/lattice_oracle.rs"]
mod lattice_oracle;

use fsm_fusion::fusion::{enumerate_lattice, lower_cover, FusionConfig, TopDelta};
use fsm_fusion::machines::{random_dfsm, RandomDfsmConfig};
use fsm_fusion::prelude::*;
use proptest::prelude::*;

/// A random machine over the shared binary alphabet (every event present,
/// so any machine is alphabet-compatible with any other).
fn rand_machine(name: &str, states: usize, seed: u64) -> Dfsm {
    random_dfsm(
        name,
        &RandomDfsmConfig {
            states,
            alphabet: vec!["0".into(), "1".into()],
            seed,
        },
    )
}

/// A delta drawn from a seed, resolved against the evolving machine list
/// when applied (`pick` wraps modulo the current length).
#[derive(Debug, Clone)]
enum DeltaSpec {
    Add {
        states: usize,
        seed: u64,
    },
    Remove {
        pick: usize,
    },
    Extend {
        pick: usize,
        extra: usize,
        seed: u64,
    },
}

/// SplitMix64 step — the offline proptest shim only draws integer ranges,
/// so delta sequences are expanded deterministically from one drawn seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_specs(seed: u64, count: usize) -> Vec<DeltaSpec> {
    let mut s = seed;
    (0..count)
        .map(|_| match splitmix(&mut s) % 3 {
            0 => DeltaSpec::Add {
                states: 2 + (splitmix(&mut s) as usize % 2),
                seed: splitmix(&mut s),
            },
            1 => DeltaSpec::Remove {
                pick: splitmix(&mut s) as usize % 8,
            },
            _ => DeltaSpec::Extend {
                pick: splitmix(&mut s) as usize % 8,
                extra: splitmix(&mut s) as usize % 2,
                seed: splitmix(&mut s),
            },
        })
        .collect()
}

/// Applies `spec` to both the shadow machine list and the warm session,
/// returning `false` when the spec is inapplicable (removing from a
/// single-machine top).
fn apply_spec(
    spec: &DeltaSpec,
    step: usize,
    machines: &mut Vec<Dfsm>,
    warm: &mut FusionSession,
) -> bool {
    match spec {
        DeltaSpec::Add { states, seed } => {
            let m = rand_machine(&format!("N{step}"), *states, *seed);
            machines.push(m.clone());
            warm.update_top(TopDelta::AddMachine(m)).unwrap();
        }
        DeltaSpec::Remove { pick } => {
            if machines.len() < 2 {
                return false;
            }
            let index = pick % machines.len();
            machines.remove(index);
            warm.update_top(TopDelta::RemoveMachine(index)).unwrap();
        }
        DeltaSpec::Extend { pick, extra, seed } => {
            let index = pick % machines.len();
            let m = rand_machine(&format!("E{step}"), machines[index].size() + extra, *seed);
            machines[index] = m.clone();
            warm.update_top(TopDelta::ExtendMachine { index, machine: m })
                .unwrap();
        }
    }
    true
}

/// Lattice walks over the session's installed `⊤` — `enumerate_lattice`
/// and the lower cover of `⊤`, free and through the session — equal the
/// `n`-state oracle.
fn assert_walks_match_oracle(session: &mut FusionSession, label: &str) {
    let top = session.top_product().unwrap().top().clone();
    let oracle = lattice_oracle::enumerate_lattice(&top, LATTICE_LIMIT);
    let free = enumerate_lattice(&top, LATTICE_LIMIT).unwrap();
    let walked = session.enumerate_lattice(&top, LATTICE_LIMIT).unwrap();
    assert_eq!(free.elements, oracle.elements, "{label}");
    assert_eq!(free.truncated, oracle.truncated, "{label}");
    assert_eq!(walked.elements, oracle.elements, "{label}");
    assert_eq!(walked.truncated, oracle.truncated, "{label}");
    let top_p = Partition::singletons(top.size());
    let cover = lattice_oracle::lower_cover(&top, &top_p);
    assert_eq!(lower_cover(&top, &top_p).unwrap(), cover, "{label}");
    assert_eq!(session.lower_cover(&top, &top_p).unwrap(), cover, "{label}");
}

/// Warm-after-deltas versus cold-on-final.
fn assert_delta_sequence_matches_cold(initial: &[Dfsm], specs: &[DeltaSpec], max_f: usize) {
    let config = FusionConfig::new().workers(2);
    let mut warm = config.clone().build();
    let mut machines = initial.to_vec();
    warm.install_top(&machines).unwrap();
    // Populate the graph slot so the deltas have real state to evolve, and
    // pin the walks before the deltas and after every one of them.
    warm.generate_top_fusion(1).unwrap();
    assert_walks_match_oracle(&mut warm, "installed");
    for (step, spec) in specs.iter().enumerate() {
        if apply_spec(spec, step, &mut machines, &mut warm) {
            assert_walks_match_oracle(&mut warm, &format!("{specs:?} step {step}"));
        }
    }

    let mut cold = config.build();
    cold.install_top(&machines).unwrap();
    let label = format!("{specs:?}");

    // Identical product numbering: size, tuples, state names.
    let (wp, cp) = (warm.top_product().unwrap(), cold.top_product().unwrap());
    assert_eq!(wp.size(), cp.size(), "{label}");
    assert_eq!(wp.arity(), cp.arity(), "{label}");
    for x in 0..wp.size() {
        let x = StateId(x);
        assert_eq!(wp.tuple(x), cp.tuple(x), "{label}");
        assert_eq!(wp.top().state_name(x), cp.top().state_name(x), "{label}");
    }

    // Identical generations, including the full statistics surface.
    for f in 1..=max_f {
        let w = warm.generate_top_fusion(f).unwrap();
        let c = cold.generate_top_fusion(f).unwrap();
        assert_eq!(w.partitions, c.partitions, "{label} f={f}");
        assert_eq!(w.machine_sizes(), c.machine_sizes(), "{label} f={f}");
        assert_eq!(w.state_space(), c.state_space(), "{label} f={f}");
        assert_eq!(w.stats.initial_dmin, c.stats.initial_dmin, "{label} f={f}");
        assert_eq!(w.stats.final_dmin, c.stats.final_dmin, "{label} f={f}");
        assert_eq!(
            w.stats.outer_iterations, c.stats.outer_iterations,
            "{label} f={f}"
        );
        assert_eq!(
            w.stats.descent_steps, c.stats.descent_steps,
            "{label} f={f}"
        );
        assert_eq!(
            w.stats.candidates_examined, c.stats.candidates_examined,
            "{label} f={f}"
        );
    }

    // Walks after the generations still equal the oracle.
    assert_walks_match_oracle(&mut warm, &label);
}

/// Lattice elements a walk visits at most: small enough to keep every case
/// fast, large enough to walk several levels of the tops drawn here.
const LATTICE_LIMIT: usize = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random delta sequences of one to three adds, removes and extends.
    #[test]
    fn sequential_delta_sequences_match_cold_sessions(
        seed in 0u64..50_000,
        spec_seed in 0u64..1_000_000,
        nspecs in 1usize..=3,
    ) {
        let specs = random_specs(spec_seed, nspecs);
        let initial = vec![
            rand_machine("A", 2 + (seed as usize % 2), seed),
            rand_machine("B", 2 + (seed as usize / 2 % 2), seed.wrapping_add(7919)),
        ];
        assert_delta_sequence_matches_cold(&initial, &specs, 2);
    }
}
