//! Property tests pinning the packed reachable-product build to the
//! preserved reference construction.
//!
//! `ReachableProduct` interns states through packed mixed-radix `u64` keys
//! (dense table or key hash map) with flat pre-resolved successor tables;
//! the seed tuple-keyed BFS is preserved as
//! `ReachableProduct::new_reference`, and is also the fallback when
//! `∏|Sᵢ|` overflows `u64`.  This suite checks, for random machine
//! families, that every observable of the packed build — size, state
//! names, component tuples, the full transition table, `find_tuple` over
//! the whole (reachable or not) tuple space, and the projection blocks the
//! fusion layer consumes — is bit-identical to the reference build, and
//! that the overflow fallback corresponds to a packed build state for
//! state.

use fsm_fusion::machines::{mod_counter, random_dfsm, RandomDfsmConfig};
use fsm_fusion::prelude::*;
use proptest::prelude::*;

/// A small random machine family over a shared alphabet, with a mix of
/// per-machine alphabets so some machines ignore some union events.
fn machine_family(seed: u64, count: usize) -> Vec<Dfsm> {
    (0..count)
        .map(|i| {
            let alphabet: Vec<String> = if i % 2 == 0 {
                vec!["0".into(), "1".into()]
            } else {
                vec!["1".into(), "2".into()]
            };
            random_dfsm(
                &format!("M{i}"),
                &RandomDfsmConfig {
                    states: 2 + ((seed as usize + 5 * i) % 4),
                    alphabet,
                    seed: seed.wrapping_add(i as u64 * 7919),
                },
            )
        })
        .collect()
}

/// Every observable of two product constructions must agree.
fn assert_products_identical(
    a: &ReachableProduct,
    b: &ReachableProduct,
) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(a.size(), b.size());
    prop_assert_eq!(a.arity(), b.arity());
    prop_assert_eq!(a.full_product_size(), b.full_product_size());
    let k = a.top().alphabet().len();
    prop_assert_eq!(k, b.top().alphabet().len());
    for t in 0..a.size() {
        let t = StateId(t);
        prop_assert_eq!(a.tuple(t), b.tuple(t));
        prop_assert_eq!(a.top().state_name(t), b.top().state_name(t));
        for e in 0..k {
            let e = fsm_fusion::dfsm::EventId(e);
            prop_assert_eq!(a.top().next(t, e), b.top().next(t, e));
        }
    }
    for i in 0..a.arity() {
        prop_assert_eq!(a.projection_blocks(i), b.projection_blocks(i));
    }
    Ok(())
}

/// Every tuple of the full product `∏|Sᵢ|` (reachable or not), enumerated
/// via mixed-radix counting.
fn full_tuples(machines: &[Dfsm]) -> Vec<Vec<StateId>> {
    let sizes: Vec<usize> = machines.iter().map(|m| m.size()).collect();
    let full: usize = sizes.iter().product();
    (0..full)
        .map(|mut code| {
            sizes
                .iter()
                .map(|&s| {
                    let c = StateId(code % s);
                    code /= s;
                    c
                })
                .collect()
        })
        .collect()
}

/// `find_tuple` agreement over the whole full product.
fn assert_find_tuple_sweep(
    a: &ReachableProduct,
    b: &ReachableProduct,
    machines: &[Dfsm],
) -> std::result::Result<(), TestCaseError> {
    for tuple in full_tuples(machines) {
        prop_assert_eq!(a.find_tuple(&tuple), b.find_tuple(&tuple));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The packed build equals the reference build in every observable,
    /// including `find_tuple` over every tuple of the full product
    /// (reachable or not) and out-of-range probes.
    #[test]
    fn packed_products_match_reference(
        seed in 0u64..100_000,
        count in 1usize..4,
    ) {
        let machines = machine_family(seed, count);
        let reference = ReachableProduct::new_reference(&machines).unwrap();
        let packed = ReachableProduct::new(&machines).unwrap();
        assert_products_identical(&reference, &packed)?;
        assert_find_tuple_sweep(&reference, &packed, &machines)?;
        // Out-of-range components are rejected, never aliased into a key.
        let mut bogus: Vec<StateId> = machines.iter().map(|m| StateId(m.size())).collect();
        prop_assert_eq!(packed.find_tuple(&bogus), None);
        bogus[0] = StateId(usize::MAX);
        prop_assert_eq!(packed.find_tuple(&bogus), None);
        // Wrong-arity tuples are rejected as well.
        prop_assert_eq!(packed.find_tuple(&[]), None);
    }

    /// Padding a family with 13 lockstep 41-state counters makes `∏|Sᵢ|`
    /// overflow `u64`, so its product takes the tuple-keyed fallback.  The
    /// counters move together on their own event, so that product is the
    /// family padded with *one* counter — a packed build — with the
    /// counter's coordinate repeated: transitions, tuples, projections and
    /// `find_tuple` over the packed build's whole tuple space must match.
    #[test]
    fn overflowing_products_match_the_packed_build(
        seed in 0u64..100_000,
        count in 1usize..4,
    ) {
        let family = machine_family(seed, count);
        let pad: Vec<Dfsm> = (0..13)
            .map(|i| mod_counter(&format!("T{i}"), 41, "tick", &["tick"]))
            .collect();
        let wide: Vec<Dfsm> = family.iter().chain(&pad).cloned().collect();
        let narrow: Vec<Dfsm> = family.iter().chain(&pad[..1]).cloned().collect();
        let fallback = ReachableProduct::new(&wide).unwrap();
        let packed = ReachableProduct::new(&narrow).unwrap();
        prop_assert!(fallback.full_product_size() > u128::from(u64::MAX));
        // A narrow tuple with its counter coordinate repeated 13 times.
        let widen = |tuple: &[StateId]| -> Vec<StateId> {
            let mut wide_tuple = tuple.to_vec();
            wide_tuple.extend(std::iter::repeat(tuple[count]).take(12));
            wide_tuple
        };

        prop_assert_eq!(fallback.size(), packed.size());
        let k = packed.top().alphabet().len();
        prop_assert_eq!(
            fallback.top().alphabet().events(),
            packed.top().alphabet().events()
        );
        for t in 0..packed.size() {
            let t = StateId(t);
            prop_assert_eq!(fallback.tuple(t).to_vec(), widen(packed.tuple(t)));
            for e in 0..k {
                let e = fsm_fusion::dfsm::EventId(e);
                prop_assert_eq!(fallback.top().next(t, e), packed.top().next(t, e));
            }
        }
        for i in 0..narrow.len() {
            prop_assert_eq!(fallback.projection_blocks(i), packed.projection_blocks(i));
        }
        for tuple in full_tuples(&narrow) {
            prop_assert_eq!(fallback.find_tuple(&widen(&tuple)), packed.find_tuple(&tuple));
        }
        // Out-of-range and wrong-arity probes are rejected too.
        let bogus: Vec<StateId> = wide.iter().map(|m| StateId(m.size())).collect();
        prop_assert_eq!(fallback.find_tuple(&bogus), None);
        prop_assert_eq!(fallback.find_tuple(&[]), None);
    }

    /// The default constructor agrees with the reference, and the
    /// downstream fusion pipeline sees identical inputs: projection
    /// partitions built from packed and reference products are equal.
    #[test]
    fn projection_partitions_are_engine_independent(seed in 0u64..100_000) {
        let machines = machine_family(seed, 2);
        let reference = ReachableProduct::new_reference(&machines).unwrap();
        let packed = ReachableProduct::new(&machines).unwrap();
        assert_products_identical(&reference, &packed)?;
        let ref_parts = fsm_fusion::fusion::projection_partitions(&reference);
        let packed_parts = fsm_fusion::fusion::projection_partitions(&packed);
        prop_assert_eq!(ref_parts, packed_parts);
    }
}
