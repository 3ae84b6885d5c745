//! Seeded randomness for deterministic simulation, and the [`Seeded`]
//! constructor convention that unifies the crate's scattered seeded entry
//! points.
//!
//! [`SimRng`] is SplitMix64 with exactly the same constants as the
//! workspace's `rand::rngs::StdRng`, so the seeded workloads and fault plans
//! built here (and `SensorNetwork::observe_randomly`, which delegates here)
//! keep the event streams historical seeds produce.

use fsm_dfsm::{Alphabet, Dfsm, Event};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use crate::fault::{FaultKind, FaultPlan, ScheduledFault};
use crate::workload::Workload;

/// The SplitMix64 finalizer (Steele, Lea, Flood 2014): a bijective mixing
/// function used both as the generator step and to derive substream seeds.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulation's pseudo-random generator: SplitMix64, bit-identical to
/// the workspace `StdRng` stream for the same seed.
///
/// Lives in this crate (rather than reusing `StdRng` directly) so the
/// deterministic runtime owns its generator: simulation replay depends on
/// this exact stream, which is pinned by tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// A generator whose stream is a deterministic function of `seed`.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }
}

impl SeedableRng for SimRng {
    fn seed_from_u64(state: u64) -> Self {
        SimRng::new(state)
    }
}

impl RngCore for SimRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }
}

/// A `u64` seed wrapped as the crate's one seeded-construction convention.
///
/// Every randomized artifact — workloads, fault plans, observation
/// sequences, whole simulated worlds — is derived from a `Seeded` value, so
/// "the run with seed 7" names one reproducible experiment end to end:
///
/// ```
/// use fsm_distsys::Seeded;
/// use fsm_machines::fig1_machines;
///
/// let machines = fig1_machines();
/// let w1 = Seeded(7).workload_over_machines(&machines, 50);
/// let w2 = Seeded(7).workload_over_machines(&machines, 50);
/// assert_eq!(w1.events(), w2.events());
/// ```
///
/// `SensorNetwork::observe_randomly`/`random_workload` map these methods'
/// observation streams onto sensor events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Seeded(pub u64);

impl Seeded {
    /// The raw generator for this seed.
    pub fn rng(self) -> SimRng {
        SimRng::new(self.0)
    }

    /// Derives an independent substream: drawing from `split(0)` does not
    /// perturb what `split(1)` produces.  Used to give workload generation,
    /// fault schedules and network chaos their own streams within one
    /// scenario seed.
    pub fn split(self, stream: u64) -> Seeded {
        Seeded(mix(self.0
            ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ 0xA076_1D64_78BD_642F))
    }

    /// A [`SimConfig`](crate::sim::SimConfig) for this seed: the entry point
    /// for building a whole deterministic world from one number.
    pub fn sim(self) -> crate::sim::SimConfig {
        crate::sim::SimConfig::new(self.0)
    }

    /// `length` events drawn uniformly from `alphabet`.
    pub fn uniform_workload(self, alphabet: &Alphabet, length: usize) -> Workload {
        let mut rng = self.rng();
        Workload::scripted((0..length).map(|_| {
            let i = rng.gen_range(0..alphabet.len());
            alphabet.events()[i].clone()
        }))
    }

    /// `length` events drawn uniformly from the union alphabet of
    /// `machines` — the natural workload for a heterogeneous server group.
    pub fn workload_over_machines(self, machines: &[Dfsm], length: usize) -> Workload {
        let alphabet = Alphabet::union_all(machines.iter().map(|m| m.alphabet()));
        self.uniform_workload(&alphabet, length)
    }

    /// `length` events drawn from `choices` with the given relative
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty or all weights are zero.
    pub fn weighted_workload(self, choices: &[(Event, u32)], length: usize) -> Workload {
        assert!(!choices.is_empty(), "weighted workload needs choices");
        let total: u64 = choices.iter().map(|(_, w)| *w as u64).sum();
        assert!(total > 0, "weights must not all be zero");
        let mut rng = self.rng();
        Workload::scripted((0..length).map(|_| {
            let mut pick = rng.gen_range(0..total);
            for (e, w) in choices {
                if pick < *w as u64 {
                    return e.clone();
                }
                pick -= *w as u64;
            }
            choices.last().expect("non-empty").0.clone()
        }))
    }

    /// A plan crashing `count` distinct servers at random points of a
    /// `workload_len`-event run.
    pub fn crash_plan(self, num_servers: usize, count: usize, workload_len: usize) -> FaultPlan {
        self.fault_plan(num_servers, count, workload_len, |_, _| FaultKind::Crash)
    }

    /// A plan corrupting `count` distinct servers to explicit in-range
    /// states (`machine_sizes[server]` states each), so it passes
    /// [`FaultPlan::validate`] against a group of those machines.
    pub fn explicit_corruption_plan(
        self,
        machine_sizes: &[usize],
        count: usize,
        workload_len: usize,
    ) -> FaultPlan {
        self.fault_plan(machine_sizes.len(), count, workload_len, |rng, server| {
            FaultKind::Corrupt(fsm_dfsm::StateId(rng.gen_range(0..machine_sizes[server])))
        })
    }

    /// Shared fault-plan core: shuffle the servers, take `count` victims,
    /// draw an injection position (and a kind) for each, sort by position.
    fn fault_plan(
        self,
        num_servers: usize,
        count: usize,
        workload_len: usize,
        mut kind: impl FnMut(&mut SimRng, usize) -> FaultKind,
    ) -> FaultPlan {
        let mut rng = self.rng();
        let mut servers: Vec<usize> = (0..num_servers).collect();
        servers.shuffle(&mut rng);
        let mut faults: Vec<ScheduledFault> = servers
            .into_iter()
            .take(count)
            .map(|server| ScheduledFault {
                after_event: rng.gen_range(0..=workload_len),
                server,
                kind: kind(&mut rng, server),
            })
            .collect();
        faults.sort_by_key(|f| f.after_event);
        FaultPlan { faults }
    }

    /// `count` indices drawn uniformly from `0..num_choices` — the
    /// observation stream of
    /// [`SensorNetwork::observe_randomly`](crate::SensorNetwork::observe_randomly)
    /// and
    /// [`SensorNetwork::random_workload`](crate::SensorNetwork::random_workload).
    ///
    /// # Panics
    ///
    /// Panics if `num_choices` is zero and `count` is not.
    pub fn observations(self, num_choices: usize, count: usize) -> Vec<usize> {
        let mut rng = self.rng();
        (0..count).map(|_| rng.gen_range(0..num_choices)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    #[test]
    fn sim_rng_matches_the_workspace_std_rng_stream() {
        // Historical seeds keep their streams because of this: same seed,
        // same bits.
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut a = SimRng::new(seed);
            let mut b = StdRng::seed_from_u64(seed);
            for _ in 0..200 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let s = Seeded(9);
        assert_eq!(s.split(0), s.split(0));
        assert_ne!(s.split(0), s.split(1));
        assert_ne!(s.split(0).0, s.0);
        // Different parent seeds keep substreams apart too.
        assert_ne!(Seeded(1).split(3), Seeded(2).split(3));
    }

    #[test]
    fn explicit_corruption_plan_stays_in_range() {
        let sizes = [3usize, 4, 5, 2];
        let plan = Seeded(11).explicit_corruption_plan(&sizes, 3, 40);
        assert_eq!(plan.len(), 3);
        for f in &plan.faults {
            match f.kind {
                FaultKind::Corrupt(s) => assert!(s.index() < sizes[f.server]),
                other => panic!("corruption plan produced {other:?}"),
            }
        }
    }

    #[test]
    fn observations_are_reproducible_and_in_range() {
        let a = Seeded(5).observations(7, 100);
        let b = Seeded(5).observations(7, 100);
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| i < 7));
    }
}
