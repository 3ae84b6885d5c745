//! Fault plans: reproducible schedules of faults.
//!
//! A [`FaultPlan`] is plain schedule data: "after event `k`, crash (corrupt,
//! kill, restart) server `s`".  [`Seeded`](crate::Seeded) draws plans from a
//! seed so failure-injection runs are repeatable, within a fault budget (or
//! deliberately past it, for negative tests), and
//! [`run_scenario`](crate::sim::sweep::run_scenario) plays them against a
//! simulated server group, checking recovery as it goes.

use fsm_dfsm::StateId;

use crate::error::{DistsysError, Result};

/// The kind of fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash the server (lose its state).
    Crash,
    /// Move the server to the given state (Byzantine corruption).
    Corrupt(StateId),
    /// Kill the server's *process*: unlike the modeled crash fault, it stops
    /// answering entirely until a [`FaultKind::Restart`].
    Kill,
    /// Restart the server's killed process from its durable state (WAL +
    /// snapshot).  Only meaningful against durable server groups.
    Restart,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Inject the fault after this many events of the workload have been
    /// applied.
    pub after_event: usize,
    /// Which server to affect.
    pub server: usize,
    /// What to do to it.
    pub kind: FaultKind,
}

/// A reproducible schedule of faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The scheduled faults, sorted by `after_event`.
    pub faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Checks the plan against a group of `machine_sizes.len()` servers
    /// (server `i` runs a machine of `machine_sizes[i]` states) fed a
    /// workload of `workload_len` events: every server and corrupt state
    /// in range, faults in `after_event` order and none after an event past
    /// the workload's end (`after_event == workload_len`, after the last
    /// event, is allowed), no [`FaultKind::Kill`] of a server the plan
    /// already took down and no [`FaultKind::Restart`] of a server that is
    /// up.  The first offending fault fails with
    /// [`DistsysError::MalformedPlan`].
    pub fn validate(&self, machine_sizes: &[usize], workload_len: usize) -> Result<()> {
        let mut down = vec![false; machine_sizes.len()];
        let mut last = 0;
        for (i, f) in self.faults.iter().enumerate() {
            let (at, s) = (f.after_event, f.server);
            let reason = match (machine_sizes.get(s), f.kind) {
                (None, _) => format!("server {s} out of range ({} servers)", machine_sizes.len()),
                _ if at < last => format!("out of order: after event {at} follows {last}"),
                _ if at > workload_len => {
                    format!("after event {at}, past the workload's {workload_len} events")
                }
                (Some(&size), FaultKind::Corrupt(StateId(state))) if state >= size => {
                    format!("state {state} out of range for server {s} ({size} states)")
                }
                (_, FaultKind::Kill) if down[s] => format!("server {s} is already down"),
                (_, FaultKind::Restart) if !down[s] => format!("server {s} is up"),
                (_, kind) => {
                    // The guards above make every kill or restart a state flip.
                    down[s] ^= matches!(kind, FaultKind::Kill | FaultKind::Restart);
                    last = at;
                    continue;
                }
            };
            return Err(DistsysError::MalformedPlan { fault: i, reason });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::sweep::{run_scenario, Scenario, ScenarioOutcome};
    use crate::sim::Seeded;
    use crate::system::FusedSystem;
    use fsm_dfsm::Dfsm;
    use fsm_fusion_core::FaultModel;
    use fsm_machines::fig1_machines;
    use FaultKind::*;

    /// A plan of `(after_event, server, kind)` faults.
    fn plan(faults: &[(usize, usize, FaultKind)]) -> FaultPlan {
        let faults = faults
            .iter()
            .map(|&(after_event, server, kind)| ScheduledFault {
                after_event,
                server,
                kind,
            });
        FaultPlan {
            faults: faults.collect(),
        }
    }

    /// Plays `plan` on a quiet network against the Figure 1 machines and
    /// their fused backups for one fault of `model`, over 50 events.
    fn play(seed: u64, model: FaultModel, plan: FaultPlan) -> ScenarioOutcome {
        run_scenario(&Scenario {
            plan,
            ..Scenario::new(seed, fig1_machines(), model, 1, 50)
        })
    }

    /// The machine sizes of the group `play` spawns for `model`.
    fn group_sizes(model: FaultModel) -> Vec<usize> {
        let sys = FusedSystem::new(&fig1_machines(), 1, model).unwrap();
        sys.all_machines().iter().map(Dfsm::size).collect()
    }

    /// The index of the first fault `validate` rejects, if any, for
    /// `play`'s 50 events.
    fn rejected(sizes: &[usize], faults: &[(usize, usize, FaultKind)]) -> Option<usize> {
        match plan(faults).validate(sizes, 50) {
            Err(DistsysError::MalformedPlan { fault, .. }) => Some(fault),
            _ => None,
        }
    }

    #[test]
    fn random_crash_plan_is_reproducible_and_bounded() {
        let p1 = Seeded(9).crash_plan(5, 2, 100);
        let p2 = Seeded(9).crash_plan(5, 2, 100);
        assert_eq!(p1.faults, p2.faults);
        assert_eq!(p1.len(), 2);
        assert!(!p1.is_empty());
        // Distinct servers.
        assert_ne!(p1.faults[0].server, p1.faults[1].server);
        // Sorted by position.
        assert!(p1.faults[0].after_event <= p1.faults[1].after_event);
    }

    #[test]
    fn empty_plan() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert!(p.validate(&[], 0).is_ok());
        let outcome = play(1, FaultModel::Crash, p);
        assert!(outcome.is_ok(), "{:?}", outcome.violations);
        assert_eq!(outcome.injected, 0);
    }

    #[test]
    fn executed_crash_plan_is_recoverable_within_budget() {
        let servers = group_sizes(FaultModel::Crash).len();
        for seed in 0..10u64 {
            let plan = Seeded(seed).crash_plan(servers, 1, 50);
            let outcome = play(seed, FaultModel::Crash, plan);
            assert!(outcome.is_ok(), "seed {seed}: {:?}", outcome.violations);
            assert_eq!(outcome.injected, 1);
        }
    }

    #[test]
    fn executed_corruption_plan_is_recoverable_within_budget() {
        let sizes = group_sizes(FaultModel::Byzantine);
        for seed in 0..10u64 {
            let plan = Seeded(seed).explicit_corruption_plan(&sizes, 1, 50);
            let outcome = play(seed, FaultModel::Byzantine, plan);
            assert!(outcome.is_ok(), "seed {seed}: {:?}", outcome.violations);
            assert_eq!(outcome.injected, 1);
        }
    }

    #[test]
    fn corruption_with_explicit_state() {
        // The corrupted server keeps executing from state 0 for the rest of
        // the workload; recovery still reconstructs the truth.
        let outcome = play(
            3,
            FaultModel::Byzantine,
            plan(&[(2, 0, Corrupt(StateId(0)))]),
        );
        assert!(outcome.is_ok(), "{:?}", outcome.violations);
    }

    #[test]
    fn validate_rejects_kill_and_restart_plan_errors() {
        let sizes = group_sizes(FaultModel::Crash);
        // A Kill aimed at a server the plan already took down, and a
        // Restart aimed at a server that is still up, are malformed.
        assert_eq!(rejected(&sizes, &[(1, 0, Kill), (3, 0, Kill)]), Some(1));
        assert_eq!(rejected(&sizes, &[(2, 1, Restart)]), Some(0));
        // A well-formed kill → restart pair validates and plays both.
        let pair = [(1, 0, Kill), (2, 0, Restart)];
        assert_eq!(rejected(&sizes, &pair), None);
        let outcome = run_scenario(&Scenario {
            plan: plan(&pair),
            snapshot_every: Some(4),
            ..Scenario::new(7, fig1_machines(), FaultModel::Crash, 1, 6)
        });
        assert!(outcome.is_ok(), "{:?}", outcome.violations);
        assert_eq!((outcome.kills, outcome.restarts), (1, 1));
    }

    #[test]
    fn malformed_plans_are_violations_not_panics() {
        let sizes = group_sizes(FaultModel::Byzantine);
        assert_eq!(rejected(&sizes, &[(1, 0, Corrupt(StateId(3)))]), Some(0));
        assert_eq!(rejected(&sizes, &[(5, 0, Crash), (4, 1, Crash)]), Some(1));
        // A server past the group's end is reported before anything runs.
        let outcome = play(2, FaultModel::Byzantine, plan(&[(1, sizes.len(), Crash)]));
        assert_eq!(outcome.injected, 0);
        assert_eq!(outcome.violations.len(), 1, "{:?}", outcome.violations);
        assert!(outcome.violations[0].starts_with("malformed plan: fault 0"));
    }

    #[test]
    fn a_fault_past_the_workload_end_is_a_malformed_plan() {
        let sizes = group_sizes(FaultModel::Crash);
        // `play` runs 50 events: a fault after the last one still fires,
        // one after event 51 never could.
        assert_eq!(rejected(&sizes, &[(50, 0, Crash)]), None);
        assert_eq!(rejected(&sizes, &[(3, 1, Crash), (51, 0, Crash)]), Some(1));
        let outcome = play(4, FaultModel::Crash, plan(&[(60, 0, Crash)]));
        assert_eq!(outcome.injected, 0);
        assert_eq!(outcome.violations.len(), 1, "{:?}", outcome.violations);
        assert!(
            outcome.violations[0].starts_with("malformed plan: fault 0"),
            "{:?}",
            outcome.violations
        );
        // After the last event is legal, and the crash is played.
        let outcome = play(4, FaultModel::Crash, plan(&[(50, 0, Crash)]));
        assert!(outcome.is_ok(), "{:?}", outcome.violations);
        assert_eq!(outcome.injected, 1);
    }
}
