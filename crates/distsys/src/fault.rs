//! Randomized fault injection plans.
//!
//! A [`FaultPlan`] is a reproducible schedule of faults: "after event `k`,
//! crash (or corrupt) server `s`".  Plans are generated with a seeded RNG so
//! failure-injection tests and benchmarks are repeatable, and they respect a
//! fault budget so the scheduled faults stay within what the system is
//! provisioned to tolerate (or deliberately exceed it, for negative tests).

use fsm_dfsm::StateId;

use crate::env::ServerGroup;
use crate::error::{DistsysError, Result};
use crate::system::FusedSystem;
use crate::workload::Workload;

/// The kind of fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash the server (lose its state).
    Crash,
    /// Move the server to the given state (Byzantine corruption).
    Corrupt(StateId),
    /// Kill the server's *process* (it stops answering entirely, unlike the
    /// modeled crash fault).  Against an in-process [`FusedSystem`], which
    /// has no processes, this degrades to a modeled crash.
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
    /// An empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Runs a workload against a [`FusedSystem`], injecting the scheduled
    /// faults at their positions, and returns how many faults were actually
    /// injected.  Recovery is *not* triggered automatically; callers decide
    /// when to recover (typically at the end, as in the paper's model where
    /// the environment pauses during recovery).
    ///
    /// An in-process system has no processes or durable state, so
    /// [`FaultKind::Kill`] degrades to a modeled crash and
    /// [`FaultKind::Restart`] is skipped (not counted as injected) — plans
    /// that exercise kill/restart belong on server groups via
    /// [`FaultPlan::execute_in`].
    pub fn execute(&self, system: &mut FusedSystem, workload: &Workload) -> usize {
        let mut injected = 0usize;
        let mut next_fault = 0usize;
        // Faults scheduled at position 0 fire before any event.
        let fire = |system: &mut FusedSystem, upto: usize, next_fault: &mut usize| {
            let mut count = 0;
            while *next_fault < self.faults.len() && self.faults[*next_fault].after_event <= upto {
                let f = self.faults[*next_fault];
                match f.kind {
                    FaultKind::Crash | FaultKind::Kill => {
                        let _ = system.crash(f.server);
                    }
                    FaultKind::Corrupt(state) => {
                        if state.index() == usize::MAX {
                            let _ = system.corrupt_differently(f.server);
                        } else {
                            let _ = system.corrupt(f.server, state);
                        }
                    }
                    FaultKind::Restart => {
                        *next_fault += 1;
                        continue;
                    }
                }
                *next_fault += 1;
                count += 1;
            }
            count
        };
        injected += fire(system, 0, &mut next_fault);
        for (i, e) in workload.iter().enumerate() {
            system.apply_event(e);
            injected += fire(system, i + 1, &mut next_fault);
        }
        injected
    }

    /// Runs a workload against an externally spawned [`ServerGroup`]
    /// (threaded or simulated), injecting the scheduled faults at their
    /// positions, and returns how many faults were injected.
    ///
    /// Placeholder corruptions (the "current state + 1" faults of
    /// [`Seeded::corruption_plan`](crate::Seeded::corruption_plan)) cannot
    /// be resolved here — the group's servers run remotely, so their
    /// current state is unknown at injection time.  Use
    /// [`Seeded::explicit_corruption_plan`](crate::Seeded::explicit_corruption_plan)
    /// for plans aimed at server groups; a placeholder fault fails with
    /// [`DistsysError::UnresolvedCorruption`] before anything is sent.
    ///
    /// Kill and restart faults are validated against the plan's own
    /// kill/restart history: a [`FaultKind::Kill`] targeting a server this
    /// plan already took down fails with [`DistsysError::ServerDown`], and a
    /// [`FaultKind::Restart`] targeting a server that is *not* down fails
    /// with [`DistsysError::ServerUp`] — neither is silently skipped, so a
    /// malformed plan surfaces instead of under-injecting.
    pub fn execute_in(&self, group: &mut dyn ServerGroup, workload: &Workload) -> Result<usize> {
        if let Some(f) = self
            .faults
            .iter()
            .find(|f| matches!(f.kind, FaultKind::Corrupt(state) if state.index() == usize::MAX))
        {
            return Err(DistsysError::UnresolvedCorruption { server: f.server });
        }
        // The events between two fault positions go out as one batch.
        let events = workload.events();
        let (mut applied, mut injected) = (0usize, 0usize);
        let mut down: Vec<usize> = Vec::new();
        for f in self
            .faults
            .iter()
            .take_while(|f| f.after_event <= events.len())
        {
            if f.after_event > applied {
                group.apply_batch(&events[applied..f.after_event]);
                applied = f.after_event;
            }
            match f.kind {
                FaultKind::Crash => group.crash(f.server),
                FaultKind::Corrupt(state) => group.corrupt(f.server, state),
                FaultKind::Kill => {
                    if down.contains(&f.server) {
                        return Err(DistsysError::ServerDown { server: f.server });
                    }
                    group.kill_process(f.server);
                    down.push(f.server);
                }
                FaultKind::Restart => {
                    let Some(pos) = down.iter().position(|&s| s == f.server) else {
                        return Err(DistsysError::ServerUp { server: f.server });
                    };
                    group.restart_process(f.server)?;
                    down.swap_remove(pos);
                }
            }
            injected += 1;
        }
        group.apply_batch(&events[applied..]);
        Ok(injected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Seeded;
    use fsm_fusion_core::FaultModel;
    use fsm_machines::fig1_machines;

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
        let p = FaultPlan::none();
        assert!(p.is_empty());
        let mut sys = FusedSystem::new(&fig1_machines(), 1, FaultModel::Crash).unwrap();
        let w = Workload::from_bits("0101");
        assert_eq!(p.execute(&mut sys, &w), 0);
        assert_eq!(sys.metrics().events_processed, 4);
    }

    #[test]
    fn executed_crash_plan_is_recoverable_within_budget() {
        for seed in 0..10u64 {
            let mut sys = FusedSystem::new(&fig1_machines(), 1, FaultModel::Crash).unwrap();
            let w = Seeded(seed).workload_over_machines(&fig1_machines(), 50);
            let plan = Seeded(seed).crash_plan(sys.num_servers(), 1, w.len());
            let injected = plan.execute(&mut sys, &w);
            assert_eq!(injected, 1);
            let outcome = sys.recover().unwrap();
            assert!(outcome.matches_oracle, "seed {seed}");
            assert!(sys.consistent_with_oracle(), "seed {seed}");
        }
    }

    #[test]
    fn executed_corruption_plan_is_recoverable_within_budget() {
        for seed in 0..10u64 {
            let mut sys = FusedSystem::new(&fig1_machines(), 1, FaultModel::Byzantine).unwrap();
            let w = Seeded(seed).workload_over_machines(&fig1_machines(), 50);
            let plan = Seeded(seed).corruption_plan(sys.num_servers(), 1, w.len());
            plan.execute(&mut sys, &w);
            let outcome = sys.recover().unwrap();
            assert!(outcome.matches_oracle, "seed {seed}");
        }
    }

    #[test]
    fn execute_in_surfaces_kill_and_restart_plan_errors() {
        use crate::env::{Environment, GroupConfig};

        let machines = fig1_machines();
        let env = Seeded(7).sim().build();
        let config = GroupConfig::new().durable();
        let w = Workload::from_bits("010101");

        // Regression: a Kill aimed at a server the plan already took down
        // must fail with the typed error, not silently skip the fault.
        let mut group = env.spawn_group(&machines, &config);
        let plan = FaultPlan {
            faults: vec![
                ScheduledFault {
                    after_event: 1,
                    server: 0,
                    kind: FaultKind::Kill,
                },
                ScheduledFault {
                    after_event: 3,
                    server: 0,
                    kind: FaultKind::Kill,
                },
            ],
        };
        assert!(matches!(
            plan.execute_in(&mut *group, &w),
            Err(DistsysError::ServerDown { server: 0 })
        ));

        // …and a Restart aimed at a server that is still up fails likewise.
        let mut group = env.spawn_group(&machines, &config);
        let plan = FaultPlan {
            faults: vec![ScheduledFault {
                after_event: 2,
                server: 1,
                kind: FaultKind::Restart,
            }],
        };
        assert!(matches!(
            plan.execute_in(&mut *group, &w),
            Err(DistsysError::ServerUp { server: 1 })
        ));

        // A well-formed kill → restart pair executes and counts both.
        let mut group = env.spawn_group(&machines, &config);
        let plan = FaultPlan {
            faults: vec![
                ScheduledFault {
                    after_event: 1,
                    server: 0,
                    kind: FaultKind::Kill,
                },
                ScheduledFault {
                    after_event: 2,
                    server: 0,
                    kind: FaultKind::Restart,
                },
            ],
        };
        assert_eq!(plan.execute_in(&mut *group, &w).unwrap(), 2);
    }

    #[test]
    fn execute_degrades_kill_to_crash_and_skips_restart_in_process() {
        let mut sys = FusedSystem::new(&fig1_machines(), 1, FaultModel::Crash).unwrap();
        let w = Workload::from_bits("0101");
        let plan = FaultPlan {
            faults: vec![
                ScheduledFault {
                    after_event: 1,
                    server: 0,
                    kind: FaultKind::Kill,
                },
                ScheduledFault {
                    after_event: 2,
                    server: 0,
                    kind: FaultKind::Restart,
                },
            ],
        };
        // Kill counts as an injected (modeled) crash; Restart is skipped.
        assert_eq!(plan.execute(&mut sys, &w), 1);
        assert_eq!(sys.metrics().crashes_injected, 1);
        let outcome = sys.recover().unwrap();
        assert!(outcome.matches_oracle);
    }

    #[test]
    fn corruption_with_explicit_state() {
        let mut sys = FusedSystem::new(&fig1_machines(), 1, FaultModel::Byzantine).unwrap();
        let w = Workload::from_bits("0011");
        let plan = FaultPlan {
            faults: vec![ScheduledFault {
                after_event: 2,
                server: 0,
                kind: FaultKind::Corrupt(StateId(0)),
            }],
        };
        plan.execute(&mut sys, &w);
        // The corrupted server kept executing from state 0 for the last two
        // events; recovery still reconstructs the truth.
        let outcome = sys.recover().unwrap();
        assert!(outcome.matches_oracle);
    }
}
