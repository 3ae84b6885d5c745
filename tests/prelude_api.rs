//! Guards the facade's public API surface: the `prelude` must keep exposing
//! the quickstart types, and the README/doctest scenario must keep working
//! as a plain integration test.
//!
//! If a refactor renames or drops a re-export, this file fails to compile —
//! which is the point: it turns silent API breakage into a red CI run.

use fsm_fusion::prelude::*;

/// Every quickstart name must be importable from the prelude alone.
///
/// The let-bindings pin the *path*, not behaviour; each one is a name the
/// README or rustdoc examples reference.
#[test]
fn prelude_exposes_quickstart_surface() {
    // Types usable in signatures straight from the prelude.
    fn _takes_system(_: &FusedSystem) {}
    fn _takes_workload(_: &Workload) {}
    fn _takes_fault_model(_: FaultModel) {}
    fn _takes_machine(_: &Dfsm) {}
    fn _takes_product(_: &ReachableProduct) {}
    fn _takes_partition(_: &Partition) {}
    fn _takes_fault_graph(_: &FaultGraph) {}
    fn _takes_replicated(_: &ReplicatedSystem) {}

    // Constructors / functions reachable without naming a sub-crate.
    let machines = fig1_machines();
    assert_eq!(machines.len(), 2);
    let workload = Workload::from_bits("0110");
    assert_eq!(workload.len(), 4);
    let _ = FaultModel::Crash;
    let _ = FaultModel::Byzantine;
    let rows = table1_rows();
    assert!(!rows.is_empty());
}

/// The deterministic-simulation surface added by the `Environment` redesign
/// must also be importable from the prelude alone.
#[test]
fn prelude_exposes_simulation_surface() {
    // Types usable in signatures straight from the prelude.
    fn _takes_env(_: &dyn Environment) {}
    fn _takes_group(_: &dyn ServerGroup) {}
    fn _takes_group_config(_: &GroupConfig) {}
    fn _takes_sim_config(_: &SimConfig) {}
    fn _takes_sim_env(_: &SimEnvironment) {}
    fn _takes_os_env(_: &OsEnvironment) {}
    fn _takes_trace_event(_: &TraceEvent) {}
    fn _takes_scenario(_: &Scenario) {}
    fn _takes_sweep_report(_: &SweepReport) {}

    // Constructors reachable without naming a sub-crate.
    let _ = GroupConfig::new().report_poll(std::time::Duration::from_millis(5));
    let sim = Seeded(42).sim().drop_probability(0.1).build();
    assert_eq!(sim.now(), std::time::Duration::ZERO);
    let os = OsEnvironment::seeded(42);
    assert_eq!(os.name(), "os");

    // The sweep harness is callable from the facade.
    let report = sweep(7, 2);
    assert_eq!(report.scenarios, 2);
    assert!(report.all_passed(), "violations: {:?}", report.violations);
}

/// The crash-recovery surface — durable servers, stores, rejoin paths and
/// the recovery sweep harness — must be importable from the prelude alone.
#[test]
fn prelude_exposes_recovery_surface() {
    // Types usable in signatures straight from the prelude.
    fn _takes_durable(_: &DurableServer) {}
    fn _takes_durability(_: &DurabilityConfig) {}
    fn _takes_rejoin(_: RejoinPath) {}
    fn _takes_replay_stats(_: &ReplayStats) {}
    fn _takes_store(_: &dyn Store) {}
    fn _takes_shared_store(_: &SharedStore) {}
    fn _takes_dir_store(_: &DirStore) {}
    fn _takes_fault_kind(_: FaultKind) {}
    fn _takes_backend_cost(_: &BackendCost) {}
    let _: fn(u64) -> Scenario = Scenario::recovery_from_seed;

    // Constructors reachable without naming a sub-crate.
    let config = DurabilityConfig::new().snapshot_every(8);
    let store = shared(MemStore::new());
    let machine = fig1_machines().remove(0);
    let mut server = DurableServer::fresh(machine.clone(), store.clone(), "s0", &config).unwrap();
    server.apply(&Event::new("0")).unwrap();
    drop(server);
    let (recovered, stats) = DurableServer::recover(machine, store, "s0", &config).unwrap();
    assert_eq!(stats.acked_seq, 1);
    assert_eq!(recovered.acked_seq(), 1);

    // The rejoin-path policy and its cutover are part of the surface.
    assert_eq!(RejoinPath::choose(5, 5), RejoinPath::Current);
    assert_eq!(
        RejoinPath::choose(0, REPLAY_CUTOVER + 1),
        RejoinPath::PeerDecode {
            gap: REPLAY_CUTOVER + 1
        }
    );

    // The recovery sweep and backend comparison are callable.
    let report = sweep_recovery(3, 2);
    assert!(report.all_passed(), "violations: {:?}", report.violations);
    let (fusion, replication) = compare_backends(3, 1);
    assert_eq!(fusion.runs, 1);
    assert_eq!(replication.runs, 1);
}

/// The batched-ingestion surface — the pipeline, its config, the typed
/// backpressure error and the serving scenario report — must be importable
/// from the prelude alone.
#[test]
fn prelude_exposes_ingest_surface() {
    // Types usable in signatures straight from the prelude.
    fn _takes_pipeline(_: &IngestPipeline) {}
    fn _takes_ingest_config(_: &IngestConfig) {}
    fn _takes_ingest_metrics(_: IngestMetrics) {}
    fn _takes_client(_: &ClientHandle) {}
    fn _takes_lane_status(_: LaneStatus) {}
    fn _takes_serve_report(_: &ServeReport) {}

    // Constructors and the end-to-end serving path, reachable without
    // naming a sub-crate.
    let config = IngestConfig::new().queue_cap(8).batch_max(4);
    // The config holds batch_max 4: setting it again changes nothing.
    assert_eq!(config.clone().batch_max(4), config);
    let pipeline = IngestPipeline::new(2, 3, &config);
    assert_eq!(pipeline.clients(), 2);
    assert_eq!(pipeline.lane_status(0), LaneStatus::Healthy);

    let net = SensorNetwork::new(3).unwrap();
    let env = Seeded(11).sim().build();
    let workload = net.random_workload(60, 11);
    let report = net.serve(&env, 2, &workload, &config).unwrap();
    assert_eq!(report.events, 60);
    assert!(report.missing.is_empty());
    assert_eq!(report.metrics.flushed_events, 60);
}

/// The evolving-top surface — top deltas, update statistics and the
/// product-extension record — must be importable from the prelude alone.
#[test]
fn prelude_exposes_delta_surface() {
    // Types usable in signatures straight from the prelude.
    fn _takes_delta(_: &TopDelta) {}
    fn _takes_update_stats(_: UpdateStats) {}
    fn _takes_extension(_: &FactorExtension) {}

    // The evolving-top workflow, reachable without naming a sub-crate.
    let mut machines = fig1_machines();
    let mut session = FusionConfig::new().build();
    session.install_top(&machines[..1]).unwrap();
    let added = machines.remove(1);
    let stats = session.update_top(TopDelta::AddMachine(added)).unwrap();
    assert!(!stats.cold_rebuild, "{stats}");
    assert_eq!(session.top_product().unwrap().size(), 9);
    let fusion = session.generate_top_fusion(1).unwrap();
    assert_eq!(fusion.machine_sizes(), vec![3]);
}

/// The `src/lib.rs` doctest scenario, as a plain test: crash one of the
/// Figure 1 mod-3 counters, recover, and match the oracle.
#[test]
fn quickstart_scenario_recovers_from_crash() {
    let machines = fig1_machines();
    let mut system = FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
    system.apply_workload(&Workload::from_bits("0110100101"));

    system.crash(0).unwrap();
    let outcome = system.recover().unwrap();
    assert!(outcome.matches_oracle);

    // Recovery restored the exact pre-crash state: 5 zeros mod 3 = 2.
    assert_eq!(system.server(0).current_state().index(), 2);
}

/// The same scenario under the Byzantine fault model: a lying server is
/// detected and corrected.
#[test]
fn quickstart_scenario_corrects_byzantine_lie() {
    let machines = fig1_machines();
    let mut system = FusedSystem::new(&machines, 1, FaultModel::Byzantine).unwrap();
    system.apply_workload(&Workload::from_bits("0110100101"));

    let truth = system.server(0).current_state();
    system.corrupt_differently(0).unwrap();
    let outcome = system.recover().unwrap();
    assert!(outcome.matches_oracle);
    assert_eq!(system.server(0).current_state(), truth);
    assert!(outcome.recovery.suspected_byzantine.contains(&0));
}

/// Generation via the prelude: one backup machine of 3 states suffices for
/// one crash fault over the Figure 1 pair (the paper's headline example).
#[test]
fn prelude_generation_matches_paper_headline() {
    let machines = fig1_machines();
    let (product, fusion) = generate_fusion_for_machines(&machines, 1).unwrap();
    assert_eq!(product.size(), 9);
    assert_eq!(fusion.machine_sizes(), vec![3]);
}
