//! Machine-readable perf baseline for the fusion hot paths.
//!
//! Run with: `cargo run --release -p fsm-fusion-bench --bin perf_baseline`
//!
//! Times the partition operations, the fault-graph build, the kept
//! fault-graph queries, the Algorithm-2 search at several `⊤` state counts
//! and the reachable-product construction (packed, reference) with small
//! fixed iteration counts, and emits the JSON of `BENCH_fusion.json` (see
//! README.md for the format) to the `--out` file.  The packed product build is measured next to the
//! tuple-keyed `ReachableProduct::new_reference` (`product_build_scan_n729`),
//! the session's `f` sweep with its cached initial fault graph
//! (`alg2_sweep_cached_*`) next to the cold free-function sweep
//! (`alg2_sweep_cold_*`), and the delta-aware update paths
//! (`alg2_update_add_machine_*`, `product_extend_factor_*`) next to cold
//! rebuilds of the evolved context; the JSON records all three speedup
//! ratio sets.  Those four twins ([`TWIN_OPS`]) document the ratios and
//! never gate.
//! The crash-recovery pipeline is covered by `wal_append_frame`,
//! `durable_apply_batch256` (group commit), `recover_replay_n512` and
//! `recover_decode_f1`, the threaded runner by `group_marker_round_n5` (a
//! 64-event batch and a report-marker round through a five-server group,
//! on the wall clock), and the `sim_sweep`
//! section records a fusion-vs-replication cost comparison over identical
//! seeds (`backend_comparison`).  The scaling workloads past the old
//! `10⁴` wall are `alg2_search_n6561`, `alg2_search_n59049`,
//! `product_build_n6561` and `product_build_n59049`.
//! `alg2_search_table1_mesi_tcp_f1` times a Table 1 row whose descent
//! examines 15,400 candidates and keeps none — the failing-candidate path.  `lattice_walk_n81` times a full
//! `enumerate_lattice` (212 closed partitions of four mod-3 counters), the
//! lattice-walk path.  `fault_graph_build_n6561` times the fault-graph
//! build at |⊤| = 6561 alone, and `alg2_session_n6561` the same f = 1 job
//! as `alg2_search_n6561` through a cold `FusionSession` (graph slot
//! included).  Every op records the peak
//! resident set observed during its section as a documentation-only
//! `peak_rss_kb` field.
//! Each figure is the median of five rounds of at least [`MIN_ITERS`]
//! iterations, so one scheduler hiccup on a shared runner cannot fake (or
//! hide) a regression.
//!
//! Flags:
//!
//! * `--out <file>` — write the JSON there.  Without it the run writes
//!   nothing, so `--check BENCH_fusion.json` leaves the baseline it read
//!   as it was.
//! * `--check <file>` — compare against a previously committed baseline and
//!   exit non-zero if any shared op regressed more than 2× *after
//!   normalizing by the calibration op*, which cancels out absolute machine
//!   speed so the committed numbers stay meaningful on different hardware.
//!
//! Refresh the committed baseline locally with:
//! `cargo run --release -p fsm-fusion-bench --bin perf_baseline -- --out BENCH_fusion.json`

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fsm_dfsm::{Event, ReachableProduct};
use fsm_distsys::sim::sweep::{compare_backends, run_scenario, BackendCost, Scenario};
use fsm_distsys::{
    shared, wal, DurabilityConfig, DurableServer, FusedSystem, MemStore, ParallelServerGroup,
    SensorNetwork, ServerGroup,
};
use fsm_fusion_bench::{
    counter_family, extract_json_section, peak_rss_kb, reset_peak_rss, upsert_json_section,
    SIM_SWEEP_SEEDS,
};
use fsm_fusion_core::{
    enumerate_lattice, generate_fusion, is_fusion, projection_partitions, FaultGraph, FaultModel,
    FusionConfig, MachineReport, Partition, TopDelta,
};
use fsm_machines::table1_rows;

/// Regression threshold for `--check`: calibration-normalized ns/op may grow
/// by at most this factor before the run fails.
const REGRESSION_FACTOR: f64 = 2.0;

/// Every op runs at least this many iterations per timed round, whatever
/// the caller requests: at `iters: 2` a single scheduler hiccup on a shared
/// CI runner could dominate the round and trip the >2x regression gate.
const MIN_ITERS: u64 = 3;

/// Timed rounds per op; the reported figure is the median round.
const ROUNDS: usize = 5;

/// The op every other measurement is normalized by in `--check` mode: a
/// fixed chunk of pure integer work whose duration tracks the machine's
/// scalar speed.
const CALIBRATION_OP: &str = "calibration_splitmix64_1m";

/// The twins measured only to document a speedup ratio: `--check` never
/// gates them, and every other op gates.
const TWIN_OPS: [&str; 4] = [
    "product_build_scan_n729",
    "alg2_sweep_cold_n729",
    "alg2_cold_add_machine_n729",
    "product_extend_factor_cold_n729",
];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A deterministic pseudo-random partition of `n` elements into at most
/// `max_blocks` blocks.
fn random_partition(n: usize, max_blocks: usize, rng: &mut SplitMix64) -> Partition {
    let assignment: Vec<usize> = (0..n).map(|_| (rng.next() as usize) % max_blocks).collect();
    Partition::from_assignment(&assignment)
}

/// One warm-up call, then [`ROUNDS`] timed rounds of `iters` calls each
/// (clamped to [`MIN_ITERS`]); returns the *median* round's ns per call.
/// The median discards scheduler stalls and frequency-scaling hiccups in
/// either direction, which matters on shared CI runners where one slow
/// round would otherwise look like a regression (and one lucky round would
/// hide one).
fn bench<T>(iters: u64, mut f: impl FnMut() -> T) -> f64 {
    let iters = iters.max(MIN_ITERS);
    black_box(f());
    let mut rounds = [0f64; ROUNDS];
    for r in rounds.iter_mut() {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        *r = start.elapsed().as_nanos() as f64 / iters as f64;
    }
    rounds.sort_unstable_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

struct Measurement {
    name: &'static str,
    ns_per_op: f64,
    iters: u64,
    /// Peak resident set (KiB) observed since the previous op finished —
    /// the op's own setup plus its timed rounds.  `None` off Linux.
    peak_rss_kb: Option<u64>,
}

fn measure_all() -> Vec<Measurement> {
    let mut out = Vec::new();
    reset_peak_rss();
    let mut push = |name: &'static str, iters: u64, ns: f64| {
        // Record the clamp `bench` applies, so the JSON documents the
        // iteration count that actually ran.
        let iters = iters.max(MIN_ITERS);
        // Sample the high-water mark accumulated since the previous push
        // (this op's setup + timed rounds), then reset it for the next op.
        // Where the reset is rejected the figure degrades to the
        // process-lifetime peak, which is still an upper bound.
        let peak = peak_rss_kb();
        reset_peak_rss();
        println!("{name:<36} {:>14.1} ns/op   ({iters} iters)", ns);
        out.push(Measurement {
            name,
            ns_per_op: ns,
            iters,
            peak_rss_kb: peak,
        });
    };

    // Calibration: fixed pure-integer work, used by --check to normalize
    // away absolute machine speed.
    {
        let iters = 50;
        let ns = bench(iters, || {
            let mut rng = SplitMix64(0xDEAD_BEEF);
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(rng.next());
            }
            acc
        });
        push(CALIBRATION_OP, iters, ns);
    }

    // Partition operations over a pool of pseudo-random partitions of an
    // 81-element set (the mid-size Algorithm-2 workload below).
    let n = 81;
    let mut rng = SplitMix64(42);
    let pool: Vec<Partition> = (0..32).map(|_| random_partition(n, 9, &mut rng)).collect();
    let pairs: Vec<(&Partition, &Partition)> = (0..pool.len())
        .map(|i| (&pool[i], &pool[(i * 7 + 1) % pool.len()]))
        .collect();

    {
        let mut i = 0;
        let iters = 20_000;
        let ns = bench(iters, || {
            let (p, q) = pairs[i % pairs.len()];
            i += 1;
            p.le(q) || q.le(p)
        });
        push("partition_le_n81", iters, ns);
    }
    {
        let mut i = 0;
        let iters = 5_000;
        let ns = bench(iters, || {
            let (p, q) = pairs[i % pairs.len()];
            i += 1;
            p.meet(q)
        });
        push("partition_meet_n81", iters, ns);
    }
    {
        let mut i = 0;
        let iters = 10_000;
        let ns = bench(iters, || {
            let (p, q) = pairs[i % pairs.len()];
            i += 1;
            p.join(q)
        });
        push("partition_join_n81", iters, ns);
    }

    // Fault-graph build: 24 random machines over 81 states (dmin 14, so the
    // build sweeps its rows).
    {
        let machines: Vec<Partition> = pool.iter().take(24).cloned().collect();
        let iters = 200;
        let ns = bench(iters, || FaultGraph::from_partitions(n, &machines));
        push("fault_graph_build_n81_m24", iters, ns);
    }

    // The kept fault-graph queries (dmin / weakest edges / speculation) over
    // 24 random machines of 243 states (~29k edges).
    {
        let n2 = 243;
        let mut rng = SplitMix64(7);
        let machines: Vec<Partition> = (0..24).map(|_| random_partition(n2, 9, &mut rng)).collect();
        let g = FaultGraph::from_partitions(n2, &machines);

        let iters = 100_000;
        let ns = bench(iters, || g.dmin());
        push("fault_graph_incremental_dmin_n243_m24", iters, ns);

        let iters = 5_000;
        let ns = bench(iters, || g.weakest_edges());
        push("fault_graph_incremental_weakest_n243_m24", iters, ns);

        let mut i = 0;
        let iters = 5_000;
        let ns = bench(iters, || {
            i += 1;
            g.speculate(&machines[i % machines.len()])
        });
        push("fault_graph_incremental_speculate_n243_m24", iters, ns);
    }

    // Algorithm-2 search on the scaling workload (disjoint mod-3 counter
    // families; |⊤| = 3^count).
    for (count, iters) in [(3usize, 200u64), (4, 50), (5, 20), (6, 5)] {
        let machines = counter_family(count, 3);
        let product = ReachableProduct::new(&machines).unwrap();
        let originals = projection_partitions(&product);
        let top = product.top();
        let size = product.size();
        let name: &'static str = match size {
            27 => "alg2_search_n27_f2",
            81 => "alg2_search_n81_f2",
            243 => "alg2_search_n243_f2",
            729 => "alg2_search_n729_f2",
            _ => unreachable!("unexpected product size {size}"),
        };
        let ns = bench(iters, || generate_fusion(top, &originals, 2).unwrap());
        push(name, iters, ns);
    }

    // Reachable-product construction at |⊤| = 729: the packed mixed-radix
    // build against the preserved tuple-keyed reference BFS (the `_scan`
    // twin).
    {
        let machines = counter_family(6, 3);
        let iters = 50;
        let ns = bench(iters, || ReachableProduct::new(&machines).unwrap());
        push("product_build_n729", iters, ns);
        let ns = bench(iters, || {
            ReachableProduct::new_reference(&machines).unwrap()
        });
        push("product_build_scan_n729", iters, ns);
    }

    // Past the 10⁴ wall: the scaling workloads the weakest-edge fault graph
    // exists for.  |⊤| = 3⁸ = 6561 runs the full pipeline (packed product
    // build, then the Algorithm-2 descent over a fault graph whose ~21.5M
    // state pairs are never stored: only its 52,488 weakest edges are
    // kept); the `peak_rss_kb` field recorded with every op documents the
    // memory side.
    {
        let machines = counter_family(8, 3);
        let iters = 50;
        let ns = bench(iters, || ReachableProduct::new(&machines).unwrap());
        push("product_build_n6561", iters, ns);

        let product = ReachableProduct::new(&machines).unwrap();
        let originals = projection_partitions(&product);
        let top = product.top();
        let ns = bench(MIN_ITERS, || generate_fusion(top, &originals, 1).unwrap());
        push("alg2_search_n6561", MIN_ITERS, ns);

        // The fault-graph layer alone: the weakest-edge level search.
        let n = product.size();
        let iters = 10;
        let ns = bench(iters, || FaultGraph::from_partitions(n, &originals));
        push("fault_graph_build_n6561", iters, ns);

        // A cold session generating f = 1: the path a fresh
        // `FusionSession` takes, initial-fault-graph slot included.
        let iters = 5;
        let ns = bench(iters, || {
            let mut session = FusionConfig::new().build();
            session.generate_fusion(top, &originals, 1).unwrap()
        });
        push("alg2_session_n6561", iters, ns);
    }

    // The packed product build at |⊤| = 3¹⁰ = 59049, the scale of
    // `alg2_search_n59049`.
    {
        let machines = counter_family(10, 3);
        let iters = 5;
        let ns = bench(iters, || {
            let product = ReachableProduct::new(&machines).unwrap();
            assert_eq!(product.size(), 59_049);
            product.size()
        });
        push("product_build_n59049", iters, ns);
    }

    // Session amortization at |⊤| = 729: a FusionSession sweeping
    // f = 1..=3 against the same sweep on the cold free-function path.  The
    // pair measures what the session keeps across calls: the
    // initial-fault-graph slot, plus a warm kernel and scratch.  The
    // session lives outside the timing loop (warm after the harness's
    // warm-up call).  The `_cold` op is a documentation twin ([`TWIN_OPS`])
    // and never gates.
    {
        let machines = counter_family(6, 3);
        let product = ReachableProduct::new(&machines).unwrap();
        let originals = projection_partitions(&product);
        let top = product.top();
        let mut session = FusionConfig::new().build();
        let iters = 10;
        let ns = bench(iters, || {
            (1..=3)
                .map(|f| session.generate_fusion(top, &originals, f).unwrap().len())
                .sum::<usize>()
        });
        push("alg2_sweep_cached_n729", iters, ns);
        let ns = bench(iters, || {
            (1..=3)
                .map(|f| generate_fusion(top, &originals, f).unwrap().len())
                .sum::<usize>()
        });
        push("alg2_sweep_cold_n729", iters, ns);
    }

    // Delta-aware re-fusion at |⊤| = 729: one add/remove cycle through
    // `FusionSession::update_top` — product stride-extension, the
    // fault-graph remaps and context reinstall — against materializing the
    // same two fusion contexts (product, projection partitions, fault
    // graph) cold at both endpoints of the cycle.  The machine set is
    // replication-shaped: six mod-3 counters, each deployed as four copies
    // — the replication baseline the paper compares fusion against at
    // three crash faults.  `⊤` stays at 729 states; the cold side builds
    // both products and searches both graphs from level 0, the warm side
    // extends the product and remaps the kept graph; the cycled machine is
    // the last replica.  The generation walk itself is excluded from both
    // sides: `tests/delta_properties.rs` pins it bit-identical, so it would
    // only add the same constant to both figures.  The `_cold` op is a
    // documentation twin ([`TWIN_OPS`]) and never gates.
    {
        let mut family = counter_family(6, 3);
        let primaries = family.clone();
        for _ in 0..3 {
            family.extend(primaries.iter().cloned());
        }
        let last = family.len() - 1;
        let mut session = FusionConfig::new().build();
        session.install_top(&family[..last]).unwrap();
        // Prime the session's graph slot: the very first add has nothing to
        // remap and cold-builds; every cycle after it stays warm.
        session
            .update_top(TopDelta::AddMachine(family[last].clone()))
            .unwrap();
        session.update_top(TopDelta::RemoveMachine(last)).unwrap();
        let iters = 10;
        let ns = bench(iters, || {
            let up = session
                .update_top(TopDelta::AddMachine(family[last].clone()))
                .unwrap();
            assert!(!up.graph_rebuilt, "cycle must stay on the warm graph path");
            assert_eq!(session.top_product().unwrap().size(), 729);
            let down = session.update_top(TopDelta::RemoveMachine(last)).unwrap();
            assert!(!down.graph_rebuilt, "contraction must reuse the graph");
            up.graph_stripes_touched + down.graph_stripes_touched
        });
        push("alg2_update_add_machine_n729", iters, ns);
        let ns = bench(iters, || {
            let grown = ReachableProduct::new(&family).unwrap();
            let originals = projection_partitions(&grown);
            let graph = FaultGraph::from_partitions(grown.size(), &originals);
            let back = ReachableProduct::new(&family[..last]).unwrap();
            let shrunk = projection_partitions(&back);
            let graph_back = FaultGraph::from_partitions(back.size(), &shrunk);
            graph.dmin() as usize + graph_back.dmin() as usize + grown.size() + back.size()
        });
        push("alg2_cold_add_machine_n729", iters, ns);
    }

    // The product layer of the same add-one-machine delta in isolation:
    // `extend_factor`'s pair walk against the cold rebuild of the grown
    // product, on the same 24-machine replicated family.  This is where
    // the stride-extension design earns its keep structurally: the
    // extension interns `(base state, new coordinate)` pairs — a space
    // that stays small and dense no matter the arity — while the cold
    // build's mixed-radix tuple space (3²⁴) has long outgrown the dense
    // interner and degrades to hashed interning.
    {
        let mut family = counter_family(6, 3);
        let primaries = family.clone();
        for _ in 0..3 {
            family.extend(primaries.iter().cloned());
        }
        let last = family.len() - 1;
        let base = ReachableProduct::new(&family[..last]).unwrap();
        let iters = 50;
        let ns = bench(iters, || {
            let (grown, ext) = base.extend_factor(&family[last]).unwrap();
            assert_eq!(grown.size(), 729);
            ext.reexpanded
        });
        push("product_extend_factor_n729", iters, ns);
        let ns = bench(iters, || ReachableProduct::new(&family).unwrap().size());
        push("product_extend_factor_cold_n729", iters, ns);
    }

    // One deterministic simulation scenario end to end: spawn the simulated
    // group, drive the seeded workload through the chaotic network, inject
    // the scripted faults, decode and verify recovery.  A fixed seed keeps
    // the measured world identical across runs (determinism is the point),
    // so the op tracks the scheduler + network + recovery cost, not
    // scenario-mix luck.
    {
        let scenario = Scenario::from_seed(11);
        let iters = 20;
        let ns = bench(iters, || {
            let outcome = run_scenario(&scenario);
            assert!(
                outcome.is_ok(),
                "seed 11 regressed: {:?}",
                outcome.violations
            );
            outcome.trace_hash
        });
        push("sim_scenario_seed11", iters, ns);
    }

    // The crash-recovery hot paths, one op per stage of the rejoin
    // pipeline: append-before-ack (every event a durable server ever
    // acknowledges pays this), log replay on restart, and the Algorithm-3
    // decode used when a rejoining server resyncs from its peers instead.

    // One WAL frame: encode, checksum, append to an in-memory store.  The
    // log is reset every 4096 frames so the figure tracks per-frame cost,
    // not the cost of copying an ever-growing file.
    {
        let store = shared(MemStore::new());
        let name = wal::wal_name("perf");
        let event = Event::new("e0");
        let mut seq = 0u64;
        let iters = 20_000;
        let ns = bench(iters, || {
            seq += 1;
            wal::append(&store, &name, seq, &event).expect("wal append");
            if seq % 4096 == 0 {
                wal::truncate(&store, &name, 0).expect("wal truncate");
                seq = 0;
            }
            seq
        });
        push("wal_append_frame", iters, ns);
    }

    // Group commit: one 256-event batch through a durable server — its
    // frames encoded into the server's reused buffer, appended in one store
    // call, then applied.  1024 / 256 puts a snapshot (and compaction)
    // after every fourth batch, so the figure includes its amortized share.
    {
        let machines = counter_family(3, 3);
        let config = DurabilityConfig::new().snapshot_every(1024);
        let mut server =
            DurableServer::fresh(machines[0].clone(), shared(MemStore::new()), "gc", &config)
                .expect("fresh durable server");
        let batch: Vec<Event> = (0..256)
            .map(|i| Event::new(format!("e{}", i % 3)))
            .collect();
        let iters = 2_000;
        let ns = bench(iters, || {
            server.apply_batch(&batch).expect("group commit");
            server.acked_seq()
        });
        push("durable_apply_batch256", iters, ns);
    }

    // Restart-from-log: rebuild a durable server by replaying a 512-frame
    // WAL suffix (snapshotting disabled so every frame is replayed — the
    // worst case a `snapshot_every` misconfiguration can produce).
    {
        let machines = counter_family(3, 3);
        let store = shared(MemStore::new());
        let config = DurabilityConfig::new().snapshot_every(1 << 20);
        let mut seeded = DurableServer::fresh(machines[0].clone(), store.clone(), "rp", &config)
            .expect("fresh durable server");
        let event = Event::new("e0");
        for _ in 0..512 {
            seeded.apply(&event).expect("seed apply");
        }
        drop(seeded);
        let iters = 300;
        let ns = bench(iters, || {
            let (server, stats) =
                DurableServer::recover(machines[0].clone(), store.clone(), "rp", &config)
                    .expect("recover");
            assert_eq!(stats.frames_replayed, 512);
            black_box(server.acked_seq())
        });
        push("recover_replay_n512", iters, ns);
    }

    // Peer-resync decode: Algorithm 3 reconstructing one crashed server's
    // state from the surviving reports — what a rejoining server runs when
    // its log gap makes replay more expensive than asking its peers.
    {
        let machines = counter_family(3, 3);
        let mut sys =
            FusedSystem::new(&machines, 1, FaultModel::Crash).expect("fused counter system");
        for i in 0..24usize {
            sys.apply_event(&Event::new(format!("e{}", i % 3)));
        }
        let mut reports: Vec<MachineReport> = (0..sys.num_servers())
            .map(|i| MachineReport::State(sys.oracle_state_of(i).index()))
            .collect();
        reports[0] = MachineReport::Crashed;
        let iters = 2_000;
        let ns = bench(iters, || {
            let ext = sys.recover_external(&reports).expect("external decode");
            assert!(ext.matches_oracle, "decode diverged from oracle");
            black_box(ext.states[0].index())
        });
        push("recover_decode_f1", iters, ns);
    }

    // The threaded runner: a plain group of the serving benchmark's shape
    // (four sensors and their analytic backup), one 64-event batch and one
    // report-marker round per iteration, waited for on the wall clock —
    // the channel hops and wake-ups every served batch pays.
    {
        let mut machines = SensorNetwork::sensor_machines(4);
        machines.push(SensorNetwork::analytic_backup_machine(4));
        let network = SensorNetwork::new(4).expect("four sensors");
        let batch = network.random_workload(64, 7).events().to_vec();
        let mut group = ParallelServerGroup::spawn(&machines);
        let iters = 2_000;
        let ns = bench(iters, || {
            group.apply_batch(&batch);
            let generation = group.request_reports();
            let mut answered = 0;
            while answered < machines.len() {
                let (_, g, _) = group
                    .recv_report_timeout(Duration::from_secs(10))
                    .expect("every server answers the marker");
                answered += usize::from(g == generation);
            }
            answered
        });
        push("group_marker_round_n5", iters, ns);
        group.shutdown();
    }

    // Algorithm 2 on the Table 1 row "MESI, TCP, A, B" (f = 1): its one
    // backup is ⊤ itself, so the single descent level scores all 15,400
    // block pairs of the 176-state ⊤ and keeps none.  Nearly every
    // candidate the Table 1 runs examine is such a failing one.
    {
        let row = table1_rows()
            .into_iter()
            .find(|r| r.label == "MESI, TCP, A, B")
            .expect("Table 1 has the MESI/TCP row");
        let product = ReachableProduct::new(&row.machines).unwrap();
        let originals = projection_partitions(&product);
        let iters = 20;
        let ns = bench(iters, || {
            let fusion = generate_fusion(product.top(), &originals, row.f).unwrap();
            assert_eq!(fusion.stats.candidates_examined, 15_400);
            fusion.len()
        });
        push("alg2_search_table1_mesi_tcp_f1", iters, ns);
    }

    // A full lattice walk: `enumerate_lattice` of four mod-3 counters
    // (|⊤| = 81, 212 closed partitions), every lower cover closing its
    // pairwise block merges on the quotient of the level it stands on.
    {
        let machines = counter_family(4, 3);
        let product = ReachableProduct::new(&machines).unwrap();
        let iters = 10;
        let ns = bench(iters, || {
            let lattice = enumerate_lattice(product.top(), 5000).unwrap();
            assert_eq!(lattice.len(), 212);
            lattice.len()
        });
        push("lattice_walk_n81", iters, ns);
    }

    // Algorithm 2 at |⊤| = 3¹⁰ = 59049, f = 1: the fault graph of the ten
    // counters has ~1.7·10⁹ edges, dmin = 1 and 590,490 weakest edges,
    // which the level search finds without storing a weight.  The packed
    // resident product build stays outside the timing.  It runs last, so
    // the memory it leaves with the allocator does not show in the other
    // ops' `peak_rss_kb`.
    {
        let machines = counter_family(10, 3);
        let product = ReachableProduct::new(&machines).unwrap();
        let originals = projection_partitions(&product);
        let n = product.size();
        let graph = FaultGraph::from_partitions(n, &originals);
        assert_eq!((graph.dmin(), graph.weakest_edges().len()), (1, 590_490));
        drop(graph);
        let top = product.top();
        let fusion = generate_fusion(top, &originals, 1).unwrap();
        assert!(is_fusion(n, &originals, &fusion.partitions, 1));
        let ns = bench(MIN_ITERS, || generate_fusion(top, &originals, 1).unwrap());
        push("alg2_search_n59049", MIN_ITERS, ns);
    }

    out
}

/// Pairs every op whose name contains `marker` with the op named by
/// substituting `twin_marker` for `marker` (e.g. `_cached` → `_cold`,
/// `_scan` → ``), returning `(marked op, twin op)` — the shared walk behind
/// the speedup sections below.
fn paired<'a>(
    ops: &'a [Measurement],
    marker: &str,
    twin_marker: &str,
) -> Vec<(&'a Measurement, &'a Measurement)> {
    ops.iter()
        .filter_map(|m| {
            let pos = m.name.find(marker)?;
            let twin = format!(
                "{}{}{}",
                &m.name[..pos],
                twin_marker,
                &m.name[pos + marker.len()..]
            );
            ops.iter().find(|o| o.name == twin).map(|t| (m, t))
        })
        .collect()
}

/// Speedup ratios of each optimized op against its `_scan` twin, keyed by
/// the optimized op's name.
fn speedups(ops: &[Measurement]) -> Vec<(String, f64)> {
    paired(ops, "_scan", "")
        .into_iter()
        .map(|(scan, fast)| (fast.name.to_string(), scan.ns_per_op / fast.ns_per_op))
        .collect()
}

/// Speedup ratios of each `_cached` op against its `_cold` twin — how much
/// a warm session (kernel, scratch, cached initial fault graph) saves over
/// the free-function path.
fn cached_speedups(ops: &[Measurement]) -> Vec<(String, f64)> {
    paired(ops, "_cached", "_cold")
        .into_iter()
        .map(|(cached, cold)| (cached.name.to_string(), cold.ns_per_op / cached.ns_per_op))
        .collect()
}

/// Speedup ratios of the delta-aware update ops against their `_cold`
/// twins — how much `FusionSession::update_top` / `extend_factor` save
/// over rebuilding the evolved fusion context from scratch.
fn update_speedups(ops: &[Measurement]) -> Vec<(String, f64)> {
    const PAIRS: [(&str, &str); 2] = [
        ("alg2_update_add_machine_n729", "alg2_cold_add_machine_n729"),
        (
            "product_extend_factor_n729",
            "product_extend_factor_cold_n729",
        ),
    ];
    PAIRS
        .iter()
        .filter_map(|(update, cold)| {
            let u = ops.iter().find(|m| m.name == *update)?;
            let c = ops.iter().find(|m| m.name == *cold)?;
            Some((u.name.to_string(), c.ns_per_op / u.ns_per_op))
        })
        .collect()
}

/// Seeds for the fusion-vs-replication comparison recorded in the JSON's
/// `sim_sweep.backend_comparison` section.  Both backends run the same
/// seeds, so the message and latency totals are directly comparable.
const COMPARE_SEEDS: usize = 24;

/// Renders one backend's cost counters as a JSON object line.
fn render_backend(s: &mut String, label: &str, cost: &BackendCost, comma: &str) {
    let _ = writeln!(
        s,
        "      \"{label}\": {{ \"servers\": {}, \"messages_sent\": {}, \
         \"messages_delivered\": {}, \"virtual_nanos\": {}, \"violations\": {} }}{comma}",
        cost.servers,
        cost.messages_sent,
        cost.messages_delivered,
        cost.virtual_nanos,
        cost.violations
    );
}

fn render_json(ops: &[Measurement], comparison: &(BackendCost, BackendCost)) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"fsm-fusion-perf-baseline/v1\",\n");
    s.push_str("  \"ops\": {\n");
    for (i, m) in ops.iter().enumerate() {
        let comma = if i + 1 == ops.len() { "" } else { "," };
        // peak_rss_kb is documentation only: `check` gates ns_per_op and
        // ignores extra same-line fields, so RSS noise cannot fail CI.
        let rss = m
            .peak_rss_kb
            .map(|kb| format!(", \"peak_rss_kb\": {kb}"))
            .unwrap_or_default();
        let _ = writeln!(
            s,
            "    \"{}\": {{ \"ns_per_op\": {:.1}, \"iters\": {}{} }}{}",
            m.name, m.ns_per_op, m.iters, rss, comma
        );
    }
    s.push_str("  },\n");
    s.push_str("  \"speedup_vs_scan\": {\n");
    let ratios = speedups(ops);
    for (i, (name, ratio)) in ratios.iter().enumerate() {
        let comma = if i + 1 == ratios.len() { "" } else { "," };
        let _ = writeln!(s, "    \"{name}\": {ratio:.2}{comma}");
    }
    s.push_str("  },\n");
    s.push_str("  \"speedup_cached_vs_cold\": {\n");
    let ratios = cached_speedups(ops);
    for (i, (name, ratio)) in ratios.iter().enumerate() {
        let comma = if i + 1 == ratios.len() { "" } else { "," };
        let _ = writeln!(s, "    \"{name}\": {ratio:.2}{comma}");
    }
    s.push_str("  },\n");
    s.push_str("  \"speedup_update_vs_cold\": {\n");
    let ratios = update_speedups(ops);
    for (i, (name, ratio)) in ratios.iter().enumerate() {
        let comma = if i + 1 == ratios.len() { "" } else { "," };
        let _ = writeln!(s, "    \"{name}\": {ratio:.2}{comma}");
    }
    s.push_str("  },\n");
    // The CI simulation gate's scenario count, recorded so the committed
    // baseline documents how much seeded chaos the build withstood, plus
    // the measured fusion-vs-replication overhead: identical seeds,
    // workloads and chaos knobs on both backends, one modeled crash each.
    s.push_str("  \"sim_sweep\": {\n");
    let _ = writeln!(s, "    \"seeds\": {SIM_SWEEP_SEEDS},");
    s.push_str("    \"backend_comparison\": {\n");
    let _ = writeln!(s, "      \"seeds\": {COMPARE_SEEDS},");
    render_backend(&mut s, "fusion", &comparison.0, ",");
    render_backend(&mut s, "replication", &comparison.1, "");
    s.push_str("    }\n");
    s.push_str("  }\n}\n");
    s
}

/// Parses the `"ops"` section of a baseline file written by
/// [`render_json`]: one `"name": {{ "ns_per_op": <float>, ... }}` per line.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with('"') || !line.contains("\"ns_per_op\":") {
            continue;
        }
        let Some(name_end) = line[1..].find('"') else {
            continue;
        };
        let name = line[1..1 + name_end].to_string();
        let Some(pos) = line.find("\"ns_per_op\":") else {
            continue;
        };
        let rest = line[pos + "\"ns_per_op\":".len()..].trim_start();
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

/// Compares fresh measurements against a committed baseline, normalizing by
/// the calibration op so different machines compare work, not clock speed.
/// Returns the list of regressed op names.
fn check(fresh: &[Measurement], baseline: &[(String, f64)]) -> Vec<String> {
    let fresh_cal = fresh
        .iter()
        .find(|m| m.name == CALIBRATION_OP)
        .map(|m| m.ns_per_op);
    let base_cal = baseline
        .iter()
        .find(|(n, _)| n == CALIBRATION_OP)
        .map(|(_, v)| *v);
    let (Some(fresh_cal), Some(base_cal)) = (fresh_cal, base_cal) else {
        eprintln!("warning: calibration op missing; comparing raw ns/op");
        return check_raw(fresh, baseline, 1.0, 1.0);
    };
    check_raw(fresh, baseline, fresh_cal, base_cal)
}

fn check_raw(
    fresh: &[Measurement],
    baseline: &[(String, f64)],
    fresh_cal: f64,
    base_cal: f64,
) -> Vec<String> {
    let mut regressed = Vec::new();
    for m in fresh {
        // The calibration op is the normalizer, and the twins exist only to
        // document speedups — none of them gate the build.
        if m.name == CALIBRATION_OP || TWIN_OPS.contains(&m.name) {
            continue;
        }
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == m.name) else {
            continue; // newly added op: no baseline yet
        };
        // Sub-nanosecond ops (e.g. the O(1) dmin field load) are
        // codegen-bound: a toolchain update changing how the timing loop
        // inlines can shift them past any ratio with no real regression.
        // They stay in the JSON to document the O(1) claim but never gate.
        if *base < 1.0 || m.ns_per_op < 1.0 {
            println!("check {:<36} sub-ns op, documented only", m.name);
            continue;
        }
        let fresh_norm = m.ns_per_op / fresh_cal;
        let base_norm = base / base_cal;
        let ratio = fresh_norm / base_norm;
        let verdict = if ratio > REGRESSION_FACTOR {
            regressed.push(m.name.to_string());
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "check {:<36} {:>6.2}x vs baseline   {}",
            m.name, ratio, verdict
        );
    }
    // Tracked ops must keep being measured: a baseline op that silently
    // vanishes from the fresh run would otherwise bypass the gate forever.
    for (name, _) in baseline {
        if name == CALIBRATION_OP || TWIN_OPS.contains(&name.as_str()) {
            continue;
        }
        if !fresh.iter().any(|m| m.name == *name) {
            println!("check {name:<36} missing from this run   REGRESSED");
            regressed.push(format!("{name} (missing)"));
        }
    }
    regressed
}

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--check" => match args.next() {
                Some(p) => check_path = Some(p),
                None => {
                    eprintln!("--check needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}`; use [--out FILE] [--check FILE]");
                return ExitCode::from(2);
            }
        }
    }

    let ops = measure_all();
    for (name, ratio) in speedups(&ops) {
        println!("speedup {name:<34} {ratio:>6.2}x vs its `_scan` twin");
    }
    for (name, ratio) in cached_speedups(&ops) {
        println!("speedup {name:<34} {ratio:>6.2}x vs cold free-function sweep");
    }
    for (name, ratio) in update_speedups(&ops) {
        println!("speedup {name:<34} {ratio:>6.2}x vs cold context rebuild");
    }

    let comparison = compare_backends(0, COMPARE_SEEDS);
    let mut failed = false;
    for (label, cost) in [("fusion", &comparison.0), ("replication", &comparison.1)] {
        println!(
            "compare {label:<11} servers={:<3} sent={:<6} delivered={:<6} virtual_ns={}",
            cost.servers, cost.messages_sent, cost.messages_delivered, cost.virtual_nanos
        );
        if cost.violations > 0 {
            eprintln!(
                "backend comparison: {label} violated recovery in {} runs",
                cost.violations
            );
            failed = true;
        }
    }
    if let Some(path) = check_path {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let regressed = check(&ops, &parse_baseline(&text));
                if regressed.is_empty() {
                    println!("check passed: no op regressed more than {REGRESSION_FACTOR}x");
                } else {
                    eprintln!("perf regression (> {REGRESSION_FACTOR}x): {regressed:?}");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                failed = true;
            }
        }
    }

    if let Some(out_path) = out_path {
        // `ingest_bench` owns the `ingest` section; regenerating the rest
        // of the baseline must not silently drop its committed numbers.
        let mut json = render_json(&ops, &comparison);
        if let Some(ingest) = std::fs::read_to_string(&out_path)
            .ok()
            .and_then(|old| extract_json_section(&old, "ingest"))
        {
            json = upsert_json_section(&json, "ingest", &ingest);
        }
        if let Err(e) = std::fs::write(&out_path, &json) {
            eprintln!("cannot write {out_path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {out_path}");
    } else {
        println!("no --out given: nothing written");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
