//! Crash-recovery invariants of the durable server, as properties.
//!
//! The durability contract is *append-before-ack*: an event is only
//! acknowledged once its WAL frame is on storage, so a crash at any moment
//! loses nothing that was acked.  This suite pins the three load-bearing
//! consequences from outside the crate:
//!
//! * **Resume equivalence**: crash at any point, recover, resume — the
//!   final machine state, acked sequence and durable artifacts are
//!   identical to a server that never crashed.
//! * **Snapshot equivalence**: recovering through snapshots + a log
//!   suffix lands on exactly the state a pure full-log replay produces,
//!   for every snapshot cadence.
//! * **Torn-tail tolerance**: a partially-written final WAL frame (the
//!   crash landed mid-append) is detected by its checksum, dropped, and
//!   the log truncated clean — recovery keeps every *acked* event and the
//!   server can immediately append again.
//! * **Group commit**: a batch's frames are appended in one store call
//!   before any of them is applied, and batches split at snapshot
//!   boundaries — so the log and the snapshots a batched server leaves are
//!   exactly those of a server fed one event at a time.
//! * **Typed storage failures**: a failed resync snapshot is an error the
//!   caller sees, and a failed WAL append stops that server without a
//!   panic; a restart recovers it from what it persisted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use fsm_fusion::distsys::{wal, DistsysError, OsClock, ParallelServerGroup, Result as StoreResult};
use fsm_fusion::machines::mod_counter;
use fsm_fusion::prelude::*;
use proptest::prelude::*;

/// Deterministic bit stream for event generation: the shim's strategies
/// draw scalars, so workloads are derived from a drawn seed.
fn events_from_seed(seed: u64, len: usize) -> Vec<Event> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            Event::new(if (z ^ (z >> 31)) & 1 == 0 { "0" } else { "1" })
        })
        .collect()
}

/// Byte length of a durable server's WAL on its store.
fn wal_len(store: &SharedStore, id: &str) -> usize {
    store
        .lock()
        .expect("store lock")
        .read(&wal::wal_name(id))
        .expect("wal read")
        .map_or(0, |bytes| bytes.len())
}

/// Snapshot intervals the group-commit property runs under: every event,
/// short intervals that batches straddle, the default, and one longer than
/// any batch.
const GROUP_COMMIT_INTERVALS: [u64; 6] = [1, 2, 3, 7, 32, 1024];

/// A [`MemStore`] that also records the sequence number of every snapshot
/// written through it, so a property sees each snapshot, not only the last,
/// and fails every write (WAL append, snapshot, compaction) while `failing`
/// is set.
#[derive(Default)]
struct TestStore {
    inner: MemStore,
    snapshot_seqs: Arc<Mutex<Vec<u64>>>,
    failing: Arc<AtomicBool>,
}

impl TestStore {
    fn check(&self, name: &str) -> StoreResult<()> {
        if self.failing.load(Ordering::SeqCst) {
            return Err(DistsysError::Storage {
                message: format!("{name}: injected write failure"),
            });
        }
        Ok(())
    }
}

impl Store for TestStore {
    fn append(&mut self, name: &str, bytes: &[u8]) -> StoreResult<()> {
        self.check(name)?;
        self.inner.append(name, bytes)
    }

    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> StoreResult<()> {
        self.check(name)?;
        if name.ends_with(".snap") {
            // Snapshot layout: `[count][seq][state][crc]`, little-endian u64s.
            let seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
            self.snapshot_seqs.lock().expect("recorder lock").push(seq);
        }
        self.inner.write_atomic(name, bytes)
    }

    fn remove(&mut self, name: &str) -> StoreResult<()> {
        self.inner.remove(name)
    }
}

/// Splits `0..len` into consecutive batch lengths in `1..=300`, drawn from
/// `seed`.
fn batch_lengths(seed: u64, len: usize) -> Vec<usize> {
    let mut state = seed;
    let mut out = Vec::new();
    let mut left = len;
    while left > 0 {
        state = state
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        let take = (1 + (state >> 33) as usize % 300).min(left);
        out.push(take);
        left -= take;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Group commit against an oracle built from sequence numbers alone:
    /// after every batch the WAL holds exactly the frames past the last
    /// multiple of `snapshot_every`, every snapshot lands on such a
    /// multiple, and recovery reports what a one-event-at-a-time twin's
    /// recovery reports.
    #[test]
    fn group_commit_matches_the_per_event_log(
        seed in 0u64..1_000_000,
        len in 1usize..1500,
        split_seed in 0u64..1_000_000,
        interval in 0usize..6,
        modulus in 2usize..6,
    ) {
        let machine = mod_counter("C", modulus, "0", &["0", "1"]);
        let events = events_from_seed(seed, len);
        let every = GROUP_COMMIT_INTERVALS[interval];
        let config = DurabilityConfig::new().snapshot_every(every);

        let snapshot_seqs = Arc::new(Mutex::new(Vec::new()));
        let store = shared(TestStore {
            snapshot_seqs: Arc::clone(&snapshot_seqs),
            ..TestStore::default()
        });
        let mut batched =
            DurableServer::fresh(machine.clone(), store.clone(), "srv", &config).unwrap();
        let mut applied = 0usize;
        for take in batch_lengths(split_seed, len) {
            batched.apply_batch(&events[applied..applied + take]).unwrap();
            applied += take;
            let acked = batched.acked_seq();
            prop_assert_eq!(acked, applied as u64);
            let last_snapshot = acked / every * every;
            let expected: Vec<u64> = (1..=acked / every).map(|k| k * every).collect();
            prop_assert_eq!(&*snapshot_seqs.lock().unwrap(), &expected);
            let mut log = Vec::new();
            for seq in last_snapshot + 1..=acked {
                let event = &events[seq as usize - 1];
                log.extend_from_slice(&wal::encode_frame(seq, event.name().as_bytes()));
            }
            let stored = store
                .lock()
                .unwrap()
                .read(&wal::wal_name("srv"))
                .unwrap()
                .unwrap_or_default();
            prop_assert_eq!(stored, log);
        }
        prop_assert_eq!(batched.server().current_state(), machine.run(events.iter()));
        drop(batched);

        let twin_store = shared(MemStore::new());
        let mut twin =
            DurableServer::fresh(machine.clone(), twin_store.clone(), "srv", &config).unwrap();
        for e in &events {
            twin.apply(e).unwrap();
        }
        drop(twin);
        let (_, a) = DurableServer::recover(machine.clone(), store, "srv", &config).unwrap();
        let (_, b) = DurableServer::recover(machine, twin_store, "srv", &config).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Crash anywhere, recover, resume: bit-identical to never crashing.
    #[test]
    fn crash_recover_resume_matches_uninterrupted(
        seed in 0u64..1_000_000,
        len in 1usize..80,
        cut_frac in 0usize..=100,
        snapshot_every in 1u64..20,
        modulus in 2usize..6,
    ) {
        let machine = mod_counter("C", modulus, "0", &["0", "1"]);
        let events = events_from_seed(seed, len);
        let cut = cut_frac * events.len() / 100;
        let config = DurabilityConfig::new().snapshot_every(snapshot_every);

        // The twin that never crashes.
        let u_store = shared(MemStore::new());
        let mut u = DurableServer::fresh(machine.clone(), u_store.clone(), "srv", &config).unwrap();
        for e in &events {
            u.apply(e).unwrap();
        }

        // Crash at `cut` (drop, no clean shutdown — append-before-ack is
        // the only durability mechanism), recover, resume the suffix.
        let store = shared(MemStore::new());
        let mut s = DurableServer::fresh(machine.clone(), store.clone(), "srv", &config).unwrap();
        for e in &events[..cut] {
            s.apply(e).unwrap();
        }
        drop(s);
        let (mut s, stats) =
            DurableServer::recover(machine.clone(), store.clone(), "srv", &config).unwrap();
        prop_assert_eq!(stats.acked_seq, cut as u64);
        prop_assert_eq!(stats.state, machine.run(events[..cut].iter()));
        for e in &events[cut..] {
            s.apply(e).unwrap();
        }

        prop_assert_eq!(s.acked_seq(), u.acked_seq());
        prop_assert_eq!(s.server().current_state(), u.server().current_state());
        prop_assert_eq!(s.server().current_state(), machine.run(events.iter()));

        // The durable artifacts agree too: a fresh recovery from each
        // store lands on the same sequence and state.
        let (_, a) = DurableServer::recover(machine.clone(), store, "srv", &config).unwrap();
        let (_, b) = DurableServer::recover(machine, u_store, "srv", &config).unwrap();
        prop_assert_eq!(a.acked_seq, b.acked_seq);
        prop_assert_eq!(a.state, b.state);
    }

    /// Snapshot + log-suffix recovery ≡ pure full-log replay, for every
    /// snapshot cadence.
    #[test]
    fn snapshot_replay_matches_full_log_replay(
        seed in 0u64..1_000_000,
        len in 1usize..80,
        snapshot_every in 1u64..20,
        modulus in 2usize..6,
    ) {
        let machine = mod_counter("C", modulus, "0", &["0", "1"]);
        let events = events_from_seed(seed, len);
        let snap_cfg = DurabilityConfig::new().snapshot_every(snapshot_every);
        let log_cfg = DurabilityConfig::new().snapshot_every(1 << 40);

        let snap_store = shared(MemStore::new());
        let log_store = shared(MemStore::new());
        let mut via_snap =
            DurableServer::fresh(machine.clone(), snap_store.clone(), "srv", &snap_cfg).unwrap();
        let mut via_log =
            DurableServer::fresh(machine.clone(), log_store.clone(), "srv", &log_cfg).unwrap();
        for e in &events {
            via_snap.apply(e).unwrap();
            via_log.apply(e).unwrap();
        }
        drop(via_snap);
        drop(via_log);

        let (_, snap) = DurableServer::recover(machine.clone(), snap_store, "srv", &snap_cfg).unwrap();
        let (_, log) = DurableServer::recover(machine.clone(), log_store, "srv", &log_cfg).unwrap();

        // The pure-log twin really did replay everything frame by frame.
        prop_assert_eq!(log.snapshot_seq, 0);
        prop_assert_eq!(log.frames_replayed, events.len());
        // And the snapshotting twin skipped at least the snapshotted
        // prefix yet landed on the identical result.
        prop_assert!(snap.frames_replayed <= log.frames_replayed);
        prop_assert_eq!(snap.acked_seq, log.acked_seq);
        prop_assert_eq!(snap.state, log.state);
        prop_assert_eq!(snap.state, machine.run(events.iter()));
    }

    /// A torn final WAL frame — the crash landed mid-append — is dropped
    /// by checksum, every acked event survives, and the truncated log
    /// accepts new appends immediately.
    #[test]
    fn recovery_drops_a_torn_final_frame(
        seed in 0u64..1_000_000,
        len in 2usize..60,
        tear in 0u64..10_000,
        modulus in 2usize..6,
    ) {
        let machine = mod_counter("C", modulus, "0", &["0", "1"]);
        let events = events_from_seed(seed, len);
        // Pure log, so the final frame's byte range is observable.
        let config = DurabilityConfig::new().snapshot_every(1 << 40);

        let store = shared(MemStore::new());
        let mut s = DurableServer::fresh(machine.clone(), store.clone(), "srv", &config).unwrap();
        for e in &events[..events.len() - 1] {
            s.apply(e).unwrap();
        }
        let before = wal_len(&store, "srv");
        s.apply(&events[events.len() - 1]).unwrap();
        let after = wal_len(&store, "srv");
        prop_assert!(after > before);
        drop(s);

        // Tear the final frame: cut strictly inside (before, after), so a
        // nonzero partial frame remains on storage.
        let cut = before + 1 + (tear as usize) % (after - before - 1).max(1);
        wal::truncate(&store, &wal::wal_name("srv"), cut.min(after - 1)).unwrap();

        let (mut s, stats) =
            DurableServer::recover(machine.clone(), store.clone(), "srv", &config).unwrap();
        prop_assert!(stats.torn_tail_bytes > 0);
        prop_assert_eq!(stats.acked_seq, (events.len() - 1) as u64);
        prop_assert_eq!(stats.state, machine.run(events[..events.len() - 1].iter()));

        // Recovery truncated the torn bytes away: the next append goes
        // through and lands the server exactly where the full run would.
        s.apply(&events[events.len() - 1]).unwrap();
        prop_assert_eq!(s.acked_seq(), events.len() as u64);
        prop_assert_eq!(s.server().current_state(), machine.run(events.iter()));
    }
}

/// A threaded durable group on real files: a server killed mid-stream and
/// restarted recovers exactly the events flushed to it before the kill,
/// and catches up to its siblings.
#[test]
fn threaded_group_commit_restart_on_dir_store() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("group_commit_dir_store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = shared(DirStore::open(&dir).unwrap());
    let machines = vec![
        mod_counter("A", 3, "0", &["0", "1"]),
        mod_counter("B", 5, "1", &["0", "1"]),
    ];
    let mut group = ParallelServerGroup::spawn_durable(
        &machines,
        &GroupConfig::new(),
        OsClock::new(),
        store,
        "gc",
        DurabilityConfig::new().snapshot_every(32),
    )
    .unwrap();
    let events = events_from_seed(7, 1000);
    let (before, after) = events.split_at(613);
    for batch in before.chunks(37) {
        group.apply_batch(batch);
    }
    // Stop drains the queue first, so every batch sent so far is committed
    // before the thread exits; batches sent while it is down are lost to it.
    group.kill_process(1);
    for batch in after.chunks(37) {
        group.apply_batch(batch);
    }
    let stats = group.restart_process(1).unwrap();
    assert_eq!(stats.acked_seq, before.len() as u64);
    assert_eq!(stats.snapshot_seq, before.len() as u64 / 32 * 32);
    assert_eq!(stats.torn_tail_bytes, 0);
    assert_eq!(stats.state, machines[1].run(before.iter()));
    group.apply_batch_to(1, after);
    let reports = group.collect_reports().unwrap();
    for (i, m) in machines.iter().enumerate() {
        assert_eq!(
            reports[i],
            MachineReport::State(m.run(events.iter()).index()),
            "server {i}"
        );
    }
    let _ = group.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Figure 1's counters on a threaded durable group over a [`TestStore`].
fn failing_group(every: u64) -> (Vec<Dfsm>, ParallelServerGroup, Arc<AtomicBool>) {
    let failing = Arc::new(AtomicBool::new(false));
    let store = shared(TestStore {
        failing: failing.clone(),
        ..TestStore::default()
    });
    let machines = fig1_machines();
    let group = ParallelServerGroup::spawn_durable(
        &machines,
        &GroupConfig::new(),
        OsClock::new(),
        store,
        "fail",
        DurabilityConfig::new().snapshot_every(every),
    )
    .unwrap();
    (machines, group, failing)
}

/// A resync whose snapshot cannot be written returns the storage error,
/// and the other servers keep answering.
#[test]
fn failed_resync_snapshot_is_a_typed_error() {
    let (machines, mut group, failing) = failing_group(32);
    let events = events_from_seed(3, 20);
    group.apply_batch(&events);
    // A report round is a barrier: both servers committed the batch.
    group.collect_reports().unwrap();
    failing.store(true, Ordering::SeqCst);
    let err = group.resync(0, 40, StateId(1)).unwrap_err();
    assert!(matches!(err, DistsysError::Storage { .. }), "{err:?}");
    let reports = group.try_collect_reports();
    assert_eq!(
        reports[1],
        Some(MachineReport::State(machines[1].run(events.iter()).index()))
    );
    // Server 0 stopped rather than serve a state it could not persist; a
    // restart recovers the events it did persist.
    assert_eq!(reports[0], None);
    failing.store(false, Ordering::SeqCst);
    let stats = group.restart_process(0).unwrap();
    assert_eq!(stats.acked_seq, events.len() as u64);
    assert_eq!(stats.state, machines[0].run(events.iter()));
    assert_eq!(group.shutdown().len(), 2);
}

/// A WAL append that fails stops that server without a panic: its reports
/// go missing, and a restart recovers it at the batches committed before
/// the failure.
#[test]
fn failed_wal_append_stops_the_server_without_a_panic() {
    let (machines, mut group, failing) = failing_group(4);
    let events = events_from_seed(11, 30);
    let (committed, lost) = events.split_at(18);
    group.apply_batch(committed);
    // A report round is a barrier: both servers committed the batch.
    group.collect_reports().unwrap();
    failing.store(true, Ordering::SeqCst);
    group.apply_batch_to(1, lost);
    match group.collect_reports() {
        Err(DistsysError::MissingReports { servers }) => assert_eq!(servers, vec![1]),
        other => panic!("expected MissingReports, got {other:?}"),
    }
    failing.store(false, Ordering::SeqCst);
    let stats = group.restart_process(1).unwrap();
    assert_eq!(stats.acked_seq, committed.len() as u64);
    assert_eq!(stats.state, machines[1].run(committed.iter()));
    group.apply_batch(lost);
    let run = |m: &Dfsm| MachineReport::State(m.run(events.iter()).index());
    assert_eq!(
        group.collect_reports().unwrap(),
        machines.iter().map(run).collect::<Vec<_>>()
    );
    // No thread panicked: shutdown still returns every server.
    assert_eq!(group.shutdown().len(), 2);
}
