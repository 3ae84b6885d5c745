//! The simulation's event trace: every scheduling decision, message
//! delivery and state change, recorded in order with a rolling hash.
//!
//! Byte-identical replay is *asserted* through this trace: two runs of the
//! same seed must produce equal [`TraceEvent`] sequences (and therefore
//! equal [`Trace::hash`] values), which tests pin.  The hash folds every
//! event as it is recorded, so comparing two 64-bit hashes compares the
//! entire histories.

use std::hash::{Hash, Hasher};

/// One recorded simulation event.
///
/// Times are virtual nanoseconds, `seq` numbers are global send sequence
/// numbers, and `kind` codes are the message payload discriminants (see the
/// network module).  The variants are deliberately plain data: equality of
/// two traces is equality of two runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// A server group came up.
    Spawn {
        /// Group index.
        group: usize,
        /// Number of servers spawned.
        servers: usize,
    },
    /// A message was handed to the network.
    Send {
        /// Global sequence number of this send.
        seq: u64,
        /// Virtual time of the send.
        at: u64,
        /// Destination group.
        group: usize,
        /// Destination server (or the reporting server, for replies).
        server: usize,
        /// Payload discriminant.
        kind: u8,
        /// Scheduled delivery time.
        deliver_at: u64,
    },
    /// The network dropped a message instead of queueing it.
    Drop {
        /// Sequence number of the dropped send.
        seq: u64,
    },
    /// The network queued a duplicate copy of a message.
    Duplicate {
        /// Sequence number of the original send.
        orig: u64,
        /// Sequence number of the duplicate.
        dup: u64,
    },
    /// A queued message reached its destination.
    Deliver {
        /// Sequence number of the delivered send.
        seq: u64,
        /// Virtual delivery time.
        at: u64,
    },
    /// A delivered reply overtook an earlier one to the same collector.
    Reorder {
        /// Sequence number of the late-overtaken send.
        seq: u64,
    },
    /// A server handled a command (a batch, fault, restore, resync or
    /// report request): one record per delivered command.
    Handle {
        /// Group index.
        group: usize,
        /// Server index.
        server: usize,
        /// Payload discriminant of the command.
        kind: u8,
        /// Events the command applied (a batch's length, else 0).
        events: u64,
        /// What the server reports afterwards: its state, or `u64::MAX`
        /// while crashed.
        state: u64,
    },
    /// A server's process died (scripted crash point or
    /// `kill_process`).
    Kill {
        /// Group index.
        group: usize,
        /// Server index.
        server: usize,
    },
    /// A report collection started.
    CollectStart {
        /// Group index.
        group: usize,
        /// Collection generation.
        generation: u64,
        /// Virtual start time.
        at: u64,
    },
    /// A report collection finished (possibly with missing servers).
    CollectDone {
        /// Group index.
        group: usize,
        /// Collection generation.
        generation: u64,
        /// How many servers never answered.
        missing: usize,
        /// Virtual completion time.
        at: u64,
    },
    /// A caller-recorded annotation (decode outcomes, assertions), folded
    /// into the hash like any other event.
    Note {
        /// Caller-chosen code.
        code: u64,
        /// Caller-chosen payload words.
        data: Vec<u64>,
    },
    /// A killed durable process came back up from its durable state.
    Restart {
        /// Group index.
        group: usize,
        /// Server index.
        server: usize,
        /// Acknowledged sequence number after snapshot + WAL replay.
        acked: u64,
    },
    /// A kill tore the final write-ahead-log frame (partial-write
    /// injection): the listed byte count was chopped off the log tail.
    TornTail {
        /// Group index.
        group: usize,
        /// Server index.
        server: usize,
        /// Bytes removed from the log tail.
        dropped: u64,
    },
}

/// Word-wise FNV-1a over each event's derived [`Hash`]: good mixing,
/// trivially deterministic, and fast enough to run on every recorded event.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, w: u64) {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        self.0 = (self.0 ^ w).wrapping_mul(PRIME);
    }

    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }
}

/// An ordered record of everything a simulated world did, with a rolling
/// hash over the full history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    hash: u64,
}

impl Trace {
    /// FNV-1a offset basis: the hash of an empty trace.
    const SEED: u64 = 0xCBF2_9CE4_8422_2325;

    /// An empty trace.
    pub fn new() -> Self {
        Trace {
            events: Vec::new(),
            hash: Self::SEED,
        }
    }

    /// Appends one event, folding it into the hash.
    pub fn record(&mut self, event: TraceEvent) {
        let mut h = Fnv(self.hash);
        event.hash(&mut h);
        self.hash = h.finish();
        self.events.push(event);
    }

    /// The rolling hash over every event recorded so far.  Equal hashes of
    /// two runs mean (up to hash collisions) byte-identical histories;
    /// tests additionally compare [`Trace::events`] outright.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_tracks_events_and_order() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        assert_eq!(a.hash(), b.hash());
        assert!(a.is_empty());

        a.record(TraceEvent::Deliver { seq: 1, at: 10 });
        a.record(TraceEvent::Drop { seq: 2 });
        b.record(TraceEvent::Deliver { seq: 1, at: 10 });
        b.record(TraceEvent::Drop { seq: 2 });
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.events(), b.events());
        assert_eq!(a.len(), 2);

        // Different order, different hash.
        let mut c = Trace::new();
        c.record(TraceEvent::Drop { seq: 2 });
        c.record(TraceEvent::Deliver { seq: 1, at: 10 });
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn every_field_feeds_the_hash() {
        let base = TraceEvent::Handle {
            group: 0,
            server: 1,
            kind: 5,
            events: 0,
            state: 3,
        };
        let tweaked = TraceEvent::Handle {
            group: 0,
            server: 1,
            kind: 5,
            events: 0,
            state: 4,
        };
        let mut a = Trace::new();
        let mut b = Trace::new();
        a.record(base);
        b.record(tweaked);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn notes_fold_their_payload() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        a.record(TraceEvent::Note {
            code: 7,
            data: vec![1, 2],
        });
        b.record(TraceEvent::Note {
            code: 7,
            data: vec![2, 1],
        });
        assert_ne!(a.hash(), b.hash());
    }
}
