//! Event workloads: the "environment" of the paper's system model.
//!
//! Clients (the environment) send a totally ordered stream of events that is
//! applied to every server.  This module holds such streams; scripted ones
//! are built here, and seeded random ones (uniform or weighted) by
//! [`Seeded`](crate::Seeded), so experiments are reproducible.

use fsm_dfsm::Event;

/// A reproducible event workload.
#[derive(Debug, Clone)]
pub struct Workload {
    events: Vec<Event>,
}

impl Workload {
    /// A scripted workload from an explicit event sequence.
    pub fn scripted<I, E>(events: I) -> Self
    where
        I: IntoIterator<Item = E>,
        E: Into<Event>,
    {
        Workload {
            events: events.into_iter().map(Into::into).collect(),
        }
    }

    /// A scripted workload from a string of single-character events
    /// (convenient for the binary-alphabet machines: `"010110"`).
    pub fn from_bits(bits: &str) -> Self {
        Workload {
            events: bits.chars().map(|c| Event::new(c.to_string())).collect(),
        }
    }

    /// The events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterator over the events.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Concatenates two workloads.
    pub fn chain(mut self, other: Workload) -> Workload {
        self.events.extend(other.events);
        self
    }
}

impl<'a> IntoIterator for &'a Workload {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Seeded;
    use fsm_machines::{mesi, zero_counter_mod3};

    #[test]
    fn scripted_and_bits_workloads() {
        let w = Workload::scripted(["a", "b", "a"]);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
        let w = Workload::from_bits("0101");
        assert_eq!(w.events()[1], Event::new("1"));
        assert_eq!(w.iter().count(), 4);
    }

    #[test]
    fn uniform_workload_is_reproducible_and_in_alphabet() {
        let m = zero_counter_mod3();
        let w1 = Seeded(7).uniform_workload(m.alphabet(), 100);
        let w2 = Seeded(7).uniform_workload(m.alphabet(), 100);
        assert_eq!(w1.events(), w2.events());
        for e in &w1 {
            assert!(m.alphabet().contains(e));
        }
        let w3 = Seeded(8).uniform_workload(m.alphabet(), 100);
        assert_ne!(w1.events(), w3.events());
    }

    #[test]
    fn uniform_over_machines_uses_union_alphabet() {
        let machines = vec![zero_counter_mod3(), mesi()];
        let w = Seeded(1).workload_over_machines(&machines, 500);
        let mut saw_binary = false;
        let mut saw_mesi = false;
        for e in &w {
            if e.name() == "0" || e.name() == "1" {
                saw_binary = true;
            }
            if e.name().starts_with("pr_") || e.name().starts_with("bus_") {
                saw_mesi = true;
            }
        }
        assert!(saw_binary && saw_mesi);
    }

    #[test]
    fn weighted_workload_respects_weights_roughly() {
        let heavy = Event::new("heavy");
        let light = Event::new("light");
        let w = Seeded(3).weighted_workload(&[(heavy.clone(), 9), (light.clone(), 1)], 1000);
        let heavy_count = w.iter().filter(|e| **e == heavy).count();
        assert!(
            heavy_count > 800,
            "expected ~900 heavy events, got {heavy_count}"
        );
        assert_eq!(w.len(), 1000);
    }

    #[test]
    fn chain_concatenates() {
        let w = Workload::from_bits("00").chain(Workload::from_bits("11"));
        assert_eq!(w.len(), 4);
        assert_eq!(w.events()[3], Event::new("1"));
    }

    #[test]
    #[should_panic(expected = "weights must not all be zero")]
    fn weighted_rejects_zero_weights() {
        Seeded(0).weighted_workload(&[(Event::new("x"), 0)], 10);
    }
}
