//! Experiment reports in the format of the paper's results table
//! (Section 6).
//!
//! A [`FusionReport`] captures, for one set of original machines and one
//! fault count `f`: the size of the reachable cross product `|⊤|`, the sizes
//! of the generated backup machines, and the replication vs. fusion state
//! spaces.  The benchmark binaries print one report per table row and
//! EXPERIMENTS.md records the comparison against the paper's numbers.

use std::fmt;
use std::time::Duration;

use fsm_dfsm::Dfsm;

use crate::error::Result;
use crate::generate::GenerationStats;
use crate::replication::{fusion_state_space, replication_state_space};

/// A single row of the evaluation table.
#[derive(Debug, Clone)]
pub struct FusionReport {
    /// Human-readable label for the machine set (e.g. "MESI, TCP, A, B").
    pub label: String,
    /// Names of the original machines.
    pub machine_names: Vec<String>,
    /// Sizes of the original machines.
    pub machine_sizes: Vec<usize>,
    /// Number of crash faults tolerated.
    pub f: usize,
    /// Size of the reachable cross product `|⊤|`.
    pub top_size: usize,
    /// Sizes of the generated backup machines.
    pub backup_sizes: Vec<usize>,
    /// Generation statistics from Algorithm 2.
    pub stats: GenerationStats,
    /// Wall-clock time to build the cross product and generate the fusion.
    pub elapsed: Duration,
}

impl FusionReport {
    /// Runs the full pipeline (cross product → Algorithm 2) for a machine
    /// set and records the results.
    ///
    /// A thin shim over a throwaway environment-configured
    /// [`crate::FusionSession`]; multi-row measurements should use
    /// [`FusionReport::measure_with`] so the rows share one session.
    pub fn measure(label: impl Into<String>, machines: &[Dfsm], f: usize) -> Result<Self> {
        Self::measure_with(
            &mut crate::config::FusionConfig::from_env().build(),
            label,
            machines,
            f,
        )
    }

    /// [`FusionReport::measure`] through a caller-owned
    /// [`crate::FusionSession`]: the product is built with the session's
    /// strategy and the generation reuses its kernel, scratch and cached
    /// initial fault graph (repeated rows or `f` sweeps over the same
    /// machine set build that graph once).
    pub fn measure_with(
        session: &mut crate::session::FusionSession,
        label: impl Into<String>,
        machines: &[Dfsm],
        f: usize,
    ) -> Result<Self> {
        let start = std::time::Instant::now();
        let (product, fusion) = session.generate_fusion_for_machines(machines, f)?;
        let elapsed = start.elapsed();
        Ok(FusionReport {
            label: label.into(),
            machine_names: machines.iter().map(|m| m.name().to_string()).collect(),
            machine_sizes: machines.iter().map(|m| m.size()).collect(),
            f,
            top_size: product.size(),
            backup_sizes: fusion.machine_sizes(),
            stats: fusion.stats,
            elapsed,
        })
    }

    /// `(∏ |Mi|)^f` — the |Replication| column.
    pub fn replication_state_space(&self) -> u128 {
        replication_state_space(&self.machine_sizes, self.f)
    }

    /// `∏ |Fj|` — the |Fusion| column.
    pub fn fusion_state_space(&self) -> u128 {
        fusion_state_space(&self.backup_sizes)
    }

    /// How many times smaller the fusion backup state space is.
    pub fn savings_factor(&self) -> f64 {
        let fusion = self.fusion_state_space().max(1);
        self.replication_state_space() as f64 / fusion as f64
    }

    /// Number of backup machines replication would use (`n · f`).
    pub fn replication_backup_machines(&self) -> usize {
        self.machine_names.len() * self.f
    }

    /// Number of backup machines fusion uses.
    pub fn fusion_backup_machines(&self) -> usize {
        self.backup_sizes.len()
    }

    /// A fixed-width table header matching [`FusionReport`]'s Display
    /// format.
    pub fn table_header() -> String {
        format!(
            "{:<42} {:>2} {:>6} {:>18} {:>14} {:>12} {:>9}",
            "Original Machines",
            "f",
            "|Top|",
            "|Backup Machines|",
            "|Replication|",
            "|Fusion|",
            "time(ms)"
        )
    }
}

impl fmt::Display for FusionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let backups = format!(
            "[{}]",
            self.backup_sizes
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        );
        write!(
            f,
            "{:<42} {:>2} {:>6} {:>18} {:>14} {:>12} {:>9.2}",
            self.label,
            self.f,
            self.top_size,
            backups,
            self.replication_state_space(),
            self.fusion_state_space(),
            self.elapsed.as_secs_f64() * 1000.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_dfsm::DfsmBuilder;

    fn counter(name: &str, event: &str, k: usize) -> Dfsm {
        let mut b = DfsmBuilder::new(name);
        for i in 0..k {
            b.add_state(format!("{name}{i}"));
        }
        b.set_initial(format!("{name}0"));
        for i in 0..k {
            b.add_transition(
                format!("{name}{i}"),
                event,
                format!("{name}{}", (i + 1) % k),
            );
        }
        let other = if event == "0" { "1" } else { "0" };
        b.add_self_loops(other);
        b.build().unwrap()
    }

    #[test]
    fn report_for_fig1_counters() {
        let a = counter("A", "0", 3);
        let b = counter("B", "1", 3);
        let report = FusionReport::measure("0-counter, 1-counter", &[a, b], 1).unwrap();
        assert_eq!(report.top_size, 9);
        assert_eq!(report.machine_sizes, vec![3, 3]);
        assert_eq!(report.backup_sizes, vec![3]);
        assert_eq!(report.replication_state_space(), 9);
        assert_eq!(report.fusion_state_space(), 3);
        assert!(report.savings_factor() > 2.9);
        assert_eq!(report.replication_backup_machines(), 2);
        assert_eq!(report.fusion_backup_machines(), 1);
    }

    #[test]
    fn report_display_is_one_line_and_aligned_with_header() {
        let a = counter("A", "0", 3);
        let b = counter("B", "1", 3);
        let report = FusionReport::measure("counters", &[a, b], 1).unwrap();
        let line = report.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("counters"));
        let header = FusionReport::table_header();
        assert!(header.contains("|Replication|"));
    }

    #[test]
    fn report_with_zero_faults_has_no_backups() {
        let a = counter("A", "0", 2);
        let b = counter("B", "1", 2);
        let report = FusionReport::measure("tiny", &[a, b], 0).unwrap();
        assert!(report.backup_sizes.is_empty());
        assert_eq!(report.fusion_state_space(), 1);
        assert_eq!(report.replication_state_space(), 1);
    }
}
