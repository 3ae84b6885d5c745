//! Shared helpers for the fsm-fusion benchmark harness.
//!
//! The binaries (`table1`, `figures`, `scaling`) and the Criterion benches
//! regenerate every table and figure of the paper's evaluation; this module
//! provides the workload builders they share, so the printed tables and the
//! timed benchmarks measure exactly the same computations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use fsm_dfsm::Dfsm;
use fsm_fusion_core::{FusionReport, FusionSession};
use fsm_machines::{mod_counter, table1_rows, MachineSet};

/// Seeds the CI `sim_sweep` gate runs (`cargo run --release -p
/// fsm-fusion-bench --bin sim_sweep`).  Shared with `perf_baseline`, which
/// records it in `BENCH_fusion.json` so the committed baseline documents
/// how much simulated chaos the build withstood.  The acceptance floor is
/// 200; a little headroom costs seconds.
pub const SIM_SWEEP_SEEDS: usize = 256;

/// [`SIM_SWEEP_SEEDS`] unless the `SIM_SWEEP_SEEDS` environment variable
/// overrides it — how the nightly workflow deepens the same gates (e.g.
/// `SIM_SWEEP_SEEDS=4096`) without a separate binary.
#[allow(clippy::disallowed_methods)] // The nightly workflow sets it.
pub fn sim_sweep_seeds() -> usize {
    std::env::var("SIM_SWEEP_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(SIM_SWEEP_SEEDS)
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux / when procfs is unreadable.
/// Paired with [`reset_peak_rss`], this lets `perf_baseline` attribute a
/// peak-memory figure to each measured op.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the kernel's peak-RSS water mark (`VmHWM`) to the current RSS by
/// writing `5` to `/proc/self/clear_refs` (see `proc(5)`).  Best-effort: on
/// kernels or sandboxes that reject the write, the mark simply keeps
/// accumulating and [`peak_rss_kb`] reports the process-lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Nearest-rank percentile of `samples` (sorted in place): the smallest
/// sample such that at least `p`% of the data is ≤ it.  `p` is a percentage
/// in `[0, 100]`; an empty slice yields 0.  Used by `ingest_bench` for the
/// p50/p99 enqueue-to-apply latency figures.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    samples[rank.clamp(1, n) - 1]
}

/// Extracts one top-level `"key": { ... }` section from a JSON document
/// written by this harness, returned verbatim (key through matching closing
/// brace, no trailing comma).  Brace counting, not a real parser: the
/// harness's renderers never put braces inside strings, which keeps the
/// committed `BENCH_fusion.json` round-trippable by `perf_baseline` and
/// `ingest_bench` without a JSON dependency.
pub fn extract_json_section(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)?;
    let brace = start + text[start..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in text[brace..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(text[start..=brace + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Replaces the `"key": { ... }` section of `text` with `section` (which
/// must itself be a full `"key": { ... }` block), or appends it as the last
/// top-level section when absent.  How `ingest_bench` upserts its `ingest`
/// section into `BENCH_fusion.json` without disturbing `perf_baseline`'s
/// sections, and how `perf_baseline` preserves `ingest` when regenerating.
pub fn upsert_json_section(text: &str, key: &str, section: &str) -> String {
    if let Some(old) = extract_json_section(text, key) {
        return text.replacen(&old, section, 1);
    }
    let Some(end) = text.rfind('}') else {
        return format!("{{\n  {section}\n}}\n");
    };
    let head = text[..end].trim_end();
    format!("{head},\n  {section}\n}}\n")
}

/// The five machine sets of the paper's results table.
pub fn table_rows() -> Vec<MachineSet> {
    table1_rows()
}

/// Measures one table row: cross product + Algorithm 2 + state-space
/// accounting, through a one-shot environment-configured session.
pub fn measure_row(row: &MachineSet) -> FusionReport {
    FusionReport::measure(row.label.clone(), &row.machines, row.f)
        .expect("fusion generation succeeds for every table row")
}

/// [`measure_row`] through a caller-owned [`FusionSession`], so a whole
/// table shares one session (kernel, scratch, cached fault graph).
pub fn measure_row_with(session: &mut FusionSession, row: &MachineSet) -> FusionReport {
    FusionReport::measure_with(session, row.label.clone(), &row.machines, row.f)
        .expect("fusion generation succeeds for every table row")
}

/// A family of `count` mod-`modulus` counters over *disjoint* events, used
/// by the scaling experiments: the reachable cross product has
/// `modulus^count` states, so `count` directly controls `|⊤|`.
pub fn counter_family(count: usize, modulus: usize) -> Vec<Dfsm> {
    let alphabet: Vec<String> = (0..count).map(|i| format!("e{i}")).collect();
    let alphabet_refs: Vec<&str> = alphabet.iter().map(|s| s.as_str()).collect();
    (0..count)
        .map(|i| mod_counter(&format!("C{i}"), modulus, &format!("e{i}"), &alphabet_refs))
        .collect()
}

/// Pretty prints a whole table of reports with the paper's column layout
/// plus the paper's own numbers for side-by-side comparison.
pub fn render_table(reports: &[FusionReport], paper_rows: &[PaperRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{}", FusionReport::table_header());
    let _ = writeln!(out, "{}", "-".repeat(110));
    for (r, paper) in reports.iter().zip(paper_rows.iter()) {
        let _ = writeln!(out, "{r}");
        let _ = writeln!(
            out,
            "{:<42} {:>2} {:>6} {:>18} {:>14} {:>12}   (paper)",
            "", paper.f, paper.top, paper.backups, paper.replication, paper.fusion
        );
    }
    out
}

/// The numbers printed in the paper's results table, for side-by-side
/// comparison in reports and EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct PaperRow {
    /// Faults tolerated.
    pub f: usize,
    /// |⊤| as reported by the paper.
    pub top: usize,
    /// Backup machine sizes as reported by the paper.
    pub backups: &'static str,
    /// Replication state space as reported by the paper.
    pub replication: u128,
    /// Fusion state space as reported by the paper.
    pub fusion: u128,
}

/// The paper's table, row by row.
pub fn paper_table() -> Vec<PaperRow> {
    vec![
        PaperRow {
            f: 2,
            top: 87,
            backups: "[39 39]",
            replication: 82_944,
            fusion: 1521,
        },
        PaperRow {
            f: 3,
            top: 64,
            backups: "[32 32 32]",
            replication: 2_097_152,
            fusion: 32_768,
        },
        PaperRow {
            f: 2,
            top: 82,
            backups: "[18 28]",
            replication: 59_049,
            fusion: 504,
        },
        PaperRow {
            f: 1,
            top: 131,
            backups: "[85]",
            replication: 396,
            fusion: 85,
        },
        PaperRow {
            f: 2,
            top: 56,
            backups: "[44 56]",
            replication: 156_816,
            fusion: 2464,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_family_has_disjoint_counted_events() {
        let family = counter_family(3, 3);
        assert_eq!(family.len(), 3);
        for m in &family {
            assert_eq!(m.size(), 3);
            assert_eq!(m.alphabet().len(), 3);
        }
        let product = fsm_dfsm::ReachableProduct::new(&family).unwrap();
        assert_eq!(product.size(), 27);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = [15u64, 20, 35, 40, 50];
        assert_eq!(percentile(&mut v, 30.0), 20); // the textbook example
        assert_eq!(percentile(&mut v, 50.0), 35);
        assert_eq!(percentile(&mut v, 100.0), 50);
        assert_eq!(percentile(&mut v, 0.0), 15); // rank clamps to 1
        let mut one = [7u64];
        assert_eq!(percentile(&mut one, 99.0), 7);
        assert_eq!(percentile(&mut [], 50.0), 0);
        let mut unsorted = [9u64, 1, 5];
        assert_eq!(percentile(&mut unsorted, 50.0), 5); // sorts in place
    }

    #[test]
    fn json_section_round_trips_through_extract_and_upsert() {
        let doc = "{\n  \"ops\": {\n    \"a\": { \"ns\": 1 }\n  },\n  \"sim_sweep\": {\n    \"seeds\": 2\n  }\n}\n";
        let ops = extract_json_section(doc, "ops").unwrap();
        assert_eq!(ops, "\"ops\": {\n    \"a\": { \"ns\": 1 }\n  }");
        assert!(extract_json_section(doc, "missing").is_none());

        // Insert a new section: it lands before the final brace, comma'd.
        let with_ingest = upsert_json_section(doc, "ingest", "\"ingest\": {\n    \"eps\": 3\n  }");
        assert!(with_ingest.contains("\"sim_sweep\""));
        assert_eq!(
            extract_json_section(&with_ingest, "ingest").unwrap(),
            "\"ingest\": {\n    \"eps\": 3\n  }"
        );

        // Replace it: the other sections survive untouched.
        let replaced = upsert_json_section(&with_ingest, "ingest", "\"ingest\": { \"eps\": 4 }");
        assert!(replaced.contains("\"eps\": 4"));
        assert!(!replaced.contains("\"eps\": 3"));
        assert_eq!(
            extract_json_section(&replaced, "ops").unwrap(),
            ops,
            "untouched sections must survive the upsert byte for byte"
        );

        // Upserting into an empty document builds a minimal one.
        let fresh = upsert_json_section("", "ingest", "\"ingest\": { \"eps\": 5 }");
        assert!(extract_json_section(&fresh, "ingest").is_some());
    }

    #[test]
    fn peak_rss_reads_a_plausible_figure() {
        // Linux CI and the dev containers all have procfs; elsewhere the
        // helper degrades to None and perf_baseline omits the field.
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 100, "a Rust test process uses more than 100 KiB");
        }
        reset_peak_rss(); // must never panic, whatever the kernel says
    }

    #[test]
    fn paper_table_has_five_rows_matching_machine_sets() {
        assert_eq!(paper_table().len(), table_rows().len());
    }

    #[test]
    fn measure_and_render_small_row() {
        let rows = table_rows();
        let report = measure_row(&rows[1]); // the smallest |top| row
        let text = render_table(std::slice::from_ref(&report), &paper_table()[1..2]);
        assert!(text.contains("Original Machines"));
        assert!(text.contains("(paper)"));
    }
}
