//! Regenerates the paper's results table (Section 6): for each of the five
//! machine sets, the number of faults tolerated, |⊤|, the sizes of the
//! generated backup machines, and the replication vs. fusion state spaces —
//! printed next to the paper's own numbers.
//!
//! Run with: `cargo run --release -p fsm-fusion-bench --bin table1`

use fsm_fusion_bench::{measure_row_with, paper_table, render_table, table_rows};
use fsm_fusion_core::FusionConfig;

fn main() {
    println!("Reproducing the evaluation table of");
    println!(
        "\"A Fusion-based Approach for Tolerating Faults in Finite State Machines\" (IPDPS 2009)\n"
    );

    let rows = table_rows();
    // One environment-configured session measures every row (the machine
    // sets differ, so the kernel and cached fault graph are replaced per
    // row; the scratch is still shared).
    let mut session = FusionConfig::from_env().build();
    let mut reports = Vec::new();
    let mut total_time = std::time::Duration::ZERO;
    for row in &rows {
        eprintln!("measuring `{}` (f = {}) ...", row.label, row.f);
        let report = measure_row_with(&mut session, row);
        total_time += report.elapsed;
        reports.push(report);
    }

    println!("{}", render_table(&reports, &paper_table()));
    println!(
        "Measured rows use this repository's machine encodings; the paper's event encodings are\n\
         not published, so |Top|, backup sizes and |Fusion| differ in absolute value while the\n\
         qualitative result — fusion needs no more backup state than replication, usually far\n\
         less — is reproduced (see EXPERIMENTS.md for the full discussion)."
    );
    println!("\nSummary:");
    for r in &reports {
        println!(
            "  {:<45} savings factor {:>8.1}x  ({} backup machines vs {} for replication)",
            r.label,
            r.savings_factor(),
            r.fusion_backup_machines(),
            r.replication_backup_machines()
        );
    }
    println!(
        "\nTotal generation time: {:.2} s (paper: largest run 13.2 minutes on 2009 hardware).",
        total_time.as_secs_f64()
    );
}
