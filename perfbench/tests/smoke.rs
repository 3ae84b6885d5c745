//! Smoke test of the benchmark itself, at one second per run: every
//! workload prints every metric `BENCHMARK.json` names, with its unit, and
//! a planted wrong output is counted as failed, not reported as success.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["serve-steady", "serve-rejoin", "fusion-design"];

fn checkout() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the checkout root")
        .to_path_buf()
}

/// `(name, unit)` of every metric listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(checkout().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let open = start + text[start..].find('[').expect("array");
    let close = open + text[open..].find(']').expect("array end");
    let field = |entry: &str, name: &str| -> String {
        let tag = format!("\"{name}\": \"");
        let from = entry.find(&tag).expect("field present") + tag.len();
        entry[from..from + entry[from..].find('"').expect("closing quote")].to_string()
    };
    text[open + 1..close]
        .split('}')
        .filter(|entry| entry.contains("\"name\""))
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// Runs one workload; returns the exit success flag and the last stdout
/// line.
fn run(workload: &str, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(checkout())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

/// The number right after `"key": ` (or after `"key": {"value": ` for a
/// metric).
fn number_after(line: &str, key: &str) -> f64 {
    let plain = format!("\"{key}\": ");
    let metric = format!("\"{key}\": {{\"value\": ");
    let tag = if line.contains(&metric) {
        metric
    } else {
        plain
    };
    let from = line.find(&tag).unwrap_or_else(|| panic!("{key} in {line}")) + tag.len();
    let digits: String = line[from..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{key} is a number"))
}

#[test]
fn every_workload_reports_its_metrics_and_catches_a_planted_fault() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in WORKLOADS {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let (ok, last) = run(workload, &["--trace", trace]);
            assert!(ok, "{workload} --trace {trace} failed: {last}");
            assert!(last.starts_with("{\"correct\": true, "), "{last}");
            assert!(number_after(&last, "attempted") >= 1.0);
            assert_eq!(number_after(&last, "failed"), 0.0);
            for (name, unit) in metrics.iter() {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(last.contains(&entry), "{workload} lacks {name}: {last}");
                assert!(number_after(&last, name.as_str()).is_finite(), "{name}");
                let unit = format!("\"unit\": \"{unit}\"}}");
                let after = &last[last.find(&entry).expect("entry")..];
                let body = &after[..after.find('}').expect("entry closes") + 1];
                assert!(body.ends_with(&unit), "{name} lacks unit {unit}: {body}");
            }
            if trace == "0" {
                for (name, _) in end_to_end.iter() {
                    assert!(number_after(&last, name.as_str()) > 0.0, "{name} is 0");
                }
            }
        }
        let (ok, last) = run(workload, &["--trace", "0", "--plant-fault"]);
        assert!(!ok, "{workload}: a planted fault must fail the run");
        assert!(last.starts_with("{\"correct\": false, "), "{last}");
        assert!(number_after(&last, "failed") >= 1.0, "{last}");
    }
}
