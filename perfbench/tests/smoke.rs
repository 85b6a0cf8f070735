//! Smoke test of the benchmark at tiny sizes: every metric named in
//! `BENCHMARK.json` prints with its unit on every workload, and an
//! injected reply mismatch fails the run.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["churn_mem", "durable_mixed", "relay_stream"];

/// `(name, unit)` pairs.
type Metrics = Vec<(String, String)>;

/// Every metric object in one section of `BENCHMARK.json` (the file
/// lists `name` before `unit` in each).
fn metrics_in(section: &str) -> Metrics {
    let field = |s: &str, key: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = s[at..].find('"')?;
        Some((s[at..at + len].to_string(), at + len))
    };
    let mut out = Vec::new();
    let mut rest = section;
    while let Some((name, after)) = field(rest, "name") {
        let (unit, end) = field(&rest[after..], "unit").expect("every metric has a unit");
        out.push((name, unit));
        rest = &rest[after + end..];
    }
    out
}

/// `(end_to_end, per_layer)` metrics declared by the benchmark.
fn declared() -> (Metrics, Metrics) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let e2e_at = text.find("\"end_to_end\"").expect("end_to_end section");
    let layer_at = text.find("\"per_layer\"").expect("per_layer section");
    let (e2e, layer) = if e2e_at < layer_at {
        (&text[e2e_at..layer_at], &text[layer_at..])
    } else {
        (&text[e2e_at..], &text[layer_at..e2e_at])
    };
    (metrics_in(e2e), metrics_in(layer))
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", trace, "--scale", "0.02"])
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .args(extra)
        .output()
        .expect("run perfbench")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn every_declared_metric_prints_with_its_unit() {
    let (e2e, layer) = declared();
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in WORKLOADS {
        for (trace, wanted) in [("0", &e2e), ("1", &layer)] {
            let out = run(workload, trace, &[]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = last_line(&out);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            for (name, unit) in wanted.iter() {
                let json = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&json)
                    .unwrap_or_else(|| panic!("{name} missing: {last}"));
                assert!(
                    last[at..].contains(&format!("\"unit\": \"{unit}\"}}")),
                    "{name} lacks unit {unit}: {last}"
                );
            }
            // The readable report names every end-to-end metric with its
            // unit, and every latency with its sample count.
            for (name, unit) in &e2e {
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with(&format!("metric {name} ")))
                    .unwrap_or_else(|| panic!("no report line for {name}"));
                assert!(line.contains(&format!(" {unit}")), "{line}");
                if name.ends_with("_us") {
                    assert!(line.contains(" samples="), "{line}");
                }
            }
        }
    }
}

#[test]
fn injected_reply_mismatch_is_caught() {
    for workload in ["churn_mem", "durable_mixed"] {
        let out = run(workload, "0", &["--inject-mismatch"]);
        let last = last_line(&out);
        assert_eq!(out.status.code(), Some(1), "{workload}: {last}");
        assert!(last.starts_with("{\"correct\": false"), "{last}");
        assert!(!last.contains("\"failed\": 0,"), "{last}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("(corrupted)"),
            "the report names the mismatched reply"
        );
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args("--workload nope --seed 1 --seconds 1 --trace 0".split(' '))
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
