//! Self-tests of the benchmark binary, on `--quick` inputs so they stay cheap:
//! digests repeat for a seed, the seed moves only the Monte-Carlo digests, the
//! traced replay reproduces the untraced digest, and every metric named in
//! `BENCHMARK.json` is printed with a unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["compile-all", "ler-uniform", "hetero-cached"];

struct Run {
    digest: String,
    traced_digest: Option<String>,
    result: Value,
}

/// Runs the binary on `--quick` inputs and returns its stdout.
fn stdout(workload: &str, seed: u64, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--quick", "--seconds", "0.5"])
        .args(["--seed", &seed.to_string()])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let stdout = stdout(workload, seed, &["--trace", if trace { "1" } else { "0" }]);
    let field = |key: &str| {
        stdout
            .split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .map(str::to_string)
    };
    let last = stdout.lines().last().expect("a result line");
    Run {
        digest: field("output_digest=").expect("digest printed"),
        traced_digest: field("traced_digest="),
        result: serde_json::from_str(last).expect("last line is JSON"),
    }
}

fn assert_correct(r: &Run) {
    assert_eq!(r.result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(r.result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(r.result.get("attempted").and_then(Value::as_u64) >= Some(1));
}

#[test]
fn same_seed_gives_the_same_digest() {
    for w in WORKLOADS {
        let (a, b) = (run(w, 5, false), run(w, 5, false));
        assert_correct(&a);
        assert_correct(&b);
        assert_eq!(a.digest, b.digest, "{w}");
    }
}

#[test]
fn seed_moves_monte_carlo_digests_only() {
    for w in WORKLOADS {
        let (a, b) = (run(w, 5, false), run(w, 6, false));
        if w == "compile-all" {
            assert_eq!(a.digest, b.digest, "the seed only permutes compile order");
        } else {
            assert_ne!(a.digest, b.digest, "{w} must sample with the seed");
        }
    }
}

#[test]
fn traced_replay_reproduces_the_untraced_digest() {
    for w in WORKLOADS {
        let r = run(w, 7, true);
        assert_correct(&r);
        assert_eq!(r.traced_digest.as_deref(), Some(r.digest.as_str()), "{w}");
        assert_eq!(r.digest, run(w, 7, false).digest, "{w}");
    }
}

#[test]
fn spans_are_written_as_json_lines() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans.jsonl");
    let path_arg = path.to_str().expect("utf-8 temp path");
    stdout("ler-uniform", 7, &["--trace", "1", "--spans", path_arg]);
    let text = std::fs::read_to_string(&path).expect("spans written");
    let _ = std::fs::remove_file(&path);
    let spans: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("each span line is JSON"))
        .collect();
    let named = |n: &str| {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(Value::as_str) == Some(n))
            .count()
    };
    assert_eq!(
        named("decoder.point"),
        10 * named("pass.cold"),
        "one span per point"
    );
    assert!(named("qccd.compile") > 0 && named("decoder.sample") > 0);
}

#[test]
fn emitted_pins_carry_the_run_digest() {
    let pins = stdout("ler-uniform", 7, &["--emit-pins"]);
    let digest = run("ler-uniform", 7, false).digest;
    assert!(
        pins.contains(&format!("_DIGEST: u64 = 0x{digest};")),
        "{pins}"
    );
    assert_eq!(
        pins.lines()
            .filter(|l| l.trim_start().starts_with("(\""))
            .count(),
        10
    );
}

#[test]
fn every_declared_metric_is_printed_with_a_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let valid = |n: &str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let declared = names(key);
        let r = run("hetero-cached", 5, trace);
        let metrics = r
            .result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), declared.len(), "{key}: printed vs declared");
        for (name, unit) in &declared {
            assert!(valid(name), "bad metric name `{name}`");
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} not printed"));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        }
    }
}
