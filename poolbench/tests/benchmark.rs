//! Determinism and coverage of the benchmark, scaled down to 8 sessions
//! and 40 unpaced beats per workload: exact work counts repeat for one
//! seed, every check passes, every metric `BENCHMARK.json` declares is
//! emitted with its unit, and another seed changes the inputs.

use hiphop_poolbench::run::Plan;
use hiphop_poolbench::workload::{find, WORKLOADS};
use hiphop_poolbench::{bench, Outcome};
use hiphop_runtime::Json;

const SEED: u64 = 2020;

const SMALL: Plan = Plan {
    sessions: 8,
    beats: 40,
    paced: false,
};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every metric in a section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect()
}

fn run(name: &str, seed: u64, traced: bool) -> Outcome {
    let w = find(name).expect("known workload");
    let o = bench(w, &SMALL, seed, traced).expect("the pool serves the workload");
    for c in &o.checks {
        assert!(c.ok, "{name}: check {} failed: {}", c.name, c.detail);
    }
    assert_eq!(o.attempted, SMALL.sessions * SMALL.beats, "{name}");
    assert_eq!(o.failed, 0, "{name}");
    o
}

fn check_workload(name: &str) {
    let a = run(name, SEED, true);
    let b = run(name, SEED, true);
    assert_eq!(
        a.counts, b.counts,
        "{name}: exact counts differ between identical runs"
    );
    let c = &a.counts;
    assert_eq!(c.reactions, SMALL.sessions * SMALL.beats, "{name}");
    assert!(
        c.inputs > 0 && c.outputs > 0 && c.net_evals > 0,
        "{name}: {c:?}"
    );
    assert!(c.journal_bytes > 0 && c.snapshot_bytes > 0, "{name}: {c:?}");
    assert!(
        a.trace_json
            .as_deref()
            .is_some_and(|t| t.contains("\"tick 16\"")),
        "{name}"
    );
    assert_eq!(
        emitted(&a),
        declared("per_layer"),
        "{name}: per-layer metrics"
    );

    let other = run(name, SEED + 1, false);
    assert_ne!(
        other.counts.input_hash, c.input_hash,
        "{name}: another seed must change the inputs"
    );
    assert_eq!(
        emitted(&other),
        declared("end_to_end"),
        "{name}: end-to-end metrics"
    );
}

#[test]
fn concert_crowd_repeats_and_reports_every_metric() {
    check_workload("concert-crowd");
}

#[test]
fn classical_quiet_repeats_and_reports_every_metric() {
    check_workload("classical-quiet");
}

#[test]
fn wide_busy_repeats_and_reports_every_metric() {
    check_workload("wide-busy");
}

#[test]
fn concert_durable_repeats_and_reports_every_metric() {
    check_workload("concert-durable");
}

#[test]
fn benchmark_json_lists_exactly_these_workloads() {
    let json = benchmark_json();
    let listed: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed, ours);
}

#[test]
fn windows_past_the_end_of_the_score_are_refused() {
    let concert = find("concert-crowd").expect("known workload");
    assert_eq!(Plan::for_seconds(concert, 15).expect("fits").beats, 360);
    let err = Plan::for_seconds(concert, 30).expect_err("720 beats overrun the score");
    assert!(err.contains("ends at beat 512"), "{err}");
    assert!(Plan::for_seconds(concert, 0).is_err());
}
