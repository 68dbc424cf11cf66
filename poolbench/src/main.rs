//! `poolbench`: the paced session-pool benchmark's command line.
//!
//! With `--workload NAME` it runs that workload in this process; without,
//! it runs every workload in a child process of its own (so peak RSS is
//! per workload) and combines their results. Every metric is printed as
//! `workload metric value unit`; the last line is one JSON result. The
//! exit code is non-zero when a check fails.

use hiphop_poolbench::run::Plan;
use hiphop_poolbench::workload::{find, WORKLOADS};
use hiphop_poolbench::{bench, Metric};
use hiphop_runtime::Json;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: poolbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
  --workload  concert-crowd | classical-quiet | wide-busy | concert-durable (default: all, one child process each)
  --seed      input seed (default 2020)
  --seconds   measured window per workload (default 15)
  --trace     traced run: per-layer metrics, and a Perfetto trace in target/bench/<workload>.trace.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 2020,
            seconds: 15,
            trace: false,
        };
        let mut it = it.peekable();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
            match a.as_str() {
                "--workload" => args.workload = Some(value("--workload")?),
                "--seed" => args.seed = number(&value("--seed")?, "--seed")?,
                "--seconds" => args.seconds = number(&value("--seconds")?, "--seconds")?,
                // `--trace` alone, or `--trace 0|1`.
                "--trace" => {
                    args.trace = it
                        .next_if(|v| v == "0" || v == "1")
                        .is_none_or(|v| v == "1")
                }
                _ => return Err(format!("unexpected argument {a:?}")),
            }
        }
        Ok(args)
    }
}

fn number(text: &str, flag: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag} wants a whole number, got {text:?}"))
}

/// Formats a measured value with all its digits (`null` if not finite).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metric(workload: &str, m: &Metric) {
    println!("{workload} {} {} {}", m.name, m.value, m.unit);
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let w = find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let plan = Plan::for_seconds(w, args.seconds)?;
    let outcome = bench(w, &plan, args.seed, args.trace)?;
    for m in outcome.metrics.iter().chain(&outcome.diagnostics) {
        print_metric(w.name, m);
    }
    for c in &outcome.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("{} check {} {verdict}: {}", w.name, c.name, c.detail);
    }
    if let Some(trace) = &outcome.trace_json {
        let dir = std::path::Path::new("target").join("bench");
        let path = dir.join(format!("{}.trace.json", w.name));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("{} trace {}", w.name, path.display());
    }
    let metrics: Vec<(String, f64, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.value, m.unit.to_owned()))
        .collect();
    let correct = outcome.correct();
    println!(
        "{}",
        json_result(correct, outcome.attempted, outcome.failed, &metrics)
    );
    Ok(correct)
}

/// Runs every workload in a child process and combines the results,
/// naming each metric `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in &WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", w.name))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let result = lines.pop().and_then(|l| Json::parse(l).ok());
        for l in lines {
            println!("{l}");
        }
        let Some(result) = result.filter(|_| out.status.success()) else {
            eprintln!("poolbench: {} failed ({})", w.name, out.status);
            correct = false;
            continue;
        };
        correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        for (name, m) in result.get("metrics").and_then(Json::members).unwrap_or(&[]) {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            metrics.push((format!("{}.{name}", w.name), value, unit.to_owned()));
        }
    }
    println!("{}", json_result(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("poolbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("poolbench: {e}");
            ExitCode::FAILURE
        }
    }
}
