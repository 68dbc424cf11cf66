//! Paced session-pool benchmark.
//!
//! An open-loop generator issues beats into a
//! `hiphop_eventloop::sessions::SessionPool` at a fixed rate and times
//! each one from its due time to `tick` returning. Each workload reports
//! the end-to-end metrics a user of the pool sees (untraced run) or the
//! per-layer metrics that explain them (traced run), and checks the
//! pool's outputs against the reference interpreter, its crash recovery
//! against the live digests, and its own pacing. See `README.md`.

#![warn(missing_docs)]

pub mod oracle;
pub mod probe;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

use probe::CompileProbe;
use run::{serve, Pass, PassKind, Plan, MAX_GENERATOR_LATE_MS, PROBE_REPS, SETUPS};
use stats::{mean, median, quantile, ratio};
use workload::Workload;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// One correctness or validity check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name.
    pub name: &'static str,
    /// Whether it passed.
    pub ok: bool,
    /// What was checked, or what went wrong.
    pub detail: String,
}

/// Exact work counts of a run: identical for identical seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Committed reactions in the window.
    pub reactions: u64,
    /// Inputs injected in the window.
    pub inputs: u64,
    /// Output events reported in the window.
    pub outputs: u64,
    /// Nets evaluated in the window (traced runs only, else 0).
    pub net_evals: u64,
    /// Encoded journal size, bytes.
    pub journal_bytes: u64,
    /// Encoded recovery-anchor checkpoint size, bytes.
    pub snapshot_bytes: u64,
    /// Fingerprint of every generated input.
    pub input_hash: u64,
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Further numbers printed but not part of the benchmark definition.
    pub diagnostics: Vec<Metric>,
    /// Correctness and validity checks.
    pub checks: Vec<Check>,
    /// Session reactions due in the window.
    pub attempted: u64,
    /// Session reactions that failed.
    pub failed: u64,
    /// Exact work counts.
    pub counts: Counts,
    /// Chrome trace JSON of the traced run.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// Runs `w` under `plan`: untraced, reporting the end-to-end metrics, or
/// traced, reporting the per-layer metrics after an untraced pass over
/// half the window, which is the baseline of `trace.overhead_frac`.
///
/// # Errors
///
/// Fails when the program does not compile or the pool fails; failed
/// checks are reported in the outcome instead.
pub fn bench(w: &Workload, plan: &Plan, seed: u64, traced: bool) -> Result<Outcome, String> {
    let (pass, metrics, diagnostics) = if traced {
        let probe = probe::probe(w.program, PROBE_REPS)?;
        // The baseline needs only a stable tick p50: half the window.
        let half = Plan {
            beats: plan.beats.div_ceil(2),
            ..*plan
        };
        let untraced = PassKind {
            setups: 1,
            traced: false,
            full: false,
        };
        let untraced = serve(w, &half, seed, untraced)?;
        let kind = PassKind {
            setups: 1,
            traced: true,
            full: true,
        };
        let pass = serve(w, plan, seed, kind)?;
        let metrics = per_layer(w, &probe, &pass, &untraced);
        let diagnostics = self_times(&pass);
        (pass, metrics, diagnostics)
    } else {
        let kind = PassKind {
            setups: SETUPS,
            traced: false,
            full: true,
        };
        let pass = serve(w, plan, seed, kind)?;
        let metrics = vec![
            metric("setup_s", median(&pass.setup_s), "s"),
            metric("peak_rss_mb", pass.peak_rss_mb, "MB"),
        ];
        let diagnostics = diagnostics(w, &pass);
        (pass, metrics, diagnostics)
    };
    let p = &pass;
    Ok(Outcome {
        metrics,
        diagnostics,
        checks: checks(p, plan),
        attempted: p.attempted,
        failed: p.failed,
        counts: Counts {
            reactions: p.reactions,
            inputs: p.inputs,
            outputs: p.outputs,
            net_evals: p.net_evals,
            journal_bytes: p.durable.journal_bytes,
            snapshot_bytes: p.durable.snapshot_bytes,
            input_hash: p.input_hash,
        },
        trace_json: p.tracer.as_ref().map(trace::Tracer::chrome_json),
    })
}

/// What the untraced run prints beside the end-to-end metrics: user-facing
/// numbers that do not repeat within a bound on a shared host (see
/// `README.md`), the latency limit, and the failure share.
fn diagnostics(w: &Workload, p: &Pass) -> Vec<Metric> {
    vec![
        metric("beats", p.latency_ms.len() as f64, "count"),
        metric("beat_period_ms", 1e3 / w.rate_hz, "ms"),
        metric("tick_p50_ms", median(&p.latency_ms), "ms"),
        metric("tick_p95_ms", quantile(&p.latency_ms, 0.95), "ms"),
        metric("tick_p99_ms", quantile(&p.latency_ms, 0.99), "ms"),
        metric("reactions_per_s", median(&p.reactions_per_s), "reactions/s"),
        metric("recovery_ms", median(&p.durable.recovery_ms), "ms"),
        metric(
            "failed_frac",
            ratio(p.failed as f64, p.attempted as f64),
            "fraction",
        ),
    ]
}

fn per_layer(w: &Workload, probe: &CompileProbe, p: &Pass, untraced: &Pass) -> Vec<Metric> {
    let beats = p.latency_ms.len() as f64;
    let reactions = p.reactions as f64;
    let lat = &p.latency_ms;
    let tenth = (lat.len() / 10).max(1);
    let backlog = median(&lat[lat.len() - tenth..]) - median(&lat[..tenth]);
    let queue_wait: Vec<f64> = lat.iter().zip(&p.service_ms).map(|(l, s)| l - s).collect();
    let period_ms = 1e3 / w.rate_hz;
    let misses = lat.iter().filter(|&&l| l > period_ms).count() as f64;
    let d = &p.durable;
    let overhead = ratio(median(lat), median(&untraced.latency_ms)) - 1.0;
    vec![
        metric("compiler.compile_ms", probe.compile_ms, "ms"),
        metric("compiler.link_check_ms", probe.link_check_ms, "ms"),
        metric("compiler.translate_ms", probe.translate_ms, "ms"),
        metric("compiler.optimize_ms", probe.optimize_ms, "ms"),
        metric("compiler.dataflow_ms", probe.dataflow_ms, "ms"),
        metric("circuit.analysis_ms", probe.analysis_ms, "ms"),
        metric("circuit.levelize_ms", probe.levelize_ms, "ms"),
        metric("circuit.nets", probe.nets as f64, "count"),
        metric("circuit.registers", probe.registers as f64, "count"),
        metric("circuit.levels", probe.levels as f64, "count"),
        metric("circuit.bytes", probe.bytes as f64, "bytes"),
        metric("runtime.machine_new_us", probe.machine_new_us, "us"),
        metric(
            "runtime.open_us_per_session",
            median(&p.open_us_per_session),
            "us",
        ),
        metric("runtime.react_p50_us", median(&p.react_us), "us"),
        metric(
            "runtime.busy_ms_per_beat",
            ratio(p.react_us.iter().sum::<f64>() / 1e3, beats),
            "ms",
        ),
        metric(
            "runtime.net_evals_per_reaction",
            ratio(p.net_evals as f64, reactions),
            "nets/reaction",
        ),
        metric(
            "runtime.nets_changed_per_reaction",
            ratio(p.nets_changed as f64, reactions),
            "nets/reaction",
        ),
        metric(
            "runtime.useful_eval_ratio",
            ratio(p.nets_changed as f64, p.net_evals as f64),
            "ratio",
        ),
        metric(
            "runtime.inputs_per_reaction",
            ratio(p.inputs as f64, reactions),
            "inputs/reaction",
        ),
        metric(
            "runtime.outputs_per_reaction",
            ratio(p.outputs as f64, reactions),
            "outputs/reaction",
        ),
        metric("runtime.rollbacks", p.rollbacks as f64, "count"),
        metric("sessions.tick_p50_ms", median(lat), "ms"),
        metric(
            "sessions.reactions_per_s",
            median(&p.reactions_per_s),
            "reactions/s",
        ),
        metric("sessions.route_ms_per_beat", mean(&p.route_ms), "ms"),
        metric("sessions.sweep_ms_p50", median(&p.sweep_ms), "ms"),
        metric("sessions.overhead_ms_p50", median(&p.overhead_ms), "ms"),
        metric(
            "sessions.queue_wait_ms_p95",
            quantile(&queue_wait, 0.95),
            "ms",
        ),
        metric(
            "sessions.deadline_miss_frac",
            ratio(misses, beats),
            "fraction",
        ),
        metric("sessions.backlog_ms", backlog, "ms"),
        metric("sessions.tick_p95_ms", quantile(lat, 0.95), "ms"),
        metric("sessions.tick_p99_ms", quantile(lat, 0.99), "ms"),
        metric(
            "flight.journal_bytes_per_beat",
            ratio(d.journal_bytes as f64, d.journal_beats as f64),
            "bytes/beat",
        ),
        metric("flight.encode_ms", d.journal_encode_ms, "ms"),
        metric("flight.decode_ms", median(&d.journal_decode_ms), "ms"),
        metric("snapshot.capture_ms", median(&d.capture_ms), "ms"),
        metric("snapshot.encode_ms", median(&d.snapshot_encode_ms), "ms"),
        metric("snapshot.decode_ms", median(&d.snapshot_decode_ms), "ms"),
        metric("snapshot.bytes", d.snapshot_bytes as f64, "bytes"),
        metric("recovery.total_ms", median(&d.recovery_ms), "ms"),
        metric("recovery.replay_ms", median(&d.replay_ms), "ms"),
        metric("gen.pick_ms_per_beat", mean(&p.pick_ms), "ms"),
        metric("gen.observe_ms_per_beat", mean(&p.observe_ms), "ms"),
        metric("gen.late_ms_max", quantile(&p.late_ms, 1.0), "ms"),
        metric("trace.overhead_frac", overhead, "fraction"),
    ]
}

/// Self time of every span name of the traced pass, ms.
fn self_times(p: &Pass) -> Vec<Metric> {
    p.tracer
        .iter()
        .flat_map(trace::Tracer::self_times)
        .map(|s| metric(&format!("self.{}_ms", s.name), s.self_ms, "ms"))
        .collect()
}

fn checks(p: &Pass, plan: &Plan) -> Vec<Check> {
    let check = |name, ok, detail: String| Check { name, ok, detail };
    let mut checks = vec![
        match &p.oracle {
            Some(Ok(n)) => check(
                "oracle",
                true,
                format!("{n} reactions match the reference interpreter"),
            ),
            Some(Err(e)) => check("oracle", false, e.clone()),
            None => check("oracle", false, "not run".to_owned()),
        },
        match &p.durable.verdict {
            Some(Ok(())) => check(
                "recovery",
                true,
                format!(
                    "{} recoveries verified their checkpoints and the live digests",
                    p.durable.recovery_ms.len()
                ),
            ),
            Some(Err(e)) => check("recovery", false, e.clone()),
            None => check("recovery", false, "not run".to_owned()),
        },
        check(
            "steady-state",
            p.terminated == 0,
            format!("{} sessions terminated inside the window", p.terminated),
        ),
        check(
            "faults",
            p.failed == 0,
            format!("{} of {} session reactions failed", p.failed, p.attempted),
        ),
    ];
    if plan.paced {
        // p99, not the maximum: a lone wake-up delayed by the host's
        // scheduler (several ms, seen even in a bare sleep loop) says
        // nothing about whether the generator keeps pace.
        let p99 = quantile(&p.late_ms, 0.99);
        checks.push(check(
            "generator",
            p99 <= MAX_GENERATOR_LATE_MS,
            format!(
                "p99 {p99:.3} ms / max {:.3} ms issue delay over {} beats due while the pool \
                 was idle (limit: p99 {MAX_GENERATOR_LATE_MS} ms)",
                quantile(&p.late_ms, 1.0),
                p.late_ms.len()
            ),
        ));
    }
    checks
}
