//! The open-loop driver: fresh set-ups, paced beats into the pool,
//! checkpoints, crash recovery, and the oracle replay, all through the
//! pool's public calls.

use crate::oracle::Oracle;
use crate::trace::{SpanId, Tracer};
use crate::workload::{load_for, splitmix64, Input, Load, Program, Workload, CHECKPOINT_EVERY};
use hiphop_circuit::Circuit;
use hiphop_core::module::ModuleRegistry;
use hiphop_core::value::Value;
use hiphop_eventloop::sessions::{SessionId, SessionPool, TickReport};
use hiphop_runtime::{
    Machine, PoolMetrics, PoolSnapshot, RecorderConfig, Recording, ReplayOptions,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Pool shards. One: on the shared 2-vCPU reference host a second
/// thread's share of a core comes and goes for tens of seconds at a time,
/// which made every parallel fan-out (tick, set-up, checkpoint, restore)
/// flip between two speeds; one shard keeps the pool's work on one thread
/// at a time, beside the generator, which blocks while the shard works.
pub const SHARDS: usize = 1;
/// Beats run before the measured window and discarded: one checkpoint
/// interval, so a durable workload's first (coldest) checkpoint falls
/// outside the window.
pub const WARMUP_BEATS: u64 = CHECKPOINT_EVERY;
/// Unpaced beats journaled after the window and replayed by each
/// recovery: one checkpoint interval, the most a crash can lose.
pub const EPILOGUE_BEATS: u64 = CHECKPOINT_EVERY;
/// Fresh set-ups whose median is `setup_s`.
pub const SETUPS: usize = 7;
/// Calls whose median is each compile-probe timing.
pub const PROBE_REPS: usize = 5;
/// Recoveries whose median is `recovery.total_ms`.
pub const RECOVERIES: usize = 5;
/// Sessions whose every beat the interpreter re-drives.
pub const ORACLE_SESSIONS: usize = 4;
/// A beat issued later than this while the pool was idle means the
/// generator, not the pool, set the pace: the run is invalid.
pub const MAX_GENERATOR_LATE_MS: f64 = 1.0;

/// How much of a workload to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Sessions opened.
    pub sessions: u64,
    /// Measured beats.
    pub beats: u64,
    /// Issue beat `k` at `t0 + k / rate` (open loop); unpaced plans issue
    /// beats back to back.
    pub paced: bool,
}

impl Plan {
    /// The full-size plan measuring `seconds` of `w`'s beats.
    ///
    /// # Errors
    ///
    /// Fails when the run would be empty or would reach the end of the
    /// score, where sessions terminate and stop doing work.
    pub fn for_seconds(w: &Workload, seconds: u64) -> Result<Plan, String> {
        let beats = (seconds as f64 * w.rate_hz).round() as u64;
        if beats == 0 {
            return Err(format!("{}: --seconds {seconds} measures no beat", w.name));
        }
        let plan = Plan {
            sessions: w.sessions,
            beats,
            paced: true,
        };
        let total = WARMUP_BEATS + beats + EPILOGUE_BEATS;
        match w.program.horizon_beats() {
            Some(h) if total >= h => Err(format!(
                "{}: --seconds {seconds} runs {total} beats, but every session's score ends \
                 at beat {h}",
                w.name
            )),
            _ => Ok(plan),
        }
    }
}

thread_local! {
    /// Each shard thread compiles the program once, in the session
    /// factory, and clones the circuit per machine (machines are `!Send`).
    static CIRCUIT: RefCell<Option<(Program, Circuit)>> = const { RefCell::new(None) };
}

fn build_machine(program: Program) -> Result<Machine, String> {
    let circuit = CIRCUIT.with(|cache| -> Result<Circuit, String> {
        let mut cache = cache.borrow_mut();
        match &*cache {
            Some((p, c)) if *p == program => Ok(c.clone()),
            _ => {
                let compiled =
                    hiphop_compiler::compile_module(&program.module(), &ModuleRegistry::new())
                        .map_err(|e| e.to_string())?;
                *cache = Some((program, compiled.circuit.clone()));
                Ok(compiled.circuit)
            }
        }
    })?;
    Machine::new(circuit).map_err(|e| e.to_string())
}

/// The recorder's digest checkpoints coincide with the pool checkpoints,
/// so one beat per interval pays for both.
fn recorder_config() -> RecorderConfig {
    RecorderConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        ..RecorderConfig::default()
    }
}

fn new_pool(w: &Workload) -> SessionPool {
    let program = w.program;
    SessionPool::new(SHARDS, tick_ms(w), move |_id| build_machine(program))
}

/// Virtual-clock milliseconds per tick: the beat period.
fn tick_ms(w: &Workload) -> u64 {
    ((1e3 / w.rate_hz).round() as u64).max(1)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Distinct oracle session ids drawn from the seed.
fn oracle_sessions(sessions: u64, seed: u64) -> Vec<SessionId> {
    let mut ids = Vec::new();
    let mut j = 0u64;
    while ids.len() < ORACLE_SESSIONS.min(sessions as usize) {
        let id = SessionId(splitmix64(seed ^ 0x0AC1E ^ j) % sessions);
        if !ids.contains(&id) {
            ids.push(id);
        }
        j += 1;
    }
    ids.sort();
    ids
}

/// Waits until `due`: sleeps to within 2 ms of it, then spins, so that a
/// late wake-up from sleep does not make the beat late.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(2);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// FNV-1a step over a 64-bit word.
fn fnv(h: u64, x: u64) -> u64 {
    x.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001B3))
}

fn value_bits(v: &Value) -> u64 {
    match v {
        Value::Num(n) => n.to_bits(),
        Value::Bool(b) => *b as u64,
        other => other.to_string().bytes().fold(0, |h, b| fnv(h, b as u64)),
    }
}

/// VmHWM of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// What one pass over a workload measured. Per-beat vectors cover the
/// measured window only.
#[derive(Debug, Default)]
pub struct Pass {
    /// Each fresh set-up, `SessionPool::new` to `open_many` returning, s.
    pub setup_s: Vec<f64>,
    /// Each set-up's `open_many` time per session, µs.
    pub open_us_per_session: Vec<f64>,
    /// Due time to `tick` returning, ms.
    pub latency_ms: Vec<f64>,
    /// `inject` loop plus `tick`, ms.
    pub service_ms: Vec<f64>,
    /// Committed reactions ÷ service time, per beat.
    pub reactions_per_s: Vec<f64>,
    /// The `inject` loop, ms.
    pub route_ms: Vec<f64>,
    /// `TickReport::critical_path_us`, ms.
    pub sweep_ms: Vec<f64>,
    /// `tick` wall time minus the critical path, ms.
    pub overhead_ms: Vec<f64>,
    /// The generator's `pick` for the beat, ms.
    pub pick_ms: Vec<f64>,
    /// Feeding the tick's outputs back to the clients, ms.
    pub observe_ms: Vec<f64>,
    /// How late each beat was issued, on beats whose inputs were ready
    /// before the due time (so the pool was idle at it too), ms.
    pub late_ms: Vec<f64>,
    /// Session reactions due in the window.
    pub attempted: u64,
    /// Rolled-back, quarantined or skipped session reactions.
    pub failed: u64,
    /// Committed reactions in the window.
    pub reactions: u64,
    /// Inputs injected in the window.
    pub inputs: u64,
    /// Output events reported in the window.
    pub outputs: u64,
    /// Sessions reporting termination inside the window.
    pub terminated: u64,
    /// Reactions the pool rolled back in the window.
    pub rollbacks: u64,
    /// Per-reaction engine time of every window reaction, µs.
    pub react_us: Vec<f64>,
    /// Nets evaluated in the window (level-activity counters, traced
    /// passes only).
    pub net_evals: u64,
    /// Nets that changed value in the window (traced passes only).
    pub nets_changed: u64,
    /// Process VmHWM at the end of the window, MB.
    pub peak_rss_mb: f64,
    /// Fingerprint of every input generated, warm-up included.
    pub input_hash: u64,
    /// Durability measurements (passes that recover only).
    pub durable: Durable,
    /// The oracle verdict (passes that check outputs only).
    pub oracle: Option<Result<usize, String>>,
    /// Spans, when traced.
    pub tracer: Option<Tracer>,
}

/// Checkpoint, journal and recovery measurements.
#[derive(Debug, Default)]
pub struct Durable {
    /// Each `SessionPool::snapshot` call, ms.
    pub capture_ms: Vec<f64>,
    /// Each `PoolSnapshot::to_jsonl`, ms.
    pub snapshot_encode_ms: Vec<f64>,
    /// The recovery anchor's encoded size, bytes.
    pub snapshot_bytes: u64,
    /// The journal's encoded size, bytes.
    pub journal_bytes: u64,
    /// Ticks in the journal.
    pub journal_beats: u64,
    /// `Recording::to_jsonl`, ms.
    pub journal_encode_ms: f64,
    /// Each recovery's `PoolSnapshot::from_jsonl`, ms.
    pub snapshot_decode_ms: Vec<f64>,
    /// Each recovery's `Recording::from_jsonl`, ms.
    pub journal_decode_ms: Vec<f64>,
    /// Each recovery's `replay` from the snapshot, ms.
    pub replay_ms: Vec<f64>,
    /// Each whole recovery, ms.
    pub recovery_ms: Vec<f64>,
    /// Every recovery verified its checkpoints and ended on the live
    /// pool's digests.
    pub verdict: Option<Result<(), String>>,
}

/// Which parts of the workload a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct PassKind {
    /// Fresh set-ups to time; the last one serves the window.
    pub setups: usize,
    /// Record spans and arm the level-activity counters.
    pub traced: bool,
    /// After the window, run the epilogue, recover and check outputs.
    pub full: bool,
}

/// The serving side of a pass: the pool, its clients and the bookkeeping
/// shared by every beat.
struct Server<'a> {
    w: &'a Workload,
    plan: &'a Plan,
    pool: SessionPool,
    load: Box<dyn Load>,
    inputs: Vec<Input>,
    oracle: Option<Oracle>,
    tracer: Tracer,
    input_hash: u64,
    /// Checkpoint every [`CHECKPOINT_EVERY`] beats (durable workloads,
    /// until the window ends).
    checkpointing: bool,
    /// The latest checkpoint, encoded: the recovery anchor.
    anchor: Option<String>,
    durable: Durable,
}

/// Timestamps of one beat.
struct Beat {
    due: Instant,
    picked: (Instant, Instant),
    issued: Instant,
    routed: Instant,
    returned: Instant,
    observed: Instant,
    report: TickReport,
}

impl Server<'_> {
    /// Runs beat `k`: pick, wait until due (when paced), inject, tick,
    /// observe, and checkpoint on a durable workload.
    fn beat(&mut self, k: u64, due: Option<Instant>) -> Result<Beat, String> {
        let root = self.tracer.reserve();
        let g0 = Instant::now();
        self.inputs.clear();
        self.load.pick(k, &mut self.inputs);
        let g1 = Instant::now();
        let due = due.unwrap_or(g1);
        wait_until(due);
        let issued = Instant::now();
        let names = self.load.names();
        for (id, name, value) in &self.inputs {
            self.pool.inject(*id, &names[*name as usize], value.clone());
        }
        let routed = Instant::now();
        let report = self.pool.tick().map_err(|e| e.to_string())?;
        let returned = Instant::now();
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.step(&self.inputs, &report);
        }
        self.load.observe(Some(k), &report);
        let observed = Instant::now();
        for (id, name, value) in &self.inputs {
            self.input_hash = fnv(
                fnv(fnv(fnv(self.input_hash, k), id.0), *name as u64),
                value_bits(value),
            );
        }
        let done = if self.checkpointing && (k + 1).is_multiple_of(CHECKPOINT_EVERY) {
            self.checkpoint(root, Some(k))?
        } else {
            observed
        };
        let t = &mut self.tracer;
        if t.is_on() {
            let b = Some(k);
            t.record(root, "pick", b, g0, g1);
            t.record(root, "wait", b, g1, issued);
            t.record(root, "inject", b, issued, routed);
            t.record(root, "tick", b, routed, returned);
            t.record(root, "observe", b, returned, observed);
            t.record_as(root, 0, "beat", b, g0, done);
        }
        Ok(Beat {
            due,
            picked: (g0, g1),
            issued,
            routed,
            returned,
            observed,
            report,
        })
    }

    /// Captures and encodes a pool checkpoint, keeping it as the recovery
    /// anchor. Returns when it finished.
    fn checkpoint(&mut self, parent: SpanId, beat: Option<u64>) -> Result<Instant, String> {
        let c0 = Instant::now();
        let snap = self.pool.snapshot().map_err(|e| e.to_string())?;
        let c1 = Instant::now();
        let text = snap.to_jsonl();
        let c2 = Instant::now();
        self.durable.capture_ms.push(ms(c1 - c0));
        self.durable.snapshot_encode_ms.push(ms(c2 - c1));
        self.durable.snapshot_bytes = text.len() as u64;
        self.anchor = Some(text);
        let t = &mut self.tracer;
        let id = t.reserve();
        t.record(id, "snapshot", beat, c0, c1);
        t.record(id, "snapshot.encode", beat, c1, c2);
        t.record_as(id, parent, "checkpoint", beat, c0, c2);
        Ok(c2)
    }

    /// Recovers a crashed copy of the pool `RECOVERIES` times from the
    /// anchor checkpoint plus the journal suffix, on fresh pools, and
    /// compares the recovered digests with the live pool's.
    fn recover(&mut self) -> Result<(), String> {
        let rec = self
            .pool
            .recording()
            .ok_or("the flight recorder is not armed")?;
        let j0 = Instant::now();
        let journal = rec.to_jsonl();
        self.durable.journal_encode_ms = ms(j0.elapsed());
        self.durable.journal_bytes = journal.len() as u64;
        self.durable.journal_beats = rec.ticks.len() as u64;
        drop(rec);
        let anchor = self.anchor.take().ok_or("no checkpoint to recover from")?;
        let live = self.pool.digests().map_err(|e| e.to_string())?;
        let mut verdict = Ok(());
        for _ in 0..RECOVERIES {
            let t0 = Instant::now();
            let snap = PoolSnapshot::from_jsonl(&anchor).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let rec = Recording::from_jsonl(&journal)?;
            let t2 = Instant::now();
            let mut fresh = new_pool(self.w);
            let t3 = Instant::now();
            let report = fresh
                .replay(
                    &rec,
                    &ReplayOptions {
                        from_snapshot: Some(snap),
                        ..ReplayOptions::default()
                    },
                )
                .map_err(|e| e.to_string())?;
            let t4 = Instant::now();
            let d = &mut self.durable;
            d.snapshot_decode_ms.push(ms(t1 - t0));
            d.journal_decode_ms.push(ms(t2 - t1));
            d.replay_ms.push(ms(t4 - t3));
            d.recovery_ms.push(ms(t4 - t0));
            let t = &mut self.tracer;
            let id = t.reserve();
            t.record(id, "snapshot.decode", None, t0, t1);
            t.record(id, "journal.decode", None, t1, t2);
            t.record(id, "replay", None, t3, t4);
            t.record_as(id, 0, "recovery", None, t0, t4);
            if !report.ok() {
                verdict = Err(format!("replay digest mismatches: {:?}", report.mismatches));
            } else if report.checked == 0 {
                verdict = Err("replay verified no digest checkpoint".to_owned());
            } else if fresh.digests().map_err(|e| e.to_string())? != live {
                verdict = Err("recovered digests differ from the live pool's".to_owned());
            }
        }
        self.durable.verdict = Some(verdict);
        Ok(())
    }
}

/// One fresh set-up: shard spawn, per-shard compile, and every session's
/// `Machine::new` plus boot reaction. Returns the pool and its boot batch.
fn set_up(
    w: &Workload,
    plan: &Plan,
    pass: &mut Pass,
    tracer: &mut Tracer,
) -> Result<(SessionPool, TickReport), String> {
    let t0 = Instant::now();
    let mut pool = new_pool(w);
    let t1 = Instant::now();
    let boot = pool.open_many(plan.sessions).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    pass.setup_s.push((t2 - t0).as_secs_f64());
    pass.open_us_per_session
        .push((t2 - t1).as_secs_f64() * 1e6 / plan.sessions as f64);
    let id = tracer.reserve();
    tracer.record(id, "SessionPool::new", None, t0, t1);
    tracer.record(id, "open_many", None, t1, t2);
    tracer.record_as(id, 0, "setup", None, t0, t2);
    Ok((pool, boot))
}

/// Runs one pass of `w` under `plan`.
///
/// # Errors
///
/// Fails when the pool fails: a session cannot be built, a shard died,
/// or a checkpoint or journal cannot be decoded.
pub fn serve(w: &Workload, plan: &Plan, seed: u64, kind: PassKind) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut tracer = Tracer::new(kind.traced);

    let mut served = None;
    for _ in 0..kind.setups.max(1) {
        drop(served.take());
        served = Some(set_up(w, plan, &mut pass, &mut tracer)?);
    }
    let (pool, boot) = served.expect("at least one set-up");

    let mut load = load_for(w.program, plan.sessions, seed);
    load.observe(None, &boot);
    let mut oracle = kind
        .full
        .then(|| Oracle::new(oracle_sessions(plan.sessions, seed)));
    if let Some(o) = oracle.as_mut() {
        o.boot(&boot);
    }
    let mut s = Server {
        w,
        plan,
        pool,
        load,
        inputs: Vec::new(),
        oracle,
        tracer,
        input_hash: 0xcbf29ce484222325,
        checkpointing: w.durable,
        anchor: None,
        durable: Durable::default(),
    };
    if kind.traced {
        s.pool.set_level_activity(true).map_err(|e| e.to_string())?;
    }
    let scenario = BTreeMap::from([
        ("workload".to_owned(), w.name.to_owned()),
        ("seed".to_owned(), seed.to_string()),
    ]);
    if w.durable {
        s.pool
            .record(recorder_config(), scenario.clone())
            .map_err(|e| e.to_string())?;
    }

    // Beat `k` is due at `t0 + (k - k0) / rate`. The schedule restarts at
    // the window so the metrics call before it is not charged to the
    // first measured beat.
    let period = Duration::from_secs_f64(1.0 / w.rate_hz);
    let mut before: Option<PoolMetrics> = None;
    let (mut t0, mut k0) = (Instant::now() + period, 0);
    for k in 0..WARMUP_BEATS + s.plan.beats {
        let measured = k >= WARMUP_BEATS;
        if k == WARMUP_BEATS {
            before = Some(s.pool.metrics().map_err(|e| e.to_string())?);
            (t0, k0) = (Instant::now() + period, k);
        }
        let due = s.plan.paced.then(|| t0 + period * (k - k0) as u32);
        let b = s.beat(k, due)?;
        // The generator is at fault only when the beat's inputs were
        // ready and the pool idle at the due time, yet it issued late.
        if measured && due.is_some() && b.picked.1 <= b.due {
            pass.late_ms.push(ms(b.issued - b.due));
        }
        if !measured {
            continue;
        }
        let r = &b.report;
        pass.latency_ms.push(ms(b.returned - b.due));
        pass.service_ms.push(ms(b.returned - b.issued));
        pass.reactions_per_s
            .push(r.reactions as f64 / (b.returned - b.issued).as_secs_f64());
        pass.route_ms.push(ms(b.routed - b.issued));
        let sweep = r.critical_path_us / 1e3;
        pass.sweep_ms.push(sweep);
        pass.overhead_ms.push(ms(b.returned - b.routed) - sweep);
        pass.pick_ms.push(ms(b.picked.1 - b.picked.0));
        pass.observe_ms.push(ms(b.observed - b.returned));
        pass.attempted += s.plan.sessions;
        pass.failed += (r.faults.len() + r.quarantined) as u64;
        pass.reactions += r.reactions as u64;
        pass.inputs += s.inputs.len() as u64;
        pass.outputs += r
            .outputs
            .iter()
            .map(|o| o.outputs.len() as u64)
            .sum::<u64>();
        pass.terminated += r.outputs.iter().filter(|o| o.terminated).count() as u64;
    }
    let after = s.pool.metrics().map_err(|e| e.to_string())?;
    pass.peak_rss_mb = peak_rss_mb()?;
    let before = before.expect("the window follows the warm-up");
    for (b, a) in before.per_shard.iter().zip(&after.per_shard) {
        let window = &a.samples_us[b.samples_us.len()..];
        pass.react_us.extend_from_slice(window);
    }
    pass.rollbacks = after.rollbacks - before.rollbacks;
    pass.net_evals = after.level_activity.total_evals() - before.level_activity.total_evals();
    pass.nets_changed =
        after.level_activity.total_changed() - before.level_activity.total_changed();

    if kind.full {
        // Epilogue: a journaled suffix after the recovery anchor. Durable
        // workloads anchor on their last in-window checkpoint; the others
        // arm the recorder and checkpoint here, outside the window.
        s.checkpointing = false;
        if s.anchor.is_none() {
            if !w.durable {
                s.pool
                    .record(recorder_config(), scenario)
                    .map_err(|e| e.to_string())?;
            }
            s.checkpoint(0, None)?;
        }
        let start = WARMUP_BEATS + s.plan.beats;
        for k in start..start + EPILOGUE_BEATS {
            s.beat(k, None)?;
        }
        s.recover()?;
        let module = w.program.module();
        pass.oracle = s.oracle.as_ref().map(|o| o.check(&module, s.load.names()));
    }
    pass.input_hash = s.input_hash;
    pass.durable = std::mem::take(&mut s.durable);
    pass.tracer = kind.traced.then_some(s.tracer);
    Ok(pass)
}
