//! The reactive machine: atomic reactions over a compiled circuit.
//!
//! This is the paper's "JavaScript reactive machine" (§2.2.1, §5.2): it
//! holds the circuit, the persistent state (registers, signal values,
//! variables, counters, async instances), stages inputs, and executes each
//! reaction as a linear-time constructive simulation of the circuit — the
//! least-fixpoint evaluation in Scott's ternary logic {⊥, 0, 1}. Nets
//! stabilize through a FIFO of determination/resolution events; attached
//! actions run exactly when their net stabilizes to 1 and their data
//! dependencies have resolved, which realizes the paper's
//! micro-scheduling. If the queue drains with ⊥ nets remaining, the
//! reaction fails with a reported causality cycle.

use crate::causality::analyze;
use crate::env::{AtomView, EnvView};
use crate::error::RuntimeError;
use crate::levelized::{
    Block, EngineMode, LevelSchedule, PackedStates, CODE_AND, CODE_AND_EARLY, CODE_AND_LATE,
    CODE_CONST0, CODE_CONST1, CODE_INPUT, CODE_OR, CODE_OR_EARLY, CODE_OR_LATE, CODE_REG,
    CODE_TEST,
};
use crate::isolate::guarded;
use crate::program::{Class, Program};
use crate::telemetry::{
    AsyncPhase, LevelActivity, Metrics, MetricsSink, ReactionStats, SharedSink, SinkSet, TraceEvent,
};
use hiphop_circuit::{Action, AsyncId, Circuit, NetId, NetKind, SignalId, TestKind};
use hiphop_core::ast::{AsyncCtx, AtomBody};
use crate::snapshot::{
    engine_from_tag, engine_tag, AsyncSnapshot, ChaosSnapshot, MachineSnapshot, SnapshotError,
};
use crate::sparse::{SparseState, SparseTables};
use hiphop_core::mailbox::{AsyncHandle, MachineOp, Mailbox};
use hiphop_core::rng::Rng;
use hiphop_core::value::Value;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::time::Instant;

/// One output signal's snapshot after a reaction.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputEvent {
    /// Signal name. Interned per program (`Arc<str>`): a reaction is
    /// built — and cloned on its way through the session pool — once per
    /// session per instant, so the names must not re-allocate each time.
    pub name: std::sync::Arc<str>,
    /// Present this instant.
    pub present: bool,
    /// Current value (persists across instants).
    pub value: Value,
}

/// The result of one reaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Reaction {
    /// Reaction number (0-based).
    pub seq: u64,
    /// Snapshot of every output-direction interface signal.
    pub outputs: Vec<OutputEvent>,
    /// Whether the program terminated in this instant.
    pub terminated: bool,
    /// Number of net events processed (linear in circuit size; used by
    /// the E4 experiments).
    pub events: usize,
}

impl Reaction {
    /// Snapshot of a specific output, if present in the interface.
    pub fn output(&self, name: &str) -> Option<&OutputEvent> {
        self.outputs.iter().find(|o| &*o.name == name)
    }
    /// Whether `name` was emitted this instant.
    pub fn present(&self, name: &str) -> bool {
        self.output(name).map(|o| o.present).unwrap_or(false)
    }
    /// Current value of `name` (Null if unknown).
    pub fn value(&self, name: &str) -> Value {
        self.output(name).map(|o| o.value.clone()).unwrap_or(Value::Null)
    }
}

#[derive(Debug)]
pub(crate) struct AsyncRt {
    pub(crate) active: bool,
    pub(crate) instance: u64,
    pub(crate) state: Rc<RefCell<Value>>,
    pub(crate) notified: Option<Value>,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Det(u32),
    Res(u32),
}

/// Pre-reaction copy of everything a failed reaction may have mutated
/// before its first fallible step completed; buffers are reused across
/// reactions so steady-state snapshotting allocates nothing. Registers,
/// `last_present`, `terminated` and `seq` need no snapshot — they are
/// only committed after the last fallible step.
#[derive(Debug, Default)]
struct Snapshot {
    sig_val: Vec<Value>,
    sig_preval: Vec<Value>,
    vars: HashMap<String, Value>,
    counters: Vec<f64>,
    asyncs: Vec<(bool, u64, Rc<RefCell<Value>>, Option<Value>)>,
    log_len: usize,
}

/// Machine-level fault injection: an armed machine panics inside host
/// actions at the configured rate, drawing from its own PCG32 stream
/// (see [`Machine::set_chaos`]).
#[derive(Debug)]
struct Chaos {
    rng: Rng,
    rate: f64,
}

/// A running reactive machine: a circuit handle, the shared `Program`
/// derived from it, and this session's own state planes.
///
/// Fields the cohort engine (`crate::cohort`) touches are `pub(crate)`:
/// the cohort sweep executes each lane's begin/commit phases out-of-line
/// while the shared bit-parallel sweep owns the pure gates.
pub struct Machine {
    pub(crate) circuit: Circuit,
    pub(crate) program: Rc<Program>,

    // Persistent state.
    pub(crate) regs: Vec<bool>,
    pub(crate) sig_val: Vec<Value>,
    pub(crate) sig_preval: Vec<Value>,
    vars: HashMap<String, Value>,
    counters: Vec<f64>,
    pub(crate) asyncs: Vec<AsyncRt>,
    log: Vec<String>,
    mailbox: Mailbox,
    next_instance: u64,
    pub(crate) terminated: bool,
    pub(crate) seq: u64,
    pub(crate) last_present: Vec<bool>,

    // Staging for the next reaction.
    pub(crate) staged_inputs: Vec<(SignalId, Option<Value>)>,
    pub(crate) staged_notifies: Vec<(AsyncId, Value)>,

    // Scratch (allocated once).
    pub(crate) value: Vec<i8>,
    undet: Vec<u32>,
    deps_left: Vec<u32>,
    armed: Vec<bool>,
    resolved: Vec<bool>,
    queue: VecDeque<Ev>,
    pub(crate) events: usize,
    pub(crate) actions_run: usize,
    pub(crate) queue_hwm: usize,

    pub(crate) listeners: Vec<Rc<dyn Fn(&Reaction)>>,
    pub(crate) trace: Option<Vec<Reaction>>,
    pub(crate) sinks: SinkSet,
    pub(crate) fine_events: bool,
    metrics: Option<Rc<RefCell<MetricsSink>>>,

    // Fault tolerance: pre-reaction snapshot for rollback-on-error,
    // poison flag (only ever observable with rollback disabled), and the
    // optional fault injector.
    snapshot: Snapshot,
    pub(crate) rollback: bool,
    pub(crate) poisoned: bool,
    chaos: Option<Chaos>,

    // Engine selection: the program's level schedule exists iff the
    // circuit is acyclic; `requested` is the user's explicit choice
    // (`None` = automatic).
    pub(crate) requested: Option<EngineMode>,
    lv_state: PackedStates,
    // Dirty-set state of the sparse incremental engine; its baseline
    // validity flag is cleared by every non-sparse execution path.
    pub(crate) sparse: SparseState,

    // Per-level activity accounting (`enable_level_activity`): net
    // evaluations and value flips bucketed by topological level, with
    // the previous instant's net values as the flip baseline.
    pub(crate) level_activity: Option<LevelActivity>,
    prev_value: Vec<i8>,
    // Per-block evaluation counts of the last hybrid reaction (scratch;
    // maintained only while level-activity accounting is armed).
    la_block_evals: Vec<u64>,

}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("program", &self.circuit.name())
            .field("nets", &self.circuit.nets().len())
            .field("seq", &self.seq)
            .field("terminated", &self.terminated)
            .finish()
    }
}

impl Machine {
    /// Wraps a finalized circuit into a fresh machine.
    ///
    /// The program derived from the circuit (`Program`: net classes,
    /// schedules, output table, structural hash, cohort plan, sparse
    /// tables) is memoized in the circuit's shared body, so machines
    /// built on clones of one circuit share it and each pays only for
    /// its own state planes.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnfinalizedCircuit`] if the circuit was not
    /// [`Circuit::finalize`]d (the compiler always finalizes, so
    /// `machine_for` unwraps; hand-built or edited circuits must call
    /// `finalize()`).
    ///
    /// [`RuntimeError::Causality`] if the static constructiveness
    /// analysis proves a combinational cycle can never stabilize (the
    /// paper's `X = not X`): the program is rejected before any reaction
    /// runs, with the same structured [`crate::CausalityReport`] a
    /// runtime deadlock would produce.
    pub fn new(circuit: Circuit) -> Result<Machine, RuntimeError> {
        if !circuit.is_finalized() {
            return Err(RuntimeError::UnfinalizedCircuit {
                program: circuit.name().to_owned(),
            });
        }
        let program = Program::of(&circuit)?;
        let n = circuit.nets().len();
        let regs = circuit.registers().iter().map(|r| r.init).collect();
        let sig_val: Vec<Value> = circuit
            .signals()
            .iter()
            .map(|s| s.init.clone().unwrap_or(Value::Null))
            .collect();
        let asyncs = circuit
            .asyncs()
            .iter()
            .map(|_| AsyncRt {
                active: false,
                instance: 0,
                state: Rc::new(RefCell::new(Value::Null)),
                notified: None,
            })
            .collect();
        let nsig = circuit.signals().len();
        Ok(Machine {
            program,
            regs,
            sig_preval: sig_val.clone(),
            sig_val,
            vars: HashMap::new(),
            counters: vec![0.0; circuit.counters().len()],
            asyncs,
            log: Vec::new(),
            mailbox: Mailbox::new(),
            next_instance: 0,
            terminated: false,
            seq: 0,
            last_present: vec![false; nsig],
            staged_inputs: Vec::new(),
            staged_notifies: Vec::new(),
            value: vec![-1; n],
            undet: vec![0; n],
            deps_left: vec![0; n],
            armed: vec![false; n],
            resolved: vec![false; n],
            queue: VecDeque::new(),
            events: 0,
            actions_run: 0,
            queue_hwm: 0,
            listeners: Vec::new(),
            trace: None,
            sinks: SinkSet::new(),
            fine_events: false,
            metrics: None,
            snapshot: Snapshot::default(),
            rollback: true,
            poisoned: false,
            chaos: None,
            requested: None,
            lv_state: PackedStates::default(),
            sparse: SparseState::default(),
            level_activity: None,
            prev_value: Vec::new(),
            la_block_evals: Vec::new(),
            circuit,
        })
    }

    /// Requests an evaluation engine; returns the *effective* engine
    /// (requesting [`EngineMode::Levelized`] on a cyclic circuit falls
    /// back to the hybrid engine, which is also the automatic default
    /// for cyclic circuits).
    pub fn set_engine(&mut self, mode: EngineMode) -> EngineMode {
        self.requested = Some(mode);
        self.engine()
    }

    /// The engine the next reaction will use: the requested one
    /// ([`Machine::set_engine`]), or — by default — [`EngineMode::Levelized`]
    /// when the circuit is acyclic and [`EngineMode::Hybrid`] otherwise
    /// (acyclic regions sweep densely, only cycles iterate).
    pub fn engine(&self) -> EngineMode {
        match self.requested {
            Some(EngineMode::Levelized) | None => {
                if self.program.schedule.is_some() {
                    EngineMode::Levelized
                } else {
                    EngineMode::Hybrid
                }
            }
            // The sparse sweep needs the acyclic level schedule; cyclic
            // circuits fall back to the hybrid engine (same rule as a
            // levelized request).
            Some(EngineMode::Sparse) => {
                if self.program.schedule.is_some() {
                    EngineMode::Sparse
                } else {
                    EngineMode::Hybrid
                }
            }
            Some(mode) => mode,
        }
    }

    /// Whether the circuit levelizes (acyclic combinational graph);
    /// reports `(levels, max_level_width)` of the dense schedule.
    pub fn levelization(&self) -> Option<(usize, usize)> {
        self.program.schedule.as_ref().map(|s| (s.levels, s.max_width))
    }

    /// Switches to the *naive* propagation engine: instead of the
    /// event-driven linear-time queue, each reaction repeatedly sweeps all
    /// nets until a fixpoint. Same constructive semantics, O(nets²) worst
    /// case — used as an independent reference implementation in the
    /// differential property tests. Compatibility shim over
    /// [`Machine::set_engine`]; `false` restores automatic selection.
    pub fn set_naive(&mut self, naive: bool) {
        self.requested = naive.then_some(EngineMode::Naive);
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The mailbox used by async activities; share it with your event
    /// loop and call [`Machine::drain`] to process queued operations.
    pub fn mailbox(&self) -> Mailbox {
        self.mailbox.clone()
    }

    /// Whether the program has terminated.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Number of reactions executed so far.
    pub fn reactions(&self) -> u64 {
        self.seq
    }

    /// The machine's log (filled by `hop { log(...) }` atoms).
    ///
    /// Compatibility shim: messages are recorded through the
    /// [`TraceSink`] path ([`TraceEvent::Log`] reaches every attached
    /// sink); this accessor reads the built-in retaining buffer.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Records a log message: publishes [`TraceEvent::Log`] to every
    /// attached sink, then retains the message for [`Machine::log`].
    fn record_log(&mut self, message: String) {
        if !self.sinks.is_empty() {
            self.emit_trace(TraceEvent::Log {
                seq: self.seq,
                message: &message,
            });
        }
        self.log.push(message);
    }

    /// Attaches a telemetry sink; it receives every [`TraceEvent`] from
    /// subsequent reactions. Sinks survive [`Machine::reset`] and
    /// [`Machine::hot_swap`].
    pub fn attach_sink(&mut self, sink: SharedSink) {
        self.fine_events |= sink.borrow().wants_net_events();
        self.sinks.attach(sink);
    }

    /// A clone of the machine's shared sink set. External publishers —
    /// the event-loop supervisor in particular — use this to emit
    /// activity-supervision events ([`TraceEvent::ActivityRetry`] and
    /// friends) into the same sinks the machine publishes to. The handle
    /// stays live across [`Machine::hot_swap`].
    pub fn sink_handle(&self) -> SinkSet {
        self.sinks.clone()
    }

    /// Attaches (once) and returns the built-in aggregating
    /// [`MetricsSink`]; read it with [`Machine::metrics`].
    pub fn enable_metrics(&mut self) -> Rc<RefCell<MetricsSink>> {
        if let Some(m) = &self.metrics {
            return m.clone();
        }
        let m = Rc::new(RefCell::new(MetricsSink::new()));
        self.metrics = Some(m.clone());
        self.attach_sink(m.clone());
        m
    }

    /// Percentile snapshot of the built-in metrics sink (`None` until
    /// [`Machine::enable_metrics`] is called).
    pub fn metrics(&self) -> Option<Metrics> {
        self.metrics.as_ref().map(|m| m.borrow().snapshot())
    }

    /// Flushes every attached sink (file sinks write their output here;
    /// also triggered by dropping the sink).
    pub fn finish_sinks(&mut self) {
        self.sinks.finish();
    }

    pub(crate) fn emit_trace(&self, event: TraceEvent<'_>) {
        self.sinks.emit(&event);
    }

    /// Reads a machine variable.
    pub fn var(&self, name: &str) -> Value {
        self.vars.get(name).cloned().unwrap_or(Value::Null)
    }

    /// Sets a machine variable (module-level `var`s without bindings).
    pub fn set_var(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        self.vars.insert(name.into(), value.into());
    }

    /// Registers a listener called after each successful reaction.
    pub fn on_reaction(&mut self, f: impl Fn(&Reaction) + 'static) {
        self.listeners.push(Rc::new(f));
    }

    /// Starts recording reactions (see [`Machine::take_trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the recorded reactions.
    pub fn take_trace(&mut self) -> Vec<Reaction> {
        self.trace.take().unwrap_or_default()
    }

    /// Presence of `name` at the last reaction.
    pub fn present(&self, name: &str) -> bool {
        self.circuit
            .signal_by_name(name)
            .map(|id| self.last_present[id.index()])
            .unwrap_or(false)
    }

    /// Current value of `name`.
    pub fn nowval(&self, name: &str) -> Value {
        self.circuit
            .signal_by_name(name)
            .map(|id| self.sig_val[id.index()].clone())
            .unwrap_or(Value::Null)
    }

    /// Previous-instant value of `name`.
    pub fn preval(&self, name: &str) -> Value {
        self.circuit
            .signal_by_name(name)
            .map(|id| self.sig_preval[id.index()].clone())
            .unwrap_or(Value::Null)
    }

    /// Stages an input signal for the next reaction.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownSignal`] / [`RuntimeError::NotAnInput`].
    pub fn set_input(&mut self, name: &str, value: Option<Value>) -> Result<(), RuntimeError> {
        let id = self
            .circuit
            .signal_by_name(name)
            .ok_or_else(|| RuntimeError::UnknownSignal {
                signal: name.to_owned(),
            })?;
        if !self.circuit.signal(id).direction.is_input() {
            return Err(RuntimeError::NotAnInput {
                signal: name.to_owned(),
            });
        }
        self.staged_inputs.push((id, value));
        Ok(())
    }

    /// Stages inputs and runs one reaction — the paper's
    /// `M.react({name: value, ...})`.
    ///
    /// # Errors
    ///
    /// Propagates staging errors and reaction failures.
    pub fn react_with(
        &mut self,
        inputs: &[(&str, Value)],
    ) -> Result<Reaction, RuntimeError> {
        for (name, v) in inputs {
            self.set_input(name, Some(v.clone()))?;
        }
        self.react()
    }

    /// Runs one atomic reaction with the currently staged inputs.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Causality`] on a synchronous deadlock,
    /// [`RuntimeError::MultipleEmit`] on an uncombined double emission,
    /// [`RuntimeError::HostPanic`] when a host atom, async hook or
    /// combine function panics (the unwind is caught).
    ///
    /// Reactions are atomic under error: on any failure the machine
    /// rolls its persistent state (signal values, pre-values, variables,
    /// counters, async instances, the log) back to the pre-reaction
    /// snapshot, registers were never committed, and the machine accepts
    /// further reactions ([`Machine::is_poisoned`] stays `false`). What
    /// cannot be undone: external host side effects that already ran,
    /// messages already published to trace sinks, and the staged inputs
    /// of the failed reaction, which are consumed.
    pub fn react(&mut self) -> Result<Reaction, RuntimeError> {
        if self.rollback {
            self.take_snapshot();
        }
        let result = self.react_core();
        match &result {
            Ok(_) => self.poisoned = false,
            Err(_) => {
                if self.rollback {
                    self.restore_snapshot();
                    self.poisoned = false;
                } else {
                    self.poisoned = true;
                }
            }
        }
        result
    }

    /// Whether a mid-reaction error left the machine in a half-stabilized
    /// state. Always `false` under the default rollback regime — rollback
    /// restores the pre-reaction snapshot on every error — and only ever
    /// `true` after an error with rollback disabled
    /// ([`Machine::set_rollback`]); cleared by the next successful
    /// reaction or [`Machine::reset`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Enables/disables reaction rollback (default: enabled). Disabling
    /// is a diagnostic knob — it restores the pre-supervision behaviour
    /// where a failed reaction may leave partial state behind (and sets
    /// [`Machine::is_poisoned`]); the bench suite uses it to measure the
    /// snapshot overhead.
    pub fn set_rollback(&mut self, enabled: bool) {
        self.rollback = enabled;
    }

    /// Arms machine-level fault injection: host actions panic with
    /// probability `rate` per action, drawn from a PCG32 stream seeded
    /// with `seed` — deterministic given the seed and the reaction
    /// sequence. The injected panics exercise exactly the
    /// catch-unwind/rollback path real host bugs would take. A `rate`
    /// of 0 disarms.
    pub fn set_chaos(&mut self, seed: u64, rate: f64) {
        self.chaos = (rate > 0.0).then(|| Chaos {
            rng: Rng::seed_from_u64(seed),
            rate,
        });
    }

    /// Arms per-level activity accounting: after every reaction run on
    /// the levelized or hybrid engine, the sweep's per-level net counts
    /// and value flips (vs. the previous instant) accumulate into a
    /// [`LevelActivity`]. Quantifies the "wide-but-quiet" sweep waste
    /// the sparse-incremental roadmap item targets; costs one extra
    /// byte-vector compare per reaction, so it is off by default.
    pub fn enable_level_activity(&mut self) {
        if self.level_activity.is_none() {
            self.level_activity = Some(LevelActivity::default());
        }
    }

    /// The accumulated per-level activity, when armed (empty until a
    /// reaction runs on a level-structured engine).
    pub fn level_activity(&self) -> Option<&LevelActivity> {
        self.level_activity.as_ref()
    }

    /// Buckets this reaction's sweep by topological level (hybrid:
    /// condensation block). `evals` counts nets *actually evaluated* —
    /// the levelized sweep visits every net of every level, while the
    /// hybrid engine's cyclic blocks iterate their members several times
    /// (tallied from the engine's own event counter, so a block's bucket
    /// reports exactly the work done in it, not its span width).
    /// `changed` counts nets whose committed value differs from the
    /// previous instant — the gap between the two is the quiet width the
    /// sparse engine skips. Constructive/naive reactions have no level
    /// structure and are not tallied; sparse reactions tally inline
    /// (skipped levels report 0, see `react_core_sparse`).
    fn tally_level_activity(&mut self, program: &Program, engine: EngineMode) {
        let sched = match engine {
            EngineMode::Levelized => program.schedule.as_deref(),
            EngineMode::Hybrid => Some(&*program.hybrid.sched),
            _ => None,
        };
        let Some(sched) = sched else { return };
        let Some(la) = &mut self.level_activity else { return };
        let n = self.circuit.nets().len();
        if self.prev_value.len() != n {
            self.prev_value = vec![-1; n];
        }
        let starts = &sched.level_starts;
        let levels = starts.len().saturating_sub(1);
        if la.evals.len() < levels {
            la.evals.resize(levels, 0);
            la.changed.resize(levels, 0);
        }
        for l in 0..levels {
            let span = &sched.order[starts[l] as usize..starts[l + 1] as usize];
            // Hybrid blocks report their measured evaluation count
            // (recorded by `hybrid_fixpoint`); dense levelized sweeps
            // evaluate exactly their span.
            la.evals[l] += match engine {
                EngineMode::Hybrid => self.la_block_evals.get(l).copied().unwrap_or(0),
                _ => span.len() as u64,
            };
            la.changed[l] += span
                .iter()
                .filter(|&&id| self.value[id as usize] != self.prev_value[id as usize])
                .count() as u64;
        }
        self.prev_value[..n].copy_from_slice(&self.value[..n]);
    }

    /// A deterministic digest of the machine's persistent state
    /// (registers, signal values and pre-values, variables, counters,
    /// async instances, termination flag). Two machines that executed
    /// the same committed reactions digest identically; the chaos tests
    /// compare digests before and after a failed reaction to verify
    /// rollback byte-for-byte.
    pub fn state_digest(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(s, "regs:{:?};present:{:?};term:{};", self.regs, self.last_present, self.terminated);
        let _ = write!(s, "sig:[");
        for (i, info) in self.circuit.signals().iter().enumerate() {
            let _ = write!(
                s,
                "{}={:?}/{:?},",
                info.name, self.sig_val[i], self.sig_preval[i]
            );
        }
        let _ = write!(s, "];counters:{:?};vars:[", self.counters);
        let mut kv: Vec<(&String, &Value)> = self.vars.iter().collect();
        kv.sort_by_key(|(k, _)| k.as_str());
        for (k, v) in kv {
            let _ = write!(s, "{k}={v:?},");
        }
        let _ = write!(s, "];asyncs:[");
        for rt in &self.asyncs {
            let _ = write!(s, "({},{},{:?}),", rt.active, rt.instance, rt.notified);
        }
        s.push(']');
        s
    }

    /// Copies everything a failed reaction could have mutated; reuses the
    /// snapshot buffers so the steady state allocates nothing.
    pub(crate) fn take_snapshot(&mut self) {
        let snap = &mut self.snapshot;
        snap.sig_val.clone_from(&self.sig_val);
        snap.sig_preval.clone_from(&self.sig_preval);
        snap.vars.clone_from(&self.vars);
        snap.counters.clone_from(&self.counters);
        snap.asyncs.clear();
        snap.asyncs.extend(
            self.asyncs
                .iter()
                .map(|rt| (rt.active, rt.instance, rt.state.clone(), rt.notified.clone())),
        );
        snap.log_len = self.log.len();
    }

    /// Restores the pre-reaction snapshot after an error. `next_instance`
    /// is deliberately *not* restored: instance numbers stay monotonic so
    /// a host callback holding a handle from a rolled-back spawn can
    /// never collide with a later incarnation.
    pub(crate) fn restore_snapshot(&mut self) {
        let snap = &mut self.snapshot;
        std::mem::swap(&mut self.sig_val, &mut snap.sig_val);
        std::mem::swap(&mut self.sig_preval, &mut snap.sig_preval);
        std::mem::swap(&mut self.vars, &mut snap.vars);
        std::mem::swap(&mut self.counters, &mut snap.counters);
        for (rt, saved) in self.asyncs.iter_mut().zip(snap.asyncs.drain(..)) {
            let (active, instance, state, notified) = saved;
            rt.active = active;
            rt.instance = instance;
            rt.state = state;
            rt.notified = notified;
        }
        self.log.truncate(snap.log_len);
    }

    /// Cohort-mode snapshot: same rollback point as
    /// [`Machine::take_snapshot`] without its two `Vec<Value>` clones,
    /// which dominate the cohort's per-lane fixed cost. The begin
    /// phase's `sig_preval ← sig_val` copy doubles as the value backup
    /// (nothing writes `sig_preval` during a sweep), and the old
    /// pre-values are parked in the snapshot by swap instead of clone.
    /// Must be called *before* that begin-phase copy.
    pub(crate) fn take_snapshot_cohort(&mut self) {
        let snap = &mut self.snapshot;
        std::mem::swap(&mut snap.sig_preval, &mut self.sig_preval);
        snap.vars.clone_from(&self.vars);
        snap.counters.clone_from(&self.counters);
        snap.asyncs.clear();
        snap.asyncs.extend(
            self.asyncs
                .iter()
                .map(|rt| (rt.active, rt.instance, rt.state.clone(), rt.notified.clone())),
        );
        snap.log_len = self.log.len();
    }

    /// Rolls a failed cohort lane back to the
    /// [`Machine::take_snapshot_cohort`] point — the machine ends up in
    /// the exact state [`Machine::restore_snapshot`] would produce.
    pub(crate) fn restore_snapshot_cohort(&mut self) {
        // `sig_preval` still holds the begin phase's copy of the
        // pre-reaction `sig_val`; the pre-reaction `sig_preval` was
        // parked in the snapshot by swap.
        self.sig_val.clone_from(&self.sig_preval);
        let snap = &mut self.snapshot;
        std::mem::swap(&mut self.sig_preval, &mut snap.sig_preval);
        std::mem::swap(&mut self.vars, &mut snap.vars);
        std::mem::swap(&mut self.counters, &mut snap.counters);
        for (rt, saved) in self.asyncs.iter_mut().zip(snap.asyncs.drain(..)) {
            let (active, instance, state, notified) = saved;
            rt.active = active;
            rt.instance = instance;
            rt.state = state;
            rt.notified = notified;
        }
        self.log.truncate(snap.log_len);
    }

    /// Captures the machine's complete persistent state as a durable,
    /// serializable [`MachineSnapshot`] — the state set of the rollback
    /// snapshot plus everything that outlives a reaction: registers,
    /// presence, termination, the reaction counter, the monotonic async
    /// instance counter, the log, the poison flag, the engine request
    /// and the exact chaos-RNG position. Loading it into a machine
    /// compiled from the same circuit ([`Machine::restore`]) reproduces
    /// [`Machine::state_digest`] byte-for-byte.
    pub fn snapshot(&self) -> MachineSnapshot {
        let mut vars: Vec<(String, Value)> = self
            .vars
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        vars.sort_by(|a, b| a.0.cmp(&b.0));
        MachineSnapshot {
            program: self.circuit.name().to_owned(),
            struct_hash: self.program.struct_hash(&self.circuit),
            engine: self.requested.map(|m| engine_tag(m).to_owned()),
            regs: self.regs.clone(),
            sig_val: self.sig_val.clone(),
            sig_preval: self.sig_preval.clone(),
            vars,
            counters: self.counters.clone(),
            last_present: self.last_present.clone(),
            terminated: self.terminated,
            seq: self.seq,
            next_instance: self.next_instance,
            log: self.log.clone(),
            poisoned: self.poisoned,
            asyncs: self
                .asyncs
                .iter()
                .map(|rt| AsyncSnapshot {
                    active: rt.active,
                    instance: rt.instance,
                    state: rt.state.borrow().clone(),
                    notified: rt.notified.clone(),
                })
                .collect(),
            chaos: self.chaos.as_ref().map(|c| {
                let (state, inc) = c.rng.state_parts();
                ChaosSnapshot {
                    state,
                    inc,
                    rate: c.rate,
                }
            }),
        }
    }

    /// Overwrites this machine's persistent state with a durable
    /// snapshot. The machine must be compiled from a structurally
    /// identical circuit — guarded by [`crate::circuit_struct_hash`]
    /// (memoized in the program), so a snapshot refuses to load into a
    /// different program. Staged inputs, staged notifications and queued
    /// mailbox operations are discarded: a restore lands exactly on a
    /// committed instant boundary.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::CircuitMismatch`] on a structural-hash skew;
    /// [`SnapshotError::Malformed`] if the snapshot's state planes do
    /// not match the circuit's dimensions.
    pub fn restore(&mut self, snap: &MachineSnapshot) -> Result<(), SnapshotError> {
        let expected = self.program.struct_hash(&self.circuit);
        if snap.struct_hash != expected {
            return Err(SnapshotError::CircuitMismatch {
                found: (snap.program.clone(), snap.struct_hash),
                expected: (self.circuit.name().to_owned(), expected),
            });
        }
        if snap.regs.len() != self.regs.len()
            || snap.sig_val.len() != self.sig_val.len()
            || snap.sig_preval.len() != self.sig_val.len()
            || snap.last_present.len() != self.last_present.len()
            || snap.counters.len() != self.counters.len()
            || snap.asyncs.len() != self.asyncs.len()
        {
            return Err(SnapshotError::Malformed(
                "state plane lengths do not match the circuit".into(),
            ));
        }
        self.requested = match &snap.engine {
            None => None,
            Some(tag) => Some(engine_from_tag(tag).ok_or_else(|| {
                SnapshotError::Malformed(format!("unknown engine tag `{tag}`"))
            })?),
        };
        self.regs.clone_from(&snap.regs);
        self.sig_val.clone_from(&snap.sig_val);
        self.sig_preval.clone_from(&snap.sig_preval);
        self.vars = snap.vars.iter().cloned().collect();
        self.counters.clone_from(&snap.counters);
        self.last_present.clone_from(&snap.last_present);
        self.terminated = snap.terminated;
        self.seq = snap.seq;
        self.next_instance = snap.next_instance;
        self.log.clone_from(&snap.log);
        self.poisoned = snap.poisoned;
        for (rt, s) in self.asyncs.iter_mut().zip(&snap.asyncs) {
            rt.active = s.active;
            rt.instance = s.instance;
            *rt.state.borrow_mut() = s.state.clone();
            rt.notified = s.notified.clone();
        }
        self.chaos = snap.chaos.as_ref().map(|c| Chaos {
            rng: Rng::from_parts(c.state, c.inc),
            rate: c.rate,
        });
        self.staged_inputs.clear();
        self.staged_notifies.clear();
        while self.mailbox.pop().is_some() {}
        self.sparse.valid = false;
        Ok(())
    }

    /// A host-side [`AsyncHandle`] for async statement instance
    /// `async_index`, bound to its *current* instance number and shared
    /// state cell — what a spawn hook would have received. The
    /// supervisor uses this to re-wire adopted activities after a
    /// migration or recovery restore.
    pub fn async_handle(&self, async_index: usize) -> Option<AsyncHandle> {
        let rt = self.asyncs.get(async_index)?;
        Some(AsyncHandle::new(
            self.mailbox.clone(),
            async_index as u32,
            rt.instance,
            rt.state.clone(),
        ))
    }

    fn react_core(&mut self) -> Result<Reaction, RuntimeError> {
        let circuit = self.circuit.clone();
        let program = self.program.clone();
        let engine = self.engine();

        // Telemetry: time the reaction only when someone is listening.
        let t0 = if self.sinks.is_empty() {
            None
        } else {
            self.emit_trace(TraceEvent::ReactionStart { seq: self.seq });
            Some(Instant::now())
        };
        self.actions_run = 0;
        self.queue_hwm = 0;
        self.events = 0;
        let n = circuit.nets().len();

        let mut sparse_rebuild = false;
        if engine == EngineMode::Sparse {
            sparse_rebuild = self.sparse_react(&circuit, &program)?;
        } else {
        // Any non-sparse instant invalidates the sparse baseline — the
        // shared `value` plane is about to be overwritten wholesale.
        self.sparse.valid = false;

        // Previous-instant values snapshot.
        self.sig_preval.clone_from(&self.sig_val);

        // Scratch reset. The levelized sweep needs no ⊥-bookkeeping: no
        // queue, no undetermined-fanin or pending-dependency counters.
        self.value[..n].fill(-1);
        if engine != EngineMode::Levelized {
            self.resolved[..n].fill(false);
            self.armed[..n].fill(false);
            self.queue.clear();
            for (i, net) in circuit.nets().iter().enumerate() {
                self.undet[i] = net.fanins.len() as u32;
                self.deps_left[i] = net.deps.len() as u32;
            }
        }

        // Per-reaction emission counters (for combine checking) live in
        // last_present's shadow: use a local vector.
        let mut emit_count = vec![0u32; circuit.signals().len()];

        // Apply staged input values.
        let staged = std::mem::take(&mut self.staged_inputs);
        let mut input_present = vec![false; n];
        for (sig, val) in &staged {
            let info = circuit.signal(*sig);
            if let Some(inet) = info.input_net {
                input_present[inet.index()] = true;
            }
            if let Some(v) = val {
                self.sig_val[sig.index()] = v.clone();
                emit_count[sig.index()] = 1;
            }
        }
        let notifies = std::mem::take(&mut self.staged_notifies);
        for (aid, v) in notifies {
            let rt = &mut self.asyncs[aid.index()];
            rt.notified = Some(v);
            input_present[circuit.asyncs()[aid.index()].notify_net.index()] = true;
        }

        if engine == EngineMode::Levelized {
            // One dense sweep in topological level order; every net is
            // determined by construction, so no constructive check.
            self.levelized_fixpoint(&circuit, &program, &input_present, &mut emit_count)?;
        } else if engine == EngineMode::Hybrid {
            // Dense sweeps over acyclic regions in condensation order;
            // each nontrivial SCC iterates locally to its constructive
            // fixpoint (with a per-SCC causality check).
            self.hybrid_fixpoint(&circuit, &program, &input_present, &mut emit_count)?;
        } else {
            // Determine sources.
            for (i, net) in circuit.nets().iter().enumerate() {
                let v = match net.kind {
                    NetKind::Const(c) => c,
                    NetKind::Input => input_present[i],
                    NetKind::RegOut(r) => self.regs[r.index()],
                    _ => continue,
                };
                self.value[i] = v as i8;
                self.resolved[i] = true;
                self.queue.push_back(Ev::Det(i as u32));
                self.queue.push_back(Ev::Res(i as u32));
            }
            // Gates with no fanins are their neutral constant (an empty OR is
            // 0, an empty AND is 1); they receive no feed, so settle them now.
            for (i, net) in circuit.nets().iter().enumerate() {
                if net.fanins.is_empty() && matches!(net.kind, NetKind::Or | NetKind::And) {
                    let neutral = matches!(net.kind, NetKind::And);
                    self.gate_value(&circuit, i as u32, neutral, &mut emit_count)?;
                }
            }

            // Propagate to fixpoint.
            if engine == EngineMode::Naive {
                self.queue.clear();
                self.naive_fixpoint(&circuit, &mut emit_count)?;
            }
            while let Some(ev) = self.queue.pop_front() {
                self.events += 1;
                // +1 counts the event just popped.
                self.queue_hwm = self.queue_hwm.max(self.queue.len() + 1);
                match ev {
                    Ev::Det(i) => {
                        let v = self.value[i as usize] == 1;
                        if self.fine_events {
                            self.emit_trace(TraceEvent::NetStabilized {
                                net: i,
                                label: circuit.nets()[i as usize].label,
                                value: v,
                            });
                        }
                        // Fanouts are (target, edge-polarity).
                        for k in 0..circuit.fanouts(NetId(i)).len() {
                            let (j, neg) = circuit.fanouts(NetId(i))[k];
                            self.feed(&circuit, j.0, v ^ neg, &mut emit_count)?;
                        }
                    }
                    Ev::Res(i) => {
                        for k in 0..circuit.dep_fanouts(NetId(i)).len() {
                            let d = circuit.dep_fanouts(NetId(i))[k].0;
                            self.deps_left[d as usize] -= 1;
                            if self.deps_left[d as usize] == 0
                                && self.armed[d as usize]
                                && !self.resolved[d as usize]
                            {
                                self.fire(&circuit, d, &mut emit_count)?;
                            }
                        }
                    }
                }
            }

            // Constructive check: everything must be determined and resolved.
            let stuck: Vec<bool> = (0..n)
                .map(|i| self.value[i] < 0 || !self.resolved[i])
                .collect();
            let undetermined = stuck.iter().filter(|&&b| b).count();
            if undetermined > 0 {
                let report = analyze(&circuit, &stuck, undetermined, self.seq);
                if !self.sinks.is_empty() {
                    self.emit_trace(TraceEvent::CausalityFailure { report: &report });
                }
                return Err(RuntimeError::Causality {
                    cycle: report.nets.clone(),
                    undetermined,
                    report,
                });
            }
        }

        if self.level_activity.is_some() {
            self.tally_level_activity(&program, engine);
        }
        } // end non-sparse branch

        // Commit registers, presence and termination. The sparse engine
        // goes through its deferred change records — a mid-sweep error
        // must never have published register state (registers are
        // excluded from the rollback snapshot).
        if engine == EngineMode::Sparse {
            self.sparse_commit(&circuit, sparse_rebuild);
        } else {
            for (r, reg) in circuit.registers().iter().enumerate() {
                self.regs[r] = self.value[reg.input.index()] == 1;
            }
            for (s, info) in circuit.signals().iter().enumerate() {
                self.last_present[s] = self.value[info.status_net.index()] == 1;
            }
            if let Some(t) = circuit.terminated_net() {
                if self.value[t.index()] == 1 {
                    self.terminated = true;
                }
            }
        }

        let outputs = program
            .out_signals
            .iter()
            .map(|(i, name)| OutputEvent {
                name: name.clone(),
                present: self.last_present[*i as usize],
                value: self.sig_val[*i as usize].clone(),
            })
            .collect();
        let reaction = Reaction {
            seq: self.seq,
            outputs,
            terminated: self.terminated,
            events: self.events,
        };
        self.seq += 1;
        if let Some(t) = t0 {
            self.emit_trace(TraceEvent::ReactionEnd {
                reaction: &reaction,
                stats: ReactionStats {
                    duration_ns: t.elapsed().as_nanos() as u64,
                    events: self.events,
                    actions: self.actions_run,
                    queue_hwm: self.queue_hwm,
                    engine,
                },
            });
        }
        if let Some(t) = &mut self.trace {
            t.push(reaction.clone());
        }
        let listeners = self.listeners.clone();
        for l in listeners {
            l(&reaction);
        }
        Ok(reaction)
    }

    /// Processes every queued mailbox operation, running one reaction per
    /// operation (notifications, `react` requests from async bodies).
    ///
    /// # Errors
    ///
    /// Stops at the first failing reaction.
    pub fn drain(&mut self) -> Result<Vec<Reaction>, RuntimeError> {
        let mut out = Vec::new();
        while let Some(op) = self.mailbox.pop() {
            match op {
                MachineOp::Notify {
                    async_id,
                    instance,
                    value,
                } => {
                    let idx = async_id as usize;
                    if idx < self.asyncs.len()
                        && self.asyncs[idx].active
                        && self.asyncs[idx].instance == instance
                    {
                        self.staged_notifies.push((AsyncId(async_id), value));
                        out.push(self.react()?);
                    }
                    // Stale notification: automatically discarded — this is
                    // the paper's "pending authentications are automatically
                    // discarded" (§2.2.4).
                }
                MachineOp::React(inputs) => {
                    for (name, v) in inputs {
                        self.set_input(&name, Some(v))?;
                    }
                    out.push(self.react()?);
                }
            }
        }
        Ok(out)
    }

    /// Restarts the machine: control state, signal values, variables,
    /// counters and the log return to their initial configuration; the
    /// mailbox, listeners and reaction counter are kept.
    pub fn reset(&mut self) -> &mut Self {
        let circuit = self.circuit.clone();
        self.regs = circuit.registers().iter().map(|r| r.init).collect();
        self.sig_val = circuit
            .signals()
            .iter()
            .map(|s| s.init.clone().unwrap_or(Value::Null))
            .collect();
        self.sig_preval = self.sig_val.clone();
        self.vars.clear();
        self.counters.fill(0.0);
        for rt in &mut self.asyncs {
            rt.active = false;
            rt.notified = None;
        }
        self.log.clear();
        self.terminated = false;
        self.poisoned = false;
        self.last_present.fill(false);
        self.staged_inputs.clear();
        self.staged_notifies.clear();
        self.sparse.valid = false;
        self
    }

    /// Lists the currently selected control points: the labels and source
    /// locations of every register that is set (pauses, halts, async
    /// waits, signal `pre` state excluded). This is the "explicit control
    /// state defined by the concurrent positions in the code where the
    /// control has stopped" that §2.3 contrasts with JavaScript's hidden
    /// state variables — made inspectable.
    pub fn selected(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, reg) in self.circuit.registers().iter().enumerate() {
            if !self.regs[i] || reg.label == "sig.pre" || reg.label == "boot" {
                continue;
            }
            let net = self.circuit.net(reg.output);
            let loc = net.loc.to_string();
            if loc == "<builder>" {
                out.push(reg.label.to_owned());
            } else {
                out.push(format!("{} at {}", reg.label, loc));
            }
        }
        out
    }

    /// Iterates over the interface signals: (name, direction,
    /// present-at-last-reaction, current value).
    pub fn signals(
        &self,
    ) -> impl Iterator<Item = (String, hiphop_core::signal::Direction, bool, Value)> + '_ {
        self.circuit
            .clone()
            .signals()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.direction != hiphop_core::signal::Direction::Local)
            .map(|(i, s)| {
                (
                    s.name.clone(),
                    s.direction,
                    self.last_present[i],
                    self.sig_val[i].clone(),
                )
            })
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// Dynamic reconfiguration (paper §6: "HipHop.js is dynamic at
    /// source-code level: it allows the user to partially reconfigure the
    /// program between two synchronous reactions"): replaces the program
    /// with a newly compiled circuit between reactions.
    ///
    /// Persistent signal *values* are carried over by (interface) name, as
    /// are machine variables and the log; the new program's control state
    /// starts at its boot instant (control-state transplantation across
    /// arbitrary edits is documented future work, DESIGN.md §7).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnfinalizedCircuit`] if the new circuit is not
    /// finalized; the running machine is left untouched.
    pub fn hot_swap(&mut self, circuit: Circuit) -> Result<&mut Self, RuntimeError> {
        let mut fresh = Machine::new(circuit)?;
        for (i, info) in fresh.circuit.clone().signals().iter().enumerate() {
            if let Some(old) = self.circuit.signal_by_name(&info.name) {
                fresh.sig_val[i] = self.sig_val[old.index()].clone();
                fresh.sig_preval[i] = self.sig_preval[old.index()].clone();
            }
        }
        fresh.vars = std::mem::take(&mut self.vars);
        fresh.log = std::mem::take(&mut self.log);
        fresh.mailbox = self.mailbox.clone();
        fresh.next_instance = self.next_instance;
        fresh.seq = self.seq;
        fresh.listeners = std::mem::take(&mut self.listeners);
        // The sink *set* moves wholesale, so handles from
        // `Machine::sink_handle` stay live across the swap.
        fresh.sinks = std::mem::take(&mut self.sinks);
        fresh.fine_events = self.fine_events;
        fresh.metrics = self.metrics.take();
        // Carry the engine *request*, not the old resolution: the new
        // circuit's program has its own level schedule (or none, when
        // the circuit is cyclic), so the effective engine is re-resolved
        // against it rather than reusing a stale schedule.
        fresh.requested = self.requested;
        fresh.rollback = self.rollback;
        fresh.chaos = self.chaos.take();
        // Keep activity accounting armed; accumulated per-level counts
        // carry over (levels re-bucket against the new schedule).
        fresh.level_activity = self.level_activity.take();
        *self = fresh;
        Ok(self)
    }

    // ------------------------------------------------------------------
    // Engine internals.

    /// Levelized engine: one dense sweep over the precomputed
    /// topological schedule. Every fanin and data dependency of a net
    /// sits at a strictly lower level, so each net is computed exactly
    /// once and actions fire in level order at their net's stabilization
    /// point — no queue, no ⊥-bookkeeping, no causality check.
    fn levelized_fixpoint(
        &mut self,
        circuit: &Circuit,
        program: &Program,
        input_present: &[bool],
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let sched = program
            .schedule
            .as_deref()
            .expect("levelized engine without a schedule");
        // The packed states live outside `self` during the sweep so the
        // fold can read them while actions borrow `self` mutably.
        let mut state = std::mem::take(&mut self.lv_state);
        state.reset(circuit.nets().len());
        let end = sched.order.len();
        let result = self.sweep_range(circuit, sched, &mut state, input_present, emit_count, 0..end);
        self.lv_state = state;
        result
    }

    /// Hybrid engine: walks the SCC condensation's topological order,
    /// sweeping dense (acyclic) runs exactly like the levelized engine
    /// and iterating each nontrivial SCC to its local constructive
    /// fixpoint. Acyclic work stays O(nets); only cycles pay for
    /// ⊥-iteration.
    fn hybrid_fixpoint(
        &mut self,
        circuit: &Circuit,
        program: &Program,
        input_present: &[bool],
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let hybrid = &program.hybrid;
        let mut state = std::mem::take(&mut self.lv_state);
        state.reset(circuit.nets().len());
        let armed = self.level_activity.is_some();
        if armed {
            self.la_block_evals.clear();
            self.la_block_evals.resize(hybrid.blocks.len(), 0);
        }
        let mut result = Ok(());
        for (bi, block) in hybrid.blocks.iter().enumerate() {
            let events_before = self.events;
            result = match *block {
                Block::Dense { start, end } => self.sweep_range(
                    circuit,
                    &hybrid.sched,
                    &mut state,
                    input_present,
                    emit_count,
                    start as usize..end as usize,
                ),
                Block::Cyclic { start, end } => self.iterate_scc(
                    circuit,
                    &hybrid.sched,
                    &mut state,
                    input_present,
                    emit_count,
                    start as usize..end as usize,
                ),
            };
            if armed {
                // Honest per-block accounting: a dense block costs its
                // span, a cyclic block its measured iteration work.
                self.la_block_evals[bi] = (self.events - events_before) as u64;
            }
            if result.is_err() {
                break;
            }
        }
        self.lv_state = state;
        result
    }

    /// Iterates one strongly connected component (positions `range` of
    /// the hybrid order) with the naive sweep rules until its local
    /// fixpoint, then publishes the members into the packed states for
    /// downstream dense sweeps. A member left ⊥ (or unresolved) is a
    /// constructive deadlock: reported exactly like the FIFO engine's
    /// end-of-reaction causality check, but scoped to this SCC.
    fn iterate_scc(
        &mut self,
        circuit: &Circuit,
        sched: &LevelSchedule,
        state: &mut PackedStates,
        input_present: &[bool],
        emit_count: &mut [u32],
        range: std::ops::Range<usize>,
    ) -> Result<(), RuntimeError> {
        let members = &sched.order[range];
        // Sources cannot sit on a combinational cycle, but dep-edge-only
        // SCCs may contain them; seed them like the FIFO engine does.
        for &id in members {
            let i = id as usize;
            if self.program.class[i] == Class::Source {
                let v = match circuit.nets()[i].kind {
                    NetKind::Const(c) => c,
                    NetKind::Input => input_present[i],
                    NetKind::RegOut(r) => self.regs[r.index()],
                    _ => unreachable!("source net with gate kind"),
                };
                self.value[i] = v as i8;
                self.resolved[i] = true;
            }
        }
        loop {
            let mut changed = false;
            for &id in members {
                changed |= self.step_net(circuit, id as usize, emit_count)?;
            }
            if !changed {
                break;
            }
        }
        let mut stuck_members = Vec::new();
        for &id in members {
            let i = id as usize;
            if self.value[i] < 0 || !self.resolved[i] {
                stuck_members.push(i);
            } else {
                state.set(i, self.value[i] == 1);
            }
        }
        if !stuck_members.is_empty() {
            let mut stuck = vec![false; circuit.nets().len()];
            for &i in &stuck_members {
                stuck[i] = true;
            }
            let report = analyze(circuit, &stuck, stuck_members.len(), self.seq);
            if !self.sinks.is_empty() {
                self.emit_trace(TraceEvent::CausalityFailure { report: &report });
            }
            return Err(RuntimeError::Causality {
                cycle: report.nets.clone(),
                undetermined: stuck_members.len(),
                report,
            });
        }
        Ok(())
    }

    /// One dense pass over positions `range` of `sched.order`: each net
    /// is computed exactly once (all fanins and dependencies stabilized
    /// earlier in the order) and additionally marked resolved so cyclic
    /// blocks downstream see it as a settled dependency.
    fn sweep_range(
        &mut self,
        circuit: &Circuit,
        sched: &LevelSchedule,
        state: &mut PackedStates,
        input_present: &[bool],
        emit_count: &mut [u32],
        range: std::ops::Range<usize>,
    ) -> Result<(), RuntimeError> {
        // Folds a gate's fanins with an early exit on the controlling
        // value (OR: any 1 → 1; AND: any 0 → 0).
        #[inline]
        fn fold(sched: &LevelSchedule, state: &PackedStates, i: usize, controlling: bool) -> bool {
            for &edge in sched.fanins(i) {
                let v = state.get((edge >> 1) as usize) ^ (edge & 1 == 1);
                if v == controlling {
                    return controlling;
                }
            }
            !controlling
        }

        let nets = &sched.order[range];
        for &id in nets {
            let i = id as usize;
            let v = match sched.code[i] {
                CODE_CONST0 => false,
                CODE_CONST1 => true,
                CODE_INPUT => input_present[i],
                CODE_REG => self.regs[sched.aux[i] as usize],
                CODE_OR => fold(sched, state, i, true),
                CODE_AND => fold(sched, state, i, false),
                CODE_TEST => {
                    // Exactly one control fanin; a 0 control skips the
                    // test evaluation (and its counter side effects),
                    // matching the constructive engine.
                    let edge = sched.fanins(i)[0];
                    let control = state.get((edge >> 1) as usize) ^ (edge & 1 == 1);
                    control && self.eval_test(circuit, id)
                }
                code @ (CODE_OR_EARLY | CODE_AND_EARLY) => {
                    let v = fold(sched, state, i, code == CODE_OR_EARLY);
                    if v {
                        self.run_action(circuit, id, emit_count)?;
                    }
                    v
                }
                code @ (CODE_OR_LATE | CODE_AND_LATE) => {
                    let gate = fold(sched, state, i, code == CODE_OR_LATE);
                    if gate {
                        self.run_action(circuit, id, emit_count)?;
                    }
                    gate
                }
                code => unreachable!("bad opcode {code}"),
            };
            state.set(i, v);
            self.value[i] = v as i8;
            self.resolved[i] = true;
            if self.fine_events {
                self.emit_trace(TraceEvent::NetStabilized {
                    net: id,
                    label: circuit.nets()[i].label,
                    value: v,
                });
            }
        }
        self.events += nets.len();
        Ok(())
    }

    /// Sparse-engine reaction body: syncs the incremental pre-value and
    /// emission-counter planes, stages presence into the persistent
    /// input set, seeds and runs the dirty sweep (or one full rebuild
    /// sweep when the baseline is invalid), and leaves deferred commit
    /// records for [`Machine::sparse_commit`]. Returns whether this
    /// instant rebuilt the baseline.
    fn sparse_react(&mut self, circuit: &Circuit, program: &Program) -> Result<bool, RuntimeError> {
        let sched = program
            .schedule
            .as_deref()
            .expect("sparse engine without a schedule");
        let tables = program.sparse(circuit);
        self.sparse.ensure_built(circuit, tables);
        let rebuild = !self.sparse.valid;
        // Pessimistic: stays false until this instant commits, so any
        // error path (rollback restores the signal planes, but `value`
        // is left mid-sweep) forces a full rebuild.
        self.sparse.valid = false;
        self.sparse.commit_regs.clear();
        self.sparse.commit_sigs.clear();
        self.sparse.term_dirty = false;

        let armed = self.level_activity.is_some();
        if armed {
            self.sparse.level_evals.resize(sched.levels, 0);
            self.sparse.level_evals.fill(0);
            self.sparse.level_changed.resize(sched.levels, 0);
            self.sparse.level_changed.fill(0);
            let n = circuit.nets().len();
            if self.prev_value.len() != n {
                self.prev_value = vec![-1; n];
            }
        }

        if rebuild {
            // Dense-equivalent prologue: full pre-value sync, zeroed
            // emission counters, cleared presence/hot/dirty bookkeeping.
            self.sig_preval.clone_from(&self.sig_val);
            self.sparse.emit_count.fill(0);
            self.sparse.touched.clear();
            self.sparse.in_present.fill(false);
            self.sparse.present_nets.clear();
            self.sparse.prev_present.clear();
            self.sparse.pending_reg_nets.clear();
            self.sparse.hot.clear();
            self.sparse.in_hot.fill(false);
            self.sparse.dirty.fill(false);
            for list in &mut self.sparse.level_lists {
                list.clear();
            }
        } else {
            // Incremental pre-value sync: only signals written last
            // instant can differ, and a value plane that did change
            // additionally wakes its `nowval`/`preval` subscribers.
            let mut touched = std::mem::take(&mut self.sparse.touched);
            for &s in &touched {
                let si = s as usize;
                if self.sig_val[si] != self.sig_preval[si] {
                    for &sub in tables.sig_subs(si) {
                        self.sparse.mark_dirty(tables, sub);
                    }
                    self.sig_preval[si] = self.sig_val[si].clone();
                }
                self.sparse.emit_count[si] = 0;
            }
            touched.clear();
            self.sparse.touched = touched;
        }

        // Stage presence into the persistent input set; the previous
        // instant's set is parked in `prev_present` for delta seeding.
        debug_assert!(self.sparse.prev_present.is_empty());
        std::mem::swap(&mut self.sparse.present_nets, &mut self.sparse.prev_present);
        for k in 0..self.sparse.prev_present.len() {
            let i = self.sparse.prev_present[k] as usize;
            self.sparse.in_present[i] = false;
        }
        let staged = std::mem::take(&mut self.staged_inputs);
        let mut emit_count = std::mem::take(&mut self.sparse.emit_count);
        for (sig, val) in &staged {
            let info = circuit.signal(*sig);
            if let Some(inet) = info.input_net {
                if !self.sparse.in_present[inet.index()] {
                    self.sparse.in_present[inet.index()] = true;
                    self.sparse.present_nets.push(inet.0);
                }
            }
            if let Some(v) = val {
                let si = sig.index();
                self.sig_val[si] = v.clone();
                emit_count[si] = 1;
                self.sparse.touched.push(si as u32);
                if !rebuild {
                    // The value plane changed outside any net: wake the
                    // subscribed readers.
                    for &sub in tables.sig_subs(si) {
                        self.sparse.mark_dirty(tables, sub);
                    }
                }
            }
        }
        let notifies = std::mem::take(&mut self.staged_notifies);
        for (aid, v) in notifies {
            let rt = &mut self.asyncs[aid.index()];
            rt.notified = Some(v);
            let nn = circuit.asyncs()[aid.index()].notify_net;
            if !self.sparse.in_present[nn.index()] {
                self.sparse.in_present[nn.index()] = true;
                self.sparse.present_nets.push(nn.0);
            }
        }

        self.sparse.tracking = true;
        let result = if rebuild {
            self.sparse_rebuild_sweep(circuit, sched, tables, &mut emit_count, armed)
        } else {
            self.sparse_incremental_sweep(circuit, sched, tables, &mut emit_count, armed)
        };
        self.sparse.tracking = false;
        self.sparse.emit_count = emit_count;
        self.sparse.prev_present.clear();
        result?;
        Ok(rebuild)
    }

    /// Full level-order sweep through the sparse evaluator: identical
    /// semantics to the dense levelized sweep, additionally rebuilding
    /// the presence/hot bookkeeping the incremental instants rely on.
    fn sparse_rebuild_sweep(
        &mut self,
        circuit: &Circuit,
        sched: &LevelSchedule,
        tables: &SparseTables,
        emit_count: &mut [u32],
        armed: bool,
    ) -> Result<(), RuntimeError> {
        for pos in 0..sched.order.len() {
            let id = sched.order[pos];
            let i = id as usize;
            let v = self.sparse_eval_net(circuit, sched, tables, id, emit_count)?;
            let nv = v as i8;
            self.value[i] = nv;
            if armed {
                let l = tables.level_of[i] as usize;
                self.sparse.level_evals[l] += 1;
                if self.prev_value[i] != nv {
                    self.sparse.level_changed[l] += 1;
                }
                self.prev_value[i] = nv;
            }
        }
        self.events += sched.order.len();
        Ok(())
    }

    /// The incremental sweep: seeds the per-level worklists from changed
    /// inputs, flipped registers and the standing hot set, then
    /// propagates value changes through the circuit's CSR fanout tables
    /// in level order. Untouched levels are skipped entirely; a skipped
    /// net's baseline value is exactly what the dense sweep would
    /// recompute (fanins sit at strictly lower levels).
    fn sparse_incremental_sweep(
        &mut self,
        circuit: &Circuit,
        sched: &LevelSchedule,
        tables: &SparseTables,
        emit_count: &mut [u32],
        armed: bool,
    ) -> Result<(), RuntimeError> {
        // Seed: presence edges — both instants' staged sets, kept where
        // the new presence differs from the baseline value.
        for k in 0..self.sparse.prev_present.len() {
            let id = self.sparse.prev_present[k];
            if (self.sparse.in_present[id as usize] as i8) != self.value[id as usize] {
                self.sparse.mark_dirty(tables, id);
            }
        }
        for k in 0..self.sparse.present_nets.len() {
            let id = self.sparse.present_nets[k];
            if (self.sparse.in_present[id as usize] as i8) != self.value[id as usize] {
                self.sparse.mark_dirty(tables, id);
            }
        }
        // Seed: registers rewritten by the previous commit.
        for k in 0..self.sparse.pending_reg_nets.len() {
            let id = self.sparse.pending_reg_nets[k];
            self.sparse.mark_dirty(tables, id);
        }
        self.sparse.pending_reg_nets.clear();
        // Seed: the standing hot set (compacting lazily removed nets).
        let mut hot = std::mem::take(&mut self.sparse.hot);
        hot.retain(|&id| {
            if self.sparse.in_hot[id as usize] {
                self.sparse.mark_dirty(tables, id);
                true
            } else {
                false
            }
        });
        self.sparse.hot = hot;

        // Propagate level by level; untouched levels are skipped whole.
        for l in 0..self.sparse.level_lists.len() {
            if self.sparse.level_lists[l].is_empty() {
                continue;
            }
            let mut list = std::mem::take(&mut self.sparse.level_lists[l]);
            // Within a level the dense sweep runs ascending net id;
            // actions must fire in exactly that order.
            list.sort_unstable();
            for &id in &list {
                let i = id as usize;
                self.sparse.dirty[i] = false;
                let v = self.sparse_eval_net(circuit, sched, tables, id, emit_count)?;
                self.events += 1;
                let nv = v as i8;
                if armed {
                    self.sparse.level_evals[l] += 1;
                    if self.prev_value[i] != nv {
                        self.sparse.level_changed[l] += 1;
                    }
                    self.prev_value[i] = nv;
                }
                if self.value[i] != nv {
                    self.value[i] = nv;
                    // Changed: wake value fanouts, dependency fanouts
                    // (expression readers) and pre-net subscribers —
                    // all at strictly higher levels.
                    for &(t, _) in circuit.fanouts(NetId(id)) {
                        self.sparse.mark_dirty(tables, t.0);
                    }
                    for &d in circuit.dep_fanouts(NetId(id)) {
                        self.sparse.mark_dirty(tables, d.0);
                    }
                    for &sub in tables.net_subs(i) {
                        self.sparse.mark_dirty(tables, sub);
                    }
                    // Deferred commit records.
                    self.sparse.commit_regs.extend_from_slice(tables.regs_by_input(i));
                    self.sparse.commit_sigs.extend_from_slice(tables.sigs_by_status(i));
                    if tables.terminated_net == Some(id) {
                        self.sparse.term_dirty = true;
                    }
                }
            }
            list.clear();
            self.sparse.level_lists[l] = list;
        }
        Ok(())
    }

    /// Evaluates one net under the sparse engine — the same opcode rules
    /// as the dense sweep, reading fanins from the live `value` plane
    /// (evaluated this instant or valid baseline), and maintaining the
    /// hot-set membership of side-effectful nets.
    fn sparse_eval_net(
        &mut self,
        circuit: &Circuit,
        sched: &LevelSchedule,
        tables: &SparseTables,
        id: u32,
        emit_count: &mut [u32],
    ) -> Result<bool, RuntimeError> {
        let i = id as usize;
        let v = match sched.code[i] {
            CODE_CONST0 => false,
            CODE_CONST1 => true,
            CODE_INPUT => self.sparse.in_present[i],
            CODE_REG => self.regs[sched.aux[i] as usize],
            CODE_OR => self.sparse_fold(sched, i, true),
            CODE_AND => self.sparse_fold(sched, i, false),
            CODE_TEST => {
                // Exactly one control fanin; a 0 control skips the test
                // evaluation (and its counter side effects), matching
                // the dense sweep.
                let edge = sched.fanins(i)[0];
                let control = (self.value[(edge >> 1) as usize] == 1) ^ (edge & 1 == 1);
                if tables.needs_hot[i] {
                    self.sparse.set_hot(id, control);
                }
                control && self.eval_test(circuit, id)
            }
            code @ (CODE_OR_EARLY | CODE_AND_EARLY) => {
                let v = self.sparse_fold(sched, i, code == CODE_OR_EARLY);
                if tables.needs_hot[i] {
                    self.sparse.set_hot(id, v);
                }
                if v {
                    self.run_action(circuit, id, emit_count)?;
                }
                v
            }
            code @ (CODE_OR_LATE | CODE_AND_LATE) => {
                let gate = self.sparse_fold(sched, i, code == CODE_OR_LATE);
                if tables.needs_hot[i] {
                    self.sparse.set_hot(id, gate);
                }
                if gate {
                    self.run_action(circuit, id, emit_count)?;
                }
                gate
            }
            code => unreachable!("bad opcode {code}"),
        };
        if self.fine_events {
            self.emit_trace(TraceEvent::NetStabilized {
                net: id,
                label: circuit.nets()[i].label,
                value: v,
            });
        }
        Ok(v)
    }

    /// Folds a gate's fanins over the live `value` plane with an early
    /// exit on the controlling value (OR: any 1 → 1; AND: any 0 → 0).
    #[inline]
    fn sparse_fold(&self, sched: &LevelSchedule, i: usize, controlling: bool) -> bool {
        for &edge in sched.fanins(i) {
            let v = (self.value[(edge >> 1) as usize] == 1) ^ (edge & 1 == 1);
            if v == controlling {
                return controlling;
            }
        }
        !controlling
    }

    /// Publishes the deferred commit records of a successful sparse
    /// instant: registers (queueing flipped ones for next-instant
    /// seeding), presence, termination, per-level activity, and finally
    /// the baseline validity flag.
    fn sparse_commit(&mut self, circuit: &Circuit, rebuild: bool) {
        if rebuild {
            for (r, reg) in circuit.registers().iter().enumerate() {
                let new = self.value[reg.input.index()] == 1;
                if self.regs[r] != new {
                    self.regs[r] = new;
                    self.sparse.pending_reg_nets.push(reg.output.0);
                }
            }
            for (s, info) in circuit.signals().iter().enumerate() {
                self.last_present[s] = self.value[info.status_net.index()] == 1;
            }
            if let Some(t) = circuit.terminated_net() {
                if self.value[t.index()] == 1 {
                    self.terminated = true;
                }
            }
        } else {
            let mut commit_regs = std::mem::take(&mut self.sparse.commit_regs);
            for &r in &commit_regs {
                let ri = r as usize;
                let reg = &circuit.registers()[ri];
                let new = self.value[reg.input.index()] == 1;
                if self.regs[ri] != new {
                    self.regs[ri] = new;
                    self.sparse.pending_reg_nets.push(reg.output.0);
                }
            }
            commit_regs.clear();
            self.sparse.commit_regs = commit_regs;
            let mut commit_sigs = std::mem::take(&mut self.sparse.commit_sigs);
            for &s in &commit_sigs {
                let si = s as usize;
                self.last_present[si] =
                    self.value[circuit.signals()[si].status_net.index()] == 1;
            }
            commit_sigs.clear();
            self.sparse.commit_sigs = commit_sigs;
            if self.sparse.term_dirty {
                if let Some(t) = circuit.terminated_net() {
                    if self.value[t.index()] == 1 {
                        self.terminated = true;
                    }
                }
            }
        }
        self.sparse.valid = true;
        if let Some(la) = &mut self.level_activity {
            let levels = self.sparse.level_evals.len();
            if la.evals.len() < levels {
                la.evals.resize(levels, 0);
                la.changed.resize(levels, 0);
            }
            for l in 0..levels {
                la.evals[l] += self.sparse.level_evals[l];
                la.changed[l] += self.sparse.level_changed[l];
            }
        }
    }

    /// Reference engine: full sweeps until stable (see
    /// [`Machine::set_naive`]).
    fn naive_fixpoint(
        &mut self,
        circuit: &Circuit,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let n = circuit.nets().len();
        loop {
            let mut changed = false;
            for i in 0..n {
                changed |= self.step_net(circuit, i, emit_count)?;
            }
            if !changed {
                return Ok(());
            }
        }
    }

    /// One evaluation attempt of net `i` under the sweep engines' ternary
    /// rules; returns whether anything changed. Shared by the naive
    /// reference engine (full-circuit sweeps) and the hybrid engine's
    /// per-SCC iteration.
    fn step_net(
        &mut self,
        circuit: &Circuit,
        i: usize,
        emit_count: &mut [u32],
    ) -> Result<bool, RuntimeError> {
        self.events += 1;
        if self.resolved[i] {
            return Ok(false);
        }
        let net = &circuit.nets()[i];
        let deps_ok = net.deps.iter().all(|d| self.resolved[d.index()]);
        let mut changed = false;
        match self.program.class[i] {
            Class::Source => {}
            Class::Test => {
                let f = net.fanins[0];
                let c = self.value[f.net.index()];
                if c < 0 {
                    return Ok(false);
                }
                let control = (c == 1) ^ f.negated;
                if !control {
                    self.value[i] = 0;
                    self.resolved[i] = true;
                    changed = true;
                } else if deps_ok {
                    let v = self.eval_test(circuit, i as u32);
                    self.value[i] = v as i8;
                    self.resolved[i] = true;
                    changed = true;
                }
            }
            Class::Gate | Class::Early | Class::Late => {
                // Ternary gate evaluation.
                let controlling = self.program.is_or[i];
                let mut any_controlling = false;
                let mut all_known = true;
                for f in &net.fanins {
                    let v = self.value[f.net.index()];
                    if v < 0 {
                        all_known = false;
                    } else if ((v == 1) ^ f.negated) == controlling {
                        any_controlling = true;
                    }
                }
                let value = if any_controlling {
                    Some(controlling)
                } else if all_known {
                    Some(!controlling)
                } else {
                    None
                };
                let Some(v) = value else {
                    return Ok(false);
                };
                match self.program.class[i] {
                    Class::Gate => {
                        self.value[i] = v as i8;
                        self.resolved[i] = true;
                        changed = true;
                    }
                    Class::Early => {
                        if self.value[i] < 0 {
                            self.value[i] = v as i8;
                            changed = true;
                        }
                        if !v {
                            self.resolved[i] = true;
                        } else if deps_ok {
                            self.run_action(circuit, i as u32, emit_count)?;
                            self.resolved[i] = true;
                            changed = true;
                        }
                    }
                    Class::Late => {
                        if !v {
                            self.value[i] = 0;
                            self.resolved[i] = true;
                            changed = true;
                        } else if deps_ok {
                            self.run_action(circuit, i as u32, emit_count)?;
                            self.value[i] = 1;
                            self.resolved[i] = true;
                            changed = true;
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
        Ok(changed)
    }

    fn feed(
        &mut self,
        circuit: &Circuit,
        j: u32,
        v: bool,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let ji = j as usize;
        let class = self.program.class[ji];
        if self.value[ji] != -1 || (self.armed[ji] && class != Class::Early) {
            return Ok(());
        }
        match class {
            Class::Source => Ok(()),
            Class::Test => {
                if v {
                    self.arm(circuit, j, emit_count)
                } else {
                    self.value[ji] = 0;
                    self.queue.push_back(Ev::Det(j));
                    self.resolve(j);
                    Ok(())
                }
            }
            _ => {
                let controlling = self.program.is_or[ji];
                if v == controlling {
                    self.gate_value(circuit, j, controlling, emit_count)
                } else {
                    self.undet[ji] -= 1;
                    if self.undet[ji] == 0 {
                        self.gate_value(circuit, j, !controlling, emit_count)
                    } else {
                        Ok(())
                    }
                }
            }
        }
    }

    fn gate_value(
        &mut self,
        circuit: &Circuit,
        j: u32,
        v: bool,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let ji = j as usize;
        match self.program.class[ji] {
            Class::Gate => {
                self.value[ji] = v as i8;
                self.queue.push_back(Ev::Det(j));
                self.resolve(j);
                Ok(())
            }
            Class::Early => {
                self.value[ji] = v as i8;
                self.queue.push_back(Ev::Det(j));
                if v {
                    self.arm(circuit, j, emit_count)
                } else {
                    self.resolve(j);
                    Ok(())
                }
            }
            Class::Late => {
                if v {
                    self.arm(circuit, j, emit_count)
                } else {
                    self.value[ji] = 0;
                    self.queue.push_back(Ev::Det(j));
                    self.resolve(j);
                    Ok(())
                }
            }
            Class::Source | Class::Test => unreachable!("gate_value on non-gate"),
        }
    }

    fn arm(
        &mut self,
        circuit: &Circuit,
        j: u32,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        self.armed[j as usize] = true;
        if self.deps_left[j as usize] == 0 {
            self.fire(circuit, j, emit_count)
        } else {
            Ok(())
        }
    }

    fn fire(
        &mut self,
        circuit: &Circuit,
        j: u32,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let ji = j as usize;
        match self.program.class[ji] {
            Class::Test => {
                let v = self.eval_test(circuit, j);
                self.value[ji] = v as i8;
                self.queue.push_back(Ev::Det(j));
                self.resolve(j);
                Ok(())
            }
            Class::Early => {
                self.run_action(circuit, j, emit_count)?;
                self.resolve(j);
                Ok(())
            }
            Class::Late => {
                self.run_action(circuit, j, emit_count)?;
                self.value[ji] = 1;
                self.queue.push_back(Ev::Det(j));
                self.resolve(j);
                Ok(())
            }
            Class::Source | Class::Gate => unreachable!("fire on actionless net"),
        }
    }

    fn resolve(&mut self, j: u32) {
        self.resolved[j as usize] = true;
        self.queue.push_back(Ev::Res(j));
    }

    fn env<'a>(&'a self, circuit: &'a Circuit) -> EnvView<'a> {
        EnvView {
            circuit,
            values: &self.value,
            sig_val: &self.sig_val,
            sig_preval: &self.sig_preval,
            vars: &self.vars,
        }
    }

    pub(crate) fn eval_test(&mut self, circuit: &Circuit, j: u32) -> bool {
        let NetKind::Test(kind) = &circuit.nets()[j as usize].kind else {
            unreachable!("fire(Test) on non-test net");
        };
        match kind {
            TestKind::Expr(e) => e.eval(&self.env(circuit)).truthy(),
            TestKind::CounterElapsed { counter, cond } => {
                if cond.eval(&self.env(circuit)).truthy() {
                    let c = &mut self.counters[counter.index()];
                    *c -= 1.0;
                    *c <= 0.0
                } else {
                    false
                }
            }
        }
    }

    /// Runs a net's action with panic isolation: the dispatch — and with
    /// it every host surface (atoms, async hooks, combine functions,
    /// emitted-value evaluation) — executes under [`guarded`], so a host
    /// panic becomes a structured [`RuntimeError::HostPanic`] that
    /// triggers reaction rollback instead of unwinding through the
    /// engine. The armed chaos injector panics here too, taking exactly
    /// the path a real host bug would.
    pub(crate) fn run_action(
        &mut self,
        circuit: &Circuit,
        j: u32,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let result = guarded(|| {
            if let Some(chaos) = &mut self.chaos {
                if chaos.rng.gen_f64() < chaos.rate {
                    std::panic::panic_any(format!(
                        "chaos: injected host panic at action net#{j}"
                    ));
                }
            }
            self.run_action_inner(circuit, j, emit_count)
        });
        match result {
            Ok(r) => r,
            Err(payload) => {
                let source_loc = circuit.nets()[j as usize].loc.to_string();
                if !self.sinks.is_empty() {
                    self.emit_trace(TraceEvent::ActivityPanic {
                        name: &source_loc,
                        payload: &payload,
                    });
                }
                Err(RuntimeError::HostPanic {
                    source_loc,
                    payload,
                })
            }
        }
    }

    fn run_action_inner(
        &mut self,
        circuit: &Circuit,
        j: u32,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let aid = circuit.nets()[j as usize]
            .action
            .expect("fire() requires an action");
        self.actions_run += 1;
        let action = &circuit.actions()[aid.index()];
        if self.fine_events {
            let kind = match action {
                Action::Emit { .. } => "emit",
                Action::Atom(_) => "atom",
                Action::CounterReset { .. } => "counter-reset",
                Action::AsyncSpawn(_) => "async-spawn",
                Action::AsyncKill(_) => "async-kill",
                Action::AsyncSuspend(_) => "async-suspend",
                Action::AsyncResume(_) => "async-resume",
                Action::AsyncDone(_) => "async-done",
            };
            self.emit_trace(TraceEvent::ActionRun { net: j, kind });
        }
        match action {
            Action::Emit { signal, value } => {
                let v = value.as_ref().map(|e| e.eval(&self.env(circuit)));
                if let Some(v) = v {
                    self.emit_value(circuit, *signal, v, emit_count)?;
                }
                Ok(())
            }
            Action::Atom(body) => {
                match body {
                    AtomBody::Assign(var, e) => {
                        let v = e.eval(&self.env(circuit));
                        self.vars.insert(var.clone(), v);
                    }
                    AtomBody::Log(e) => {
                        let v = e.eval(&self.env(circuit));
                        self.record_log(v.to_display_string());
                    }
                    AtomBody::Host { f, .. } => {
                        let f = f.clone();
                        // Host atoms append to a scratch log so the sinks
                        // see each message too.
                        let mut scratch = Vec::new();
                        let mut view = AtomView {
                            circuit,
                            values: &self.value,
                            sig_val: &self.sig_val,
                            sig_preval: &self.sig_preval,
                            vars: &mut self.vars,
                            log: &mut scratch,
                        };
                        f(&mut view);
                        for message in scratch {
                            self.record_log(message);
                        }
                    }
                }
                Ok(())
            }
            Action::CounterReset { counter, value } => {
                let v = value.eval(&self.env(circuit)).as_num();
                self.counters[counter.index()] = v.floor();
                Ok(())
            }
            Action::AsyncSpawn(id) => {
                self.next_instance += 1;
                let instance = self.next_instance;
                {
                    let rt = &mut self.asyncs[id.index()];
                    rt.active = true;
                    rt.instance = instance;
                    rt.state = Rc::new(RefCell::new(Value::Null));
                    rt.notified = None;
                }
                self.emit_async_event(*id, instance, AsyncPhase::Spawn);
                self.call_hook(circuit, *id, HookKind::Spawn);
                Ok(())
            }
            Action::AsyncKill(id) => {
                if self.asyncs[id.index()].active {
                    let instance = self.asyncs[id.index()].instance;
                    self.emit_async_event(*id, instance, AsyncPhase::Kill);
                    self.call_hook(circuit, *id, HookKind::Kill);
                    self.asyncs[id.index()].active = false;
                }
                Ok(())
            }
            Action::AsyncSuspend(id) => {
                if self.asyncs[id.index()].active {
                    let instance = self.asyncs[id.index()].instance;
                    self.emit_async_event(*id, instance, AsyncPhase::Suspend);
                    self.call_hook(circuit, *id, HookKind::Suspend);
                }
                Ok(())
            }
            Action::AsyncResume(id) => {
                if self.asyncs[id.index()].active {
                    let instance = self.asyncs[id.index()].instance;
                    self.emit_async_event(*id, instance, AsyncPhase::Resume);
                    self.call_hook(circuit, *id, HookKind::Resume);
                }
                Ok(())
            }
            Action::AsyncDone(id) => {
                let v = self.asyncs[id.index()].notified.take().unwrap_or(Value::Null);
                let instance = self.asyncs[id.index()].instance;
                self.emit_async_event(*id, instance, AsyncPhase::Done);
                self.asyncs[id.index()].active = false;
                if let Some(sig) = circuit.asyncs()[id.index()].signal {
                    self.emit_value(circuit, sig, v, emit_count)?;
                }
                Ok(())
            }
        }
    }

    fn emit_async_event(&self, id: AsyncId, instance: u64, phase: AsyncPhase) {
        if !self.sinks.is_empty() {
            self.emit_trace(TraceEvent::AsyncLifecycle {
                async_id: id.index() as u32,
                instance,
                phase,
            });
        }
    }

    fn emit_value(
        &mut self,
        circuit: &Circuit,
        sig: SignalId,
        v: Value,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let si = sig.index();
        if emit_count[si] == 0 {
            self.sig_val[si] = v;
        } else {
            match &circuit.signal(sig).combine {
                Some(c) => {
                    let merged = c.apply(&self.sig_val[si], &v);
                    self.sig_val[si] = merged;
                }
                None => {
                    return Err(RuntimeError::MultipleEmit {
                        signal: circuit.signal(sig).name.clone(),
                    })
                }
            }
        }
        emit_count[si] += 1;
        if self.sparse.tracking {
            // Sparse sweep in flight: remember the write for the lazy
            // pre-value sync and wake `nowval`/`preval` readers.
            let tables = self.program.sparse(circuit);
            self.sparse.touched.push(si as u32);
            for &sub in tables.sig_subs(si) {
                self.sparse.mark_dirty(tables, sub);
            }
        }
        Ok(())
    }

    fn call_hook(&mut self, circuit: &Circuit, id: AsyncId, kind: HookKind) {
        let info = &circuit.asyncs()[id.index()];
        let hook = match kind {
            HookKind::Spawn => info.spec.on_spawn.clone(),
            HookKind::Kill => info.spec.on_kill.clone(),
            HookKind::Suspend => info.spec.on_suspend.clone(),
            HookKind::Resume => info.spec.on_resume.clone(),
        };
        let Some(hook) = hook else { return };
        let rt = &self.asyncs[id.index()];
        let handle = AsyncHandle::new(self.mailbox.clone(), id.0, rt.instance, rt.state.clone());
        let env = self.env(circuit);
        let mut ctx = AsyncCtx {
            handle,
            env: &env,
        };
        (hook.f)(&mut ctx);
    }
}

#[derive(Debug, Clone, Copy)]
enum HookKind {
    Spawn,
    Kill,
    Suspend,
    Resume,
}
