//! Bit-parallel cohort execution: one levelized sweep advances many
//! sessions of the same circuit in lockstep.
//!
//! The pool's hot loop (E10) runs N sessions of one compiled program,
//! each through its own scalar level sweep. The sweep is embarrassingly
//! data-parallel across sessions: a net's value is a pure boolean
//! function of fanin values that were computed earlier in topological
//! order. This module packs the per-session net states into a
//! structure-of-arrays layout — one *row* of `u64` lane words per net,
//! [`LANES_PER_WORD`] sessions per word, two bits per session (value bit
//! at `2s`, determined bit at `2s+1`, mirroring
//! [`crate::levelized::PackedStates`]' two-bit ternary encoding) — and
//! evaluates each pure gate for the whole cohort with branch-free
//! bitwise kernels derived from the existing [`LevelSchedule`] opcodes.
//!
//! Sessions *diverge* wherever per-session state enters the sweep: data
//! tests, emitted values, host atoms, counters, async hooks, chaos
//! draws. Those nets are executed per lane, in schedule order, against
//! the lane's own [`Machine`]: the net's dependency values are
//! *scattered* from the packed rows into the machine's scalar `value`
//! array (⊥ for undetermined nets, exactly what the scalar sweep would
//! show) and the existing `eval_test` / `run_action` paths run
//! unchanged — same trace events, same chaos stream, same rollback. A
//! lane whose action fails is *peeled*: its remaining effectful work is
//! skipped for the instant (the scalar engine aborts its sweep the same
//! way) and the machine rolls back alone; its lane-mates never notice.
//!
//! Because begin/commit mirror [`Machine::react`] bit for bit, a cohort
//! reaction is observationally identical to a scalar one:
//! [`Machine::state_digest`] — computed from the committed registers,
//! presence bits and values that the packed planes produced — matches
//! the scalar digest exactly, which the cohort differential battery
//! (`tests/cohort.rs`) proves across the Esterel conformance table.

use crate::error::RuntimeError;
use crate::levelized::{
    EngineMode, LevelSchedule, CODE_AND, CODE_AND_EARLY, CODE_AND_LATE, CODE_CONST0, CODE_CONST1,
    CODE_INPUT, CODE_OR, CODE_OR_EARLY, CODE_OR_LATE, CODE_REG, CODE_TEST,
};
use crate::machine::{Machine, OutputEvent, Reaction};
use crate::telemetry::{ReactionStats, TraceEvent};
use hiphop_circuit::{Action, Circuit, NetKind, TestKind};
use hiphop_core::expr::SigAccess;
use std::collections::HashMap;
use std::time::Instant;

/// Sessions per `u64` lane word: two bits per session (value + determined).
pub const LANES_PER_WORD: usize = 32;

/// Value bits of every lane in a word (bit `2s`).
const VAL_MASK: u64 = 0x5555_5555_5555_5555;
/// Determined bits of every lane in a word (bit `2s + 1`).
const DET_MASK: u64 = !VAL_MASK;

/// Lane-word granularity of the shared sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohortWidth {
    /// One `u64` word (32 sessions) at a time.
    U64,
    /// Rows padded to 4-word blocks; kernels process `[u64; 4]` chunks
    /// so the compiler can vectorize them (128 sessions per block).
    Wide,
}

impl std::str::FromStr for CohortWidth {
    type Err = String;
    fn from_str(s: &str) -> Result<CohortWidth, String> {
        match s {
            "u64" => Ok(CohortWidth::U64),
            "wide" => Ok(CohortWidth::Wide),
            other => Err(format!("unknown cohort width '{other}' (u64|wide)")),
        }
    }
}

/// Per-circuit execution recipe for the cohort sweep, built once per
/// program and memoized in it: for every effectful net (test, early or
/// late action), the exact set of nets whose packed values must be
/// scattered into the lane machine before its scalar evaluation runs.
///
/// The set is the net's declared dependency edges plus the `pre` nets of
/// every `S.pre` / `S.preval` read in its expressions — `pre` reads are
/// deliberately dep-edge-free in the compiler (they cannot create
/// causality cycles), but the scalar engines satisfy them from the
/// always-swept `value` array, so the cohort path must materialize them
/// explicitly. Async hook actions take opaque host closures that may
/// read any signal through their environment; their nets are flagged
/// for a full swept-prefix scatter instead.
#[derive(Debug)]
pub struct CohortPlan {
    /// Indexed by net id; empty for pure nets.
    scatter: Vec<Box<[u32]>>,
    /// Nets whose action runs an opaque async hook: scatter every net
    /// swept so far (the scalar engine's exact observable state).
    prefix: Vec<bool>,
}

pub(crate) fn build_plan(circuit: &Circuit, sched: &LevelSchedule) -> CohortPlan {
    let n = circuit.nets().len();
    let mut scatter: Vec<Box<[u32]>> = Vec::with_capacity(n);
    let mut prefix = vec![false; n];
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        if !matches!(
            sched.code[i],
            CODE_TEST | CODE_OR_EARLY | CODE_AND_EARLY | CODE_OR_LATE | CODE_AND_LATE
        ) {
            scatter.push(Box::new([]));
            continue;
        }
        let net = &circuit.nets()[i];
        let mut list: Vec<u32> = net.deps.iter().map(|d| d.index() as u32).collect();
        let mut reads: Vec<(String, SigAccess)> = Vec::new();
        if let NetKind::Test(kind) = &net.kind {
            match kind {
                TestKind::Expr(e) => reads.extend(e.signal_reads()),
                TestKind::CounterElapsed { cond, .. } => reads.extend(cond.signal_reads()),
            }
        }
        if let Some(a) = net.action {
            match &circuit.actions()[a.index()] {
                Action::Emit { value, .. } => {
                    if let Some(e) = value {
                        reads.extend(e.signal_reads());
                    }
                }
                Action::Atom(body) => reads.extend(body.signal_reads()),
                Action::CounterReset { value, .. } => reads.extend(value.signal_reads()),
                Action::AsyncSpawn(_)
                | Action::AsyncKill(_)
                | Action::AsyncSuspend(_)
                | Action::AsyncResume(_) => prefix[i] = true,
                Action::AsyncDone(_) => {}
            }
        }
        for (name, access) in reads {
            if let Some(sig) = circuit.signal_by_name(&name) {
                let info = circuit.signal(sig);
                list.push(match access {
                    SigAccess::Now | SigAccess::NowVal => info.status_net.index() as u32,
                    SigAccess::Pre | SigAccess::PreVal => info.pre_net.index() as u32,
                });
            }
        }
        list.sort_unstable();
        list.dedup();
        scatter.push(list.into_boxed_slice());
    }
    CohortPlan { scatter, prefix }
}

/// Whether this machine can join a cohort at all: the levelized engine
/// must be in effect (automatically or by request) and no per-net
/// observability that the shared sweep cannot reproduce may be armed
/// (fine-grained net events, per-level activity accounting). Ineligible
/// machines simply stay on the scalar path.
fn eligible(m: &Machine) -> bool {
    m.program.schedule.is_some()
        && matches!(m.requested, None | Some(EngineMode::Levelized))
        && !m.fine_events
        && m.level_activity.is_none()
}

/// The machine's cohort grouping key: machines with equal keys share a
/// structurally identical compiled program (same schedule tables, same
/// dimensions) and may run in one cohort. `None` means the machine is
/// not cohort-eligible (cyclic circuit, non-levelized engine request,
/// fine-grained tracing) and must stay on the scalar path.
///
/// The key is the program's memoized [`crate::circuit_struct_hash`], so
/// machines of separately compiled but identical circuits still group
/// together; only eligibility is re-checked per call.
pub fn cohort_key(m: &Machine) -> Option<u64> {
    eligible(m).then(|| m.program.struct_hash(&m.circuit))
}

#[inline]
fn lane_word(s: usize) -> usize {
    s / LANES_PER_WORD
}

#[inline]
fn lane_bit(s: usize) -> u64 {
    1u64 << (2 * (s % LANES_PER_WORD))
}

/// Scatters the packed values of `list` into the lane machine's scalar
/// `value` array, with the determined-bit guard: an undetermined net
/// reads as ⊥ (−1), exactly what the scalar sweep would show at the
/// same point in schedule order.
fn scatter(m: &mut Machine, list: &[u32], rows: &[u64], w: usize, s: usize) {
    let word = lane_word(s);
    let shift = 2 * (s % LANES_PER_WORD);
    for &d in list {
        let cell = rows[d as usize * w + word] >> shift;
        m.value[d as usize] = if cell & 2 != 0 { (cell & 1) as i8 } else { -1 };
    }
}

/// OR-folds one fanin row into `acc` (value bits only). Returns whether
/// every live lane already saturated to the controlling value, enabling
/// the same early exit the scalar fold takes.
#[inline]
fn or_into(acc: &mut [u64], src: &[u64], neg: u64, present: &[u64], wide: bool) -> bool {
    let mut done = true;
    if wide {
        for ((a, s), p) in acc
            .chunks_exact_mut(4)
            .zip(src.chunks_exact(4))
            .zip(present.chunks_exact(4))
        {
            for j in 0..4 {
                a[j] |= (s[j] ^ neg) & VAL_MASK;
                done &= a[j] & p[j] == p[j];
            }
        }
    } else {
        for ((a, s), p) in acc.iter_mut().zip(src).zip(present) {
            *a |= (*s ^ neg) & VAL_MASK;
            done &= *a & *p == *p;
        }
    }
    done
}

#[inline]
fn and_into(acc: &mut [u64], src: &[u64], neg: u64, present: &[u64], wide: bool) -> bool {
    let mut done = true;
    if wide {
        for ((a, s), p) in acc
            .chunks_exact_mut(4)
            .zip(src.chunks_exact(4))
            .zip(present.chunks_exact(4))
        {
            for j in 0..4 {
                a[j] &= (s[j] ^ neg) & VAL_MASK;
                done &= a[j] & p[j] == 0;
            }
        }
    } else {
        for ((a, s), p) in acc.iter_mut().zip(src).zip(present) {
            *a &= (*s ^ neg) & VAL_MASK;
            done &= *a & *p == 0;
        }
    }
    done
}

/// Folds a gate's fanins across the whole cohort into `acc` (value bits).
#[allow(clippy::too_many_arguments)]
fn fold_gate(
    rows: &[u64],
    sched: &LevelSchedule,
    i: usize,
    w: usize,
    or_gate: bool,
    acc: &mut [u64],
    present: &[u64],
    wide: bool,
) {
    acc.fill(if or_gate { 0 } else { VAL_MASK });
    for &edge in sched.fanins(i) {
        let src = &rows[(edge >> 1) as usize * w..(edge >> 1) as usize * w + w];
        let neg = if edge & 1 == 1 { VAL_MASK } else { 0 };
        let saturated = if or_gate {
            or_into(acc, src, neg, present, wide)
        } else {
            and_into(acc, src, neg, present, wide)
        };
        if saturated {
            break;
        }
    }
}

/// Runs one instant for every lane machine in lockstep.
///
/// The caller groups the lanes by [`cohort_key`] — all lanes must share
/// one key. (If the lanes are not cohort-eligible at all, each falls
/// back to its own scalar [`Machine::react`].) Inputs are staged per
/// lane beforehand, exactly as for a scalar reaction; the result vector
/// is index-aligned with `lanes`.
///
/// Per-lane begin (snapshot, pre-values, staged inputs) and commit
/// (registers, presence, outputs, listeners, rollback on failure)
/// mirror [`Machine::react`] exactly; only the pure-gate middle runs
/// bit-parallel across the cohort.
pub fn react_cohort(
    lanes: &mut [&mut Machine],
    width: CohortWidth,
) -> Vec<Result<Reaction, RuntimeError>> {
    let k = lanes.len();
    if k == 0 {
        return Vec::new();
    }
    let Some(key0) = cohort_key(lanes[0]) else {
        return lanes.iter_mut().map(|m| m.react()).collect();
    };
    debug_assert!(
        lanes.iter().all(|m| cohort_key(m) == Some(key0)),
        "react_cohort lanes must share one cohort_key"
    );
    let circuit = lanes[0].circuit.clone();
    let program = lanes[0].program.clone();
    let sched = program.schedule.as_deref().expect("eligible lane has a schedule");
    let plan = program.cohort_plan(&circuit);

    let n = circuit.nets().len();
    let nsig = circuit.signals().len();
    let wide = width == CohortWidth::Wide;
    let w_raw = k.div_ceil(LANES_PER_WORD);
    let w = if wide { w_raw.next_multiple_of(4) } else { w_raw };

    let mut rows = vec![0u64; n * w];
    let mut reg_rows = vec![0u64; circuit.registers().len() * w];
    let mut input_rows: HashMap<usize, Vec<u64>> = HashMap::new();
    // Value-bit mask of live (not yet peeled) lanes; `present` keeps the
    // full lane population for the saturation early-exit.
    let mut alive = vec![0u64; w];
    // One flat row of emission counters per lane (k allocations would
    // show up on the per-instant critical path).
    let mut emit_counts = vec![0u32; k * nsig];
    let mut failures: Vec<Option<RuntimeError>> = (0..k).map(|_| None).collect();

    let any_sinks = lanes.iter().any(|m| !m.sinks.is_empty());
    let t0 = any_sinks.then(Instant::now);

    // ---------------------------------------------------- per-lane begin
    for (s, m) in lanes.iter_mut().enumerate() {
        if m.rollback {
            m.park_snapshot();
        }
        if !m.sinks.is_empty() {
            m.emit_trace(TraceEvent::ReactionStart { seq: m.seq });
        }
        m.actions_run = 0;
        m.queue_hwm = 0;
        // A cohort instant bypasses the sparse engine's bookkeeping, so
        // its incremental baseline is stale after this tick.
        m.sparse.valid = false;
        m.sig_preval.clone_from(&m.sig_val);
        m.value[..n].fill(-1);
        m.events = 0;
        let word = lane_word(s);
        let bit = lane_bit(s);
        let staged = std::mem::take(&mut m.staged_inputs);
        for (sig, val) in &staged {
            if let Some(inet) = circuit.signal(*sig).input_net {
                input_rows.entry(inet.index()).or_insert_with(|| vec![0u64; w])[word] |= bit;
            }
            if let Some(v) = val {
                m.sig_val[sig.index()] = v.clone();
                emit_counts[s * nsig + sig.index()] = 1;
            }
        }
        let notifies = std::mem::take(&mut m.staged_notifies);
        for (aid, v) in notifies {
            m.asyncs[aid.index()].notified = Some(v);
            let nnet = circuit.asyncs()[aid.index()].notify_net.index();
            input_rows.entry(nnet).or_insert_with(|| vec![0u64; w])[word] |= bit;
        }
        for (r, on) in m.regs.iter().enumerate() {
            if *on {
                reg_rows[r * w + word] |= bit;
            }
        }
        alive[word] |= bit;
    }
    let present = alive.clone();

    // --------------------------------------------------- the shared sweep
    let mut acc = vec![0u64; w];
    for (pos, &id) in sched.order.iter().enumerate() {
        let i = id as usize;
        let base = i * w;
        match sched.code[i] {
            CODE_CONST0 => rows[base..base + w].fill(DET_MASK),
            CODE_CONST1 => rows[base..base + w].fill(DET_MASK | VAL_MASK),
            CODE_INPUT => match input_rows.get(&i) {
                Some(row) => {
                    for wi in 0..w {
                        rows[base + wi] = DET_MASK | row[wi];
                    }
                }
                None => rows[base..base + w].fill(DET_MASK),
            },
            CODE_REG => {
                let r = sched.aux[i] as usize * w;
                for wi in 0..w {
                    rows[base + wi] = DET_MASK | reg_rows[r + wi];
                }
            }
            code @ (CODE_OR | CODE_AND) => {
                fold_gate(&rows, sched, i, w, code == CODE_OR, &mut acc, &present, wide);
                for wi in 0..w {
                    rows[base + wi] = DET_MASK | acc[wi];
                }
            }
            CODE_TEST => {
                // One control fanin; only control-1 lanes evaluate (and
                // pay counter side effects), matching the scalar engines.
                let edge = sched.fanins(i)[0];
                let src = (edge >> 1) as usize * w;
                let neg = if edge & 1 == 1 { VAL_MASK } else { 0 };
                for wi in 0..w {
                    acc[wi] = (rows[src + wi] ^ neg) & VAL_MASK;
                }
                for wi in 0..w {
                    rows[base + wi] = 0;
                    let mut bits = acc[wi] & alive[wi];
                    while bits != 0 {
                        let t = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let s = wi * LANES_PER_WORD + t / 2;
                        let m = &mut *lanes[s];
                        let list = &plan.scatter[i];
                        scatter(m, list, &rows, w, s);
                        let mc = m.circuit.clone();
                        if m.eval_test(&mc, id) {
                            rows[base + wi] |= 1 << t;
                        }
                    }
                    rows[base + wi] |= DET_MASK;
                }
            }
            code @ (CODE_OR_EARLY | CODE_AND_EARLY | CODE_OR_LATE | CODE_AND_LATE) => {
                let or_gate = matches!(code, CODE_OR_EARLY | CODE_OR_LATE);
                fold_gate(&rows, sched, i, w, or_gate, &mut acc, &present, wide);
                for wi in 0..w {
                    let mut bits = acc[wi] & alive[wi];
                    while bits != 0 {
                        let t = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let s = wi * LANES_PER_WORD + t / 2;
                        let m = &mut *lanes[s];
                        if plan.prefix[i] {
                            // Opaque async hook: materialize the full
                            // swept prefix, the scalar engine's exact
                            // observable state at this point.
                            for &pid in &sched.order[..pos] {
                                let p = pid as usize;
                                let cell = rows[p * w + wi] >> (t & !1);
                                m.value[p] = (cell & 1) as i8;
                            }
                        } else {
                            scatter(m, &plan.scatter[i], &rows, w, s);
                        }
                        let mc = m.circuit.clone();
                        if let Err(e) =
                            m.run_action(&mc, id, &mut emit_counts[s * nsig..(s + 1) * nsig])
                        {
                            // Peel: the lane's remaining effectful work
                            // is skipped (the scalar sweep aborts the
                            // same way); rollback happens at commit.
                            failures[s] = Some(e);
                            alive[wi] &= !(1u64 << t);
                        }
                    }
                    rows[base + wi] = DET_MASK | acc[wi];
                }
            }
            code => unreachable!("bad opcode {code}"),
        }
    }

    // --------------------------------------------------- per-lane commit
    let dur_ns = t0
        .map(|t| (t.elapsed().as_nanos() as u64 / k as u64).max(1))
        .unwrap_or(0);
    let mut results = Vec::with_capacity(k);
    for (s, m) in lanes.iter_mut().enumerate() {
        if let Some(e) = failures[s].take() {
            if m.rollback {
                m.restore_parked_snapshot();
                m.poisoned = false;
            } else {
                m.poisoned = true;
            }
            results.push(Err(e));
            continue;
        }
        m.events = sched.order.len();
        let word = lane_word(s);
        let shift = 2 * (s % LANES_PER_WORD);
        let bit = |i: usize| rows[i * w + word] >> shift & 1 != 0;
        for (r, reg) in circuit.registers().iter().enumerate() {
            m.regs[r] = bit(reg.input.index());
        }
        for (si, info) in circuit.signals().iter().enumerate() {
            m.last_present[si] = bit(info.status_net.index());
        }
        if let Some(t) = circuit.terminated_net() {
            if bit(t.index()) {
                m.terminated = true;
            }
        }
        let outputs = m
            .program
            .out_signals
            .iter()
            .map(|(i, name)| OutputEvent {
                name: name.clone(),
                present: m.last_present[*i as usize],
                value: m.sig_val[*i as usize].clone(),
            })
            .collect();
        let reaction = Reaction {
            seq: m.seq,
            outputs,
            terminated: m.terminated,
            events: m.events,
        };
        m.seq += 1;
        if !m.sinks.is_empty() {
            m.emit_trace(TraceEvent::ReactionEnd {
                reaction: &reaction,
                stats: ReactionStats {
                    duration_ns: dur_ns,
                    events: m.events,
                    actions: m.actions_run,
                    queue_hwm: 0,
                    engine: EngineMode::Levelized,
                },
            });
        }
        if let Some(tr) = &mut m.trace {
            tr.push(reaction.clone());
        }
        let listeners = m.listeners.clone();
        for l in listeners {
            l(&reaction);
        }
        m.poisoned = false;
        results.push(Ok(reaction));
    }
    results
}
