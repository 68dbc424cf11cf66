//! Inter-instant dataflow: abstract interpretation over circuits.
//!
//! The per-instant constructiveness analysis ([`crate::analysis`]) asks
//! "can this cycle stabilize *within one reaction*?". This module asks
//! the complementary cross-instant questions: which values can a net
//! ever take in *any reachable instant*, which emissions can ever be
//! observed through *any future instant*, and which cycles are held
//! together by data dependencies alone.
//!
//! The machinery is a classic abstract interpretation:
//!
//! - a generic SCC-aware forward fixpoint engine ([`fixpoint`]) over a
//!   pluggable [`Transfer`] function, iterating components of the
//!   [`Condensation`] in producer-first order with bounded widening
//!   inside cyclic components;
//! - a ternary value-set lattice ([`ValueSet`]: ⊥ ⊑ {0},{1} ⊑ ⊤) whose
//!   transfer mirrors Kleene evaluation of the gates;
//! - an outer loop over *instants* that accumulates, per register, the
//!   set of values it can hold at the start of any reachable instant
//!   (seeded from the reset values, widened to ⊤ after a bounded number
//!   of sweeps).
//!
//! Everything here works on both unfinalized and finalized circuits: the
//! transfer functions pull facts through `net.fanins`/`net.deps`
//! directly and never touch the CSR fanout tables, so the optimizer can
//! consume facts *before* `finalize` while lints and the CLI consume
//! them after.
//!
//! # Soundness
//!
//! The concrete semantics evaluated per instant is the constructive
//! (ternary) fixpoint: a net's value is derived monotonically from
//! constants, environment inputs, register outputs and already-derived
//! fanins. Every abstract transfer over-approximates the corresponding
//! concrete derivation step (inputs are ⊤; a register output is the
//! accumulated set of values the register can hold; test outcomes are ⊤
//! whenever the control can fire), and the outer register loop only
//! ever grows the per-register sets starting from the exact reset
//! values — so by induction over (instant, derivation step), every
//! concretely reachable value is contained in the final abstract fact.
//! Widening jumps straight to ⊤ and is therefore trivially sound.

use crate::analysis::Condensation;
use crate::circuit::Circuit;
use crate::net::{Action, NetId, NetKind, TestKind};
use hiphop_core::expr::SigAccess;
use hiphop_core::signal::Direction;
use std::collections::VecDeque;

/// Iteration budget inside one cyclic component before widening to ⊤.
/// The per-net lattice has height 2, so `2·|members| + 2` chaotic rounds
/// always converge; the cap only matters for pathological components.
const SCC_ROUND_CAP: usize = 64;

/// Cyclic components larger than this widen to ⊤ immediately.
const SCC_SIZE_CAP: usize = 4096;

/// Outer instant-sweep budget before all register sets widen to ⊤. Each
/// register set can grow at most twice (⊥ → singleton → ⊤), so chains
/// longer than this are astronomically unlikely in real circuits.
const OUTER_SWEEP_CAP: usize = 48;

// ---------------------------------------------------------------------
// The value-set lattice.

/// The set of boolean values a net can take, as a two-bit mask:
/// bit 0 = "can be 0", bit 1 = "can be 1". The lattice is ordered by
/// set inclusion: [`ValueSet::BOTTOM`] (unreachable / not yet derived)
/// below the two singletons below [`ValueSet::TOP`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValueSet(u8);

impl ValueSet {
    /// The empty set: no value derivable (unreached code, or a cycle
    /// that never stabilizes).
    pub const BOTTOM: ValueSet = ValueSet(0);
    /// Provably 0 in every reachable instant.
    pub const ZERO: ValueSet = ValueSet(1);
    /// Provably 1 in every reachable instant.
    pub const ONE: ValueSet = ValueSet(2);
    /// Both values possible.
    pub const TOP: ValueSet = ValueSet(3);

    /// The singleton set `{v}`.
    pub fn of(v: bool) -> ValueSet {
        if v {
            ValueSet::ONE
        } else {
            ValueSet::ZERO
        }
    }

    /// `true` when `v` is in the set.
    pub fn can(self, v: bool) -> bool {
        self.0 & (1 << u8::from(v)) != 0
    }

    /// Set union (the lattice join).
    #[must_use]
    pub fn join(self, other: ValueSet) -> ValueSet {
        ValueSet(self.0 | other.0)
    }

    /// `Some(v)` when the set is exactly `{v}`.
    pub fn singleton(self) -> Option<bool> {
        match self {
            ValueSet::ZERO => Some(false),
            ValueSet::ONE => Some(true),
            _ => None,
        }
    }

    /// `true` for the empty set.
    pub fn is_bottom(self) -> bool {
        self.0 == 0
    }

    /// The set of negations (swaps the two bits).
    #[must_use]
    pub fn negate(self) -> ValueSet {
        ValueSet(((self.0 & 1) << 1) | ((self.0 & 2) >> 1))
    }
}

/// Kleene OR over fanin value sets: the result can be 1 as soon as any
/// fanin can, and can be 0 only once every fanin can. The empty OR is
/// the constant 0, matching [`NetKind::Or`]'s concrete semantics.
fn or_fold(inputs: impl Iterator<Item = ValueSet>) -> ValueSet {
    let mut one = 0u8;
    let mut zero = 1u8;
    for v in inputs {
        one |= v.0 >> 1;
        zero &= v.0 & 1;
    }
    ValueSet((one << 1) | zero)
}

/// Kleene AND over fanin value sets (dual of [`or_fold`]; empty = 1).
fn and_fold(inputs: impl Iterator<Item = ValueSet>) -> ValueSet {
    let mut zero = 0u8;
    let mut one = 1u8;
    for v in inputs {
        zero |= v.0 & 1;
        one &= v.0 >> 1;
    }
    ValueSet((one << 1) | zero)
}

// ---------------------------------------------------------------------
// The generic engine.

/// A forward transfer function driving [`fixpoint`]. Implementations
/// must be monotone in the fact lattice for the engine's producer-first
/// iteration order (and its widening fallback) to be sound.
pub trait Transfer {
    /// The per-net fact.
    type Fact: Clone + PartialEq;

    /// The least fact, seeding iteration inside cyclic components.
    fn bottom(&self) -> Self::Fact;

    /// A sound upper bound of every reachable fact, used to widen a
    /// cyclic component that exhausts its iteration budget.
    fn top(&self) -> Self::Fact;

    /// Recomputes the fact for `net` from the current facts of its
    /// fanins (`facts` is indexed by net id).
    fn transfer(&self, circuit: &Circuit, net: NetId, facts: &[Self::Fact]) -> Self::Fact;
}

/// Runs `t` to a fixpoint over the circuit: components of `cond` in
/// producer-first order, one transfer per net in acyclic regions,
/// bounded chaotic iteration (with widening to [`Transfer::top`]) inside
/// cyclic components. Works on unfinalized circuits — only
/// `net.fanins`/`net.deps` are read, never the CSR fanout tables.
pub fn fixpoint<T: Transfer>(circuit: &Circuit, cond: &Condensation, t: &T) -> Vec<T::Fact> {
    let n = circuit.nets().len();
    let mut facts = vec![t.bottom(); n];
    // Components in producer-first order: first appearance along the
    // net-level topological order.
    let mut emitted = vec![false; cond.comps()];
    for &id in cond.topo_order() {
        let comp = cond.comp_of(id);
        if emitted[comp as usize] {
            continue;
        }
        emitted[comp as usize] = true;
        if !cond.is_nontrivial(comp) {
            facts[id.index()] = t.transfer(circuit, id, &facts);
            continue;
        }
        let members = cond.members(comp);
        let rounds = (2 * members.len() + 2).min(SCC_ROUND_CAP);
        let mut converged = false;
        if members.len() <= SCC_SIZE_CAP {
            for _ in 0..rounds {
                let mut changed = false;
                for &m in members {
                    let new = t.transfer(circuit, m, &facts);
                    if new != facts[m.index()] {
                        facts[m.index()] = new;
                        changed = true;
                    }
                }
                if !changed {
                    converged = true;
                    break;
                }
            }
        }
        if !converged {
            for &m in members {
                facts[m.index()] = t.top();
            }
        }
    }
    facts
}

// ---------------------------------------------------------------------
// Analysis 1: register-aware ternary constant / reachability propagation.

/// Per-instant value-set transfer with the register state abstracted by
/// `regs` (the set of values each register can hold at instant start).
struct ConstTransfer<'a> {
    regs: &'a [ValueSet],
}

impl Transfer for ConstTransfer<'_> {
    type Fact = ValueSet;

    fn bottom(&self) -> ValueSet {
        ValueSet::BOTTOM
    }

    fn top(&self) -> ValueSet {
        ValueSet::TOP
    }

    fn transfer(&self, circuit: &Circuit, net: NetId, facts: &[ValueSet]) -> ValueSet {
        let net = &circuit.nets()[net.index()];
        let fanin = |f: &crate::net::Fanin| {
            let v = facts[f.net.index()];
            if f.negated {
                v.negate()
            } else {
                v
            }
        };
        match net.kind {
            NetKind::Const(v) => ValueSet::of(v),
            // Environment inputs and async notify wires: the host picks.
            NetKind::Input => ValueSet::TOP,
            NetKind::RegOut(r) => self.regs[r.index()],
            // A test fires its expression only when the control is 1;
            // the outcome is then host data we cannot see.
            NetKind::Test(_) => {
                let control = and_fold(net.fanins.iter().map(fanin));
                if control.is_bottom() {
                    ValueSet::BOTTOM
                } else if control.can(true) {
                    ValueSet::TOP
                } else {
                    ValueSet::ZERO
                }
            }
            NetKind::Or => or_fold(net.fanins.iter().map(fanin)),
            NetKind::And => and_fold(net.fanins.iter().map(fanin)),
        }
    }
}

/// The inter-instant constant facts: per-net and per-register value
/// sets accumulated over every reachable instant.
#[derive(Debug, Clone)]
pub struct ConstFacts {
    /// Per net: every value the net can take in any reachable instant.
    pub values: Vec<ValueSet>,
    /// Per register: every value it can hold at the start of an instant
    /// (including its reset value).
    pub registers: Vec<ValueSet>,
    /// `true` when the outer sweep hit its budget and the register sets
    /// were widened to ⊤ (the facts are still sound, just coarser).
    pub widened: bool,
}

/// Runs the register-aware constant/reachability propagation: instant
/// sweeps (each a [`fixpoint`] with registers abstracted by their
/// accumulated value sets) until the register sets stabilize, widening
/// to ⊤ after [`OUTER_SWEEP_CAP`] sweeps.
pub fn constants(circuit: &Circuit) -> ConstFacts {
    let cond = circuit.condensation();
    constants_with(circuit, &cond)
}

/// [`constants`] reusing an existing condensation.
pub fn constants_with(circuit: &Circuit, cond: &Condensation) -> ConstFacts {
    let mut regs: Vec<ValueSet> = circuit
        .registers()
        .iter()
        .map(|r| ValueSet::of(r.init))
        .collect();
    let mut values = vec![ValueSet::BOTTOM; circuit.nets().len()];
    let mut widened = false;
    let mut sweeps = 0usize;
    loop {
        let sweep = fixpoint(circuit, cond, &ConstTransfer { regs: &regs });
        for (acc, v) in values.iter_mut().zip(&sweep) {
            *acc = acc.join(*v);
        }
        // Jacobi update: registers latch their input when the instant
        // completes; ⊥ inputs (unreached) contribute nothing.
        let mut changed = false;
        for (k, r) in circuit.registers().iter().enumerate() {
            let next = regs[k].join(sweep[r.input.index()]);
            if next != regs[k] {
                regs[k] = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        sweeps += 1;
        if sweeps >= OUTER_SWEEP_CAP {
            // Widen every register to ⊤ and take one final sweep so the
            // net facts absorb the widened state.
            widened = true;
            regs.fill(ValueSet::TOP);
            let last = fixpoint(circuit, cond, &ConstTransfer { regs: &regs });
            for (acc, v) in values.iter_mut().zip(&last) {
                *acc = acc.join(*v);
            }
            break;
        }
    }
    ConstFacts {
        values,
        registers: regs,
        widened,
    }
}

// ---------------------------------------------------------------------
// Analysis 2: observability (inter-instant liveness of emissions).

/// The signal names (paired with the access kind) read dynamically by
/// the expressions attached to `net` — test conditions, emitted values,
/// atom bodies, counter resets. These reads consume signal nets *by
/// name* at runtime without structural fanin edges, so the observability
/// walk must treat them as edges.
fn expr_reads(circuit: &Circuit, net: &crate::net::Net) -> Vec<(String, SigAccess)> {
    let mut reads = Vec::new();
    if let NetKind::Test(kind) = &net.kind {
        match kind {
            TestKind::Expr(e) => reads.extend(e.signal_reads()),
            TestKind::CounterElapsed { cond, .. } => reads.extend(cond.signal_reads()),
        }
    }
    if let Some(a) = net.action {
        match &circuit.actions()[a.index()] {
            Action::Emit { value: Some(e), .. } => reads.extend(e.signal_reads()),
            Action::Emit { value: None, .. } => {}
            Action::Atom(body) => reads.extend(body.signal_reads()),
            Action::CounterReset { value, .. } => reads.extend(value.signal_reads()),
            Action::AsyncSpawn(_)
            | Action::AsyncKill(_)
            | Action::AsyncSuspend(_)
            | Action::AsyncResume(_)
            | Action::AsyncDone(_) => {}
        }
    }
    reads
}

/// Computes, per net, whether it can influence anything the environment
/// observes — in this instant or any future one. The walk is a reverse
/// reachability from externally-visible sinks (non-local signal wiring,
/// host-effect actions, counter state, async wires, boot/terminated)
/// through fanins, dependency edges, register unit delays and dynamic
/// by-name expression reads; an emission to a *local* signal is visible
/// only once the signal's own nets are (computed as part of the same
/// fixpoint, since status nets list their emitters as fanins).
pub fn observability(circuit: &Circuit) -> Vec<bool> {
    let n = circuit.nets().len();
    let mut observable = vec![false; n];
    let mut queue: VecDeque<NetId> = VecDeque::new();
    let mark = |id: NetId, observable: &mut Vec<bool>, queue: &mut VecDeque<NetId>| {
        if !observable[id.index()] {
            observable[id.index()] = true;
            queue.push_back(id);
        }
    };
    for (i, net) in circuit.nets().iter().enumerate() {
        let id = NetId(i as u32);
        // Counter tests mutate counter state when they evaluate.
        if matches!(net.kind, NetKind::Test(TestKind::CounterElapsed { .. })) {
            mark(id, &mut observable, &mut queue);
        }
        if let Some(a) = net.action {
            let visible = match &circuit.actions()[a.index()] {
                // Host effects and async lifecycle hooks are visible
                // regardless of what reads them.
                Action::Atom(_)
                | Action::CounterReset { .. }
                | Action::AsyncSpawn(_)
                | Action::AsyncKill(_)
                | Action::AsyncSuspend(_)
                | Action::AsyncResume(_)
                | Action::AsyncDone(_) => true,
                // An emission is visible iff the target signal is part
                // of the interface; local emissions become visible only
                // through readers (handled by the walk).
                Action::Emit { signal, .. } => {
                    circuit.signal(*signal).direction != Direction::Local
                }
            };
            if visible {
                mark(id, &mut observable, &mut queue);
            }
        }
    }
    for s in circuit.signals() {
        if s.direction == Direction::Local {
            continue;
        }
        mark(s.status_net, &mut observable, &mut queue);
        mark(s.pre_net, &mut observable, &mut queue);
        if let Some(i) = s.input_net {
            mark(i, &mut observable, &mut queue);
        }
    }
    for a in circuit.asyncs() {
        mark(a.notify_net, &mut observable, &mut queue);
    }
    if let Some(b) = circuit.boot_net() {
        mark(b, &mut observable, &mut queue);
    }
    if let Some(t) = circuit.terminated_net() {
        mark(t, &mut observable, &mut queue);
    }
    while let Some(id) = queue.pop_front() {
        let net = &circuit.nets()[id.index()];
        for f in &net.fanins {
            mark(f.net, &mut observable, &mut queue);
        }
        for &d in &net.deps {
            mark(d, &mut observable, &mut queue);
        }
        if let NetKind::RegOut(r) = net.kind {
            mark(
                circuit.registers()[r.index()].input,
                &mut observable,
                &mut queue,
            );
        }
        for (name, access) in expr_reads(circuit, net) {
            if let Some(sig) = circuit.signal_by_name(&name) {
                let info = circuit.signal(sig);
                let read_net = match access {
                    SigAccess::Now | SigAccess::NowVal => info.status_net,
                    SigAccess::Pre | SigAccess::PreVal => info.pre_net,
                };
                mark(read_net, &mut observable, &mut queue);
                // A value read consumes what the emitters wrote.
                for &e in &info.emitters {
                    mark(e, &mut observable, &mut queue);
                }
            }
        }
    }
    observable
}

// ---------------------------------------------------------------------
// Analyses 3 & 4: emit capability, loops, schizophrenia.

/// May/must-emit capability of one signal, derived from the constant
/// facts of its status net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmitCapability {
    /// The signal can be present in at least one reachable instant.
    pub may: bool,
    /// The signal is present in *every* reachable instant.
    pub must: bool,
}

/// The complete fact bundle the lints, the optimizer and the CLI
/// consume, computed by [`analyze`].
#[derive(Debug, Clone)]
pub struct CircuitFacts {
    /// Inter-instant value sets per net.
    pub values: Vec<ValueSet>,
    /// Inter-instant value sets per register.
    pub registers: Vec<ValueSet>,
    /// `true` when the constant propagation hit its widening budget.
    pub widened: bool,
    /// Per net: can it influence anything externally observable, in
    /// this instant or any future one?
    pub observable: Vec<bool>,
    /// Cyclic SCCs held together purely by data-dependency edges (no
    /// boolean fanin closes the cycle): if all members activate in one
    /// instant, value resolution deadlocks.
    pub dep_only_sccs: Vec<Vec<NetId>>,
    /// Local signals duplicated by loop reincarnation: the base source
    /// name paired with the number of circuit-level instances.
    pub schizophrenic: Vec<(String, usize)>,
}

impl CircuitFacts {
    /// `Some(v)` when `id` provably evaluates to `v` in every reachable
    /// instant.
    pub fn constant(&self, id: NetId) -> Option<bool> {
        self.values[id.index()].singleton()
    }

    /// May/must-emit capability of a signal from its status net's facts.
    pub fn emit_capability(&self, circuit: &Circuit, sig: crate::net::SignalId) -> EmitCapability {
        let v = self.values[circuit.signal(sig).status_net.index()];
        EmitCapability {
            may: v.can(true),
            must: v == ValueSet::ONE,
        }
    }

    /// Number of non-trivial nets (not already `Const`) with a singleton
    /// value set.
    pub fn constant_nets(&self, circuit: &Circuit) -> usize {
        self.values
            .iter()
            .enumerate()
            .filter(|(i, v)| {
                v.singleton().is_some()
                    && !matches!(circuit.nets()[*i].kind, NetKind::Const(_))
            })
            .count()
    }

    /// Number of registers pinned to a single value across all instants.
    pub fn pinned_registers(&self) -> usize {
        self.registers.iter().filter(|v| v.singleton().is_some()).count()
    }

    /// Number of nets that can never influence anything observable.
    pub fn unobservable_nets(&self) -> usize {
        self.observable.iter().filter(|o| !**o).count()
    }
}

/// Detects cyclic SCCs whose internal connectivity is data-dependency
/// edges only — no boolean fanin closes the cycle, so the cycle is an
/// instantaneous *resolution* loop (e.g. `emit S(S.nowval)`), invisible
/// to the boolean constructiveness analysis.
fn dep_only_sccs(circuit: &Circuit, cond: &Condensation) -> Vec<Vec<NetId>> {
    let mut out = Vec::new();
    for &comp in cond.nontrivial() {
        let members = cond.members(comp);
        let internal_fanin = members.iter().any(|&m| {
            circuit.nets()[m.index()]
                .fanins
                .iter()
                .any(|f| cond.comp_of(f.net) == comp)
        });
        if !internal_fanin {
            out.push(members.to_vec());
        }
    }
    out
}

/// Groups local signals by their base source name (the part before the
/// translator's `@instance` suffix) and reports every name with two or
/// more circuit-level instances — the signature of reincarnation
/// (schizophrenia) duplication.
fn schizophrenic_locals(circuit: &Circuit) -> Vec<(String, usize)> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<&str, usize> = BTreeMap::new();
    for s in circuit.signals() {
        if s.direction != Direction::Local {
            continue;
        }
        let base = s.name.split('@').next().unwrap_or(&s.name);
        *groups.entry(base).or_insert(0) += 1;
    }
    groups
        .into_iter()
        .filter(|&(_, n)| n > 1)
        .map(|(name, n)| (name.to_owned(), n))
        .collect()
}

/// Runs every analysis and bundles the facts. Works on finalized and
/// unfinalized circuits alike.
pub fn analyze(circuit: &Circuit) -> CircuitFacts {
    let cond = circuit.condensation();
    let consts = constants_with(circuit, &cond);
    CircuitFacts {
        values: consts.values,
        registers: consts.registers,
        widened: consts.widened,
        observable: observability(circuit),
        dep_only_sccs: dep_only_sccs(circuit, &cond),
        schizophrenic: schizophrenic_locals(circuit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Fanin, SignalInfo};

    fn signal(c: &mut Circuit, name: &str, dir: Direction) -> (crate::net::SignalId, NetId, NetId) {
        let status = c.or(vec![], "sig.status");
        let (pre_reg, pre) = c.register(false, "sig.pre");
        c.set_register_input(pre_reg, status);
        let id = c.add_signal(SignalInfo {
            name: name.into(),
            direction: dir,
            init: None,
            combine: None,
            status_net: status,
            pre_net: pre,
            input_net: None,
            emitters: vec![],
        });
        (id, status, pre)
    }

    #[test]
    fn value_set_lattice_operations() {
        assert_eq!(ValueSet::ZERO.join(ValueSet::ONE), ValueSet::TOP);
        assert_eq!(ValueSet::BOTTOM.join(ValueSet::ONE), ValueSet::ONE);
        assert_eq!(ValueSet::ZERO.negate(), ValueSet::ONE);
        assert_eq!(ValueSet::TOP.negate(), ValueSet::TOP);
        assert_eq!(ValueSet::BOTTOM.negate(), ValueSet::BOTTOM);
        assert_eq!(ValueSet::ONE.singleton(), Some(true));
        assert_eq!(ValueSet::TOP.singleton(), None);
        assert!(ValueSet::TOP.can(false) && ValueSet::TOP.can(true));
    }

    #[test]
    fn kleene_folds_match_gate_semantics() {
        // or() = {0}, and() = {1}.
        assert_eq!(or_fold(std::iter::empty()), ValueSet::ZERO);
        assert_eq!(and_fold(std::iter::empty()), ValueSet::ONE);
        // An OR with one fanin that can be 1 can be 1 even while another
        // fanin is still ⊥ (Kleene short-circuit).
        assert_eq!(
            or_fold([ValueSet::ONE, ValueSet::BOTTOM].into_iter()),
            ValueSet::ONE
        );
        // ...but it cannot be 0 until every fanin can.
        assert_eq!(
            or_fold([ValueSet::ZERO, ValueSet::BOTTOM].into_iter()),
            ValueSet::BOTTOM
        );
        assert_eq!(
            and_fold([ValueSet::ZERO, ValueSet::BOTTOM].into_iter()),
            ValueSet::ZERO
        );
    }

    #[test]
    fn acyclic_constant_propagation() {
        let mut c = Circuit::new("t");
        let c0 = c.constant(false, "c0");
        let c1 = c.constant(true, "c1");
        let i = c.input("i");
        // g = i & 1 can be anything; h = i & 0 is provably 0.
        let g = c.and(vec![Fanin::pos(i), Fanin::pos(c1)], "g");
        let h = c.and(vec![Fanin::pos(i), Fanin::pos(c0)], "h");
        let facts = constants(&c);
        assert_eq!(facts.values[g.index()], ValueSet::TOP);
        assert_eq!(facts.values[h.index()].singleton(), Some(false));
        assert!(!facts.widened);
    }

    #[test]
    fn register_cycle_pins_to_reset_value() {
        // Two registers feeding each other, both reset to 0, no other
        // source: provably 0 forever. Per-instant folding cannot see
        // this (neither output is syntactically constant).
        let mut c = Circuit::new("t");
        let (r1, out1) = c.register(false, "r1");
        let (r2, out2) = c.register(false, "r2");
        let buf1 = c.or(vec![Fanin::pos(out2)], "buf1");
        let buf2 = c.or(vec![Fanin::pos(out1)], "buf2");
        c.set_register_input(r1, buf1);
        c.set_register_input(r2, buf2);
        let facts = constants(&c);
        assert_eq!(facts.values[out1.index()].singleton(), Some(false));
        assert_eq!(facts.values[out2.index()].singleton(), Some(false));
        assert_eq!(facts.registers[0].singleton(), Some(false));
    }

    #[test]
    fn register_reached_by_input_widens_to_top() {
        let mut c = Circuit::new("t");
        let i = c.input("i");
        let (r, out) = c.register(false, "r");
        let next = c.or(vec![Fanin::pos(i), Fanin::pos(out)], "next");
        c.set_register_input(r, next);
        let facts = constants(&c);
        assert_eq!(facts.values[out.index()], ValueSet::TOP);
        assert_eq!(facts.registers[0], ValueSet::TOP);
        assert!(!facts.widened, "2-value lattice must converge without widening");
    }

    #[test]
    fn boot_style_register_accumulates_both_values() {
        // init 1, input const 0: {1} at boot, {0} forever after.
        let mut c = Circuit::new("t");
        let c0 = c.constant(false, "c0");
        let (r, out) = c.register(true, "boot");
        c.set_register_input(r, c0);
        let facts = constants(&c);
        assert_eq!(facts.registers[0], ValueSet::TOP);
        assert_eq!(facts.values[out.index()], ValueSet::TOP);
    }

    #[test]
    fn cyclic_scc_converges_from_bottom() {
        // x = or(x, go) with go an input. Constructively x can be
        // derived to 1 (go=1) but never to 0: deriving 0 would need the
        // self-fanin already known 0. The Kleene fixpoint captures
        // exactly that — {1}, not ⊤.
        let mut c = Circuit::new("t");
        let go = c.input("go");
        let x = c.or(vec![Fanin::pos(go)], "x");
        c.add_fanin(x, Fanin::pos(x));
        let facts = constants(&c);
        assert_eq!(facts.values[x.index()], ValueSet::ONE);
    }

    #[test]
    fn paradox_cycle_stays_bottom() {
        // x = not x with no external justification: no value is ever
        // constructively derivable, so the fact stays ⊥.
        let mut c = Circuit::new("t");
        let x = c.or(vec![], "x");
        c.add_fanin(x, Fanin::neg(x));
        let facts = constants(&c);
        assert!(facts.values[x.index()].is_bottom());
    }

    #[test]
    fn observability_sees_through_registers() {
        // in -> gate -> reg -> out_status: the gate is observable only
        // through the register's unit delay.
        let mut c = Circuit::new("t");
        let i = c.input("i");
        let gate = c.or(vec![Fanin::pos(i)], "gate");
        let (r, out) = c.register(false, "r");
        c.set_register_input(r, gate);
        let (_sig, status, _pre) = signal(&mut c, "O", Direction::Out);
        c.add_fanin(status, Fanin::pos(out));
        let obs = observability(&c);
        assert!(obs[gate.index()] && obs[i.index()] && obs[out.index()]);
    }

    #[test]
    fn unobservable_local_reader_chain_is_dark() {
        // A local signal read by a gate that feeds nothing the
        // environment can see: the whole cluster is unobservable.
        let mut c = Circuit::new("t");
        let (_s, status, _pre) = signal(&mut c, "L@1", Direction::Local);
        let emit = c.or(vec![], "emit");
        c.add_fanin(status, Fanin::pos(emit));
        let reader = c.and(vec![Fanin::pos(status)], "reader");
        let obs = observability(&c);
        assert!(!obs[status.index()]);
        assert!(!obs[reader.index()]);
        // The same chain feeding an output status becomes observable.
        let (_o, ostatus, _opre) = signal(&mut c, "O", Direction::Out);
        c.add_fanin(ostatus, Fanin::pos(reader));
        let obs = observability(&c);
        assert!(obs[status.index()] && obs[reader.index()] && obs[emit.index()]);
    }

    #[test]
    fn dep_only_cycle_is_detected() {
        let mut c = Circuit::new("t");
        let a = c.or(vec![], "a");
        let b = c.or(vec![], "b");
        c.add_dep(a, b);
        c.add_dep(b, a);
        let facts = analyze(&c);
        assert_eq!(facts.dep_only_sccs.len(), 1);
        assert_eq!(facts.dep_only_sccs[0].len(), 2);
        // A boolean cycle is NOT dep-only.
        let mut c2 = Circuit::new("t2");
        let x = c2.or(vec![], "x");
        let y = c2.or(vec![Fanin::pos(x)], "y");
        c2.add_fanin(x, Fanin::pos(y));
        let facts2 = analyze(&c2);
        assert!(facts2.dep_only_sccs.is_empty());
    }

    #[test]
    fn schizophrenic_locals_group_by_base_name() {
        let mut c = Circuit::new("t");
        signal(&mut c, "s%1@4", Direction::Local);
        signal(&mut c, "s%1@9", Direction::Local);
        signal(&mut c, "t%2@11", Direction::Local);
        signal(&mut c, "O", Direction::Out);
        let facts = analyze(&c);
        assert_eq!(facts.schizophrenic, vec![("s%1".to_owned(), 2)]);
    }

    #[test]
    fn facts_summaries_count_consistently(){
        let mut c = Circuit::new("t");
        let c0 = c.constant(false, "c0");
        let i = c.input("i");
        let dead = c.and(vec![Fanin::pos(i), Fanin::pos(c0)], "dead");
        let (_sig, status, _pre) = signal(&mut c, "O", Direction::Out);
        c.add_fanin(status, Fanin::pos(dead));
        let facts = analyze(&c);
        // `dead` is a non-Const net with a singleton fact; c0 itself is
        // excluded from the count.
        assert_eq!(facts.constant_nets(&c), facts.values.iter().enumerate()
            .filter(|(k, v)| v.singleton().is_some()
                && !matches!(c.nets()[*k].kind, NetKind::Const(_)))
            .count());
        assert!(facts.constant_nets(&c) >= 1);
        assert_eq!(facts.constant(dead), Some(false));
    }
}
