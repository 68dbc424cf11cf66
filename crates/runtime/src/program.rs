//! The runtime program: everything a [`crate::Machine`] derives from its
//! circuit alone, built once per circuit body and shared by every
//! machine that runs it.
//!
//! A server runs many sessions of one compiled program. The circuit is a
//! shared handle (cloning it bumps a count), and the tables the engines
//! read — net classes, the level and hybrid schedules, the output
//! table, the structural hash, the cohort plan, the sparse engine's
//! subscription tables — live here, in one [`Program`] memoized in the
//! circuit's body ([`Circuit::memo`]). `Machine::new` stays the only
//! constructor: the first machine built on a body compiles the program,
//! every later one (on any clone of that circuit) finds it in O(1)
//! through the handle and pays only for its own state planes.
//!
//! The memo's invariants come from the circuit: it lives exactly as long
//! as the body, an edit through any handle copies or clears it, and the
//! program holds no circuit handle, so no reference cycle keeps a body
//! alive. The pieces only some machines need (the structural hash, the
//! cohort plan, the sparse tables) are built on first use and memoized
//! in the program.

use crate::causality::analyze;
use crate::cohort::{build_plan, CohortPlan};
use crate::error::RuntimeError;
use crate::levelized::{HybridSchedule, LevelSchedule};
use crate::snapshot::circuit_struct_hash;
use crate::sparse::SparseTables;
use hiphop_circuit::{Action, Circuit, NetKind};
use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::Arc;

/// Per-net evaluation strategy, precomputed once per program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Const / Input / RegOut: determined at reaction start.
    Source,
    /// Plain gate, no side effect.
    Gate,
    /// Data test: evaluates once its control and dependencies stabilize.
    Test,
    /// Gate with an *early* action (signal emission): the boolean value
    /// propagates immediately; the side effect waits for dependencies.
    /// This keeps signal *status* propagation independent from *value*
    /// computation, as in Esterel.
    Early,
    /// Gate with a *late* action (atoms, counters, async hooks): the net
    /// is determined only after the side effect ran, so sequential host
    /// state updates are ordered before downstream control.
    Late,
}

/// The immutable, shared half of a machine (see the module docs).
pub(crate) struct Program {
    /// Evaluation class of each net.
    pub(crate) class: Vec<Class>,
    /// Whether each net folds as an OR (everything but AND gates).
    pub(crate) is_or: Vec<bool>,
    /// The dense level schedule; exists iff the circuit is acyclic.
    pub(crate) schedule: Option<Rc<LevelSchedule>>,
    /// The SCC-condensed schedule. Every program has one: a circuit the
    /// static constructiveness analysis rejects gets no program.
    pub(crate) hybrid: HybridSchedule,
    /// Output-direction interface signals as (signal index, interned
    /// name): every reaction reports them, so the names are interned
    /// once per program instead of once per instant.
    pub(crate) out_signals: Box<[(u32, Arc<str>)]>,
    struct_hash: OnceCell<u64>,
    cohort_plan: OnceCell<CohortPlan>,
    sparse: OnceCell<SparseTables>,
}

impl Program {
    /// The program of `circuit`: memoized in its body, so every machine
    /// built on a clone of one finalized circuit shares it. A rejected
    /// circuit memoizes its rejection the same way.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Causality`] if the static constructiveness
    /// analysis proves a combinational cycle can never stabilize.
    pub(crate) fn of(circuit: &Circuit) -> Result<Rc<Program>, RuntimeError> {
        (*circuit.memo(|c| Program::build(c).map(Rc::new))).clone()
    }

    fn build(circuit: &Circuit) -> Result<Program, RuntimeError> {
        let n = circuit.nets().len();
        let mut class = Vec::with_capacity(n);
        let mut is_or = Vec::with_capacity(n);
        for net in circuit.nets() {
            is_or.push(!matches!(net.kind, NetKind::And));
            let c = match &net.kind {
                NetKind::Const(_) | NetKind::Input | NetKind::RegOut(_) => Class::Source,
                NetKind::Test(_) => Class::Test,
                NetKind::Or | NetKind::And => match net.action.map(|a| &circuit.actions()[a.index()]) {
                    None => Class::Gate,
                    Some(Action::Emit { .. }) | Some(Action::AsyncDone(_)) => Class::Early,
                    Some(_) => Class::Late,
                },
            };
            class.push(c);
        }
        let out_signals = circuit
            .signals()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.direction.is_output())
            .map(|(i, s)| (i as u32, Arc::from(s.name.as_str())))
            .collect();
        // Acyclicity analysis: precompute the dense level schedule when
        // the combinational graph levelizes (the common case). Cyclic
        // circuits run the static constructiveness analysis: provably
        // non-constructive ones are rejected here — before any reaction —
        // and the rest get an SCC-condensed hybrid schedule.
        let schedule = LevelSchedule::build(circuit, &class).map(Rc::new);
        let hybrid = match &schedule {
            Some(s) => HybridSchedule::acyclic(s.clone()),
            None => {
                let analysis = circuit.constructiveness();
                if let Some(members) = analysis.first_non_constructive() {
                    let mut stuck = vec![false; n];
                    for m in members {
                        stuck[m.index()] = true;
                    }
                    let report = analyze(circuit, &stuck, members.len(), 0);
                    return Err(RuntimeError::Causality {
                        cycle: report.nets.clone(),
                        undetermined: members.len(),
                        report,
                    });
                }
                HybridSchedule::cyclic(circuit, &class, &analysis.condensation)
            }
        };
        Ok(Program {
            class,
            is_or,
            schedule,
            hybrid,
            out_signals,
            struct_hash: OnceCell::new(),
            cohort_plan: OnceCell::new(),
            sparse: OnceCell::new(),
        })
    }

    /// [`circuit_struct_hash`] of the program's circuit, computed on
    /// first use. `circuit` must be the circuit this program was built
    /// from (any handle on its body).
    pub(crate) fn struct_hash(&self, circuit: &Circuit) -> u64 {
        *self.struct_hash.get_or_init(|| circuit_struct_hash(circuit))
    }

    /// The cohort engine's scatter plan, built on first use. Acyclic
    /// programs only; `circuit` as for [`Program::struct_hash`].
    pub(crate) fn cohort_plan(&self, circuit: &Circuit) -> &CohortPlan {
        self.cohort_plan.get_or_init(|| {
            let sched = self.schedule.as_ref().expect("cohort plan needs a level schedule");
            build_plan(circuit, sched)
        })
    }

    /// The sparse engine's static tables, built on first use. Acyclic
    /// programs only; `circuit` as for [`Program::struct_hash`].
    pub(crate) fn sparse(&self, circuit: &Circuit) -> &SparseTables {
        self.sparse.get_or_init(|| {
            let sched = self.schedule.as_ref().expect("sparse tables need a level schedule");
            SparseTables::build(circuit, sched)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;
    use hiphop_core::prelude::*;

    fn abro() -> Circuit {
        let abro = Module::new("ABRO")
            .input(SignalDecl::new("A", Direction::In))
            .input(SignalDecl::new("B", Direction::In))
            .input(SignalDecl::new("R", Direction::In))
            .output(SignalDecl::new("O", Direction::Out))
            .body(Stmt::loop_each(
                Delay::cond(Expr::now("R")),
                Stmt::seq([
                    Stmt::par([
                        Stmt::await_(Delay::cond(Expr::now("A"))),
                        Stmt::await_(Delay::cond(Expr::now("B"))),
                    ]),
                    Stmt::emit("O"),
                ]),
            ));
        hiphop_compiler::compile_module(&abro, &ModuleRegistry::new())
            .expect("ABRO compiles")
            .circuit
    }

    /// Presence of `O` over boot; A; B; R; A B.
    fn run(m: &mut Machine) -> Vec<bool> {
        let on = Value::Bool(true);
        let steps: [&[&str]; 5] = [&[], &["A"], &["B"], &["R"], &["A", "B"]];
        steps
            .iter()
            .map(|step| {
                let inputs: Vec<(&str, Value)> = step.iter().map(|s| (*s, on.clone())).collect();
                m.react_with(&inputs).expect("reaction").present("O")
            })
            .collect()
    }

    #[test]
    fn machines_on_clones_of_one_circuit_share_one_program() {
        let circuit = abro();
        let a = Machine::new(circuit.clone()).expect("machine");
        let b = Machine::new(circuit.clone()).expect("machine");
        assert!(Rc::ptr_eq(&a.program, &b.program));
        // A separate compile is a separate body, hence a separate
        // program, with the same structural hash.
        let other = Machine::new(abro()).expect("machine");
        assert!(!Rc::ptr_eq(&a.program, &other.program));
        assert_eq!(
            a.program.struct_hash(&a.circuit),
            other.program.struct_hash(&other.circuit)
        );
    }

    #[test]
    fn an_edited_clone_gets_a_fresh_program_and_the_original_keeps_its_own() {
        let circuit = abro();
        let mut before = Machine::new(circuit.clone()).expect("machine");
        let o = circuit.signal_by_name("O").expect("interface signal");
        let mut muted = circuit.clone();
        muted.set_net_edges(circuit.signal(o).status_net, Vec::new(), Vec::new());
        assert!(matches!(
            Machine::new(muted.clone()),
            Err(RuntimeError::UnfinalizedCircuit { .. })
        ));
        muted.finalize();
        let mut muted = Machine::new(muted).expect("machine");
        let mut after = Machine::new(circuit).expect("machine");
        assert!(!Rc::ptr_eq(&muted.program, &before.program));
        assert!(Rc::ptr_eq(&after.program, &before.program));
        let abro_trace = [false, false, true, false, true];
        assert_eq!(run(&mut before), abro_trace);
        assert_eq!(run(&mut after), abro_trace);
        assert_eq!(run(&mut muted), [false; 5]);
    }
}
