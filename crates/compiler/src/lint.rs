//! The circuit lint framework: static diagnostics over a compiled
//! program, each with a stable code (`HH001`…) and a severity level.
//!
//! Lints inspect both the circuit (SCC verdicts from the
//! constructiveness analysis, net liveness) and the checker warnings
//! carried by [`CompiledProgram`], normalizing everything into one
//! [`Lint`] shape so tooling (the CLI `analyze` subcommand, CI deny
//! gates) can filter by code, name or severity uniformly.

use crate::CompiledProgram;
use hiphop_circuit::{Circuit, NetId, NetKind, TestKind, Verdict};
use hiphop_core::ast::Loc;
use hiphop_core::error::Warning;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// How severe a lint finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program is wrong and will be rejected at machine construction.
    Deny,
    /// Suspicious; likely a bug or a runtime-failure risk.
    Warn,
    /// Informational.
    Info,
}

impl Severity {
    /// Lower-case name used in CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Lint {
    /// Stable code (`HH001`…), never reused across lint kinds.
    pub code: &'static str,
    /// Stable kebab-case name (`non-constructive`…), usable with
    /// `--deny` interchangeably with the code.
    pub name: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// Human-readable description of this particular finding.
    pub message: String,
    /// Source location of the offending construct when one is known.
    pub loc: Option<Loc>,
}

impl Lint {
    /// `true` if `filter` names this lint by code or name
    /// (case-insensitive).
    pub fn matches(&self, filter: &str) -> bool {
        filter.eq_ignore_ascii_case(self.code) || filter.eq_ignore_ascii_case(self.name)
    }

    /// One-line pretty rendering: `warn[HH003] message (at loc)`.
    pub fn pretty(&self) -> String {
        let mut s = format!("{}[{}] {}: {}", self.severity, self.code, self.name, self.message);
        if let Some(loc) = &self.loc {
            s.push_str(&format!(" (at {loc})"));
        }
        s
    }

    /// JSON object rendering (stable field order).
    pub fn to_json(&self) -> String {
        let loc = match &self.loc {
            Some(l) => format!("\"{l}\""),
            None => "null".to_owned(),
        };
        format!(
            "{{\"code\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"loc\":{}}}",
            self.code,
            self.name,
            self.severity,
            self.message.replace('\\', "\\\\").replace('"', "\\\""),
            loc
        )
    }
}

/// The signals a set of nets participates in, for diagnostics: distinct
/// `sig_hint` names in first-seen order.
fn involved_signals(circuit: &Circuit, members: &[NetId]) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for &id in members {
        if let Some(sig) = circuit.nets()[id.index()].sig_hint {
            let name = &circuit.signal(sig).name;
            if seen.insert(name.clone()) {
                out.push(name.clone());
            }
        }
    }
    out
}

/// The first concrete source location among `members`, if any.
fn first_loc(circuit: &Circuit, members: &[NetId]) -> Option<Loc> {
    members
        .iter()
        .map(|&id| circuit.nets()[id.index()].loc.clone())
        .find(|loc| *loc != Loc::default())
}

/// Replicates the optimizer's liveness computation (read-only): a net is
/// live iff reachable from a root (action, signal wiring, async notify,
/// boot/terminated, counter tests) through fanins, deps and registers.
fn liveness(circuit: &Circuit) -> Vec<bool> {
    let n = circuit.nets().len();
    let mut live = vec![false; n];
    let mut queue: VecDeque<NetId> = VecDeque::new();
    let mark = |id: NetId, live: &mut Vec<bool>, queue: &mut VecDeque<NetId>| {
        if !live[id.index()] {
            live[id.index()] = true;
            queue.push_back(id);
        }
    };
    for (i, net) in circuit.nets().iter().enumerate() {
        if net.action.is_some()
            || matches!(net.kind, NetKind::Test(TestKind::CounterElapsed { .. }))
        {
            mark(NetId(i as u32), &mut live, &mut queue);
        }
    }
    for s in circuit.signals() {
        mark(s.status_net, &mut live, &mut queue);
        mark(s.pre_net, &mut live, &mut queue);
        if let Some(i) = s.input_net {
            mark(i, &mut live, &mut queue);
        }
        for &e in &s.emitters {
            mark(e, &mut live, &mut queue);
        }
    }
    for a in circuit.asyncs() {
        mark(a.notify_net, &mut live, &mut queue);
    }
    if let Some(b) = circuit.boot_net() {
        mark(b, &mut live, &mut queue);
    }
    if let Some(t) = circuit.terminated_net() {
        mark(t, &mut live, &mut queue);
    }
    while let Some(id) = queue.pop_front() {
        let net = &circuit.nets()[id.index()];
        for f in &net.fanins {
            mark(f.net, &mut live, &mut queue);
        }
        for &d in &net.deps {
            mark(d, &mut live, &mut queue);
        }
        if let NetKind::RegOut(r) = net.kind {
            mark(circuit.registers()[r.index()].input, &mut live, &mut queue);
        }
    }
    live
}

/// Runs every lint over a compiled program and returns the findings,
/// most severe first (stable within a severity).
pub fn lint_compiled(compiled: &CompiledProgram) -> Vec<Lint> {
    let circuit = &compiled.circuit;
    let mut lints = Vec::new();

    // HH001 / HH002: SCC verdicts from the constructiveness analysis.
    for v in &compiled.analysis.verdicts {
        let members = compiled.analysis.condensation.members(v.comp);
        let signals = involved_signals(circuit, members);
        let siglist = if signals.is_empty() {
            String::from("no named signals")
        } else {
            format!("signals {}", signals.join(", "))
        };
        match v.verdict {
            Verdict::NonConstructive => lints.push(Lint {
                code: "HH001",
                name: "non-constructive",
                severity: Severity::Deny,
                message: format!(
                    "cycle of {} net(s) can never stabilize ({siglist}); \
                     the machine will reject this program",
                    members.len()
                ),
                loc: first_loc(circuit, members),
            }),
            Verdict::InputDependent => lints.push(Lint {
                code: "HH002",
                name: "undecided-cycle",
                severity: Severity::Warn,
                message: format!(
                    "cycle of {} net(s) is input-dependent ({siglist}); \
                     some input assignments may deadlock at runtime",
                    members.len()
                ),
                loc: first_loc(circuit, members),
            }),
            Verdict::Constructive => {}
        }
    }

    // HH003: multiple valued emitters without a combine function.
    for info in circuit.signals() {
        if info.combine.is_some() {
            continue;
        }
        let valued_emitters: Vec<NetId> = info
            .emitters
            .iter()
            .copied()
            .filter(|&e| {
                circuit.nets()[e.index()].action.map(|a| &circuit.actions()[a.index()]).is_some_and(
                    |a| matches!(a, hiphop_circuit::Action::Emit { value: Some(_), .. }),
                )
            })
            .collect();
        if valued_emitters.len() > 1 {
            lints.push(Lint {
                code: "HH003",
                name: "multiple-emitters",
                severity: Severity::Warn,
                message: format!(
                    "signal `{}` has {} valued emitters but no combine function; \
                     simultaneous emission is a runtime error",
                    info.name,
                    valued_emitters.len()
                ),
                loc: first_loc(circuit, &valued_emitters),
            });
        }
    }

    // HH004: a local signal that is emitted but never awaited — its
    // status is computed and thrown away.
    for info in circuit.signals() {
        if info.direction != hiphop_core::signal::Direction::Local || info.emitters.is_empty() {
            continue;
        }
        let unread = |id: NetId| {
            circuit.fanouts(id).is_empty() && circuit.dep_fanouts(id).is_empty()
        };
        if unread(info.status_net) && unread(info.pre_net) {
            lints.push(Lint {
                code: "HH004",
                name: "never-awaited",
                severity: Severity::Warn,
                message: format!(
                    "local signal `{}` is emitted but its presence is never tested",
                    info.name
                ),
                loc: first_loc(circuit, &info.emitters)
                    .or_else(|| first_loc(circuit, &[info.status_net])),
            });
        }
    }

    // HH005: dead nets surviving the optimizer (or compiled without it).
    let live = liveness(circuit);
    let dead: Vec<usize> = (0..circuit.nets().len()).filter(|&i| !live[i]).collect();
    if !dead.is_empty() {
        let examples: Vec<&str> = dead
            .iter()
            .take(3)
            .map(|&i| circuit.nets()[i].label)
            .collect();
        lints.push(Lint {
            code: "HH005",
            name: "dead-net",
            severity: Severity::Warn,
            message: format!(
                "{} net(s) feed no action, signal or register (e.g. {}); \
                 re-run the optimizer to sweep them",
                dead.len(),
                examples.join(", ")
            ),
            loc: dead.first().map(|&i| circuit.nets()[i].loc.clone()),
        });
    }

    // HH006 / HH007: checker warnings promoted into the framework, with
    // source locations recovered from the circuit (the checker itself
    // reports name-only).
    for w in &compiled.warnings {
        match w {
            Warning::SharedVariable { var } => lints.push(Lint {
                code: "HH006",
                name: "shared-variable",
                severity: Severity::Warn,
                message: format!(
                    "variable `{var}` is written in one parallel branch and \
                     accessed in a sibling; scheduling order is not part of the semantics"
                ),
                loc: variable_loc(circuit, var),
            }),
            Warning::NeverEmitted { signal } => lints.push(Lint {
                code: "HH007",
                name: "never-emitted",
                severity: Severity::Warn,
                message: format!("output signal `{signal}` is never emitted"),
                loc: signal_loc(circuit, signal),
            }),
        }
    }

    // HH008–HH013: inter-instant dataflow facts (abstract interpretation
    // over all reachable instants; see `hiphop_circuit::dataflow`).
    let facts = hiphop_circuit::dataflow::analyze(circuit);
    for info in circuit.signals() {
        let status = facts.values[info.status_net.index()];
        match info.direction {
            hiphop_core::signal::Direction::Local => {
                if info.emitters.is_empty() {
                    continue;
                }
                // HH008: the local's presence never varies — every await
                // or test of it is decided at compile time.
                if let Some(present) = status.singleton() {
                    lints.push(Lint {
                        code: "HH008",
                        name: "constant-signal",
                        severity: Severity::Info,
                        message: format!(
                            "local signal `{}` is provably {} in every reachable instant",
                            info.name,
                            if present { "present" } else { "absent" }
                        ),
                        loc: first_loc(circuit, &info.emitters)
                            .or_else(|| first_loc(circuit, &[info.status_net])),
                    });
                }
                // HH009: the local IS read somewhere (so HH004 stays
                // silent) but nothing downstream can ever reach an
                // externally observable effect.
                let read = !circuit.fanouts(info.status_net).is_empty()
                    || !circuit.dep_fanouts(info.status_net).is_empty()
                    || !circuit.fanouts(info.pre_net).is_empty()
                    || !circuit.dep_fanouts(info.pre_net).is_empty();
                if read
                    && !facts.observable[info.status_net.index()]
                    && !facts.observable[info.pre_net.index()]
                {
                    lints.push(Lint {
                        code: "HH009",
                        name: "unobservable-signal",
                        severity: Severity::Warn,
                        message: format!(
                            "local signal `{}` is emitted and read, but nothing it \
                             influences is observable in any instant",
                            info.name
                        ),
                        loc: first_loc(circuit, &info.emitters)
                            .or_else(|| first_loc(circuit, &[info.status_net])),
                    });
                }
            }
            hiphop_core::signal::Direction::Out => {
                // HH010: emitted, yet no reachable instant can make it
                // present — every emit is provably dead control flow.
                if !info.emitters.is_empty() && !status.can(true) {
                    lints.push(Lint {
                        code: "HH010",
                        name: "never-emittable",
                        severity: Severity::Warn,
                        message: format!(
                            "output signal `{}` has {} emitter(s) but can never be \
                             present; every emit is provably unreachable",
                            info.name,
                            info.emitters.len()
                        ),
                        loc: first_loc(circuit, &info.emitters),
                    });
                } else if status == hiphop_circuit::ValueSet::ONE {
                    // HH011: must-emit — present in every instant.
                    lints.push(Lint {
                        code: "HH011",
                        name: "always-emitted",
                        severity: Severity::Info,
                        message: format!(
                            "output signal `{}` is present in every reachable instant",
                            info.name
                        ),
                        loc: first_loc(circuit, &info.emitters),
                    });
                }
            }
            _ => {}
        }
    }
    for members in &facts.dep_only_sccs {
        let signals = involved_signals(circuit, members);
        let siglist = if signals.is_empty() {
            String::from("no named signals")
        } else {
            format!("signals {}", signals.join(", "))
        };
        lints.push(Lint {
            code: "HH012",
            name: "dependency-cycle",
            severity: Severity::Warn,
            message: format!(
                "cycle of {} net(s) held together by data dependencies alone \
                 ({siglist}); value resolution deadlocks if all activate in one instant",
                members.len()
            ),
            loc: first_loc(circuit, members),
        });
    }
    for (base, instances) in &facts.schizophrenic {
        let status_nets: Vec<NetId> = circuit
            .signals()
            .iter()
            .filter(|s| s.name.split('@').next().unwrap_or(&s.name) == base)
            .map(|s| s.status_net)
            .collect();
        lints.push(Lint {
            code: "HH013",
            name: "schizophrenic-local",
            severity: Severity::Info,
            message: format!(
                "local signal `{base}` is instantiated {instances} times by loop \
                 reincarnation; each iteration sees a fresh copy"
            ),
            loc: first_loc(circuit, &status_nets),
        });
    }

    lints.sort_by_key(|l| l.severity);
    lints
}

/// The source location of the first atom assigning `var`, for HH006.
fn variable_loc(circuit: &Circuit, var: &str) -> Option<Loc> {
    for net in circuit.nets() {
        if let Some(a) = net.action {
            if let hiphop_circuit::Action::Atom(hiphop_core::ast::AtomBody::Assign(v, _)) =
                &circuit.actions()[a.index()]
            {
                if v == var && net.loc != Loc::default() {
                    return Some(net.loc.clone());
                }
            }
        }
    }
    None
}

/// The source location of a signal's declaration wiring, for HH007: the
/// first concrete loc among its status/pre/input nets.
fn signal_loc(circuit: &Circuit, name: &str) -> Option<Loc> {
    let id = circuit.signal_by_name(name)?;
    let info = circuit.signal(id);
    let mut nets = vec![info.status_net, info.pre_net];
    nets.extend(info.input_net);
    first_loc(circuit, &nets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_module, compile_module_with, CompileOptions};
    use hiphop_core::prelude::*;

    fn lint_of(module: &Module) -> Vec<Lint> {
        lint_compiled(&compile_module(module, &ModuleRegistry::new()).expect("compiles"))
    }

    #[test]
    fn non_constructive_program_gets_a_deny_lint() {
        let m = Module::new("paradox").body(Stmt::local(
            vec![SignalDecl::new("X", Direction::Local)],
            Stmt::if_(Expr::now("X").not(), Stmt::emit("X")),
        ));
        let lints = lint_of(&m);
        let hh001 = lints.iter().find(|l| l.code == "HH001").expect("HH001");
        assert_eq!(hh001.severity, Severity::Deny);
        assert!(hh001.message.contains('X'), "{}", hh001.message);
        assert!(hh001.matches("non-constructive") && hh001.matches("hh001"));
    }

    #[test]
    fn input_dependent_cycle_gets_an_undecided_warning() {
        let m = Module::new("cyc")
            .input(SignalDecl::new("I", Direction::In))
            .body(Stmt::local(
                vec![
                    SignalDecl::new("X", Direction::Local),
                    SignalDecl::new("Y", Direction::Local),
                ],
                Stmt::par([
                    Stmt::if_(Expr::now("Y").or(Expr::now("Y").not()), Stmt::emit("X")),
                    Stmt::if_(Expr::now("X").and(Expr::now("I")), Stmt::emit("Y")),
                    Stmt::if_(Expr::now("X"), Stmt::Nothing),
                ]),
            ));
        let lints = lint_of(&m);
        assert!(lints.iter().any(|l| l.code == "HH002"), "{lints:?}");
        assert!(!lints.iter().any(|l| l.code == "HH001"), "{lints:?}");
    }

    #[test]
    fn multiple_valued_emitters_without_combine_warn() {
        let m = Module::new("multi")
            .output(SignalDecl::new("V", Direction::Out))
            .body(Stmt::par([
                Stmt::emit_val("V", Expr::num(1.0)),
                Stmt::emit_val("V", Expr::num(2.0)),
            ]));
        let lints = lint_of(&m);
        let hh003 = lints.iter().find(|l| l.code == "HH003").expect("HH003");
        assert!(hh003.message.contains("`V`"), "{}", hh003.message);
    }

    #[test]
    fn combine_silences_the_multiple_emitter_lint() {
        let m = Module::new("multi")
            .output(SignalDecl::new("V", Direction::Out).with_combine(Combine::Plus))
            .body(Stmt::par([
                Stmt::emit_val("V", Expr::num(1.0)),
                Stmt::emit_val("V", Expr::num(2.0)),
            ]));
        assert!(!lint_of(&m).iter().any(|l| l.code == "HH003"));
    }

    #[test]
    fn never_awaited_local_signal_warns() {
        let m = Module::new("waste").body(Stmt::local(
            vec![SignalDecl::new("S", Direction::Local)],
            Stmt::emit("S"),
        ));
        let lints = lint_of(&m);
        let hh004 = lints.iter().find(|l| l.code == "HH004").expect("HH004");
        assert!(hh004.message.contains("`S%"), "{}", hh004.message);
    }

    #[test]
    fn optimized_programs_have_no_dead_nets() {
        let m = Module::new("clean")
            .input(SignalDecl::new("I", Direction::In))
            .output(SignalDecl::new("O", Direction::Out))
            .body(Stmt::every(
                Delay::cond(Expr::now("I")),
                Stmt::emit("O"),
            ));
        assert!(!lint_of(&m).iter().any(|l| l.code == "HH005"));
    }

    #[test]
    fn unoptimized_compilation_reports_dead_nets() {
        // Without the optimizer, translation scaffolding (dead buffers)
        // survives and HH005 points at it.
        let m = Module::new("raw")
            .output(SignalDecl::new("O", Direction::Out))
            .body(Stmt::seq([Stmt::emit("O"), Stmt::Pause, Stmt::emit("O")]));
        let compiled =
            compile_module_with(&m, &ModuleRegistry::new(), CompileOptions { optimize: false, ..CompileOptions::default() })
                .expect("compiles");
        let lints = lint_compiled(&compiled);
        // The lint only fires if the raw translation actually leaves
        // unreachable nets; either way the optimized build must be clean.
        let optimized = compile_module(&m, &ModuleRegistry::new()).expect("compiles");
        assert!(!lint_compiled(&optimized).iter().any(|l| l.code == "HH005"));
        drop(lints);
    }

    #[test]
    fn checker_warnings_are_promoted() {
        let m = Module::new("silent")
            .output(SignalDecl::new("O", Direction::Out))
            .body(Stmt::Nothing);
        let lints = lint_of(&m);
        let hh007 = lints.iter().find(|l| l.code == "HH007").expect("HH007");
        assert_eq!(hh007.severity, Severity::Warn);
        assert!(hh007.message.contains("`O`"));
    }

    /// Wraps a hand-built circuit in a [`CompiledProgram`] so circuits
    /// that no statement surface produces (dep-only cycles, pinned
    /// self-registers) can still be linted.
    fn hand_compiled(mut circuit: hiphop_circuit::Circuit) -> crate::CompiledProgram {
        circuit.finalize();
        let analysis = circuit.constructiveness();
        let cycle_warnings = analysis.condensation.nontrivial().len();
        let levels = circuit.levelize().map(|lv| lv.levels());
        crate::CompiledProgram {
            circuit,
            warnings: vec![],
            cycle_warnings,
            levels,
            analysis,
            optimizer: None,
        }
    }

    fn local_signal(
        c: &mut hiphop_circuit::Circuit,
        name: &str,
        dir: Direction,
        status: hiphop_circuit::NetId,
        emitters: Vec<hiphop_circuit::NetId>,
    ) {
        let (pre_reg, pre) = c.register(false, "sig.pre");
        c.set_register_input(pre_reg, status);
        c.add_signal(hiphop_circuit::SignalInfo {
            name: name.into(),
            direction: dir,
            init: None,
            combine: None,
            status_net: status,
            pre_net: pre,
            input_net: None,
            emitters,
        });
    }

    #[test]
    fn hh008_constant_local_signal() {
        // The only emit of S sits behind a halt: S is provably absent in
        // every instant, yet it IS read (so HH004 stays silent).
        let m = Module::new("dead_emit")
            .output(SignalDecl::new("O", Direction::Out))
            .body(Stmt::local(
                vec![SignalDecl::new("S", Direction::Local)],
                Stmt::seq([
                    Stmt::if_(Expr::now("S"), Stmt::emit("O")),
                    Stmt::Halt,
                    Stmt::emit("S"),
                ]),
            ));
        let lints = lint_of(&m);
        let hh008 = lints.iter().find(|l| l.code == "HH008").expect("HH008");
        assert_eq!(hh008.severity, Severity::Info);
        assert!(hh008.message.contains("absent"), "{}", hh008.message);
        // Known-clean twin: the emit is reachable.
        let clean = Module::new("live_emit")
            .output(SignalDecl::new("O", Direction::Out))
            .body(Stmt::local(
                vec![SignalDecl::new("S", Direction::Local)],
                Stmt::seq([
                    Stmt::emit("S"),
                    Stmt::if_(Expr::now("S"), Stmt::emit("O")),
                    Stmt::Halt,
                ]),
            ));
        assert!(!lint_of(&clean).iter().any(|l| l.code == "HH008"));
    }

    #[test]
    fn hh009_unobservable_local_signal() {
        use hiphop_circuit::{Action, Circuit, Fanin};
        // S is emitted (input-driven) and read — but its only reader
        // feeds another local nobody observes.
        let mut c = Circuit::new("dark");
        let i = c.input("i");
        let emit_s = c.or(vec![Fanin::pos(i)], "emit_s");
        let s_status = c.or(vec![Fanin::pos(emit_s)], "s.status");
        local_signal(&mut c, "S@1", Direction::Local, s_status, vec![emit_s]);
        c.attach_action(emit_s, Action::Emit { signal: hiphop_circuit::SignalId(0), value: None });
        let reader = c.and(vec![Fanin::pos(s_status)], "reader");
        let t_status = c.or(vec![Fanin::pos(reader)], "t.status");
        local_signal(&mut c, "T@2", Direction::Local, t_status, vec![reader]);
        c.attach_action(reader, Action::Emit { signal: hiphop_circuit::SignalId(1), value: None });
        let lints = lint_compiled(&hand_compiled(c));
        let hh009 = lints.iter().find(|l| l.code == "HH009").expect("HH009");
        assert!(hh009.message.contains("`S@1`"), "{}", hh009.message);

        // Clean twin: the second signal is an output, so the whole chain
        // becomes observable.
        let mut c = Circuit::new("lit");
        let i = c.input("i");
        let emit_s = c.or(vec![Fanin::pos(i)], "emit_s");
        let s_status = c.or(vec![Fanin::pos(emit_s)], "s.status");
        local_signal(&mut c, "S@1", Direction::Local, s_status, vec![emit_s]);
        c.attach_action(emit_s, Action::Emit { signal: hiphop_circuit::SignalId(0), value: None });
        let reader = c.and(vec![Fanin::pos(s_status)], "reader");
        let t_status = c.or(vec![Fanin::pos(reader)], "t.status");
        local_signal(&mut c, "T", Direction::Out, t_status, vec![reader]);
        c.attach_action(reader, Action::Emit { signal: hiphop_circuit::SignalId(1), value: None });
        assert!(!lint_compiled(&hand_compiled(c)).iter().any(|l| l.code == "HH009"));
    }

    #[test]
    fn hh010_never_emittable_output() {
        let m = Module::new("never")
            .output(SignalDecl::new("O", Direction::Out))
            .body(Stmt::seq([Stmt::Halt, Stmt::emit("O")]));
        let lints = lint_of(&m);
        let hh010 = lints.iter().find(|l| l.code == "HH010").expect("HH010");
        assert_eq!(hh010.severity, Severity::Warn);
        assert!(hh010.message.contains("`O`"), "{}", hh010.message);
        // HH007 must NOT fire: the emit exists syntactically.
        assert!(!lints.iter().any(|l| l.code == "HH007"), "{lints:?}");
        // Clean twin: the emit runs before the halt.
        let clean = Module::new("once")
            .output(SignalDecl::new("O", Direction::Out))
            .body(Stmt::seq([Stmt::emit("O"), Stmt::Halt]));
        assert!(!lint_of(&clean).iter().any(|l| l.code == "HH010"));
    }

    #[test]
    fn hh011_always_emitted_output() {
        use hiphop_circuit::{Action, Circuit, Fanin};
        // A self-latched register stuck at 1 drives the emitter: the
        // output is present in every instant.
        let mut c = Circuit::new("sustained");
        let (r, out) = c.register(true, "latch");
        c.set_register_input(r, out);
        let emit_o = c.or(vec![Fanin::pos(out)], "emit_o");
        let status = c.or(vec![Fanin::pos(emit_o)], "o.status");
        local_signal(&mut c, "O", Direction::Out, status, vec![emit_o]);
        c.attach_action(emit_o, Action::Emit { signal: hiphop_circuit::SignalId(0), value: None });
        let lints = lint_compiled(&hand_compiled(c));
        let hh011 = lints.iter().find(|l| l.code == "HH011").expect("HH011");
        assert!(hh011.message.contains("every reachable instant"), "{}", hh011.message);

        // Clean twin: input-driven emission is neither must nor never.
        let mut c = Circuit::new("sometimes");
        let i = c.input("i");
        let emit_o = c.or(vec![Fanin::pos(i)], "emit_o");
        let status = c.or(vec![Fanin::pos(emit_o)], "o.status");
        local_signal(&mut c, "O", Direction::Out, status, vec![emit_o]);
        c.attach_action(emit_o, Action::Emit { signal: hiphop_circuit::SignalId(0), value: None });
        let lints = lint_compiled(&hand_compiled(c));
        assert!(!lints.iter().any(|l| l.code == "HH011" || l.code == "HH010"));
    }

    #[test]
    fn hh012_dependency_only_cycle() {
        use hiphop_circuit::{Circuit, Fanin};
        let mut c = Circuit::new("depcycle");
        let i = c.input("i");
        let a = c.or(vec![Fanin::pos(i)], "a");
        let b = c.or(vec![Fanin::pos(i)], "b");
        c.add_dep(a, b);
        c.add_dep(b, a);
        let lints = lint_compiled(&hand_compiled(c));
        let hh012 = lints.iter().find(|l| l.code == "HH012").expect("HH012");
        assert!(hh012.message.contains("data dependencies alone"), "{}", hh012.message);

        // Clean twin: an acyclic dependency chain.
        let mut c = Circuit::new("depchain");
        let i = c.input("i");
        let a = c.or(vec![Fanin::pos(i)], "a");
        let b = c.or(vec![Fanin::pos(i)], "b");
        c.add_dep(b, a);
        assert!(!lint_compiled(&hand_compiled(c)).iter().any(|l| l.code == "HH012"));
    }

    #[test]
    fn hh013_schizophrenic_local() {
        // A loop whose parallel body forces reincarnation duplication:
        // the local is instantiated once per copy.
        let m = Module::new("reinc")
            .output(SignalDecl::new("O", Direction::Out))
            .body(Stmt::loop_(Stmt::par([
                Stmt::local(
                    vec![SignalDecl::new("s", Direction::Local)],
                    Stmt::seq([
                        Stmt::emit("s"),
                        Stmt::if_(Expr::now("s"), Stmt::emit("O")),
                        Stmt::Pause,
                    ]),
                ),
                Stmt::Pause,
            ])));
        let lints = lint_of(&m);
        let hh013 = lints.iter().find(|l| l.code == "HH013").expect("HH013");
        assert!(hh013.message.contains("`s%"), "{}", hh013.message);
        assert!(hh013.message.contains("2 times"), "{}", hh013.message);

        // Clean twin: the local lives outside the loop, so reincarnation
        // never duplicates it.
        let clean = Module::new("single")
            .output(SignalDecl::new("O", Direction::Out))
            .body(Stmt::local(
                vec![SignalDecl::new("s", Direction::Local)],
                Stmt::loop_(Stmt::seq([
                    Stmt::emit("s"),
                    Stmt::if_(Expr::now("s"), Stmt::emit("O")),
                    Stmt::Pause,
                ])),
            ));
        assert!(!lint_of(&clean).iter().any(|l| l.code == "HH013"));
    }

    #[test]
    fn hh006_and_signal_lints_carry_locations() {
        // An assignment with a concrete source location shared across
        // parallel branches: HH006 must point at the atom's loc.
        let mut assign = Stmt::assign("x", Expr::num(1.0));
        if let Stmt::Atom { loc, .. } = &mut assign {
            *loc = hiphop_core::ast::Loc::new(7, 3);
        }
        let m = Module::new("shared")
            .output(SignalDecl::new("s", Direction::Out))
            .body(Stmt::par([
                assign,
                Stmt::seq([
                    Stmt::Pause,
                    Stmt::if_(Expr::var("x").gt(Expr::num(0.0)), Stmt::emit("s")),
                ]),
            ]));
        let lints = lint_of(&m);
        let hh006 = lints.iter().find(|l| l.code == "HH006").expect("HH006");
        assert_eq!(hh006.loc, Some(hiphop_core::ast::Loc::new(7, 3)), "{hh006:?}");

        // Signal lints take their loc from the emit site (here HH004).
        let mut emit = Stmt::emit("S");
        if let Stmt::Emit { loc, .. } = &mut emit {
            *loc = hiphop_core::ast::Loc::new(9, 5);
        }
        let m = Module::new("waste").body(Stmt::local(
            vec![SignalDecl::new("S", Direction::Local)],
            emit,
        ));
        let lints = lint_of(&m);
        let hh004 = lints.iter().find(|l| l.code == "HH004").expect("HH004");
        assert_eq!(hh004.loc, Some(hiphop_core::ast::Loc::new(9, 5)), "{hh004:?}");
    }

    #[test]
    fn lint_renderings_are_stable() {
        let l = Lint {
            code: "HH003",
            name: "multiple-emitters",
            severity: Severity::Warn,
            message: "signal `V` has 2 valued emitters".to_owned(),
            loc: None,
        };
        assert_eq!(
            l.pretty(),
            "warn[HH003] multiple-emitters: signal `V` has 2 valued emitters"
        );
        assert_eq!(
            l.to_json(),
            "{\"code\":\"HH003\",\"name\":\"multiple-emitters\",\"severity\":\"warn\",\
             \"message\":\"signal `V` has 2 valued emitters\",\"loc\":null}"
        );
    }
}
