//! Property-based tests over randomly generated reactive programs.
//!
//! The generator (`hiphop_bench::synthetic_program`) emits well-formed
//! programs from a seed; the properties below are the system's core
//! meta-theorems:
//!
//! 1. compilation is total on well-formed programs;
//! 2. reactions are deterministic (same inputs ⇒ same outputs);
//! 3. the optimizer preserves observable behavior exactly;
//! 4. reaction work is linear in circuit size (paper §5.2);
//! 5. the textual pipeline (print → parse) preserves behavior;
//! 6. built-in combine functions are commutative, making simultaneous
//!    emission order unobservable.
//!
//! The harness is a deterministic seed sweep over the internal
//! `hiphop_core::rng` generator (the external `proptest` dependency was
//! dropped so the repository builds offline); every failure message
//! includes the case seed, which reproduces the program exactly.

mod common;

use common::input_schedule;
use hiphop::compiler::{compile_module_with, CompileOptions};
use hiphop::prelude::*;
use hiphop::runtime::EngineMode;
use hiphop_bench::synthetic_program;
use hiphop_core::rng::Rng;

/// Runs `f` over `n` deterministic cases; each case gets its own
/// generator seeded from the sweep position.
fn cases(n: u64, f: impl Fn(&mut Rng, u64)) {
    for case in 0..n {
        let seed = 0xC0FFEE ^ (case.wrapping_mul(0x9E3779B97F4A7C15));
        let mut rng = Rng::seed_from_u64(seed);
        f(&mut rng, seed);
    }
}

/// Drives `machine` with a deterministic pseudo-random input schedule and
/// returns the trace of all output snapshots.
fn drive(machine: &mut Machine, seed: u64, steps: usize) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut trace = Vec::new();
    let r = machine.react().expect("boot");
    trace.push(format!("{:?}", r.outputs));
    for _ in 0..steps {
        let mut inputs: Vec<(String, Value)> = Vec::new();
        for k in 0..8 {
            if rng.gen_bool(0.3) {
                inputs.push((format!("i{k}"), Value::from(rng.gen_range(0i64..5))));
            }
        }
        let refs: Vec<(&str, Value)> = inputs
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        let r = machine.react_with(&refs).expect("reaction");
        trace.push(format!("{:?}", r.outputs));
    }
    trace
}

#[test]
fn compilation_is_total() {
    cases(24, |rng, seed| {
        let size = rng.gen_range(10usize..120);
        let module = synthetic_program(size, seed);
        let compiled = compile_module_with(
            &module,
            &ModuleRegistry::new(),
            CompileOptions::default(),
        );
        assert!(compiled.is_ok(), "seed {seed}: {:?}", compiled.err());
    });
}

#[test]
fn reactions_are_deterministic() {
    cases(24, |rng, seed| {
        let size = rng.gen_range(10usize..100);
        let module = synthetic_program(size, seed);
        let build = || {
            let c = compile_module_with(&module, &ModuleRegistry::new(), CompileOptions::default())
                .expect("compiles");
            Machine::new(c.circuit).expect("finalized circuit")
        };
        let t1 = drive(&mut build(), seed ^ 1, 30);
        let t2 = drive(&mut build(), seed ^ 1, 30);
        assert_eq!(t1, t2, "seed {seed}");
    });
}

#[test]
fn optimizer_preserves_behavior() {
    cases(24, |rng, seed| {
        let size = rng.gen_range(10usize..100);
        let module = synthetic_program(size, seed);
        let run = |optimize: bool| {
            let c = compile_module_with(
                &module,
                &ModuleRegistry::new(),
                CompileOptions { optimize, ..CompileOptions::default() },
            )
            .expect("compiles");
            drive(&mut Machine::new(c.circuit).expect("finalized circuit"), seed ^ 2, 30)
        };
        assert_eq!(run(true), run(false), "seed {seed}");
    });
}

#[test]
fn reaction_work_is_linear_in_circuit_size() {
    cases(24, |rng, seed| {
        let size = rng.gen_range(20usize..120);
        let module = synthetic_program(size, seed);
        let c = compile_module_with(&module, &ModuleRegistry::new(), CompileOptions::default())
            .expect("compiles");
        let stats = c.circuit.stats();
        let bound = 4 * (stats.nets + stats.fanin_edges + stats.dep_edges) + 64;
        let mut machine = Machine::new(c.circuit).expect("finalized circuit");
        let r = machine.react().expect("boot");
        assert!(
            r.events <= bound,
            "seed {seed}: events {} exceed linear bound {bound}",
            r.events
        );
        for _ in 0..5 {
            let r = machine
                .react_with(&[("i0", Value::Bool(true))])
                .expect("reaction");
            assert!(r.events <= bound, "seed {seed}");
        }
    });
}

#[test]
fn print_parse_roundtrip_preserves_behavior() {
    cases(24, |rng, seed| {
        let size = rng.gen_range(10usize..80);
        let module = synthetic_program(size, seed);
        // Render the module in concrete syntax.
        let mut iface = Vec::new();
        for d in &module.interface {
            iface.push(format!("{} {}", d.direction, d.name));
        }
        let src = format!("module M({}) {{\n{}\n}}", iface.join(", "), module.body);
        let (parsed, reg) =
            hiphop::lang::parse_program(&src, "M", &hiphop::lang::HostRegistry::new())
                .unwrap_or_else(|e| panic!("seed {seed}: reparse: {e}\n{src}"));
        // Re-attach the combine/init declarations (not rendered by the
        // statement printer) so behavior matches.
        let mut parsed = parsed;
        parsed.interface = module.interface.clone();
        let reference = {
            let c = compile_module_with(&module, &ModuleRegistry::new(), CompileOptions::default())
                .expect("compiles");
            drive(&mut Machine::new(c.circuit).expect("finalized circuit"), seed ^ 3, 20)
        };
        let reparsed = {
            let c = compile_module_with(&parsed, &reg, CompileOptions::default())
                .expect("reparsed compiles");
            drive(&mut Machine::new(c.circuit).expect("finalized circuit"), seed ^ 3, 20)
        };
        assert_eq!(reference, reparsed, "seed {seed}: source:\n{src}");
    });
}

#[test]
fn builtin_combines_are_commutative() {
    cases(64, |rng, _| {
        let a = (rng.gen_f64() - 0.5) * 2e6;
        let b = (rng.gen_f64() - 0.5) * 2e6;
        for c in [
            Combine::Plus,
            Combine::Mul,
            Combine::Min,
            Combine::Max,
            Combine::And,
            Combine::Or,
        ] {
            let x = Value::Num(a);
            let y = Value::Num(b);
            assert_eq!(c.apply(&x, &y), c.apply(&y, &x), "{c:?} on {a} {b}");
        }
    });
}

#[test]
fn emission_order_is_unobservable() {
    cases(24, |rng, seed| {
        // Emit the same values from parallel branches in two different
        // static orders; the combined result must agree.
        let len = rng.gen_range(2usize..6);
        let vals: Vec<i64> = (0..len).map(|_| rng.gen_range(-100i64..100)).collect();
        let build = |values: &[i64]| {
            let branches: Vec<Stmt> = values
                .iter()
                .map(|&v| Stmt::emit_val("acc", Expr::num(v as f64)))
                .collect();
            Module::new("T")
                .output(
                    SignalDecl::new("acc", Direction::Out)
                        .with_init(0i64)
                        .with_combine(Combine::Plus),
                )
                .body(Stmt::par(branches))
        };
        let run = |values: &[i64]| {
            let m = build(values);
            let c = compile_module_with(&m, &ModuleRegistry::new(), CompileOptions::default())
                .expect("compiles");
            let mut machine = Machine::new(c.circuit).expect("finalized circuit");
            machine.react().expect("boot").value("acc")
        };
        let mut rev = vals.clone();
        rev.reverse();
        assert_eq!(run(&vals), run(&rev), "seed {seed}: {vals:?}");
    });
}

/// Seed count for the cross-engine differential sweep. CI widens it via
/// `HIPHOP_PROPTEST_SEEDS`; the default keeps `cargo test` quick.
fn sweep_seeds() -> u64 {
    std::env::var("HIPHOP_PROPTEST_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// One reaction's observable record: the sorted `name=present:value`
/// rendering of all outputs, or the error class if the reaction failed.
/// The drive stops at the first error (the machine is poisoned), so a
/// diverging verdict also truncates the trace and is caught by the
/// whole-trace comparison.
fn observable_trace(
    schedule: &[Vec<(String, Value)>],
    mut react: impl FnMut(&[(&str, Value)]) -> Result<Vec<String>, String>,
) -> Vec<String> {
    let mut trace = Vec::new();
    let boot: &[Vec<(String, Value)>] = &[Vec::new()];
    for instant in boot.iter().chain(schedule.iter()) {
        let refs: Vec<(&str, Value)> = instant
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        match react(&refs) {
            Ok(mut outputs) => {
                outputs.sort();
                trace.push(outputs.join(" "));
            }
            Err(verdict) => {
                trace.push(format!("<error: {verdict}>"));
                break;
            }
        }
    }
    trace
}

#[test]
fn all_engines_agree_with_the_interpreter() {
    // The tentpole meta-theorem: every generated program produces
    // identical per-reaction output sets and identical causality
    // verdicts under the levelized, constructive and naive engines AND
    // the reference AST interpreter.
    cases(sweep_seeds(), |rng, seed| {
        let size = rng.gen_range(10usize..100);
        let module = synthetic_program(size, seed);
        let schedule = input_schedule(seed ^ 5, 25);

        let engine_trace = |mode: EngineMode| {
            let c = compile_module_with(&module, &ModuleRegistry::new(), CompileOptions::default())
                .expect("compiles");
            let mut m = Machine::new(c.circuit).expect("finalized circuit");
            assert_eq!(
                m.set_engine(mode),
                mode,
                "seed {seed}: synthetic programs are acyclic, every engine is available"
            );
            observable_trace(&schedule, |refs| {
                m.react_with(refs)
                    .map(|r| {
                        r.outputs
                            .iter()
                            .map(|o| format!("{}={}:{}", o.name, o.present as u8, o.value))
                            .collect()
                    })
                    .map_err(|e| match e {
                        RuntimeError::Causality { .. } => "causality".to_owned(),
                        other => other.to_string(),
                    })
            })
        };

        let reference = {
            let mut interp = hiphop_interp::Interp::new(&module, &ModuleRegistry::new())
                .unwrap_or_else(|e| panic!("seed {seed}: interp: {e}"));
            observable_trace(&schedule, |refs| {
                interp
                    .react_with(refs)
                    .map(|r| {
                        r.outputs
                            .iter()
                            .map(|(n, p, v)| format!("{n}={}:{v}", *p as u8))
                            .collect()
                    })
                    .map_err(|e| match e {
                        hiphop_interp::InterpError::Causality(_) => "causality".to_owned(),
                        other => other.to_string(),
                    })
            })
        };

        for mode in [
            EngineMode::Levelized,
            EngineMode::Constructive,
            EngineMode::Naive,
            EngineMode::Hybrid,
            EngineMode::Sparse,
        ] {
            assert_eq!(
                engine_trace(mode),
                reference,
                "seed {seed}: {mode} disagrees with the interpreter"
            );
        }
    });
}

#[test]
fn fact_driven_shrinking_preserves_behavior_under_every_engine() {
    // The inter-instant dataflow shrink (constant pinning, unread-`pre`
    // register pruning) must be unobservable: with and without it, every
    // engine produces the identical output trace on the identical input
    // schedule. This is the differential gate for the abstract
    // interpretation — any unsound fact would fold a live net and show
    // up here as a diverging trace.
    cases(24, |rng, seed| {
        let size = rng.gen_range(10usize..120);
        let module = synthetic_program(size, seed);
        let schedule = input_schedule(seed ^ 6, 25);
        let run = |dataflow: bool, mode: EngineMode| {
            let c = compile_module_with(
                &module,
                &ModuleRegistry::new(),
                CompileOptions { optimize: true, dataflow },
            )
            .expect("compiles");
            let mut m = Machine::new(c.circuit).expect("finalized circuit");
            assert_eq!(m.set_engine(mode), mode, "seed {seed}");
            observable_trace(&schedule, |refs| {
                m.react_with(refs)
                    .map(|r| {
                        r.outputs
                            .iter()
                            .map(|o| format!("{}={}:{}", o.name, o.present as u8, o.value))
                            .collect()
                    })
                    .map_err(|e| e.to_string())
            })
        };
        for mode in [
            EngineMode::Levelized,
            EngineMode::Constructive,
            EngineMode::Naive,
            EngineMode::Hybrid,
            EngineMode::Sparse,
        ] {
            assert_eq!(
                run(true, mode),
                run(false, mode),
                "seed {seed}: the fact shrink changes behavior under {mode}"
            );
        }
    });
}

#[test]
fn naive_and_event_driven_engines_agree() {
    cases(16, |rng, seed| {
        // The O(n²) sweep engine is an independent implementation of the
        // constructive fixpoint; both engines must produce identical
        // observable traces on the same circuit.
        let size = rng.gen_range(10usize..100);
        let module = synthetic_program(size, seed);
        let run = |naive: bool| {
            let c = compile_module_with(&module, &ModuleRegistry::new(), CompileOptions::default())
                .expect("compiles");
            let mut m = Machine::new(c.circuit).expect("finalized circuit");
            m.set_naive(naive);
            drive(&mut m, seed ^ 4, 25)
        };
        assert_eq!(run(false), run(true), "seed {seed}");
    });
}

#[test]
fn self_loops_are_rejected_statically_for_every_engine() {
    // Both self-loop polarities (`X = not X` and `X = X`) used to
    // deadlock at runtime under every engine; the static
    // constructiveness analysis now rejects them at `Machine::new`
    // with the same structured causality report, so no engine ever
    // sees a reaction.
    for flip in [false, true] {
        let body = if flip {
            Stmt::local(
                vec![SignalDecl::new("X", Direction::Local)],
                Stmt::if_(Expr::now("X").not(), Stmt::emit("X")),
            )
        } else {
            Stmt::local(
                vec![SignalDecl::new("X", Direction::Local)],
                Stmt::if_(Expr::now("X"), Stmt::emit("X")),
            )
        };
        let module = Module::new("cyc").body(body);
        let c = compile_module_with(&module, &ModuleRegistry::new(), CompileOptions::default())
            .expect("compiles");
        let causality = matches!(
            Machine::new(c.circuit),
            Err(RuntimeError::Causality { .. })
        );
        assert!(causality, "flip {flip}");
    }
}
