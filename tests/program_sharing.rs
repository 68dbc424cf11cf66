//! Compile once, instantiate many.
//!
//! Machines built on clones of one compiled circuit share the program
//! derived from it, including its memoized structural hash. That hash is
//! what snapshots and cohorts use to tell programs apart, so these tests
//! pin it to [`circuit_struct_hash`] for every shipped example and both
//! Skini scores. They also check that identity never depends on which
//! compile a machine came from.

use hiphop::circuit::Circuit;
use hiphop::compiler::compile_module;
use hiphop::lang::{parse_file, HostRegistry};
use hiphop::runtime::{circuit_struct_hash, cohort_key};
use hiphop::skini::{generate, ScoreShape};
use hiphop::{Machine, RuntimeError};
use hiphop_core::module::ModuleRegistry;

/// Every `examples/hh/*.hh` program, compiled. `supervised_abort.hh`
/// needs two host hooks; no-op stand-ins are enough to compile it.
fn example_circuits() -> Vec<(String, Circuit)> {
    let mut hosts = HostRegistry::new();
    hosts.async_hook("fetch.spawn", |_| {});
    hosts.async_hook("fetch.kill", |_| {});
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/hh");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/hh exists")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "hh"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&path).expect("readable example");
            let registry = parse_file(&source, &hosts).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut modules: Vec<_> = registry.iter().collect();
            assert_eq!(modules.len(), 1, "{name}: one module per example");
            let main = modules.pop().unwrap().clone();
            let compiled = compile_module(&main, &registry).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, compiled.circuit)
        })
        .collect()
}

fn score_circuit(shape: ScoreShape) -> Circuit {
    compile_module(&generate(shape).0, &ModuleRegistry::new())
        .expect("scores compile")
        .circuit
}

#[test]
fn the_memoized_hash_is_the_structural_hash_of_every_example_and_score() {
    let mut circuits = example_circuits();
    assert!(circuits.len() >= 6, "examples/hh lost programs: {}", circuits.len());
    circuits.push(("concert".to_owned(), score_circuit(ScoreShape::concert())));
    circuits.push(("classical".to_owned(), score_circuit(ScoreShape::classical())));
    let mut rejected = Vec::new();
    for (name, circuit) in circuits {
        let expected = circuit_struct_hash(&circuit);
        match Machine::new(circuit.clone()) {
            Ok(first) => {
                // A second machine on another clone finds the memo.
                let second = Machine::new(circuit.clone()).expect("same circuit");
                for m in [&first, &second] {
                    assert_eq!(m.snapshot().struct_hash, expected, "{name}");
                    if let Some(key) = cohort_key(m) {
                        assert_eq!(key, expected, "{name}: cohort key");
                    }
                }
                assert_eq!(circuit_struct_hash(first.circuit()), expected, "{name}");
            }
            Err(err) => {
                assert!(matches!(err, RuntimeError::Causality { .. }), "{name}: {err}");
                // The rejection is memoized like a program.
                assert_eq!(Machine::new(circuit).unwrap_err(), err, "{name}");
                rejected.push(name);
            }
        }
    }
    assert_eq!(rejected, ["causality_cycle"], "only the paradox is rejected");
}

#[test]
fn a_snapshot_restores_onto_a_machine_from_a_separate_compile() {
    let beat = |m: &mut Machine| m.react_with(&[("beat", true.into())]).expect("beat");
    let mut source = Machine::new(score_circuit(ScoreShape::concert())).expect("machine");
    source.react().expect("boot");
    for _ in 0..20 {
        beat(&mut source);
    }
    let snap = source.snapshot();

    let separate = score_circuit(ScoreShape::concert());
    assert_eq!(circuit_struct_hash(&separate), snap.struct_hash);
    let mut target = Machine::new(separate).expect("machine");
    target.restore(&snap).expect("same structure, separate compile");
    assert_eq!(target.state_digest(), source.state_digest());
    for _ in 0..20 {
        let want = beat(&mut source);
        assert_eq!(beat(&mut target), want);
    }
    assert_eq!(target.state_digest(), source.state_digest());
}
