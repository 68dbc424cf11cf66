//! Compile-pipeline probes, timed from outside through the compiler's
//! public entry points: `link` + `check`, then `compile_linked` with the
//! optimizer off, syntactic-only and in full, then the circuit analyses.

use crate::stats::median;
use crate::workload::Program;
use hiphop_compiler::{compile_linked, compile_module, CompileOptions};
use hiphop_core::check::check;
use hiphop_core::module::{link, ModuleRegistry};
use hiphop_runtime::Machine;
use std::hint::black_box;
use std::time::Instant;

/// What the compile probes measured for one program.
#[derive(Debug, Clone)]
pub struct CompileProbe {
    /// Median `compile_module` time, ms.
    pub compile_ms: f64,
    /// Median `link` + `check` time, ms.
    pub link_check_ms: f64,
    /// Median `compile_linked` time with the optimizer off, ms.
    pub translate_ms: f64,
    /// Syntactic-only compile minus `translate_ms`, ms.
    pub optimize_ms: f64,
    /// Default compile minus the syntactic-only compile, ms.
    pub dataflow_ms: f64,
    /// Median `Circuit::constructiveness` time, ms.
    pub analysis_ms: f64,
    /// Median `Circuit::levelize` time, ms.
    pub levelize_ms: f64,
    /// Median `Machine::new` time on the compiled circuit, µs.
    pub machine_new_us: f64,
    /// Nets in the compiled circuit.
    pub nets: usize,
    /// Registers in the compiled circuit.
    pub registers: usize,
    /// Topological levels (0 for a cyclic circuit).
    pub levels: usize,
    /// Estimated circuit structure size, bytes.
    pub bytes: usize,
}

/// Median over `reps` runs of `f`, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Probes `program`'s compile pipeline stage by stage, each timing the
/// median of `reps` calls.
pub fn probe(program: Program, reps: usize) -> Result<CompileProbe, String> {
    let module = program.module();
    let registry = ModuleRegistry::new();
    let compiled = compile_module(&module, &registry).map_err(|e| e.to_string())?;
    let compile_ms = time_ms(reps, || {
        compile_module(&module, &registry).expect("compiled once")
    });

    let linked = link(&module, &registry).map_err(|e| e.to_string())?;
    let link_check_ms = time_ms(reps, || {
        let linked = link(&module, &registry).expect("linked once");
        check(&linked).expect("checked once")
    });
    let compile = |optimize, dataflow| {
        time_ms(reps, || {
            compile_linked(&linked, CompileOptions { optimize, dataflow }).expect("compiled once")
        })
    };
    let translate_ms = compile(false, false);
    let syntactic_ms = compile(true, false);
    let full_ms = compile(true, true);

    let circuit = &compiled.circuit;
    let analysis_ms = time_ms(reps, || circuit.constructiveness());
    let levelize_ms = time_ms(reps, || circuit.levelize());
    let machine_new_us = 1e3
        * median(
            &(0..reps.max(1))
                .map(|_| {
                    let c = circuit.clone();
                    let t = Instant::now();
                    let m = Machine::new(c).expect("compiled circuits are finalized");
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    drop(black_box(m));
                    ms
                })
                .collect::<Vec<_>>(),
        );
    let stats = circuit.stats();
    Ok(CompileProbe {
        compile_ms,
        link_check_ms,
        translate_ms,
        optimize_ms: syntactic_ms - translate_ms,
        dataflow_ms: full_ms - syntactic_ms,
        analysis_ms,
        levelize_ms,
        machine_new_us,
        nets: stats.nets,
        registers: stats.registers,
        levels: compiled.levels.unwrap_or(0),
        bytes: stats.bytes,
    })
}
