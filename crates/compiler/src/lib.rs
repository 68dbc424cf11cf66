//! The HipHop compiler: linked statement trees → augmented boolean
//! circuits (the paper's Phase 2 and the structural half of Phase 3).
//!
//! The full pipeline is [`compile_module`]: link (`run` inlining) →
//! static checks → desugaring → circuit translation → optimization →
//! finalization. Each step is also exposed separately.
//!
//! # Examples
//!
//! ```
//! use hiphop_core::prelude::*;
//! use hiphop_compiler::compile_module;
//!
//! let m = Module::new("hello")
//!     .input(SignalDecl::new("tick", Direction::In))
//!     .output(SignalDecl::new("tock", Direction::Out))
//!     .body(Stmt::every(
//!         Delay::cond(Expr::now("tick")),
//!         Stmt::emit("tock"),
//!     ));
//! let compiled = compile_module(&m, &ModuleRegistry::new())?;
//! assert!(compiled.circuit.stats().nets > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod lint;
pub mod optimize;
pub mod reincarnation;
pub mod synchronizer;
pub mod translate;

pub use lint::{lint_compiled, Lint, Severity};

use hiphop_circuit::{Circuit, ConstructivenessAnalysis, Fanin};
use hiphop_core::ast::Loc;
use hiphop_core::error::{CoreError, Warning};
use hiphop_core::module::{link, LinkedProgram, Module, ModuleRegistry};
use std::fmt;
use translate::{Translator, Wires};

/// Errors raised during circuit translation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A signal is referenced outside any declaring scope.
    UnboundSignal {
        /// The signal name.
        signal: String,
        /// Where it is referenced.
        loc: Loc,
    },
    /// `break L` without an enclosing trap `L`.
    UnknownTrapLabel {
        /// The label.
        label: String,
        /// Where the `break` appears.
        loc: Loc,
    },
    /// `immediate` and `count(...)` cannot be combined.
    ImmediateCountedDelay {
        /// Where the delay appears.
        loc: Loc,
    },
    /// `suspend immediate` is not supported (it is not used by the paper).
    UnsupportedImmediateSuspend {
        /// Where the suspend appears.
        loc: Loc,
    },
    /// A derived statement reached the translator (desugaring was skipped).
    NotDesugared {
        /// Rendering of the offending statement.
        statement: String,
    },
    /// A `run` reached the translator (linking was skipped).
    NotLinked {
        /// The module name.
        module: String,
        /// Where the `run` appears.
        loc: Loc,
    },
    /// The static constructiveness analysis proved a combinational cycle
    /// can never stabilize (the paper's `X = not X`). Raised by
    /// machine-construction wrappers; `compile_module` itself records
    /// the verdict in [`CompiledProgram::analysis`] so tooling can still
    /// inspect the rejected circuit.
    NonConstructive {
        /// The program name.
        program: String,
        /// Pretty rendering of the causality report (signals, net kinds,
        /// source locations).
        report: String,
    },
    /// An error from linking or static checking.
    Core(CoreError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnboundSignal { signal, loc } => {
                write!(f, "signal `{signal}` at {loc} is not in scope")
            }
            CompileError::UnknownTrapLabel { label, loc } => {
                write!(f, "break `{label}` at {loc} has no matching trap")
            }
            CompileError::ImmediateCountedDelay { loc } => {
                write!(f, "delay at {loc} cannot be both immediate and counted")
            }
            CompileError::UnsupportedImmediateSuspend { loc } => {
                write!(f, "suspend immediate at {loc} is not supported")
            }
            CompileError::NotDesugared { statement } => {
                write!(
                    f,
                    "internal: derived statement reached the translator: {statement}"
                )
            }
            CompileError::NotLinked { module, loc } => {
                write!(f, "internal: run {module} at {loc} reached the translator")
            }
            CompileError::NonConstructive { program, report } => {
                write!(f, "`{program}` is statically non-constructive:\n{report}")
            }
            CompileError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for CompileError {
    fn from(e: CoreError) -> Self {
        CompileError::Core(e)
    }
}

/// Compilation options.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Run the net-level optimizer (constant folding, buffer aliasing,
    /// dead-net sweep). On by default; turn off to observe raw
    /// translation sizes.
    pub optimize: bool,
    /// Run the fact-driven shrink inside the optimizer (inter-instant
    /// constant pinning, unread-`pre` register pruning). On by default;
    /// only meaningful when `optimize` is also set. Turn off to measure
    /// what the dataflow facts buy over the syntactic passes.
    pub dataflow: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            optimize: true,
            dataflow: true,
        }
    }
}

/// A compiled program: the circuit plus static-check warnings.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The executable circuit.
    pub circuit: Circuit,
    /// Warnings from the static checker.
    pub warnings: Vec<Warning>,
    /// Number of potential causality cycles found statically (the paper:
    /// "a compiler warning if such a dynamic deadlock is possible").
    pub cycle_warnings: usize,
    /// Topological level count of the combinational graph when it is
    /// acyclic (`Some` exactly when `cycle_warnings == 0`): the depth of
    /// the runtime's dense levelized schedule. `None` means the circuit
    /// has a static cycle and the machine uses the SCC-condensed hybrid
    /// engine.
    pub levels: Option<usize>,
    /// The static constructiveness analysis: SCC condensation plus one
    /// verdict per nontrivial component. `Machine::new` rejects the
    /// program if any verdict is provably non-constructive.
    pub analysis: ConstructivenessAnalysis,
    /// What the optimizer did (`None` when `optimize` was off).
    pub optimizer: Option<optimize::OptimizeReport>,
}

/// Compiles an already-linked program with the given options.
///
/// # Errors
///
/// Returns a [`CompileError`] for scope errors or unsupported constructs;
/// static checking is the caller's responsibility (see [`compile_module`]
/// for the full pipeline).
pub fn compile_linked(
    program: &LinkedProgram,
    options: CompileOptions,
) -> Result<Circuit, CompileError> {
    compile_linked_full(program, options).map(|(c, _)| c)
}

/// [`compile_linked`] additionally returning the optimizer's report
/// (`None` when `options.optimize` is off).
///
/// # Errors
///
/// Same as [`compile_linked`].
pub fn compile_linked_full(
    program: &LinkedProgram,
    options: CompileOptions,
) -> Result<(Circuit, Option<optimize::OptimizeReport>), CompileError> {
    let body = hiphop_core::desugar::desugar(&program.body);
    let mut tr = Translator::new(&program.name);

    for decl in &program.interface {
        tr.make_signal(decl, decl.name.clone());
    }

    // Boot register: 1 exactly at the first reaction.
    let (boot_reg, boot) = tr.c.register(true, "boot");
    let boot_in = tr.const0;
    tr.c.set_register_input(boot_reg, boot_in);
    let res = tr.c.or(vec![Fanin::neg(boot)], "root.res");
    let wires = Wires {
        go: boot,
        res,
        susp: tr.const0,
        kill: tr.const0,
        abrt: tr.const0,
    };

    let compiled = tr.stmt(&body, wires)?;
    tr.fixup_value_deps();

    let mut circuit = tr.c;
    circuit.set_boot_net(Some(boot));
    circuit.set_terminated_net(compiled.k.first().copied());
    let report = if options.optimize {
        Some(optimize::optimize_with(&mut circuit, options.dataflow))
    } else {
        None
    };
    circuit.finalize();
    circuit.validate();
    Ok((circuit, report))
}

/// The full pipeline: link → check → desugar → translate → optimize.
///
/// # Errors
///
/// Propagates linking, checking and translation errors.
pub fn compile_module(
    main: &Module,
    registry: &ModuleRegistry,
) -> Result<CompiledProgram, CompileError> {
    compile_module_with(main, registry, CompileOptions::default())
}

/// [`compile_module`] with explicit options.
///
/// # Errors
///
/// Propagates linking, checking and translation errors.
pub fn compile_module_with(
    main: &Module,
    registry: &ModuleRegistry,
    options: CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    let linked = link(main, registry)?;
    let warnings = hiphop_core::check::check(&linked)?;
    let (circuit, optimizer) = compile_linked_full(&linked, options)?;
    let analysis = circuit.constructiveness();
    let cycle_warnings = analysis.condensation.nontrivial().len();
    let levels = circuit.levelize().map(|lv| lv.levels());
    debug_assert_eq!(
        levels.is_none(),
        cycle_warnings > 0,
        "levelize and static_cycles must agree on acyclicity"
    );
    Ok(CompiledProgram {
        circuit,
        warnings,
        cycle_warnings,
        levels,
        analysis,
        optimizer,
    })
}
