//! Per-machine bookkeeping of the sparse incremental engine
//! ([`crate::EngineMode::Sparse`]).
//!
//! The levelized engine re-evaluates every net of every level each
//! instant; most real instants touch a handful of inputs. The sparse
//! engine keeps the previous instant's committed net values in
//! `Machine::value` as a *baseline* and only re-evaluates nets that can
//! differ from it:
//!
//! * **changed inputs** — input/notify nets whose staged presence
//!   differs from the baseline value,
//! * **flipped registers** — register-output nets whose register was
//!   rewritten by the previous commit,
//! * **the hot set** — side-effectful nets the dense sweep would visit
//!   *every* instant while their gate holds: `Early`/`Late` action
//!   gates currently at 1, and impure `Test` nets (counter mutation,
//!   var/host reads) whose control fanin is 1. Pure tests and plain
//!   gates are never hot — they re-evaluate only when an input moves.
//!
//! Dirty nets propagate through the circuit's CSR fanout tables in
//! level order (per-level dirty lists, untouched levels skipped
//! entirely); a net whose recomputed value differs from the baseline
//! marks its fanouts dirty. Because fanins sit at strictly lower
//! levels, a skipped net's baseline value is exactly what the dense
//! sweep would recompute, and because each level's dirty list is
//! processed in ascending net id — the dense within-level order —
//! actions fire in precisely the dense sweep's sequence. That makes the
//! sparse engine byte- and digest-identical to the levelized sweep,
//! which the differential battery (proptests, chaos, conformance,
//! goldens, durability) checks end to end.
//!
//! The baseline is *pessimistically invalidated*: any instant executed
//! by another engine, any failed (rolled-back) reaction, a
//! [`crate::Machine::reset`], a durable restore, or a hot swap clears
//! [`SparseState::valid`], and the next sparse instant runs one full
//! level-order sweep that rebuilds the baseline and every derived set.
//! Durable snapshots deliberately do not serialize the baseline — a
//! restored machine rebuilds it on its first instant, which keeps the
//! wire format engine-agnostic.
//!
//! The tables derived from the circuit alone ([`SparseTables`]) are
//! shared through the machine's program; each machine keeps only its
//! dirty-set planes ([`SparseState`]).

use crate::levelized::LevelSchedule;
use hiphop_circuit::{Circuit, NetKind, TestKind};
use hiphop_core::expr::{Expr, SigAccess};

/// The sparse engine's static tables: derived from the circuit and its
/// level schedule alone, so one copy lives in the shared
/// [`crate::program::Program`] and serves every machine of the program.
#[derive(Debug)]
pub(crate) struct SparseTables {
    /// Topological level of each net (from the levelized schedule).
    pub(crate) level_of: Vec<u32>,
    /// Number of topological levels.
    pub(crate) levels: usize,
    /// Whether a net, when its gate/control is 1, must re-evaluate every
    /// instant: impure tests (counter mutation, var/host reads) and
    /// every action net — valued emits feed the emission counters,
    /// atoms/counter resets/async hooks are impure, and even a
    /// presence-only emit's call is observable (`actions_run`, chaos
    /// stream). Net-pure tests stay skippable.
    pub(crate) needs_hot: Vec<bool>,
    /// CSR: extra subscriber nets keyed by *source net* — test nets whose
    /// expression reads `pre(S)` subscribe to S's pre-register net, which
    /// has no fanout or dep edge toward them (sources need none for the
    /// dense engines).
    net_subs_start: Vec<u32>,
    net_subs: Vec<u32>,
    /// CSR: subscriber nets keyed by *signal* — test nets whose
    /// expression reads `nowval`/`preval`: the value plane changes
    /// without any net changing, so writers mark these directly.
    sig_subs_start: Vec<u32>,
    sig_subs: Vec<u32>,
    /// CSR: register indices keyed by register-*input* net.
    regs_by_input_start: Vec<u32>,
    regs_by_input: Vec<u32>,
    /// CSR: signal indices keyed by status net.
    sigs_by_status_start: Vec<u32>,
    sigs_by_status: Vec<u32>,
    /// The circuit's termination net, if any.
    pub(crate) terminated_net: Option<u32>,
}

impl SparseTables {
    /// Builds net→level, the register-by-input and signal-by-status
    /// CSRs, the hot-set classification and the subscriber lists.
    pub(crate) fn build(circuit: &Circuit, sched: &LevelSchedule) -> SparseTables {
        let n = circuit.nets().len();
        let levels = sched.levels;
        let mut level_of = vec![0; n];
        for l in 0..levels {
            let span =
                &sched.order[sched.level_starts[l] as usize..sched.level_starts[l + 1] as usize];
            for &id in span {
                level_of[id as usize] = l as u32;
            }
        }

        // CSR: registers by input net (two registers may share an input).
        let mut count = vec![0u32; n + 1];
        for reg in circuit.registers() {
            count[reg.input.index() + 1] += 1;
        }
        for i in 0..n {
            count[i + 1] += count[i];
        }
        let mut cur = count.clone();
        let mut regs = vec![0u32; circuit.registers().len()];
        for (r, reg) in circuit.registers().iter().enumerate() {
            let c = &mut cur[reg.input.index()];
            regs[*c as usize] = r as u32;
            *c += 1;
        }
        let regs_by_input_start = count;
        let regs_by_input = regs;

        // CSR: signals by status net.
        let mut count = vec![0u32; n + 1];
        for info in circuit.signals() {
            count[info.status_net.index() + 1] += 1;
        }
        for i in 0..n {
            count[i + 1] += count[i];
        }
        let mut cur = count.clone();
        let mut sigs = vec![0u32; circuit.signals().len()];
        for (s, info) in circuit.signals().iter().enumerate() {
            let c = &mut cur[info.status_net.index()];
            sigs[*c as usize] = s as u32;
            *c += 1;
        }
        let sigs_by_status_start = count;
        let sigs_by_status = sigs;

        // Hot-set classification and subscriber lists. A net is "hot"
        // when skipping it while its gate/control holds would lose a side
        // effect the dense sweep performs every instant. Net-pure tests
        // instead subscribe to the state they read: `now`/`nowval` reads
        // already have dep edges (the dense engines need them for
        // ordering), `pre` reads subscribe to the pre-register net, and
        // `nowval`/`preval` reads additionally subscribe to the signal's
        // value plane.
        let mut needs_hot = vec![false; n];
        let mut net_pairs: Vec<(u32, u32)> = Vec::new();
        let mut sig_pairs: Vec<(u32, u32)> = Vec::new();
        let mut classify = |reader: u32, e: &Expr, hot: &mut bool| {
            if e.reads_vars() {
                *hot = true;
                return;
            }
            for (name, access) in e.signal_reads() {
                let Some(sig) = circuit.signal_by_name(&name) else {
                    continue;
                };
                match access {
                    SigAccess::Now => {}
                    SigAccess::Pre => {
                        net_pairs.push((circuit.signal(sig).pre_net.0, reader));
                    }
                    SigAccess::NowVal | SigAccess::PreVal => {
                        sig_pairs.push((sig.0, reader));
                    }
                }
            }
        };
        for (i, net) in circuit.nets().iter().enumerate() {
            match &net.kind {
                NetKind::Test(TestKind::CounterElapsed { .. }) => needs_hot[i] = true,
                NetKind::Test(TestKind::Expr(e)) => classify(i as u32, e, &mut needs_hot[i]),
                _ => {}
            }
            if net.action.is_some() {
                // Every action net: a presence-only emit's action body
                // is a no-op, but the *call* still counts toward
                // `actions_run` and draws from the chaos stream, and
                // the trace fabric compares both — so any action net
                // with a standing 1 gate stays hot.
                needs_hot[i] = true;
            }
        }
        let (net_subs_start, net_subs) = csr_from_pairs(&mut net_pairs, n);
        let (sig_subs_start, sig_subs) = csr_from_pairs(&mut sig_pairs, circuit.signals().len());
        SparseTables {
            level_of,
            levels,
            needs_hot,
            net_subs_start,
            net_subs,
            sig_subs_start,
            sig_subs,
            regs_by_input_start,
            regs_by_input,
            sigs_by_status_start,
            sigs_by_status,
            terminated_net: circuit.terminated_net().map(|t| t.0),
        }
    }

    /// Nets subscribed to signal `si`'s value plane.
    #[inline]
    pub(crate) fn sig_subs(&self, si: usize) -> &[u32] {
        &self.sig_subs[self.sig_subs_start[si] as usize..self.sig_subs_start[si + 1] as usize]
    }

    /// Nets subscribed to net `i` beyond its fanout and dep edges.
    #[inline]
    pub(crate) fn net_subs(&self, i: usize) -> &[u32] {
        &self.net_subs[self.net_subs_start[i] as usize..self.net_subs_start[i + 1] as usize]
    }

    /// Registers whose input is net `i`.
    #[inline]
    pub(crate) fn regs_by_input(&self, i: usize) -> &[u32] {
        &self.regs_by_input
            [self.regs_by_input_start[i] as usize..self.regs_by_input_start[i + 1] as usize]
    }

    /// Signals whose status net is net `i`.
    #[inline]
    pub(crate) fn sigs_by_status(&self, i: usize) -> &[u32] {
        &self.sigs_by_status
            [self.sigs_by_status_start[i] as usize..self.sigs_by_status_start[i + 1] as usize]
    }
}

/// Dirty-set state of the sparse engine: one machine's planes over its
/// program's [`SparseTables`]. Lives on the machine but is only
/// allocated once the sparse engine actually runs.
#[derive(Debug, Default)]
pub(crate) struct SparseState {
    /// Whether the planes below are allocated.
    pub(crate) built: bool,
    /// Whether `Machine::value` plus the derived sets below describe the
    /// previous committed instant. Cleared at the start of every sparse
    /// instant (so an error forces a rebuild) and by every non-sparse
    /// instant, reset, restore and hot swap; set again only after a
    /// sparse instant commits.
    pub(crate) valid: bool,
    /// Committed presence of input/notify nets (mirror of the staged
    /// set), maintained incrementally via `present_nets`.
    pub(crate) in_present: Vec<bool>,
    /// Nets whose `in_present` bit is currently set.
    pub(crate) present_nets: Vec<u32>,
    /// Scratch holding the *previous* instant's `present_nets` during
    /// staging (buffer reuse; swapped, never reallocated).
    pub(crate) prev_present: Vec<u32>,
    /// Per-net dirty flag (deduplicates the level lists).
    pub(crate) dirty: Vec<bool>,
    /// Per-level dirty worklists; a level with an empty list is skipped
    /// entirely by the sweep.
    pub(crate) level_lists: Vec<Vec<u32>>,
    /// The standing hot set (see the module docs); re-seeded into the
    /// worklist every instant and compacted lazily via `in_hot`.
    pub(crate) hot: Vec<u32>,
    pub(crate) in_hot: Vec<bool>,
    /// Register-output nets invalidated by the previous commit — their
    /// baseline value predates the register write.
    pub(crate) pending_reg_nets: Vec<u32>,
    /// Persistent per-signal emission counters (the dense engines
    /// allocate a fresh vector per reaction); zeroed through `touched`.
    pub(crate) emit_count: Vec<u32>,
    /// Signals whose value/emission counter were written this instant —
    /// the only pre-values to sync and counters to clear next instant.
    pub(crate) touched: Vec<u32>,
    /// Arms `touched` recording in `Machine::emit_value`. Only ever true
    /// while a sparse sweep is running, so dense and cohort execution
    /// never grow the list.
    pub(crate) tracking: bool,
    /// Deferred commit scratch: registers/signals whose source net
    /// changed this instant (registers must not be written mid-sweep —
    /// they are excluded from the rollback snapshot).
    pub(crate) commit_regs: Vec<u32>,
    pub(crate) commit_sigs: Vec<u32>,
    pub(crate) term_dirty: bool,
    /// Per-level activity of this instant (recorded only while
    /// level-activity accounting is armed).
    pub(crate) level_evals: Vec<u64>,
    pub(crate) level_changed: Vec<u64>,
}

impl SparseState {
    /// Allocates the per-machine planes on the first sparse instant.
    pub(crate) fn ensure_built(&mut self, circuit: &Circuit, tables: &SparseTables) {
        if self.built {
            return;
        }
        let n = circuit.nets().len();
        self.in_present = vec![false; n];
        self.dirty = vec![false; n];
        self.in_hot = vec![false; n];
        self.level_lists = (0..tables.levels).map(|_| Vec::new()).collect();
        self.emit_count = vec![0; circuit.signals().len()];
        self.built = true;
    }

    /// Adds net `id` to its level's worklist (idempotent).
    #[inline]
    pub(crate) fn mark_dirty(&mut self, tables: &SparseTables, id: u32) {
        let i = id as usize;
        if !self.dirty[i] {
            self.dirty[i] = true;
            self.level_lists[tables.level_of[i] as usize].push(id);
        }
    }

    /// Updates the hot-set membership of an evaluated net.
    #[inline]
    pub(crate) fn set_hot(&mut self, id: u32, hot: bool) {
        let i = id as usize;
        if hot {
            if !self.in_hot[i] {
                self.in_hot[i] = true;
                self.hot.push(id);
            }
        } else {
            self.in_hot[i] = false;
        }
    }
}

/// Builds a CSR from unsorted `(key, item)` pairs over `keys` buckets.
fn csr_from_pairs(pairs: &mut [(u32, u32)], keys: usize) -> (Vec<u32>, Vec<u32>) {
    pairs.sort_unstable();
    let mut starts = vec![0u32; keys + 1];
    for &(k, _) in pairs.iter() {
        starts[k as usize + 1] += 1;
    }
    for i in 0..keys {
        starts[i + 1] += starts[i];
    }
    let items = pairs.iter().map(|&(_, v)| v).collect();
    (starts, items)
}
