//! Net-level circuit optimization: constant folding, buffer aliasing and
//! dead-net elimination.
//!
//! The raw translation produces many single-fanin buffers (wire plumbing)
//! and constant-driven gates. This pass keeps the generated circuit "most
//! often linear in source code size" (paper §5.3) with roughly two
//! connections per net, matching the sizes the paper reports.
//!
//! Soundness constraints:
//!
//! - nets with attached actions are never aliased away (their resolution
//!   point is observable);
//! - test nets are never aliased (they compute, not forward);
//! - only *positive* single-fanin buffers alias, so every structural
//!   reference (signal status nets, register inputs, emitter lists, ...)
//!   can be redirected without tracking polarity;
//! - a net is dead only if no action, no signal, no register, no async
//!   wire and no live net depends on it.
//!
//! On top of the syntactic passes, a *fact-driven* pass consumes the
//! inter-instant abstract interpretation ([`hiphop_circuit::dataflow`])
//! to pin nets that are provably constant in **every reachable instant**
//! (not just the current one — e.g. a register cycle that can never
//! leave its reset value) and to prune `pre` registers whose output no
//! expression ever reads. Two extra guards keep it conservative:
//!
//! - fact folding is skipped entirely when the circuit has any
//!   combinational SCC: folding a fact-constant *reader* of a cyclic
//!   core could leave the core unreferenced, dissolve it, and turn a
//!   non-constructive program into an accepted one;
//! - `pre` register pruning is skipped when async instances exist
//!   (their host hooks are opaque) and consults dynamic by-name
//!   expression reads, since the runtime resolves `S.pre` through
//!   `SignalInfo::pre_net` without a structural fanin edge.

use hiphop_circuit::{dataflow, Circuit, Fanin, NetId, NetKind};
use std::collections::{HashSet, VecDeque};

/// What the optimizer did, for `stats`, benches and logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeReport {
    /// Net count before any pass ran.
    pub nets_before: usize,
    /// Net count after the final dead sweep.
    pub nets_after: usize,
    /// Register count before any pass ran.
    pub registers_before: usize,
    /// Register count after the final dead sweep.
    pub registers_after: usize,
    /// Nets the inter-instant dataflow proved constant (and folded) that
    /// the syntactic passes had kept.
    pub fact_constant_nets: usize,
    /// Registers pinned to their provably-unique value and eliminated.
    pub pinned_registers: usize,
    /// `pre` registers pruned because nothing ever reads the previous
    /// instant's status.
    pub pruned_pre_registers: usize,
}

/// Optimizes the circuit in place (syntactic passes plus the fact-driven
/// shrink). Must run before [`Circuit::finalize`].
pub fn optimize(c: &mut Circuit) -> OptimizeReport {
    optimize_with(c, true)
}

/// [`optimize`] with the fact-driven shrink under a switch, so benches
/// and tests can isolate what the dataflow facts buy.
pub fn optimize_with(c: &mut Circuit, dataflow_shrink: bool) -> OptimizeReport {
    let mut report = OptimizeReport {
        nets_before: c.nets().len(),
        registers_before: c.registers().len(),
        ..OptimizeReport::default()
    };
    for _ in 0..3 {
        let aliases = compute_aliases(c);
        let consts = fold_constants(c, &aliases);
        apply_rewrites(c, &aliases, &consts);
    }
    if dataflow_shrink {
        let (facts, pinned) = shrink_with_facts(c);
        report.fact_constant_nets = facts;
        report.pinned_registers = pinned;
        report.pruned_pre_registers = prune_unread_pre_registers(c);
        // One cleanup round: fact folding leaves buffer-of-constant
        // shapes the syntactic passes collapse.
        let aliases = compute_aliases(c);
        let consts = fold_constants(c, &aliases);
        apply_rewrites(c, &aliases, &consts);
    }
    sweep_dead(c);
    report.nets_after = c.nets().len();
    report.registers_after = c.registers().len();
    report
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Folded {
    Keep,
    Const(bool),
}

/// A buffer net `n = or([pos(t)])` or `n = and([pos(t)])` without action
/// aliases to `t`.
#[allow(clippy::needless_range_loop)] // parallel tables indexed in lockstep
fn compute_aliases(c: &Circuit) -> Vec<Option<NetId>> {
    let nets = c.nets();
    let mut alias: Vec<Option<NetId>> = vec![None; nets.len()];
    for (i, net) in nets.iter().enumerate() {
        if net.action.is_some() || !net.deps.is_empty() {
            continue;
        }
        if matches!(net.kind, NetKind::Or | NetKind::And)
            && net.fanins.len() == 1
            && !net.fanins[0].negated
        {
            alias[i] = Some(net.fanins[0].net);
        }
    }
    // Path-compress chains (cycles cannot appear: an alias points to a
    // pre-existing construction order is not guaranteed, so guard with a
    // visited set).
    let resolve = |alias: &[Option<NetId>], start: usize| -> Option<NetId> {
        let mut cur = alias[start]?;
        let mut steps = 0;
        while let Some(next) = alias[cur.index()] {
            cur = next;
            steps += 1;
            if steps > alias.len() {
                return None; // defensive: cycle of buffers
            }
        }
        Some(cur)
    };
    let snapshot = alias.clone();
    for i in 0..alias.len() {
        alias[i] = resolve(&snapshot, i);
    }
    alias
}

/// Determines nets that are constant after alias resolution.
fn fold_constants(c: &Circuit, alias: &[Option<NetId>]) -> Vec<Folded> {
    let nets = c.nets();
    let mut folded = vec![Folded::Keep; nets.len()];
    // Seed with constants.
    for (i, net) in nets.iter().enumerate() {
        if let NetKind::Const(v) = net.kind {
            folded[i] = Folded::Const(v);
        }
    }
    // Fixpoint: gates with constant fanins fold. Bounded passes keep the
    // analysis linear-ish; deep constant chains are rare.
    for _ in 0..8 {
        let mut changed = false;
        for i in 0..nets.len() {
            if folded[i] != Folded::Keep {
                continue;
            }
            let net = &nets[i];
            if net.action.is_some() {
                continue; // action nets keep their resolution point
            }
            let (is_or, neutral) = match net.kind {
                NetKind::Or => (true, false),
                NetKind::And => (false, true),
                _ => continue,
            };
            let mut all_const = true;
            let mut controlled = false;
            for f in &net.fanins {
                let target = alias[f.net.index()].unwrap_or(f.net);
                match folded[target.index()] {
                    Folded::Const(v) => {
                        let v = v ^ f.negated;
                        if v != neutral {
                            controlled = true;
                            break;
                        }
                    }
                    Folded::Keep => all_const = false,
                }
            }
            if controlled {
                folded[i] = Folded::Const(is_or);
                changed = true;
            } else if all_const {
                folded[i] = Folded::Const(neutral);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    folded
}

/// Rewrites every reference through aliases and constants. Constant nets
/// are redirected to the canonical const nets (ids 0 and 1 by the
/// translator's construction) when available; otherwise kept.
fn apply_rewrites(c: &mut Circuit, alias: &[Option<NetId>], folded: &[Folded]) {
    // Find canonical constant nets.
    let mut const_net = [None, None];
    for (i, net) in c.nets().iter().enumerate() {
        if let NetKind::Const(v) = net.kind {
            let slot = v as usize;
            if const_net[slot].is_none() {
                const_net[slot] = Some(NetId(i as u32));
            }
        }
    }
    let redirect = |id: NetId| -> NetId {
        let t = alias[id.index()].unwrap_or(id);
        match folded[t.index()] {
            Folded::Const(v) => const_net[v as usize].unwrap_or(t),
            Folded::Keep => t,
        }
    };

    let n = c.nets().len();
    for i in 0..n {
        let id = NetId(i as u32);
        // Rewrite fanins, dropping neutral constant fanins.
        let net = c.net(id).clone();
        let (neutral, controlling) = match net.kind {
            NetKind::Or => (false, true),
            NetKind::And => (true, false),
            NetKind::Test(_) => {
                // Single control fanin: just redirect.
                let mut fanins = net.fanins.clone();
                for f in &mut fanins {
                    f.net = redirect(f.net);
                }
                let mut deps = net.deps.clone();
                for d in &mut deps {
                    *d = redirect(*d);
                }
                replace_net_edges(c, id, fanins, deps);
                continue;
            }
            _ => {
                continue;
            }
        };
        let mut fanins: Vec<Fanin> = Vec::with_capacity(net.fanins.len());
        let mut forced = None;
        for f in &net.fanins {
            let t = redirect(f.net);
            match c.net(t).kind {
                NetKind::Const(v) => {
                    let v = v ^ f.negated;
                    if v == controlling {
                        forced = Some(controlling);
                        break;
                    }
                    // neutral: drop
                }
                _ => fanins.push(Fanin {
                    net: t,
                    negated: f.negated,
                }),
            }
        }
        if net.action.is_none() {
            if let Some(v) = forced {
                if let Some(cn) = const_net[v as usize] {
                    // Turn this net into a buffer of the constant.
                    fanins = vec![Fanin::pos(cn)];
                }
            } else if fanins.is_empty() {
                if let Some(cn) = const_net[neutral as usize] {
                    fanins = vec![Fanin::pos(cn)];
                }
            }
        } else if forced == Some(controlling) {
            // Action net stuck at the controlling value: keep a constant
            // fanin so the action still fires appropriately.
            if let Some(cn) = const_net[controlling as usize] {
                fanins = vec![Fanin::pos(cn)];
            }
        }
        let mut deps = net.deps.clone();
        for d in &mut deps {
            *d = redirect(*d);
        }
        deps.sort();
        deps.dedup();
        replace_net_edges(c, id, fanins, deps);
    }

    // Structural references.
    c.rewrite_references(&mut |id| redirect(id));
}

fn replace_net_edges(c: &mut Circuit, id: NetId, fanins: Vec<Fanin>, deps: Vec<NetId>) {
    c.replace_edges(id, fanins, deps);
}

/// Fact-driven constant pinning: runs the inter-instant constant
/// propagation and folds every net whose value set is a singleton —
/// catching cross-instant constants the per-instant syntactic fold
/// cannot see (registers that never leave their reset value, gates fed
/// only by such registers). Returns `(folded net count, pinned register
/// count)`.
///
/// Skipped entirely on circuits with combinational SCCs: a
/// fact-constant reader of a non-constructive core could fold away the
/// only reference to the core, silently turning a rejected program into
/// an accepted one. Cyclic circuits keep their full structure.
fn shrink_with_facts(c: &mut Circuit) -> (usize, usize) {
    let cond = c.condensation();
    if !cond.nontrivial().is_empty() {
        return (0, 0);
    }
    let consts = dataflow::constants_with(c, &cond);
    let nets = c.nets();
    let mut folded = vec![Folded::Keep; nets.len()];
    let mut folded_count = 0usize;
    for (i, net) in nets.iter().enumerate() {
        // Action nets keep their resolution point; Const nets are
        // already canonical; Input facts are ⊤ by construction.
        if net.action.is_some() || matches!(net.kind, NetKind::Const(_) | NetKind::Input) {
            continue;
        }
        if let Some(v) = consts.values[i].singleton() {
            folded[i] = Folded::Const(v);
            folded_count += 1;
        }
    }
    if folded_count == 0 {
        return (0, 0);
    }
    let pinned = c
        .registers()
        .iter()
        .filter(|r| matches!(folded[r.output.index()], Folded::Const(_)))
        .count();
    let no_alias = vec![None; folded.len()];
    apply_rewrites(c, &no_alias, &folded);
    (folded_count, pinned)
}

/// Prunes the `pre` register of every signal whose previous-instant
/// status nothing can read: no structural reference besides the
/// signal's own `pre_net` field, and no test/action expression reading
/// the signal with `pre`/`preval` (the runtime resolves those through
/// `pre_net` *by name*, with no fanin edge — so the structural scan
/// alone would be unsound). The field is redirected to a constant-0 net
/// and the register is reclaimed by the dead sweep. Skipped when async
/// instances exist, since their host hooks are opaque.
fn prune_unread_pre_registers(c: &mut Circuit) -> usize {
    if !c.asyncs().is_empty() {
        return 0;
    }
    let Some(const0) = c
        .nets()
        .iter()
        .position(|n| matches!(n.kind, NetKind::Const(false)))
        .map(|i| NetId(i as u32))
    else {
        return 0;
    };
    let nets = c.nets();
    // Every net referenced structurally — except signal pre_net fields,
    // which are what we are deciding about.
    let mut referenced = vec![false; nets.len()];
    for net in nets {
        for f in &net.fanins {
            referenced[f.net.index()] = true;
        }
        for d in &net.deps {
            referenced[d.index()] = true;
        }
    }
    for r in c.registers() {
        referenced[r.input.index()] = true;
    }
    for s in c.signals() {
        referenced[s.status_net.index()] = true;
        if let Some(i) = s.input_net {
            referenced[i.index()] = true;
        }
        for e in &s.emitters {
            referenced[e.index()] = true;
        }
    }
    if let Some(b) = c.boot_net() {
        referenced[b.index()] = true;
    }
    if let Some(t) = c.terminated_net() {
        referenced[t.index()] = true;
    }
    // Every signal name some expression reads at the previous instant.
    // `preval` rides along conservatively: value-pre state is machine
    // side, but the cohort scatter planner keys both accesses off
    // pre_net.
    let mut pre_read: HashSet<String> = HashSet::new();
    for net in c.nets() {
        let reads = match &net.kind {
            NetKind::Test(hiphop_circuit::TestKind::Expr(e)) => e.signal_reads(),
            NetKind::Test(hiphop_circuit::TestKind::CounterElapsed { cond, .. }) => {
                cond.signal_reads()
            }
            _ => Vec::new(),
        };
        let action_reads = match net.action.map(|a| &c.actions()[a.index()]) {
            Some(hiphop_circuit::Action::Emit { value: Some(e), .. }) => e.signal_reads(),
            Some(hiphop_circuit::Action::Atom(body)) => body.signal_reads(),
            Some(hiphop_circuit::Action::CounterReset { value, .. }) => value.signal_reads(),
            _ => Vec::new(),
        };
        for (name, access) in reads.into_iter().chain(action_reads) {
            use hiphop_core::expr::SigAccess;
            if matches!(access, SigAccess::Pre | SigAccess::PreVal) {
                pre_read.insert(name);
            }
        }
    }
    // The remap below redirects *every* reference to a pruned net, so a
    // pre net shared by several signals (possible after aliasing) is
    // prunable only if no sharer's name is pre-read.
    let mut all_users_unread: std::collections::HashMap<NetId, bool> =
        std::collections::HashMap::new();
    for s in c.signals() {
        let ok = !pre_read.contains(&s.name);
        all_users_unread
            .entry(s.pre_net)
            .and_modify(|v| *v &= ok)
            .or_insert(ok);
    }
    let mut remap: Vec<Option<NetId>> = vec![None; c.nets().len()];
    let mut pruned = 0usize;
    for (&pre, &ok) in &all_users_unread {
        if !ok || pre == const0 || referenced[pre.index()] {
            continue;
        }
        if !matches!(c.net(pre).kind, NetKind::RegOut(_)) {
            continue;
        }
        remap[pre.index()] = Some(const0);
        pruned += 1;
    }
    if pruned > 0 {
        c.rewrite_references(&mut |id| remap[id.index()].unwrap_or(id));
    }
    pruned
}

/// Removes nets nothing observes, compacting ids.
fn sweep_dead(c: &mut Circuit) {
    let n = c.nets().len();
    let mut live = vec![false; n];
    let mut queue: VecDeque<NetId> = VecDeque::new();
    let mark = |id: NetId, live: &mut Vec<bool>, queue: &mut VecDeque<NetId>| {
        if !live[id.index()] {
            live[id.index()] = true;
            queue.push_back(id);
        }
    };

    // Roots: side effects, interface structure, control state.
    for (i, net) in c.nets().iter().enumerate() {
        let rooted = net.action.is_some()
            || matches!(
                net.kind,
                NetKind::Test(hiphop_circuit::TestKind::CounterElapsed { .. })
            );
        if rooted {
            mark(NetId(i as u32), &mut live, &mut queue);
        }
    }
    for s in c.signals().to_vec() {
        mark(s.status_net, &mut live, &mut queue);
        mark(s.pre_net, &mut live, &mut queue);
        if let Some(i) = s.input_net {
            mark(i, &mut live, &mut queue);
        }
        for e in s.emitters {
            mark(e, &mut live, &mut queue);
        }
    }
    for a in c.asyncs().to_vec() {
        mark(a.notify_net, &mut live, &mut queue);
    }
    if let Some(b) = c.boot_net() {
        mark(b, &mut live, &mut queue);
    }
    if let Some(t) = c.terminated_net() {
        mark(t, &mut live, &mut queue);
    }

    // Propagate through fanins, deps and registers.
    while let Some(id) = queue.pop_front() {
        let net = c.net(id).clone();
        for f in net.fanins {
            mark(f.net, &mut live, &mut queue);
        }
        for d in net.deps {
            mark(d, &mut live, &mut queue);
        }
        if let NetKind::RegOut(r) = net.kind {
            let input = c.registers()[r.index()].input;
            mark(input, &mut live, &mut queue);
        }
    }

    c.compact(&live);
}

/// Extension hooks the optimizer needs on [`Circuit`]; implemented here to
/// keep the circuit crate representation-focused.
trait CircuitRewrite {
    fn replace_edges(&mut self, id: NetId, fanins: Vec<Fanin>, deps: Vec<NetId>);
    fn rewrite_references(&mut self, f: &mut dyn FnMut(NetId) -> NetId);
    fn compact(&mut self, live: &[bool]);
}

impl CircuitRewrite for Circuit {
    fn replace_edges(&mut self, id: NetId, fanins: Vec<Fanin>, deps: Vec<NetId>) {
        self.set_net_edges(id, fanins, deps);
    }
    fn rewrite_references(&mut self, f: &mut dyn FnMut(NetId) -> NetId) {
        self.remap_references(f);
    }
    fn compact(&mut self, live: &[bool]) {
        self.compact_nets(live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiphop_circuit::{Action, SignalId};

    #[test]
    fn buffer_chains_collapse() {
        let mut c = Circuit::new("t");
        let _c0 = c.constant(false, "c0");
        let _c1 = c.constant(true, "c1");
        let a = c.input("a");
        let b1 = c.or(vec![Fanin::pos(a)], "buf1");
        let b2 = c.or(vec![Fanin::pos(b1)], "buf2");
        let g = c.and(vec![Fanin::pos(b2), Fanin::neg(a)], "g");
        // Keep g alive through an action.
        let act = c.or(vec![Fanin::pos(g)], "act");
        c.attach_action(act, Action::AsyncSpawn(hiphop_circuit::AsyncId(0)));
        optimize(&mut c);
        c.finalize();
        // buf1/buf2 gone; g reads `a` directly.
        let live_labels: Vec<&str> = c.nets().iter().map(|x| x.label).collect();
        assert!(!live_labels.contains(&"buf1"), "{live_labels:?}");
        assert!(!live_labels.contains(&"buf2"), "{live_labels:?}");
        assert!(live_labels.contains(&"g"));
    }

    #[test]
    fn constant_folding_or_and() {
        let mut c = Circuit::new("t");
        let c0 = c.constant(false, "c0");
        let c1 = c.constant(true, "c1");
        let a = c.input("a");
        let or_with_true = c.or(vec![Fanin::pos(a), Fanin::pos(c1)], "or1");
        let and_with_false = c.and(vec![Fanin::pos(a), Fanin::pos(c0)], "and0");
        let use_ = c.and(
            vec![Fanin::pos(or_with_true), Fanin::neg(and_with_false)],
            "use",
        );
        let act = c.or(vec![Fanin::pos(use_)], "act");
        c.attach_action(act, Action::AsyncSpawn(hiphop_circuit::AsyncId(0)));
        optimize(&mut c);
        c.finalize();
        // The whole chain folds: the action net ends up reading const1
        // directly and `use`, `or1`, `and0` are swept.
        let labels: Vec<&str> = c.nets().iter().map(|x| x.label).collect();
        assert!(!labels.contains(&"use"), "{labels:?}");
        assert!(!labels.contains(&"or1"), "{labels:?}");
        assert!(!labels.contains(&"and0"), "{labels:?}");
        let act_net = c
            .nets()
            .iter()
            .find(|n| n.label == "act")
            .expect("action net survives");
        assert_eq!(act_net.fanins.len(), 1);
        assert!(
            matches!(c.net(act_net.fanins[0].net).kind, NetKind::Const(true)),
            "action net should read const1"
        );
    }

    #[test]
    fn optimization_preserves_levelizability() {
        // The optimizer only aliases fanins onto existing sources, folds
        // constants and sweeps dead nets — none of which can introduce a
        // combinational cycle. The level metadata the runtime's dense
        // schedule relies on must survive the pass.
        let mut c = Circuit::new("t");
        let _c0 = c.constant(false, "c0");
        let _c1 = c.constant(true, "c1");
        let a = c.input("a");
        let b1 = c.or(vec![Fanin::pos(a)], "buf1");
        let b2 = c.or(vec![Fanin::pos(b1)], "buf2");
        let g = c.and(vec![Fanin::pos(b2), Fanin::neg(a)], "g");
        let act = c.or(vec![Fanin::pos(g)], "act");
        c.add_dep(act, b2); // dep edges levelize too, aliased or not
        c.attach_action(act, Action::AsyncSpawn(hiphop_circuit::AsyncId(0)));

        let mut raw = c.clone();
        raw.finalize();
        let raw_lv = raw.levelize().expect("raw circuit is acyclic");

        optimize(&mut c);
        c.finalize();
        let opt_lv = c.levelize().expect("optimized circuit stays acyclic");
        // Aliasing shortcuts buffer chains, so depth can only shrink.
        assert!(opt_lv.levels() <= raw_lv.levels());
        assert_eq!(opt_lv.order.len(), c.nets().len());
    }

    #[test]
    fn dead_nets_are_swept() {
        let mut c = Circuit::new("t");
        let a = c.input("a");
        let _dead = c.or(vec![Fanin::pos(a)], "deadgate");
        let status = c.or(vec![Fanin::pos(a)], "sig.status");
        let (pre_reg, pre) = c.register(false, "sig.pre");
        c.set_register_input(pre_reg, status);
        c.add_signal(hiphop_circuit::SignalInfo {
            name: "s".into(),
            direction: hiphop_core::signal::Direction::In,
            init: None,
            combine: None,
            status_net: status,
            pre_net: pre,
            input_net: Some(a),
            emitters: vec![],
        });
        optimize(&mut c);
        c.finalize();
        c.validate();
        let labels: Vec<&str> = c.nets().iter().map(|x| x.label).collect();
        assert!(!labels.contains(&"deadgate"), "{labels:?}");
        // The signal structure survives (status aliased onto the input is
        // acceptable; its name lookup must still resolve).
        let sig = c.signal(SignalId(0));
        assert!(sig.status_net.index() < c.nets().len());
        assert!(sig.pre_net.index() < c.nets().len());
    }

    fn out_signal(c: &mut Circuit, name: &str, status: NetId) -> SignalId {
        let (pre_reg, pre) = c.register(false, "sig.pre");
        c.set_register_input(pre_reg, status);
        c.add_signal(hiphop_circuit::SignalInfo {
            name: name.into(),
            direction: hiphop_core::signal::Direction::Out,
            init: None,
            combine: None,
            status_net: status,
            pre_net: pre,
            input_net: None,
            emitters: vec![],
        })
    }

    #[test]
    fn fact_shrink_pins_register_cycles_and_prunes_unread_pre() {
        let mut c = Circuit::new("t");
        let _c0 = c.constant(false, "c0");
        let _c1 = c.constant(true, "c1");
        let a = c.input("a");
        // Two registers feeding each other, both reset 0: stuck at 0
        // forever, but never syntactically constant.
        let (r1, out1) = c.register(false, "r1");
        let (r2, out2) = c.register(false, "r2");
        let b1 = c.or(vec![Fanin::pos(out2)], "b1");
        let b2 = c.or(vec![Fanin::pos(out1)], "b2");
        c.set_register_input(r1, b1);
        c.set_register_input(r2, b2);
        // status = a | out1 ≡ a across all instants.
        let status = c.or(vec![Fanin::pos(a), Fanin::pos(out1)], "sig.status");
        let _sig = out_signal(&mut c, "s", status);
        let report = optimize(&mut c);
        c.finalize();
        c.validate();
        assert!(report.fact_constant_nets >= 1, "{report:?}");
        assert_eq!(report.pinned_registers, 2, "{report:?}");
        // Nothing reads s.pre, so its register goes too.
        assert_eq!(report.pruned_pre_registers, 1, "{report:?}");
        assert_eq!(c.registers().len(), 0, "{:?}", c.registers());
        // The cleanup round aliases the now-single-fanin status straight
        // onto the input net.
        let status_net = c.net(c.signal(SignalId(0)).status_net);
        assert!(
            matches!(status_net.kind, NetKind::Input),
            "status should collapse onto `a`: {status_net:?}"
        );
        assert!(report.nets_after < report.nets_before, "{report:?}");
    }

    #[test]
    fn pre_registers_survive_dynamic_reads() {
        let mut c = Circuit::new("t");
        let _c0 = c.constant(false, "c0");
        let a = c.input("a");
        let status = c.or(vec![Fanin::pos(a)], "sig.status");
        let _sig = out_signal(&mut c, "s", status);
        // A test expression reads s.pre *by name*: no structural fanin
        // edge exists, so only the dynamic-read scan protects it.
        let t = c.test(
            a,
            hiphop_circuit::TestKind::Expr(hiphop_core::expr::Expr::pre("s")),
            "reads_pre",
        );
        let act = c.or(vec![Fanin::pos(t)], "act");
        c.attach_action(act, Action::AsyncSpawn(hiphop_circuit::AsyncId(0)));
        let report = optimize(&mut c);
        c.finalize();
        c.validate();
        assert_eq!(report.pruned_pre_registers, 0, "{report:?}");
        assert_eq!(c.registers().len(), 1);
        assert!(matches!(
            c.net(c.signal(SignalId(0)).pre_net).kind,
            NetKind::RegOut(_)
        ));
    }

    #[test]
    fn fact_shrink_skips_cyclic_circuits() {
        // x = or(x, a): a constructive-only-when-a-is-1 cycle. The fact
        // for readers of x is {1}, but folding them could dissolve the
        // cycle and change the program's constructiveness verdict — so
        // the shrink must refuse to touch circuits with SCCs.
        let mut c = Circuit::new("t");
        let _c0 = c.constant(false, "c0");
        let _c1 = c.constant(true, "c1");
        let a = c.input("a");
        let x = c.or(vec![Fanin::pos(a)], "x");
        c.add_fanin(x, Fanin::pos(x));
        let reader = c.and(vec![Fanin::pos(x)], "reader");
        let status = c.or(vec![Fanin::pos(reader)], "sig.status");
        let _sig = out_signal(&mut c, "s", status);
        let report = optimize(&mut c);
        c.finalize();
        assert_eq!(report.fact_constant_nets, 0, "{report:?}");
        assert_eq!(report.pinned_registers, 0);
        let labels: Vec<&str> = c.nets().iter().map(|n| n.label).collect();
        assert!(labels.contains(&"x"), "{labels:?}");
    }

    #[test]
    fn optimize_report_counts_are_consistent() {
        let mut c = Circuit::new("t");
        let _c0 = c.constant(false, "c0");
        let a = c.input("a");
        let b1 = c.or(vec![Fanin::pos(a)], "buf1");
        let status = c.or(vec![Fanin::pos(b1)], "sig.status");
        let _sig = out_signal(&mut c, "s", status);
        let before_nets = c.nets().len();
        let before_regs = c.registers().len();
        let report = optimize(&mut c);
        assert_eq!(report.nets_before, before_nets);
        assert_eq!(report.registers_before, before_regs);
        assert_eq!(report.nets_after, c.nets().len());
        assert_eq!(report.registers_after, c.registers().len());
        assert!(report.nets_after <= report.nets_before);
    }
}
