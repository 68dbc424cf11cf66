//! The circuit container: nets, registers, signals, counters, asyncs,
//! plus construction helpers, validation, statistics, and static cycle
//! analysis.

use crate::net::{
    Action, ActionId, AsyncId, AsyncInfo, CounterId, CounterInfo, Fanin, Net, NetId, NetKind,
    RegId, Register, SignalId, SignalInfo, TestKind,
};
use hiphop_core::ast::Loc;
use std::any::Any;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// An augmented boolean circuit (paper §5.1) ready for simulation.
///
/// Built by `hiphop-compiler`; executed by `hiphop-runtime`. The structure
/// is append-only during construction and sealed by [`Circuit::finalize`],
/// which computes fanouts and dependency fanouts for the linear-time
/// simulation (paper §5.2: "execution is linear in the number of net
/// connections and data dependencies").
///
/// A `Circuit` is a handle on one reference-counted body, so `clone()`
/// only bumps a count: every session of a server can hold the same
/// compiled circuit. The builder methods are copy-on-write — an edit
/// through a shared handle copies the body first, so the other handles
/// never see it — and every edit un-seals the circuit and drops what was
/// memoized on the body ([`Circuit::memo`]); call
/// [`Circuit::finalize`] again before running it.
#[derive(Clone, Default)]
pub struct Circuit {
    body: Rc<Body>,
}

#[derive(Debug, Clone, Default)]
struct Body {
    name: String,
    nets: Vec<Net>,
    registers: Vec<Register>,
    signals: Vec<SignalInfo>,
    counters: Vec<CounterInfo>,
    asyncs: Vec<AsyncInfo>,
    actions: Vec<Action>,
    by_name: HashMap<String, SignalId>,
    /// Net that is 1 exactly at the first reaction (the "boot" wire).
    boot_net: Option<NetId>,
    /// Root completion net: 1 when the whole program terminates.
    terminated_net: Option<NetId>,
    /// Flattened fanout edges with the consuming edge's polarity, grouped
    /// by source net (compressed sparse rows, computed by
    /// [`Circuit::finalize`]). `fanout_start[i]..fanout_start[i+1]` slices
    /// the edges of net `i`.
    fanout_edges: Vec<(NetId, bool)>,
    fanout_start: Vec<u32>,
    /// Flattened dependency fanouts (which nets wait on me), same layout.
    dep_fanout_edges: Vec<NetId>,
    dep_fanout_start: Vec<u32>,
    finalized: bool,
    memo: Memo,
}

/// The body's memo slot (see [`Circuit::memo`]). Copying a body — the
/// first step of any copy-on-write edit — starts it empty, so a derived
/// value never outlives the exact structure it was derived from.
#[derive(Default)]
struct Memo(OnceCell<Rc<dyn Any>>);

impl Clone for Memo {
    fn clone(&self) -> Memo {
        Memo::default()
    }
}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.get().is_some() { "Memo(set)" } else { "Memo(empty)" })
    }
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.body.fmt(f)
    }
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Circuit {
        Circuit {
            body: Rc::new(Body {
                name: name.into(),
                ..Body::default()
            }),
        }
    }

    /// Write access for the builder methods: copies the body if another
    /// handle shares it, then un-seals it and drops its memo — neither
    /// the fanout tables nor a derived value describe the edited
    /// structure any more.
    fn body_mut(&mut self) -> &mut Body {
        let body = Rc::make_mut(&mut self.body);
        body.finalized = false;
        body.memo.0.take();
        body
    }

    fn push_net(&mut self, net: Net) -> NetId {
        let nets = &mut self.body_mut().nets;
        let id = NetId(nets.len() as u32);
        nets.push(net);
        id
    }

    /// Adds an OR gate over `fanins`.
    pub fn or(&mut self, fanins: Vec<Fanin>, label: &'static str) -> NetId {
        self.push_net(Net {
            kind: NetKind::Or,
            fanins,
            action: None,
            deps: Vec::new(),
            label,
            loc: Loc::synthetic(),
            sig_hint: None,
        })
    }

    /// Adds an AND gate over `fanins`.
    pub fn and(&mut self, fanins: Vec<Fanin>, label: &'static str) -> NetId {
        self.push_net(Net {
            kind: NetKind::And,
            fanins,
            action: None,
            deps: Vec::new(),
            label,
            loc: Loc::synthetic(),
            sig_hint: None,
        })
    }

    /// Adds a constant net.
    pub fn constant(&mut self, v: bool, label: &'static str) -> NetId {
        self.push_net(Net {
            kind: NetKind::Const(v),
            fanins: Vec::new(),
            action: None,
            deps: Vec::new(),
            label,
            loc: Loc::synthetic(),
            sig_hint: None,
        })
    }

    /// Adds an environment input net.
    pub fn input(&mut self, label: &'static str) -> NetId {
        self.push_net(Net {
            kind: NetKind::Input,
            fanins: Vec::new(),
            action: None,
            deps: Vec::new(),
            label,
            loc: Loc::synthetic(),
            sig_hint: None,
        })
    }

    /// Adds a test net controlled by `control`.
    pub fn test(&mut self, control: NetId, kind: TestKind, label: &'static str) -> NetId {
        self.push_net(Net {
            kind: NetKind::Test(kind),
            fanins: vec![Fanin::pos(control)],
            action: None,
            deps: Vec::new(),
            label,
            loc: Loc::synthetic(),
            sig_hint: None,
        })
    }

    /// Adds a register; returns `(reg, output_net)`. The input net is set
    /// later with [`Circuit::set_register_input`] (bodies are translated
    /// before their surrounding control wires exist).
    pub fn register(&mut self, init: bool, label: &'static str) -> (RegId, NetId) {
        let reg = RegId(self.body.registers.len() as u32);
        let out = self.push_net(Net {
            kind: NetKind::RegOut(reg),
            fanins: Vec::new(),
            action: None,
            deps: Vec::new(),
            label,
            loc: Loc::synthetic(),
            sig_hint: None,
        });
        self.body_mut().registers.push(Register {
            input: out, // placeholder, replaced by set_register_input
            output: out,
            init,
            label,
        });
        (reg, out)
    }

    /// Connects a register's input equation.
    pub fn set_register_input(&mut self, reg: RegId, input: NetId) {
        self.body_mut().registers[reg.index()].input = input;
    }

    /// Appends a fanin to an existing gate (used to OR contributions into
    /// signal status nets and register inputs incrementally).
    pub fn add_fanin(&mut self, net: NetId, fanin: Fanin) {
        let n = &mut self.body_mut().nets[net.index()];
        debug_assert!(matches!(n.kind, NetKind::Or | NetKind::And));
        n.fanins.push(fanin);
    }

    /// Attaches an action to a net.
    pub fn attach_action(&mut self, net: NetId, action: Action) -> ActionId {
        let body = self.body_mut();
        let id = ActionId(body.actions.len() as u32);
        body.actions.push(action);
        let n = &mut body.nets[net.index()];
        assert!(n.action.is_none(), "net {net} already has an action");
        n.action = Some(id);
        id
    }

    /// Adds a data dependency: `net` must wait for `on` to resolve. A
    /// self-dependency is kept: it makes the net unresolvable, which the
    /// runtime reports as a causality error (e.g. `emit S(S.nowval)`).
    pub fn add_dep(&mut self, net: NetId, on: NetId) {
        if !self.body.nets[net.index()].deps.contains(&on) {
            self.body_mut().nets[net.index()].deps.push(on);
        }
    }

    /// Declares a signal instance. The status net must already exist.
    pub fn add_signal(&mut self, info: SignalInfo) -> SignalId {
        let body = self.body_mut();
        let id = SignalId(body.signals.len() as u32);
        body.by_name.insert(info.name.clone(), id);
        body.signals.push(info);
        id
    }

    /// Registers an emitter net for a signal (value-readiness tracking).
    pub fn add_emitter(&mut self, signal: SignalId, net: NetId) {
        self.body_mut().signals[signal.index()].emitters.push(net);
    }

    /// Declares a delay counter.
    pub fn add_counter(&mut self, label: &'static str) -> CounterId {
        let counters = &mut self.body_mut().counters;
        let id = CounterId(counters.len() as u32);
        counters.push(CounterInfo { label });
        id
    }

    /// Declares an async instance.
    pub fn add_async(&mut self, info: AsyncInfo) -> AsyncId {
        let asyncs = &mut self.body_mut().asyncs;
        let id = AsyncId(asyncs.len() as u32);
        asyncs.push(info);
        id
    }

    /// Sets the debug metadata of a net.
    pub fn describe(&mut self, net: NetId, loc: Loc, sig_hint: Option<SignalId>) {
        let n = &mut self.body_mut().nets[net.index()];
        n.loc = loc;
        n.sig_hint = sig_hint;
    }

    /// Sets the boot wire (see [`Circuit::boot_net`]).
    pub fn set_boot_net(&mut self, net: Option<NetId>) {
        self.body_mut().boot_net = net;
    }

    /// Sets the root completion net (see [`Circuit::terminated_net`]).
    pub fn set_terminated_net(&mut self, net: Option<NetId>) {
        self.body_mut().terminated_net = net;
    }

    // ------------------------------------------------------------------
    // Accessors.

    /// Program name.
    pub fn name(&self) -> &str {
        &self.body.name
    }
    /// Net that is 1 exactly at the first reaction (the "boot" wire).
    pub fn boot_net(&self) -> Option<NetId> {
        self.body.boot_net
    }
    /// Root completion net: 1 when the whole program terminates.
    pub fn terminated_net(&self) -> Option<NetId> {
        self.body.terminated_net
    }
    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.body.nets
    }
    /// All registers.
    pub fn registers(&self) -> &[Register] {
        &self.body.registers
    }
    /// All signals.
    pub fn signals(&self) -> &[SignalInfo] {
        &self.body.signals
    }
    /// All counters.
    pub fn counters(&self) -> &[CounterInfo] {
        &self.body.counters
    }
    /// All async instances.
    pub fn asyncs(&self) -> &[AsyncInfo] {
        &self.body.asyncs
    }
    /// All actions.
    pub fn actions(&self) -> &[Action] {
        &self.body.actions
    }
    /// A net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.body.nets[id.index()]
    }
    /// A signal by id.
    pub fn signal(&self, id: SignalId) -> &SignalInfo {
        &self.body.signals[id.index()]
    }
    /// Looks a signal up by (linked) name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.body.by_name.get(name).copied()
    }
    /// Fanouts of a net with the consuming edge's polarity (requires
    /// [`Circuit::finalize`]).
    pub fn fanouts(&self, id: NetId) -> &[(NetId, bool)] {
        let b = &*self.body;
        let s = b.fanout_start[id.index()] as usize;
        let e = b.fanout_start[id.index() + 1] as usize;
        &b.fanout_edges[s..e]
    }
    /// Nets depending on `id` (requires [`Circuit::finalize`]).
    pub fn dep_fanouts(&self, id: NetId) -> &[NetId] {
        let b = &*self.body;
        let s = b.dep_fanout_start[id.index()] as usize;
        let e = b.dep_fanout_start[id.index() + 1] as usize;
        &b.dep_fanout_edges[s..e]
    }
    /// Whether [`Circuit::finalize`] has run since the last edit.
    pub fn is_finalized(&self) -> bool {
        self.body.finalized
    }
    /// The value `build` derives from this circuit, memoized in the
    /// shared body: the first call builds it, and every later call
    /// through any handle on the same body returns the same `Rc`. The
    /// memo lives exactly as long as the body — an edit copies or
    /// clears it — so it can never describe a different structure, and
    /// a freed body's memo cannot be found through a recycled address.
    ///
    /// The body holds one memo. If it already holds a value of another
    /// type, `build` runs and its result is returned without being
    /// memoized. `build` must not keep a handle on the circuit, or the
    /// body would own a value that owns the body.
    pub fn memo<T: Any>(&self, build: impl FnOnce(&Circuit) -> T) -> Rc<T> {
        let slot = &self.body.memo.0;
        if let Some(value) = slot.get() {
            return match value.clone().downcast::<T>() {
                Ok(value) => value,
                Err(_) => Rc::new(build(self)),
            };
        }
        let value = Rc::new(build(self));
        // `build` may itself have filled the slot; keep the first value.
        let _ = slot.set(value.clone());
        value
    }

    // ------------------------------------------------------------------
    // Sealing.

    /// Computes fanout and dependency-fanout tables; call once after
    /// construction (and again after an edit). Sealing a circuit that is
    /// already sealed does nothing, so its memo survives.
    ///
    /// The tables are compressed sparse rows: one contiguous edge array
    /// per table plus per-net start offsets, so a reaction's fanout walks
    /// touch dense cache-friendly memory instead of a `Vec` per net.
    pub fn finalize(&mut self) {
        if self.body.finalized {
            return;
        }
        let body = self.body_mut();
        let n = body.nets.len();
        let mut fan_count = vec![0u32; n];
        let mut dep_count = vec![0u32; n];
        for net in &body.nets {
            for f in &net.fanins {
                fan_count[f.net.index()] += 1;
            }
            for d in &net.deps {
                dep_count[d.index()] += 1;
            }
        }
        let prefix = |counts: &[u32]| -> Vec<u32> {
            let mut start = Vec::with_capacity(counts.len() + 1);
            let mut acc = 0u32;
            start.push(0);
            for &c in counts {
                acc += c;
                start.push(acc);
            }
            start
        };
        let fanout_start = prefix(&fan_count);
        let dep_fanout_start = prefix(&dep_count);
        let mut fanout_edges = vec![(NetId(0), false); *fanout_start.last().unwrap() as usize];
        let mut dep_fanout_edges = vec![NetId(0); *dep_fanout_start.last().unwrap() as usize];
        // Second pass: scatter edges; cursors start at each row's offset,
        // preserving consumer order within a row.
        let mut fan_cur: Vec<u32> = fanout_start[..n].to_vec();
        let mut dep_cur: Vec<u32> = dep_fanout_start[..n].to_vec();
        for (i, net) in body.nets.iter().enumerate() {
            for f in &net.fanins {
                let c = &mut fan_cur[f.net.index()];
                fanout_edges[*c as usize] = (NetId(i as u32), f.negated);
                *c += 1;
            }
            for d in &net.deps {
                let c = &mut dep_cur[d.index()];
                dep_fanout_edges[*c as usize] = NetId(i as u32);
                *c += 1;
            }
        }
        body.fanout_edges = fanout_edges;
        body.fanout_start = fanout_start;
        body.dep_fanout_edges = dep_fanout_edges;
        body.dep_fanout_start = dep_fanout_start;
        body.finalized = true;
    }

    /// Structural sanity checks; panics on an internally inconsistent
    /// circuit (compiler bug), returns `self` for chaining in tests.
    ///
    /// # Panics
    ///
    /// On dangling net references, tests without exactly one control
    /// fanin, inputs/constants/registers with fanins, or actions referring
    /// to out-of-range entities.
    pub fn validate(&self) {
        let b = &*self.body;
        let n = b.nets.len() as u32;
        for (i, net) in b.nets.iter().enumerate() {
            for f in &net.fanins {
                assert!(f.net.0 < n, "net {i}: dangling fanin {}", f.net);
            }
            for d in &net.deps {
                assert!(d.0 < n, "net {i}: dangling dep {d}");
            }
            match &net.kind {
                NetKind::Input | NetKind::Const(_) | NetKind::RegOut(_) => {
                    assert!(net.fanins.is_empty(), "net {i} ({:?}) has fanins", net.kind);
                }
                NetKind::Test(_) => {
                    assert_eq!(net.fanins.len(), 1, "test net {i} needs 1 control fanin");
                }
                NetKind::Or | NetKind::And => {}
            }
            if let Some(a) = net.action {
                assert!((a.0 as usize) < b.actions.len(), "net {i}: bad action");
            }
        }
        for (i, r) in b.registers.iter().enumerate() {
            assert!(r.input.0 < n, "register {i}: dangling input");
            assert!(
                matches!(b.nets[r.output.index()].kind, NetKind::RegOut(id) if id.index() == i),
                "register {i}: output net mismatch"
            );
        }
        for s in &b.signals {
            assert!(s.status_net.0 < n);
            assert!(s.pre_net.0 < n);
            for e in &s.emitters {
                assert!(e.0 < n);
            }
        }
    }

    // ------------------------------------------------------------------
    // Rewriting (used by the optimizer). Like every edit, these un-seal
    // the circuit: the fanout tables are stale until the next finalize.

    /// Replaces a net's fanins and dependency list.
    pub fn set_net_edges(&mut self, id: NetId, fanins: Vec<Fanin>, deps: Vec<NetId>) {
        let n = &mut self.body_mut().nets[id.index()];
        n.fanins = fanins;
        n.deps = deps;
    }

    /// Redirects every structural net reference (register inputs, signal
    /// nets, emitter lists, async notify wires, boot/terminated) through
    /// `f`.
    pub fn remap_references(&mut self, f: &mut dyn FnMut(NetId) -> NetId) {
        let body = self.body_mut();
        for r in &mut body.registers {
            r.input = f(r.input);
            // r.output is a RegOut net, never redirected.
        }
        for s in &mut body.signals {
            s.status_net = f(s.status_net);
            s.pre_net = f(s.pre_net);
            if let Some(i) = &mut s.input_net {
                *i = f(*i);
            }
            for e in &mut s.emitters {
                *e = f(*e);
            }
        }
        for a in &mut body.asyncs {
            a.notify_net = f(a.notify_net);
        }
        if let Some(b) = &mut body.boot_net {
            *b = f(*b);
        }
        if let Some(t) = &mut body.terminated_net {
            *t = f(*t);
        }
    }

    /// Drops nets whose `live` flag is false, compacting net and register
    /// ids and remapping every reference.
    ///
    /// # Panics
    ///
    /// Panics if a live net references a dead one (the caller must mark
    /// transitively).
    pub fn compact_nets(&mut self, live: &[bool]) {
        let body = self.body_mut();
        assert_eq!(live.len(), body.nets.len());
        let mut net_map: Vec<Option<NetId>> = vec![None; body.nets.len()];
        let mut next = 0u32;
        for (i, &alive) in live.iter().enumerate() {
            if alive {
                net_map[i] = Some(NetId(next));
                next += 1;
            }
        }
        let remap = |id: NetId| -> NetId {
            net_map[id.index()].unwrap_or_else(|| panic!("live net references dead net {id}"))
        };

        // Registers live iff their output net is live.
        let mut reg_map: Vec<Option<RegId>> = vec![None; body.registers.len()];
        let mut new_regs = Vec::new();
        for (i, r) in body.registers.iter().enumerate() {
            if live[r.output.index()] {
                reg_map[i] = Some(RegId(new_regs.len() as u32));
                new_regs.push(Register {
                    input: remap(r.input),
                    output: remap(r.output),
                    init: r.init,
                    label: r.label,
                });
            }
        }

        let old = std::mem::take(&mut body.nets);
        for (i, mut net) in old.into_iter().enumerate() {
            if !live[i] {
                continue;
            }
            for f in &mut net.fanins {
                f.net = remap(f.net);
            }
            for d in &mut net.deps {
                *d = remap(*d);
            }
            if let NetKind::RegOut(r) = &mut net.kind {
                *r = reg_map[r.index()].expect("live RegOut has live register");
            }
            body.nets.push(net);
        }
        body.registers = new_regs;
        for s in &mut body.signals {
            s.status_net = remap(s.status_net);
            s.pre_net = remap(s.pre_net);
            if let Some(i) = &mut s.input_net {
                *i = remap(*i);
            }
            for e in &mut s.emitters {
                *e = remap(*e);
            }
        }
        for a in &mut body.asyncs {
            a.notify_net = remap(a.notify_net);
        }
        if let Some(b) = &mut body.boot_net {
            *b = remap(*b);
        }
        if let Some(t) = &mut body.terminated_net {
            *t = remap(*t);
        }
    }

    // ------------------------------------------------------------------
    // Analyses.

    /// Strongly connected components of the combinational graph with more
    /// than one net (or a self-loop). These are the *potential* causality
    /// cycles the paper says deserve a compile-time warning; at runtime
    /// they may still evaluate constructively.
    pub fn static_cycles(&self) -> Vec<Vec<NetId>> {
        // A view over the SCC condensation (see `analysis.rs`): the
        // nontrivial components in topological order, members sorted by
        // ascending net id.
        let cond = self.condensation();
        cond.nontrivial()
            .iter()
            .map(|&comp| cond.members(comp).to_vec())
            .collect()
    }

    /// Topological levelization of the combinational graph (fanin edges
    /// plus data dependencies; registers break cycles by construction), or
    /// `None` if the graph has a static cycle — exactly when
    /// [`Circuit::static_cycles`] is non-empty.
    ///
    /// This is the classic Esterel acyclic-circuit strategy: when the
    /// graph levelizes, a reaction can be evaluated by a single dense
    /// sweep in level order with no constructive ⊥-bookkeeping, because
    /// every fanin *and* every data dependency of a net stabilizes at a
    /// strictly lower level.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not finalized (the Kahn pass walks the
    /// fanout tables).
    pub fn levelize(&self) -> Option<Levelization> {
        assert!(self.is_finalized(), "levelize requires a finalized circuit");
        let n = self.nets().len();
        let mut indegree = vec![0u32; n];
        for (i, net) in self.nets().iter().enumerate() {
            indegree[i] = (net.fanins.len() + net.deps.len()) as u32;
        }
        let mut level_of = vec![0u32; n];
        let mut order: Vec<NetId> = Vec::with_capacity(n);
        let mut level_starts = vec![0u32];
        let mut frontier: Vec<NetId> = (0..n as u32)
            .filter(|&i| indegree[i as usize] == 0)
            .map(NetId)
            .collect();
        let mut level = 0u32;
        while !frontier.is_empty() {
            // Canonical within-level order: ascending net id.
            frontier.sort_unstable();
            order.extend_from_slice(&frontier);
            level_starts.push(order.len() as u32);
            let mut next = Vec::new();
            for &v in &frontier {
                let mut relax = |w: NetId| {
                    let d = &mut indegree[w.index()];
                    *d -= 1;
                    if *d == 0 {
                        // The last predecessor of `w` sits on this level,
                        // so `w` belongs to the next one.
                        level_of[w.index()] = level + 1;
                        next.push(w);
                    }
                };
                for &(w, _) in self.fanouts(v) {
                    relax(w);
                }
                for &w in self.dep_fanouts(v) {
                    relax(w);
                }
            }
            frontier = next;
            level += 1;
        }
        if order.len() < n {
            return None; // A combinational cycle kept some nets unready.
        }
        Some(Levelization {
            order,
            level_starts,
            level_of,
        })
    }

    /// Statistics for the paper's §5.3 measurements.
    pub fn stats(&self) -> CircuitStats {
        let b = &*self.body;
        let fanin_edges = b.nets.iter().map(|x| x.fanins.len()).sum();
        let dep_edges = b.nets.iter().map(|x| x.deps.len()).sum();
        CircuitStats {
            nets: b.nets.len(),
            registers: b.registers.len(),
            signals: b.signals.len(),
            counters: b.counters.len(),
            asyncs: b.asyncs.len(),
            actions: b.actions.len(),
            fanin_edges,
            dep_edges,
            bytes: self.memory_bytes(),
        }
    }

    /// Estimated memory footprint of the circuit structure in bytes
    /// (struct sizes plus owned heap), the analogue of the paper's
    /// "192 to 216 bytes per net" JavaScript accounting. The body is
    /// counted once however many handles share it, and without its memo
    /// slot: what the runtime derives and memoizes there is not
    /// structure.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let b = &*self.body;
        let mut total = size_of::<Body>() - size_of::<Memo>();
        for net in &b.nets {
            total += size_of::<Net>();
            total += net.fanins.capacity() * size_of::<Fanin>();
            total += net.deps.capacity() * size_of::<NetId>();
        }
        total += b.registers.capacity() * size_of::<Register>();
        total += b.actions.capacity() * size_of::<Action>();
        total += b.fanout_edges.capacity() * size_of::<(NetId, bool)>();
        total += b.fanout_start.capacity() * size_of::<u32>();
        total += b.dep_fanout_edges.capacity() * size_of::<NetId>();
        total += b.dep_fanout_start.capacity() * size_of::<u32>();
        for s in &b.signals {
            total += size_of::<SignalInfo>()
                + s.name.capacity()
                + s.emitters.capacity() * size_of::<NetId>();
        }
        total += b.counters.capacity() * size_of::<CounterInfo>();
        total += b.asyncs.capacity() * size_of::<AsyncInfo>();
        total
    }

    /// Graphviz dot rendering for debugging small circuits. Nets caught
    /// in a static cycle are filled with a per-SCC color so the cycles
    /// stand out.
    pub fn to_dot(&self) -> String {
        self.render_dot(None)
    }

    /// Like [`Circuit::to_dot`], but additionally colors nets by their
    /// inter-instant dataflow facts: provably-0 nets fill gray, provably-1
    /// nets fill gold, and unobservable nets get a dashed gray outline.
    /// SCC cycle fills take precedence (a cyclic net keeps its SCC color).
    pub fn to_dot_with_facts(&self, facts: &crate::dataflow::CircuitFacts) -> String {
        self.render_dot(Some(facts))
    }

    fn render_dot(&self, facts: Option<&crate::dataflow::CircuitFacts>) -> String {
        use std::fmt::Write as _;
        const SCC_PALETTE: [&str; 6] = [
            "lightsalmon",
            "lightblue",
            "palegreen",
            "khaki",
            "plum",
            "lightpink",
        ];
        let cond = self.condensation();
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name());
        let _ = writeln!(s, "  rankdir=LR; node [fontsize=9];");
        for (i, net) in self.nets().iter().enumerate() {
            let shape = match net.kind {
                NetKind::Or => "ellipse",
                NetKind::And => "box",
                NetKind::Input => "invtriangle",
                NetKind::Const(_) => "plaintext",
                NetKind::RegOut(_) => "doublecircle",
                NetKind::Test(_) => "diamond",
            };
            let extra = match net.kind {
                NetKind::Const(v) => format!("={}", v as u8),
                _ => String::new(),
            };
            let act = if net.action.is_some() { "*" } else { "" };
            let comp = cond.comp_of(NetId(i as u32));
            let fill = if cond.is_nontrivial(comp) {
                let scc = cond
                    .nontrivial()
                    .iter()
                    .position(|&c| c == comp)
                    .unwrap_or(0);
                format!(
                    ", style=filled, fillcolor={}",
                    SCC_PALETTE[scc % SCC_PALETTE.len()]
                )
            } else if let Some(facts) = facts {
                let mut attrs = String::new();
                match facts.values[i].singleton() {
                    Some(false) => attrs.push_str(", style=filled, fillcolor=gray85"),
                    Some(true) => attrs.push_str(", style=filled, fillcolor=gold"),
                    None => {}
                }
                if !facts.observable[i] {
                    attrs.push_str(", color=gray50");
                }
                attrs
            } else {
                String::new()
            };
            let _ = writeln!(
                s,
                "  n{i} [label=\"{}{}{}#{i}\", shape={shape}{fill}];",
                net.label, extra, act
            );
            for f in &net.fanins {
                let style = if f.negated { " [arrowhead=odot]" } else { "" };
                let _ = writeln!(s, "  n{} -> n{i}{style};", f.net.index());
            }
            for d in &net.deps {
                let _ = writeln!(s, "  n{} -> n{i} [style=dashed,color=gray];", d.index());
            }
        }
        for r in self.registers() {
            let _ = writeln!(
                s,
                "  n{} -> n{} [style=dotted,label=\"reg\"];",
                r.input.index(),
                r.output.index()
            );
        }
        s.push_str("}\n");
        s
    }
}

/// A topological levelization of an acyclic combinational graph, from
/// [`Circuit::levelize`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Levelization {
    /// Every net exactly once, in topological order, grouped by level
    /// (level 0 first; ascending net id within a level).
    pub order: Vec<NetId>,
    /// Start offset of each level in `order` (length = `levels() + 1`).
    pub level_starts: Vec<u32>,
    /// Topological level of each net, indexed by net id.
    pub level_of: Vec<u32>,
}

impl Levelization {
    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.level_starts.len().saturating_sub(1)
    }
    /// Size of the widest level (the sweep's available parallelism).
    pub fn max_width(&self) -> usize {
        self.level_starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }
    /// The nets of one level.
    pub fn level(&self, i: usize) -> &[NetId] {
        &self.order[self.level_starts[i] as usize..self.level_starts[i + 1] as usize]
    }
    /// Per-level population, in level order — the width histogram
    /// behind [`Levelization::max_width`]. The sum equals
    /// `order.len()`.
    pub fn widths(&self) -> Vec<usize> {
        self.level_starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }
}

/// Aggregate circuit statistics (experiments E2/E3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitStats {
    /// Number of nets.
    pub nets: usize,
    /// Number of registers.
    pub registers: usize,
    /// Number of signal instances.
    pub signals: usize,
    /// Number of delay counters.
    pub counters: usize,
    /// Number of async instances.
    pub asyncs: usize,
    /// Number of attached actions.
    pub actions: usize,
    /// Total gate-input connections.
    pub fanin_edges: usize,
    /// Total data-dependency edges.
    pub dep_edges: usize,
    /// Estimated structure memory in bytes.
    pub bytes: usize,
}

impl CircuitStats {
    /// Average bytes per net (the paper reports 192–216 B/net for the
    /// JavaScript object representation).
    pub fn bytes_per_net(&self) -> f64 {
        if self.nets == 0 {
            0.0
        } else {
            self.bytes as f64 / self.nets as f64
        }
    }
    /// Average connections per net (the paper: "nodes are on average
    /// connected to two other nets").
    pub fn avg_fanin(&self) -> f64 {
        if self.nets == 0 {
            0.0
        } else {
            self.fanin_edges as f64 / self.nets as f64
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nets, {} regs, {} signals, {} edges (+{} deps), {:.1} B/net, {} KB",
            self.nets,
            self.registers,
            self.signals,
            self.fanin_edges,
            self.dep_edges,
            self.bytes_per_net(),
            self.bytes / 1024
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_circuit() {
        let mut c = Circuit::new("t");
        let a = c.input("a");
        let b = c.input("b");
        let o = c.or(vec![Fanin::pos(a), Fanin::neg(b)], "o");
        let (reg, out) = c.register(false, "r");
        c.set_register_input(reg, o);
        c.finalize();
        c.validate();
        assert_eq!(c.nets().len(), 4);
        assert_eq!(c.fanouts(a), &[(o, false)]);
        assert_eq!(c.fanouts(b), &[(o, true)]);
        assert!(c.fanouts(out).is_empty());
        assert_eq!(c.registers()[0].input, o);
    }

    #[test]
    fn stats_counts_edges() {
        let mut c = Circuit::new("t");
        let a = c.input("a");
        let b = c.or(vec![Fanin::pos(a)], "b");
        let _ = c.and(vec![Fanin::pos(a), Fanin::pos(b)], "c");
        c.finalize();
        let st = c.stats();
        assert_eq!(st.nets, 3);
        assert_eq!(st.fanin_edges, 3);
        assert!(st.bytes > 0);
        assert!(st.bytes_per_net() > 0.0);
        assert!(st.avg_fanin() > 0.9);
    }

    #[test]
    fn static_cycle_detection_finds_x_not_x() {
        // X = not X: a single OR net with a negated self fanin.
        let mut c = Circuit::new("cycle");
        let x = c.or(vec![], "x");
        c.add_fanin(x, Fanin::neg(x));
        c.finalize();
        let cycles = c.static_cycles();
        assert_eq!(cycles, vec![vec![x]]);
    }

    #[test]
    fn static_cycle_detection_finds_mutual_pair() {
        let mut c = Circuit::new("cycle2");
        let a = c.or(vec![], "a");
        let b = c.or(vec![Fanin::pos(a)], "b");
        c.add_fanin(a, Fanin::pos(b));
        // An acyclic bystander.
        let _ = c.and(vec![Fanin::pos(b)], "c");
        c.finalize();
        let cycles = c.static_cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0], vec![a, b]);
    }

    #[test]
    fn registers_break_cycles() {
        let mut c = Circuit::new("reg");
        let (reg, out) = c.register(false, "r");
        let next = c.or(vec![Fanin::neg(out)], "next");
        c.set_register_input(reg, next);
        c.finalize();
        assert!(c.static_cycles().is_empty());
    }

    #[test]
    fn dot_output_mentions_nets() {
        let mut c = Circuit::new("d");
        let a = c.input("inA");
        let _ = c.or(vec![Fanin::neg(a)], "gate");
        let dot = c.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("inA"));
        assert!(dot.contains("arrowhead=odot"));
    }

    #[test]
    fn dot_colors_cyclic_nets_by_scc() {
        let mut c = Circuit::new("cyc");
        let x = c.or(vec![], "x");
        c.add_fanin(x, Fanin::neg(x));
        let _ = c.and(vec![Fanin::pos(x)], "sink");
        let dot = c.to_dot();
        assert!(dot.contains("fillcolor=lightsalmon"), "{dot}");
        assert_eq!(dot.matches("style=filled").count(), 1, "only the cycle");

        let mut ac = Circuit::new("acyclic");
        let a = ac.input("a");
        let _ = ac.or(vec![Fanin::pos(a)], "gate");
        assert!(!ac.to_dot().contains("style=filled"));
    }

    #[test]
    fn dot_with_facts_colors_constants_and_unobservable_nets() {
        let mut c = Circuit::new("facts");
        let c0 = c.constant(false, "c0");
        let i = c.input("i");
        // dead = i & 0 is provably 0; nothing here is observable (no
        // signals, actions or boot/terminated wiring).
        let _dead = c.and(vec![Fanin::pos(i), Fanin::pos(c0)], "dead");
        let facts = crate::dataflow::analyze(&c);
        let dot = c.to_dot_with_facts(&facts);
        assert!(dot.contains("fillcolor=gray85"), "{dot}");
        assert!(dot.contains("color=gray50"), "{dot}");
        // The plain rendering is unchanged by the facts feature.
        assert!(!c.to_dot().contains("gray85"));
    }

    #[test]
    fn levelize_orders_a_diamond() {
        let mut c = Circuit::new("diamond");
        let a = c.input("a");
        let l = c.or(vec![Fanin::pos(a)], "l");
        let r = c.and(vec![Fanin::neg(a)], "r");
        let o = c.or(vec![Fanin::pos(l), Fanin::pos(r)], "o");
        c.finalize();
        let lv = c.levelize().expect("acyclic");
        assert_eq!(lv.levels(), 3);
        assert_eq!(lv.level(0), &[a]);
        assert_eq!(lv.level(1), &[l, r]);
        assert_eq!(lv.level(2), &[o]);
        assert_eq!(lv.level_of, vec![0, 1, 1, 2]);
        assert_eq!(lv.max_width(), 2);
        assert_eq!(lv.order.len(), c.nets().len());
    }

    #[test]
    fn levelize_widths_partition_the_order() {
        let mut c = Circuit::new("widths");
        let a = c.input("a");
        let b = c.input("b");
        let l = c.or(vec![Fanin::pos(a)], "l");
        let r = c.and(vec![Fanin::pos(a), Fanin::neg(b)], "r");
        let _o = c.or(vec![Fanin::pos(l), Fanin::pos(r)], "o");
        c.finalize();
        let lv = c.levelize().expect("acyclic");
        assert_eq!(lv.widths(), vec![2, 2, 1]);
        assert_eq!(lv.widths().iter().sum::<usize>(), lv.order.len());
        assert_eq!(lv.widths().iter().copied().max().unwrap(), lv.max_width());
    }

    #[test]
    fn levelize_counts_dep_edges() {
        // b has no fanin from a but depends on it: still level(a) < level(b).
        let mut c = Circuit::new("deps");
        let a = c.input("a");
        let b = c.or(vec![], "b");
        c.add_dep(b, a);
        c.finalize();
        let lv = c.levelize().expect("acyclic");
        assert_eq!(lv.level_of[a.index()], 0);
        assert_eq!(lv.level_of[b.index()], 1);
    }

    #[test]
    fn levelize_rejects_cycles_exactly_when_static_cycles_fire() {
        let mut c = Circuit::new("cycle");
        let x = c.or(vec![], "x");
        c.add_fanin(x, Fanin::neg(x));
        c.finalize();
        assert!(!c.static_cycles().is_empty());
        assert!(c.levelize().is_none());

        let mut c2 = Circuit::new("reg");
        let (reg, out) = c2.register(false, "r");
        let next = c2.or(vec![Fanin::neg(out)], "next");
        c2.set_register_input(reg, next);
        c2.finalize();
        assert!(c2.static_cycles().is_empty());
        assert!(c2.levelize().is_some());
    }

    #[test]
    fn clones_share_the_body_and_its_memo_until_edited() {
        let mut c = Circuit::new("memo");
        let a = c.input("a");
        let o = c.or(vec![Fanin::pos(a)], "o");
        c.finalize();
        let first = c.memo(|c| c.nets().len());
        let clone = c.clone();
        assert!(Rc::ptr_eq(&c.body, &clone.body));
        assert!(Rc::ptr_eq(&first, &clone.memo::<usize>(|_| unreachable!("memoized"))));

        // An edit through a shared handle copies the body; the copy
        // starts un-sealed with an empty memo, the original keeps both.
        let mut edited = clone.clone();
        edited.add_fanin(o, Fanin::neg(a));
        assert!(!Rc::ptr_eq(&edited.body, &c.body));
        assert!(!edited.is_finalized() && c.is_finalized());
        assert_eq!(*edited.memo(|c| c.nets().len() + 100), 102);
        assert_eq!(edited.net(o).fanins.len(), 2);
        assert_eq!(c.net(o).fanins.len(), 1);
        assert!(Rc::ptr_eq(&first, &c.memo::<usize>(|_| unreachable!("memoized"))));

        // Re-sealing a sealed circuit keeps the memo; an edit drops it
        // even when no other handle shares the body.
        c.finalize();
        assert!(Rc::ptr_eq(&first, &c.memo::<usize>(|_| unreachable!("memoized"))));
        drop(clone);
        c.describe(a, Loc::synthetic(), None);
        assert!(!c.is_finalized());
        assert_eq!(*c.memo(|_| 7usize), 7);

        // A value of another type is built but not memoized.
        assert_eq!(*c.memo(|_| "other"), "other");
        assert_eq!(*c.memo(|_| 8usize), 7);
    }

    #[test]
    fn rewriting_a_finalized_circuit_unseals_it() {
        let mut c = Circuit::new("rewrite");
        let a = c.input("a");
        let b = c.input("b");
        let o = c.or(vec![Fanin::pos(a)], "o");
        c.finalize();
        let mut edited = c.clone();
        edited.set_net_edges(o, vec![Fanin::pos(b)], Vec::new());
        assert!(!edited.is_finalized());
        edited.finalize();
        assert_eq!(edited.fanouts(b), &[(o, false)]);
        assert!(edited.fanouts(a).is_empty());
        assert_eq!(c.fanouts(a), &[(o, false)]);
    }

    #[test]
    #[should_panic(expected = "already has an action")]
    fn double_action_panics() {
        let mut c = Circuit::new("a");
        let n = c.or(vec![], "n");
        let sig = SignalId(0);
        c.attach_action(n, Action::Emit { signal: sig, value: None });
        c.attach_action(n, Action::Emit { signal: sig, value: None });
    }
}
