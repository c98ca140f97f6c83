//! The cycle-attribution profiler: a streaming [`Observer`] that turns the
//! retirement stream into per-function, per-PC and per-call-site cycle
//! accounting.
//!
//! The paper reports tag costs only as whole-program aggregates (Tables 1–2);
//! this module answers the question those tables cannot: *where* does tag
//! handling concentrate? A [`Profiler`] attaches to any observed run
//! ([`crate::Executor::run_observed`]) and attributes every cycle — including
//! squashed delay slots and trap penalties — to the instruction that spent it,
//! the function that contains it (via the program's
//! [`SymbolTable`]), and the tag operation /
//! checking category its [`Annot`] names.
//!
//! Attribution is exact by construction: the observer receives cumulative
//! cycle counts, so successive deltas partition the run's total cycles, and
//! each function keeps its own [`Stats`], charged by the same
//! [`Stats::record`] rule as the simulator's. [`Profiler::reconcile`] checks
//! that the functions' books sum to the run's [`Stats`] (total cycles, every
//! class, `(tag op, provenance)` and checking-category cell, squash and trap
//! counts) and reports the first discrepancy — the per-function tables
//! provably *are* the whole-program figures, redistributed.
//!
//! Beyond flat tables the profiler keeps an inferred call stack (calls are
//! retirements landing on a named entry right after a `jal`/`jalr`; returns
//! are retirements at the recorded return address) and accumulates cycles per
//! distinct stack, exported by [`Profiler::folded`] in the standard
//! folded-stack format (`frame;frame;frame count` per line) that flamegraph
//! tools consume directly.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::ControlFlow;

use crate::annot::{Annot, CheckCat, TagOpKind};
use crate::insn::Insn;
use crate::program::Program;
use crate::stats::{InsnClass, Stats};
use crate::symtab::SymbolTable;
use crate::trace::{Observer, Retirement};

/// Sentinel function index: the PC lies outside every named region.
const NO_FUNC: u32 = u32::MAX;
/// Sentinel frame in folded stacks: frames elided by [`FOLD_DEPTH`].
const TRUNCATED: u32 = u32::MAX - 1;
/// Maximum frames kept per folded-stack bucket; deeper stacks collapse their
/// tail into a `...` frame so recursive workloads cannot explode the output.
const FOLD_DEPTH: usize = 48;

/// Cycle accounting for one function (one [`SymbolTable`] region).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncProfile {
    /// Times this function was entered by a call.
    pub calls: u64,
    /// The function's share of the run's [`Stats`]: every retirement,
    /// squashed slot and trap penalty at its PCs, charged exactly as the
    /// simulator charges the whole run.
    pub stats: Stats,
}

/// Cycle accounting for one instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcProfile {
    /// Cycles spent at this PC (execution, squashes, trap penalties).
    pub cycles: u64,
    /// Events at this PC: retirements plus squashes.
    pub count: u64,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    func: u32,
    ret_pc: u32,
}

/// The streaming profiler. See the [module docs](self).
///
/// Build one per observed run with [`Profiler::new`] (it snapshots the
/// program's instructions and symbol table, so it outlives the run) and pass
/// it to [`crate::Executor::run_observed`].
#[derive(Debug, Clone)]
pub struct Profiler {
    symtab: SymbolTable,
    insns: Vec<Insn>,
    /// pc → function index (`NO_FUNC` outside every region).
    func_of: Vec<u32>,
    /// pc → function index when pc is a region entry, else `NO_FUNC`.
    entry_of: Vec<u32>,
    /// Parallel to `symtab.functions()`, plus one trailing `<unknown>` bucket.
    funcs: Vec<FuncProfile>,
    pcs: Vec<PcProfile>,
    /// (call-site pc, callee function) → dynamic call count. Includes
    /// `jalr` sites the symbol table cannot resolve statically.
    calls: HashMap<(u32, u32), u64>,
    folded: HashMap<Vec<u32>, u64>,
    stack: Vec<Frame>,
    /// Cycles accumulated on the current stack, not yet in `folded`.
    pending: u64,
    last_cycle: u64,
    /// Set while a retired `jal`/`jalr` may still land on an entry:
    /// `(call pc, retirements of grace left)` — the one delay slot retires
    /// between the call and its target.
    pending_call: Option<(u32, u8)>,
}

impl Profiler {
    /// A profiler for `program`, using its embedded symbol table.
    pub fn new(program: &Program) -> Profiler {
        let symtab = program.symtab.clone();
        let n = program.insns.len();
        let mut func_of = vec![NO_FUNC; n];
        let mut entry_of = vec![NO_FUNC; n];
        for (i, f) in symtab.functions().iter().enumerate() {
            entry_of[f.start] = i as u32;
            func_of[f.start..f.end].fill(i as u32);
        }
        Profiler {
            insns: program.insns.clone(),
            funcs: vec![FuncProfile::default(); symtab.len() + 1],
            pcs: vec![PcProfile::default(); n],
            symtab,
            func_of,
            entry_of,
            calls: HashMap::new(),
            folded: HashMap::new(),
            stack: Vec::new(),
            pending: 0,
            last_cycle: 0,
            pending_call: None,
        }
    }

    /// The bucket index for `pc` (the trailing bucket for unnamed regions).
    #[inline]
    fn bucket(&self, pc: usize) -> usize {
        match self.func_of.get(pc).copied() {
            Some(f) if f != NO_FUNC => f as usize,
            _ => self.funcs.len() - 1,
        }
    }

    /// Name of bucket `i` (`<unknown>` for the trailing bucket).
    pub fn bucket_name(&self, i: usize) -> &str {
        if i < self.symtab.len() {
            self.symtab.name(i)
        } else {
            "<unknown>"
        }
    }

    /// Move the cycles accumulated on the current stack into their folded
    /// bucket. Called whenever the stack is about to change.
    fn flush_folded(&mut self) {
        if self.pending == 0 {
            return;
        }
        let depth = self.stack.len().min(FOLD_DEPTH);
        // Borrow-friendly lookup by slice; clone the key only on first use.
        let mut key: Vec<u32> = self.stack[..depth].iter().map(|f| f.func).collect();
        if self.stack.len() > FOLD_DEPTH {
            key.push(TRUNCATED);
        }
        *self.folded.entry(key).or_insert(0) += self.pending;
        self.pending = 0;
    }

    /// Keep the inferred call stack consistent with a retirement at `pc`
    /// in function bucket `f` (which may be `NO_FUNC`).
    fn track_stack(&mut self, pc: usize, f: u32) {
        // A call lands when a retired jal/jalr is followed (after its delay
        // slot) by a retirement at a named entry — this also catches direct
        // recursion, which never changes the current function.
        if let Some((call_pc, grace)) = self.pending_call {
            let entry = self.entry_of.get(pc).copied().unwrap_or(NO_FUNC);
            if entry != NO_FUNC {
                *self.calls.entry((call_pc, entry)).or_insert(0) += 1;
                self.flush_folded();
                self.stack.push(Frame {
                    func: entry,
                    ret_pc: call_pc + 2,
                });
                self.funcs[entry as usize].calls += 1;
                self.pending_call = None;
                return;
            }
            self.pending_call = if grace == 0 {
                None
            } else {
                Some((call_pc, grace - 1))
            };
        } else if let Some(top) = self.stack.last() {
            // A return lands exactly on the recorded return address
            // (call pc + 1 delay slot + 1), covering same-function
            // (recursive) returns the range check below cannot see.
            if pc as u32 == top.ret_pc {
                self.flush_folded();
                self.stack.pop();
            }
        }
        // Resynchronize on anything else that moved between functions
        // without a call or return: tail jumps to error stops, trap
        // redirects, and the very first retirement.
        match self.stack.last() {
            Some(top) if top.func == f => {}
            _ => {
                if self.stack.iter().any(|fr| fr.func == f) {
                    self.flush_folded();
                    while self.stack.last().map(|fr| fr.func) != Some(f) {
                        self.stack.pop();
                    }
                } else {
                    self.flush_folded();
                    self.stack.pop();
                    self.stack.push(Frame {
                        func: f,
                        ret_pc: u32::MAX,
                    });
                }
            }
        }
    }

    /// Charge an event at `pc` that spent `delta` cycles to the pc's
    /// counters and to the current stack.
    #[inline]
    fn charge_pc(&mut self, pc: usize, delta: u64) {
        if let Some(p) = self.pcs.get_mut(pc) {
            p.cycles += delta;
            p.count += 1;
        }
        self.pending += delta;
    }

    // --- results ----------------------------------------------------------

    /// Total cycles observed so far (equals `Stats::cycles` after a run).
    pub fn total_cycles(&self) -> u64 {
        self.last_cycle
    }

    /// All cycles attributed to any tag operation, summed over functions.
    pub fn total_tag_cycles(&self) -> u64 {
        self.funcs.iter().map(|f| f.stats.total_tag_cycles()).sum()
    }

    /// Per-function profiles as `(name, profile)`, hottest first (ties broken
    /// by name), functions that never ran omitted.
    pub fn hot_functions(&self) -> Vec<(&str, &FuncProfile)> {
        let mut v: Vec<(&str, &FuncProfile)> = self
            .funcs
            .iter()
            .enumerate()
            .filter(|(_, f)| f.stats.cycles > 0 || f.calls > 0)
            .map(|(i, f)| (self.bucket_name(i), f))
            .collect();
        v.sort_by(|a, b| b.1.stats.cycles.cmp(&a.1.stats.cycles).then(a.0.cmp(b.0)));
        v
    }

    /// Per-PC counters (indexed by instruction index).
    pub fn pc_profiles(&self) -> &[PcProfile] {
        &self.pcs
    }

    /// Dynamic call counts per `(call-site pc, callee name)`, most frequent
    /// first (ties broken by pc).
    pub fn call_counts(&self) -> Vec<(usize, &str, u64)> {
        let mut v: Vec<(usize, &str, u64)> = self
            .calls
            .iter()
            .map(|((pc, callee), n)| (*pc as usize, self.bucket_name(*callee as usize), *n))
            .collect();
        v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(b.1)));
        v
    }

    /// The whole-program [`Stats`] rebuilt from the per-function books
    /// (without a timing breakdown).
    pub fn rebuilt(&self) -> Stats {
        let mut total = Stats::default();
        for f in &self.funcs {
            total += &f.stats;
        }
        total
    }

    /// Check the profiler's books against the simulator's own [`Stats`].
    ///
    /// # Errors
    ///
    /// A description of the first discrepancy. `Ok(())` proves the
    /// per-function tables are an exact redistribution of the whole-program
    /// figures: total cycles, every class, `(tag op, provenance)` and
    /// checking-category cell, squash and trap counts all reconcile.
    pub fn reconcile(&self, stats: &Stats) -> Result<(), String> {
        let ours = self.rebuilt();
        for (what, profiler, simulator) in [
            ("total cycles", self.total_cycles(), stats.cycles),
            ("attributed cycles", ours.cycles, stats.cycles),
            ("squashed slots", ours.squashed, stats.squashed),
            ("traps", ours.traps, stats.traps),
            ("trap cycles", ours.trap_cycles, stats.trap_cycles),
            ("retired", ours.committed, stats.committed),
        ] {
            if profiler != simulator {
                return Err(format!("{what}: profiler {profiler} vs stats {simulator}"));
            }
        }
        if ours.tag_cycles != stats.tag_cycles {
            return Err(format!(
                "tag cycles: profiler {:?} vs stats {:?}",
                ours.tag_cycles, stats.tag_cycles
            ));
        }
        if ours.check_cat_cycles != stats.check_cat_cycles {
            return Err(format!(
                "checking cycles: profiler {:?} vs stats {:?}",
                ours.check_cat_cycles, stats.check_cat_cycles
            ));
        }
        if ours.class_counts != stats.class_counts {
            return Err(format!(
                "class counts: profiler {:?} vs stats {:?}",
                ours.class_counts, stats.class_counts
            ));
        }
        Ok(())
    }

    /// Folded-stack output in the flamegraph text format: one
    /// `frame;frame;frame count` line per distinct stack, sorted by stack for
    /// determinism. The counts are cycles and sum to [`Profiler::total_cycles`].
    pub fn folded(&self) -> String {
        let mut entries: Vec<(String, u64)> = Vec::with_capacity(self.folded.len() + 1);
        let render = |key: &[u32]| -> String {
            let mut s = String::new();
            for (i, f) in key.iter().enumerate() {
                if i > 0 {
                    s.push(';');
                }
                if *f == TRUNCATED {
                    s.push_str("...");
                } else if *f == NO_FUNC {
                    s.push_str("<unknown>");
                } else {
                    s.push_str(self.bucket_name(*f as usize));
                }
            }
            s
        };
        for (key, cycles) in &self.folded {
            entries.push((render(key), *cycles));
        }
        // Cycles still pending on the live stack (a run that just ended).
        if self.pending > 0 && !self.stack.is_empty() {
            let depth = self.stack.len().min(FOLD_DEPTH);
            let mut key: Vec<u32> = self.stack[..depth].iter().map(|f| f.func).collect();
            if self.stack.len() > FOLD_DEPTH {
                key.push(TRUNCATED);
            }
            entries.push((render(&key), self.pending));
        }
        // Merge duplicates (the live stack may repeat a folded key), then sort.
        let mut merged: HashMap<String, u64> = HashMap::new();
        for (k, c) in entries {
            *merged.entry(k).or_insert(0) += c;
        }
        let mut lines: Vec<(String, u64)> = merged.into_iter().collect();
        lines.sort();
        let mut out = String::new();
        for (k, c) in lines {
            let _ = writeln!(out, "{k} {c}");
        }
        out
    }

    /// The hot-spot report: per-function attribution table, the hottest
    /// instructions, and the busiest call sites. Deterministic for a given
    /// program and run (suitable for golden snapshots).
    pub fn report(&self) -> String {
        let mut out = String::new();
        let total = self.total_cycles().max(1);
        let pct = |c: u64| 100.0 * c as f64 / total as f64;

        let funcs = self.hot_functions();
        let name_w = funcs
            .iter()
            .map(|(n, _)| n.len())
            .chain(["function".len(), "total".len()])
            .max()
            .unwrap_or(8);
        let _ = writeln!(
            out,
            "{:name_w$} {:>9} {:>12} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7} {:>8}",
            "function", "calls", "cycles", "%", "tag%",
            "insert", "remove", "extract", "check", "generic",
            "arith", "vector", "list", "squash", "trapcyc",
        );
        for (name, f) in &funcs {
            let _ = writeln!(
                out,
                "{:name_w$} {:>9} {:>12} {:>6.1} {:>6.1} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7} {:>8}",
                name,
                f.calls,
                f.stats.cycles,
                pct(f.stats.cycles),
                pct(f.stats.total_tag_cycles()),
                f.stats.tag_op_cycles(TagOpKind::Insert),
                f.stats.tag_op_cycles(TagOpKind::Remove),
                f.stats.tag_op_cycles(TagOpKind::Extract),
                f.stats.tag_op_cycles(TagOpKind::Check),
                f.stats.tag_op_cycles(TagOpKind::Generic),
                f.stats.checking_cycles(CheckCat::Arith),
                f.stats.checking_cycles(CheckCat::Vector),
                f.stats.checking_cycles(CheckCat::List),
                f.stats.squashed,
                f.stats.trap_cycles,
            );
        }
        let tag_total = self.total_tag_cycles();
        let _ = writeln!(
            out,
            "{:name_w$} {:>9} {:>12} {:>6.1} {:>6.1}",
            "total",
            "",
            self.total_cycles(),
            100.0,
            pct(tag_total),
        );
        let _ = writeln!(
            out,
            "\ntag cycles: {tag_total} of {} total ({:.1}%)",
            self.total_cycles(),
            pct(tag_total)
        );

        let _ = writeln!(out, "\nhottest instructions:");
        let mut hot: Vec<(usize, &PcProfile)> = self
            .pcs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.cycles > 0)
            .collect();
        hot.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then(a.0.cmp(&b.0)));
        let _ = writeln!(
            out,
            "  {:>7} {:<28} {:>12} {:>12}  instruction",
            "pc", "location", "cycles", "events"
        );
        for (pc, p) in hot.iter().take(15) {
            let _ = writeln!(
                out,
                "  {:>7} {:<28} {:>12} {:>12}  {}",
                pc,
                self.symtab.locate(*pc),
                p.cycles,
                p.count,
                self.insns[*pc],
            );
        }

        let _ = writeln!(out, "\nbusiest call sites:");
        let _ = writeln!(
            out,
            "  {:<28} {:<24} {:>12}",
            "call site", "callee", "calls"
        );
        for (pc, callee, n) in self.call_counts().into_iter().take(15) {
            let _ = writeln!(
                out,
                "  {:<28} {:<24} {:>12}",
                self.symtab.locate(pc),
                callee,
                n
            );
        }
        out
    }
}

impl Observer for Profiler {
    fn retire(&mut self, ev: &Retirement, annot: Annot, cycle: u64) -> ControlFlow<()> {
        let delta = cycle - self.last_cycle;
        self.last_cycle = cycle;
        let pc = ev.pc;
        let f = self.func_of.get(pc).copied().unwrap_or(NO_FUNC);

        self.track_stack(pc, f);

        let bucket = self.bucket(pc);
        let stats = &mut self.funcs[bucket].stats;
        if ev.trap.is_some() {
            stats.record_trap(annot, delta);
        } else {
            stats.record(InsnClass::of(ev.insn), annot, delta);
        }
        self.charge_pc(pc, delta);

        if ev.trap.is_none() && matches!(ev.insn, Insn::Jal(..) | Insn::Jalr(..)) {
            self.pending_call = Some((pc as u32, 1));
        }
        ControlFlow::Continue(())
    }

    fn squash(&mut self, pc: usize, branch_annot: Annot, cycle: u64) {
        let delta = cycle - self.last_cycle;
        self.last_cycle = cycle;
        let bucket = self.bucket(pc);
        self.funcs[bucket].stats.record_squashed(branch_annot);
        self.charge_pc(pc, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::exec::{Executor, FastCpu};
    use crate::hw::HwConfig;
    use crate::reg::Reg;

    /// A two-function program: main calls f twice; every cycle lands in a
    /// named bucket, calls are counted, and the folded stacks reconcile.
    #[test]
    fn attributes_calls_and_cycles() {
        let mut asm = Asm::new();
        let entry = asm.here("main");
        asm.set_entry(entry);
        let f = asm.new_label();
        asm.name_label("fn:f", f);
        asm.jal(f, Reg::Link);
        asm.jal(f, Reg::Link);
        asm.halt(Reg::A0);
        asm.bind(f);
        asm.emit(Insn::Addi(Reg::A0, Reg::A0, 1));
        asm.jr(Reg::Link);
        let prog = asm.finish().unwrap();

        let mut prof = Profiler::new(&prog);
        let o = FastCpu::new(&prog, HwConfig::plain(), 1 << 16)
            .unwrap()
            .run_observed(10_000, &mut prof)
            .unwrap();
        assert_eq!(o.halt_code, 2);
        prof.reconcile(&o.stats).expect("books balance");

        let funcs: HashMap<&str, &FuncProfile> = prof.hot_functions().into_iter().collect();
        assert_eq!(funcs["fn:f"].calls, 2);
        assert!(funcs["fn:f"].stats.cycles >= 6, "2 × (addi + jr + slot)");
        assert!(funcs["main"].stats.cycles > 0);
        assert_eq!(
            funcs["main"].stats.cycles + funcs["fn:f"].stats.cycles,
            o.stats.cycles,
            "every cycle attributed"
        );

        // Two dynamic calls through one static site each.
        let calls = prof.call_counts();
        assert_eq!(calls.iter().map(|(_, _, n)| n).sum::<u64>(), 2);
        assert!(calls.iter().all(|(_, callee, _)| *callee == "fn:f"));

        // Folded stacks: main and main;fn:f, cycles summing to the total.
        let folded = prof.folded();
        let mut sum = 0u64;
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("frame count");
            assert!(!stack.is_empty());
            sum += count.parse::<u64>().expect("count parses");
        }
        assert_eq!(sum, o.stats.cycles, "folded counts partition the run");
        assert!(folded.contains("main;fn:f "), "{folded}");
    }

    /// Direct recursion pushes and pops frames via return addresses, so the
    /// shadow stack cannot grow with the call count.
    #[test]
    fn recursion_tracks_depth_not_call_count() {
        let mut asm = Asm::new();
        let entry = asm.here("main");
        asm.set_entry(entry);
        let f = asm.new_label();
        asm.name_label("fn:count", f);
        asm.li(Reg::Sp, 0x8000);
        asm.li(Reg::A0, 6);
        asm.jal(f, Reg::Link);
        asm.halt(Reg::A0);
        // count(n): if n == 0 return; save link, recurse on n-1.
        asm.bind(f);
        let done = asm.new_label();
        asm.beq(Reg::A0, Reg::Zero, done);
        asm.emit(Insn::Addi(Reg::A0, Reg::A0, -1));
        asm.emit(Insn::Addi(Reg::Sp, Reg::Sp, -4));
        asm.st(Reg::Link, Reg::Sp, 0);
        asm.jal(f, Reg::Link);
        asm.ld(Reg::Link, Reg::Sp, 0);
        asm.emit(Insn::Addi(Reg::Sp, Reg::Sp, 4));
        asm.bind(done);
        asm.jr(Reg::Link);
        let prog = asm.finish().unwrap();

        let mut prof = Profiler::new(&prog);
        let o = FastCpu::new(&prog, HwConfig::plain(), 1 << 16)
            .unwrap()
            .run_observed(10_000, &mut prof)
            .unwrap();
        prof.reconcile(&o.stats).expect("books balance");

        let funcs: HashMap<&str, &FuncProfile> = prof.hot_functions().into_iter().collect();
        assert_eq!(funcs["fn:count"].calls, 7, "outer call + 6 recursions");
        // Folded stacks reflect depth: the deepest is main;count×7.
        let deepest = prof
            .folded()
            .lines()
            .map(|l| l.split(' ').next().unwrap().split(';').count())
            .max()
            .unwrap();
        assert_eq!(deepest, 8);
    }

    /// Squashed slots are charged to the branch's function and annotation.
    #[test]
    fn squashes_are_attributed() {
        use crate::insn::Cond;
        let mut asm = Asm::new();
        let entry = asm.here("main");
        asm.set_entry(entry);
        let t = asm.new_label();
        asm.li(Reg::A0, 1);
        asm.br_raw(Cond::Eq, Reg::A0, Reg::Zero, t, true); // not taken, squash
        asm.li(Reg::A0, 50);
        asm.li(Reg::A0, 60);
        asm.halt(Reg::A0);
        asm.bind(t);
        asm.halt(Reg::Zero);
        let prog = asm.finish().unwrap();

        let mut prof = Profiler::new(&prog);
        let o = FastCpu::new(&prog, HwConfig::plain(), 1 << 16)
            .unwrap()
            .run_observed(1_000, &mut prof)
            .unwrap();
        assert_eq!(o.stats.squashed, 2);
        prof.reconcile(&o.stats).expect("books balance");
        let funcs: HashMap<&str, &FuncProfile> = prof.hot_functions().into_iter().collect();
        assert_eq!(funcs["main"].stats.squashed, 2);
    }

    /// A program with no symbols at all still profiles (into `<unknown>`).
    #[test]
    fn unnamed_code_goes_to_unknown() {
        let mut asm = Asm::new();
        let e = asm.new_label();
        asm.bind(e);
        asm.set_entry(e);
        asm.li(Reg::A0, 3);
        asm.halt(Reg::A0);
        let prog = asm.finish().unwrap();
        let mut prof = Profiler::new(&prog);
        let o = FastCpu::new(&prog, HwConfig::plain(), 1 << 16)
            .unwrap()
            .run_observed(1_000, &mut prof)
            .unwrap();
        prof.reconcile(&o.stats).expect("books balance");
        let funcs = prof.hot_functions();
        assert_eq!(funcs.len(), 1);
        assert_eq!(funcs[0].0, "<unknown>");
        assert_eq!(funcs[0].1.stats, o.stats);
    }
}
