//! Optional microarchitectural timing model: pipeline hazards, caches, and
//! branch prediction layered *behind* the [`Executor`] trait.
//!
//! The paper's cost model equates cycles with retired instruction count — a
//! fair approximation of the 1987 MIPS-X, whose exposed delay slots and
//! single-cycle memory made the architectural count *be* the timing. On any
//! later machine that stops being true: tag checks load words (stressing the
//! data cache), checking branches stress the predictor, and inline checks
//! grow the code (stressing the instruction cache). This module measures
//! those effects without touching architectural results.
//!
//! # Design
//!
//! [`TimingModel`] is an [`Observer`]: it consumes the retirement stream
//! (retired instructions *and* squashed delay slots — each is one issue slot)
//! and charges **stall cycles** on top of the architectural cycle count,
//! split by cause:
//!
//! - **icache** — every issue slot fetches `pc`; an L1-I miss stalls for the
//!   L2 (or memory) latency.
//! - **dcache** — every load/store probes L1-D; a miss stalls likewise.
//! - **mispredict** — conditional branches are predicted by the configured
//!   direction predictor, indirect jumps (`jr`/`jalr`) by a BTB; a wrong
//!   prediction charges the front-end redirect penalty. Direct `j`/`jal` are
//!   free (the target is available at decode).
//! - **load-use** — when the configured load latency exceeds the one
//!   architectural delay slot, a consumer that arrives too early waits for
//!   the remainder.
//!
//! Because the model only *reads* the stream, architectural `Stats`, halt
//! codes, output, and store content addresses are byte-identical whether or
//! not a timing model is attached — and because the stream itself is proven
//! identical across backends (the `conformance` crate), so is the timing.
//!
//! The invariant `timed_cycles = cycles + Σ stalls` holds *to the cycle*:
//! every stall is charged through one bookkeeping point that simultaneously
//! feeds the per-cause totals and the per-pc attribution used for
//! per-function reports, so the two views always reconcile exactly.
//!
//! [`Executor`]: crate::exec::Executor
//! [`Observer`]: crate::trace::Observer

use std::ops::ControlFlow;

use crate::annot::Annot;
use crate::insn::Insn;
use crate::symtab::SymbolTable;
use crate::trace::{Observer, Retirement};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Geometry and latency of one cache level.
///
/// Hits in L1 are free (fully pipelined); the cost of a miss is decided by
/// the level below. `size = 0` disables the level (every access misses
/// through it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// Total capacity in bytes (must be `ways * line * 2^k`; 0 = no cache).
    pub size: u32,
    /// Associativity (1 = direct-mapped).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
}

impl CacheParams {
    /// A disabled level.
    pub const NONE: CacheParams = CacheParams {
        size: 0,
        ways: 1,
        line: 16,
    };
}

/// Conditional-branch direction predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// Statically predict every conditional branch not-taken.
    NotTaken,
    /// Per-pc table of 2-bit saturating counters.
    Bimodal,
    /// Global-history-xor-pc indexed 2-bit counters (McFarling).
    Gshare,
}

/// Full timing-model configuration. `Copy`, hashable, and — unlike the
/// executor backend — **part of a measurement's identity**: two runs under
/// different timing configs are different experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingConfig {
    /// Master switch: `false` is the `ideal` model (no stalls, nothing
    /// recorded, measurements byte-identical to a run with no model at all).
    pub enabled: bool,
    /// L1 instruction cache.
    pub l1i: CacheParams,
    /// L1 data cache.
    pub l1d: CacheParams,
    /// Unified L2 (`size = 0` for machines without one).
    pub l2: CacheParams,
    /// Stall cycles for an L1 miss that hits in L2.
    pub l2_latency: u32,
    /// Stall cycles for a miss that goes to memory.
    pub mem_latency: u32,
    /// Direction predictor for conditional branches.
    pub predictor: PredictorKind,
    /// log2 of the direction-predictor table size.
    pub predictor_bits: u8,
    /// log2 of the BTB size (indirect-jump target prediction).
    pub btb_bits: u8,
    /// Front-end redirect cost of a mispredicted branch or indirect jump.
    pub mispredict_penalty: u32,
    /// Total load-to-use latency in cycles. The ISA already exposes one load
    /// delay slot, so consumers stall only for `load_latency - 2` cycles
    /// beyond it (2 = classic pipeline, no stall ever).
    pub load_latency: u32,
}

/// The preset names the spec grammar and daemon accept, in display order.
pub const TIMING_PRESETS: [&str; 3] = ["ideal", "classic5", "modern"];

impl TimingConfig {
    /// No timing model at all: the paper's cost model (cycles = architectural
    /// count). This is the default everywhere.
    pub fn ideal() -> TimingConfig {
        TimingConfig {
            enabled: false,
            ..TimingConfig::classic5()
        }
    }

    /// A 1987 MIPS-X-like core: 5-stage pipeline, small on-chip caches, no
    /// L2, short memory, **no** dynamic prediction — the two exposed delay
    /// slots are the whole branch cost, so mispredict stalls are zero by
    /// construction (that cost is already in the architectural count).
    pub fn classic5() -> TimingConfig {
        TimingConfig {
            enabled: true,
            l1i: CacheParams {
                size: 2048,
                ways: 2,
                line: 16,
            },
            l1d: CacheParams {
                size: 2048,
                ways: 1,
                line: 16,
            },
            l2: CacheParams::NONE,
            l2_latency: 0,
            mem_latency: 8,
            predictor: PredictorKind::NotTaken,
            predictor_bits: 0,
            btb_bits: 0,
            mispredict_penalty: 0,
            load_latency: 2,
        }
    }

    /// A deep modern core: large multi-way L1s, a unified L2, long memory,
    /// gshare + BTB front end with a real redirect penalty, and a 4-cycle
    /// load pipeline (2 cycles beyond the architectural slot).
    pub fn modern() -> TimingConfig {
        TimingConfig {
            enabled: true,
            l1i: CacheParams {
                size: 32 * 1024,
                ways: 4,
                line: 64,
            },
            l1d: CacheParams {
                size: 32 * 1024,
                ways: 4,
                line: 64,
            },
            l2: CacheParams {
                size: 256 * 1024,
                ways: 8,
                line: 64,
            },
            l2_latency: 12,
            mem_latency: 200,
            predictor: PredictorKind::Gshare,
            predictor_bits: 12,
            btb_bits: 9,
            mispredict_penalty: 12,
            load_latency: 4,
        }
    }

    /// Look a preset up by name (`ideal` / `classic5` / `modern`).
    pub fn preset(name: &str) -> Option<TimingConfig> {
        match name {
            "ideal" => Some(TimingConfig::ideal()),
            "classic5" => Some(TimingConfig::classic5()),
            "modern" => Some(TimingConfig::modern()),
            _ => None,
        }
    }

    /// [`preset`](Self::preset), ignoring ASCII case, with a usage-ready
    /// error.
    ///
    /// # Errors
    ///
    /// A message naming the accepted presets.
    pub fn parse(text: &str) -> Result<TimingConfig, String> {
        TimingConfig::preset(&text.to_ascii_lowercase()).ok_or_else(|| {
            format!(
                "unknown timing preset {text:?} (want one of: {})",
                TIMING_PRESETS.join(", ")
            )
        })
    }

    /// The preset this config equals, if any (`"custom"` otherwise).
    pub fn preset_name(&self) -> &'static str {
        for name in TIMING_PRESETS {
            if TimingConfig::preset(name).is_some_and(|p| p == *self) {
                return name;
            }
        }
        "custom"
    }

    /// `true` when no timing model should be attached.
    pub fn is_ideal(&self) -> bool {
        !self.enabled
    }
}

impl Default for TimingConfig {
    fn default() -> TimingConfig {
        TimingConfig::ideal()
    }
}

impl std::fmt::Display for TimingConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.preset_name())
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Stall causes, in report order. Indexes into per-pc attribution rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Instruction-fetch miss.
    Icache,
    /// Data-access miss.
    Dcache,
    /// Branch / indirect-jump misprediction redirect.
    Mispredict,
    /// Load result consumed before the load pipeline delivered it.
    LoadUse,
}

/// Every stall cause, in report order.
pub const ALL_STALL_CAUSES: [StallCause; 4] = [
    StallCause::Icache,
    StallCause::Dcache,
    StallCause::Mispredict,
    StallCause::LoadUse,
];

impl StallCause {
    /// Stable lowercase name (used in reports and the store codec).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Icache => "icache",
            StallCause::Dcache => "dcache",
            StallCause::Mispredict => "mispredict",
            StallCause::LoadUse => "load_use",
        }
    }
}

/// The timing model's verdict on one run: stall cycles by cause plus the
/// event counts behind them. Purely additive to the architectural
/// [`Stats`](crate::Stats) — `timed_cycles = stats.cycles + total_stalls()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingStats {
    /// Stall cycles from instruction-fetch misses.
    pub stall_icache: u64,
    /// Stall cycles from data-access misses.
    pub stall_dcache: u64,
    /// Stall cycles from branch mispredictions.
    pub stall_mispredict: u64,
    /// Stall cycles from load-use interlocks.
    pub stall_load_use: u64,
    /// Instruction-fetch probes (one per issue slot, squashed or not).
    pub icache_accesses: u64,
    /// L1-I misses.
    pub icache_misses: u64,
    /// Data probes (one per load/store).
    pub dcache_accesses: u64,
    /// L1-D misses.
    pub dcache_misses: u64,
    /// L2 probes (every L1 miss, both sides).
    pub l2_accesses: u64,
    /// L2 misses (went to memory).
    pub l2_misses: u64,
    /// Predicted control transfers (conditional branches + indirect jumps).
    pub branches: u64,
    /// Wrong predictions among them.
    pub mispredicts: u64,
}

impl TimingStats {
    /// Total stall cycles across all causes.
    pub fn total_stalls(&self) -> u64 {
        self.stall_icache + self.stall_dcache + self.stall_mispredict + self.stall_load_use
    }

    /// Timed cycle count: architectural cycles plus all stalls.
    pub fn timed_cycles(&self, arch_cycles: u64) -> u64 {
        arch_cycles + self.total_stalls()
    }

    /// The stall total for one cause.
    pub fn stall(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::Icache => self.stall_icache,
            StallCause::Dcache => self.stall_dcache,
            StallCause::Mispredict => self.stall_mispredict,
            StallCause::LoadUse => self.stall_load_use,
        }
    }
}

impl std::ops::AddAssign<&TimingStats> for TimingStats {
    fn add_assign(&mut self, rhs: &TimingStats) {
        self.stall_icache += rhs.stall_icache;
        self.stall_dcache += rhs.stall_dcache;
        self.stall_mispredict += rhs.stall_mispredict;
        self.stall_load_use += rhs.stall_load_use;
        self.icache_accesses += rhs.icache_accesses;
        self.icache_misses += rhs.icache_misses;
        self.dcache_accesses += rhs.dcache_accesses;
        self.dcache_misses += rhs.dcache_misses;
        self.l2_accesses += rhs.l2_accesses;
        self.l2_misses += rhs.l2_misses;
        self.branches += rhs.branches;
        self.mispredicts += rhs.mispredicts;
    }
}

/// Per-function stall attribution row (from [`TimingModel::by_function`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncStalls {
    /// Function name (or `<toplevel>` for pcs outside any symbol).
    pub name: String,
    /// Stall cycles by cause, in [`ALL_STALL_CAUSES`] order.
    pub stalls: [u64; 4],
}

impl FuncStalls {
    /// Total stall cycles attributed to this function.
    pub fn total(&self) -> u64 {
        self.stalls.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// Caches
// ---------------------------------------------------------------------------

/// One set-associative LRU cache level. Tags are full line addresses; each
/// set is kept in MRU-first order (associativity is small).
#[derive(Debug, Clone)]
struct Cache {
    line_shift: u32,
    set_mask: u64,
    ways: usize,
    /// `sets[i]` holds up to `ways` line tags, most-recently-used first.
    sets: Vec<Vec<u64>>,
}

impl Cache {
    /// Build from params; `None` when the level is disabled.
    fn new(p: CacheParams) -> Option<Cache> {
        if p.size == 0 {
            return None;
        }
        assert!(
            p.line.is_power_of_two(),
            "cache line must be a power of two"
        );
        assert!(p.ways >= 1, "cache needs at least one way");
        let n_sets = (p.size / (p.line * p.ways)).max(1);
        assert!(
            n_sets.is_power_of_two(),
            "cache sets must be a power of two (size / (line * ways))"
        );
        Some(Cache {
            line_shift: p.line.trailing_zeros(),
            set_mask: u64::from(n_sets - 1),
            ways: p.ways as usize,
            sets: vec![Vec::new(); n_sets as usize],
        })
    }

    /// Probe (and fill on miss). Returns `true` on hit.
    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = &mut self.sets[(line & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            let tag = set.remove(pos);
            set.insert(0, tag);
            return true;
        }
        if set.len() == self.ways {
            set.pop();
        }
        set.insert(0, line);
        false
    }
}

// ---------------------------------------------------------------------------
// Branch prediction
// ---------------------------------------------------------------------------

/// Direction predictor state (2-bit saturating counters, weakly-not-taken
/// initial state, 12-bit global history for gshare).
#[derive(Debug, Clone)]
struct Predictor {
    kind: PredictorKind,
    mask: u64,
    table: Vec<u8>,
    history: u64,
}

const GSHARE_HISTORY_BITS: u32 = 12;

impl Predictor {
    fn new(kind: PredictorKind, bits: u8) -> Predictor {
        let entries = match kind {
            PredictorKind::NotTaken => 0,
            _ => 1usize << bits,
        };
        Predictor {
            kind,
            mask: entries.saturating_sub(1) as u64,
            table: vec![1; entries], // weakly not-taken
            history: 0,
        }
    }

    fn index(&self, pc: usize) -> usize {
        let pc = pc as u64;
        let ix = match self.kind {
            PredictorKind::NotTaken => 0,
            PredictorKind::Bimodal => pc,
            PredictorKind::Gshare => pc ^ self.history,
        };
        (ix & self.mask) as usize
    }

    fn predict(&self, pc: usize) -> bool {
        match self.kind {
            PredictorKind::NotTaken => false,
            _ => self.table[self.index(pc)] >= 2,
        }
    }

    fn update(&mut self, pc: usize, taken: bool) {
        if self.kind != PredictorKind::NotTaken {
            let ix = self.index(pc);
            let c = &mut self.table[ix];
            *c = if taken {
                (*c + 1).min(3)
            } else {
                c.saturating_sub(1)
            };
        }
        if self.kind == PredictorKind::Gshare {
            self.history =
                ((self.history << 1) | u64::from(taken)) & ((1 << GSHARE_HISTORY_BITS) - 1);
        }
    }
}

/// Branch target buffer for indirect jumps: direct-mapped, tagged by full pc.
#[derive(Debug, Clone)]
struct Btb {
    mask: u64,
    entries: Vec<Option<(usize, usize)>>, // (pc tag, target)
}

impl Btb {
    fn new(bits: u8) -> Btb {
        let n = 1usize << bits;
        Btb {
            mask: (n - 1) as u64,
            entries: vec![None; n],
        }
    }

    fn predict(&self, pc: usize) -> Option<usize> {
        match self.entries[(pc as u64 & self.mask) as usize] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    fn update(&mut self, pc: usize, target: usize) {
        self.entries[(pc as u64 & self.mask) as usize] = Some((pc, target));
    }
}

// ---------------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------------

/// A control transfer whose outcome is not yet known: the MIPS-X delay slots
/// retire first, and the first retirement *after* them reveals where control
/// actually went. Delay slots cannot contain control or trapping
/// instructions (the verifier enforces it), so at most one transfer is ever
/// pending.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// Conditional branch: resolved taken iff the post-slot pc equals the
    /// encoded target.
    Cond {
        pc: usize,
        target: usize,
        fallthrough: usize,
        predicted_taken: bool,
    },
    /// Indirect jump: resolved against the BTB's predicted target.
    Indirect { pc: usize, predicted: Option<usize> },
}

/// The timing model proper: an [`Observer`] that watches one run and
/// accumulates [`TimingStats`] plus per-pc stall attribution.
///
/// Deterministic by construction — its only input is the retirement stream,
/// and every structure (LRU stacks, counters, history, BTB) updates
/// deterministically — so identical streams (any backend, any host) produce
/// identical stats.
#[derive(Debug, Clone)]
pub struct TimingModel {
    config: TimingConfig,
    l1i: Option<Cache>,
    l1d: Option<Cache>,
    l2: Option<Cache>,
    predictor: Predictor,
    btb: Btb,
    /// The unresolved control transfer plus how many delay slots remain.
    pending: Option<(Pending, u8)>,
    /// Cycle (in *timed* time) at which each register's pending load value
    /// becomes available; 0 = no pending load.
    load_ready: [u64; 32],
    /// Upper bound over `load_ready`: lets the common no-load-in-flight case
    /// skip the operand scan (which allocates) entirely.
    max_load_ready: u64,
    stats: TimingStats,
    /// Per-pc stall cycles by cause (grown on demand).
    per_pc: Vec<[u64; 4]>,
}

/// Address-space bit separating instruction lines from data lines in the
/// unified L2 (the simulator's instruction indexes and data byte addresses
/// otherwise overlap).
const ISPACE: u64 = 1 << 40;

impl TimingModel {
    /// Build a model for `config`. Callers should skip construction entirely
    /// when [`TimingConfig::is_ideal`] — an ideal model would observe the run
    /// (costing time) and report all-zero stats.
    pub fn new(config: TimingConfig) -> TimingModel {
        TimingModel {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            predictor: Predictor::new(config.predictor, config.predictor_bits),
            btb: Btb::new(config.btb_bits),
            pending: None,
            load_ready: [0; 32],
            max_load_ready: 0,
            stats: TimingStats::default(),
            per_pc: Vec::new(),
        }
    }

    /// The config the model was built with.
    pub fn config(&self) -> TimingConfig {
        self.config
    }

    /// The accumulated stats (also available any time mid-run).
    pub fn finish(&self) -> TimingStats {
        self.stats
    }

    /// Per-pc stall attribution rows ([`ALL_STALL_CAUSES`] order). Indexed by
    /// instruction pc; pcs never stalled may be absent (short vector).
    pub fn per_pc_stalls(&self) -> &[[u64; 4]] {
        &self.per_pc
    }

    /// Fold per-pc attribution into per-function rows using `symtab`,
    /// sorted by total stall cycles descending. The sum over rows equals the
    /// per-cause totals in [`TimingStats`] exactly.
    pub fn by_function(&self, symtab: &SymbolTable) -> Vec<FuncStalls> {
        let mut rows: Vec<[u64; 4]> = vec![[0; 4]; symtab.len() + 1];
        for (pc, stalls) in self.per_pc.iter().enumerate() {
            let row = symtab.index_of(pc).map_or(symtab.len(), |i| i);
            for c in 0..4 {
                rows[row][c] += stalls[c];
            }
        }
        let mut out: Vec<FuncStalls> = rows
            .into_iter()
            .enumerate()
            .filter(|(_, stalls)| stalls.iter().any(|&s| s > 0))
            .map(|(i, stalls)| FuncStalls {
                name: if i == symtab.len() {
                    "<toplevel>".to_string()
                } else {
                    symtab.name(i).to_string()
                },
                stalls,
            })
            .collect();
        out.sort_by(|a, b| b.total().cmp(&a.total()).then(a.name.cmp(&b.name)));
        out
    }

    /// The single stall bookkeeping point: totals and attribution move
    /// together, so they cannot drift apart.
    fn charge(&mut self, pc: usize, cause: StallCause, cycles: u64) {
        if cycles == 0 {
            return;
        }
        match cause {
            StallCause::Icache => self.stats.stall_icache += cycles,
            StallCause::Dcache => self.stats.stall_dcache += cycles,
            StallCause::Mispredict => self.stats.stall_mispredict += cycles,
            StallCause::LoadUse => self.stats.stall_load_use += cycles,
        }
        if pc >= self.per_pc.len() {
            self.per_pc.resize(pc + 1, [0; 4]);
        }
        let slot = match cause {
            StallCause::Icache => 0,
            StallCause::Dcache => 1,
            StallCause::Mispredict => 2,
            StallCause::LoadUse => 3,
        };
        self.per_pc[pc][slot] += cycles;
    }

    /// Miss cost below L1: probe L2 (if present), then memory.
    fn miss_cost(&mut self, addr: u64) -> u64 {
        match &mut self.l2 {
            Some(l2) => {
                self.stats.l2_accesses += 1;
                if l2.access(addr) {
                    u64::from(self.config.l2_latency)
                } else {
                    self.stats.l2_misses += 1;
                    u64::from(self.config.mem_latency)
                }
            }
            None => u64::from(self.config.mem_latency),
        }
    }

    /// Instruction fetch for the issue slot at `pc` (retired or squashed).
    fn fetch(&mut self, pc: usize) {
        self.stats.icache_accesses += 1;
        let addr = (pc as u64) << 2;
        let hit = match &mut self.l1i {
            Some(c) => c.access(addr),
            None => false,
        };
        if !hit {
            self.stats.icache_misses += 1;
            let cost = self.miss_cost(addr | ISPACE);
            self.charge(pc, StallCause::Icache, cost);
        }
    }

    /// A slot event (retire or squash) while a transfer is pending: consume
    /// a delay slot, or resolve against the post-slot pc.
    fn step_pending(&mut self, retired_pc: Option<usize>) {
        let Some((pending, slots_left)) = self.pending else {
            return;
        };
        if slots_left > 0 {
            self.pending = Some((pending, slots_left - 1));
            return;
        }
        // Post-slot event. Squashes cannot appear here (only delay slots are
        // squashed), so `retired_pc` is present; be lenient if not.
        let Some(actual) = retired_pc else { return };
        self.pending = None;
        self.stats.branches += 1;
        let (bpc, correct) = match pending {
            Pending::Cond {
                pc,
                target,
                fallthrough,
                predicted_taken,
            } => {
                // Taken iff control reached the target rather than falling
                // through. (A branch whose target *is* the fallthrough is
                // resolved taken; either way the front end is right.)
                let taken = actual == target || actual != fallthrough;
                self.predictor.update(pc, taken);
                (pc, taken == predicted_taken)
            }
            Pending::Indirect { pc, predicted } => {
                self.btb.update(pc, actual);
                (pc, predicted == Some(actual))
            }
        };
        if !correct {
            self.stats.mispredicts += 1;
            let penalty = u64::from(self.config.mispredict_penalty);
            self.charge(bpc, StallCause::Mispredict, penalty);
        }
    }

    /// Current position on the *timed* clock.
    fn now(&self, cycle: u64) -> u64 {
        cycle + self.stats.total_stalls()
    }
}

impl Observer for TimingModel {
    fn retire(&mut self, ev: &Retirement, _annot: Annot, cycle: u64) -> ControlFlow<()> {
        // 1. This retirement is the post-slot instruction of any pending
        //    transfer — resolve (and charge the branch) first.
        self.step_pending(Some(ev.pc));

        // 2. Fetch.
        self.fetch(ev.pc);

        // 3. Load-use interlock: stall until every consumed register's
        //    pending load has delivered. The operand scan only runs while a
        //    load could still be in flight.
        let now = self.now(cycle);
        if self.max_load_ready > now {
            let mut ready = 0u64;
            for r in ev.insn.uses().iter() {
                ready = ready.max(self.load_ready[r as usize]);
            }
            if ready > now {
                self.charge(ev.pc, StallCause::LoadUse, ready - now);
            }
        }

        // 4. Data access.
        if let Some(mem) = ev.mem {
            self.stats.dcache_accesses += 1;
            let addr = u64::from(mem.addr);
            let hit = match &mut self.l1d {
                Some(c) => c.access(addr),
                None => false,
            };
            if !hit {
                self.stats.dcache_misses += 1;
                let cost = self.miss_cost(addr);
                self.charge(ev.pc, StallCause::Dcache, cost);
            }
        }

        // 5. A consumer may issue `load_latency` cycles after the load; the
        //    ISA's one delay slot plus the next issue covers 2 of them, so
        //    only configs with `load_latency > 2` ever interlock. (A register
        //    write clears any stale entry.)
        if let Some((rd, _)) = ev.write {
            let is_load = matches!(ev.insn, Insn::Ld(..) | Insn::LdChk { .. });
            self.load_ready[rd as usize] = if is_load && self.config.load_latency > 2 {
                // `now` is re-read: the dcache stall above already waited.
                let ready = self.now(cycle) + u64::from(self.config.load_latency);
                self.max_load_ready = self.max_load_ready.max(ready);
                ready
            } else {
                0
            };
        }

        // 6. New control transfer?
        match ev.insn {
            Insn::Br { target, .. } | Insn::Bri { target, .. } | Insn::TagBr { target, .. } => {
                let predicted_taken = self.predictor.predict(ev.pc);
                self.pending = Some((
                    Pending::Cond {
                        pc: ev.pc,
                        target: target as usize,
                        fallthrough: ev.pc + 3,
                        predicted_taken,
                    },
                    2,
                ));
            }
            Insn::Jr(_) | Insn::Jalr(..) => {
                let predicted = self.btb.predict(ev.pc);
                self.pending = Some((
                    Pending::Indirect {
                        pc: ev.pc,
                        predicted,
                    },
                    1,
                ));
            }
            // Direct jumps are free; traps redirect but their drain cost is
            // already architectural (`trap_penalty`).
            _ => {}
        }
        ControlFlow::Continue(())
    }

    fn squash(&mut self, pc: usize, _branch_annot: Annot, _cycle: u64) {
        // A squashed delay slot still occupies fetch.
        self.step_pending(None);
        self.fetch(pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::exec::{Executor, FastCpu};
    use crate::hw::HwConfig;
    use crate::insn::Cond;
    use crate::reg::Reg;

    fn run_timed(asm: Asm, config: TimingConfig) -> (crate::Stats, TimingStats, TimingModel) {
        let prog = asm.finish().unwrap();
        crate::verify::verify(&prog).unwrap();
        let mut model = TimingModel::new(config);
        let o = FastCpu::new(&prog, HwConfig::plain(), 1 << 16)
            .unwrap()
            .run_observed(1_000_000, &mut model)
            .unwrap();
        (o.stats, model.finish(), model)
    }

    /// A loop body with a load feeding an add, plus a backward branch.
    fn loop_program(iters: i32) -> Asm {
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        asm.li(Reg::T0, 0x100);
        asm.li(Reg::T1, 7);
        asm.st(Reg::T1, Reg::T0, 0);
        asm.li(Reg::S0, 0);
        asm.li(Reg::S1, iters);
        let top = asm.new_label();
        asm.bind(top);
        asm.ld(Reg::T2, Reg::T0, 0);
        asm.nop(); // architectural load delay slot
        asm.emit(Insn::Add(Reg::S0, Reg::S0, Reg::T2));
        asm.emit(Insn::Addi(Reg::S1, Reg::S1, -1));
        asm.br(Cond::Ne, Reg::S1, Reg::Zero, top);
        asm.halt(Reg::S0);
        asm
    }

    #[test]
    fn reconciliation_is_exact() {
        let (stats, t, model) = run_timed(loop_program(50), TimingConfig::modern());
        assert_eq!(
            t.timed_cycles(stats.cycles),
            stats.cycles + t.stall_icache + t.stall_dcache + t.stall_mispredict + t.stall_load_use
        );
        // Per-pc attribution reconciles with the per-cause totals exactly.
        let mut sums = [0u64; 4];
        for row in model.per_pc_stalls() {
            for c in 0..4 {
                sums[c] += row[c];
            }
        }
        for (i, cause) in ALL_STALL_CAUSES.iter().enumerate() {
            assert_eq!(sums[i], t.stall(*cause), "{cause:?} attribution drifted");
        }
    }

    #[test]
    fn ideal_is_ideal_and_presets_resolve() {
        assert!(TimingConfig::ideal().is_ideal());
        assert!(!TimingConfig::classic5().is_ideal());
        assert_eq!(TimingConfig::default(), TimingConfig::ideal());
        for name in TIMING_PRESETS {
            let p = TimingConfig::preset(name).unwrap();
            assert_eq!(p.preset_name(), name);
        }
        assert!(TimingConfig::preset("nope").is_none());
    }

    #[test]
    fn caches_warm_up() {
        let (_, t, _) = run_timed(loop_program(100), TimingConfig::classic5());
        // First iteration misses, later iterations hit: far fewer misses
        // than accesses on both sides.
        assert!(t.icache_misses > 0);
        assert!(t.icache_misses * 10 < t.icache_accesses, "{t:?}");
        assert!(t.dcache_misses * 10 < t.dcache_accesses, "{t:?}");
        assert_eq!(t.l2_accesses, 0, "classic5 has no L2");
    }

    #[test]
    fn classic5_has_no_mispredict_or_load_use_stalls() {
        let (_, t, _) = run_timed(loop_program(100), TimingConfig::classic5());
        assert_eq!(t.stall_mispredict, 0);
        assert_eq!(t.stall_load_use, 0);
        assert!(t.total_stalls() > 0, "cold misses must show up");
    }

    #[test]
    fn modern_predicts_the_loop_branch() {
        let (_, t, _) = run_timed(loop_program(200), TimingConfig::modern());
        assert!(t.branches >= 200);
        // gshare learns the loop quickly: only a handful of mispredicts.
        assert!(t.mispredicts * 10 < t.branches, "{t:?}");
        // The un-covered load->add latency shows up as load-use stalls: the
        // consumer sits one slot after the load, latency 4 needs two more.
        assert!(t.stall_load_use > 0, "{t:?}");
    }

    #[test]
    fn not_taken_predictor_pays_for_taken_branches() {
        let mut config = TimingConfig::classic5();
        config.predictor = PredictorKind::NotTaken;
        config.mispredict_penalty = 3;
        let (_, t, _) = run_timed(loop_program(100), config);
        // The loop branch is taken ~99 times; every one is a mispredict.
        assert!(t.mispredicts >= 99, "{t:?}");
        assert_eq!(t.stall_mispredict, t.mispredicts * 3);
    }

    #[test]
    fn determinism_across_runs() {
        let a = run_timed(loop_program(100), TimingConfig::modern());
        let b = run_timed(loop_program(100), TimingConfig::modern());
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn architectural_results_are_untouched() {
        let (with_model, _, _) = run_timed(loop_program(100), TimingConfig::modern());
        let prog = loop_program(100).finish().unwrap();
        let bare = FastCpu::new(&prog, HwConfig::plain(), 1 << 16)
            .unwrap()
            .run(1_000_000)
            .unwrap();
        assert_eq!(with_model, bare.stats);
    }

    #[test]
    fn lru_evicts_correctly() {
        let mut c = Cache::new(CacheParams {
            size: 64,
            ways: 2,
            line: 16,
        })
        .unwrap();
        // Two sets of two ways; lines A, B, C map to set 0 (stride 32).
        assert!(!c.access(0)); // A miss
        assert!(!c.access(32)); // B miss
        assert!(c.access(0)); // A hit (now MRU)
        assert!(!c.access(64)); // C miss, evicts LRU = B
        assert!(c.access(0)); // A still resident
        assert!(!c.access(32)); // B was evicted
    }
}
