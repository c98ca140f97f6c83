//! Property test: the delay-slot scheduler never changes program semantics.
//!
//! Random structured programs (straight-line ALU/memory blocks joined by
//! branches and loops) are run unscheduled and scheduled; the final register
//! file image, memory effects (via a checksum) and cycle-count ordering are
//! compared.

use proptest::prelude::*;

use mipsx::{sched, verify, Asm, Cond, Executor, FastCpu, HwConfig, Insn, Reg};

/// The registers random programs may touch (avoid the runtime-convention ones
/// so setup stays trivial).
const POOL: [Reg; 8] = [
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
];

#[derive(Debug, Clone)]
enum Op {
    Li(usize, i16),
    Add(usize, usize, usize),
    Sub(usize, usize, usize),
    Xor(usize, usize, usize),
    Sll(usize, usize, u8),
    St(usize, u8), // store reg to scratch slot
    Ld(usize, u8), // load scratch slot into reg
    Mov(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let r = 0usize..POOL.len();
    prop_oneof![
        (r.clone(), any::<i16>()).prop_map(|(d, v)| Op::Li(d, v)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, a, b)| Op::Add(d, a, b)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, a, b)| Op::Sub(d, a, b)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, a, b)| Op::Xor(d, a, b)),
        (r.clone(), r.clone(), 0u8..8).prop_map(|(d, a, s)| Op::Sll(d, a, s)),
        (r.clone(), 0u8..16).prop_map(|(a, s)| Op::St(a, s)),
        (r.clone(), 0u8..16).prop_map(|(a, s)| Op::Ld(a, s)),
        (r.clone(), r).prop_map(|(d, a)| Op::Mov(d, a)),
    ]
}

/// A program: a few blocks of straight-line ops; after each block, branch to
/// the next block or conditionally skip it. A counted loop wraps the whole
/// thing so branches go both ways.
#[derive(Debug, Clone)]
struct Prog {
    blocks: Vec<Vec<Op>>,
    loop_count: i32,
}

fn prog_strategy() -> impl Strategy<Value = Prog> {
    (
        prop::collection::vec(prop::collection::vec(op_strategy(), 1..10), 1..5),
        1i32..4,
    )
        .prop_map(|(blocks, loop_count)| Prog { blocks, loop_count })
}

const SCRATCH_BASE: i32 = 0x100;

fn emit(prog: &Prog, asm: &mut Asm) {
    let entry = asm.here("entry");
    asm.set_entry(entry);
    // counter in S0, scratch base in S1
    asm.li(Reg::S0, prog.loop_count);
    asm.li(Reg::S1, SCRATCH_BASE);
    // deterministic initial registers
    for (i, r) in POOL.iter().enumerate() {
        asm.li(*r, (i as i32 + 1) * 3);
    }
    let top = asm.new_label();
    asm.bind(top);
    for (bi, block) in prog.blocks.iter().enumerate() {
        for op in block {
            match *op {
                Op::Li(d, v) => asm.li(POOL[d], i32::from(v)),
                Op::Add(d, a, b) => asm.emit(Insn::Add(POOL[d], POOL[a], POOL[b])),
                Op::Sub(d, a, b) => asm.emit(Insn::Sub(POOL[d], POOL[a], POOL[b])),
                Op::Xor(d, a, b) => asm.emit(Insn::Xor(POOL[d], POOL[a], POOL[b])),
                Op::Sll(d, a, s) => asm.emit(Insn::Sll(POOL[d], POOL[a], s)),
                Op::St(a, s) => asm.st(POOL[a], Reg::S1, i32::from(s) * 4),
                Op::Ld(a, s) => {
                    // Naive codegen always pads the load delay; the scheduler's
                    // job here is filling branch slots (the load-delay inserter
                    // is exercised separately by the compiler's tests).
                    asm.ld(POOL[a], Reg::S1, i32::from(s) * 4);
                    asm.nop();
                }
                Op::Mov(d, a) => asm.mov(POOL[d], POOL[a]),
            }
        }
        // conditionally skip a marker write (gives the scheduler branches to fill)
        let skip = asm.new_label();
        asm.br(Cond::Lt, POOL[bi % POOL.len()], Reg::Zero, skip);
        asm.st(POOL[(bi + 1) % POOL.len()], Reg::S1, 60);
        asm.bind(skip);
    }
    asm.emit(Insn::Addi(Reg::S0, Reg::S0, -1));
    asm.br(Cond::Gt, Reg::S0, Reg::Zero, top);
    // checksum registers + scratch memory into A0
    asm.li(Reg::T9, 0);
    for r in POOL {
        asm.emit(Insn::Xor(Reg::T9, Reg::T9, r));
        asm.emit(Insn::Sll(Reg::T9, Reg::T9, 1));
    }
    for s in 0..16 {
        asm.ld(Reg::T8, Reg::S1, s * 4);
        asm.nop();
        asm.emit(Insn::Xor(Reg::T9, Reg::T9, Reg::T8));
    }
    asm.halt(Reg::T9);
}

fn run_prog(prog: &Prog, schedule: bool) -> (i32, u64) {
    let mut asm = Asm::new();
    emit(prog, &mut asm);
    if schedule {
        sched::schedule_and_attribute(&mut asm);
    }
    let p = asm.finish().expect("assembles");
    verify::verify(&p).expect("verifies");
    let o = FastCpu::new(&p, HwConfig::plain(), 1 << 16)
        .expect("predecodes")
        .run(5_000_000)
        .expect("runs");
    (o.halt_code, o.stats.cycles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Scheduling preserves the final machine state and never adds cycles
    /// beyond load-delay padding.
    #[test]
    fn scheduling_preserves_semantics(prog in prog_strategy()) {
        let (r0, c0) = run_prog(&prog, false);
        let (r1, c1) = run_prog(&prog, true);
        prop_assert_eq!(r0, r1, "scheduled program diverged");
        // Padding may add a cycle per load hazard; filling saves cycles. Allow
        // a generous bound in the padding direction but require the scheduler
        // never to be pathologically worse.
        prop_assert!(c1 <= c0 + 64, "scheduler made things much slower: {c0} -> {c1}");
    }
}
