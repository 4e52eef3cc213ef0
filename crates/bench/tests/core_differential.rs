//! Differential test of the driverless core against the reference
//! task-driven core (`copier_bench::refcore`, DESIGN.md §19).
//!
//! Each seeded case builds one program — 1–4 cores with 1–6 tasks each,
//! every task a script of advances (zero-length, short, and longer than
//! a quantum), quantum changes, foreign sleeps (several to the same
//! deadlines), and yields; some tasks are spawned before the machine, so
//! their first advances land before the cores' first server steps — and
//! runs it once on each core implementation. Every task's step
//! completion instants, the interleaving of all completions, every
//! core's busy time and the end instant must be identical.
//!
//! Reproduce a failure with the printed `TESTKIT_REPRO=<seed>` line.

use std::cell::RefCell;
use std::rc::Rc;

use copier_bench::refcore::{ref_machine, RefCore};
use copier_sim::{Core, Machine, Nanos, Sim};
use copier_testkit::prop::{check_with, Config};
use copier_testkit::{prop_assert_eq, TestRng};

#[derive(Debug, Clone, Copy)]
enum Step {
    Advance(u64),
    Sleep(u64),
    /// Sleep to an absolute instant on a coarse grid, so several tasks
    /// wake at the same deadline.
    SleepUntil(u64),
    Quantum(u64),
    Yield,
}

#[derive(Debug, Clone)]
struct Script {
    core: usize,
    /// Spawned before the machine exists.
    early: bool,
    steps: Vec<Step>,
}

#[derive(Debug, Clone)]
struct Case {
    cores: usize,
    tasks: Vec<Script>,
}

fn gen_step(rng: &mut TestRng) -> Step {
    match rng.gen_range(10) {
        0 => Step::Advance(0),
        1..=3 => Step::Advance(1 + rng.gen_range(200)),
        4 => Step::Advance(20_000 + rng.gen_range(5_000)),
        5 => Step::Advance(200 + rng.gen_range(3_000)),
        6 => Step::Sleep(rng.gen_range(300)),
        7 => Step::SleepUntil(50 * rng.gen_range(100)),
        8 => Step::Quantum(*rng.choose(&[5, 25, 300, 20_000])),
        _ => Step::Yield,
    }
}

fn gen_case(rng: &mut TestRng) -> Case {
    let cores = rng.range_usize(1, 5);
    let mut tasks = Vec::new();
    for core in 0..cores {
        for _ in 0..rng.range_usize(1, 7) {
            let n = rng.range_usize(1, 9);
            tasks.push(Script {
                core,
                early: rng.gen_bool(0.25),
                steps: (0..n).map(|_| gen_step(rng)).collect(),
            });
        }
    }
    rng.shuffle(&mut tasks);
    Case { cores, tasks }
}

#[derive(Clone)]
enum AnyCore {
    Driverless(Rc<Core>),
    Reference(Rc<RefCore>),
}

impl AnyCore {
    async fn advance(&self, d: Nanos) {
        match self {
            AnyCore::Driverless(c) => c.advance(d).await,
            AnyCore::Reference(c) => c.advance(d).await,
        }
    }

    fn set_quantum(&self, q: Nanos) {
        match self {
            AnyCore::Driverless(c) => c.set_quantum(q),
            AnyCore::Reference(c) => c.set_quantum(q),
        }
    }

    fn busy_time(&self) -> Nanos {
        match self {
            AnyCore::Driverless(c) => c.busy_time(),
            AnyCore::Reference(c) => c.busy_time(),
        }
    }
}

/// `(task, step, completion instant)` in completion order, per-core busy
/// time, and the end instant.
type Outcome = (Vec<(usize, usize, u64)>, Vec<u64>, u64);

fn run(case: &Case, reference: bool) -> Outcome {
    let mut sim = Sim::new();
    let h = sim.handle();
    let cores: Rc<RefCell<Vec<AnyCore>>> = Rc::new(RefCell::new(Vec::new()));
    let log = Rc::new(RefCell::new(Vec::new()));
    let spawn = |sim: &mut Sim, i: usize, s: &Script| {
        let (h, cores, log, s) = (h.clone(), Rc::clone(&cores), Rc::clone(&log), s.clone());
        sim.spawn(&format!("task-{i}"), async move {
            let core = cores.borrow()[s.core].clone();
            for (j, step) in s.steps.iter().enumerate() {
                match *step {
                    Step::Advance(d) => core.advance(Nanos(d)).await,
                    Step::Sleep(d) => h.sleep(Nanos(d)).await,
                    Step::SleepUntil(t) => h.sleep_until(Nanos(t)).await,
                    Step::Quantum(q) => core.set_quantum(Nanos(q)),
                    Step::Yield => h.yield_now().await,
                }
                log.borrow_mut().push((i, j, h.now().as_nanos()));
            }
        });
    };
    for (i, s) in case.tasks.iter().enumerate().filter(|(_, s)| s.early) {
        spawn(&mut sim, i, s);
    }
    *cores.borrow_mut() = if reference {
        ref_machine(&h, case.cores)
            .into_iter()
            .map(AnyCore::Reference)
            .collect()
    } else {
        Machine::new(&h, case.cores)
            .cores()
            .iter()
            .cloned()
            .map(AnyCore::Driverless)
            .collect()
    };
    for (i, s) in case.tasks.iter().enumerate().filter(|(_, s)| !s.early) {
        spawn(&mut sim, i, s);
    }
    let end = sim.run().as_nanos();
    let busy = cores
        .borrow()
        .iter()
        .map(|c| c.busy_time().as_nanos())
        .collect();
    let log = log.borrow().clone();
    (log, busy, end)
}

#[test]
fn driverless_core_matches_task_driven_reference() {
    let mut cfg = Config::from_env();
    cfg.cases = cfg.cases.max(256);
    check_with(
        &cfg,
        gen_case,
        |_| Vec::new(),
        |case| {
            let want = run(case, true);
            let got = run(case, false);
            let steps: usize = case.tasks.iter().map(|s| s.steps.len()).sum();
            prop_assert_eq!(want.0.len(), steps, "reference run left steps unfinished");
            prop_assert_eq!(&got.0, &want.0, "completion log");
            prop_assert_eq!(&got.1, &want.1, "busy time per core");
            prop_assert_eq!(got.2, want.2, "end instant");
            Ok(())
        },
    );
}
