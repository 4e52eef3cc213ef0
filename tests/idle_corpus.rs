//! Idle-spin corpus: traced scenarios whose service threads spend most
//! of their virtual time in the NAPI idle spin (DESIGN.md §17), pinned
//! against the build that recorded them.
//!
//! Each committed `tests/repros/idle-*.cptr` carries its scenario as
//! `Meta` keys, followed by the recording build's golden end time, stats
//! vector, control-plane counters and per-core busy time. The scenarios
//! cover what the idle step interacts with: 1, 2 and 4 shards, barrier
//! auto-scaling, scenario-driven polling, lazy copies expiring mid-spin,
//! doorbells landing exactly on a poll instant (before and after that
//! poll's timer in sequence order), stop and crash mid-spin, and bit-rot
//! with scrubbing.
//!
//! `idle_corpus_replays_identically` (the `REPRO_REPLAY` verify gate)
//! replays every trace in lockstep and checks the goldens. The corpus is
//! an oracle: never re-record it to make a failure go away. Recording
//! (`REPRO_RECORD=1 cargo test -q --test idle_corpus record_idle_corpus`)
//! is for adding new scenarios only.

use std::cell::Cell;
use std::rc::Rc;

use copier::client::AmemcpyOpts;
use copier::core::{stats_to_vec, CopierConfig, Handler, JournalStore, PollMode};
use copier::mem::Prot;
use copier::os::Os;
use copier::sim::{
    FaultConfig, FaultPlan, Machine, Nanos, Sim, SimHandle, SimRng, Trace, TraceEvent, Tracer,
};

/// One idle-heavy scenario.
#[derive(Debug, Clone, PartialEq)]
struct IdleCase {
    seed: u64,
    shards: usize,
    tenants: usize,
    ncopies: usize,
    len: usize,
    auto_scale: bool,
    scenario: bool,
    lazy: bool,
    /// Phase-lock some submissions (and the stop) onto exact poll
    /// instants of the idle spin.
    phase: bool,
    crash: bool,
    rot: bool,
    /// Production polling parameters instead of the short test spin.
    default_polling: bool,
}

mod meta {
    pub const SEED: u32 = 1;
    pub const SHARDS: u32 = 2;
    pub const TENANTS: u32 = 3;
    pub const NCOPIES: u32 = 4;
    pub const LEN: u32 = 5;
    pub const FLAGS: u32 = 6;
    /// Goldens (emitted after the run).
    pub const END: u32 = 100;
    pub const STATS_LEN: u32 = 101;
    pub const OBS_LEN: u32 = 102;
    pub const BUSY_LEN: u32 = 103;
    pub const STATS: u32 = 1000;
    pub const OBS: u32 = 2000;
    pub const BUSY: u32 = 3000;
}

const FLAG_AUTO: u64 = 1;
const FLAG_SCENARIO: u64 = 2;
const FLAG_LAZY: u64 = 4;
const FLAG_PHASE: u64 = 8;
const FLAG_CRASH: u64 = 16;
const FLAG_ROT: u64 = 32;
const FLAG_DEFAULT_POLL: u64 = 64;

fn flags(c: &IdleCase) -> u64 {
    [
        (c.auto_scale, FLAG_AUTO),
        (c.scenario, FLAG_SCENARIO),
        (c.lazy, FLAG_LAZY),
        (c.phase, FLAG_PHASE),
        (c.crash, FLAG_CRASH),
        (c.rot, FLAG_ROT),
        (c.default_polling, FLAG_DEFAULT_POLL),
    ]
    .iter()
    .filter(|(on, _)| *on)
    .map(|(_, f)| f)
    .sum()
}

fn case_meta(c: &IdleCase) -> Vec<(u32, u64)> {
    vec![
        (meta::SEED, c.seed),
        (meta::SHARDS, c.shards as u64),
        (meta::TENANTS, c.tenants as u64),
        (meta::NCOPIES, c.ncopies as u64),
        (meta::LEN, c.len as u64),
        (meta::FLAGS, flags(c)),
    ]
}

fn case_from_trace(t: &Trace) -> IdleCase {
    let get = |k: u32| t.meta(k).expect("trace lacks a case Meta key");
    let f = get(meta::FLAGS);
    IdleCase {
        seed: get(meta::SEED),
        shards: get(meta::SHARDS) as usize,
        tenants: get(meta::TENANTS) as usize,
        ncopies: get(meta::NCOPIES) as usize,
        len: get(meta::LEN) as usize,
        auto_scale: f & FLAG_AUTO != 0,
        scenario: f & FLAG_SCENARIO != 0,
        lazy: f & FLAG_LAZY != 0,
        phase: f & FLAG_PHASE != 0,
        crash: f & FLAG_CRASH != 0,
        rot: f & FLAG_ROT != 0,
        default_polling: f & FLAG_DEFAULT_POLL != 0,
    }
}

/// What a run must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct Golden {
    end: u64,
    stats: Vec<u64>,
    obs: Vec<u64>,
    busy: Vec<u64>,
}

impl Golden {
    /// The fields an untraced run must share with a traced one: all but
    /// `hash_refolds`, which only a tracer drives.
    fn untraced(&self) -> Golden {
        let mut g = self.clone();
        g.obs[5] = 0;
        g
    }

    fn meta(&self) -> Vec<(u32, u64)> {
        let mut v = vec![
            (meta::END, self.end),
            (meta::STATS_LEN, self.stats.len() as u64),
            (meta::OBS_LEN, self.obs.len() as u64),
            (meta::BUSY_LEN, self.busy.len() as u64),
        ];
        for (base, xs) in [
            (meta::STATS, &self.stats),
            (meta::OBS, &self.obs),
            (meta::BUSY, &self.busy),
        ] {
            v.extend(xs.iter().enumerate().map(|(i, &x)| (base + i as u32, x)));
        }
        v
    }

    fn from_trace(t: &Trace) -> Golden {
        let get = |k: u32| t.meta(k).expect("trace lacks a golden Meta key");
        let list = |len_key: u32, base: u32| -> Vec<u64> {
            (0..get(len_key) as u32).map(|i| get(base + i)).collect()
        };
        Golden {
            end: get(meta::END),
            stats: list(meta::STATS_LEN, meta::STATS),
            obs: list(meta::OBS_LEN, meta::OBS),
            busy: list(meta::BUSY_LEN, meta::BUSY),
        }
    }
}

enum Mode {
    Off,
    Record,
    Replay(Trace),
}

/// Sleeps 1 ns at a time until the service's idle-poll counter moves and
/// returns that instant — a poll instant of the current spin, or one
/// nanosecond after it. `None` if the service is not spinning.
async fn find_poll_instant(h: &SimHandle, os: &Rc<Os>) -> Option<Nanos> {
    let start = os.copier().stats().idle_polls;
    for _ in 0..400 {
        h.sleep(Nanos(1)).await;
        if os.copier().stats().idle_polls != start {
            return Some(h.now());
        }
    }
    None
}

/// Phase-locks onto the spin and sleeps to `k` poll periods after the
/// observed poll instant. Registered one nanosecond after that instant,
/// the wake-up lands after the next poll's timer in sequence order at
/// `k == 1` and before it at larger `k`.
async fn sleep_to_poll(h: &SimHandle, os: &Rc<Os>, k: u64) {
    if let Some(p) = find_poll_instant(h, os).await {
        let period = os.cost.poll_idle.as_nanos();
        h.sleep_until(Nanos(p.as_nanos() + k * period)).await;
    }
}

/// A run's goldens, its tracer, and how many idle ticks it elided and
/// idle generations it skipped (host-side, so not part of the goldens).
type IdleRun = (Golden, Option<Rc<Tracer>>, (u64, u64));

fn run_idle(case: &IdleCase, mode: Mode) -> IdleRun {
    let mut sim = Sim::new();
    let h = sim.handle();
    let ncores = case.tenants + case.shards;
    let machine = Machine::new(&h, ncores);
    let os = Os::boot(&h, machine, 8192);
    let tracer = match mode {
        Mode::Off => None,
        Mode::Record => Some(Tracer::record()),
        Mode::Replay(t) => Some(Tracer::replay(t)),
    };
    if let Some(t) = &tracer {
        for (key, val) in case_meta(case) {
            t.emit(TraceEvent::Meta { key, val });
        }
    }
    let plan = (case.crash || case.rot).then(|| {
        FaultPlan::new(FaultConfig {
            seed: case.seed ^ 0x1D1E,
            crash_prob: if case.crash { 0.04 } else { 0.0 },
            max_crashes: 1,
            rot_prob: if case.rot { 0.05 } else { 0.0 },
            ..Default::default()
        })
    });
    if let (Some(p), Some(t)) = (&plan, &tracer) {
        p.set_tracer(t);
    }
    let cfg = CopierConfig {
        shards: case.shards,
        auto_scale: case.auto_scale,
        low_load: 4 * 1024,
        high_load: 24 * 1024,
        polling: if case.scenario {
            PollMode::ScenarioDriven
        } else if case.default_polling {
            CopierConfig::default().polling
        } else {
            PollMode::Napi {
                spin_rounds: 96,
                park_timeout: Nanos(12_000),
            }
        },
        // Shorter than the spin: lazy copies expire while threads poll.
        lazy_period: Nanos(3_000),
        fault_plan: plan.clone(),
        journal: case.crash.then(JournalStore::new),
        tracer: tracer.clone(),
        scrub_period: if case.rot { 6 } else { 64 },
        ..Default::default()
    };
    let cores: Vec<_> = (0..case.shards)
        .map(|i| os.machine.core(case.tenants + i))
        .collect();
    os.install_copier(cores.clone(), cfg.clone());

    if case.scenario {
        let (os2, h2) = (Rc::clone(&os), h.clone());
        sim.spawn("scenario", async move {
            h2.sleep(Nanos(15_000)).await;
            os2.copier().set_scenario_active(false);
            h2.sleep(Nanos(25_000)).await;
            os2.copier().set_scenario_active(true);
        });
    }

    let done = Rc::new(Cell::new(0usize));
    let mut libs = Vec::new();
    for t in 0..case.tenants {
        let proc = os.spawn_process();
        let lib = proc.lib();
        let uspace = Rc::clone(&lib.uspace);
        let rng = SimRng::new(case.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9));
        let mut bufs = Vec::new();
        for _ in 0..case.ncopies {
            let src = uspace.mmap(case.len, Prot::RW, true).unwrap();
            let dst = uspace.mmap(case.len, Prot::RW, true).unwrap();
            let mut bytes = vec![0u8; case.len];
            rng.fill_bytes(&mut bytes);
            uspace.write_bytes(src, &bytes).unwrap();
            bufs.push((src, dst));
        }
        if case.rot && t == 0 {
            let len = 16 * 1024;
            let primary = uspace.mmap(len, Prot::RW, true).unwrap();
            let replica = uspace.mmap(len, Prot::RW, true).unwrap();
            let mut bytes = vec![0u8; len];
            rng.fill_bytes(&mut bytes);
            uspace.write_bytes(primary, &bytes).unwrap();
            uspace.write_bytes(replica, &bytes).unwrap();
            lib.register_scrub(primary, replica, len, 4096);
        }
        libs.push(Rc::clone(&lib));
        let core = os.machine.core(t);
        let (h2, os2, done2, case2) = (h.clone(), Rc::clone(&os), Rc::clone(&done), case.clone());
        sim.spawn(&format!("tenant-{t}"), async move {
            let fired = Rc::new(Cell::new(0u64));
            for (c, &(src, dst)) in bufs.iter().enumerate() {
                if case2.phase && c % 3 == 1 {
                    sleep_to_poll(&h2, &os2, 1 + rng.gen_range(3)).await;
                } else {
                    h2.sleep(Nanos(500 + rng.gen_range(20_000))).await;
                }
                let f2 = Rc::clone(&fired);
                let opts = AmemcpyOpts {
                    func: Some(Handler::UFunc(Rc::new(move || f2.set(f2.get() + 1)))),
                    lazy: case2.lazy && c % 2 == 0,
                    ..Default::default()
                };
                let _ = lib._amemcpy(&core, dst, src, case2.len, opts).await;
                if c % 4 == 3 {
                    let _ = lib.csync(&core, dst, case2.len).await;
                }
            }
            let _ = lib.csync_all(&core).await;
            for _ in 0..100 {
                if fired.get() >= bufs.len() as u64 || os2.copier().has_crashed() {
                    break;
                }
                h2.sleep(Nanos(2_000)).await;
                let _ = lib.post_handlers(&core).await;
            }
            done2.set(done2.get() + 1);
            if done2.get() == case2.tenants {
                if case2.phase {
                    sleep_to_poll(&h2, &os2, 2).await;
                }
                os2.copier().stop();
            }
        });
    }
    if case.crash {
        // Supervisor: reinstall over the same journal store after a
        // crash and reattach every tenant.
        let (h2, os2, done2) = (h.clone(), Rc::clone(&os), Rc::clone(&done));
        let (ntenants, score) = (case.tenants, os.machine.core(0));
        sim.spawn("supervisor", async move {
            while done2.get() < ntenants {
                if os2.copier().has_crashed() {
                    let svc = os2.install_copier(cores.clone(), cfg.clone());
                    for lib in &libs {
                        lib.reattach(&score, &svc).await;
                    }
                }
                h2.sleep(Nanos(5_000)).await;
            }
        });
    }
    let end = sim.run();
    let svc = os.copier();
    let o = svc.control_obs();
    let golden = Golden {
        end: end.as_nanos(),
        stats: stats_to_vec(&svc.stats()),
        obs: vec![
            o.activations,
            o.deactivations,
            o.assign_rebuilds,
            o.minvr_recomputes,
            o.autoscale_calls,
            o.hash_refolds,
            svc.epoch(),
        ],
        busy: os
            .machine
            .cores()
            .iter()
            .map(|c| c.busy_time().as_nanos())
            .collect(),
    };
    if let Some(t) = &tracer {
        for (key, val) in golden.meta() {
            t.emit(TraceEvent::Meta { key, val });
        }
    }
    (golden, tracer, (o.idle_ticks, o.idle_skipped))
}

fn corpus_cases() -> Vec<(&'static str, IdleCase)> {
    let base = IdleCase {
        seed: 0,
        shards: 1,
        tenants: 2,
        ncopies: 9,
        len: 6 * 1024,
        auto_scale: false,
        scenario: false,
        lazy: false,
        phase: false,
        crash: false,
        rot: false,
        default_polling: false,
    };
    vec![
        (
            "s1-phase",
            IdleCase {
                seed: 0x1D_0001,
                phase: true,
                ..base.clone()
            },
        ),
        (
            "s1-default",
            IdleCase {
                seed: 0x1D_0002,
                default_polling: true,
                lazy: true,
                ..base.clone()
            },
        ),
        (
            "s2-lazy-phase",
            IdleCase {
                seed: 0x1D_0003,
                shards: 2,
                lazy: true,
                phase: true,
                ..base.clone()
            },
        ),
        (
            "s4-phase",
            IdleCase {
                seed: 0x1D_0004,
                shards: 4,
                tenants: 3,
                phase: true,
                ..base.clone()
            },
        ),
        (
            "s4-autoscale",
            IdleCase {
                seed: 0x1D_0005,
                shards: 4,
                tenants: 3,
                len: 16 * 1024,
                auto_scale: true,
                lazy: true,
                ..base.clone()
            },
        ),
        (
            "s2-autoscale-phase",
            IdleCase {
                seed: 0x1D_0006,
                shards: 2,
                auto_scale: true,
                phase: true,
                ..base.clone()
            },
        ),
        (
            "s2-scenario",
            IdleCase {
                seed: 0x1D_0007,
                shards: 2,
                scenario: true,
                lazy: true,
                ..base.clone()
            },
        ),
        (
            "s1-scenario-phase",
            IdleCase {
                seed: 0x1D_0008,
                scenario: true,
                phase: true,
                ..base.clone()
            },
        ),
        (
            "s2-crash",
            IdleCase {
                seed: 0x1D_0009,
                shards: 2,
                tenants: 3,
                crash: true,
                ..base.clone()
            },
        ),
        (
            "s4-crash-phase",
            IdleCase {
                seed: 0x1D_000A,
                shards: 4,
                crash: true,
                phase: true,
                ..base.clone()
            },
        ),
        (
            "s1-rot",
            IdleCase {
                seed: 0x1D_000B,
                rot: true,
                phase: true,
                ..base.clone()
            },
        ),
        (
            "s2-rot",
            IdleCase {
                seed: 0x1D_000C,
                shards: 2,
                rot: true,
                lazy: true,
                ..base
            },
        ),
    ]
}

fn repro_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros")
}

/// Corpus writer: `REPRO_RECORD=1 cargo test -q --test idle_corpus
/// record_idle_corpus`. A no-op otherwise.
#[test]
fn record_idle_corpus() {
    if std::env::var("REPRO_RECORD").is_err() {
        return;
    }
    let dir = repro_dir();
    std::fs::create_dir_all(&dir).expect("create tests/repros");
    for (name, case) in corpus_cases() {
        let (plain, _, _) = run_idle(&case, Mode::Off);
        let (golden, rec, _) = run_idle(&case, Mode::Record);
        assert_eq!(
            plain,
            golden.untraced(),
            "{name}: tracing moved the timeline"
        );
        if case.crash {
            assert!(golden.obs[6] > 1, "{name}: no crash was taken");
        }
        let path = dir.join(format!("idle-{name}.cptr"));
        rec.unwrap()
            .finish()
            .save(&path)
            .expect("save corpus trace");
        eprintln!("recorded {} (end {} ns)", path.display(), golden.end);
    }
}

/// The REPRO_REPLAY gate for the idle corpus: every committed
/// `idle-*.cptr` replays in lockstep with zero divergence and lands on
/// its recorded end time, stats vector, control-plane counters and
/// per-core busy time — traced and untraced alike.
#[test]
fn idle_corpus_replays_identically() {
    let (mut n, mut ticks, mut skipped) = (0, 0, 0);
    for entry in std::fs::read_dir(repro_dir()).expect("tests/repros/ is missing") {
        let path = entry.expect("read tests/repros").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("idle-") && name.ends_with(".cptr")) {
            continue;
        }
        n += 1;
        let trace = Trace::load(&path).expect("load committed trace");
        let case = case_from_trace(&trace);
        let want = Golden::from_trace(&trace);
        let (got, rep, _) = run_idle(&case, Mode::Replay(trace));
        let rep = rep.unwrap();
        rep.finish();
        assert!(
            rep.divergence().is_none(),
            "{name} diverged: {}",
            rep.divergence().unwrap()
        );
        assert_eq!(got, want, "{name}: replay left the recorded timeline");
        let (plain, _, (t, k)) = run_idle(&case, Mode::Off);
        assert_eq!(
            plain,
            want.untraced(),
            "{name}: untraced run left the recorded timeline"
        );
        ticks += t;
        skipped += k;
    }
    assert!(n >= 10, "tests/repros/ holds only {n} idle traces");
    // The corpus must exercise what it guards: elided ticks and jumps.
    assert!(ticks > 0 && skipped > 0, "ticks {ticks}, skipped {skipped}");
}
