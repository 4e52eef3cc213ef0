//! Differential properties for the O(active) control plane (DESIGN.md
//! §18): the active sets and incremental aggregates the rounds read
//! must agree with the full-sweep reference reader,
//! [`copier::core::Copier::audit_aggregates`], which recomputes every
//! aggregate from the whole client table — the per-shard pending-byte
//! load (what barrier auto-scaling reads), the cached min-vruntimes,
//! active-set completeness, and the delta-folded trace-hash sums.
//!
//! Each scenario runs once. A monitor task audits the live service at a
//! fixed virtual period and once more after the run, so a missed
//! aggregate update is caught at the instant it happens, not only if it
//! survives to the end. Every scenario also keeps the outcome
//! invariants: no copy reports success over wrong bytes, every handler
//! fires exactly once (at most once for a reaped tenant), nothing stays
//! pinned, and the pending index stays consistent.
//!
//! Coverage tiers:
//!
//! 1. **Fault-free** at 1–4 shards.
//! 2. **Chaos**: injected DMA faults, stale ATC, and silent flips.
//! 3. **Membership churn**: clients leaving mid-run (reap), arriving
//!    into a restarted incarnation (crash-recovery adoption), and idle
//!    clients re-activated by service-internal scrub heals.
//! 4. **Traced hashes**: a recorded 4-shard chaos run replays with zero
//!    divergence while the monitor audits the hash sums in both runs.
//! 5. **Barrier auto-scaling** at 2 and 4 shards.
//!
//! Reproduce failures with the printed `TESTKIT_REPRO=<seed>` line.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier::client::AmemcpyOpts;
use copier::core::{
    stats_to_vec, ControlObs, CopierConfig, CopyFault, Handler, JournalStore, PollMode,
    SegDescriptor, VerifyPolicy,
};
use copier::mem::Prot;
use copier::os::Os;
use copier::sim::{FaultConfig, FaultPlan, Machine, Nanos, Sim, Tracer};
use copier_testkit::prop::{check_with, Config, PropResult};
use copier_testkit::{assert_no_pinned_leaks, prop_assert, prop_assert_eq, TestRng};

/// Virtual period of the monitor's live audits.
const AUDIT_PERIOD: Nanos = Nanos(10_000);

/// One multi-tenant scenario.
#[derive(Debug, Clone)]
struct SoakCase {
    seed: u64,
    tenants: usize,
    ncopies: usize,
    len: usize,
    faults: Option<FaultConfig>,
}

fn gen_base(rng: &mut TestRng) -> SoakCase {
    SoakCase {
        seed: rng.next_u64(),
        tenants: rng.range_usize(2, 6),
        ncopies: rng.range_usize(2, 5),
        len: rng.range_usize(2, 12) * 4 * 1024 + rng.range_usize(0, 3) * 512,
        faults: None,
    }
}

fn gen_chaos(rng: &mut TestRng) -> SoakCase {
    let mut case = gen_base(rng);
    case.faults = Some(FaultConfig {
        seed: case.seed ^ 0x50AC,
        dma_transient_prob: rng.gen_f64() * 0.3,
        dma_hard_prob: if rng.gen_bool(0.3) {
            rng.gen_f64() * 0.1
        } else {
            0.0
        },
        dma_timeout_prob: if rng.gen_bool(0.3) {
            rng.gen_f64() * 0.15
        } else {
            0.0
        },
        atc_stale_prob: rng.gen_f64() * 0.4,
        dma_flip_prob: if rng.gen_bool(0.5) {
            rng.gen_f64() * 0.2
        } else {
            0.0
        },
        ..Default::default()
    });
    case
}

/// Deterministic per-(tenant, copy) source pattern.
fn pattern(tenant: usize, copy: usize, seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed
        ^ (tenant as u64).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (copy as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.push((x >> 33) as u8);
    }
    v
}

fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
}

/// How one scenario runs, beyond its workload.
#[derive(Clone, Default)]
struct Opts {
    shards: usize,
    /// Reap tenant 0 at this virtual instant.
    kill_at: Option<Nanos>,
    /// Journal the service and restart it after every injected crash.
    crash: bool,
    auto_scale: bool,
    tracer: Option<Rc<Tracer>>,
}

/// Everything observable about one run; equal across same-seed runs.
#[derive(Debug, PartialEq)]
struct Exact {
    /// Per (tenant, copy) in submission order: fault, destination
    /// digest, handler deliveries.
    per_copy: Vec<(usize, usize, Option<CopyFault>, u64, u64)>,
    end: u64,
    stats: Vec<u64>,
    per_shard: Vec<(u64, u64, u64)>,
    pinned: usize,
    restarts: u64,
    epoch: u64,
    obs: ControlObs,
    /// Live audits the monitor ran (before the closing one).
    audits: u64,
    /// First audit failure, live or closing.
    audit_err: Option<String>,
    /// Highest active-thread count the monitor observed.
    peak_threads: usize,
    /// `None` unless a copy completed faultless with wrong bytes.
    phantom: Option<String>,
}

fn soak_cfg(case: &SoakCase, o: &Opts) -> CopierConfig {
    let verify = case.faults.as_ref().is_some_and(|f| f.dma_flip_prob > 0.0);
    CopierConfig {
        shards: o.shards,
        use_dma: case.faults.is_some(),
        dma_channels: 2,
        verify: if verify {
            VerifyPolicy::Full
        } else {
            VerifyPolicy::Off
        },
        polling: PollMode::Napi {
            spin_rounds: 64,
            park_timeout: Nanos(20_000),
        },
        auto_scale: o.auto_scale,
        low_load: 4 * 1024,
        high_load: 64 * 1024,
        journal: o.crash.then(JournalStore::new),
        tracer: o.tracer.clone(),
        ..Default::default()
    }
}

/// Runs one scenario under the audit monitor and returns everything it
/// observed.
fn run_soak(case: &SoakCase, o: &Opts) -> Exact {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, case.tenants + o.shards);
    let os = Os::boot(&h, machine, 8192);
    let plan = case.faults.clone().map(FaultPlan::new);
    if let (Some(p), Some(t)) = (&plan, &o.tracer) {
        p.set_tracer(t);
    }
    let mut cfg = soak_cfg(case, o);
    cfg.fault_plan = plan;
    let cores: Vec<_> = (0..o.shards)
        .map(|i| os.machine.core(case.tenants + i))
        .collect();
    os.install_copier(cores.clone(), cfg.clone());

    let done = Rc::new(Cell::new(0usize));
    let restarts = Rc::new(Cell::new(0u64));
    let mut tenants = Vec::new();
    for t in 0..case.tenants {
        let proc = os.spawn_process();
        let lib = proc.lib();
        let uspace = Rc::clone(&lib.uspace);
        let mut bufs = Vec::new();
        for c in 0..case.ncopies {
            let src = uspace.mmap(case.len, Prot::RW, true).unwrap();
            let dst = uspace.mmap(case.len, Prot::RW, true).unwrap();
            uspace
                .write_bytes(src, &pattern(t, c, case.seed, case.len))
                .unwrap();
            bufs.push((src, dst));
        }
        let descrs: Rc<RefCell<Vec<Rc<SegDescriptor>>>> = Rc::new(RefCell::new(Vec::new()));
        let fired: Vec<Rc<Cell<u64>>> = (0..case.ncopies).map(|_| Rc::new(Cell::new(0))).collect();
        let lib2 = Rc::clone(&lib);
        let os2 = Rc::clone(&os);
        let h2 = h.clone();
        let d2 = Rc::clone(&descrs);
        let fired2 = fired.clone();
        let done2 = Rc::clone(&done);
        let core = os.machine.core(t);
        let bufs2 = bufs.clone();
        let len = case.len;
        let ntenants = case.tenants;
        let reapable = t == 0 && o.kill_at.is_some();
        sim.spawn("tenant", async move {
            for (i, &(src, dst)) in bufs2.iter().enumerate() {
                let n = Rc::clone(&fired2[i]);
                let opts = AmemcpyOpts {
                    func: Some(Handler::UFunc(Rc::new(move || n.set(n.get() + 1)))),
                    ..Default::default()
                };
                // A reap can kill tenant 0 mid-loop; its submissions then
                // fail and it just stops submitting. Default quotas dwarf
                // this workload, so any other refusal is a bug.
                match lib2._amemcpy(&core, dst, src, len, opts).await {
                    Ok(d) => d2.borrow_mut().push(d),
                    Err(_) if reapable => break,
                    Err(e) => panic!("tenant {t} copy {i} refused: {e:?}"),
                }
            }
            if !lib2.client.dead.get() {
                let _ = lib2.csync_all(&core).await;
                // csync returns once the bytes are visible; the handler
                // follows at finalize (after a restart, in the successor).
                // A lost handler leaves its counter at zero and fails
                // exactly-once below.
                let submitted = d2.borrow().len();
                for _ in 0..2_000 {
                    let _ = lib2.post_handlers(&core).await;
                    if fired2[..submitted].iter().all(|c| c.get() > 0) {
                        break;
                    }
                    h2.sleep(Nanos(2_000)).await;
                }
            }
            done2.set(done2.get() + 1);
            if done2.get() == ntenants {
                os2.copier().stop();
            }
        });
        tenants.push((lib, uspace, bufs, descrs, fired));
    }

    // Supervisor: reinstall over the shared journal store after a crash
    // and reattach every tenant (the adoption path).
    if o.crash {
        let os2 = Rc::clone(&os);
        let libs: Vec<_> = tenants.iter().map(|t| Rc::clone(&t.0)).collect();
        let h2 = h.clone();
        let done2 = Rc::clone(&done);
        let r2 = Rc::clone(&restarts);
        let ntenants = case.tenants;
        let score = os.machine.core(case.tenants);
        sim.spawn("supervisor", async move {
            while done2.get() < ntenants {
                if os2.copier().has_crashed() {
                    r2.set(r2.get() + 1);
                    let new_svc = os2.install_copier(cores.clone(), cfg.clone());
                    for lib in &libs {
                        lib.reattach(&score, &new_svc).await;
                    }
                }
                h2.sleep(Nanos(5_000)).await;
            }
        });
    }

    // Reap tenant 0 mid-run: active-set exit, min-vruntime decrement,
    // pending drain through finalize — membership churn on a live shard.
    if let Some(t) = o.kill_at {
        let os2 = Rc::clone(&os);
        let victim = Rc::clone(&tenants[0].0);
        let h2 = h.clone();
        sim.spawn("killer", async move {
            h2.sleep(t).await;
            if !victim.client.dead.get() {
                os2.copier().reap_client(&victim.client);
            }
        });
    }

    // Monitor: audit the live incarnation against the full sweep at a
    // fixed virtual period (a crashed incarnation's state is dead).
    let audits = Rc::new(Cell::new(0u64));
    let audit_err: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
    let peak_threads = Rc::new(Cell::new(0usize));
    {
        let os2 = Rc::clone(&os);
        let h2 = h.clone();
        let done2 = Rc::clone(&done);
        let (audits2, err2, peak2) = (
            Rc::clone(&audits),
            Rc::clone(&audit_err),
            Rc::clone(&peak_threads),
        );
        let ntenants = case.tenants;
        sim.spawn("auditor", async move {
            while done2.get() < ntenants {
                h2.sleep(AUDIT_PERIOD).await;
                let svc = os2.copier();
                if svc.has_crashed() {
                    continue;
                }
                audits2.set(audits2.get() + 1);
                peak2.set(peak2.get().max(svc.active_threads()));
                if let Err(e) = svc.audit_aggregates() {
                    let at = h2.now().as_nanos();
                    err2.borrow_mut()
                        .get_or_insert_with(|| format!("at {at} ns: {e}"));
                }
            }
        });
    }

    let end = sim.run();
    let svc = os.copier();
    if let Err(e) = svc.audit_aggregates() {
        audit_err
            .borrow_mut()
            .get_or_insert_with(|| format!("after the run: {e}"));
    }

    let mut per_copy = Vec::new();
    let mut phantom = None;
    for (t, (lib, uspace, bufs, descrs, fired)) in tenants.iter().enumerate() {
        for (c, d) in descrs.borrow().iter().enumerate() {
            let (_src, dst) = bufs[c];
            let mut got = vec![0u8; case.len];
            uspace.read_bytes(dst, &mut got).unwrap();
            if d.fault().is_none() && got != pattern(t, c, case.seed, case.len) {
                phantom.get_or_insert_with(|| {
                    format!(
                        "tenant {t} copy {c} clean but bytes differ (seed {})",
                        case.seed
                    )
                });
            }
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            fnv(&mut digest, &got);
            per_copy.push((t, c, d.fault(), digest, fired[c].get()));
        }
        if let Err(msg) = lib
            .client
            .sets
            .borrow()
            .iter()
            .try_for_each(|s| s.index_consistent())
        {
            panic!("pending index diverged (seed {}): {msg}", case.seed);
        }
    }
    assert_no_pinned_leaks(&os.pm);

    let s = svc.stats();
    let audit_err = audit_err.borrow().clone();
    Exact {
        per_copy,
        end: end.as_nanos(),
        stats: stats_to_vec(&s),
        per_shard: (0..svc.nshards()).map(|i| svc.shard_stats(i)).collect(),
        pinned: os.pm.pinned_frames(),
        restarts: restarts.get(),
        epoch: svc.epoch(),
        obs: svc.control_obs(),
        audits: audits.get(),
        audit_err,
        peak_threads: peak_threads.get(),
        phantom,
    }
}

/// The invariants every scenario keeps: the live and closing audits
/// pass (and the monitor actually ran), no phantom completion, no pin
/// leak, and exactly-once handlers — every copy's handler fires once,
/// except that a reaped tenant's may not fire at all.
fn check_invariants(e: &Exact, reaped_tenant: Option<usize>) -> PropResult {
    prop_assert!(e.audit_err.is_none(), "audit failed: {:?}", e.audit_err);
    prop_assert!(e.audits > 0, "the monitor never audited a live service");
    prop_assert!(e.phantom.is_none(), "{:?}", e.phantom);
    prop_assert_eq!(e.pinned, 0, "pins leaked");
    for &(t, c, _, _, fired) in &e.per_copy {
        if Some(t) == reaped_tenant {
            prop_assert!(
                fired <= 1,
                "tenant {} copy {} handler fired {}x",
                t,
                c,
                fired
            );
        } else {
            prop_assert_eq!(fired, 1, "tenant {} copy {} handler fired {}x", t, c, fired);
        }
    }
    Ok(())
}

fn cases(default: u32) -> Config {
    let mut cfg = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        cfg.cases = default;
    }
    cfg
}

fn no_shrink(_: &SoakCase) -> Vec<SoakCase> {
    Vec::new()
}

/// Tier 1: at every shard count, a fault-free run's O(active) rounds
/// agree with the full-sweep reference at every audit — and the active
/// sets are really in use: submissions ring the doorbell, settles drain
/// the set, and nothing auto-scales when `auto_scale` is off. (128 cases
/// × 4 shard counts = 512 seeded schedules.)
#[test]
fn fast_rounds_match_full_sweep_reference_at_every_shard_count() {
    check_with(
        &cases(128),
        gen_base,
        no_shrink,
        |case: &SoakCase| -> PropResult {
            for shards in [1usize, 2, 3, 4] {
                let e = run_soak(
                    case,
                    &Opts {
                        shards,
                        ..Opts::default()
                    },
                );
                check_invariants(&e, None)?;
                prop_assert!(
                    e.per_copy.iter().all(|p| p.2.is_none()),
                    "fault-free run reported a fault at {} shards",
                    shards
                );
                prop_assert!(e.obs.activations > 0, "no doorbell ever activated");
                prop_assert!(e.obs.deactivations > 0, "no client ever settled out");
                prop_assert_eq!(e.obs.autoscale_calls, 0, "auto-scaled with auto_scale off");
            }
            Ok(())
        },
    );
}

/// Tier 2: under chaos (fault placement follows dispatch order) the
/// aggregates still agree with the full sweep at every audit, at a
/// random shard count.
#[test]
fn chaos_fast_path_matches_full_sweep() {
    check_with(
        &cases(64),
        |rng: &mut TestRng| (gen_chaos(rng), rng.range_usize(1, 5)),
        |_| Vec::new(),
        |(case, shards): &(SoakCase, usize)| -> PropResult {
            let e = run_soak(
                case,
                &Opts {
                    shards: *shards,
                    ..Opts::default()
                },
            );
            check_invariants(&e, None)
        },
    );
}

/// Tier 3a: a tenant reaped mid-run (active-set exit, min-vruntime
/// decrement, pending drain through finalize) leaves every aggregate in
/// agreement with the full sweep.
#[test]
fn reap_midrun_matches_full_sweep() {
    check_with(
        &cases(48),
        |rng: &mut TestRng| {
            let case = gen_base(rng);
            let kill = Nanos(rng.range_usize(5_000, 200_000) as u64);
            let shards = rng.range_usize(1, 5);
            (case, shards, kill)
        },
        |_| Vec::new(),
        |(case, shards, kill): &(SoakCase, usize, Nanos)| -> PropResult {
            let e = run_soak(
                case,
                &Opts {
                    shards: *shards,
                    kill_at: Some(*kill),
                    ..Opts::default()
                },
            );
            check_invariants(&e, Some(0))
        },
    );
}

/// Tier 3b: crash/restart with journaled recovery — adopted clients
/// re-enter the new incarnation's active sets and aggregates in
/// agreement with the full sweep, handlers still fire exactly once, and
/// the journal epoch counts incarnations.
#[test]
fn crash_adoption_matches_full_sweep() {
    check_with(
        &cases(24),
        |rng: &mut TestRng| {
            let mut case = gen_base(rng);
            case.faults = Some(FaultConfig {
                seed: case.seed ^ 0xC4A5,
                dma_transient_prob: rng.gen_f64() * 0.2,
                crash_prob: 0.05 + rng.gen_f64() * 0.35,
                max_crashes: rng.range_usize(1, 4) as u64,
                ..Default::default()
            });
            (case, rng.range_usize(1, 5))
        },
        |_| Vec::new(),
        |(case, shards): &(SoakCase, usize)| -> PropResult {
            let e = run_soak(
                case,
                &Opts {
                    shards: *shards,
                    crash: true,
                    ..Opts::default()
                },
            );
            check_invariants(&e, None)?;
            prop_assert_eq!(e.epoch, e.restarts + 1, "epoch must count incarnations");
            Ok(())
        },
    );
}

/// Tier 3c: an idle client re-activated by service-internal scrub heals
/// (the walker pushes repair copies into the client's kernel queue with
/// a direct `activate`, no libCopier doorbell) is drained and audited
/// like any other, identically across same-seed runs. The client submits
/// one burst, settles out of the active set, then only the scrubber
/// touches it.
#[test]
fn scrub_heal_reactivates_idle_clients_identically() {
    fn run_scrub(seed: u64) -> (Vec<u64>, u64, u64, ControlObs) {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 2);
        let os = Os::boot(&h, machine, 4096);
        let plan = FaultPlan::new(FaultConfig {
            seed,
            rot_prob: 0.9,
            ..Default::default()
        });
        let svc = os.install_copier(
            vec![os.machine.core(1)],
            CopierConfig {
                use_dma: true,
                fault_plan: Some(Rc::clone(&plan)),
                verify: VerifyPolicy::Full,
                scrub_period: 2,
                ..Default::default()
            },
        );
        let proc = os.spawn_process();
        let lib = proc.lib();
        let uspace = Rc::clone(&lib.uspace);

        let region = 16 * 1024usize;
        let primary = uspace.mmap(region, Prot::RW, true).unwrap();
        let replica = uspace.mmap(region, Prot::RW, true).unwrap();
        let golden = pattern(7, 0, seed, region);
        uspace.write_bytes(primary, &golden).unwrap();
        uspace.write_bytes(replica, &golden).unwrap();
        lib.register_scrub(primary, replica, region, 4 * 1024);

        let lib2 = Rc::clone(&lib);
        let svc2 = Rc::clone(&svc);
        let h2 = h.clone();
        let core = os.machine.core(0);
        let len = 8 * 1024usize;
        let src = uspace.mmap(len, Prot::RW, true).unwrap();
        let dst = uspace.mmap(len, Prot::RW, true).unwrap();
        uspace.write_bytes(src, &pattern(1, 0, seed, len)).unwrap();
        let audit_err: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
        let err2 = Rc::clone(&audit_err);
        sim.spawn("client", async move {
            // One burst, then idle: the client settles out of the active
            // set and only scrub heals re-activate it while the walker
            // keeps ticking on the park-timeout re-polls. The client
            // audits the service while it idles.
            for _ in 0..4 {
                if lib2
                    ._amemcpy(&core, dst, src, len, AmemcpyOpts::default())
                    .await
                    .is_err()
                {
                    break;
                }
                if lib2.csync(&core, dst, len).await.is_err() {
                    break;
                }
            }
            for _ in 0..200 {
                h2.sleep(AUDIT_PERIOD).await;
                if let Err(e) = svc2.audit_aggregates() {
                    err2.borrow_mut().get_or_insert(e);
                }
            }
            svc2.stop();
        });
        let end = sim.run();
        if let Some(e) = audit_err.borrow().as_ref() {
            panic!("live scrub audit failed (seed {seed:#x}): {e}");
        }
        svc.audit_aggregates()
            .unwrap_or_else(|e| panic!("post-scrub audit failed (seed {seed:#x}): {e}"));
        assert_no_pinned_leaks(&os.pm);

        // The final primary contents race the per-round rot oracle (a rot
        // can land after the last heal), so the heal outcome is asserted
        // through the scrub counters instead of buffer purity; the buffer
        // state still participates in the same-seed equality.
        let s = svc.stats();
        let mut primary_now = vec![0u8; region];
        uspace.read_bytes(primary, &mut primary_now).unwrap();
        let mut dig = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut dig, &primary_now);
        (stats_to_vec(&s), end.as_nanos(), dig, svc.control_obs())
    }

    for seed in [0x5C2B_0001u64, 0x5C2B_0002, 0x5C2B_0003, 0x5C2B_0004] {
        let a = run_scrub(seed);
        let b = run_scrub(seed);
        assert!(a.0.iter().sum::<u64>() > 0, "no service activity");
        assert_eq!(
            a, b,
            "scrub re-activation not reproducible (seed {seed:#x})"
        );
        assert!(a.0[40] > 0, "scrub walker never ran (seed {seed:#x})");
        assert!(a.0[41] > 0, "rot was never healed (seed {seed:#x})");
        assert!(
            a.3.activations > 1 && a.3.deactivations > 0,
            "the idle client was never re-activated (seed {seed:#x}): {:?}",
            a.3
        );
    }
}

/// Tier 4, strongest hash check: a 4-shard chaos run recorded with the
/// delta-folded hash sums replays with zero divergence, and the monitor
/// checks the sums against the full per-client fold at every audit of
/// both runs — so the cached sums are right at every traced round, not
/// just at the end.
#[test]
fn fast_recording_replays_through_full_sweep() {
    check_with(
        &cases(8),
        gen_chaos,
        no_shrink,
        |case: &SoakCase| -> PropResult {
            let traced = |tracer: &Rc<Tracer>| {
                run_soak(
                    case,
                    &Opts {
                        shards: 4,
                        tracer: Some(Rc::clone(tracer)),
                        ..Opts::default()
                    },
                )
            };
            let rec = Tracer::record();
            let recorded = traced(&rec);
            check_invariants(&recorded, None)?;
            let rep = Tracer::replay(rec.finish());
            let replayed = traced(&rep);
            prop_assert!(
                rep.divergence().is_none(),
                "replay of a recorded run diverged: {:?}",
                rep.divergence()
            );
            prop_assert_eq!(&recorded, &replayed, "replay landed a different outcome");
            Ok(())
        },
    );
}

/// Barrier auto-scaling at 2 and 4 shards: the last barrier arriver
/// reads the pending-byte aggregate (which every audit checks against
/// the full sweep) and wakes extra threads under load. Runs keep every
/// invariant and are bit-identical across same-seed reruns.
#[test]
fn autoscale_reads_aggregate_not_sweep() {
    let case = SoakCase {
        seed: 0xA5CA_1E,
        tenants: 4,
        ncopies: 6,
        len: 48 * 1024,
        faults: None,
    };
    for shards in [2usize, 4] {
        let opts = Opts {
            shards,
            auto_scale: true,
            ..Opts::default()
        };
        let a = run_soak(&case, &opts);
        if let Err(e) = check_invariants(&a, None) {
            panic!("autoscale at {shards} shards: {e:?}");
        }
        assert!(a.obs.autoscale_calls > 0, "autoscale never consulted");
        assert!(
            a.peak_threads > 1,
            "load never woke a second thread at {shards} shards"
        );
        assert!(a.peak_threads <= shards, "more threads than shards");
        let b = run_soak(&case, &opts);
        assert_eq!(a, b, "same-seed autoscale runs differ at {shards} shards");
    }
}
