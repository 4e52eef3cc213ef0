//! `fleet`: many tenants, small copies — the control plane's workload.
//!
//! Open loop: 10⁵ registered tenants, 1 % of them active, over a 4-shard
//! journaled service with sampled verification and DMA. Gaps and lengths
//! are heavy-tailed (bounded Pareto), so per-round control-plane and
//! journal work dominate and data movement is a small share. A ladder of
//! fixed offered loads spans capacity: below it the workload measures
//! latency, above it the admission path sheds and the backlog is deep.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use copier_client::{AmemcpyOpts, CopierHandle};
use copier_core::{
    stats_to_vec, AdmissionConfig, Copier, CopierConfig, CopyFault, Handler, JournalStore,
    PollMode, SegDescriptor, VerifyPolicy,
};
use copier_hw::CostModel;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr, PAGE_SIZE};
use copier_sim::{
    stream_seed, ArrivalDist, LenDist, Machine, Nanos, Sim, SimRng, WorkloadConfig, WorkloadPlan,
};

use crate::metrics::{completed, pct, pct_attempted, slo_frac, Fnv, Outcome, Spans};
use crate::RunOut;

/// Registered tenants; the first `ACTIVE` of them submit.
const REGISTERED: usize = 100_000;
const ACTIVE: usize = 1_000;
const SHARDS: usize = 4;
/// Client cores the active tenants' submissions are spread over.
const CLIENT_CORES: usize = 4;
const GAP_ALPHA: f64 = 1.5;
const GAP_SPREAD: f64 = 1000.0;
const LEN_MIN: usize = 1024;
const LEN_MAX: usize = 256 * 1024;
const LEN_ALPHA: f64 = 1.2;
/// Nominal 4-shard capacity (GB/s = B/ns) the ladder is a multiple of.
const CAPACITY_GBPS: f64 = 12.9;
/// Offered loads as multiples of `CAPACITY_GBPS`, each with its arrival
/// horizon. The latency rung runs longest: its p99 rests on the rare
/// large copies of the heavy-tailed length mix, so it needs the most
/// samples to repeat across seeds.
const LADDER: [(f64, Nanos); 4] = [
    (0.3, Nanos::from_millis(40)),
    (0.6, Nanos::from_millis(4)),
    (0.9, Nanos::from_millis(4)),
    (1.3, Nanos::from_millis(3)),
];
/// The rung whose latencies are reported (below capacity).
const LATENCY_RUNG: usize = 0;
/// The overload rung: goodput there equals capacity.
const OVERLOAD_RUNG: usize = 3;
/// Latency limit, timed from each copy's due time.
const SLO: Nanos = Nanos::from_micros(500);
/// Backlog sampling period of the monitor task.
const BACKLOG_TICK: Nanos = Nanos::from_micros(25);

/// Mean of the bounded Pareto on `[lo, hi]` with tail index `alpha`.
fn bounded_pareto_mean(lo: f64, hi: f64, alpha: f64) -> f64 {
    let r = (lo / hi).powf(alpha);
    alpha * lo.powf(alpha) * (lo.powf(1.0 - alpha) - hi.powf(1.0 - alpha))
        / ((alpha - 1.0) * (1.0 - r))
}

fn plan(seed: u64, load: f64, horizon: Nanos) -> Rc<WorkloadPlan> {
    let mean_len = bounded_pareto_mean(LEN_MIN as f64, LEN_MAX as f64, LEN_ALPHA);
    let gap_ns = mean_len * ACTIVE as f64 / (load * CAPACITY_GBPS);
    WorkloadPlan::new(WorkloadConfig {
        seed,
        tenants: ACTIVE,
        mean_gap: Nanos(gap_ns as u64),
        len_min: LEN_MIN,
        len_max: LEN_MAX,
        horizon,
        arrival: ArrivalDist::BoundedPareto {
            alpha: GAP_ALPHA,
            spread: GAP_SPREAD,
        },
        length: LenDist::BoundedPareto { alpha: LEN_ALPHA },
    })
}

/// One rung's virtual-time results.
struct Rung {
    outcomes: Vec<Outcome>,
    ok: u64,
    ok_bytes: u64,
    shed: u64,
    end: Nanos,
    backlog_growing: bool,
}

/// Tenant buffers: source, destination, and the source bytes.
struct Bufs {
    src: VirtAddr,
    dst: VirtAddr,
    bytes: Vec<u8>,
}

fn run_rung(seed: u64, (load, horizon): (f64, Nanos), spans: &Rc<Spans>, out: &mut RunOut) -> Rung {
    let setup_t0 = Instant::now();
    let plan = plan(seed, load, horizon);
    // Buffers are sized to each tenant's largest planned copy; the pool
    // is twice what they need, far below the pressure watermark.
    let caps: Vec<usize> = (0..ACTIVE)
        .map(|t| plan.tenant(t).iter().map(|a| a.len).max().unwrap_or(0))
        .collect();
    let pages: usize = caps.iter().map(|c| 2 * c.div_ceil(PAGE_SIZE)).sum();
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, CLIENT_CORES + SHARDS);
    let pm = Rc::new(PhysMem::new(2 * pages + 1024, AllocPolicy::Scattered));
    let svc_cores: Vec<_> = (0..SHARDS)
        .map(|i| machine.core(CLIENT_CORES + i))
        .collect();
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        svc_cores.clone(),
        Rc::new(CostModel::default()),
        CopierConfig {
            shards: SHARDS,
            use_dma: true,
            journal: Some(JournalStore::new()),
            verify: VerifyPolicy::Sampled,
            // Shallow submitters: small rings keep 10⁵ registrations cheap.
            queue_cap: 4,
            polling: PollMode::Napi {
                spin_rounds: 64,
                park_timeout: Nanos::from_micros(50),
            },
            admission: AdmissionConfig {
                max_client_tasks: 16,
                max_client_bytes: 1024 * 1024,
                global_high_bytes: 4 * 1024 * 1024,
                global_low_bytes: 3 * 1024 * 1024,
                ..AdmissionConfig::default()
            },
            ..CopierConfig::default()
        },
    );
    svc.start();

    let reg_t0 = Instant::now();
    let libs: Vec<Rc<CopierHandle>> = (0..REGISTERED)
        .map(|t| CopierHandle::new(&svc, AddressSpace::new(t as u32 + 1, Rc::clone(&pm))))
        .collect();
    out.register_s += reg_t0.elapsed().as_secs_f64();

    let mmap_t0 = Instant::now();
    let fill = SimRng::new(stream_seed(seed, 0xb0f));
    let bufs: Vec<Option<Rc<Bufs>>> = caps
        .iter()
        .enumerate()
        .map(|(t, &cap)| {
            (cap > 0).then(|| {
                let space = &libs[t].uspace;
                let src = space
                    .mmap(cap, Prot::RW, true)
                    .expect("pool sized for every buffer");
                let dst = space
                    .mmap(cap, Prot::RW, true)
                    .expect("pool sized for every buffer");
                let mut bytes = vec![0u8; cap];
                fill.fill_bytes(&mut bytes);
                space.write_bytes(src, &bytes).expect("source is mapped");
                Rc::new(Bufs { src, dst, bytes })
            })
        })
        .collect();
    out.mmap_s += mmap_t0.elapsed().as_secs_f64();

    let mut base = Vec::with_capacity(ACTIVE);
    let mut n_ops = 0usize;
    for t in 0..ACTIVE {
        base.push(n_ops);
        n_ops += plan.tenant(t).len();
    }
    let done_at = Rc::new(RefCell::new(vec![0u64; n_ops]));
    let calls = Rc::new(RefCell::new(vec![0u32; n_ops]));
    let submit_end = Rc::new(RefCell::new(vec![0u64; n_ops]));
    let admitted: Rc<RefCell<Vec<Option<Rc<SegDescriptor>>>>> =
        Rc::new(RefCell::new(vec![None; n_ops]));
    let rejects = Rc::new(Cell::new(0u64));
    let tenants_done = Rc::new(Cell::new(0usize));
    let mut submitted_bytes = 0u64;

    for t in 0..ACTIVE {
        let Some(b) = bufs[t].clone() else { continue };
        let arrivals = plan.tenant(t).to_vec();
        submitted_bytes += arrivals.iter().map(|a| a.len as u64).sum::<u64>();
        let lib = Rc::clone(&libs[t]);
        let core = machine.core(t % CLIENT_CORES);
        let h = h.clone();
        let (done_at, calls, submit_end, admitted) = (
            Rc::clone(&done_at),
            Rc::clone(&calls),
            Rc::clone(&submit_end),
            Rc::clone(&admitted),
        );
        let (rejects, tenants_done, spans) = (
            Rc::clone(&rejects),
            Rc::clone(&tenants_done),
            Rc::clone(spans),
        );
        let base = base[t];
        sim.spawn("tenant", async move {
            for (i, a) in arrivals.iter().enumerate() {
                let idx = base + i;
                let now = h.now();
                if a.at > now {
                    h.sleep(a.at - now).await;
                }
                let start = h.now().as_nanos();
                spans.record("client.gen_lag_us", a.at.as_nanos(), start);
                let (d, c, h2) = (Rc::clone(&done_at), Rc::clone(&calls), h.clone());
                let opts = AmemcpyOpts {
                    func: Some(Handler::KFunc(Rc::new(move || {
                        d.borrow_mut()[idx] = h2.now().as_nanos();
                        c.borrow_mut()[idx] += 1;
                    }))),
                    ..Default::default()
                };
                let r = lib.try_amemcpy(&core, b.dst, b.src, a.len, opts).await;
                let end = h.now().as_nanos();
                spans.record("client.submit_us", start, end);
                submit_end.borrow_mut()[idx] = end;
                match r {
                    Ok(descr) => admitted.borrow_mut()[idx] = Some(descr),
                    Err(_) => rejects.set(rejects.get() + 1),
                }
            }
            tenants_done.set(tenants_done.get() + 1);
        });
    }
    let active = bufs.iter().filter(|b| b.is_some()).count();

    // Backlog monitor: admitted bytes sampled over the arrival horizon.
    let backlog = Rc::new(RefCell::new(Vec::new()));
    {
        let (svc, h, backlog) = (Rc::clone(&svc), h.clone(), Rc::clone(&backlog));
        sim.spawn("monitor", async move {
            while h.now() < horizon {
                h.sleep(BACKLOG_TICK).await;
                backlog.borrow_mut().push(svc.admitted_bytes());
            }
        });
    }
    // Finish: wait for every tenant, then for the window to drain.
    let end = Rc::new(Cell::new(Nanos::ZERO));
    {
        let (svc, h, end, tenants_done) = (
            Rc::clone(&svc),
            h.clone(),
            Rc::clone(&end),
            Rc::clone(&tenants_done),
        );
        sim.spawn("finish", async move {
            while tenants_done.get() < active {
                h.sleep(Nanos::from_micros(20)).await;
            }
            let mut stable = 0;
            while stable < 3 {
                h.sleep(Nanos::from_micros(10)).await;
                stable = if svc.admitted_bytes() == 0 {
                    stable + 1
                } else {
                    0
                };
            }
            end.set(h.now());
            svc.stop();
        });
    }
    out.setups_s.push(setup_t0.elapsed().as_secs_f64());

    let run_t0 = Instant::now();
    sim.run();
    out.run_s.push(run_t0.elapsed().as_secs_f64());

    // Output checks.
    let errors = &mut out.errors;
    if let Err(e) = svc.audit_aggregates() {
        errors.push(format!("fleet: aggregate audit: {e}"));
    }
    if pm.pinned_frames() != 0 {
        errors.push(format!("fleet: {} frames still pinned", pm.pinned_frames()));
    }
    let (done_at, calls, submit_end, admitted) = (
        done_at.borrow(),
        calls.borrow(),
        submit_end.borrow(),
        admitted.borrow(),
    );
    let mut outcomes = Vec::with_capacity(n_ops);
    let (mut ok, mut ok_bytes, mut shed, mut poisoned) = (0u64, 0u64, 0u64, 0u64);
    let mut fp = Fnv::default();
    for t in 0..ACTIVE {
        let Some(b) = &bufs[t] else { continue };
        let mut landed = 0usize;
        for (i, a) in plan.tenant(t).iter().enumerate() {
            let idx = base[t] + i;
            let due = a.at.as_nanos();
            let o = match &admitted[idx] {
                None => {
                    if calls[idx] != 0 {
                        errors.push(format!("fleet: refused copy {idx} ran a handler"));
                    }
                    Outcome::Missed
                }
                Some(d) => {
                    if calls[idx] != 1 {
                        errors.push(format!(
                            "fleet: copy {idx} ran {} handlers, want exactly 1",
                            calls[idx]
                        ));
                    }
                    match d.fault() {
                        None => {
                            ok += 1;
                            ok_bytes += a.len as u64;
                            landed = landed.max(a.len);
                            spans.record("client.queue_to_done_us", submit_end[idx], done_at[idx]);
                            Outcome::Done(done_at[idx] - due)
                        }
                        Some(CopyFault::Overloaded) => {
                            shed += 1;
                            Outcome::Missed
                        }
                        Some(f) => {
                            poisoned += 1;
                            errors.push(format!("fleet: copy {idx} poisoned: {f:?}"));
                            Outcome::Missed
                        }
                    }
                }
            };
            fp.u64(o.rank());
            outcomes.push(o);
        }
        // Every copy moves src[..len] to dst[..len]: the destination must
        // hold the longest completed copy's prefix and zeros after it.
        let space = &libs[t].uspace;
        let mut got = vec![0u8; b.bytes.len()];
        space
            .read_bytes(b.dst, &mut got)
            .expect("destination is mapped");
        let mut want = b.bytes[..landed].to_vec();
        want.resize(b.bytes.len(), 0);
        if got != want {
            errors.push(format!(
                "fleet: tenant {t} destination differs from the replay"
            ));
        }
    }
    let s = svc.stats();
    let refused = rejects.get();
    if ok + refused + shed + poisoned != n_ops as u64 {
        errors.push(format!(
            "fleet: attempted {n_ops} != completed {ok} + refused {refused} + shed {shed} + poisoned {poisoned}"
        ));
    }
    if s.tasks_completed != ok || s.admission_rejected != shed {
        errors.push(format!(
            "fleet: service counts {} completed / {} shed, clients saw {ok} / {shed}",
            s.tasks_completed, s.admission_rejected
        ));
    }
    for v in stats_to_vec(&s) {
        fp.u64(v);
    }
    out.fingerprint.u64(fp.0);
    out.attempted += n_ops as u64;
    out.failed += poisoned;
    out.payload_bytes += ok_bytes;
    out.layers
        .add_sim(&sim, &svc, &svc_cores, &pm, end.get(), submitted_bytes);
    out.layers.client_rejects += refused;
    out.layers.sync_fallbacks += libs.iter().map(|l| l.sync_fallbacks()).sum::<u64>();

    // Growing backlog: the last third of the horizon holds clearly more
    // admitted bytes than the middle third.
    let bl = backlog.borrow();
    let third = bl.len() / 3;
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64;
    let backlog_growing =
        mean(&bl[2 * third..]) > 2.0 * mean(&bl[third..2 * third]) + 256.0 * 1024.0;
    Rung {
        outcomes,
        ok,
        ok_bytes,
        shed,
        end: end.get(),
        backlog_growing,
    }
}

pub fn run(seed: u64, traced: bool) -> RunOut {
    let spans = Rc::new(Spans::new(traced));
    let mut out = RunOut::default();
    let rungs: Vec<Rung> = LADDER
        .iter()
        .map(|&rung| run_rung(seed, rung, &spans, &mut out))
        .collect();

    let lat = &rungs[LATENCY_RUNG];
    let samples = completed(&lat.outcomes);
    out.layers.op_samples = samples.len() as u64;
    for ((r, (load, _)), host) in rungs.iter().zip(LADDER).zip(&out.run_s) {
        let p99 = pct_attempted(&r.outcomes, 0.99);
        eprintln!(
            "perfbench: fleet rung {load:.2}x: {} ops, {} ok, {} shed, p50 {:.3} us, p99 {}, backlog growing {}, end {} us, host {host:.3}s",
            r.outcomes.len(),
            r.ok,
            r.shed,
            pct_attempted(&r.outcomes, 0.5) as f64 / 1e3,
            if p99 == u64::MAX { "refused".into() } else { format!("{:.1} us", p99 as f64 / 1e3) },
            r.backlog_growing,
            r.end.as_nanos() / 1000
        );
    }
    let over = &rungs[OVERLOAD_RUNG];
    let end_s = over.end.as_nanos() as f64 / 1e9;
    let max_load = rungs
        .iter()
        .zip(LADDER.map(|(load, _)| load))
        .filter(|(r, _)| pct_attempted(&r.outcomes, 0.99) <= SLO.as_nanos() && !r.backlog_growing)
        .map(|(_, load)| load * CAPACITY_GBPS)
        .fold(0.0, f64::max);

    let e = &mut out.e2e;
    e.set(
        "goodput_gbps",
        over.ok_bytes as f64 / over.end.as_nanos() as f64,
        "GB/s",
    );
    e.set("ops_per_s", over.ok as f64 / end_s, "1/s");
    e.set("op_p50_us", pct(&samples, 0.50) as f64 / 1e3, "us");
    e.set("op_p99_us", pct(&samples, 0.99) as f64 / 1e3, "us");
    e.set("slo_frac", slo_frac(&over.outcomes, SLO.as_nanos()), "frac");
    e.set(
        "ok_frac",
        over.ok as f64 / over.outcomes.len() as f64,
        "frac",
    );
    e.set("max_load_at_slo", max_load, "GB/s");

    if samples.len() < 1000 {
        out.errors
            .push(format!("fleet: only {} latency samples", samples.len()));
    }
    if over.shed == 0 {
        out.errors
            .push("regime: no admission rejects on the overload rung".into());
    }
    if max_load == 0.0 {
        out.errors
            .push("regime: no rung meets the latency limit".into());
    }
    out.layers.regime_errors(&mut out.errors);
    out.spans = spans;
    out
}
