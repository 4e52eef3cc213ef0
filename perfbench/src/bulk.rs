//! `bulk`: large copies from two tenants — the data plane's workload.
//!
//! Closed loop: 2 tenants, each keeping a window of copies in flight, on
//! one service core with DMA, no journal, and no verification. Copies are
//! 64 KiB–1 MiB. Three quarters of the fresh copies reuse one of 16
//! buffer pairs (ATCache hits, as in Fig. 9); about half of all copies
//! are chained, sourcing from the previous copy's destination
//! (absorption); some are followed at once by a `csync` of their first
//! segment, which is early use inside the Copy-Use window. The
//! `copier-hw` dispatch split, `copier-mem` byte movement, the ATCache
//! and absorption carry the run; two tenants leave the control plane
//! nearly idle, so a control-plane change should not move this workload.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use copier_client::{AmemcpyOpts, CopierHandle};
use copier_core::{stats_to_vec, Copier, CopierConfig, Handler, SegDescriptor};
use copier_hw::CostModel;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot, PAGE_SIZE};
use copier_sim::{stream_seed, Machine, Nanos, Notify, Sim, SimRng};

use crate::metrics::{Fnv, Outcome};
use crate::RunOut;

const TENANTS: usize = 2;
/// Copies each tenant keeps in flight.
const WINDOW: usize = 8;
/// Copies each tenant submits.
const COPIES: usize = 1000;
const LEN_MIN: usize = 64 * 1024;
const LEN_MAX: usize = 1024 * 1024;
/// Reused buffer pairs, each with its own fixed length.
const HOT: usize = 16;
/// Cycled buffer pairs with a fresh length per copy (ATCache misses).
const COLD: usize = 8;
/// Buffers chained copies forward into.
const FWD: usize = 4;
const P_HOT: f64 = 0.75;
const P_CHAIN: f64 = 0.5;
const P_EARLY: f64 = 0.25;
/// Latency limit, timed from each copy's submission.
const SLO: Nanos = Nanos::from_millis(3);

/// One planned copy between buffer ids.
#[derive(Clone, Copy)]
struct Op {
    src: usize,
    dst: usize,
    len: usize,
    early: bool,
}

/// A tenant's buffers (capacities) and seeded copy sequence.
struct Plan {
    caps: Vec<usize>,
    ops: Vec<Op>,
}

fn plan(seed: u64) -> Plan {
    let rng = SimRng::new(seed);
    let mut caps = Vec::new();
    let mut buf = |cap: usize| {
        caps.push(cap);
        caps.len() - 1
    };
    // One hot length per stratum of [LEN_MIN, LEN_MAX]: the reused pairs
    // cover the range evenly, so their mean size barely moves with the
    // seed (16 free draws would swing it, and every latency with it).
    let stratum = (LEN_MAX - LEN_MIN) / HOT;
    let hot: Vec<(usize, usize, usize)> = (0..HOT)
        .map(|i| {
            let len = LEN_MIN + i * stratum + rng.range_usize(0, stratum + 1);
            (buf(len), buf(len), len)
        })
        .collect();
    let cold: Vec<(usize, usize)> = (0..COLD).map(|_| (buf(LEN_MAX), buf(LEN_MAX))).collect();
    let fwd: Vec<usize> = (0..FWD).map(|_| buf(LEN_MAX)).collect();
    // Exact shares in seeded order: a chained copy every other copy on
    // average, hot reuse for three quarters of the fresh ones, early use
    // after a quarter. Fixed counts keep the byte mix, and with it every
    // latency, from drifting with the seed.
    let shuffled = |n: usize, share: f64| {
        let k = (n as f64 * share).round() as usize;
        let mut v: Vec<bool> = (0..n).map(|i| i < k).collect();
        rng.shuffle(&mut v);
        v
    };
    let mut chain = shuffled(COPIES, P_CHAIN);
    if chain[0] {
        // The first copy has nothing to chain from.
        let free = chain
            .iter()
            .position(|c| !c)
            .expect("not every copy chains");
        chain.swap(0, free);
    }
    let fresh = chain.iter().filter(|c| !**c).count();
    let mut hot_pick = shuffled(fresh, P_HOT).into_iter();
    let early = shuffled(COPIES, P_EARLY);
    let (mut next_fwd, mut next_cold) = (0, 0);
    let mut ops: Vec<Op> = Vec::with_capacity(COPIES);
    for k in 0..COPIES {
        let (src, dst, len) = match ops.last() {
            Some(prev) if chain[k] => {
                let mut f = fwd[next_fwd % FWD];
                next_fwd += 1;
                if f == prev.dst {
                    f = fwd[next_fwd % FWD];
                    next_fwd += 1;
                }
                (prev.dst, f, prev.len)
            }
            _ if hot_pick.next().expect("one pick per fresh copy") => {
                hot[rng.gen_range(HOT as u64) as usize]
            }
            _ => {
                let (s, d) = cold[next_cold % COLD];
                next_cold += 1;
                (s, d, rng.range_usize(LEN_MIN, LEN_MAX + 1))
            }
        };
        ops.push(Op {
            src,
            dst,
            len,
            early: early[k],
        });
    }
    Plan { caps, ops }
}

/// Per-copy stamps a tenant and its completion handlers fill in.
#[derive(Default)]
struct Stamps {
    start: Vec<u64>,
    submit_end: Vec<u64>,
    done: Vec<u64>,
    calls: Vec<u32>,
    descr: Vec<Option<Rc<SegDescriptor>>>,
    /// What an early `csync` returned, and the first-segment bytes read
    /// right after it.
    early: Vec<Option<(bool, Vec<u8>)>>,
}

pub fn run(seed: u64, traced: bool) -> RunOut {
    let spans = Rc::new(crate::metrics::Spans::new(traced));
    let mut out = RunOut::default();
    let setup_t0 = Instant::now();
    let plans: Vec<Plan> = (0..TENANTS)
        .map(|t| plan(stream_seed(seed, t as u64)))
        .collect();
    let pages: usize = plans
        .iter()
        .flat_map(|p| p.caps.iter())
        .map(|c| c.div_ceil(PAGE_SIZE))
        .sum();
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, TENANTS + 1);
    let pm = Rc::new(PhysMem::new(2 * pages + 1024, AllocPolicy::Scattered));
    let svc_cores = vec![machine.core(TENANTS)];
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        svc_cores.clone(),
        Rc::new(CostModel::default()),
        CopierConfig {
            use_dma: true,
            ..CopierConfig::default()
        },
    );
    svc.start();

    let reg_t0 = Instant::now();
    let libs: Vec<Rc<CopierHandle>> = (0..TENANTS)
        .map(|t| CopierHandle::new(&svc, AddressSpace::new(t as u32 + 1, Rc::clone(&pm))))
        .collect();
    out.register_s += reg_t0.elapsed().as_secs_f64();

    // Every buffer starts random; its initial bytes are kept for the
    // replay after the run.
    let mmap_t0 = Instant::now();
    let mut tenants = Vec::new();
    for (t, p) in plans.iter().enumerate() {
        let space = &libs[t].uspace;
        let fill = SimRng::new(stream_seed(seed, 0xb0f + t as u64));
        let mut vas = Vec::new();
        let mut init = Vec::new();
        for &cap in &p.caps {
            let va = space
                .mmap(cap, Prot::RW, true)
                .expect("pool sized for every buffer");
            let mut bytes = vec![0u8; cap];
            fill.fill_bytes(&mut bytes);
            space.write_bytes(va, &bytes).expect("buffer is mapped");
            vas.push(va);
            init.push(bytes);
        }
        tenants.push((vas, init));
    }
    out.mmap_s += mmap_t0.elapsed().as_secs_f64();

    let seg = svc.config().segment;
    let stamps: Vec<Rc<RefCell<Stamps>>> = (0..TENANTS)
        .map(|_| {
            Rc::new(RefCell::new(Stamps {
                start: vec![0; COPIES],
                submit_end: vec![0; COPIES],
                done: vec![0; COPIES],
                calls: vec![0; COPIES],
                descr: vec![None; COPIES],
                early: vec![None; COPIES],
            }))
        })
        .collect();
    let rejects = Rc::new(Cell::new(0u64));
    let tenants_done = Rc::new(Cell::new(0usize));
    let mut submitted_bytes = 0u64;
    for (t, (vas, _)) in tenants.iter().enumerate() {
        let ops = plans[t].ops.clone();
        submitted_bytes += ops.iter().map(|o| o.len as u64).sum::<u64>();
        let lib = Rc::clone(&libs[t]);
        let core = machine.core(t);
        let h = h.clone();
        let vas = vas.clone();
        let (st, rejects, tenants_done, spans) = (
            Rc::clone(&stamps[t]),
            Rc::clone(&rejects),
            Rc::clone(&tenants_done),
            Rc::clone(&spans),
        );
        sim.spawn("tenant", async move {
            let inflight = Rc::new(Cell::new(0usize));
            let wake = Rc::new(Notify::new());
            for (k, op) in ops.iter().enumerate() {
                while inflight.get() >= WINDOW {
                    wake.notified().await;
                }
                inflight.set(inflight.get() + 1);
                let start = h.now().as_nanos();
                let (st2, inflight2, wake2, h2) = (
                    Rc::clone(&st),
                    Rc::clone(&inflight),
                    Rc::clone(&wake),
                    h.clone(),
                );
                let opts = AmemcpyOpts {
                    func: Some(Handler::KFunc(Rc::new(move || {
                        let mut s = st2.borrow_mut();
                        s.done[k] = h2.now().as_nanos();
                        s.calls[k] += 1;
                        inflight2.set(inflight2.get() - 1);
                        wake2.notify_one();
                    }))),
                    ..Default::default()
                };
                let (dst, src) = (vas[op.dst], vas[op.src]);
                let r = lib._amemcpy(&core, dst, src, op.len, opts).await;
                let end = h.now().as_nanos();
                spans.record("client.submit_us", start, end);
                {
                    let mut s = st.borrow_mut();
                    s.start[k] = start;
                    s.submit_end[k] = end;
                    match r {
                        Ok(d) => s.descr[k] = Some(d),
                        Err(_) => {
                            rejects.set(rejects.get() + 1);
                            inflight.set(inflight.get() - 1);
                        }
                    }
                }
                if op.early {
                    // Early use: the first segment must be final the moment
                    // csync returns, while the rest may still be in flight.
                    let n = seg.min(op.len);
                    let t0 = h.now().as_nanos();
                    let ok = lib.csync(&core, dst, n).await.is_ok();
                    spans.record("client.csync_wait_us", t0, h.now().as_nanos());
                    let mut got = vec![0u8; n];
                    lib.uspace
                        .read_bytes(dst, &mut got)
                        .expect("buffer is mapped");
                    st.borrow_mut().early[k] = Some((ok, got));
                }
            }
            while inflight.get() > 0 {
                wake.notified().await;
            }
            tenants_done.set(tenants_done.get() + 1);
        });
    }
    let end = Rc::new(Cell::new(Nanos::ZERO));
    {
        let (svc, h, end, tenants_done) = (
            Rc::clone(&svc),
            h.clone(),
            Rc::clone(&end),
            Rc::clone(&tenants_done),
        );
        sim.spawn("finish", async move {
            while tenants_done.get() < TENANTS {
                h.sleep(Nanos::from_micros(5)).await;
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
        errors.push(format!("bulk: aggregate audit: {e}"));
    }
    if pm.pinned_frames() != 0 {
        errors.push(format!("bulk: {} frames still pinned", pm.pinned_frames()));
    }
    if tenants_done.get() != TENANTS {
        errors.push("bulk: a tenant never finished".into());
    }
    let mut fp = Fnv::default();
    let mut outcomes = Vec::with_capacity(TENANTS * COPIES);
    let (mut ok_bytes, mut failed) = (0u64, 0u64);
    for (t, st) in stamps.iter().enumerate() {
        let st = st.borrow();
        for (k, op) in plans[t].ops.iter().enumerate() {
            let landed = st.descr[k].as_ref().is_some_and(|d| d.fault().is_none());
            let want_calls = u32::from(st.descr[k].is_some());
            if st.calls[k] != want_calls {
                errors.push(format!("bulk: copy {t}/{k} ran {} handlers", st.calls[k]));
            }
            let o = if landed {
                ok_bytes += op.len as u64;
                spans.record("client.queue_to_done_us", st.submit_end[k], st.done[k]);
                Outcome::Done(st.done[k] - st.start[k])
            } else {
                failed += 1;
                Outcome::Missed
            };
            fp.u64(o.rank());
            outcomes.push(o);
        }
    }
    if failed > 0 {
        errors.push(format!("bulk: {failed} copies refused or poisoned"));
    }
    // Replay every copy on plain vectors in submission order: each early
    // csync must have seen its segment as replayed at that point, and
    // every buffer, source and destination, must end as replayed.
    let mut early_mismatch = 0;
    for (t, (vas, mut shadow)) in tenants.into_iter().enumerate() {
        let st = stamps[t].borrow();
        for (k, op) in plans[t].ops.iter().enumerate() {
            let moved = shadow[op.src][..op.len].to_vec();
            shadow[op.dst][..op.len].copy_from_slice(&moved);
            if let Some((ok, got)) = &st.early[k] {
                if !ok || got[..] != shadow[op.dst][..got.len()] {
                    early_mismatch += 1;
                }
            }
        }
        for (id, want) in shadow.iter().enumerate() {
            let mut got = vec![0u8; want.len()];
            libs[t]
                .uspace
                .read_bytes(vas[id], &mut got)
                .expect("buffer is mapped");
            if &got != want {
                errors.push(format!(
                    "bulk: tenant {t} buffer {id} differs from the replay"
                ));
            }
        }
    }
    if early_mismatch > 0 {
        errors.push(format!(
            "bulk: {early_mismatch} early csyncs saw bytes differing from the replay"
        ));
    }
    let s = svc.stats();
    for v in stats_to_vec(&s) {
        fp.u64(v);
    }
    out.fingerprint.u64(fp.0);
    out.attempted = outcomes.len() as u64;
    out.failed = failed;
    out.payload_bytes = ok_bytes;
    out.layers
        .add_sim(&sim, &svc, &svc_cores, &pm, end.get(), submitted_bytes);
    out.layers.client_rejects = rejects.get();
    out.layers.sync_fallbacks = libs.iter().map(|l| l.sync_fallbacks()).sum();

    out.closed_loop(&outcomes, ok_bytes, end.get(), SLO);
    if out.layers.dma_bytes == 0 {
        out.errors.push("regime: bulk moved no bytes by DMA".into());
    }
    out.layers.regime_errors(&mut out.errors);
    out.spans = spans;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_has_exact_shares_and_real_chains() {
        for seed in 0..20 {
            let p = plan(seed);
            let chained = p
                .ops
                .windows(2)
                .filter(|w| w[1].src == w[0].dst && w[1].len == w[0].len)
                .count();
            // Every planned chain sources from its predecessor's
            // destination (a hot copy can coincide with one by chance).
            assert!(chained >= COPIES / 2, "seed {seed}: {chained} chains");
            let early = p.ops.iter().filter(|o| o.early).count();
            assert_eq!(early, COPIES / 4);
            for o in &p.ops {
                assert!((LEN_MIN..=LEN_MAX).contains(&o.len));
                assert!(o.len <= p.caps[o.src] && o.len <= p.caps[o.dst]);
                assert_ne!(o.src, o.dst);
            }
        }
    }
}
