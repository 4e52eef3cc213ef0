//! `kv`: small copies on the syscall path, latency-bound.
//!
//! Closed loop: 2 client connections through `copier-os::NetStack` into
//! one `RedisServer` in `RedisMode::Copier`. GET:SET is 1:1 over values of
//! {1, 4, 16, 64} KiB — mostly below the DMA break-even point, where
//! Fig. 11 shows Copier losing at ≤ 4 KiB. The same service and dispatch
//! layers as `bulk` run here for latency instead of throughput, and SET
//! and GET move bytes in opposite directions (user → kernel → store and
//! store → kernel → user).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use copier_apps::redis::{encode_request, Op, RedisMode, RedisServer};
use copier_core::{stats_to_vec, CopierConfig};
use copier_mem::Prot;
use copier_os::{IoMode, NetStack, Os};
use copier_sim::{stream_seed, Machine, Nanos, Sim, SimRng};

use crate::metrics::{completed, pct, Fnv, Outcome};
use crate::RunOut;

const CLIENTS: usize = 2;
/// Requests per client connection.
const REQUESTS: usize = 1150;
/// Keys per client (disjoint between clients).
const KEYS: usize = 16;
/// Value sizes and their shares. The weights keep the median and the
/// 99th percentile inside one size class each, away from class edges
/// where a seed could tip them from one class to the next.
const SIZES: [(usize, f64); 4] = [
    (1024, 0.30),
    (4 * 1024, 0.30),
    (16 * 1024, 0.25),
    (64 * 1024, 0.15),
];
/// Server I/O buffer: the largest request plus header and key.
const SERVER_CAP: usize = 128 * 1024;
/// Physical frames (16 KiB values, two connections: far below pressure).
const FRAMES: usize = 16 * 1024;
/// Readiness-poll period of the server's event loop when no connection
/// has a request queued.
const POLL: Nanos = Nanos(200);
/// Latency limit per request, timed from its send.
const SLO: Nanos = Nanos::from_micros(200);

/// A connection's `(op, outcome)` per request, in order; a wrong reply
/// is a miss.
type Samples = Vec<(Op, Outcome)>;

/// One planned request.
struct Req {
    op: Op,
    key: usize,
    /// Value size of a SET (a GET returns the key's current value).
    len: usize,
}

/// A connection's requests: exactly half GETs and the value sizes in
/// exactly their shares, in seeded order. Fixed counts keep each run the
/// same distance past the GET-path window cliff (see README), whatever
/// the seed.
fn plan(seed: u64) -> Vec<Req> {
    let rng = SimRng::new(seed);
    let sets = REQUESTS / 2;
    let mut ops: Vec<Op> = (0..REQUESTS)
        .map(|i| if i < sets { Op::Set } else { Op::Get })
        .collect();
    rng.shuffle(&mut ops);
    // A key must be SET before its first GET.
    let first_set = ops
        .iter()
        .position(|&o| o == Op::Set)
        .expect("half the requests SET");
    ops.swap(0, first_set);
    let mut lens: Vec<usize> = SIZES
        .iter()
        .flat_map(|&(l, w)| std::iter::repeat_n(l, (w * sets as f64) as usize))
        .collect();
    // Rounding the shares down leaves a few SETs: they take the smallest size.
    lens.resize(sets, SIZES[0].0);
    rng.shuffle(&mut lens);
    let mut lens = lens.into_iter();
    let mut set_keys: Vec<usize> = Vec::new();
    ops.into_iter()
        .map(|op| match op {
            Op::Set => {
                let key = rng.gen_range(KEYS as u64) as usize;
                if !set_keys.contains(&key) {
                    set_keys.push(key);
                }
                let len = lens.next().expect("one size per SET");
                Req { op, key, len }
            }
            Op::Get => {
                let key = set_keys[rng.gen_range(set_keys.len() as u64) as usize];
                Req { op, key, len: 0 }
            }
        })
        .collect()
}

pub fn run(seed: u64, traced: bool) -> RunOut {
    let spans = Rc::new(crate::metrics::Spans::new(traced));
    let mut out = RunOut::default();
    let setup_t0 = Instant::now();
    let plans: Vec<Vec<Req>> = (0..CLIENTS)
        .map(|c| plan(stream_seed(seed, c as u64)))
        .collect();
    let mut sim = Sim::new();
    let h = sim.handle();
    // Client cores, the server core, the service core.
    let machine = Machine::new(&h, CLIENTS + 2);
    let os = Os::boot(&h, machine, FRAMES);
    let svc_core = os.machine.core(CLIENTS + 1);
    let reg_t0 = Instant::now();
    let svc = os.install_copier(vec![Rc::clone(&svc_core)], CopierConfig::default());
    out.register_s += reg_t0.elapsed().as_secs_f64();
    let net = NetStack::new(&os);
    let mmap_t0 = Instant::now();
    let server = RedisServer::new(&os, &net, RedisMode::Copier, SERVER_CAP)
        .expect("frames sized for the server buffers");
    out.mmap_s += mmap_t0.elapsed().as_secs_f64();
    let score = os.machine.core(CLIENTS);

    // Per-request latency and GET checks, by client.
    let lat: Rc<RefCell<Vec<Samples>>> = Rc::new(RefCell::new(vec![Vec::new(); CLIENTS]));
    let clients_done = Rc::new(Cell::new(0usize));
    let end = Rc::new(Cell::new(Nanos::ZERO));
    let payload = Rc::new(Cell::new(0u64));
    let mut server_socks = Vec::new();
    for (c, reqs) in plans.into_iter().enumerate() {
        let (cs, ss) = net.socket_pair();
        server_socks.push(ss);
        let reg_t0 = Instant::now();
        let proc = os.spawn_process();
        out.register_s += reg_t0.elapsed().as_secs_f64();
        let cap = 9 + 16 + SIZES[SIZES.len() - 1].0 + 64;
        let mmap_t0 = Instant::now();
        let tx = proc
            .space
            .mmap(cap, Prot::RW, true)
            .expect("frames sized for client buffers");
        let rx = proc
            .space
            .mmap(cap, Prot::RW, true)
            .expect("frames sized for client buffers");
        out.mmap_s += mmap_t0.elapsed().as_secs_f64();
        let core = os.machine.core(c);
        let (os, net, h) = (Rc::clone(&os), Rc::clone(&net), h.clone());
        let (lat, clients_done, end, spans, payload) = (
            Rc::clone(&lat),
            Rc::clone(&clients_done),
            Rc::clone(&end),
            Rc::clone(&spans),
            Rc::clone(&payload),
        );
        sim.spawn("client", async move {
            let fill = SimRng::new(stream_seed(seed, 0xb0f + c as u64));
            // The last value SET per key: what every GET must return.
            let mut model: Vec<Vec<u8>> = vec![Vec::new(); KEYS];
            for r in &reqs {
                let key = format!("key:{c}:{:04}", r.key);
                if r.op == Op::Set {
                    let mut v = vec![0u8; r.len];
                    fill.fill_bytes(&mut v);
                    model[r.key] = v;
                }
                let value = &model[r.key];
                let req_len =
                    encode_request(&proc, tx, r.op, key.as_bytes(), value).expect("tx is mapped");
                let t0 = h.now().as_nanos();
                net.send(&core, &proc, &cs, tx, req_len, IoMode::Sync)
                    .await
                    .expect("send");
                let t1 = h.now().as_nanos();
                let (n, _) = net
                    .recv(&core, &proc, &cs, rx, cap, IoMode::Sync)
                    .await
                    .expect("recv");
                let t2 = h.now().as_nanos();
                spans.record("os.send_us", t0, t1);
                spans.record("os.recv_us", t1, t2);
                let mut got = vec![0u8; n];
                proc.space.read_bytes(rx, &mut got).expect("rx is mapped");
                let want: &[u8] = if r.op == Op::Get { value } else { b"OK" };
                let len_ok = got.len() >= 4
                    && u32::from_le_bytes(got[..4].try_into().expect("4 bytes")) as usize
                        == want.len();
                let o = if len_ok && got[4..] == *want {
                    payload.set(payload.get() + value.len() as u64);
                    Outcome::Done(t2 - t0)
                } else {
                    Outcome::Missed
                };
                lat.borrow_mut()[c].push((r.op, o));
            }
            clients_done.set(clients_done.get() + 1);
            if clients_done.get() == CLIENTS {
                end.set(h.now());
                os.copier().stop();
            }
        });
    }
    // The server is one event loop: it takes one whole request at a time
    // from whichever connection has one queued, as a single-threaded
    // Redis does. (`serve` keeps per-server buffers and cleanup state, so
    // two `serve` tasks interleaving on one server mix their requests.)
    {
        let (server, score, h) = (Rc::clone(&server), Rc::clone(&score), h.clone());
        sim.spawn("server", async move {
            let mut left = [REQUESTS; CLIENTS];
            let mut next = 0;
            while left.iter().any(|&l| l > 0) {
                let ready = (0..CLIENTS)
                    .map(|i| (next + i) % CLIENTS)
                    .find(|&i| left[i] > 0 && server_socks[i].rx_depth() > 0);
                match ready {
                    Some(i) => {
                        server.serve(&score, Rc::clone(&server_socks[i]), 1).await;
                        left[i] -= 1;
                        next = i + 1;
                    }
                    None => h.sleep(POLL).await,
                }
            }
        });
    }
    out.setups_s.push(setup_t0.elapsed().as_secs_f64());

    let run_t0 = Instant::now();
    sim.run();
    out.run_s.push(run_t0.elapsed().as_secs_f64());

    // Output checks.
    let errors = &mut out.errors;
    let total = (CLIENTS * REQUESTS) as u64;
    if server.served.get() != total {
        errors.push(format!(
            "kv: served {} of {total} requests",
            server.served.get()
        ));
    }
    let lat = lat.borrow();
    let outcomes: Vec<Outcome> = lat.iter().flatten().map(|&(_, o)| o).collect();
    let wrong = outcomes.iter().filter(|&&o| o == Outcome::Missed).count() as u64;
    if wrong > 0 {
        errors.push(format!(
            "kv: {wrong} replies differ from the last SET value"
        ));
    }
    if let Err(e) = svc.audit_aggregates() {
        errors.push(format!("kv: aggregate audit: {e}"));
    }
    if os.pm.pinned_frames() != 0 {
        errors.push(format!("kv: {} frames still pinned", os.pm.pinned_frames()));
    }
    let latencies = |op: Op| {
        let of_op: Vec<Outcome> = lat
            .iter()
            .flatten()
            .filter(|(o, _)| *o == op)
            .map(|&(_, x)| x)
            .collect();
        completed(&of_op)
    };
    let (gets, sets) = (latencies(Op::Get), latencies(Op::Set));
    if gets.len() < 1000 || sets.len() < 1000 {
        errors.push(format!(
            "kv: {} GET / {} SET samples",
            gets.len(),
            sets.len()
        ));
    }
    let mut fp = Fnv::default();
    for o in &outcomes {
        fp.u64(o.rank());
    }
    for v in stats_to_vec(&svc.stats()) {
        fp.u64(v);
    }
    let payload = payload.get();
    out.fingerprint.u64(fp.0);
    out.attempted = total;
    out.failed = wrong;
    out.payload_bytes = payload;
    out.layers
        .add_sim(&sim, &svc, &[svc_core], &os.pm, end.get(), payload);
    out.layers.sync_fallbacks = server.proc.lib().sync_fallbacks();
    out.layers.served = server.served.get();
    out.layers.get_p99_ns = gets.last().map_or(0, |_| pct(&gets, 0.99));
    out.layers.set_p99_ns = sets.last().map_or(0, |_| pct(&sets, 0.99));
    out.closed_loop(&outcomes, payload, end.get(), SLO);
    out.layers.regime_errors(&mut out.errors);
    out.spans = spans;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_has_exact_shares_and_sets_before_gets() {
        for seed in 0..20 {
            let reqs = plan(seed);
            assert_eq!(reqs.len(), REQUESTS);
            let sets: Vec<&Req> = reqs.iter().filter(|r| r.op == Op::Set).collect();
            assert_eq!(sets.len(), REQUESTS / 2);
            for &(len, share) in &SIZES[1..] {
                let n = sets.iter().filter(|r| r.len == len).count();
                assert_eq!(n, (share * sets.len() as f64) as usize);
            }
            let mut set = [false; KEYS];
            for r in &reqs {
                assert!(r.op == Op::Set || set[r.key], "GET before SET");
                set[r.key] |= r.op == Op::Set;
            }
        }
    }
}
