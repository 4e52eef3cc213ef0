//! Mini-Redis: a RESP-style key-value server over the simulated netstack.
//!
//! Reproduces the five copies the paper optimizes (§6.2.1):
//! 1. request: kernel → I/O buffer in `recv()`;
//! 2. SET: value from the I/O buffer → the value's buffer;
//! 3. GET: value from the value's buffer → the output buffer;
//! 4. reply: output buffer → kernel in `send()`;
//! 5. internal bookkeeping copies during processing.
//!
//! The I/O buffer is fixed and reused across requests — the address
//! recurrence that feeds the ATCache (§4.3) and, under zIO, the CoW
//! faults that erode its elision (§6.2.1).
//!
//! Wire format: `[op u8][klen u32][vlen u32][key][value]`; replies are
//! `[len u32][payload]`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use copier_baselines::Zio;
use copier_client::{sync_memcpy, AmemcpyOpts};
use copier_core::SegDescriptor;
use copier_mem::{MemError, Prot, VirtAddr};
use copier_os::{IoMode, NetStack, Os, Process, Socket};
use copier_sim::{Core, Nanos, SimRng};

/// Request parse cost (protocol scan, separators).
pub const PARSE_COST: Nanos = Nanos(250);
/// Hash + table op cost per SET/GET.
pub const TABLE_COST: Nanos = Nanos(300);

/// Which system the server runs on.
#[derive(Clone)]
pub enum RedisMode {
    /// Plain syscalls + synchronous userspace memcpy.
    Baseline,
    /// Copier for all five copies.
    Copier,
    /// zIO interposing on the userspace copies (syscalls stay plain).
    Zio(Rc<Zio>),
    /// Userspace Bypass for the syscalls (userspace copies stay plain).
    Ub,
    /// Linux zero-copy send for replies (everything else plain).
    ZeroCopySend,
}

impl RedisMode {
    fn recv_mode(&self) -> IoMode {
        match self {
            RedisMode::Copier => IoMode::Copier,
            RedisMode::Ub => IoMode::Ub,
            _ => IoMode::Sync,
        }
    }

    fn send_mode(&self) -> IoMode {
        match self {
            RedisMode::Copier => IoMode::Copier,
            RedisMode::Ub => IoMode::Ub,
            RedisMode::ZeroCopySend => IoMode::ZeroCopy,
            _ => IoMode::Sync,
        }
    }
}

/// SET or GET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Store a value.
    Set,
    /// Fetch a value.
    Get,
}

struct DbValue {
    va: VirtAddr,
    len: usize,
    cap: usize,
}

/// Cleanup owed from the previous request of a connection (Copier
/// mode): the guard descriptor to wait on, plus the intermediate copies
/// to abort once it lands — the paper's lazy+abort reuse pattern (§4.4,
/// §5.1 low-level APIs).
type PrevCleanup = Option<(Rc<SegDescriptor>, Vec<Rc<SegDescriptor>>)>;

/// A connection's fixed I/O buffer (requests land here) and output
/// buffer (replies are assembled here).
#[derive(Clone, Copy)]
struct ConnBufs {
    io: VirtAddr,
    out: VirtAddr,
}

/// The server state.
pub struct RedisServer {
    os: Rc<Os>,
    net: Rc<NetStack>,
    /// The server process.
    pub proc: Rc<Process>,
    mode: RedisMode,
    cap: usize,
    /// Idle buffer pairs. A `serve` call holds one for its whole run and
    /// returns it, so sequential calls reuse the same fixed buffers (the
    /// address recurrence that feeds the ATCache) while concurrent calls
    /// never share one.
    bufs: RefCell<Vec<ConnBufs>>,
    db: RefCell<HashMap<Vec<u8>, DbValue>>,
    /// Recycled value buffers by capacity (address recurrence).
    pool: RefCell<Vec<(usize, VirtAddr)>>,
    /// Requests served.
    pub served: std::cell::Cell<u64>,
}

impl RedisServer {
    /// Creates a server process with fixed I/O buffers of `cap` bytes.
    pub fn new(
        os: &Rc<Os>,
        net: &Rc<NetStack>,
        mode: RedisMode,
        cap: usize,
    ) -> Result<Rc<Self>, MemError> {
        let proc = os.spawn_process();
        let first = map_bufs(&proc, cap)?;
        Ok(Rc::new(RedisServer {
            os: Rc::clone(os),
            net: Rc::clone(net),
            proc,
            mode,
            cap,
            bufs: RefCell::new(vec![first]),
            db: RefCell::new(HashMap::new()),
            pool: RefCell::new(Vec::new()),
            served: std::cell::Cell::new(0),
        }))
    }

    fn alloc_value(&self, len: usize) -> Result<VirtAddr, MemError> {
        let mut pool = self.pool.borrow_mut();
        if let Some(i) = pool.iter().position(|&(c, _)| c >= len) {
            return Ok(pool.remove(i).1);
        }
        drop(pool);
        self.proc.space.mmap(len.max(64), Prot::RW, true)
    }

    /// Serves requests on `sock` until `limit` requests are handled.
    /// Re-entrant: every call keeps its own buffers and cleanup state, so
    /// several connections may be served concurrently.
    pub async fn serve(self: &Rc<Self>, core: &Rc<Core>, sock: Rc<Socket>, limit: u64) {
        let mode = self.mode.clone();
        let copier = matches!(mode, RedisMode::Copier);
        let popped = self.bufs.borrow_mut().pop();
        let bufs = match popped {
            Some(b) => b,
            None => {
                map_bufs(&self.proc, self.cap).expect("frames for a second connection's buffers")
            }
        };
        let mut prev: PrevCleanup = None;
        for _ in 0..limit {
            if copier {
                self.cleanup(core, prev.take()).await;
            }
            let (n, last_recv) = match self
                .net
                .recv_opts(
                    core,
                    &self.proc,
                    &sock,
                    bufs.io,
                    self.cap,
                    mode.recv_mode(),
                    copier, // recv copies are mediators: header/key synced, value absorbed
                    0,
                )
                .await
            {
                Ok(r) => r,
                Err(_) => break,
            };
            prev = self
                .handle_request(core, &sock, bufs, n, last_recv)
                .await
                .expect("request");
            self.served.set(self.served.get() + 1);
        }
        if copier {
            self.cleanup(core, prev).await;
        }
        self.bufs.borrow_mut().push(bufs);
    }

    /// Waits for the previous request's dependent copy to land, then
    /// aborts the intermediate-buffer obligations so buffer reuse does not
    /// re-materialize absorbed copies.
    async fn cleanup(self: &Rc<Self>, core: &Rc<Core>, prev: PrevCleanup) {
        let Some((guard, aborts)) = prev else {
            return;
        };
        let lib = self.proc.lib();
        while !guard.all_ready() && guard.fault().is_none() {
            core.advance(Nanos(100)).await;
        }
        for d in aborts {
            lib.abort_task(core, &d, 0).await;
        }
    }

    /// Handles one request received into `bufs.io`; `last_recv` is the
    /// recv task's descriptor (Copier mode). Returns the cleanup the
    /// request leaves for the next one.
    async fn handle_request(
        self: &Rc<Self>,
        core: &Rc<Core>,
        sock: &Rc<Socket>,
        bufs: ConnBufs,
        n: usize,
        last_recv: Option<Rc<SegDescriptor>>,
    ) -> Result<PrevCleanup, MemError> {
        let mut prev: PrevCleanup = None;
        let space = &self.proc.space;
        let copier = matches!(self.mode, RedisMode::Copier);
        let lib = copier.then(|| self.proc.lib());

        // Parse the header — with Copier, sync only the bytes used so the
        // value keeps streaming (copy-use pipeline).
        if let Some(lib) = &lib {
            lib.csync(core, bufs.io, 9).await.expect("hdr");
        }
        core.advance(PARSE_COST).await;
        let mut hdr = [0u8; 9];
        space.read_bytes(bufs.io, &mut hdr)?;
        let op = if hdr[0] == 0 { Op::Set } else { Op::Get };
        let klen = u32::from_le_bytes(hdr[1..5].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(hdr[5..9].try_into().unwrap()) as usize;
        assert_eq!(n, 9 + klen + if op == Op::Set { vlen } else { 0 });

        if let Some(lib) = &lib {
            lib.csync(core, bufs.io.add(9), klen).await.expect("key");
        }
        let mut key = vec![0u8; klen];
        space.read_bytes(bufs.io.add(9), &mut key)?;
        core.advance(TABLE_COST).await;

        match op {
            Op::Set => {
                let src = bufs.io.add(9 + klen);
                // Reclaim any previous buffer for this key.
                if let Some(old) = self.db.borrow_mut().remove(&key) {
                    self.pool.borrow_mut().push((old.cap, old.va));
                }
                // Copy 2: I/O buffer → value buffer.
                let dst = match &self.mode {
                    RedisMode::Zio(zio) => {
                        // zIO needs page congruence to elide; give it a
                        // congruent target like its allocator-aware mode.
                        let raw = self.alloc_value(vlen + src.page_off())?;
                        let dst = raw.add(src.page_off());
                        zio.memcpy(core, &self.proc, dst, src, vlen).await?;
                        dst
                    }
                    RedisMode::Copier => {
                        let dst = self.alloc_value(vlen)?;
                        // Absorbs against the pending (lazy) recv() task:
                        // the service short-circuits kernel → value buffer.
                        match lib.as_ref().unwrap().amemcpy(core, dst, src, vlen).await {
                            Ok(d) => {
                                // Once this copy lands, the recv task's value
                                // segments are pure dead weight — abort them
                                // before the I/O buffer is reused.
                                prev = Some((d, last_recv.iter().cloned().collect()));
                            }
                            Err(_) => {
                                // Overloaded: materialize the lazy recv bytes,
                                // then copy the value synchronously (§4.6).
                                lib.as_ref()
                                    .unwrap()
                                    .csync(core, src, vlen)
                                    .await
                                    .expect("value");
                                sync_memcpy(core, &self.os.cost, space, dst, src, vlen).await?;
                            }
                        }
                        dst
                    }
                    _ => {
                        let dst = self.alloc_value(vlen)?;
                        sync_memcpy(core, &self.os.cost, space, dst, src, vlen).await?;
                        dst
                    }
                };
                self.db.borrow_mut().insert(
                    key,
                    DbValue {
                        va: dst,
                        len: vlen,
                        cap: vlen,
                    },
                );
                // Reply "+OK".
                space.write_bytes(bufs.out, &2u32.to_le_bytes())?;
                space.write_bytes(bufs.out.add(4), b"OK")?;
                self.net
                    .send(core, &self.proc, sock, bufs.out, 6, self.mode.send_mode())
                    .await?;
            }
            Op::Get => {
                let (vva, vl) = {
                    let db = self.db.borrow();
                    let v = db.get(&key).expect("key exists");
                    (v.va, v.len)
                };
                space.write_bytes(bufs.out, &(vl as u32).to_le_bytes())?;
                // The value → output-buffer mediator copy (Copier mode).
                let mut out_pending: Option<Rc<SegDescriptor>> = None;
                // Copy 3: value buffer → output buffer.
                match &self.mode {
                    RedisMode::Zio(zio) => {
                        zio.memcpy(core, &self.proc, bufs.out.add(4), vva, vl)
                            .await?;
                    }
                    RedisMode::Copier => {
                        // The send()'s kernel copy will absorb this one —
                        // value buffer → kernel, skipping the output buffer
                        // entirely (lazy: the server never reads it).
                        let od = lib
                            .as_ref()
                            .unwrap()
                            ._amemcpy(
                                core,
                                bufs.out.add(4),
                                vva,
                                vl,
                                AmemcpyOpts {
                                    lazy: true,
                                    ..Default::default()
                                },
                            )
                            .await;
                        match od {
                            Ok(od) => out_pending = Some(od),
                            Err(_) => {
                                // Overloaded: no mediator to absorb; produce
                                // the reply bytes synchronously (§4.6).
                                sync_memcpy(core, &self.os.cost, space, bufs.out.add(4), vva, vl)
                                    .await?;
                            }
                        }
                    }
                    _ => {
                        sync_memcpy(core, &self.os.cost, space, bufs.out.add(4), vva, vl).await?;
                    }
                }
                // Copy 4: output buffer → kernel in send().
                let h = self
                    .net
                    .send_opts(
                        core,
                        &self.proc,
                        sock,
                        bufs.out,
                        4 + vl,
                        self.mode.send_mode(),
                        0,
                    )
                    .await?;
                if let Some(d) = h.descriptor() {
                    // After the reply is assembled in the kernel, the
                    // value → output-buffer mediator (and the recv task's
                    // remainder) can be discarded.
                    let aborts = last_recv.into_iter().chain(out_pending).collect();
                    prev = Some((d, aborts));
                }
            }
        }
        Ok(prev)
    }
}

/// Maps one connection's buffer pair.
fn map_bufs(proc: &Rc<Process>, cap: usize) -> Result<ConnBufs, MemError> {
    Ok(ConnBufs {
        io: proc.space.mmap(cap, Prot::RW, true)?,
        out: proc.space.mmap(cap, Prot::RW, true)?,
    })
}

/// One measured request from a closed-loop client.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// End-to-end request latency.
    pub latency: Nanos,
    /// SET or GET.
    pub op: Op,
}

/// Drives `requests` alternating-or-fixed ops from one client; returns
/// per-request samples. The caller spawns one task per closed-loop client.
#[allow(clippy::too_many_arguments)]
pub async fn run_client(
    os: Rc<Os>,
    net: Rc<NetStack>,
    core: Rc<Core>,
    sock: Rc<Socket>,
    op: Op,
    key_id: u32,
    value_len: usize,
    requests: u64,
    rng: Rc<SimRng>,
) -> Vec<Sample> {
    let proc = os.spawn_process();
    let cap = 9 + 16 + value_len + 64;
    let tx = proc.space.mmap(cap, Prot::RW, true).expect("tx");
    let rx = proc.space.mmap(cap, Prot::RW, true).expect("rx");
    let key = format!("key:{key_id:08}");
    let mut samples = Vec::with_capacity(requests as usize);
    // Always seed the key with one SET first.
    let mut value = vec![0u8; value_len];
    rng.fill_bytes(&mut value);
    for i in 0..requests + 1 {
        let this_op = if i == 0 { Op::Set } else { op };
        let req_len = encode_request(&proc, tx, this_op, key.as_bytes(), &value).expect("enc");
        let t0 = os.h.now();
        net.send(&core, &proc, &sock, tx, req_len, IoMode::Sync)
            .await
            .expect("send");
        let (n, _) = net
            .recv(&core, &proc, &sock, rx, cap, IoMode::Sync)
            .await
            .expect("recv");
        let lat = os.h.now() - t0;
        if this_op == Op::Get {
            // Verify the payload end to end.
            let mut got = vec![0u8; n - 4];
            proc.space.read_bytes(rx.add(4), &mut got).expect("read");
            assert_eq!(got, value, "GET returned corrupted data");
        }
        if i > 0 {
            samples.push(Sample {
                latency: lat,
                op: this_op,
            });
        }
    }
    samples
}

/// Encodes a request into `tx`; returns its length.
pub fn encode_request(
    proc: &Rc<Process>,
    tx: VirtAddr,
    op: Op,
    key: &[u8],
    value: &[u8],
) -> Result<usize, MemError> {
    let space = &proc.space;
    space.write_bytes(tx, &[if op == Op::Set { 0u8 } else { 1u8 }])?;
    space.write_bytes(tx.add(1), &(key.len() as u32).to_le_bytes())?;
    let vlen = if op == Op::Set { value.len() } else { 0 };
    space.write_bytes(tx.add(5), &(vlen as u32).to_le_bytes())?;
    space.write_bytes(tx.add(9), key)?;
    if op == Op::Set {
        space.write_bytes(tx.add(9 + key.len()), value)?;
    }
    Ok(9 + key.len() + vlen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_sim::{Machine, Sim};

    fn run(mode: RedisMode, with_copier: bool, value_len: usize, reqs: u64) -> (Nanos, u64) {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 3);
        let os = Os::boot(&h, machine, 16 * 1024);
        if with_copier {
            os.install_copier(vec![os.machine.core(2)], Default::default());
        }
        let net = NetStack::new(&os);
        let server = RedisServer::new(&os, &net, mode, 512 * 1024).unwrap();
        let (c_sock, s_sock) = net.socket_pair();
        let score = os.machine.core(1);
        let server2 = Rc::clone(&server);
        sim.spawn("server", async move {
            server2.serve(&score, s_sock, reqs * 2 + 2).await;
        });
        let ccore = os.machine.core(0);
        let os2 = Rc::clone(&os);
        let net2 = Rc::clone(&net);
        let rng = Rc::new(SimRng::new(7));
        let out = Rc::new(RefCell::new(Vec::new()));
        let out2 = Rc::clone(&out);
        sim.spawn("client", async move {
            // A SET phase then a GET phase, both verified.
            let s = run_client(
                Rc::clone(&os2),
                Rc::clone(&net2),
                Rc::clone(&ccore),
                Rc::clone(&c_sock),
                Op::Set,
                1,
                value_len,
                reqs,
                Rc::clone(&rng),
            )
            .await;
            let g = run_client(
                os2.clone(),
                net2,
                ccore,
                c_sock,
                Op::Get,
                1,
                value_len,
                reqs,
                rng,
            )
            .await;
            out2.borrow_mut().extend(s);
            out2.borrow_mut().extend(g);
            if let Some(svc) = os2.copier.borrow().as_ref() {
                svc.stop();
            }
        });
        sim.run();
        let samples = out.borrow();
        let total: u64 = samples.iter().map(|s| s.latency.as_nanos()).sum();
        (Nanos(total / samples.len() as u64), samples.len() as u64)
    }

    #[test]
    fn baseline_serves_correct_data() {
        let (avg, n) = run(RedisMode::Baseline, false, 4096, 4);
        assert_eq!(n, 8);
        assert!(avg > Nanos::ZERO);
    }

    #[test]
    fn copier_mode_correct_and_faster_for_16k() {
        let (base, _) = run(RedisMode::Baseline, false, 16 * 1024, 6);
        let (cop, _) = run(RedisMode::Copier, true, 16 * 1024, 6);
        assert!(cop < base, "copier {cop} should beat baseline {base}");
    }

    #[test]
    fn zio_mode_correct() {
        let zio = Zio::new(Rc::new(copier_hw::CostModel::default()));
        let (avg, n) = run(RedisMode::Zio(zio), false, 64 * 1024, 3);
        assert_eq!(n, 6);
        assert!(avg > Nanos::ZERO);
    }

    #[test]
    fn ub_mode_correct() {
        let (avg, _) = run(RedisMode::Ub, false, 2048, 3);
        assert!(avg > Nanos::ZERO);
    }

    #[test]
    fn zerocopy_send_mode_correct() {
        let (avg, _) = run(RedisMode::ZeroCopySend, false, 64 * 1024, 3);
        assert!(avg > Nanos::ZERO);
    }

    /// Two connections served by two concurrent `serve` tasks on one
    /// server, 2 × 220 mixed GET/SET requests over per-connection keys
    /// and 1–16 KiB values: every GET returns its key's last SET. Returns
    /// the number of GETs checked.
    fn two_connections(mode: RedisMode, with_copier: bool) -> usize {
        const CONNS: usize = 2;
        const REQS: usize = 220;
        const KEYS: usize = 4;
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, CONNS + 2);
        let os = Os::boot(&h, machine, 16 * 1024);
        if with_copier {
            os.install_copier(vec![os.machine.core(CONNS + 1)], Default::default());
        }
        let net = NetStack::new(&os);
        let server = RedisServer::new(&os, &net, mode, 64 * 1024).unwrap();
        let score = os.machine.core(CONNS);
        let gets = Rc::new(std::cell::Cell::new(0usize));
        let done = Rc::new(std::cell::Cell::new(0usize));
        for c in 0..CONNS {
            let (cs, ss) = net.socket_pair();
            let (server2, score2) = (Rc::clone(&server), Rc::clone(&score));
            sim.spawn("server-conn", async move {
                server2.serve(&score2, ss, REQS as u64).await;
            });
            let (os2, net2, gets2, done2) = (
                Rc::clone(&os),
                Rc::clone(&net),
                Rc::clone(&gets),
                Rc::clone(&done),
            );
            let core = os.machine.core(c);
            sim.spawn("client", async move {
                let proc = os2.spawn_process();
                let cap = 9 + 16 + 16 * 1024 + 64;
                let tx = proc.space.mmap(cap, Prot::RW, true).unwrap();
                let rx = proc.space.mmap(cap, Prot::RW, true).unwrap();
                let rng = SimRng::new(0x2C0 + c as u64);
                let mut model: Vec<Vec<u8>> = vec![Vec::new(); KEYS];
                for i in 0..REQS {
                    let k = i % KEYS;
                    // Every key is SET once before its first GET.
                    let op = if i < KEYS || rng.gen_bool(0.5) {
                        Op::Set
                    } else {
                        Op::Get
                    };
                    if op == Op::Set {
                        let mut v = vec![0u8; rng.range_usize(1024, 16 * 1024 + 1)];
                        rng.fill_bytes(&mut v);
                        model[k] = v;
                    }
                    let key = format!("conn{c}:key{k}");
                    let len = encode_request(&proc, tx, op, key.as_bytes(), &model[k]).unwrap();
                    net2.send(&core, &proc, &cs, tx, len, IoMode::Sync)
                        .await
                        .unwrap();
                    let (n, _) = net2
                        .recv(&core, &proc, &cs, rx, cap, IoMode::Sync)
                        .await
                        .unwrap();
                    if op == Op::Get {
                        let mut got = vec![0u8; n - 4];
                        proc.space.read_bytes(rx.add(4), &mut got).unwrap();
                        assert!(got == model[k], "conn {c} request {i}: GET {key} is stale");
                        gets2.set(gets2.get() + 1);
                    }
                }
                done2.set(done2.get() + 1);
                if done2.get() == CONNS {
                    if let Some(svc) = os2.copier.borrow().as_ref() {
                        svc.stop();
                    }
                }
            });
        }
        sim.run();
        assert_eq!(server.served.get(), (CONNS * REQS) as u64);
        gets.get()
    }

    #[test]
    fn concurrent_serve_tasks_keep_connections_apart() {
        for (mode, with_copier) in [(RedisMode::Baseline, false), (RedisMode::Copier, true)] {
            assert!(
                two_connections(mode, with_copier) > 100,
                "too few GETs checked"
            );
        }
    }
}
