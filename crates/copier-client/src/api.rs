//! libCopier: the high- and low-level client API (Table 2, §5.1).
//!
//! `amemcpy`/`csync` keep the familiar memcpy shape: submit asynchronously,
//! synchronize immediately before use. The handle maintains per-process
//! default queues, a descriptor pool, and the tracking table that lets
//! `csync(addr, len)` find the descriptor covering an address.
//!
//! Kernel services submit through [`KernelSection`], which plants the
//! cross-queue barrier tasks of §4.2.1 around each trap.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier_core::{
    Client, Copier, CopyFault, CopyTask, Handler, QueueEntry, SegDescriptor, SyncTask,
};
use copier_hw::{CostModel, CpuCopyKind};
use copier_mem::{AddressSpace, MemError, VirtAddr};
use copier_sim::{Core, Nanos};

use crate::pool::DescriptorPool;

/// Result of a csync: `Err` if the copy faulted or was aborted.
pub type CsyncResult = Result<(), CopyFault>;

/// Why a submission could not be placed. Every submission path ends in
/// success, a bounded-backoff retry, or one of these — never an unbounded
/// spin and never a silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Nonblocking submission found no credit or ring slot available
    /// right now; retry after completions return credits.
    WouldBlock,
    /// The submission could not be placed even after bounded backoff —
    /// the service is overloaded (credit pool and ring stayed exhausted).
    Overloaded,
}

/// Result of an async-copy submission.
pub type SubmitResult = Result<Rc<SegDescriptor>, SubmitError>;

/// Submission retry budget: attempts before a path reports `Overloaded`.
/// Generous — virtual milliseconds of bounded backoff — so transient
/// bursts ride through, while true overload still surfaces as an error.
const MAX_SUBMIT_ATTEMPTS: u32 = 32;

struct Tracked {
    space_id: u32,
    start: u64,
    len: usize,
    descr: Rc<SegDescriptor>,
}

/// Options for the low-level `_amemcpy` (§5.1, Table 2).
#[derive(Default)]
pub struct AmemcpyOpts {
    /// Queue-set index (the `fd`); 0 = the per-process default queues.
    pub fd: usize,
    /// Post-copy handler.
    pub func: Option<Handler>,
    /// Customized descriptor (reuse for recycled I/O buffers); `None`
    /// draws from the pool.
    pub descr: Option<Rc<SegDescriptor>>,
    /// Mark the task lazy (§4.4).
    pub lazy: bool,
    /// Segment granularity; 0 = the service default.
    pub seg: usize,
    /// Source address space override (`None` = the process space).
    pub src_space: Option<Rc<AddressSpace>>,
    /// Destination address space override.
    pub dst_space: Option<Rc<AddressSpace>>,
    /// Skip the tracking table (caller keeps the descriptor and uses
    /// `_csync` with it directly).
    pub untracked: bool,
    /// Force full end-to-end verification for this task (§integrity):
    /// the dispatcher digests the whole source extent at dispatch and
    /// re-digests the destination at completion, regardless of the
    /// service-wide `VerifyPolicy`. Set by `amemcpy_verified`.
    pub verified: bool,
}

/// A per-process libCopier instance.
pub struct CopierHandle {
    /// The service incarnation this handle currently talks to; swapped
    /// by [`CopierHandle::reattach`] after a crash–restart.
    svc: RefCell<Rc<Copier>>,
    /// The registered client (queues and scheduler state).
    pub client: Rc<Client>,
    cost: Rc<CostModel>,
    /// The process's user address space.
    pub uspace: Rc<AddressSpace>,
    pool: DescriptorPool,
    tracked: RefCell<Vec<Tracked>>,
    /// Client-side spin step while waiting in csync.
    pub spin_step: Nanos,
    /// §4.6 synchronous copies performed because the service was down.
    sync_fallbacks: Cell<u64>,
    /// Tasks submitted with per-task full verification
    /// (`amemcpy_verified`).
    verified_submitted: Cell<u64>,
    /// `Corrupted` faults this client observed through csync — copies
    /// whose destination failed end-to-end verification past repair.
    corrupted_seen: Cell<u64>,
}

impl CopierHandle {
    /// Registers a process with the service (`copier_create_mapped_queue`).
    pub fn new(svc: &Rc<Copier>, uspace: Rc<AddressSpace>) -> Rc<Self> {
        let client = svc.register_client(Rc::clone(&uspace));
        Rc::new(CopierHandle {
            svc: RefCell::new(Rc::clone(svc)),
            client,
            cost: Rc::clone(svc.cost_model()),
            uspace,
            pool: DescriptorPool::new(),
            tracked: RefCell::new(Vec::new()),
            spin_step: Nanos(200),
            sync_fallbacks: Cell::new(0),
            verified_submitted: Cell::new(0),
            corrupted_seen: Cell::new(0),
        })
    }

    /// The service this handle currently talks to.
    pub fn service(&self) -> Rc<Copier> {
        self.svc()
    }

    /// The control-plane shard serving this client (DESIGN.md §17):
    /// always 0 on a one-shard service. Purely observational — the
    /// library never routes by shard; the service stamps ownership at
    /// registration/adoption from the address-space hash.
    pub fn shard(&self) -> usize {
        self.client.shard.get()
    }

    /// Current service incarnation (never hold the borrow across an
    /// await: every use clones the `Rc` out immediately).
    fn svc(&self) -> Rc<Copier> {
        Rc::clone(&self.svc.borrow())
    }

    /// Submission doorbell: marks this client active on its shard so the
    /// O(active) control plane (DESIGN.md §18) sees the freshly queued
    /// work, then wakes the service. Used on every path that lands an
    /// entry in a ring; paths that failed to land anything keep the
    /// plain `awaken`.
    fn doorbell(&self) {
        self.svc().doorbell(&self.client);
    }

    /// Synchronous fallback copies performed while the service was down.
    pub fn sync_fallbacks(&self) -> u64 {
        self.sync_fallbacks.get()
    }

    /// Per-client integrity counters:
    /// `(verified_submitted, corrupted_seen)`.
    pub fn integrity_stats(&self) -> (u64, u64) {
        (self.verified_submitted.get(), self.corrupted_seen.get())
    }

    /// Re-attaches this handle to a restarted service incarnation
    /// (DESIGN.md §15 client side). The client's rings, window, credits
    /// and descriptors all live in client-owned memory and survived the
    /// crash; `adopt_client` reconciles them against the new
    /// incarnation's replayed journal and hands back the tasks whose
    /// admission never became durable. Those are resubmitted here —
    /// they still hold their original submission credits, so they go
    /// straight back into the rings without re-taking one. Returns the
    /// number of tasks resubmitted.
    pub async fn reattach(self: &Rc<Self>, core: &Rc<Core>, new_svc: &Rc<Copier>) -> usize {
        let dropped = new_svc.adopt_client(&self.client);
        *self.svc.borrow_mut() = Rc::clone(new_svc);
        let mut n = 0usize;
        for (set_idx, task) in dropped {
            // The drop rolled the task back to "submitted, not yet
            // admitted". Admissions journal before any of their bytes
            // move, so the descriptor carries no real progress; reset
            // re-arms recycled descriptors whose bits predate this
            // submission.
            task.descr.reset();
            let set = self.client.set(set_idx as usize);
            let mut entry = QueueEntry::Copy(task);
            let mut attempt = 0u32;
            loop {
                match set.uq.copy.push(entry) {
                    Ok(()) => {
                        n += 1;
                        break;
                    }
                    Err(rejected) => {
                        entry = rejected.0;
                        if attempt >= MAX_SUBMIT_ATTEMPTS {
                            // The ring stayed full across the whole
                            // budget: surface a typed overload and
                            // return the credit the original
                            // submission still holds.
                            let QueueEntry::Copy(t) = entry else {
                                unreachable!("resubmission entries are copies")
                            };
                            t.descr.poison(CopyFault::Overloaded);
                            self.client.grant_credit();
                            break;
                        }
                        self.backoff(core, attempt).await;
                        attempt += 1;
                    }
                }
            }
        }
        new_svc.doorbell(&self.client);
        n
    }

    /// Creates an extra per-thread queue set (`copier_create_queue`);
    /// returns its fd.
    pub fn create_queue(&self, cap: usize) -> usize {
        self.client.create_queue_set(cap)
    }

    /// One bounded-backoff step: wake the service, then spin (early
    /// attempts, cache-warm) or sleep with exponentially growing slices
    /// (later attempts) so a blocked submitter never monopolizes its core.
    async fn backoff(&self, core: &Rc<Core>, attempt: u32) {
        let svc = self.svc();
        svc.awaken();
        if attempt < 4 {
            core.advance(self.spin_step).await;
        } else {
            let exp = (attempt - 4).min(10);
            let ns = (self.spin_step.as_nanos() << exp).min(200_000);
            svc.sim_handle().sleep(Nanos(ns)).await;
        }
    }

    /// Acquires a submission credit with bounded backoff. `Err` means the
    /// pool stayed empty across the whole retry budget — the client is at
    /// its in-flight quota and the caller must surface `Overloaded`.
    async fn acquire_credit(&self, core: &Rc<Core>) -> Result<(), SubmitError> {
        let mut attempt = 0u32;
        while !self.client.take_credit() {
            if self.client.dead.get() {
                // A dead client's credits never refill; the caller's
                // dead-check right after handles it.
                return Ok(());
            }
            if attempt >= MAX_SUBMIT_ATTEMPTS {
                return Err(SubmitError::Overloaded);
            }
            self.backoff(core, attempt).await;
            attempt += 1;
        }
        Ok(())
    }

    /// High-level async memcpy on the default queues (Table 2).
    pub async fn amemcpy(
        self: &Rc<Self>,
        core: &Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
    ) -> SubmitResult {
        self._amemcpy(core, dst, src, len, AmemcpyOpts::default())
            .await
    }

    /// Verified async memcpy (§integrity): like [`CopierHandle::amemcpy`]
    /// but the service digests the whole source extent at dispatch and
    /// re-checks the destination at completion, regardless of the
    /// service-wide `VerifyPolicy`. Silent corruption on the copy path is
    /// either repaired before the descriptor completes or surfaced as
    /// [`CopyFault::Corrupted`] through csync.
    pub async fn amemcpy_verified(
        self: &Rc<Self>,
        core: &Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
    ) -> SubmitResult {
        self._amemcpy(
            core,
            dst,
            src,
            len,
            AmemcpyOpts {
                verified: true,
                ..AmemcpyOpts::default()
            },
        )
        .await
    }

    /// Registers a long-lived buffer pair with the service's background
    /// scrubber: `primary` is guarded against silent bit-rot, `replica`
    /// must hold the same bytes and is the heal source. Both live in this
    /// process's address space.
    pub fn register_scrub(&self, primary: VirtAddr, replica: VirtAddr, len: usize, chunk: usize) {
        self.svc()
            .register_scrub_region(&self.client, &self.uspace, primary, replica, len, chunk);
    }

    /// Nonblocking async memcpy: submits only if a credit and a ring slot
    /// are available right now, otherwise fails with `WouldBlock` without
    /// burning any wait time.
    pub async fn try_amemcpy(
        self: &Rc<Self>,
        core: &Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
        opts: AmemcpyOpts,
    ) -> SubmitResult {
        if !self.client.take_credit() {
            return Err(SubmitError::WouldBlock);
        }
        let (descr, task) = self.build_task(dst, src, len, &opts);
        core.advance(self.cost.task_submit).await;
        if self.client.dead.get() {
            descr.poison(CopyFault::Aborted);
            self.maybe_track(&opts, &task, &descr);
            return Ok(descr);
        }
        let track_id = task.dst_space.id();
        let set = self.client.set(opts.fd);
        if set.uq.copy.push(QueueEntry::Copy(task)).is_err() {
            self.client.grant_credit();
            self.svc().awaken();
            return Err(SubmitError::WouldBlock);
        }
        if !opts.untracked {
            self.track(track_id, dst, len, Rc::clone(&descr));
        }
        self.doorbell();
        Ok(descr)
    }

    /// Low-level async memcpy with full options (Table 2). Blocks at most
    /// a bounded backoff budget: past it the submission fails with a typed
    /// [`SubmitError::Overloaded`] instead of spinning forever.
    pub async fn _amemcpy(
        self: &Rc<Self>,
        core: &Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
        opts: AmemcpyOpts,
    ) -> SubmitResult {
        // §4.6 availability fallback: between a service crash and the
        // supervisor's restart there is nobody to drain the rings.
        // Copy synchronously on the caller's core instead of queueing
        // into a dead incarnation — the call still returns a completed
        // (or faulted) descriptor, just without the async overlap.
        if self.svc().has_crashed() {
            return self.sync_fallback(core, dst, src, len, opts).await;
        }
        self.acquire_credit(core).await.inspect_err(|_| {
            if let Some(d) = &opts.descr {
                d.reset();
                d.poison(CopyFault::Overloaded);
            }
        })?;
        let (descr, task) = self.build_task(dst, src, len, &opts);
        let track_id = task.dst_space.id();
        core.advance(self.cost.task_submit).await;
        // A reaped (dead) client no longer has a service draining its
        // rings: fail fast instead of queueing into the void (a real
        // process would be gone; this path covers exit races in tests).
        if self.client.dead.get() {
            descr.poison(CopyFault::Aborted);
            if !opts.untracked {
                self.track(track_id, dst, len, Rc::clone(&descr));
            }
            return Ok(descr);
        }
        // Ring full → bounded exponential backoff, waking the service
        // each step; exhaustion surfaces as a typed error, with the
        // consumed credit returned (nothing reached the service).
        let set = self.client.set(opts.fd);
        let mut entry = QueueEntry::Copy(task);
        let mut attempt = 0u32;
        loop {
            match set.uq.copy.push(entry) {
                Ok(()) => break,
                Err(rejected) => {
                    entry = rejected.0;
                    if self.client.dead.get() {
                        descr.poison(CopyFault::Aborted);
                        if !opts.untracked {
                            self.track(track_id, dst, len, Rc::clone(&descr));
                        }
                        return Ok(descr);
                    }
                    if attempt >= MAX_SUBMIT_ATTEMPTS {
                        self.client.grant_credit();
                        descr.poison(CopyFault::Overloaded);
                        return Err(SubmitError::Overloaded);
                    }
                    self.backoff(core, attempt).await;
                    attempt += 1;
                }
            }
        }
        if !opts.untracked {
            self.track(track_id, dst, len, Rc::clone(&descr));
        }
        self.doorbell();
        Ok(descr)
    }

    /// The crash-window synchronous path (§4.6): performs the copy
    /// inline, marks every segment, and settles the completion side
    /// effects (handler, no credit was ever taken) under the same
    /// exactly-once claim the service uses — so a duplicate settle after
    /// recovery is impossible by construction.
    async fn sync_fallback(
        self: &Rc<Self>,
        core: &Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
        opts: AmemcpyOpts,
    ) -> SubmitResult {
        let (descr, task) = self.build_task(dst, src, len, &opts);
        let r = crate::syncops::sync_copy(
            core,
            &self.cost,
            CpuCopyKind::Avx2,
            &task.dst_space,
            dst,
            &task.src_space,
            src,
            len,
        )
        .await;
        match r {
            Ok(_) => {
                for i in 0..descr.num_segments() {
                    descr.mark(i);
                }
                if descr.claim_delivery() {
                    if let Some(Handler::UFunc(f)) = &task.func {
                        f();
                    }
                }
            }
            Err(MemError::OutOfMemory) => descr.poison(CopyFault::OutOfMemory),
            Err(_) => descr.poison(CopyFault::Segv),
        }
        self.sync_fallbacks.set(self.sync_fallbacks.get() + 1);
        self.maybe_track(&opts, &task, &descr);
        Ok(descr)
    }

    /// Builds the descriptor and task for a submission (shared by the
    /// blocking and nonblocking paths).
    fn build_task(
        &self,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
        opts: &AmemcpyOpts,
    ) -> (Rc<SegDescriptor>, CopyTask) {
        // `len == 0` is legal, like `memcpy(d, s, 0)`: the descriptor is
        // born all-ready and the service completes the task at the drain
        // boundary without touching memory.
        let seg = if opts.seg == 0 {
            self.svc().config().segment
        } else {
            opts.seg
        };
        let descr = match &opts.descr {
            Some(d) => {
                assert!(d.len() == len && d.segment_size() == seg);
                d.reset();
                Rc::clone(d)
            }
            None => self.pool.take(len, seg),
        };
        let dst_space = opts
            .dst_space
            .clone()
            .unwrap_or_else(|| Rc::clone(&self.uspace));
        let src_space = opts
            .src_space
            .clone()
            .unwrap_or_else(|| Rc::clone(&self.uspace));
        if opts.verified {
            self.verified_submitted
                .set(self.verified_submitted.get() + 1);
        }
        let task = CopyTask {
            dst_space,
            dst,
            src_space,
            src,
            len,
            seg,
            descr: Rc::clone(&descr),
            func: opts.func.clone(),
            lazy: opts.lazy,
            verify: opts.verified,
        };
        (descr, task)
    }

    /// Tracks a task that terminated client-side (dead-client poison)
    /// so csync still finds its tombstone.
    fn maybe_track(&self, opts: &AmemcpyOpts, task: &CopyTask, descr: &Rc<SegDescriptor>) {
        if !opts.untracked {
            self.track(task.dst_space.id(), task.dst, task.len, Rc::clone(descr));
        }
    }

    /// Async memmove: overlapping ranges are split so no task's source is
    /// overwritten before it is read (§4.1 footnote 3). On `Overloaded`
    /// the already-submitted chunks stay in flight (their descriptors are
    /// in the tracking table; `csync` over the range finds them).
    pub async fn amemmove(
        self: &Rc<Self>,
        core: &Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
    ) -> Result<Vec<Rc<SegDescriptor>>, SubmitError> {
        let (d, s) = (dst.0, src.0);
        let overlap = d < s + len as u64 && s < d + len as u64 && d != s;
        if !overlap {
            return Ok(vec![self.amemcpy(core, dst, src, len).await?]);
        }
        let shift = d.abs_diff(s) as usize;
        // Heavy self-overlap degenerates to many chunks; bounce through a
        // synchronous copy below 1/16 shift (documented fallback).
        if shift < len / 16 {
            crate::syncops::sync_memmove(core, &self.cost, &self.uspace, dst, src, len)
                .await
                .expect("sync memmove fallback");
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        if d > s {
            // Forward overlap: submit tail chunks first.
            let mut end = len;
            while end > 0 {
                let start = end.saturating_sub(shift);
                out.push(
                    self.amemcpy(core, dst.add(start), src.add(start), end - start)
                        .await?,
                );
                end = start;
            }
        } else {
            let mut start = 0;
            while start < len {
                let take = shift.min(len - start);
                out.push(
                    self.amemcpy(core, dst.add(start), src.add(start), take)
                        .await?,
                );
                start += take;
            }
        }
        Ok(out)
    }

    /// Registers an externally created copy (e.g. a kernel `recv()` task)
    /// so `csync` can find it by destination address.
    pub fn track(&self, space_id: u32, start: VirtAddr, len: usize, descr: Rc<SegDescriptor>) {
        let mut t = self.tracked.borrow_mut();
        if t.len() > 128 {
            t.retain(|x| !(x.descr.all_ready() || x.descr.fault().is_some()));
            self.pool.recycle();
        }
        t.push(Tracked {
            space_id,
            start: start.0,
            len,
            descr,
        });
    }

    /// High-level csync (Table 2): block until `[addr, addr+len)` of prior
    /// async copies is ready for use.
    pub async fn csync(
        self: &Rc<Self>,
        core: &Rc<Core>,
        addr: VirtAddr,
        len: usize,
    ) -> CsyncResult {
        self.csync_in(core, self.uspace.id(), addr, len, 0).await
    }

    /// csync against an explicit address space and queue set.
    pub async fn csync_in(
        self: &Rc<Self>,
        core: &Rc<Core>,
        space_id: u32,
        addr: VirtAddr,
        len: usize,
        fd: usize,
    ) -> CsyncResult {
        core.advance(self.cost.csync_hit).await;
        let lo = addr.0;
        let hi = addr.0 + len as u64;
        // Collect overlapping tracked copies (newest last; all must hold).
        let waits: Vec<(Rc<SegDescriptor>, usize, usize)> = self
            .tracked
            .borrow()
            .iter()
            .filter(|t| t.space_id == space_id && t.start < hi && lo < t.start + t.len as u64)
            .map(|t| {
                let s = lo.max(t.start) - t.start;
                let e = hi.min(t.start + t.len as u64) - t.start;
                (Rc::clone(&t.descr), s as usize, e as usize)
            })
            .collect();
        for (descr, s, e) in waits {
            match self
                .wait_descr(core, &descr, s, e - s, space_id, addr, len, fd)
                .await
            {
                // An aborted copy was explicitly discarded by this client
                // (§4.4); a later csync over the same buffer must not
                // trip over its tombstone.
                Err(CopyFault::Aborted) => continue,
                Err(fault) => {
                    // A real fault is reported exactly once (errno
                    // semantics): consume the tombstone so later copies
                    // into the same buffer aren't shadowed by it.
                    self.tracked
                        .borrow_mut()
                        .retain(|t| !Rc::ptr_eq(&t.descr, &descr));
                    return Err(fault);
                }
                Ok(()) => {}
            }
        }
        Ok(())
    }

    /// `_csync` (Table 2): wait on a caller-managed descriptor directly,
    /// skipping the tracking-table lookup.
    #[allow(clippy::too_many_arguments)]
    pub async fn _csync(
        self: &Rc<Self>,
        core: &Rc<Core>,
        descr: &Rc<SegDescriptor>,
        off: usize,
        len: usize,
        space_id: u32,
        addr: VirtAddr,
        fd: usize,
    ) -> CsyncResult {
        core.advance(self.cost.csync_hit).await;
        self.wait_descr(core, descr, off, len, space_id, addr, len, fd)
            .await
    }

    #[allow(clippy::too_many_arguments)]
    async fn wait_descr(
        self: &Rc<Self>,
        core: &Rc<Core>,
        descr: &Rc<SegDescriptor>,
        off: usize,
        len: usize,
        space_id: u32,
        addr: VirtAddr,
        sync_len: usize,
        fd: usize,
    ) -> CsyncResult {
        if let Some(f) = descr.fault() {
            if f == CopyFault::Corrupted {
                self.corrupted_seen.set(self.corrupted_seen.get() + 1);
            }
            return Err(f);
        }
        if descr.range_ready(off, len) {
            return Ok(());
        }
        // Submit a Sync Task to promote the segments (§4.1), then poll the
        // descriptor — the client-side blocking cost is real spin time.
        core.advance(self.cost.task_submit).await;
        let set = self.client.set(fd);
        // A full sync ring after bounded retries is benign to give up on:
        // promotion is an optimization, and the polling loop below still
        // completes once the copy lands in FIFO order.
        let mut entry = SyncTask {
            space_id,
            addr,
            len: sync_len,
            abort: false,
            target: None,
        };
        for attempt in 0..4u32 {
            match set.uq.sync.push(entry) {
                Ok(()) => break,
                Err(rejected) => {
                    entry = rejected.0;
                    if attempt == 3 {
                        break;
                    }
                    self.backoff(core, attempt).await;
                }
            }
        }
        self.doorbell();
        // Spin briefly (the paper's polling wait), then yield the core in
        // slices — on a saturated machine a blocked csync must not starve
        // co-scheduled work (sched_yield behavior).
        let h = self.svc().sim_handle().clone();
        let spin_deadline = h.now() + Nanos::from_micros(2);
        loop {
            if let Some(f) = descr.fault() {
                if f == CopyFault::Corrupted {
                    self.corrupted_seen.set(self.corrupted_seen.get() + 1);
                }
                return Err(f);
            }
            if descr.range_ready(off, len) {
                return Ok(());
            }
            // A reaped client will never be served again; unblock the
            // waiter instead of spinning forever.
            if self.client.dead.get() {
                return Err(CopyFault::Aborted);
            }
            if h.now() < spin_deadline {
                core.advance(self.spin_step).await;
            } else {
                h.sleep(Nanos(500)).await;
            }
        }
    }

    /// `csync_all` (Table 2): waits for every tracked async copy, then
    /// runs pending user handlers.
    pub async fn csync_all(self: &Rc<Self>, core: &Rc<Core>) -> CsyncResult {
        let snapshot: Vec<(u32, u64, usize, Rc<SegDescriptor>)> = self
            .tracked
            .borrow()
            .iter()
            .map(|t| (t.space_id, t.start, t.len, Rc::clone(&t.descr)))
            .collect();
        let mut result = Ok(());
        for (sp, start, len, d) in snapshot {
            if let Err(e) = self
                .wait_descr(core, &d, 0, len, sp, VirtAddr(start), len, 0)
                .await
            {
                // Aborted tasks are an expected way to retire tracked
                // copies; real faults are surfaced.
                if e != CopyFault::Aborted {
                    result = Err(e);
                }
            }
        }
        self.post_handlers(core).await;
        self.prune();
        result
    }

    /// Pushes a Sync Task with bounded retries; `false` means the sync
    /// ring stayed full for the whole budget and the request was not
    /// placed (typed outcome — the caller decides whether to retry).
    async fn push_sync(&self, core: &Rc<Core>, fd: usize, st: SyncTask) -> bool {
        let set = self.client.set(fd);
        let mut entry = st;
        let mut attempt = 0u32;
        loop {
            match set.uq.sync.push(entry) {
                Ok(()) => {
                    self.doorbell();
                    return true;
                }
                Err(rejected) => {
                    entry = rejected.0;
                    if attempt >= 8 {
                        return false;
                    }
                    self.backoff(core, attempt).await;
                    attempt += 1;
                }
            }
        }
    }

    /// Submits an `abort` Sync Task (§4.4) discarding a queued copy.
    /// Returns whether the request was placed; a `false` under overload
    /// is benign — the copy simply completes normally.
    pub async fn abort(self: &Rc<Self>, core: &Rc<Core>, addr: VirtAddr, len: usize) -> bool {
        self.abort_in(core, addr, len, 0).await
    }

    /// `abort` against an explicit queue set.
    pub async fn abort_in(
        self: &Rc<Self>,
        core: &Rc<Core>,
        addr: VirtAddr,
        len: usize,
        fd: usize,
    ) -> bool {
        core.advance(self.cost.task_submit).await;
        self.push_sync(
            core,
            fd,
            SyncTask {
                space_id: self.uspace.id(),
                addr,
                len,
                abort: true,
                target: None,
            },
        )
        .await
    }

    /// `abort` a specific task by its descriptor — immune to buffer reuse
    /// races (the preferred form for recycled I/O buffers).
    pub async fn abort_task(
        self: &Rc<Self>,
        core: &Rc<Core>,
        descr: &Rc<SegDescriptor>,
        fd: usize,
    ) -> bool {
        core.advance(self.cost.task_submit).await;
        self.push_sync(
            core,
            fd,
            SyncTask {
                space_id: 0,
                addr: VirtAddr(0),
                len: 0,
                abort: true,
                target: Some(Rc::clone(descr)),
            },
        )
        .await
    }

    /// Runs completed UFUNC handlers (Fig. 4 `post_handlers`). Handlers
    /// that overflowed the bounded ring are drained first so delivery
    /// order is preserved (overflow entries are always older).
    pub async fn post_handlers(self: &Rc<Self>, core: &Rc<Core>) -> usize {
        let mut n = 0;
        let sets: Vec<_> = self.client.sets.borrow().iter().cloned().collect();
        for set in sets {
            loop {
                let h = set.handler_overflow.borrow_mut().pop_front();
                let Some(h) = h else { break };
                if let Handler::UFunc(f) = h {
                    core.advance(Nanos(60)).await;
                    f();
                    n += 1;
                }
            }
            while let Some(h) = set.uq.handler.pop() {
                if let Handler::UFunc(f) = h {
                    core.advance(Nanos(60)).await;
                    f();
                    n += 1;
                }
            }
        }
        n
    }

    /// Drops completed entries from the tracking table and recycles their
    /// descriptors into the pool.
    pub fn prune(&self) {
        self.tracked
            .borrow_mut()
            .retain(|t| !(t.descr.all_ready() || t.descr.fault().is_some()));
        self.pool.recycle();
    }

    /// Opens a kernel submission section for a simulated trap (§4.2.1):
    /// plants a barrier recording the u-queue position now, and another at
    /// [`KernelSection::close`] (the return-to-user barrier). If the
    /// k-ring is full right now, the barrier placement is deferred into
    /// the section's first `submit`, which can backoff — it must precede
    /// any of the section's copies, never be dropped.
    pub fn kernel_section(self: &Rc<Self>, fd: usize) -> KernelSection {
        let set = self.client.set(fd);
        let placed = set
            .kq
            .copy
            .push(QueueEntry::Barrier {
                peer_pos: set.uq.copy.pushed(),
            })
            .is_ok();
        if placed {
            // The barrier sits in the k-ring until drained: ring the
            // doorbell so the shard's active set holds the client even if
            // no copy follows inside the section.
            self.doorbell();
        }
        KernelSection {
            lib: Rc::clone(self),
            fd,
            open_pending: Cell::new(!placed),
            closed: Cell::new(false),
        }
    }

    /// Plants a k-queue barrier with bounded backoff.
    async fn push_barrier(&self, core: &Rc<Core>, fd: usize) -> Result<(), SubmitError> {
        let set = self.client.set(fd);
        for attempt in 0..MAX_SUBMIT_ATTEMPTS {
            // Recompute the peer position each attempt: it may have moved
            // while we were backing off.
            let placed = set
                .kq
                .copy
                .push(QueueEntry::Barrier {
                    peer_pos: set.uq.copy.pushed(),
                })
                .is_ok();
            if placed {
                self.doorbell();
                return Ok(());
            }
            self.backoff(core, attempt).await;
        }
        Err(SubmitError::Overloaded)
    }

    /// Binds a descriptor registry to a shared-memory region (Table 2's
    /// `shm_descr_bind`). Producers `attach` per-message descriptors;
    /// consumers `csync_shm` by offset.
    pub fn shm_descr_bind(&self, base: VirtAddr, len: usize) -> Rc<ShmBinding> {
        Rc::new(ShmBinding {
            base,
            len,
            descrs: RefCell::new(std::collections::BTreeMap::new()),
        })
    }

    /// Descriptor-pool statistics `(allocs, reuses)`.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.pool.stats()
    }
}

/// A descriptor binding for a shared-memory region (`shm_descr_bind`,
/// Table 2): producers attach the descriptor of each message they copy
/// into the region; consumers `csync` by offset without any table lookup.
/// Android-Binder-style IPC is the canonical user (§5.1).
pub struct ShmBinding {
    base: VirtAddr,
    len: usize,
    descrs: RefCell<std::collections::BTreeMap<u64, (usize, Rc<SegDescriptor>)>>,
}

impl ShmBinding {
    /// Registers the descriptor covering `[off, off+len)` of the region.
    pub fn attach(&self, off: usize, len: usize, descr: Rc<SegDescriptor>) {
        assert!(off + len <= self.len, "binding outside the region");
        self.descrs.borrow_mut().insert(off as u64, (len, descr));
    }

    /// The region's base address.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Waits until `[off, off+len)` of the shared region is ready.
    pub async fn csync_shm(
        &self,
        lib: &Rc<CopierHandle>,
        core: &Rc<Core>,
        off: usize,
        len: usize,
    ) -> CsyncResult {
        let targets: Vec<(Rc<SegDescriptor>, usize, usize)> = self
            .descrs
            .borrow()
            .iter()
            .filter(|(&s, (l, _))| (s as usize) < off + len && off < s as usize + l)
            .map(|(&s, (l, d))| {
                let lo = off.max(s as usize) - s as usize;
                let hi = (off + len).min(s as usize + l) - s as usize;
                (Rc::clone(d), lo, hi)
            })
            .collect();
        for (d, lo, hi) in targets {
            lib._csync(core, &d, lo, hi - lo, 0, self.base.add(off), 0)
                .await?;
        }
        Ok(())
    }
}

/// An open kernel-mode submission window (between trap and return).
pub struct KernelSection {
    lib: Rc<CopierHandle>,
    fd: usize,
    /// The opening barrier could not be placed at open (full k-ring);
    /// the first `submit` places it — with backoff — before any copy.
    open_pending: Cell<bool>,
    /// `close()` already planted the return-to-user barrier; Drop is a
    /// no-op.
    closed: Cell<bool>,
}

impl KernelSection {
    /// Submits a k-mode Copy Task. The descriptor is drawn from the
    /// client's pool and tracked so user-side `csync` finds it. Like
    /// `_amemcpy`, the submission either lands within the bounded backoff
    /// budget or fails typed `Overloaded` (descriptor poisoned) — kernel
    /// callers fall back to a synchronous copy (§4.6).
    #[allow(clippy::too_many_arguments)]
    pub async fn submit(
        &self,
        core: &Rc<Core>,
        dst_space: &Rc<AddressSpace>,
        dst: VirtAddr,
        src_space: &Rc<AddressSpace>,
        src: VirtAddr,
        len: usize,
        func: Option<Handler>,
        lazy: bool,
    ) -> SubmitResult {
        if self.open_pending.get() {
            // The trap-entry barrier must precede the section's copies;
            // without it k/u merge order is wrong, so it is a hard
            // prerequisite rather than a best-effort nicety.
            self.lib.push_barrier(core, self.fd).await?;
            self.open_pending.set(false);
        }
        self.lib.acquire_credit(core).await?;
        let seg = self.lib.svc().config().segment;
        let descr = self.lib.pool.take(len, seg);
        let task = CopyTask {
            dst_space: Rc::clone(dst_space),
            dst,
            src_space: Rc::clone(src_space),
            src,
            len,
            seg,
            descr: Rc::clone(&descr),
            func,
            lazy,
            verify: false,
        };
        core.advance(self.lib.cost.task_submit).await;
        if self.lib.client.dead.get() {
            descr.poison(CopyFault::Aborted);
            self.lib.track(dst_space.id(), dst, len, Rc::clone(&descr));
            return Ok(descr);
        }
        let set = self.lib.client.set(self.fd);
        let mut entry = QueueEntry::Copy(task);
        let mut attempt = 0u32;
        loop {
            match set.kq.copy.push(entry) {
                Ok(()) => break,
                Err(rejected) => {
                    entry = rejected.0;
                    if attempt >= MAX_SUBMIT_ATTEMPTS {
                        self.lib.client.grant_credit();
                        descr.poison(CopyFault::Overloaded);
                        return Err(SubmitError::Overloaded);
                    }
                    self.lib.backoff(core, attempt).await;
                    attempt += 1;
                }
            }
        }
        self.lib.track(dst_space.id(), dst, len, Rc::clone(&descr));
        self.lib.doorbell();
        Ok(descr)
    }

    /// Closes the section, planting the return-to-user barrier with
    /// bounded backoff — the reliable path (Drop can only make a single
    /// best-effort attempt). Returns whether the barrier was placed.
    pub async fn close(self, core: &Rc<Core>) -> bool {
        self.closed.set(true);
        if self.open_pending.get() {
            // The opening barrier was never placed and no copy was
            // submitted: an empty section needs no closing barrier.
            return true;
        }
        self.lib.push_barrier(core, self.fd).await.is_ok()
    }
}

impl Drop for KernelSection {
    fn drop(&mut self) {
        if self.closed.get() || self.open_pending.get() {
            return;
        }
        let set = self.lib.client.set(self.fd);
        // Single best-effort attempt (Drop cannot await a backoff). A
        // lost closing barrier is recoverable: the next section's opening
        // barrier re-establishes the merge key, and no pending k-copies
        // exist outside sections. Callers needing the guarantee use
        // `close()`.
        let placed = set
            .kq
            .copy
            .push(QueueEntry::Barrier {
                peer_pos: set.uq.copy.pushed(),
            })
            .is_ok();
        if placed {
            self.lib.doorbell();
        }
    }
}
