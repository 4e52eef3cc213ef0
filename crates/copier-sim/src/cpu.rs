//! Simulated multi-core machine.
//!
//! Each [`Core`] is a processor-sharing resource in virtual time: simulated
//! threads consume CPU with [`Core::advance`], and concurrent demands on the
//! same core are interleaved round-robin with a configurable quantum. A core
//! also carries a tiny cache-residency model (see [`crate::cache`]) used by
//! the §6.3.5 micro-architectural experiment, and per-core busy-time
//! accounting used by the energy proxy (Fig. 13-c).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};
use std::task::Waker;

use crate::cache::CacheModel;
use crate::exec::{Action, SimHandle};
use crate::time::Nanos;

/// Default round-robin quantum for contended cores.
pub const DEFAULT_QUANTUM: Nanos = Nanos::from_micros(20);

struct Req {
    remaining: Cell<u64>,
    done: Cell<bool>,
    waker: RefCell<Option<Waker>>,
    /// Runs at completion instead of a task wake-up.
    then: Option<Action>,
}

/// Where the core's round-robin server stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Nothing queued or running.
    Idle,
    /// Its start step is queued on the ready queue (first step, or woken
    /// by a request).
    Starting,
    /// A slice is running; its end is a timer action.
    Running,
}

/// One simulated CPU core.
///
/// The round-robin server is *driverless* (DESIGN.md §19): no task polls
/// on the core's behalf. Its steps are kernel actions placed exactly
/// where a driver task's polls would sit — the start step on the ready
/// queue where the woken driver would be, the slice end as the slice's
/// timer — so the schedule is the one a driver task would produce.
pub struct Core {
    id: usize,
    h: SimHandle,
    queue: RefCell<VecDeque<Rc<Req>>>,
    /// The request in its current slice, and the slice length.
    current: RefCell<Option<(Rc<Req>, u64)>>,
    phase: Cell<Phase>,
    quantum: Cell<Nanos>,
    busy: Cell<u64>,
    /// The start step and the slice end, built once.
    start: Action,
    slice_end: Action,
    /// Cache-residency model for the micro-architectural proxy experiment.
    pub cache: CacheModel,
}

impl Core {
    fn new(id: usize, h: &SimHandle) -> Rc<Self> {
        Rc::new_cyclic(|me: &Weak<Core>| {
            let (a, b) = (me.clone(), me.clone());
            Core {
                id,
                h: h.clone(),
                queue: RefCell::new(VecDeque::new()),
                current: RefCell::new(None),
                phase: Cell::new(Phase::Starting),
                quantum: Cell::new(DEFAULT_QUANTUM),
                busy: Cell::new(0),
                start: Rc::new(move || {
                    if let Some(core) = a.upgrade() {
                        core.start_next();
                    }
                }),
                slice_end: Rc::new(move || {
                    if let Some(core) = b.upgrade() {
                        core.end_slice();
                    }
                }),
                cache: CacheModel::default_enabled(false),
            }
        })
    }

    /// The core's index within its machine.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Total virtual time this core has spent executing.
    pub fn busy_time(&self) -> Nanos {
        Nanos(self.busy.get())
    }

    /// Overrides the round-robin quantum (contended advances only).
    pub fn set_quantum(&self, q: Nanos) {
        self.quantum.set(q);
    }

    /// The round-robin quantum.
    pub fn quantum(&self) -> Nanos {
        self.quantum.get()
    }

    /// Number of threads currently queued or running on this core.
    pub fn load(&self) -> usize {
        self.queue.borrow().len()
    }

    /// Whether nothing is queued or running on this core.
    pub fn is_idle(&self) -> bool {
        self.phase.get() == Phase::Idle
    }

    /// Consumes `dur` of this core's time, waiting in line if contended.
    ///
    /// This is the only way simulated computation costs time: a thread that
    /// never calls `advance` is free (it models pure waiting).
    pub async fn advance(self: &Rc<Self>, dur: Nanos) {
        if dur == Nanos::ZERO {
            return;
        }
        let req = self.enqueue(dur, None);
        ReqDone { req }.await;
    }

    /// Consumes `dur` of this core's time like [`Core::advance`] — queued,
    /// started and sliced identically — and runs `then` when it is done,
    /// instead of waking a task. A zero `dur` runs `then` at once.
    pub fn advance_then(self: &Rc<Self>, dur: Nanos, then: Action) {
        if dur == Nanos::ZERO {
            then();
            return;
        }
        self.enqueue(dur, Some(then));
    }

    /// Starts `reps` back-to-back requests of `dur` on this idle core at
    /// once, accounting the first `reps - 1` as already executed and
    /// running `then` when the last one ends, `reps × dur` from now.
    ///
    /// This is [`Core::advance_then`] with its start step taken *now*
    /// instead of at a deferred position. The caller guarantees that the
    /// two are indistinguishable — no other timer is registered between
    /// here and where the start step would have run — and, for
    /// `reps > 1`, that nothing else touches the core or reads its busy
    /// time before the last request ends.
    pub fn occupy_then(self: &Rc<Self>, dur: Nanos, reps: u64, then: Action) {
        assert!(self.is_idle(), "occupy_then on a busy core");
        assert!(dur > Nanos::ZERO && reps > 0);
        assert!(
            reps == 1 || dur <= self.quantum.get(),
            "repeated requests must fit one quantum"
        );
        self.busy.set(self.busy.get() + (reps - 1) * dur.as_nanos());
        let req = self.new_req(dur, Some(then));
        let lead = (reps - 1) * dur.as_nanos();
        self.run_slice(req, lead);
    }

    /// Consumes core time inflated by the cache model and updates residency.
    ///
    /// Used by applications to represent "copy-irrelevant" compute whose CPI
    /// suffers when large copies evict hot data (§6.3.5 of the paper).
    pub async fn advance_cached(self: &Rc<Self>, dur: Nanos) {
        let inflated = self.cache.compute_cost(dur);
        self.advance(inflated).await;
    }

    fn new_req(&self, dur: Nanos, then: Option<Action>) -> Rc<Req> {
        Rc::new(Req {
            remaining: Cell::new(dur.as_nanos()),
            done: Cell::new(false),
            waker: RefCell::new(None),
            then,
        })
    }

    fn enqueue(&self, dur: Nanos, then: Option<Action>) -> Rc<Req> {
        let req = self.new_req(dur, then);
        self.queue.borrow_mut().push_back(Rc::clone(&req));
        if self.phase.get() == Phase::Idle {
            // Where a parked driver task would be woken.
            self.phase.set(Phase::Starting);
            self.h.defer(Rc::clone(&self.start));
        }
        req
    }

    /// The server's loop head: serve the next queued request, or go idle.
    fn start_next(&self) {
        let next = self.queue.borrow_mut().pop_front();
        match next {
            Some(req) => self.run_slice(req, 0),
            None => self.phase.set(Phase::Idle),
        }
    }

    /// Runs one slice of `req`, ending `lead` + slice from now.
    fn run_slice(&self, req: Rc<Req>, lead: u64) {
        let slice = req
            .remaining
            .get()
            .min(self.quantum.get().as_nanos().max(1));
        *self.current.borrow_mut() = Some((req, slice));
        self.phase.set(Phase::Running);
        let end = Nanos(self.h.now().as_nanos() + lead + slice);
        self.h.at(end, Rc::clone(&self.slice_end));
    }

    /// A slice ended: account it, requeue or complete its request, and
    /// start the next slice. The completion (a task wake-up or an action)
    /// runs last, so an action finds the core already idle when nothing
    /// else was queued; a wake-up touches only the ready queue, so its
    /// order against the next slice's timer is immaterial.
    fn end_slice(&self) {
        let (req, slice) = self
            .current
            .borrow_mut()
            .take()
            .expect("slice end without a running request");
        self.busy.set(self.busy.get() + slice);
        let left = req.remaining.get() - slice;
        req.remaining.set(left);
        if left > 0 {
            self.queue.borrow_mut().push_back(req);
            self.start_next();
            return;
        }
        req.done.set(true);
        self.start_next();
        if let Some(w) = req.waker.borrow_mut().take() {
            w.wake();
        }
        if let Some(then) = &req.then {
            then();
        }
    }
}

struct ReqDone {
    req: Rc<Req>,
}

impl std::future::Future for ReqDone {
    type Output = ();
    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<()> {
        if self.req.done.get() {
            std::task::Poll::Ready(())
        } else {
            *self.req.waker.borrow_mut() = Some(cx.waker().clone());
            std::task::Poll::Pending
        }
    }
}

/// Energy-accounting parameters for the smartphone experiments.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    /// Watts drawn by a core while executing.
    pub active_w: f64,
    /// Watts drawn by an idle (clock-gated) core.
    pub idle_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        // Loosely a big core on a Kirin 9000S-class SoC.
        PowerModel {
            active_w: 1.8,
            idle_w: 0.05,
        }
    }
}

/// A simulated machine: a set of cores sharing one virtual clock.
pub struct Machine {
    h: SimHandle,
    cores: Vec<Rc<Core>>,
}

impl Machine {
    /// Builds a machine with `n` cores. Each core's first server step is
    /// queued now, where a driver task spawned here would first run, so
    /// requests made before that step start at that point.
    pub fn new(h: &SimHandle, n: usize) -> Rc<Self> {
        assert!(n > 0, "a machine needs at least one core");
        let mut cores = Vec::with_capacity(n);
        for id in 0..n {
            let core = Core::new(id, h);
            h.defer(Rc::clone(&core.start));
            cores.push(core);
        }
        Rc::new(Machine {
            h: h.clone(),
            cores,
        })
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Returns core `id`.
    pub fn core(&self, id: usize) -> Rc<Core> {
        Rc::clone(&self.cores[id])
    }

    /// All cores.
    pub fn cores(&self) -> &[Rc<Core>] {
        &self.cores
    }

    /// The simulation handle this machine runs on.
    pub fn handle(&self) -> SimHandle {
        self.h.clone()
    }

    /// Total busy time across all cores.
    pub fn total_busy(&self) -> Nanos {
        Nanos(self.cores.iter().map(|c| c.busy.get()).sum())
    }

    /// Energy in joules consumed up to `now`, under `pm`.
    ///
    /// Idle time is `num_cores × now − total_busy`.
    pub fn energy_joules(&self, pm: PowerModel, now: Nanos) -> f64 {
        let busy_s = self.total_busy().as_secs_f64();
        let wall_s = now.as_secs_f64() * self.cores.len() as f64;
        let idle_s = (wall_s - busy_s).max(0.0);
        busy_s * pm.active_w + idle_s * pm.idle_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Sim;
    use std::cell::Cell;

    #[test]
    fn advance_costs_exact_time_uncontended() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let core = m.core(0);
        let t = Rc::new(Cell::new(Nanos::ZERO));
        let t2 = Rc::clone(&t);
        let h2 = h.clone();
        sim.spawn("w", async move {
            core.advance(Nanos::from_micros(123)).await;
            t2.set(h2.now());
        });
        sim.run();
        assert_eq!(t.get(), Nanos::from_micros(123));
        assert_eq!(m.core(0).busy_time(), Nanos::from_micros(123));
    }

    #[test]
    fn two_threads_share_a_core() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let done = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let core = m.core(0);
            let h2 = h.clone();
            let done = Rc::clone(&done);
            sim.spawn(name, async move {
                core.advance(Nanos::from_micros(100)).await;
                done.borrow_mut().push((name, h2.now()));
            });
        }
        sim.run();
        let done = done.borrow();
        // Round-robin: both finish near 200us (within one quantum of each other),
        // not one at 100us and one at 200us.
        assert_eq!(done.len(), 2);
        let t_last = done.iter().map(|(_, t)| *t).max().unwrap();
        let t_first = done.iter().map(|(_, t)| *t).min().unwrap();
        assert_eq!(t_last, Nanos::from_micros(200));
        assert!(t_last - t_first <= DEFAULT_QUANTUM);
    }

    #[test]
    fn threads_on_distinct_cores_run_in_parallel() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 2);
        let end = Rc::new(Cell::new(Nanos::ZERO));
        for id in 0..2 {
            let core = m.core(id);
            let h2 = h.clone();
            let end2 = Rc::clone(&end);
            sim.spawn("w", async move {
                core.advance(Nanos::from_micros(50)).await;
                end2.set(end2.get().max(h2.now()));
            });
        }
        sim.run();
        // Parallel, so 50us total, not 100us.
        assert_eq!(end.get(), Nanos::from_micros(50));
        assert_eq!(m.total_busy(), Nanos::from_micros(100));
    }

    #[test]
    fn energy_accounts_busy_and_idle() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 2);
        let core = m.core(0);
        sim.spawn("w", async move {
            core.advance(Nanos::from_secs(1)).await;
        });
        let now = sim.run();
        assert_eq!(now, Nanos::from_secs(1));
        let pm = PowerModel {
            active_w: 2.0,
            idle_w: 0.5,
        };
        // 1s busy * 2W + 1s idle * 0.5W.
        let e = m.energy_joules(pm, now);
        assert!((e - 2.5).abs() < 1e-9, "e = {e}");
    }

    #[test]
    fn zero_advance_is_free() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let core = m.core(0);
        sim.spawn("w", async move {
            core.advance(Nanos::ZERO).await;
        });
        assert_eq!(sim.run(), Nanos::ZERO);
    }
}
