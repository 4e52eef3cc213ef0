//! Reference task-driven core: the round-robin server as a spawned driver
//! task, built only from the simulator's public `spawn`, `sleep` and
//! [`Notify`].
//!
//! The same server as [`copier_sim::Core`], whose steps are kernel
//! actions instead (DESIGN.md §19): the oracle the driverless core is
//! tested against (`tests/core_differential.rs`) and the baseline of
//! `fig_hostperf`'s simulator-speed row. Production code never uses it.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use copier_sim::{Nanos, Notify, SimHandle, DEFAULT_QUANTUM};

struct Req {
    remaining: Cell<u64>,
    done: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

/// One reference core: a processor-sharing resource served round-robin
/// by its own driver task.
pub struct RefCore {
    h: SimHandle,
    queue: RefCell<VecDeque<Rc<Req>>>,
    work: Notify,
    quantum: Cell<Nanos>,
    busy: Cell<u64>,
}

impl RefCore {
    /// Total virtual time this core has spent executing.
    pub fn busy_time(&self) -> Nanos {
        Nanos(self.busy.get())
    }

    /// Overrides the round-robin quantum.
    pub fn set_quantum(&self, q: Nanos) {
        self.quantum.set(q);
    }

    /// Consumes `dur` of this core's time, waiting in line if contended.
    pub async fn advance(self: &Rc<Self>, dur: Nanos) {
        if dur == Nanos::ZERO {
            return;
        }
        let req = Rc::new(Req {
            remaining: Cell::new(dur.as_nanos()),
            done: Cell::new(false),
            waker: RefCell::new(None),
        });
        self.queue.borrow_mut().push_back(Rc::clone(&req));
        self.work.notify_one();
        ReqDone { req }.await;
    }

    /// The driver loop: serves queued demands round-robin.
    async fn drive(self: Rc<Self>) {
        loop {
            let next = self.queue.borrow_mut().pop_front();
            let Some(req) = next else {
                self.work.notified().await;
                continue;
            };
            let remaining = req.remaining.get();
            let slice = remaining.min(self.quantum.get().as_nanos().max(1));
            self.h.sleep(Nanos(slice)).await;
            self.busy.set(self.busy.get() + slice);
            let left = remaining - slice;
            req.remaining.set(left);
            if left == 0 {
                req.done.set(true);
                if let Some(w) = req.waker.borrow_mut().take() {
                    w.wake();
                }
            } else {
                self.queue.borrow_mut().push_back(req);
            }
        }
    }
}

struct ReqDone {
    req: Rc<Req>,
}

impl Future for ReqDone {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.req.done.get() {
            Poll::Ready(())
        } else {
            *self.req.waker.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// A machine of reference cores, each with its driver task spawned at
/// construction.
pub fn ref_machine(h: &SimHandle, n: usize) -> Vec<Rc<RefCore>> {
    (0..n)
        .map(|id| {
            let core = Rc::new(RefCore {
                h: h.clone(),
                queue: RefCell::new(VecDeque::new()),
                work: Notify::new(),
                quantum: Cell::new(DEFAULT_QUANTUM),
                busy: Cell::new(0),
            });
            h.spawn(&format!("core-{id}"), Rc::clone(&core).drive());
            core
        })
        .collect()
}
