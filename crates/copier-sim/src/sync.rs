//! Virtual-time synchronization primitives.
//!
//! These mirror the small subset of async primitives the rest of the stack
//! needs: a [`Notify`] cell (with stored permits, like tokio's), an unbounded
//! channel [`Chan`], and timeout-aware waiting. All of them are
//! single-host-thread types (`Rc`-based) — the simulation executor is
//! single-threaded by design.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::exec::SimHandle;
use crate::time::Nanos;

#[derive(Default)]
struct Waiter {
    fired: bool,
    cancelled: bool,
    waker: Option<Waker>,
}

struct NotifyInner {
    permits: usize,
    waiters: VecDeque<Rc<RefCell<Waiter>>>,
}

/// An async notification cell.
///
/// `notify_one` wakes one pending waiter, or stores a permit consumed by the
/// next `notified().await` — so a notification sent just before a task starts
/// waiting is not lost.
pub struct Notify {
    inner: RefCell<NotifyInner>,
}

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    /// Creates a notify cell with no stored permits.
    pub fn new() -> Self {
        Notify {
            inner: RefCell::new(NotifyInner {
                permits: 0,
                waiters: VecDeque::new(),
            }),
        }
    }

    /// Wakes one waiter, or stores a single permit if none is waiting.
    pub fn notify_one(&self) {
        let mut inner = self.inner.borrow_mut();
        while let Some(w) = inner.waiters.pop_front() {
            let mut w = w.borrow_mut();
            if w.cancelled {
                continue;
            }
            w.fired = true;
            if let Some(waker) = w.waker.take() {
                waker.wake();
            }
            return;
        }
        inner.permits += 1;
    }

    /// Wakes all current waiters (does not store permits).
    pub fn notify_all(&self) {
        let mut inner = self.inner.borrow_mut();
        while let Some(w) = inner.waiters.pop_front() {
            let mut w = w.borrow_mut();
            if w.cancelled {
                continue;
            }
            w.fired = true;
            if let Some(waker) = w.waker.take() {
                waker.wake();
            }
        }
    }

    /// Waits for a notification.
    pub fn notified(&self) -> Notified<'_> {
        Notified {
            notify: self,
            waiter: None,
        }
    }

    /// Waits for a notification with a virtual-time timeout.
    ///
    /// Resolves to `true` if notified, `false` on timeout.
    pub fn wait_timeout<'a>(&'a self, h: &SimHandle, dur: Nanos) -> WaitTimeout<'a> {
        WaitTimeout {
            notify: self,
            h: h.clone(),
            deadline: Nanos(h.now().0.saturating_add(dur.0)),
            waiter: None,
            timer_registered: false,
        }
    }

    /// Registers `waker` exactly as a first poll of `notified()` would at
    /// this point: a stored permit is consumed (the returned waiter has
    /// already fired), otherwise the waiter joins the queue in the same
    /// position a pending `Notified` would take. For code that stands in
    /// for a suspended task's poll without running it; the task later
    /// checks [`NotifyWaiter::fired`].
    pub fn register_waker(&self, waker: Waker) -> NotifyWaiter {
        if self.try_take_permit() {
            return NotifyWaiter(Rc::new(RefCell::new(Waiter {
                fired: true,
                ..Waiter::default()
            })));
        }
        NotifyWaiter(self.register(waker))
    }

    /// Withdraws a waiter registered with [`Notify::register_waker`] that
    /// has not fired, as if its task had stopped waiting.
    pub fn withdraw(&self, w: &NotifyWaiter) {
        debug_assert!(
            !w.fired(),
            "withdrawing a fired waiter loses a notification"
        );
        let mut inner = self.inner.borrow_mut();
        if let Some(i) = inner.waiters.iter().rposition(|x| Rc::ptr_eq(x, &w.0)) {
            inner.waiters.remove(i);
        }
    }

    fn try_take_permit(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        if inner.permits > 0 {
            inner.permits -= 1;
            true
        } else {
            false
        }
    }

    fn register(&self, waker: Waker) -> Rc<RefCell<Waiter>> {
        let w = Rc::new(RefCell::new(Waiter {
            fired: false,
            cancelled: false,
            waker: Some(waker),
        }));
        self.inner.borrow_mut().waiters.push_back(Rc::clone(&w));
        w
    }
}

/// A waiter registered by [`Notify::register_waker`].
pub struct NotifyWaiter(Rc<RefCell<Waiter>>);

impl NotifyWaiter {
    /// Whether a notification has been delivered to this waiter.
    pub fn fired(&self) -> bool {
        self.0.borrow().fired
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified<'a> {
    notify: &'a Notify,
    waiter: Option<Rc<RefCell<Waiter>>>,
}

impl Future for Notified<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if let Some(w) = &self.waiter {
            let mut w = w.borrow_mut();
            if w.fired {
                return Poll::Ready(());
            }
            w.waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        if self.notify.try_take_permit() {
            return Poll::Ready(());
        }
        self.waiter = Some(self.notify.register(cx.waker().clone()));
        Poll::Pending
    }
}

impl Drop for Notified<'_> {
    fn drop(&mut self) {
        if let Some(w) = &self.waiter {
            let mut w = w.borrow_mut();
            if w.fired {
                // The permit was consumed by a waiter that never observed
                // it; hand it back so no notification is lost.
                drop(w);
                self.notify.inner.borrow_mut().permits += 1;
            } else {
                w.cancelled = true;
            }
        }
    }
}

/// Future returned by [`Notify::wait_timeout`].
pub struct WaitTimeout<'a> {
    notify: &'a Notify,
    h: SimHandle,
    deadline: Nanos,
    waiter: Option<Rc<RefCell<Waiter>>>,
    timer_registered: bool,
}

impl Future for WaitTimeout<'_> {
    type Output = bool;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        if let Some(w) = &self.waiter {
            if w.borrow().fired {
                return Poll::Ready(true);
            }
        } else {
            if self.notify.try_take_permit() {
                return Poll::Ready(true);
            }
            self.waiter = Some(self.notify.register(cx.waker().clone()));
        }
        if self.h.now() >= self.deadline {
            if let Some(w) = &self.waiter {
                w.borrow_mut().cancelled = true;
            }
            return Poll::Ready(false);
        }
        if let Some(w) = &self.waiter {
            w.borrow_mut().waker = Some(cx.waker().clone());
        }
        if !self.timer_registered {
            self.timer_registered = true;
            self.h.register_timer(self.deadline, cx.waker().clone());
        }
        Poll::Pending
    }
}

impl Drop for WaitTimeout<'_> {
    fn drop(&mut self) {
        if let Some(w) = &self.waiter {
            let mut w = w.borrow_mut();
            if w.fired {
                drop(w);
                self.notify.inner.borrow_mut().permits += 1;
            } else {
                w.cancelled = true;
            }
        }
    }
}

struct ChanInner<T> {
    queue: VecDeque<T>,
    notify: Notify,
    closed: bool,
}

/// An unbounded multi-producer channel in virtual time.
///
/// Cloning shares the underlying queue; any clone may send or receive.
pub struct Chan<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

impl<T> Clone for Chan<T> {
    fn clone(&self) -> Self {
        Chan {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Default for Chan<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Chan<T> {
    /// Creates an empty open channel.
    pub fn new() -> Self {
        Chan {
            inner: Rc::new(RefCell::new(ChanInner {
                queue: VecDeque::new(),
                notify: Notify::new(),
                closed: false,
            })),
        }
    }

    /// Enqueues a value, waking one receiver.
    pub fn send(&self, v: T) {
        let mut inner = self.inner.borrow_mut();
        inner.queue.push_back(v);
        inner.notify.notify_one();
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.borrow_mut().queue.pop_front()
    }

    /// Number of queued values.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().queue.is_empty()
    }

    /// Marks the channel closed; pending and future `recv`s see `None` once drained.
    pub fn close(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.closed = true;
        inner.notify.notify_all();
    }

    /// Receives the next value, waiting in virtual time.
    ///
    /// Returns `None` once the channel is closed and drained.
    pub async fn recv(&self) -> Option<T> {
        loop {
            {
                let mut inner = self.inner.borrow_mut();
                if let Some(v) = inner.queue.pop_front() {
                    return Some(v);
                }
                if inner.closed {
                    return None;
                }
            }
            // SAFETY-free wait: the Notified future keeps only a shared
            // borrow while polled; the channel borrow above is released.
            let notified = {
                let inner = self.inner.borrow();
                // Extend the lifetime by re-borrowing through Rc each loop.
                // We cannot hold `inner` across await, so wait on a clone.
                drop(inner);
                WaitOnChan {
                    chan: Rc::clone(&self.inner),
                    waiter: None,
                }
            };
            notified.await;
        }
    }
}

/// Internal future: waits for the channel's notify without borrowing across await.
struct WaitOnChan<T> {
    chan: Rc<RefCell<ChanInner<T>>>,
    waiter: Option<Rc<RefCell<Waiter>>>,
}

impl<T> Future for WaitOnChan<T> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if let Some(w) = &self.waiter {
            let mut w = w.borrow_mut();
            if w.fired {
                return Poll::Ready(());
            }
            w.waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let chan = self.chan.borrow();
        if !chan.queue.is_empty() || chan.closed || chan.notify.try_take_permit() {
            return Poll::Ready(());
        }
        let w = chan.notify.register(cx.waker().clone());
        drop(chan);
        self.waiter = Some(w);
        Poll::Pending
    }
}

impl<T> Drop for WaitOnChan<T> {
    fn drop(&mut self) {
        if let Some(w) = &self.waiter {
            let mut wb = w.borrow_mut();
            if wb.fired {
                drop(wb);
                self.chan.borrow().notify.inner.borrow_mut().permits += 1;
            } else {
                wb.cancelled = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Sim;
    use std::cell::Cell;

    #[test]
    fn notify_before_wait_is_not_lost() {
        let mut sim = Sim::new();
        let n = Rc::new(Notify::new());
        n.notify_one();
        let n2 = Rc::clone(&n);
        let ok = Rc::new(Cell::new(false));
        let ok2 = Rc::clone(&ok);
        sim.spawn("w", async move {
            n2.notified().await;
            ok2.set(true);
        });
        sim.run();
        assert!(ok.get());
    }

    #[test]
    fn notify_wakes_fifo() {
        let mut sim = Sim::new();
        let n = Rc::new(Notify::new());
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let n = Rc::clone(&n);
            let log = Rc::clone(&log);
            sim.spawn("w", async move {
                n.notified().await;
                log.borrow_mut().push(i);
            });
        }
        let n2 = Rc::clone(&n);
        let h = sim.handle();
        sim.spawn("k", async move {
            h.sleep(Nanos(1)).await;
            n2.notify_one();
            n2.notify_one();
            n2.notify_one();
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn wait_timeout_times_out() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let n = Rc::new(Notify::new());
        let n2 = Rc::clone(&n);
        let res = Rc::new(Cell::new(true));
        let res2 = Rc::clone(&res);
        sim.spawn("w", async move {
            let got = n2.wait_timeout(&h, Nanos::from_micros(5)).await;
            res2.set(got);
        });
        let end = sim.run();
        assert!(!res.get());
        assert_eq!(end, Nanos::from_micros(5));
        drop(n);
    }

    #[test]
    fn wait_timeout_notified_early() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let h2 = h.clone();
        let n = Rc::new(Notify::new());
        let n2 = Rc::clone(&n);
        let n3 = Rc::clone(&n);
        let res = Rc::new(Cell::new(false));
        let res2 = Rc::clone(&res);
        sim.spawn("w", async move {
            res2.set(n2.wait_timeout(&h, Nanos::from_millis(1)).await);
        });
        sim.spawn("k", async move {
            h2.sleep(Nanos::from_micros(3)).await;
            n3.notify_one();
        });
        let end = sim.run();
        assert!(res.get());
        // The stale timeout timer still fires at 1ms, but nothing reacts.
        assert_eq!(end, Nanos::from_millis(1));
    }

    #[test]
    fn chan_delivers_in_order_across_tasks() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch: Chan<u32> = Chan::new();
        let tx = ch.clone();
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = Rc::clone(&got);
        sim.spawn("rx", async move {
            while let Some(v) = ch.recv().await {
                got2.borrow_mut().push(v);
            }
        });
        sim.spawn("tx", async move {
            for i in 0..5 {
                h.sleep(Nanos(10)).await;
                tx.send(i);
            }
            tx.close();
        });
        sim.run();
        assert_eq!(*got.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn chan_close_unblocks_receiver() {
        let mut sim = Sim::new();
        let ch: Chan<u32> = Chan::new();
        let ch2 = ch.clone();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn("rx", async move {
            assert!(ch.recv().await.is_none());
            done2.set(true);
        });
        sim.spawn("closer", async move {
            ch2.close();
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn registered_waker_queues_like_a_pending_wait() {
        let n = Notify::new();
        let w = Waker::noop().clone();
        // A stored permit is consumed, as a first poll would consume it.
        n.notify_one();
        assert!(n.register_waker(w.clone()).fired());
        let a = n.register_waker(w.clone());
        let b = n.register_waker(w.clone());
        assert!(!a.fired() && !b.fired());
        // Withdrawn waiters are skipped; the rest fire in queue order.
        n.withdraw(&a);
        n.notify_one();
        assert!(!a.fired() && b.fired());
        // Nobody left waiting: the next notification is stored.
        n.notify_one();
        assert!(n.register_waker(w).fired());
    }
}
