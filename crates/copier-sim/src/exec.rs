//! Single-threaded deterministic executor with virtual time.
//!
//! The executor owns a set of tasks (futures), a FIFO ready queue, and a
//! timer heap keyed by virtual time. A run proceeds by draining the ready
//! queue; when no task is ready, the clock jumps to the earliest timer and
//! the timer's waker fires. Determinism follows from:
//!
//! * a single host thread (no OS scheduling nondeterminism),
//! * FIFO ready-queue order,
//! * a monotonic sequence number breaking ties between equal-time timers.
//!
//! Simulated "threads" are ordinary futures spawned with [`SimHandle::spawn`].
//!
//! Besides tasks the kernel runs *actions*: closures scheduled either as a
//! ready-queue entry (`SimHandle::defer`, run in FIFO order among task
//! polls) or as a timer entry (`SimHandle::at`, run when the timer
//! pops). An action occupies exactly the queue or heap slot a task wake-up
//! would, so replacing "wake a task whose next step is X" by "run X" keeps
//! the schedule — and every sequence number — unchanged, without the
//! task's poll (DESIGN.md §19).

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use crate::time::Nanos;

/// Identifies a spawned task within one simulation.
pub type TaskId = usize;

/// A closure the kernel runs in place of a task poll.
pub type Action = Rc<dyn Fn()>;

/// Ready-queue marker for "run the next deferred action".
const ACTION: usize = usize::MAX;

/// The shared ready queue, written by wakers (which must be `Send + Sync`).
/// Holds task ids and [`ACTION`] markers; the actions themselves wait in
/// [`Kernel::actions`] in the same FIFO order.
struct ReadyQueue {
    queue: Mutex<VecDeque<TaskId>>,
}

/// Waker payload: re-enqueues the owning task on wake.
struct TaskWaker {
    id: TaskId,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.queue.lock().unwrap().push_back(self.id);
    }
}

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

struct TaskSlot {
    future: Option<BoxFuture>,
    /// The task's waker, built once at spawn.
    waker: Waker,
    /// Human-readable label used for debugging and trace output.
    name: String,
    /// Set once the future completes; the slot is then recycled.
    done: bool,
}

/// What a popped timer does: wake a task or run an action.
enum Fire {
    Wake(Waker),
    Run(Action),
}

struct TimerEntry {
    when: Nanos,
    seq: u64,
    fire: Fire,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.when == other.when && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.when, self.seq).cmp(&(other.when, other.seq))
    }
}

/// Executor internals shared between the driver and task handles.
pub(crate) struct Kernel {
    tasks: RefCell<Vec<Option<TaskSlot>>>,
    free: RefCell<Vec<TaskId>>,
    ready: Arc<ReadyQueue>,
    /// Deferred actions, one per [`ACTION`] marker in the ready queue.
    actions: RefCell<VecDeque<Action>>,
    timers: RefCell<BinaryHeap<Reverse<TimerEntry>>>,
    now: Cell<Nanos>,
    /// Deadline of the `run_until` in progress.
    deadline: Cell<Nanos>,
    seq: Cell<u64>,
    live_tasks: Cell<usize>,
    /// Total tasks ever spawned, for statistics.
    spawned: Cell<usize>,
}

impl Kernel {
    fn new() -> Rc<Self> {
        Rc::new(Kernel {
            tasks: RefCell::new(Vec::new()),
            free: RefCell::new(Vec::new()),
            ready: Arc::new(ReadyQueue {
                queue: Mutex::new(VecDeque::new()),
            }),
            actions: RefCell::new(VecDeque::new()),
            timers: RefCell::new(BinaryHeap::new()),
            now: Cell::new(Nanos::ZERO),
            deadline: Cell::new(Nanos(u64::MAX)),
            seq: Cell::new(0),
            live_tasks: Cell::new(0),
            spawned: Cell::new(0),
        })
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    fn register(&self, when: Nanos, fire: Fire) {
        debug_assert!(when >= self.now.get(), "timer scheduled in the past");
        self.timers.borrow_mut().push(Reverse(TimerEntry {
            when,
            seq: self.next_seq(),
            fire,
        }));
    }

    fn register_timer(&self, when: Nanos, waker: Waker) {
        self.register(when, Fire::Wake(waker));
    }

    fn defer(&self, action: Action) {
        self.actions.borrow_mut().push_back(action);
        self.ready
            .queue
            .lock()
            .expect("ready queue lock poisoned")
            .push_back(ACTION);
    }

    fn spawn_boxed(&self, name: &str, fut: BoxFuture) -> TaskId {
        let mut free = self.free.borrow_mut();
        let mut tasks = self.tasks.borrow_mut();
        let id = free.pop().unwrap_or(tasks.len());
        let slot = TaskSlot {
            future: Some(fut),
            waker: Waker::from(Arc::new(TaskWaker {
                id,
                ready: Arc::clone(&self.ready),
            })),
            name: name.to_string(),
            done: false,
        };
        if id == tasks.len() {
            tasks.push(Some(slot));
        } else {
            tasks[id] = Some(slot);
        }
        drop((free, tasks));
        self.live_tasks.set(self.live_tasks.get() + 1);
        self.spawned.set(self.spawned.get() + 1);
        self.ready.queue.lock().unwrap().push_back(id);
        id
    }

    /// Polls one task to completion-or-pending. Returns false if the id is stale.
    fn poll_task(self: &Rc<Self>, id: TaskId) -> bool {
        // Take the future out of the slot so the task may re-borrow the
        // kernel (spawn, timers) while being polled.
        let (mut fut, waker) = {
            let mut tasks = self.tasks.borrow_mut();
            match tasks.get_mut(id).and_then(|s| s.as_mut()) {
                Some(slot) if !slot.done => match slot.future.take() {
                    Some(f) => (f, slot.waker.clone()),
                    // Already being polled higher up the stack (cannot
                    // happen with a single-threaded driver) or spurious.
                    None => return false,
                },
                _ => return false,
            }
        };
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                let mut tasks = self.tasks.borrow_mut();
                if let Some(slot) = tasks.get_mut(id) {
                    *slot = None;
                }
                self.free.borrow_mut().push(id);
                self.live_tasks.set(self.live_tasks.get() - 1);
                true
            }
            Poll::Pending => {
                let mut tasks = self.tasks.borrow_mut();
                if let Some(Some(slot)) = tasks.get_mut(id).map(|s| s.as_mut()) {
                    slot.future = Some(fut);
                }
                true
            }
        }
    }
}

/// A deterministic discrete-event simulation.
///
/// # Examples
///
/// ```
/// use copier_sim::{Sim, Nanos};
///
/// let mut sim = Sim::new();
/// let h = sim.handle();
/// sim.spawn("hello", async move {
///     h.sleep(Nanos::from_micros(5)).await;
///     assert_eq!(h.now(), Nanos::from_micros(5));
/// });
/// sim.run();
/// ```
pub struct Sim {
    kernel: Rc<Kernel>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation at virtual time zero.
    pub fn new() -> Self {
        Sim {
            kernel: Kernel::new(),
        }
    }

    /// Returns a cloneable handle usable from inside tasks.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            kernel: Rc::clone(&self.kernel),
        }
    }

    /// Spawns a root task. See [`SimHandle::spawn`].
    pub fn spawn<F, T>(&mut self, name: &str, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.handle().spawn(name, fut)
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.kernel.now.get()
    }

    /// Runs until no task is ready and no timer is pending.
    ///
    /// Returns the final virtual time. Tasks that are blocked forever (e.g.
    /// waiting on a notification that never comes) are abandoned; use
    /// [`Sim::live_tasks`] to detect leaks in tests.
    pub fn run(&mut self) -> Nanos {
        self.run_until(Nanos(u64::MAX))
    }

    /// Runs until the given virtual deadline (exclusive for timers beyond it).
    pub fn run_until(&mut self, deadline: Nanos) -> Nanos {
        self.kernel.deadline.set(deadline);
        loop {
            // Drain everything runnable at the current instant.
            loop {
                let next = self.kernel.ready.queue.lock().unwrap().pop_front();
                match next {
                    Some(ACTION) => {
                        let action = self.kernel.actions.borrow_mut().pop_front();
                        if let Some(action) = action {
                            action();
                        }
                    }
                    Some(id) => {
                        self.kernel.poll_task(id);
                    }
                    None => break,
                }
            }
            // Advance to the earliest timer.
            let entry = {
                let mut timers = self.kernel.timers.borrow_mut();
                match timers.peek() {
                    Some(Reverse(e)) if e.when <= deadline => timers.pop().map(|r| r.0),
                    _ => None,
                }
            };
            match entry {
                Some(e) => {
                    debug_assert!(e.when >= self.kernel.now.get());
                    self.kernel.now.set(e.when);
                    match e.fire {
                        Fire::Wake(w) => w.wake(),
                        Fire::Run(action) => action(),
                    }
                }
                None => break,
            }
        }
        self.kernel.now.get()
    }

    /// Number of tasks that have been spawned but not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.kernel.live_tasks.get()
    }

    /// Total number of tasks ever spawned.
    pub fn spawned_tasks(&self) -> usize {
        self.kernel.spawned.get()
    }

    /// Names of tasks that are still live (for leak diagnostics in tests).
    pub fn live_task_names(&self) -> Vec<String> {
        self.kernel
            .tasks
            .borrow()
            .iter()
            .flatten()
            .map(|t| t.name.clone())
            .collect()
    }
}

impl Drop for Sim {
    /// Frees the simulated program. Task futures, timers and deferred
    /// actions hold `Rc`s back into the kernel (through their handles)
    /// and into whatever the program built, so without this a finished
    /// simulation would keep itself alive. They are moved out before
    /// being dropped: a destructor may touch the kernel.
    fn drop(&mut self) {
        loop {
            let tasks = std::mem::take(&mut *self.kernel.tasks.borrow_mut());
            let timers = std::mem::take(&mut *self.kernel.timers.borrow_mut());
            let actions = std::mem::take(&mut *self.kernel.actions.borrow_mut());
            if tasks.is_empty() && timers.is_empty() && actions.is_empty() {
                break;
            }
            drop((tasks, timers, actions));
        }
        if let Ok(mut ready) = self.kernel.ready.queue.lock() {
            ready.clear();
        }
        self.kernel.free.borrow_mut().clear();
    }
}

/// Cloneable handle for use inside simulated tasks.
#[derive(Clone)]
pub struct SimHandle {
    kernel: Rc<Kernel>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.kernel.now.get()
    }

    /// Spawns a task; the returned handle can be awaited for its result.
    pub fn spawn<F, T>(&self, name: &str, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState::<T> {
            result: None,
            waiter: None,
        }));
        let state2 = Rc::clone(&state);
        let wrapped = async move {
            let out = fut.await;
            let mut st = state2.borrow_mut();
            st.result = Some(out);
            if let Some(w) = st.waiter.take() {
                w.wake();
            }
        };
        let id = self.kernel.spawn_boxed(name, Box::pin(wrapped));
        JoinHandle { state, id }
    }

    /// Sleeps for `dur` of virtual time without occupying any core.
    pub fn sleep(&self, dur: Nanos) -> Sleep {
        Sleep {
            kernel: Rc::clone(&self.kernel),
            deadline: Nanos(self.kernel.now.get().0.saturating_add(dur.0)),
            registered: false,
        }
    }

    /// Sleeps until an absolute virtual instant.
    pub fn sleep_until(&self, deadline: Nanos) -> Sleep {
        Sleep {
            kernel: Rc::clone(&self.kernel),
            deadline: deadline.max(self.kernel.now.get()),
            registered: false,
        }
    }

    /// Yields to other ready tasks once.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    pub(crate) fn register_timer(&self, when: Nanos, waker: Waker) {
        self.kernel.register_timer(when, waker);
    }

    /// Queues `action` on the ready queue: it runs in FIFO order with the
    /// task polls around it, at the current instant.
    pub(crate) fn defer(&self, action: Action) {
        self.kernel.defer(action);
    }

    /// Registers a timer that runs `action` when it pops at `when`,
    /// ordered against every other timer by `(when, registration order)`.
    pub(crate) fn at(&self, when: Nanos, action: Action) {
        self.kernel.register(when, Fire::Run(action));
    }

    /// The earliest instant at which anything already scheduled runs:
    /// `now` while the ready queue holds work, else the earliest timer.
    /// `None` when nothing is scheduled.
    pub fn next_event_time(&self) -> Option<Nanos> {
        let ready = self.kernel.ready.queue.lock();
        if !ready.expect("ready queue lock poisoned").is_empty() {
            return Some(self.now());
        }
        self.kernel.timers.borrow().peek().map(|Reverse(e)| e.when)
    }

    /// Deadline of the `run_until` in progress (`Nanos(u64::MAX)` under
    /// [`Sim::run`]): no timer later than it fires in this run.
    pub fn run_deadline(&self) -> Nanos {
        self.kernel.deadline.get()
    }
}

struct JoinState<T> {
    result: Option<T>,
    waiter: Option<Waker>,
}

/// Awaits completion of a spawned task.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
    id: TaskId,
}

impl<T> JoinHandle<T> {
    /// The spawned task's id (for diagnostics).
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Returns the result if the task already finished.
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.result.take() {
            Poll::Ready(v)
        } else {
            st.waiter = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Future returned by [`SimHandle::sleep`].
pub struct Sleep {
    kernel: Rc<Kernel>,
    deadline: Nanos,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.kernel.now.get() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            self.registered = true;
            let deadline = self.deadline;
            self.kernel.register_timer(deadline, cx.waker().clone());
        }
        Poll::Pending
    }
}

/// Future returned by [`SimHandle::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let done = Rc::new(Cell::new(Nanos::ZERO));
        let done2 = Rc::clone(&done);
        sim.spawn("sleeper", async move {
            h.sleep(Nanos::from_micros(10)).await;
            done2.set(h.now());
        });
        let end = sim.run();
        assert_eq!(done.get(), Nanos::from_micros(10));
        assert_eq!(end, Nanos::from_micros(10));
    }

    #[test]
    fn join_handle_returns_value() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let h2 = h.clone();
        let out = Rc::new(Cell::new(0u64));
        let out2 = Rc::clone(&out);
        sim.spawn("parent", async move {
            let child = h2.spawn("child", async move { 41u64 + 1 });
            out2.set(child.await);
        });
        sim.run();
        assert_eq!(out.get(), 42);
    }

    #[test]
    fn timers_fire_in_order_with_ties_by_seq() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u32 {
            let h = h.clone();
            let order = Rc::clone(&order);
            // Two pairs with equal deadlines; spawn order must be preserved.
            let dur = Nanos::from_micros(((i / 2) + 1) as u64);
            sim.spawn("t", async move {
                h.sleep(dur).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn yield_now_interleaves() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let h = h.clone();
            let log = Rc::clone(&log);
            sim.spawn(name, async move {
                for i in 0..2 {
                    log.borrow_mut().push(format!("{name}{i}"));
                    h.yield_now().await;
                }
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!["a0", "b0", "a1", "b1"]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let hit = Rc::new(Cell::new(false));
        let hit2 = Rc::clone(&hit);
        sim.spawn("late", async move {
            h.sleep(Nanos::from_millis(10)).await;
            hit2.set(true);
        });
        sim.run_until(Nanos::from_millis(1));
        assert!(!hit.get());
        assert_eq!(sim.live_tasks(), 1);
        sim.run();
        assert!(hit.get());
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn actions_take_the_slots_of_task_wakeups() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let note = |s: &'static str| {
            let log = Rc::clone(&log);
            Rc::new(move || log.borrow_mut().push(s)) as Action
        };
        // Ready queue: FIFO across task polls and deferred actions.
        let l = Rc::clone(&log);
        sim.spawn("a", async move { l.borrow_mut().push("a") });
        h.defer(note("defer"));
        let (l, h2) = (Rc::clone(&log), h.clone());
        sim.spawn("b", async move {
            l.borrow_mut().push("b");
            // Timers: equal deadlines pop in registration order,
            // whether they wake a task or run an action.
            h2.at(
                Nanos(5),
                Rc::new({
                    let l = Rc::clone(&l);
                    move || l.borrow_mut().push("at-1")
                }),
            );
            h2.sleep(Nanos(5)).await;
            l.borrow_mut().push("b-woke");
        });
        h.at(Nanos(5), note("at-0"));
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec!["a", "defer", "b", "at-0", "at-1", "b-woke"]
        );
    }

    #[test]
    fn next_event_time_and_deadline_are_visible() {
        let mut sim = Sim::new();
        let h = sim.handle();
        assert_eq!(h.next_event_time(), None);
        h.at(Nanos(7), Rc::new(|| {}));
        assert_eq!(h.next_event_time(), Some(Nanos(7)));
        let h2 = h.clone();
        let seen = Rc::new(Cell::new(Nanos::ZERO));
        let s2 = Rc::clone(&seen);
        h.at(Nanos(3), Rc::new(move || s2.set(h2.run_deadline())));
        sim.run_until(Nanos(4));
        assert_eq!(seen.get(), Nanos(4));
        assert_eq!(h.next_event_time(), Some(Nanos(7)));
    }

    #[test]
    fn dropping_a_sim_drops_pending_work() {
        let held = Rc::new(());
        let mut sim = Sim::new();
        let h = sim.handle();
        let (a, b, c) = (Rc::clone(&held), Rc::clone(&held), Rc::clone(&held));
        // A task blocked forever, a timer action, a deferred action.
        sim.spawn("stuck", async move {
            let _a = a;
            std::future::pending::<()>().await;
        });
        h.at(Nanos(10), Rc::new(move || drop(Rc::clone(&b))));
        sim.run_until(Nanos(1));
        h.defer(Rc::new(move || drop(Rc::clone(&c))));
        assert_eq!(Rc::strong_count(&held), 4);
        drop(sim);
        assert_eq!(Rc::strong_count(&held), 1);
    }

    #[test]
    fn determinism_same_program_same_trace() {
        fn run_once() -> Vec<(u64, u32)> {
            let mut sim = Sim::new();
            let h = sim.handle();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..8u32 {
                let h = h.clone();
                let log = Rc::clone(&log);
                sim.spawn("t", async move {
                    h.sleep(Nanos::from_nanos((i as u64 * 37) % 11)).await;
                    h.yield_now().await;
                    log.borrow_mut().push((h.now().as_nanos(), i));
                });
            }
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }
}
