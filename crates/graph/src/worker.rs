//! A persistent worker thread that runs one borrowed job beside its caller.
//!
//! [`Worker::join`] is a two-thread fork/join over a thread that outlives
//! each call: the worker runs `job` while the calling thread runs `here`,
//! and `join` neither returns nor unwinds before the worker has finished
//! `job`.  That guarantee is what lets `job` borrow the caller's stack — a
//! round's rows, its operator, its scratch — without a per-call spawn: the
//! job travels to the worker as a reference whose lifetime is erased for
//! the hand-off and which the worker drops before `join` can return.  A
//! panic in `job` is caught on the worker and resumed on the caller; a
//! panic in `here` waits for the worker too, so neither side outlives the
//! borrow.  The hand-off is one [`Mutex`] + [`Condvar`] slot, so a call
//! allocates nothing.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// A job as the worker sees it: borrowed for exactly one [`Worker::join`].
type Job = &'static (dyn Fn() + Sync);

/// What the hand-off slot holds.
enum Slot {
    /// No job in flight.
    Idle,
    /// A job posted by [`Worker::join`], not yet picked up.
    Posted(Job),
    /// The worker is running the job.
    Running,
    /// The job returned, or the panic that ended it.
    Finished(thread::Result<()>),
    /// The worker's owner is gone: the thread exits.
    Stop,
}

/// The slot and the signal that it changed.
struct HandOff {
    slot: Mutex<Slot>,
    changed: Condvar,
}

impl HandOff {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        // Every update under the lock is one whole-value store, so the slot
        // is valid even if a holder panicked; `Drop` must lock too.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores `slot` and wakes the other side.
    fn put(&self, slot: Slot) {
        *self.lock() = slot;
        self.changed.notify_all();
    }

    /// Waits until the posted job has finished and empties the slot.
    fn wait_finished(&self) -> thread::Result<()> {
        let mut slot = self
            .changed
            .wait_while(self.lock(), |slot| !matches!(slot, Slot::Finished(_)))
            .unwrap_or_else(PoisonError::into_inner);
        let Slot::Finished(done) = std::mem::replace(&mut *slot, Slot::Idle) else {
            unreachable!("waited for a finished job")
        };
        done
    }

    /// The worker thread: run each posted job, report how it ended, until
    /// told to stop.
    fn serve(&self) {
        let mut slot = self.lock();
        loop {
            slot = self
                .changed
                .wait_while(slot, |slot| !matches!(slot, Slot::Posted(_) | Slot::Stop))
                .unwrap_or_else(PoisonError::into_inner);
            let Slot::Posted(job) = std::mem::replace(&mut *slot, Slot::Running) else {
                return;
            };
            drop(slot);
            let done = panic::catch_unwind(AssertUnwindSafe(job));
            // `job` is not touched past this point: `join` may return as
            // soon as it sees the result.
            slot = self.lock();
            *slot = Slot::Finished(done);
            self.changed.notify_all();
        }
    }
}

/// One persistent worker thread.  See the [module docs](self).
///
/// Dropping the worker stops and joins its thread.
pub struct Worker {
    hand_off: Arc<HandOff>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("thread", &self.thread.as_ref().map(|t| t.thread().id()))
            .finish()
    }
}

impl Worker {
    /// Starts a worker thread named `name`, idle until the first
    /// [`Worker::join`].
    ///
    /// # Errors
    ///
    /// The operating system's error if the thread cannot be spawned.
    pub fn start(name: &str) -> std::io::Result<Self> {
        let hand_off = Arc::new(HandOff {
            slot: Mutex::new(Slot::Idle),
            changed: Condvar::new(),
        });
        let served = Arc::clone(&hand_off);
        let thread = thread::Builder::new()
            .name(name.into())
            .spawn(move || served.serve())?;
        Ok(Worker {
            hand_off,
            thread: Some(thread),
        })
    }

    /// Runs `job` on the worker and `here` on the calling thread, and
    /// returns `here`'s result once both have finished.
    ///
    /// # Panics
    ///
    /// Resumes the panic of `here` if it panicked, else the panic of `job`
    /// — in either case only after the worker has finished `job`.
    pub fn join<R>(&mut self, job: &(dyn Fn() + Sync), here: impl FnOnce() -> R) -> R {
        // SAFETY: the worker calls `job` only between this post and the
        // `Finished` it stores after the call returns or unwinds, and this
        // function cannot return or unwind before `wait_finished` has seen
        // that `Finished`: nothing between the two can panic (`here` runs
        // under `catch_unwind`, and both sides lock through poisoning).  So
        // the erased reference is never used after the borrow it came from
        // ends.  `&mut self` keeps a second job from being posted meanwhile,
        // and `Sync` makes calling `job` from the worker sound while `here`
        // may share it.
        #[allow(unsafe_code)]
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        self.hand_off.put(Slot::Posted(job));
        let here = panic::catch_unwind(AssertUnwindSafe(here));
        let job = self.hand_off.wait_finished();
        match (here, job) {
            (Err(panic), _) | (Ok(_), Err(panic)) => panic::resume_unwind(panic),
            (Ok(value), Ok(())) => value,
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.hand_off.put(Slot::Stop);
        if let Some(thread) = self.thread.take() {
            // Job panics are caught on the worker, so the join reports none;
            // there is nothing else to propagate from a drop.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn job_runs_on_the_worker_and_here_on_the_caller() {
        let mut worker = Worker::start("test-worker").unwrap();
        let ran_on = Mutex::new(None);
        let caller = thread::current().id();
        for round in 0..3 {
            let value = worker.join(
                &|| *ran_on.lock().unwrap() = Some(thread::current().id()),
                || thread::current().id() == caller,
            );
            assert!(value, "round {round}: `here` left the calling thread");
            let worker_id = ran_on.lock().unwrap().take().unwrap();
            assert_ne!(worker_id, caller, "round {round}: the job ran inline");
            assert_eq!(
                Some(worker_id),
                worker.thread.as_ref().map(|t| t.thread().id())
            );
        }
    }

    #[test]
    fn a_job_panic_resumes_on_the_caller_after_here_returns() {
        let mut worker = Worker::start("test-worker").unwrap();
        let here_done = AtomicBool::new(false);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            worker.join(&|| panic!("job"), || {
                here_done.store(true, Ordering::SeqCst)
            })
        }));
        let panic = result.expect_err("the job's panic must resume on the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"job"));
        assert!(here_done.load(Ordering::SeqCst));
        // The worker survives a job panic.
        assert_eq!(worker.join(&|| {}, || 7), 7);
    }

    #[test]
    fn a_here_panic_waits_for_the_job() {
        let mut worker = Worker::start("test-worker").unwrap();
        let (go, wait) = mpsc::channel::<()>();
        let wait = Mutex::new(wait);
        let finished = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            worker.join(
                &|| {
                    // Blocks until `here` has started unwinding.
                    let _ = wait.lock().unwrap().recv();
                    finished.fetch_add(1, Ordering::SeqCst);
                },
                || {
                    let _release = ReleaseOnDrop(go);
                    panic!("here")
                },
            )
        }));
        let panic = result.expect_err("`here`'s panic must resume");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"here"));
        assert_eq!(
            finished.load(Ordering::SeqCst),
            1,
            "join unwound before the job finished"
        );
    }

    /// Sends on drop, so a panicking scope releases its peer.
    struct ReleaseOnDrop(mpsc::Sender<()>);

    impl Drop for ReleaseOnDrop {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    thread_local! {
        static ON_EXIT: RefCell<Option<ExitFlag>> = const { RefCell::new(None) };
    }

    /// Sets its flag when the thread holding it exits.
    struct ExitFlag(Arc<AtomicBool>);

    impl Drop for ExitFlag {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn dropping_the_worker_joins_its_thread() {
        let exited = Arc::new(AtomicBool::new(false));
        let mut worker = Worker::start("test-worker").unwrap();
        worker.join(
            &|| ON_EXIT.with(|slot| *slot.borrow_mut() = Some(ExitFlag(Arc::clone(&exited)))),
            || {},
        );
        assert!(!exited.load(Ordering::SeqCst), "the worker outlives a join");
        drop(worker);
        assert!(
            exited.load(Ordering::SeqCst),
            "drop returned before the thread exited"
        );
    }
}
