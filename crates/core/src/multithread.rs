//! User-level multithreading support (§4.4 of the paper).
//!
//! > "Multiprogramming is the classic technique for hiding the latencies
//! > of blocking operations, so CarlOS is designed to support multiple
//! > user threads per node. We take the position that each language
//! > implementor should be able to build a customized thread package, so
//! > we have designed support for building thread packages on top of
//! > CarlOS. We provide a hook to make an upcall to a user-level scheduler
//! > to prevent user code from blocking on remote coherent shared memory
//! > operations."
//!
//! [`SharedRuntime`] puts one node's [`Runtime`] in a `RefCell` and runs
//! each user thread on its own simulated proc of the same node (the
//! simulator serializes the node's CPU, so this models one processor with
//! several user threads). All of them are coroutines on one OS thread, so
//! nothing here is a lock. Blocking operations are restructured so the
//! runtime is **never borrowed while a thread waits**: a thread that cannot
//! make progress registers its intent, emits a `Blocked` upcall, sleeps on
//! the node mailbox, and retries — meanwhile other threads use the runtime,
//! and incoming requests keep being served. Remote-operation latency is
//! thereby hidden exactly as §4.4 intends.

use std::{cell::RefCell, rc::Rc};

use carlos_sim::{time::Ns, NodeCtx};

use crate::{
    annotation::Annotation,
    message::AcceptedMsg,
    runtime::Runtime,
};

/// Events delivered to the user-level scheduler hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadEvent {
    /// The thread is about to block on a remote operation.
    Blocked {
        /// Thread identifier (assigned at spawn).
        thread: u32,
    },
    /// The thread's remote operation completed; it is runnable again.
    Unblocked {
        /// Thread identifier.
        thread: u32,
    },
}

/// The scheduler upcall: invoked on every block/unblock transition.
pub type UpcallFn = Box<dyn Fn(ThreadEvent)>;

struct Shared {
    rt: RefCell<Runtime>,
    upcall: RefCell<Option<UpcallFn>>,
}

/// A node runtime shared by several user threads.
///
/// Create it from the node's [`Runtime`], then hand [`Worker`]s to threads
/// spawned with [`carlos_sim::NodeCtx::spawn_thread`]. The node's main
/// proc typically also participates through its own [`Worker`].
pub struct SharedRuntime {
    shared: Rc<Shared>,
}

impl SharedRuntime {
    /// Wraps `rt` for sharing.
    #[must_use]
    pub fn new(rt: Runtime) -> Self {
        Self {
            shared: Rc::new(Shared {
                rt: RefCell::new(rt),
                upcall: RefCell::new(None),
            }),
        }
    }

    /// Installs the scheduler upcall hook (§4.4).
    pub fn set_upcall(&self, f: UpcallFn) {
        *self.shared.upcall.borrow_mut() = Some(f);
    }

    /// Creates the handle a user thread works through. `ctx` must belong
    /// to a proc of the same node (the main proc's context, or one from
    /// [`carlos_sim::NodeCtx::spawn_thread`]).
    #[must_use]
    pub fn worker(&self, thread: u32, ctx: NodeCtx) -> Worker {
        Worker {
            shared: Rc::clone(&self.shared),
            ctx,
            thread,
        }
    }

    /// Runs `f` with exclusive access to the underlying runtime.
    ///
    /// Use this only while no worker threads are active (setup, handler
    /// registration, shutdown): it does not wait. Between those phases, go
    /// through a [`Worker`], which yields virtual time until the runtime is
    /// free.
    ///
    /// # Panics
    ///
    /// Panics if another proc of the node is parked in virtual time inside
    /// the runtime; the run then fails with a `SimError::NodePanic` naming
    /// this node.
    pub fn with<R>(&self, f: impl FnOnce(&mut Runtime) -> R) -> R {
        let mut rt = self
            .shared
            .rt
            .try_borrow_mut()
            .expect("SharedRuntime::with while a worker is inside the runtime");
        f(&mut rt)
    }
}

/// A user thread's handle onto the shared node runtime.
///
/// Every potentially blocking operation follows the same discipline:
/// attempt with the runtime borrowed, and if the operation cannot complete,
/// release it, emit the `Blocked` upcall, sleep on the node mailbox, retry.
pub struct Worker {
    shared: Rc<Shared>,
    ctx: NodeCtx,
    thread: u32,
}

/// How long a parked worker sleeps before re-checking conditions that may
/// be satisfied by another thread's work rather than by a fresh datagram.
const RECHECK: Ns = carlos_sim::time::us(200);

impl Worker {
    /// This worker's thread id.
    #[must_use]
    pub fn thread(&self) -> u32 {
        self.thread
    }

    /// The simulator context of this worker's proc.
    #[must_use]
    pub fn ctx(&self) -> &NodeCtx {
        &self.ctx
    }

    fn upcall(&self, ev: ThreadEvent) {
        if let Some(f) = self.shared.upcall.borrow().as_ref() {
            f(ev);
        }
    }

    /// Runs `f` with the runtime borrowed and this worker's proc installed
    /// as the active context, so any parking inside the runtime parks the
    /// calling thread's proc (never a sibling's).
    ///
    /// A worker that finds the runtime busy backs off in *virtual* time:
    /// the holder is another proc on the same OS thread, parked inside a
    /// charge, and runs again only if this one parks.
    fn with_rt<R>(&self, f: impl FnOnce(&mut Runtime) -> R) -> R {
        loop {
            if let Ok(mut rt) = self.shared.rt.try_borrow_mut() {
                rt.set_active_ctx(self.ctx.clone());
                return f(&mut rt);
            }
            // Park; the holder's virtual work proceeds.
            self.ctx.sleep(carlos_sim::time::us(20));
        }
    }

    /// Processes any deliverable messages through this worker's context.
    pub fn poll(&self) {
        self.with_rt(|rt| rt.poll());
    }

    /// Blocks this thread (only) until `step` returns `Some`: the shared
    /// runtime is polled each round, and the thread sleeps
    /// on the node mailbox between rounds.
    fn block_until<R>(&self, mut step: impl FnMut(&mut Runtime) -> Option<R>) -> R {
        // Fast path: no block, no upcalls.
        if let Some(r) = self.with_rt(&mut step) {
            return r;
        }
        self.upcall(ThreadEvent::Blocked {
            thread: self.thread,
        });
        loop {
            let deadline = self.ctx.now() + RECHECK;
            let _ = self.ctx.wait_mailbox(Some(deadline));
            let got = self.with_rt(&mut step);
            if let Some(r) = got {
                self.upcall(ThreadEvent::Unblocked {
                    thread: self.thread,
                });
                return r;
            }
        }
    }

    /// Charges computation to this thread; the node's single CPU serializes
    /// concurrent threads' charges.
    pub fn compute(&self, dt: Ns) {
        self.ctx.compute(dt);
    }

    /// Sends a user message through the shared runtime (asynchronous).
    pub fn send(&self, dst: u32, handler: u32, body: Vec<u8>, annotation: Annotation) {
        self.with_rt(|rt| rt.send(dst, handler, body, annotation));
    }

    /// Blocking read of coherent memory; only this thread blocks while the
    /// fetches are in flight.
    pub fn read_bytes(&self, addr: usize, buf: &mut [u8]) {
        self.block_until(|rt| rt.try_read_bytes(addr, buf).then_some(()));
    }

    /// Blocking write of coherent memory; only this thread blocks.
    pub fn write_bytes(&self, addr: usize, data: &[u8]) {
        self.block_until(|rt| rt.try_write_bytes(addr, data).then_some(()));
    }

    /// Reads a little-endian `u32` from coherent memory.
    #[must_use = "reading coherent memory has no side effects worth discarding"]
    pub fn read_u32(&self, addr: usize) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32` to coherent memory.
    pub fn write_u32(&self, addr: usize, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Waits for an accepted message for `handler`; other threads keep
    /// running and the node keeps serving requests meanwhile.
    pub fn wait_accepted(&self, handler: u32) -> AcceptedMsg {
        self.block_until(|rt| rt.try_take_accepted(handler))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_event_equality() {
        assert_eq!(
            ThreadEvent::Blocked { thread: 1 },
            ThreadEvent::Blocked { thread: 1 }
        );
        assert_ne!(
            ThreadEvent::Blocked { thread: 1 },
            ThreadEvent::Unblocked { thread: 1 }
        );
    }
}
