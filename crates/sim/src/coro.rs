//! Stackful coroutines: the simulated procs of a run.
//!
//! A [`Coroutine`] is a closure with a stack of its own. [`Coroutine::resume`]
//! runs it on the calling thread until it calls [`suspend`] or returns;
//! `suspend` goes back to whoever resumed it. Either direction is one call
//! of [`switch`] — a dozen instructions, no system call — which is what the
//! scheduler pays for a simulated context switch.
//!
//! This is the workspace's only library `unsafe`. The rules that keep it
//! sound, all enforced inside this file:
//!
//! - A coroutine never leaves the thread that first resumed it (the type
//!   holds raw pointers, so it is neither `Send` nor `Sync`).
//! - No panic crosses a switch: the body runs under `catch_unwind` in the
//!   base frame, [`entry`], and a panic that reaches it aborts the process.
//!   The base frame's return address is null, where the unwinder and the
//!   backtrace printer both stop.
//! - A stack is unmapped only when nothing lives on it: before the first
//!   resume or after the body has returned. A coroutine dropped in between
//!   leaks its stack instead (the scheduler never does that: teardown
//!   resumes every proc until it has unwound).
//!
//! A stack is [`STACK_BYTES`] of demand-paged anonymous memory above one
//! `PROT_NONE` guard page. Rust probes every page of a large frame, so an
//! overflow always lands on the guard: the process dies of `SIGSEGV` (std's
//! handler knows only the guard pages of OS threads, so there is no "has
//! overflowed its stack" message).

use std::{
    cell::Cell,
    ffi::{c_int, c_void},
    panic::{catch_unwind, AssertUnwindSafe},
    process::abort,
    ptr,
};

#[cfg(not(all(target_arch = "x86_64", unix)))]
compile_error!(
    "carlos-sim switches procs with x86-64 System V assembly: port `coro::switch` \
     (and the initial frame `Coroutine::new` builds for it) to this target"
);

/// Usable stack per coroutine: what a `std::thread` gets by default, which
/// the applications' deepest frames are known to fit.
const STACK_BYTES: usize = 2 << 20;
/// The x86-64 base page, which is all a guard needs to be.
const GUARD_BYTES: usize = 4096;

const PROT_NONE: c_int = 0;
const PROT_READ_WRITE: c_int = 1 | 2;
const MAP_PRIVATE: c_int = 2;
#[cfg(target_os = "linux")]
const MAP_ANONYMOUS: c_int = 0x20;
/// The value the BSDs and macOS share.
#[cfg(not(target_os = "linux"))]
const MAP_ANONYMOUS: c_int = 0x1000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// An owned stack mapping: guard page at `base`, usable bytes above it.
struct Stack {
    base: *mut u8,
}

impl Stack {
    const MAPPED: usize = GUARD_BYTES + STACK_BYTES;

    fn new() -> Self {
        // SAFETY: a fresh private anonymous mapping at an address the kernel
        // picks aliases nothing; `MAP_FAILED` (-1) is checked before use.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                Self::MAPPED,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(base as isize != -1, "mmap of a proc stack failed");
        let stack = Self { base: base.cast() };
        // SAFETY: the range is the part of the mapping just created that
        // lies above its first page, which stays `PROT_NONE` as the guard.
        let rc = unsafe {
            mprotect(
                stack.base.add(GUARD_BYTES).cast(),
                STACK_BYTES,
                PROT_READ_WRITE,
            )
        };
        assert!(rc == 0, "mprotect of a proc stack failed");
        stack
    }

    /// One past the highest usable byte (page-aligned).
    fn top(&self) -> *mut usize {
        // SAFETY: one past the end of the mapping `self` owns.
        unsafe { self.base.add(Self::MAPPED).cast() }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping `new` made; `Coroutine::drop` lets
        // this run only while no frame lives on it. A failure would leak
        // address space, nothing worse, so the result is ignored.
        unsafe { munmap(self.base.cast(), Self::MAPPED) };
    }
}

/// Exchanges the stack pointer with `*slot`: pushes the callee-saved
/// registers, stores `rsp` to `*slot` while loading the value that was
/// there, pops the callee-saved registers found on the new stack, returns
/// on it. To its caller this is a C function that returns later — after the
/// other side has called `switch` on the same slot. The MXCSR and x87
/// control words are not switched: nothing in this workspace changes them.
///
/// # Safety
///
/// `*slot` must hold a stack pointer saved by an earlier `switch`, or the
/// initial frame built by [`Coroutine::new`], on a stack that is still
/// mapped, and that stack must not be running on any thread.
#[unsafe(naked)]
unsafe extern "C" fn switch(slot: *mut usize) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov rax, [rdi]",
        "mov [rdi], rsp",
        "mov rsp, rax",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// A closure running on its own stack; see the module doc.
pub(crate) struct Coroutine {
    /// `None` only inside `drop`.
    stack: Option<Stack>,
    /// Stack pointer of the side that is not running: the coroutine's while
    /// it is suspended, its resumer's while it runs.
    sp: usize,
    /// The body, until the first resume moves it onto the stack. From then
    /// until `done`, its frames live there.
    body: Option<Box<dyn FnOnce()>>,
    /// The body has returned; nothing lives on the stack.
    done: bool,
}

thread_local! {
    /// The coroutine running on this thread (null outside any). Set for the
    /// duration of a `resume`, whose `&mut self` keeps the pointee in place.
    static CURRENT: Cell<*mut Coroutine> = const { Cell::new(ptr::null_mut()) };
}

impl Coroutine {
    /// A coroutine that will run `body` on a fresh stack at its first
    /// [`Coroutine::resume`]. `body` must not unwind (the process aborts if
    /// it does): catch panics inside it.
    pub(crate) fn new(body: impl FnOnce() + 'static) -> Self {
        let stack = Stack::new();
        // The frame `switch` expects to find: six callee-saved registers
        // (all zero, so `rbp` ends frame-pointer walks), then the address
        // it returns to. The top word is what `entry` sees as its own
        // return address — null, which ends unwinding and backtraces — at
        // an address that is 8 mod 16, as after a `call`.
        let frame: [usize; 8] = [0, 0, 0, 0, 0, 0, entry as *const () as usize, 0];
        // SAFETY: the 64 bytes below `top` are inside the writable part of
        // a mapping nobody else knows about.
        let sp = unsafe {
            let sp = stack.top().sub(frame.len());
            ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len());
            sp
        };
        debug_assert_eq!((sp as usize + 7 * 8) % 16, 8);
        Self {
            stack: Some(stack),
            sp: sp as usize,
            body: Some(Box::new(body)),
            done: false,
        }
    }

    /// Runs the coroutine on this thread until it suspends or finishes.
    ///
    /// # Panics
    ///
    /// Panics if the body has already returned.
    pub(crate) fn resume(&mut self) {
        assert!(!self.done, "resumed a finished coroutine");
        let this: *mut Self = self;
        let outer = CURRENT.replace(this);
        // SAFETY: `sp` is the initial frame or what the coroutine's last
        // `switch` (in `suspend`) saved; its stack is mapped (owned by
        // `self`) and idle, because a coroutine runs only inside `resume`
        // and `&mut self` excludes a second one. Everything the coroutine
        // does to `*this` meanwhile goes through the same raw pointer.
        unsafe { switch(&raw mut (*this).sp) };
        CURRENT.set(outer);
    }
}

/// Returns control to the resumer of the coroutine running on this thread;
/// returns when it is next resumed.
///
/// # Panics
///
/// Panics when called outside a coroutine.
pub(crate) fn suspend() {
    let cur = CURRENT.get();
    assert!(!cur.is_null(), "suspend() outside a coroutine");
    // SAFETY: `CURRENT` is non-null only inside `resume`, which keeps the
    // pointee alive and in place; while this coroutine runs, `sp` holds the
    // stack pointer `resume`'s `switch` saved on the resumer's stack, which
    // waits in that call.
    unsafe { switch(&raw mut (*cur).sp) };
}

/// Base frame of every coroutine, entered by the `ret` of the first
/// `switch` onto its stack.
extern "C" fn entry() -> ! {
    let cur = CURRENT.get();
    // SAFETY: entered from `resume` only, which set `CURRENT` to a live
    // coroutine that nothing else touches while its body runs.
    let body = unsafe { (*cur).body.take() }.expect("first resume finds the body");
    // The frame below this one has no unwind tables and a null return
    // address: a panic must end here.
    if catch_unwind(AssertUnwindSafe(body)).is_err() {
        abort();
    }
    // The pointer is re-read: the `Coroutine` may have moved while the body
    // was suspended.
    let cur = CURRENT.get();
    // SAFETY: as above; the body (and its frames) are gone, and this last
    // switch returns into `resume`, which never resumes a `done` coroutine,
    // so control cannot come back.
    unsafe {
        (*cur).done = true;
        switch(&raw mut (*cur).sp);
    }
    unreachable!("a finished coroutine was resumed")
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        if self.body.is_none() && !self.done {
            // Frames live on the stack; their destructors will never run,
            // and something may point into them. Keep the mapping.
            std::mem::forget(self.stack.take());
        }
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;

    #[test]
    fn a_million_round_trips_keep_locals_on_both_sides() {
        const TRIPS: u64 = 1_000_000;
        let step = |i: u64, x: f64| (i + 1, x * 1.000_000_1 + 0.25);
        let seen = Rc::new(Cell::new((0u64, 0.0f64)));
        let out = Rc::clone(&seen);
        let mut co = Coroutine::new(move || {
            let (mut i, mut x) = (0u64, 0.5f64);
            while i < TRIPS {
                (i, x) = step(i, x);
                out.set((i, x));
                suspend();
            }
        });
        let (mut j, mut y) = (0u64, 0.5f64);
        for _ in 0..TRIPS {
            co.resume();
            (j, y) = step(j, y);
            assert_eq!(seen.get(), (j, y));
            assert!(!co.done);
        }
        co.resume();
        assert!(co.done);
        assert_eq!(seen.get(), (TRIPS, y));
    }

    #[test]
    fn coroutines_nest() {
        let log = Rc::new(Cell::new(0u32));
        let (outer_log, inner_log) = (Rc::clone(&log), Rc::clone(&log));
        let mut outer = Coroutine::new(move || {
            let mut inner = Coroutine::new(move || {
                inner_log.set(inner_log.get() * 10 + 2);
                suspend();
                inner_log.set(inner_log.get() * 10 + 4);
            });
            outer_log.set(outer_log.get() * 10 + 1);
            inner.resume();
            outer_log.set(outer_log.get() * 10 + 3);
            suspend();
            inner.resume();
            assert!(inner.done);
        });
        outer.resume();
        assert_eq!(log.get(), 123);
        outer.resume();
        assert!(outer.done);
        assert_eq!(log.get(), 1234);
    }

    #[test]
    #[should_panic(expected = "resumed a finished coroutine")]
    fn a_finished_coroutine_cannot_be_resumed() {
        let mut co = Coroutine::new(|| {});
        co.resume();
        assert!(co.done);
        co.resume();
    }

    #[test]
    #[should_panic(expected = "suspend() outside a coroutine")]
    fn suspend_needs_a_coroutine() {
        suspend();
    }

    struct SetOnDrop(Rc<Cell<u32>>);

    impl Drop for SetOnDrop {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    fn mappings() -> usize {
        std::fs::read_to_string("/proc/self/maps")
            .expect("procfs")
            .lines()
            .count()
    }

    #[test]
    fn dropping_a_fresh_coroutine_drops_its_body_and_unmaps_its_stack() {
        // Other tests map and unmap beside this one, hence the slack — but
        // 10 000 leaked stacks would be 20 000 lines.
        let before = mappings();
        let drops = Rc::new(Cell::new(0));
        for _ in 0..10_000 {
            let guard = SetOnDrop(Rc::clone(&drops));
            drop(Coroutine::new(move || drop(guard)));
        }
        assert_eq!(drops.get(), 10_000);
        let after = mappings();
        assert!(
            after <= before + 64,
            "{before} mappings before, {after} after"
        );
    }

    #[test]
    fn a_coroutine_dropped_mid_body_keeps_its_stack() {
        let drops = Rc::new(Cell::new(0));
        let guard = SetOnDrop(Rc::clone(&drops));
        let mut co = Coroutine::new(move || {
            let _on_the_stack = guard;
            suspend();
        });
        co.resume();
        let base = co.stack.as_ref().expect("stack").base as usize;
        drop(co);
        assert_eq!(drops.get(), 0, "frames are leaked, not destroyed");
        let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
        assert!(maps.lines().any(|l| l.starts_with(&format!("{base:x}-"))));
    }

    #[test]
    fn a_stack_is_writable_to_its_last_page_and_guarded_below() {
        let stack = Stack::new();
        // SAFETY: both bytes are inside the writable part of the mapping.
        unsafe {
            stack.base.add(GUARD_BYTES).write(1);
            stack.base.add(Stack::MAPPED - 1).write(1);
        }
        let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
        let guard = format!(
            "{:x}-{:x} ---p",
            stack.base as usize,
            stack.base as usize + GUARD_BYTES
        );
        assert!(
            maps.lines().any(|l| l.starts_with(&guard)),
            "no line {guard:?}"
        );
    }
}
