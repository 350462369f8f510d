//! Stackful coroutines on the calling thread: create, resume, suspend.
//!
//! This is the only crate in the workspace that contains `unsafe`. It
//! exists so the simulator can give every simulated process a stack of
//! its own without giving it an OS thread: [`Coroutine::new`] maps a stack
//! (lazily committed, guard page below), [`Coroutine::resume`] switches
//! onto it and [`suspend`] switches back. A switch saves the callee-saved
//! registers, swaps the stack pointer and returns — no system call.
//!
//! The API is safe because a coroutine can never leave its thread
//! (`Coroutine` is `!Send`), its body borrows nothing (`'static`), every
//! misuse that safe code can express (resuming a running or finished
//! coroutine, suspending outside one) panics, and a coroutine dropped
//! mid-body leaks its stack instead of freeing frames that were never
//! unwound.
//!
//! Shipped for x86-64 System V on Linux, the one target it has been
//! executed on. The MXCSR and x87 control words are not switched: nothing
//! in Rust changes them.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "coro ships x86-64 Linux only: port `coro_switch`/`coro_trampoline` (the global_asm! \
     block in shims/coro/src/lib.rs), `Stack::new`'s initial frame and the mmap constants"
);

use std::any::Any;
use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::panic::{self, AssertUnwindSafe};
use std::ptr::{self, addr_of_mut, NonNull};

// coro_switch(slot: *mut *mut u8): exchanges the stack pointer with `*slot`.
// The six callee-saved registers travel on the stack being left; the
// return address is whatever the stack being entered has on top — the
// `call coro_switch` it left through, or `coro_trampoline` on first entry.
//
// coro_trampoline: first instruction a fresh coroutine executes. The
// initial frame (see `Stack::new`) put the entry function in r13 and its
// argument in r12 and leaves rsp 16-byte aligned here, so the callee sees
// the alignment the ABI promises at a `call`.
std::arch::global_asm!(
    ".text",
    ".global coro_switch",
    ".type coro_switch,@function",
    "coro_switch:",
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
    ".size coro_switch, .-coro_switch",
    ".global coro_trampoline",
    ".type coro_trampoline,@function",
    "coro_trampoline:",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".size coro_trampoline, .-coro_trampoline",
);

extern "C" {
    fn coro_switch(slot: *mut *mut u8);
    fn coro_trampoline();
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

const PAGE: usize = 4096;
const PROT_NONE: c_int = 0;
const PROT_READ_WRITE: c_int = 1 | 2;
/// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK`
const MAP_FLAGS: c_int = 0x2 | 0x20 | 0x4000 | 0x2_0000;

/// A private anonymous mapping: one inaccessible guard page, then the
/// stack. Pages are committed by the kernel on first touch.
struct Stack {
    base: *mut u8,
    len: usize,
}

impl Stack {
    /// Maps a stack and writes the frame `coro_switch` pops on first
    /// entry; returns the stack and its initial stack pointer.
    fn new(
        bytes: usize,
        entry: unsafe extern "C" fn(*mut Inner) -> !,
        arg: *mut Inner,
    ) -> (Stack, *mut u8) {
        assert!(
            bytes >= 4 * PAGE,
            "coroutine stack of {bytes} bytes is too small"
        );
        let len = bytes.next_multiple_of(PAGE) + PAGE;
        // SAFETY: a fresh anonymous mapping aliases nothing; the results
        // are checked before the memory is used.
        let base = unsafe {
            let base = mmap(ptr::null_mut(), len, PROT_READ_WRITE, MAP_FLAGS, -1, 0);
            assert!(
                base as isize != -1,
                "mmap of a {len}-byte coroutine stack failed"
            );
            assert!(
                mprotect(base, PAGE, PROT_NONE) == 0,
                "mprotect of the guard page failed"
            );
            base.cast::<u8>()
        };
        // Nine words below the (page-aligned) top: r15 r14 r13 r12 rbx rbp,
        // the return address, and two spare words, so that after the `ret`
        // rsp is `top - 16` — aligned for the trampoline's `call`.
        let frame: [usize; 7] = [
            0,
            0,
            entry as *const () as usize,
            arg as usize,
            0,
            0,
            coro_trampoline as *const () as usize,
        ];
        // SAFETY: `base + len - 72 ..` lies inside the writable part of the
        // mapping (`bytes >= 4 * PAGE`) and is 8-byte aligned.
        let sp = unsafe {
            let sp = base.add(len - 72);
            sp.cast::<[usize; 7]>().write(frame);
            sp
        };
        (Stack { base, len }, sp)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly what `new` mapped; `Coroutine::drop` only
        // lets this run when no live frame is left on the stack.
        unsafe { munmap(self.base.cast(), self.len) };
    }
}

#[derive(PartialEq, Clone, Copy)]
enum State {
    /// Not running: never started, or inside [`suspend`].
    Suspended,
    Running,
    Done,
}

struct Inner {
    /// Stack pointer of the side that is not running: the coroutine's
    /// while it is suspended, its resumer's while it runs.
    sp: *mut u8,
    stack: Option<Stack>,
    state: State,
    /// The body, until the first resume moves it onto the stack.
    body: Option<Box<dyn FnOnce()>>,
    /// A panic that escaped the body, re-raised by `resume`.
    panic: Option<Box<dyn Any + Send>>,
}

thread_local! {
    /// The innermost running coroutine of this thread (null: none).
    static CURRENT: Cell<*mut Inner> = const { Cell::new(ptr::null_mut()) };
}

/// A function with a stack of its own, run in slices by [`Coroutine::resume`].
pub struct Coroutine {
    /// Heap-pinned: the running body reaches it through [`CURRENT`].
    inner: NonNull<Inner>,
}

impl Coroutine {
    /// Creates a coroutine that will run `body` on a fresh stack of
    /// `stack_bytes` bytes. Nothing runs until the first [`resume`](Self::resume).
    ///
    /// # Panics
    ///
    /// Panics if `stack_bytes` is under 16 KiB or the stack cannot be mapped.
    pub fn new(stack_bytes: usize, body: impl FnOnce() + 'static) -> Coroutine {
        let inner = Box::into_raw(Box::new(Inner {
            sp: ptr::null_mut(),
            stack: None,
            state: State::Suspended,
            body: Some(Box::new(body)),
            panic: None,
        }));
        let (stack, sp) = Stack::new(stack_bytes, entry, inner);
        // SAFETY: `inner` came from `Box::into_raw` just above.
        unsafe {
            (*inner).sp = sp;
            (*inner).stack = Some(stack);
            Coroutine {
                inner: NonNull::new_unchecked(inner),
            }
        }
    }

    /// Runs the body until it calls [`suspend`] or returns. Returns `true`
    /// if it suspended (and can be resumed again), `false` once it returned.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped the body (the coroutine is then
    /// finished). Panics if the coroutine is running or has finished.
    #[inline]
    pub fn resume(&mut self) -> bool {
        let inner = self.inner.as_ptr();
        // SAFETY: `inner` is valid until `drop`. `sp` is a stack pointer
        // that `Stack::new` or `coro_switch` stored and nothing ran on that
        // stack since (state was `Suspended`), so switching to it resumes a
        // well-formed frame; the body only touches `inner` through raw
        // pointers, as this function does.
        unsafe {
            assert!(
                (*inner).state == State::Suspended,
                "resumed a running or finished coroutine"
            );
            (*inner).state = State::Running;
            let outer = CURRENT.replace(inner);
            coro_switch(addr_of_mut!((*inner).sp));
            CURRENT.set(outer);
            if let Some(payload) = (*inner).panic.take() {
                panic::resume_unwind(payload);
            }
            (*inner).state == State::Suspended
        }
    }
}

/// Suspends the running coroutine: its [`Coroutine::resume`] call returns
/// `true`, and this call returns when it is next resumed.
///
/// # Panics
///
/// Panics when no coroutine is running on this thread.
#[inline]
pub fn suspend() {
    let inner = CURRENT.get();
    assert!(!inner.is_null(), "coro::suspend called outside a coroutine");
    // SAFETY: `CURRENT` is non-null only between a `resume`'s two switches,
    // while that `resume` keeps `inner` alive and holds the resumer's stack
    // pointer in `sp`.
    unsafe {
        (*inner).state = State::Suspended;
        coro_switch(addr_of_mut!((*inner).sp));
    }
}

/// First frame of every coroutine. Nothing may unwind out of it — there
/// is no caller frame to unwind into — so it catches everything.
unsafe extern "C" fn entry(inner: *mut Inner) -> ! {
    let body = (*inner)
        .body
        .take()
        .expect("a fresh coroutine has its body");
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(body)) {
        (*inner).panic = Some(payload);
    }
    (*inner).state = State::Done;
    coro_switch(addr_of_mut!((*inner).sp));
    std::process::abort(); // unreachable: `resume` refuses a `Done` coroutine
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        // SAFETY: `inner` came from `Box::into_raw` and is freed only here.
        let mut inner = unsafe { Box::from_raw(self.inner.as_ptr()) };
        match inner.state {
            // Finished, or never started: no frame is left on the stack.
            State::Done => {}
            State::Suspended if inner.body.is_some() => {}
            // Suspended mid-body: its frames own values that were never
            // dropped and may be referenced from outside; freeing the
            // memory under them would be a use-after-free. Leak the stack.
            State::Suspended => std::mem::forget(inner.stack.take()),
            // Dropped from inside its own body: it is still executing on
            // this stack and will use `inner` to suspend.
            State::Running => std::mem::forget(inner),
        }
    }
}
