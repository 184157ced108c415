//! Minimal stackful coroutines ("fibers") for the machine's fiber link.
//! x86_64 System V only; other targets use the thread link in
//! [`crate::machine`].
//!
//! The simulation runs exactly one simulated thread at any instant, so
//! a link's only job is to move control between the pump and blocked
//! program stacks. Doing that with OS threads costs a
//! futex round trip through the kernel per handoff (~1–2 µs wall clock
//! once scheduling latency and cache pollution are counted — measured
//! to dominate the simulator's hot loop). A cooperative stack switch
//! between fibers on a single OS thread is the same handoff in ~20 ns:
//! save the callee-saved registers, swap stack pointers, restore.
//!
//! What a [`switch`] saves is precisely the System V callee-saved state:
//! `rsp`, `rbx`, `rbp`, `r12`–`r15`, plus the MXCSR and x87 control
//! words. Everything else is caller-saved and therefore dead across the
//! call boundary — `switch` is an ordinary `extern "sysv64"` call as far
//! as the compiler is concerned.
//!
//! Deliberate caveats:
//!
//! * **No guard pages.** Stacks are plain heap allocations (no `mmap`
//!   available without adding a libc dependency), so overflowing one
//!   corrupts the heap instead of faulting. Stacks are generously sized
//!   ([`DEFAULT_STACK`]) and carry a canary word at the low end;
//!   [`Fiber::canary_ok`] lets the link turn an overflow into a panic
//!   at the next handoff.
//! * **Panic containment is the embedder's job.** The entry closure must
//!   never unwind off the fiber: there is no caller frame below the
//!   bootstrap trampoline. `machine.rs` wraps every program in
//!   `catch_unwind` and hands the payload to the pump as the core's
//!   retirement request.
//! * **A fiber dropped while suspended leaks whatever its stack frames
//!   own** — destructors of suspended locals never run. This only
//!   happens when a run is being torn down by a panic.

use std::cell::Cell;
use std::mem::MaybeUninit;

/// The fiber link's stack size: 64 KiB per simulated core. Simulated
/// programs are shallow (queue operations plus the `absmem::txn`
/// combinators), and at 64 KiB a paper-scale 176-core machine keeps all
/// its stacks in ~11 MiB instead of the 177 MiB the old fixed 1 MiB
/// layout needed.
/// Every run of every suite is the check that this suffices: the canary
/// test at each handoff fails a run whose program outgrows its stack
/// instead of letting it corrupt memory.
pub const DEFAULT_STACK: usize = 1 << 16;

/// Written to the lowest stack word at creation; overwritten only by a
/// stack overflow.
const CANARY: u128 = 0xFEED_FACE_CAFE_BEEF_DEAD_C0DE_5AFE_57AC;

/// A suspended program stack. Created with an entry closure; the first
/// [`switch`] to its context runs the closure on the new stack.
pub struct Fiber {
    /// The stack buffer. `u128` elements guarantee the 16-byte alignment
    /// the System V ABI requires of stack frames. Deliberately left
    /// uninitialized except for the canary and the bootstrap frame:
    /// zeroing every stack is a measurable fixed cost per `Machine`
    /// run, and stack memory is always written before it is read.
    stack: Box<[MaybeUninit<u128>]>,
}

impl Fiber {
    /// Builds a fiber that runs `f` when first switched to, returning the
    /// fiber and the context (stack pointer) to pass to [`switch`].
    ///
    /// `f` must never return: it must end by switching away permanently
    /// (the process aborts if it does return). `f` must also never let a
    /// panic unwind out — wrap the fallible part in `catch_unwind`.
    pub fn new(stack_bytes: usize, f: Box<dyn FnOnce()>) -> (Fiber, *mut u8) {
        // Room for the bootstrap frame (80 bytes) + closure slot (16) on
        // top of whatever `f` needs.
        let words = stack_bytes.div_ceil(16).max(64);
        let mut stack = Box::new_uninit_slice(words);
        stack[0].write(CANARY);
        let top = unsafe { stack.as_mut_ptr().add(words) } as *mut u8;

        // Stack layout, descending from `top` (16-byte aligned):
        //   top-16 : Box<dyn FnOnce()>  (the entry closure, by value)
        //   top-24 : return address     -> fiber_entry
        //   top-32 : rbp slot           =  0
        //   top-40 : rbx slot           =  &closure  (fiber_entry reads it)
        //   top-48 : r12 slot           =  0
        //   top-56 : r13 slot           =  0
        //   top-64 : r14 slot           =  0
        //   top-72 : r15 slot           =  0
        //   top-80 : MXCSR (lo 32) | x87 FCW (hi 32), power-on defaults
        // The initial context is top-80; `raw_switch`'s restore sequence
        // consumes the frame and `ret`s into `fiber_entry` with rsp at
        // top-16, which is 16-byte aligned as the ABI requires before a
        // `call`.
        unsafe {
            let slot = top.sub(16) as *mut Box<dyn FnOnce()>;
            slot.write(f);
            (top.sub(24) as *mut u64).write(fiber_entry as *const () as u64);
            (top.sub(32) as *mut u64).write(0);
            (top.sub(40) as *mut u64).write(slot as u64);
            (top.sub(48) as *mut u64).write(0);
            (top.sub(56) as *mut u64).write(0);
            (top.sub(64) as *mut u64).write(0);
            (top.sub(72) as *mut u64).write(0);
            (top.sub(80) as *mut u64).write((0x037F_u64 << 32) | 0x1F80);
        }
        let rsp = unsafe { top.sub(80) };
        (Fiber { stack }, rsp)
    }

    /// True while the canary at the low end of the stack is intact. A
    /// false return means the stack overflowed into the heap; the caller
    /// should panic rather than continue on corrupted memory.
    pub fn canary_ok(&self) -> bool {
        // The canary word was written in `new`, so reading it is sound.
        (unsafe { self.stack[0].assume_init_read() }) == CANARY
    }
}

/// Suspends the current context into `save` and resumes the context
/// `to`. Returns when something switches back to the saved context.
///
/// # Safety
///
/// * `to` must be a context produced by [`Fiber::new`] and not yet
///   entered, or one saved by an earlier `switch` on this OS thread and
///   not yet resumed. Entering a context twice, or a context whose stack
///   has been freed, is undefined behavior.
/// * All fiber switching for a given set of stacks must stay on one OS
///   thread (contexts embed stack addresses, and the link's channels
///   are not synchronized).
#[inline]
pub unsafe fn switch(save: &Cell<*mut u8>, to: *mut u8) {
    unsafe { raw_switch(save.as_ptr(), to) }
}

/// The context switch: pushes the callee-saved state onto the current
/// stack, publishes the resulting stack pointer through `save`, adopts
/// `to` as the stack pointer, and pops the same state back off.
#[unsafe(naked)]
unsafe extern "sysv64" fn raw_switch(save: *mut *mut u8, to: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First frame of every fiber: `raw_switch` `ret`s here with `rbx`
/// holding the closure slot's address (planted by [`Fiber::new`]).
#[unsafe(naked)]
unsafe extern "sysv64" fn fiber_entry() {
    core::arch::naked_asm!(
        "mov rdi, rbx",
        "call {main}",
        "ud2",
        main = sym fiber_main,
    )
}

/// Takes the entry closure out of its stack slot and runs it.
unsafe extern "sysv64" fn fiber_main(slot: *mut Box<dyn FnOnce()>) -> ! {
    // SAFETY: `slot` holds the closure placed by `Fiber::new`; this is
    // its only read.
    let f = unsafe { slot.read() };
    f();
    // The closure contract says it never returns; there is no frame to
    // return into.
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    /// A scheduler-less ping-pong: main resumes the fiber N times; the
    /// fiber increments a counter and yields back each time.
    #[test]
    fn ping_pong() {
        let count = Rc::new(Cell::new(0u64));
        let main_ctx = Rc::new(Cell::new(std::ptr::null_mut::<u8>()));
        let fiber_ctx = Rc::new(Cell::new(std::ptr::null_mut::<u8>()));

        let (fb, entry) = {
            let count = Rc::clone(&count);
            let main_ctx = Rc::clone(&main_ctx);
            let fiber_ctx = Rc::clone(&fiber_ctx);
            Fiber::new(
                DEFAULT_STACK,
                Box::new(move || loop {
                    count.set(count.get() + 1);
                    unsafe { switch(&fiber_ctx, main_ctx.get()) };
                }),
            )
        };
        fiber_ctx.set(entry);

        for expect in 1..=1000u64 {
            unsafe { switch(&main_ctx, fiber_ctx.get()) };
            assert_eq!(count.get(), expect);
        }
        assert!(fb.canary_ok());
        // The fiber is dropped suspended; its (empty) loop owns nothing.
    }

    /// Deep recursion on the fiber stack works, and the canary survives
    /// within bounds.
    #[test]
    fn uses_own_stack() {
        fn burn(n: u64) -> u64 {
            let pad = [n; 8];
            if n == 0 {
                pad[0]
            } else {
                burn(n - 1) + std::hint::black_box(pad[7])
            }
        }
        let main_ctx = Rc::new(Cell::new(std::ptr::null_mut::<u8>()));
        let out = Rc::new(Cell::new(0u64));
        let (fb, entry) = {
            let main_ctx = Rc::clone(&main_ctx);
            let out = Rc::clone(&out);
            // Deep recursion wants more than the 64 KiB default
            // (especially in debug builds); give it an explicit 1 MiB.
            Fiber::new(
                1 << 20,
                Box::new(move || {
                    out.set(burn(1000));
                    loop {
                        unsafe { switch(&Cell::new(std::ptr::null_mut()), main_ctx.get()) };
                    }
                }),
            )
        };
        unsafe { switch(&main_ctx, entry) };
        assert_eq!(out.get(), (1..=1000u64).sum::<u64>());
        assert!(fb.canary_ok());
    }
}
