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
/// programs are shallow (queue operations plus the `htm` combinators);
/// measured canary high-water marks sit well under 32 KiB even in debug
/// builds, and at 64 KiB a paper-scale 176-core machine keeps all its
/// stacks in ~11 MiB instead of the 177 MiB the old fixed 1 MiB layout
/// needed. The canary check at every handoff turns an overflow into a
/// panic rather than silent corruption.
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
    /// Number of low words holding the canary paint (0 when unpainted —
    /// only the index-0 sentinel exists then). Set by [`Fiber::paint`];
    /// gates [`Fiber::high_water`] so it never reads uninitialized
    /// words.
    painted: usize,
}

/// Words at the stack top consumed by the bootstrap frame and the entry
/// closure slot (96 bytes: the 80-byte register frame plus the 16-byte
/// `Box<dyn FnOnce()>`).
const FRAME_WORDS: usize = 6;

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
        (Fiber { stack, painted: 0 }, rsp)
    }

    /// Paints every stack word below the bootstrap frame with the canary
    /// pattern so [`Fiber::high_water`] can report the deepest word the
    /// fiber ever touched. Call before the fiber is first entered; costs
    /// one memset, which is why it is opt-in
    /// (`MachineConfig::measure_stacks`) rather than the default.
    pub fn paint(&mut self) {
        let end = self.stack.len().saturating_sub(FRAME_WORDS);
        for w in &mut self.stack[..end] {
            w.write(CANARY);
        }
        self.painted = end;
    }

    /// Stack high-water mark, bytes: the distance from the stack top to
    /// the deepest non-canary word. `None` unless [`Fiber::paint`] ran
    /// (unpainted words are uninitialized and must not be read). A fiber
    /// that never ran past its bootstrap frame reports the frame size.
    pub fn high_water(&self) -> Option<usize> {
        if self.painted == 0 {
            return None;
        }
        // SAFETY: words below `painted` were all written by `paint`.
        let first_dirty = (0..self.painted)
            .find(|&i| unsafe { self.stack[i].assume_init_read() } != CANARY)
            .unwrap_or(self.painted);
        Some((self.stack.len() - first_dirty) * 16)
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

    /// A painted stack reports a high-water mark that tracks actual use.
    #[test]
    fn paint_reports_high_water() {
        fn burn(n: u64) -> u64 {
            let pad = [n; 8];
            if n == 0 {
                pad[0]
            } else {
                burn(n - 1) + std::hint::black_box(pad[7])
            }
        }
        let main_ctx = Rc::new(Cell::new(std::ptr::null_mut::<u8>()));
        let (mut fb, entry) = {
            let main_ctx = Rc::clone(&main_ctx);
            Fiber::new(
                1 << 20,
                Box::new(move || {
                    std::hint::black_box(burn(100));
                    loop {
                        unsafe { switch(&Cell::new(std::ptr::null_mut()), main_ctx.get()) };
                    }
                }),
            )
        };
        assert_eq!(fb.high_water(), None, "unpainted stacks are unreadable");
        fb.paint();
        unsafe { switch(&main_ctx, entry) };
        assert!(fb.canary_ok());
        let hwm = fb.high_water().expect("painted");
        // 100 frames of at least 64 bytes of locals each, but nowhere
        // near the 1 MiB reservation.
        assert!(hwm >= 100 * 64, "high-water {hwm} implausibly small");
        assert!(hwm < 1 << 19, "high-water {hwm} implausibly large");
    }
}
