//! The backend contract: the same program, run on the simulator and on
//! native atomics, produces the same logical outcome — identical
//! per-thread op counts and a linearizable queue history — even though
//! timing and interleavings differ completely.

use harness::{
    dequeue_multiset, enqueue_multiset, mixed_ops, record_history, Backend, DriveSpec, Job,
    NativeBackend, QueueKind, QueueParams, SimBackend,
};
use linearize::check_queue_linearizable;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

use absmem::ThreadCtx;
use coherence::MachineConfig;

const THREADS: usize = 2;
const OPS_PER_THREAD: u64 = 100;

/// Runs the shared two-thread FAA program on `backend` and returns the
/// per-thread op counts plus the final counter value.
fn faa_program<B: Backend>(backend: &mut B) -> (Vec<u64>, u64) {
    let base = Arc::new(AtomicU64::new(0));
    let counts: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let finals = Arc::new(AtomicU64::new(0));

    let programs: Vec<Job<B::Ctx>> = (0..THREADS)
        .map(|_| {
            let base = Arc::clone(&base);
            let counts = Arc::clone(&counts);
            let finals = Arc::clone(&finals);
            Box::new(move |ctx: &mut B::Ctx| {
                let a = base.load(SeqCst);
                let tid = ctx.thread_id();
                ctx.barrier();
                let mut done = 0u64;
                for _ in 0..OPS_PER_THREAD {
                    ctx.faa(a, 1);
                    done += 1;
                }
                ctx.barrier();
                finals.store(ctx.read(a), SeqCst);
                counts.lock().unwrap().push((tid, done));
            }) as Job<B::Ctx>
        })
        .collect();

    let b2 = Arc::clone(&base);
    backend.run(
        Box::new(move |ctx| {
            let a = ctx.alloc(1);
            ctx.write(a, 0);
            b2.store(a, SeqCst);
        }),
        programs,
    );

    let mut per_thread = vec![0u64; THREADS];
    for (tid, done) in counts.lock().unwrap().iter() {
        per_thread[*tid] = *done;
    }
    (per_thread, finals.load(SeqCst))
}

#[test]
fn faa_program_agrees_across_backends() {
    let mut sim = SimBackend::new(MachineConfig::single_socket(THREADS));
    let mut native = NativeBackend;
    let (sim_counts, sim_final) = faa_program(&mut sim);
    let (native_counts, native_final) = faa_program(&mut native);

    // Same per-thread op counts on both substrates...
    assert_eq!(sim_counts, native_counts);
    assert_eq!(sim_counts, vec![OPS_PER_THREAD; THREADS]);
    // ...and FAA never loses an increment on either.
    assert_eq!(sim_final, THREADS as u64 * OPS_PER_THREAD);
    assert_eq!(native_final, sim_final);
}

/// `record_history` yields a linearizable, element-conserving history on
/// both backends, and the drained dequeue multisets agree.
#[test]
fn recorded_histories_are_linearizable_on_both_backends() {
    let spec = || DriveSpec::new(QueueParams::default(), mixed_ops(THREADS, 20, 3), true);

    let mut sim = SimBackend::new(MachineConfig::single_socket(THREADS));
    let sim_out = record_history(&mut sim, QueueKind::MsQueue, spec());
    let mut native = NativeBackend;
    let native_out = record_history(&mut native, QueueKind::MsQueue, spec());

    for (name, out) in [("sim", &sim_out), ("native", &native_out)] {
        check_queue_linearizable(&out.history)
            .unwrap_or_else(|v| panic!("{name} history not linearizable: {v:?}"));
        assert_eq!(
            dequeue_multiset(&out.history),
            enqueue_multiset(&out.history),
            "{name}: drained run must conserve elements"
        );
    }
    // Drained multisets are plan-determined, so they also agree across
    // backends despite entirely different interleavings.
    assert_eq!(
        dequeue_multiset(&sim_out.history),
        dequeue_multiset(&native_out.history)
    );
}
