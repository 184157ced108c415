//! MESI Exclusive-state extension: uncontended read-then-write sequences
//! save a directory round trip; all contended behaviour is unchanged.

use absmem::txn::{HtmOps, TxResult};
use absmem::ThreadCtx;
use coherence::{Machine, MachineConfig, Program, SimCtx};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

fn run_counting(
    mesi: bool,
    cores: usize,
    prog: impl Fn(&mut SimCtx, u64) -> u64 + Send + Sync + 'static,
) -> (coherence::RunReport, Vec<u64>) {
    let mut cfg = MachineConfig::single_socket(cores);
    cfg.mesi_exclusive = mesi;
    let shared = Arc::new(AtomicU64::new(0));
    let out = Arc::new(Mutex::new(Vec::new()));
    let prog = Arc::new(prog);
    let programs: Vec<Program> = (0..cores)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let out = Arc::clone(&out);
            let prog = Arc::clone(&prog);
            Box::new(move |ctx: &mut SimCtx| {
                let a = shared.load(SeqCst);
                let r = prog(ctx, a);
                out.lock().unwrap().push((i, r));
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    let report = Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(8);
            // Initialize only the low half; lines a+4..a+8 stay untouched
            // (directory Invalid) so a sole reader can receive Exclusive.
            for i in 0..4 {
                ctx.write(a + i, 0);
            }
            s2.store(a, SeqCst);
        }),
        programs,
    );
    let mut o = out.lock().unwrap().clone();
    o.sort_by_key(|(i, _)| *i);
    (report, o.into_iter().map(|(_, r)| r).collect())
}

#[test]
fn exclusive_grants_silent_write_upgrade() {
    // One core reads then writes a private line: under MSI the write
    // issues a GetM; under MESI-E it upgrades silently.
    let body = |ctx: &mut SimCtx, a: u64| {
        let v = ctx.read(a + 5); // miss → GetS (line untouched by setup)
        ctx.write(a + 5, v + 1); // MSI: GetM upgrade; MESI-E: silent
        ctx.read(a + 5)
    };
    let (msi, vals_msi) = run_counting(false, 1, body);
    let (mesi, vals_mesi) = run_counting(true, 1, body);
    assert_eq!(vals_msi, vals_mesi, "same results under both protocols");
    assert_eq!(vals_mesi[0], 1);
    // The bootstrap phase issues the same 4 setup writes in both runs;
    // the measured body costs one extra GetM under MSI and none under
    // MESI-E.
    assert_eq!(
        msi.stats.msg("GetM"),
        mesi.stats.msg("GetM") + 1,
        "MSI needs the upgrade, MESI-E does not"
    );
    assert_eq!(mesi.stats.msg("GetS"), 1);
}

#[test]
fn exclusive_downgrades_on_remote_read() {
    // Core 0 obtains E (and silently dirties the line); core 1 then reads
    // and must see the dirty value via the Fwd-GetS path.
    let (report, vals) = run_counting(true, 2, |ctx, a| {
        if ctx.thread_id() == 0 {
            let v = ctx.read(a + 6); // E grant (untouched line)
            ctx.write(a + 6, v + 42); // silent upgrade to M
            ctx.barrier();
            0
        } else {
            ctx.barrier();
            ctx.read(a + 6) // Fwd-GetS to the silent owner
        }
    });
    assert_eq!(vals[1], 42, "remote reader must see the silent write");
    assert!(report.stats.msg("Fwd-GetS") >= 1);
}

#[test]
fn exclusive_handed_off_on_remote_write() {
    let (_, vals) = run_counting(true, 2, |ctx, a| {
        if ctx.thread_id() == 0 {
            let _ = ctx.read(a + 7); // E on the untouched line
            ctx.barrier();
            ctx.barrier();
            ctx.read(a + 7)
        } else {
            ctx.barrier();
            ctx.faa(a + 7, 7); // Fwd-GetM takes the line from the E owner
            ctx.barrier();
            0
        }
    });
    assert_eq!(vals[0], 7, "E owner re-reads the remote writer's value");
}

#[test]
fn contended_faa_identical_under_both_protocols() {
    // The contended path never sees E (lines go M immediately), so totals
    // and message mixes should match between protocols.
    let body = |ctx: &mut SimCtx, a: u64| {
        let mut last = 0;
        for _ in 0..50 {
            last = ctx.faa(a, 1);
        }
        last
    };
    let (_, v_msi) = run_counting(false, 4, body);
    let (_, v_mesi) = run_counting(true, 4, body);
    let max_msi = v_msi.iter().max().unwrap();
    let max_mesi = v_mesi.iter().max().unwrap();
    assert_eq!(max_msi, max_mesi, "both protocols conserve all increments");
    assert_eq!(*max_mesi, 4 * 50 - 1);
}

#[test]
fn transactions_work_over_exclusive_lines() {
    let (report, vals) = run_counting(true, 1, |ctx, a| {
        let _ = ctx.read(a + 4); // E grant (untouched line)
        let r = (|| -> TxResult<u64> {
            ctx.tx_begin()?;
            let v = ctx.tx_read(a + 4)?;
            ctx.tx_write(a + 4, v + 9)?; // buffered over the E line
            ctx.tx_end()?;
            Ok(v)
        })();
        assert!(r.is_ok());
        ctx.read(a + 4)
    });
    assert_eq!(vals[0], 9);
    assert_eq!(report.stats.tx_commits, 1);
    // Only the bootstrap's 4 setup writes issue GetMs; the transaction's
    // write upgrades the Exclusive line silently.
    assert_eq!(report.stats.msg("GetM"), 4, "no upgrade traffic needed");
}
