//! The RTM-style combinators of `absmem::txn` (`transaction`, `nested`)
//! over the simulator's `HtmOps` implementation: commit values, explicit
//! aborts and their roll-back, the NESTED status bit, and back-to-back
//! transactions.

use absmem::txn::{self, nested, transaction, HtmOps};
use absmem::ThreadCtx;
use coherence::{Machine, MachineConfig, Program, SimCtx};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

fn run1(f: impl FnOnce(&mut SimCtx, u64) -> u64 + Send + 'static) -> u64 {
    let cfg = MachineConfig::single_socket(1);
    let shared = Arc::new(AtomicU64::new(0));
    let out = Arc::new(Mutex::new(0u64));
    let (s2, o2) = (Arc::clone(&shared), Arc::clone(&out));
    Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(1);
            ctx.write(a, 0);
            s2.store(a, SeqCst);
        }),
        vec![Box::new(move |ctx: &mut SimCtx| {
            let a = shared.load(SeqCst);
            *o2.lock().unwrap() = f(ctx, a);
        }) as Program],
    );
    let v = *out.lock().unwrap();
    v
}

#[test]
fn transaction_commits_and_returns_body_value() {
    let v = run1(|ctx, a| {
        let r = transaction(ctx, |ctx| {
            let v = ctx.tx_read(a)?;
            ctx.tx_write(a, v + 5)?;
            Ok(v + 100)
        });
        assert_eq!(r, Ok(100));
        ctx.read(a)
    });
    assert_eq!(v, 5);
}

#[test]
fn explicit_abort_reports_status_and_rolls_back() {
    let v = run1(|ctx, a| {
        let r: Result<(), u32> = transaction(ctx, |ctx| {
            ctx.tx_write(a, 77)?;
            Err(ctx.tx_abort(9))
        });
        let status = r.unwrap_err();
        assert!(txn::is_explicit(status));
        assert_eq!(txn::code(status), 9);
        ctx.read(a)
    });
    assert_eq!(v, 0, "write rolled back");
}

#[test]
fn nested_abort_carries_nested_bit_to_top_level() {
    let _ = run1(|ctx, a| {
        let r: Result<(), u32> = transaction(ctx, |ctx| {
            nested(ctx, |ctx| {
                let v = ctx.tx_read(a)?;
                if v == 0 {
                    return Err(ctx.tx_abort(1));
                }
                Ok(())
            })?;
            ctx.tx_write(a, 1)?;
            Ok(())
        });
        let status = r.unwrap_err();
        assert!(txn::is_nested(status), "abort was inside the nested txn");
        assert!(txn::is_explicit(status));
        0
    });
}

#[test]
fn abort_after_nested_commit_is_not_nested() {
    let _ = run1(|ctx, a| {
        let r: Result<(), u32> = transaction(ctx, |ctx| {
            nested(ctx, |ctx| {
                ctx.tx_read(a)?;
                Ok(())
            })?;
            // Abort in the main transaction, after the nested commit.
            Err(ctx.tx_abort(2))
        });
        let status = r.unwrap_err();
        assert!(
            !txn::is_nested(status),
            "abort happened outside the nested region"
        );
        0
    });
}

#[test]
fn sequential_transactions_are_independent() {
    let v = run1(|ctx, a| {
        for _ in 0..10 {
            let r = transaction(ctx, |ctx| {
                let v = ctx.tx_read(a)?;
                ctx.tx_write(a, v + 1)?;
                Ok(())
            });
            assert!(r.is_ok());
        }
        ctx.read(a)
    });
    assert_eq!(v, 10);
}
