//! The figure registry: every figure renders byte-identically for any
//! worker count (each sweep point is one simulation, joined in
//! submission order), and its default scale is the paper-shaped sweep.
//! Tiny scale knobs keep this suite fast — the figures are
//! simulated-time measurements, so shrinking `ops` changes the values
//! but not the determinism being pinned.

use bench::fig::{Figure, NUMA_GRID};

const OPS: Option<u64> = Some(4);
const THREADS: Option<&[usize]> = Some(&[1, 3]);
const GRID: Option<&[(usize, usize)]> = Some(&[(1, 2), (2, 4)]);

#[test]
fn every_figure_is_byte_identical_across_worker_counts() {
    for fig in Figure::ALL {
        // Four workers exceed most figures' point counts: the pool
        // clamps, the bytes still match.
        let serial = fig.text(OPS, THREADS, GRID, 1);
        let parallel = fig.text(OPS, THREADS, GRID, 4);
        assert_eq!(serial, parallel, "{}", fig.name());
        assert!(serial.starts_with("# "), "{}: no title", fig.name());
        let sweep = [
            Figure::Fig1,
            Figure::Fig5,
            Figure::Fig6,
            Figure::Fig7,
            Figure::AblateDeq,
        ];
        if sweep.contains(&fig) {
            // Title, header, one row per thread count.
            assert_eq!(serial.lines().count(), 2 + 2, "{}", fig.name());
        }
    }
}

/// A figure's name, default ops and default thread sweep.
type Defaults = (&'static str, Option<u64>, Option<&'static [usize]>);

#[test]
fn defaults_are_the_paper_sweeps() {
    const SWEEP: &[usize] = &[1, 2, 4, 8, 12, 16, 22, 28, 36, 44];
    let expected: [Defaults; 12] = [
        ("fig1", Some(300), Some(SWEEP)),
        ("fig2", None, None),
        ("fig3", None, None),
        ("fig5", Some(200), Some(SWEEP)),
        ("fig6", Some(200), Some(SWEEP)),
        ("fig7", Some(200), Some(SWEEP)),
        ("speedups", Some(200), Some(SWEEP)),
        ("ablate-delay", Some(200), Some(&[22])),
        ("ablate-fix", Some(150), None),
        ("ablate-basket", Some(200), Some(&[16])),
        ("ablate-deq", Some(150), Some(&[2, 8, 16, 32, 44])),
        ("numa", Some(120), None),
    ];
    for (fig, (name, ops, threads)) in Figure::ALL.into_iter().zip(expected) {
        assert_eq!(fig.name(), name);
        assert_eq!(Figure::parse(name), Some(fig));
        assert_eq!(fig.default_ops(), ops, "{name}");
        assert_eq!(fig.default_threads(), threads, "{name}");
    }
    assert_eq!(Figure::parse("all"), None);
    assert_eq!(NUMA_GRID, &[(1, 44), (2, 88), (4, 176)]);
}

#[test]
fn single_width_figures_run_at_the_last_given_thread_count() {
    let speedups = Figure::Speedups.text(OPS, THREADS, None, 2);
    assert!(speedups.contains("\nproducer-only\t3\t"), "{speedups}");
    assert!(speedups.contains("\nmixed\t6\t"), "{speedups}");
    let delay = Figure::AblateDelay.text(OPS, THREADS, None, 2);
    assert!(delay.starts_with("# Ablation: TxCAS intra-transaction delay at 3 threads"));
    let basket = Figure::AblateBasket.text(OPS, THREADS, None, 2);
    assert!(
        basket.starts_with("# Ablation: basket capacity vs SBQ-HTM enqueue latency at 3 threads")
    );
}
