//! Emission-grid kernel gates (tier-1, named in scripts/verify.sh).
//!
//! The decoder's Δθ emission tables are built by the row kernels behind
//! `polardraw_core::distance::{DthetaRowKernel, DthetaRowKernelF32}`.
//! Two contracts are pinned here:
//!
//! 1. **f64 bitwise** — `EmissionTable::build` reproduces the per-cell
//!    spec `expected_dtheta21(grid.center(idx))` bit for bit, at worker
//!    counts 1/2/8.
//! 2. **f32 tier by tolerance oracle** — the direct `f32` emission
//!    build (`EmissionTableF32::build_direct`) is gated quantitatively:
//!    wrap-aware per-cell deltas vs the cast-of-f64 spec, bit-identical
//!    across worker counts, plus fig13 reduced-config letter-accuracy
//!    parity with the exact kernel.
//!
//! The forward model itself (`ChannelModel::evaluate`) is pinned by the
//! rf-physics physics-law unit tests, tests/channel_equivalence.rs and
//! the golden traces.

use experiments::setup::{polardraw_config_for, simulate_reports, TrialSetup};
use polardraw_core::distance::expected_dtheta21;
use polardraw_core::hmm::{
    artifacts_for, EmissionTable, EmissionTableF32, Grid, KernelOptions,
};
use polardraw_core::{OnlineOptions, OnlineTracker};
use recognition::LetterRecognizer;
use rf_core::rng::derive_seed_indexed;
use rf_core::{wrap_pi, Vec2, Vec3};

// ---------------------------------------------------------------------
// 1. Emission builds on the row kernels: bitwise at every worker count.
// ---------------------------------------------------------------------

fn paper_rig() -> ([Vec3; 2], Grid) {
    let antennas = [Vec3::new(-0.28, 0.15, 0.65), Vec3::new(0.28, 0.15, 0.65)];
    let grid = Grid::covering(Vec2::new(-0.45, 0.35), Vec2::new(0.45, 1.05), 0.01);
    (antennas, grid)
}

#[test]
fn emission_build_is_bitwise_vs_per_cell_spec_at_all_worker_counts() {
    let (antennas, grid) = paper_rig();
    let lambda = 0.3276;
    let seq = EmissionTable::build(&grid, antennas, lambda, 1);
    for idx in 0..grid.len() {
        let want = expected_dtheta21(grid.center(idx), antennas, lambda);
        assert_eq!(want.to_bits(), seq.expected(idx).to_bits(), "cell {idx}");
    }
    for workers in [2, 8] {
        let par = EmissionTable::build(&grid, antennas, lambda, workers);
        for idx in 0..grid.len() {
            assert_eq!(
                seq.expected(idx).to_bits(),
                par.expected(idx).to_bits(),
                "workers {workers} cell {idx}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 2. The f32 tier: tolerance oracle (emission deltas + letter parity).
// ---------------------------------------------------------------------

#[test]
fn f32_direct_emission_build_stays_in_tolerance_and_is_thread_deterministic() {
    let (antennas, grid) = paper_rig();
    let lambda = 0.3276;
    let exact = EmissionTable::build(&grid, antennas, lambda, 1);
    let cast = EmissionTableF32::from_table(&exact);
    let direct = EmissionTableF32::build_direct(&grid, antennas, lambda, 1);
    let mut worst = 0.0f64;
    for idx in 0..grid.len() {
        let delta = wrap_pi(direct.expected(idx) as f64 - cast.expected(idx) as f64).abs();
        worst = worst.max(delta);
        assert!(delta <= 1e-4, "cell {idx}: |Δ| = {delta} vs the cast spec");
    }
    println!("f32 direct-vs-cast worst wrap-aware delta: {worst:.3e} rad");
    for workers in [2, 8] {
        let par = EmissionTableF32::build_direct(&grid, antennas, lambda, workers);
        for idx in 0..grid.len() {
            assert_eq!(
                direct.expected(idx).to_bits(),
                par.expected(idx).to_bits(),
                "workers {workers} cell {idx}"
            );
        }
    }
}

fn track_with_kernel(setup: &TrialSetup, seed: u64, kernel: KernelOptions) -> Vec<Vec2> {
    let (_, reports) = simulate_reports(setup, seed);
    let cfg = polardraw_config_for(setup);
    let mut online = OnlineTracker::new(cfg, OnlineOptions::batch().with_kernel(kernel));
    online.extend(&reports);
    online.finalize().trail.points
}

/// The end-to-end oracle for the f32 grid tier (same shape as the
/// kernel oracle in tests/kernel_equivalence.rs):
/// with the fig13 reduced config's shared artifact entry prewarmed by
/// the *direct* f32 build (so the fast kernel decodes against
/// direct-built tables, not the cast), letter accuracy must hold parity
/// with the exact kernel up to the usual one-trial slack.
#[test]
fn f32_direct_letter_accuracy_parity_on_reduced_fig13() {
    const LETTERS: [char; 8] = ['C', 'I', 'L', 'N', 'O', 'S', 'U', 'Z'];
    // One rig serves every letter at this fidelity; win its f32 slot
    // with the direct build before any tracker resolves it.
    let cfg = polardraw_config_for(&TrialSetup::letter('L').with_cell_scale(8.0));
    let grid = Grid::covering(cfg.board_min, cfg.board_max, cfg.hmm.cell_m);
    let arts = artifacts_for(&grid, cfg.antennas, cfg.hmm.wavelength_m);
    assert!(
        arts.prewarm_f32_direct(2),
        "direct f32 build must win the artifact slot before any decode"
    );

    let rec = LetterRecognizer::new();
    let mut exact_correct = 0usize;
    let mut fast_correct = 0usize;
    let mut total = 0usize;
    for (i, ch) in LETTERS.into_iter().enumerate() {
        for t in 0..2u64 {
            let seed = derive_seed_indexed(42, "fig13_parity", i as u64 * 10 + t);
            let setup = TrialSetup::letter(ch).with_cell_scale(8.0);
            let exact = track_with_kernel(&setup, seed, KernelOptions::exact());
            let fast = track_with_kernel(&setup, seed, KernelOptions::fast());
            exact_correct += usize::from(rec.classify(&exact) == Some(ch));
            fast_correct += usize::from(rec.classify(&fast) == Some(ch));
            total += 1;
        }
    }
    println!(
        "fig13 direct-f32 parity: exact {exact_correct}/{total}, fast {fast_correct}/{total}"
    );
    assert!(
        fast_correct + 1 >= exact_correct,
        "direct f32 tables lost letter accuracy: {fast_correct}/{total} vs exact \
         {exact_correct}/{total}"
    );
}
