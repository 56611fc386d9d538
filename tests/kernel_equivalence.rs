//! Equivalence-testing harness for the vectorized beam kernels
//! (tier-1, named in scripts/verify.sh).
//!
//! The decoder now has two precision contracts (see `KernelOptions` in
//! `polardraw_core::hmm`), and this file is where each is enforced:
//!
//! * **`F64Exact` — bit-for-bit.** The SoA frontier, chunked intra-step
//!   parallel expansion, and scratch plumbing must not change a single
//!   bit of the output relative to `viterbi_reference`, at any thread
//!   count. Checked by `to_bits` comparison over derived-seed sweeps.
//! * **`F32Tolerance` — quantitative oracle, not bitwise.** Dropping to
//!   f32 tables rounds every transition/emission term, so bitwise
//!   identity is impossible by construction. Instead the path is gated
//!   by three observable bounds:
//!   1. *per-step best-frontier score deltas* — even when near-ties
//!      resolve differently, the winning score is stable: the f32 best
//!      is within rounding accumulation of the f64 best every step;
//!   2. *final-trail Procrustes distance* between the f32 and exact
//!      trails on real simulated glyph streams;
//!   3. *letter-accuracy parity* on the fig13 reduced config (the
//!      golden suite snapshots the same table; here it is asserted).
//!
//! Every sweep draws from `derive_seed_indexed(BASE_SEED, label, i)`
//! (the `tests/properties.rs` convention), so a failing case is
//! reproducible from its printed (label, index, seed).

use experiments::setup::{polardraw_config_for, simulate_reports, TrialSetup};
use polardraw_core::distance::{expected_dtheta21, FeasibleRegion};
use polardraw_core::hmm::{
    viterbi_reference, FixedLagDecoder, Grid, HmmConfig, KernelOptions, KernelPrecision,
    StepObservation,
};
use polardraw_core::{OnlineOptions, OnlineTracker, PolarDrawConfig};
use recognition::{procrustes_distance, LetterRecognizer};
use rf_core::rng::{derive_seed_indexed, Rng64};
use rf_core::{Vec2, Vec3};

/// Root seed, shared with `tests/properties.rs`.
const BASE_SEED: u64 = 42;

fn sweep<F: FnMut(&mut Rng64, &str)>(label: &str, cases: usize, mut body: F) {
    for i in 0..cases {
        let seed = derive_seed_indexed(BASE_SEED, label, i as u64);
        let mut rng = Rng64::from_seed(seed);
        let ctx = format!("{label} case {i} (seed {seed:#018x})");
        body(&mut rng, &ctx);
    }
}

/// A randomized decode scenario (same shape as
/// `tests/decoder_equivalence.rs`): small grids, randomized rigs,
/// mixed observation kinds.
struct Scenario {
    grid: Grid,
    antennas: [Vec3; 2],
    start: Vec2,
    steps: Vec<StepObservation>,
    config: HmmConfig,
    beam_width: usize,
}

fn random_scenario(rng: &mut Rng64, beam_widths: &[usize]) -> Scenario {
    let cell_m = rng.gen_range(0.004..0.02);
    let min = Vec2::new(rng.gen_range(-0.3..0.1), rng.gen_range(0.3..0.6));
    let span = Vec2::new(rng.gen_range(0.05..0.35), rng.gen_range(0.05..0.35));
    let grid = Grid::covering(min, min + span, cell_m);
    let antennas = [
        Vec3::new(rng.gen_range(-0.5..-0.1), rng.gen_range(0.0..0.3), rng.gen_range(0.4..0.8)),
        Vec3::new(rng.gen_range(0.1..0.5), rng.gen_range(0.0..0.3), rng.gen_range(0.4..0.8)),
    ];
    let start = Vec2::new(
        rng.gen_range(min.x..min.x + span.x),
        rng.gen_range(min.y..min.y + span.y),
    );
    let config = HmmConfig { cell_m, ..HmmConfig::default() };
    let n_steps = 3 + rng.gen_index(10);
    let mut steps = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        let min_dist = rng.gen_range(0.0..cell_m * 3.0);
        let max_dist = min_dist + rng.gen_range(cell_m * 0.5..cell_m * 4.0);
        let direction = if rng.gen_bool(0.7) {
            Some(Vec2::from_angle(rng.gen_range(0.0..std::f64::consts::TAU)))
        } else {
            None
        };
        let dtheta21 = if rng.gen_bool(0.6) {
            let p = Vec2::new(
                rng.gen_range(min.x..min.x + span.x),
                rng.gen_range(min.y..min.y + span.y),
            );
            Some(rf_core::wrap_pi(
                expected_dtheta21(p, antennas, config.wavelength_m) + rng.gaussian(0.4),
            ))
        } else {
            None
        };
        let target_dist = rng.gen_range(0.0..max_dist * 1.2);
        steps.push(StepObservation {
            region: FeasibleRegion { min_dist, max_dist },
            direction,
            dtheta21,
            target_dist,
        });
    }
    let beam_width = beam_widths[rng.gen_index(beam_widths.len())];
    Scenario { grid, antennas, start, steps, config, beam_width }
}

fn assert_tracks_identical(fast: &[Vec2], slow: &[Vec2], ctx: &str) {
    assert_eq!(fast.len(), slow.len(), "{ctx}: track lengths differ");
    for (k, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert!(
            a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits(),
            "{ctx}: point {k} differs: kernel {a:?} vs reference {b:?}"
        );
    }
}

// ---------------------------------------------------------------------
// 1. The f64 path: bit-identical to the reference at any thread count.
// ---------------------------------------------------------------------

#[test]
fn exact_kernel_is_bit_identical_to_reference_across_threads() {
    sweep("kernel_exact_threads", 96, |rng, ctx| {
        let sc = random_scenario(rng, &[1, 8, 64, 256, 2500]);
        let want = viterbi_reference(
            &sc.grid, sc.antennas, sc.start, &sc.steps, &sc.config, sc.beam_width,
        );
        for threads in [1usize, 2, 8] {
            let kernel = KernelOptions::exact().with_threads(threads);
            let (got, _) = FixedLagDecoder::decode(
                &sc.grid, sc.antennas, sc.start, &sc.steps, &sc.config, sc.beam_width, kernel,
            );
            assert_tracks_identical(&got, &want, &format!("{ctx} threads {threads}"));
        }
    });
}

/// The decoder's work counters on the headline stream (the `decode`
/// bench's 100-step synthetic observations, default board at 2.5 mm,
/// beam 2500), pinned exactly on both kernel tiers. They are a pure
/// function of input and kernel, so any change here is a change in what
/// the decoder does, not noise — `BENCH_decode.json` carries the same
/// figures in its notes.
#[test]
fn headline_work_counters_are_pinned_on_both_tiers() {
    let cfg = PolarDrawConfig::default();
    let hmm = HmmConfig::default();
    let grid = Grid::covering(cfg.board_min, cfg.board_max, 0.0025);
    let steps: Vec<StepObservation> = (0..100)
        .map(|i| StepObservation {
            region: FeasibleRegion { min_dist: 0.002, max_dist: 0.01 },
            direction: Some(Vec2::from_angle(i as f64 * 0.1)),
            dtheta21: Some(0.3),
            target_dist: 0.004,
        })
        .collect();
    let decode = |kernel| {
        FixedLagDecoder::decode(&grid, cfg.antennas, cfg.start_hint, &steps, &hmm, 2500, kernel).1
    };

    let exact = decode(KernelOptions::exact());
    assert_eq!(exact.steps, 100);
    assert_eq!(exact.expansions, 11_566_744);
    assert_eq!(exact.touched_cells, 316_394);
    assert_eq!(exact.pruned_beam, 77_839);
    assert_eq!(exact.pruned_below_min, 0);
    assert_eq!(exact.total_frontier, 236_056);
    assert_eq!(exact.max_frontier, 2_500);
    assert_eq!(exact.carried_steps, 0);

    let fast = decode(KernelOptions::fast());
    assert_eq!(fast.steps, 100);
    assert_eq!(fast.expansions, 2_688_385);
    assert_eq!(fast.touched_cells, 94_524);
    assert_eq!(fast.pruned_beam, 38_525);
    assert_eq!(fast.total_frontier, 54_865);
    assert_eq!(fast.max_frontier, 1_111);
    assert_eq!(fast.adaptive_shrunk_steps, 99);
}

// ---------------------------------------------------------------------
// 2. The f32 path: per-step best-frontier score deltas stay within the
//    rounding-accumulation tolerance.
// ---------------------------------------------------------------------

fn best_score(frontier: &[(u32, f64)]) -> f64 {
    frontier.iter().map(|&(_, s)| s).fold(f64::NEG_INFINITY, f64::max)
}

/// Even when a near-tie makes the two precisions pick different argmax
/// cells, the *winning score* is stable: the f32 best is bounded by the
/// f64 best plus per-term rounding, accumulated once per step. The
/// bound here (10⁻⁴ absolute per step + 10⁻⁵ relative) is ~100× the
/// worst delta observed across this sweep, but ~1000× smaller than the
/// score scale — a real kernel bug (wrong term, wrong wrap, wrong
/// merge) blows through it immediately.
#[test]
fn f32_per_step_best_scores_stay_within_tolerance() {
    let f32_kernel = KernelOptions {
        precision: KernelPrecision::F32Tolerance,
        adaptive: None,
        threads: 1,
    };
    sweep("kernel_f32_scores", 64, |rng, ctx| {
        let sc = random_scenario(rng, &[16, 64, 256, 2500]);
        let mut exact = FixedLagDecoder::new(
            sc.grid, sc.antennas, sc.start, sc.config, sc.beam_width, usize::MAX,
        );
        let mut fast = FixedLagDecoder::new(
            sc.grid, sc.antennas, sc.start, sc.config, sc.beam_width, usize::MAX,
        );
        fast.set_kernel(f32_kernel);
        for (k, obs) in sc.steps.iter().enumerate() {
            exact.step(obs);
            fast.step(obs);
            let b64 = best_score(&exact.frontier());
            let b32 = best_score(&fast.frontier());
            let tol = 1e-4 * (k + 1) as f64 + 1e-5 * b64.abs();
            let delta = (b64 - b32).abs();
            assert!(
                delta <= tol,
                "{ctx}: step {k} best-score delta {delta:e} > tol {tol:e} \
                 (f64 {b64}, f32 {b32})"
            );
        }
    });
}

/// The chunked f32 expansion must be deterministic too: threads 1/2/8
/// produce bit-identical tracks (the f32 path gives up exactness vs
/// f64, *not* run-to-run determinism).
#[test]
fn f32_kernel_is_deterministic_across_threads() {
    sweep("kernel_f32_threads", 64, |rng, ctx| {
        let sc = random_scenario(rng, &[8, 64, 2500]);
        let base = KernelOptions {
            precision: KernelPrecision::F32Tolerance,
            adaptive: None,
            threads: 1,
        };
        let (want, want_stats) = FixedLagDecoder::decode(
            &sc.grid, sc.antennas, sc.start, &sc.steps, &sc.config, sc.beam_width, base,
        );
        for threads in [2usize, 8] {
            let (got, got_stats) = FixedLagDecoder::decode(
                &sc.grid,
                sc.antennas,
                sc.start,
                &sc.steps,
                &sc.config,
                sc.beam_width,
                base.with_threads(threads),
            );
            assert_tracks_identical(&got, &want, &format!("{ctx} threads {threads}"));
            assert_eq!(got_stats, want_stats, "{ctx} threads {threads}: stats differ");
        }
    });
}

// ---------------------------------------------------------------------
// 3. Real glyph streams: the fast kernel's trail stays Procrustes-close
//    to the exact kernel's trail.
// ---------------------------------------------------------------------

fn track_with_kernel(setup: &TrialSetup, seed: u64, kernel: KernelOptions) -> Vec<Vec2> {
    let (_, reports) = simulate_reports(setup, seed);
    let cfg = polardraw_config_for(setup);
    let mut online = OnlineTracker::new(cfg, OnlineOptions::batch().with_kernel(kernel));
    online.extend(&reports);
    online.finalize().trail.points
}

/// Full pipeline, reduced fidelity (cell_scale 4 ⇒ 1 cm cells): the
/// f32+adaptive trail must stay within 1 cm Procrustes distance of the
/// exact trail — i.e. the precision knob moves the answer by less than
/// one grid cell, far below the paper's ~3 cm tracking-error regime.
#[test]
fn fast_kernel_glyph_trails_stay_procrustes_close_to_exact() {
    for (i, ch) in ['L', 'O', 'V'].into_iter().enumerate() {
        for t in 0..3u64 {
            let seed = derive_seed_indexed(BASE_SEED, "kernel_glyph", i as u64 * 100 + t);
            let setup = TrialSetup::letter(ch).with_cell_scale(4.0);
            let exact = track_with_kernel(&setup, seed, KernelOptions::exact());
            let fast = track_with_kernel(&setup, seed, KernelOptions::fast());
            assert_eq!(exact.len(), fast.len(), "letter {ch} trial {t}: trail lengths");
            let d = procrustes_distance(&exact, &fast, 64)
                .expect("trails are non-degenerate");
            assert!(
                d < 0.01,
                "letter {ch} trial {t} (seed {seed:#018x}): \
                 fast-vs-exact Procrustes {d:.4} m ≥ 1 cm"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 4. Letter-accuracy parity on the fig13 reduced config.
// ---------------------------------------------------------------------

/// The same reduced fidelity the golden fig13 snapshot runs
/// (cell_scale 8): over a letters × seeds panel, the fast kernel must
/// classify at least as many trials correctly as the exact kernel,
/// minus a one-trial slack (a single borderline glyph may flip either
/// way; a systematic accuracy loss may not hide in it).
#[test]
fn fast_kernel_letter_accuracy_parity_on_reduced_fig13() {
    const LETTERS: [char; 8] = ['C', 'I', 'L', 'N', 'O', 'S', 'U', 'Z'];
    let rec = LetterRecognizer::new();
    let mut exact_correct = 0usize;
    let mut fast_correct = 0usize;
    let mut total = 0usize;
    for (i, ch) in LETTERS.into_iter().enumerate() {
        for t in 0..2u64 {
            let seed = derive_seed_indexed(BASE_SEED, "fig13_parity", i as u64 * 10 + t);
            let setup = TrialSetup::letter(ch).with_cell_scale(8.0);
            let exact = track_with_kernel(&setup, seed, KernelOptions::exact());
            let fast = track_with_kernel(&setup, seed, KernelOptions::fast());
            exact_correct += usize::from(rec.classify(&exact) == Some(ch));
            fast_correct += usize::from(rec.classify(&fast) == Some(ch));
            total += 1;
        }
    }
    println!(
        "fig13 reduced-config parity: exact {exact_correct}/{total}, fast {fast_correct}/{total}"
    );
    assert!(
        fast_correct + 1 >= exact_correct,
        "fast kernel lost letter accuracy: {fast_correct}/{total} vs exact \
         {exact_correct}/{total}"
    );
}
