//! Exact-equivalence sweep between the one decoder driver
//! (`FixedLagDecoder`, here through its batch helper `decode` on the
//! exact kernel) and the retained naive reference (`viterbi_reference`).
//!
//! The driver's contract is *bit-for-bit* identity: the same
//! floating-point operations in the same order for every candidate that
//! can change a kept score (the kernel skips the rest only on a proof),
//! same canonical beam order, same membership/pruning rules. Each sweep
//! below draws randomized grids, rigs, and observation sequences from
//! `derive_seed_indexed(BASE_SEED, label, i)` (the `tests/properties.rs`
//! convention — every failing case is reproducible from its printed
//! (label, index, seed)) and asserts the two decoders return identical
//! tracks, comparing `f64::to_bits`, not approximate distance.
//!
//! Coverage deliberately includes the awkward paths: inconsistent-step
//! carry-through (min_dist > max_dist), frontier collapse (annulus
//! pushed entirely off-board), tiny beam widths (`beam_width < 8`
//! engages the clamp), still steps (no direction), and hyperbola
//! measurements (exercising the emission table against direct
//! recomputation). A last sweep drives the exact kernel's shortcuts —
//! the per-step emission memo, the dominated-candidate skip and its
//! weight guard, the `hypot`-only-at-the-boundary reach test — onto
//! their edges.

use polardraw_core::distance::{expected_dtheta21, FeasibleRegion};
use polardraw_core::hmm::{
    viterbi_reference, DecodeStats, FixedLagDecoder, Grid, HmmConfig, KernelOptions,
    KernelPrecision, StepObservation,
};
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

/// A randomized decode scenario, kept small enough (≤ ~40×40 cells)
/// that the whole sweep stays a release-mode few-seconds job.
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
            // A plausible measurement: the expected value at a random
            // board point, plus noise.
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
            "{ctx}: point {k} differs: optimized {a:?} vs reference {b:?}"
        );
    }
}

fn decode(sc: &Scenario, kernel: KernelOptions) -> (Vec<Vec2>, DecodeStats) {
    FixedLagDecoder::decode(
        &sc.grid, sc.antennas, sc.start, &sc.steps, &sc.config, sc.beam_width, kernel,
    )
}

fn run_case(sc: &Scenario, ctx: &str) {
    let (fast, _) = decode(sc, KernelOptions::exact());
    let slow =
        viterbi_reference(&sc.grid, sc.antennas, sc.start, &sc.steps, &sc.config, sc.beam_width);
    assert_tracks_identical(&fast, &slow, ctx);
}

/// The main sweep: 160 randomized scenarios across grid sizes, rigs,
/// beam widths (including the `< 8` clamp region), mixed observation
/// kinds. Exceeds the ≥128-case floor.
#[test]
fn optimized_decoder_matches_reference_exactly() {
    sweep("viterbi_equivalence", 160, |rng, ctx| {
        let sc = random_scenario(rng, &[1, 5, 8, 16, 64, 256, 2500]);
        run_case(&sc, ctx);
    });
}

/// Inconsistent steps (empty annulus: min_dist > max_dist, or a lower
/// bound beyond every reachable cell) must take the carry-through path
/// in both decoders and still agree bit-for-bit afterwards.
#[test]
fn carry_through_steps_stay_equivalent() {
    sweep("viterbi_carry_through", 128, |rng, ctx| {
        let mut sc = random_scenario(rng, &[8, 32, 128]);
        // Corrupt 1–3 steps into infeasibility.
        let n_bad = 1 + rng.gen_index(3.min(sc.steps.len()));
        for _ in 0..n_bad {
            let k = rng.gen_index(sc.steps.len());
            if rng.gen_bool(0.5) {
                // min > max: the hard bound rejects every candidate.
                sc.steps[k].region =
                    FeasibleRegion { min_dist: 0.5, max_dist: sc.grid.cell_m };
            } else {
                // Huge lower bound with matching upper bound: annulus
                // wider than the whole board.
                sc.steps[k].region = FeasibleRegion { min_dist: 5.0, max_dist: 6.0 };
            }
        }
        run_case(&sc, ctx);
        // And the carry is actually exercised:
        let (_, stats) = decode(&sc, KernelOptions::exact());
        assert!(stats.carried_steps >= 1, "{ctx}: expected at least one carried step");
    });
}

/// Degenerate beam widths: `beam_width` 0 and 1 engage the `max(8)`
/// clamp; equivalence must hold through it.
#[test]
fn tiny_beam_widths_stay_equivalent() {
    sweep("viterbi_tiny_beam", 64, |rng, ctx| {
        let sc = random_scenario(rng, &[0, 1, 2, 7]);
        run_case(&sc, ctx);
    });
}

/// Intra-step-parallel expansion (SoA frontier split into contiguous
/// chunks, merged in chunk index order): threads 1/2/8 must be
/// bit-identical to the single-threaded SoA path — tracks AND work
/// counters — in both precisions. The corner cases ride along:
/// collapse (annulus off-board), carry-through (min > max), and tiny
/// beams (the `< 8` clamp).
#[test]
fn intra_step_parallel_expansion_is_bit_identical() {
    sweep("viterbi_intra_step_parallel", 96, |rng, ctx| {
        let mut sc = random_scenario(rng, &[0, 2, 8, 64, 2500]);
        // A third of the cases cross the degenerate paths while
        // chunked: corrupt 1–2 steps into infeasibility.
        if rng.gen_bool(0.33) {
            for _ in 0..1 + rng.gen_index(2.min(sc.steps.len())) {
                let k = rng.gen_index(sc.steps.len());
                sc.steps[k].region = if rng.gen_bool(0.5) {
                    FeasibleRegion { min_dist: 0.5, max_dist: sc.grid.cell_m }
                } else {
                    FeasibleRegion { min_dist: 5.0, max_dist: 6.0 }
                };
            }
        }
        for precision in [KernelPrecision::F64Exact, KernelPrecision::F32Tolerance] {
            let base = KernelOptions { precision, adaptive: None, threads: 1 };
            let (want, want_stats) = decode(&sc, base);
            if precision == KernelPrecision::F64Exact {
                // The sequential SoA baseline itself is the reference.
                let slow = viterbi_reference(
                    &sc.grid, sc.antennas, sc.start, &sc.steps, &sc.config, sc.beam_width,
                );
                assert_tracks_identical(&want, &slow, &format!("{ctx} [f64 baseline]"));
            }
            for threads in [2usize, 8] {
                let (got, got_stats) = decode(&sc, base.with_threads(threads));
                let tctx = format!("{ctx} [{precision:?} threads {threads}]");
                assert_tracks_identical(&got, &want, &tctx);
                assert_eq!(got_stats, want_stats, "{tctx}: work counters differ");
            }
        }
    });
}

/// An annulus bound snapped onto one of the stencil's ideal ring
/// distances (`k·cell` or `hypot(dx, dy)·cell`), nudged by 0, ±1 ULP or
/// ±1e-10 m — where a candidate's exact centre distance and its ideal
/// distance can fall on opposite sides of the bound.
fn snapped_ring(rng: &mut Rng64, cell_m: f64) -> f64 {
    let ring = if rng.gen_bool(0.5) {
        rng.gen_index(5) as f64 * cell_m
    } else {
        f64::hypot(rng.gen_index(5) as f64, rng.gen_index(5) as f64) * cell_m
    };
    match rng.gen_index(5) {
        0 => ring,
        1 => ring.next_up(),
        2 => ring.next_down(),
        3 => ring + 1e-10,
        _ => ring - 1e-10,
    }
}

/// The exact kernel's shortcuts, driven onto their edges: annulus
/// bounds snapped onto ideal ring distances (the exact-`hypot`
/// boundary re-check), boards far from the origin (centre distances
/// drift from the ideal by more ULPs), zero, negative and NaN score
/// weights (a negative or NaN one disables the dominated-candidate
/// skip), and non-finite Δθ²¹ measurements. Tracks must match
/// `viterbi_reference` bit for bit at threads 1 and 3.
#[test]
fn kernel_shortcut_edges_stay_equivalent() {
    sweep("viterbi_kernel_edges", 160, |rng, ctx| {
        let mut sc = random_scenario(rng, &[8, 64, 2500]);
        if rng.gen_bool(0.5) {
            // Move the whole rig, measurements and all, up to 1 km out.
            let shift = Vec2::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3));
            sc.grid.min += shift;
            sc.start += shift;
            for a in sc.antennas.iter_mut() {
                *a = Vec3::new(a.x + shift.x, a.y + shift.y, a.z);
            }
        }
        let weight = |rng: &mut Rng64, w: f64| match rng.gen_index(6) {
            0 => 0.0,
            1 => -w,
            2 => f64::NAN,
            _ => w,
        };
        if rng.gen_bool(0.6) {
            let c = &mut sc.config;
            c.hyperbola_weight = weight(rng, c.hyperbola_weight);
            c.direction_weight = weight(rng, c.direction_weight);
            c.backward_penalty = weight(rng, c.backward_penalty);
            c.distance_weight = weight(rng, c.distance_weight);
            c.distance_weight_still = weight(rng, c.distance_weight_still);
        }
        let cell_m = sc.grid.cell_m;
        for obs in sc.steps.iter_mut() {
            if rng.gen_bool(0.7) {
                // The reach test is `d > max_dist + 1e-12`, so the
                // snapped ring sits either on `max_dist` or on the reach.
                let shave = if rng.gen_bool(0.5) { 1e-12 } else { 0.0 };
                obs.region.max_dist = snapped_ring(rng, cell_m).max(cell_m) - shave;
            }
            if rng.gen_bool(0.7) {
                // The hard lower bound is `min_dist − 2·cell`.
                obs.region.min_dist = snapped_ring(rng, cell_m) + 2.0 * cell_m;
            }
            if rng.gen_bool(0.15) {
                obs.dtheta21 = Some([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_index(3)]);
            }
        }
        let slow = viterbi_reference(
            &sc.grid,
            sc.antennas,
            sc.start,
            &sc.steps,
            &sc.config,
            sc.beam_width,
        );
        for threads in [1usize, 3] {
            let (got, _) = decode(&sc, KernelOptions::exact().with_threads(threads));
            assert_tracks_identical(&got, &slow, &format!("{ctx} [threads {threads}]"));
        }
    });
}
