//! `letters-exact` and `letters-fast`: one closed-loop client writes the
//! letters A–Z, again and again, each letter with its own seeded writer,
//! on the default two-antenna rig at paper fidelity (2.5 mm grid).
//!
//! Each letter runs the production path a live whiteboard runs:
//! `simulate_reports` → `OnlineTracker::push` per report (lag 64, hold
//! 2) → `finalize` → `LetterRecognizer::classify`. The two workloads
//! differ only in the decode kernel tier.

use crate::cpu::Rotor;
use crate::report::{add_decode_stats, peak_rss_mb, Outcome, Value, SETUP_REPS_PER_CPU};
use crate::stats::{Digest, Samples};
use crate::trace::Tracer;
use experiments::setup::{polardraw_config_for, simulate_reports, TrialSetup};
use polardraw_core::hmm::{artifacts_for, rotate_trajectory, DecodeStats, Grid, KernelOptions};
use polardraw_core::{OnlineOptions, OnlineTracker, PolarDrawConfig, TrackOutput};
use recognition::{procrustes_distance, LetterRecognizer};
use rf_core::rng::derive_seed_indexed;
use rf_core::Vec2;
use std::time::{Duration, Instant};

/// A decoder step must finish within one 50 ms pre-processing window
/// for the live trail to keep up with the pen (the paper's real-time
/// claim, §3.5).
pub const WINDOW_MS: f64 = 50.0;

/// The output digest and the letter-quality figures cover this many
/// letters from the start of the sequence, one full alphabet, so runs
/// of different length with the same seed compare bit for bit.
const QUALITY_LETTERS: usize = 26;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Exact,
    Fast,
}

impl Tier {
    fn kernel(self) -> KernelOptions {
        match self {
            Tier::Exact => KernelOptions::exact(),
            Tier::Fast => KernelOptions::fast(),
        }
    }
}

/// Set-up times of every repetition of a run.
struct SetUpTimes {
    /// Per CPU of the rotor.
    setup_s: Vec<Samples>,
    artifacts_ms: Samples,
}

/// Build the rig's decode artifacts, the tier's emission table and the
/// recognizer's templates. The artifact cache is process-wide and keeps
/// what it built, so repetition `rep` > 0 sees a board shifted by `rep`
/// nanometres: a new cache key with the same table size, that is, a
/// cold start on a new rig.
fn set_up(
    tier: Tier,
    cfg: &PolarDrawConfig,
    rep: usize,
    rotor: &Rotor,
    times: &mut SetUpTimes,
) -> LetterRecognizer {
    let shift = Vec2::new(rep as f64 * 1e-9, 0.0);
    let grid = Grid::covering(cfg.board_min + shift, cfg.board_max + shift, cfg.hmm.cell_m);
    let t0 = Instant::now();
    let arts = artifacts_for(&grid, cfg.antennas, cfg.hmm.wavelength_m);
    match tier {
        Tier::Exact => drop(std::hint::black_box(arts.emission())),
        Tier::Fast => drop(std::hint::black_box(arts.emission_f32())),
    }
    let t1 = Instant::now();
    let recognizer = LetterRecognizer::new();
    let t2 = Instant::now();
    times.setup_s[rotor.slot()].push((t2 - t0).as_secs_f64());
    times.artifacts_ms.push((t1 - t0).as_secs_f64() * 1e3);
    recognizer
}

/// Timings and counts accumulated over every letter of a run.
#[derive(Default)]
struct Pass {
    letters: usize,
    failed: usize,
    /// Summed wall time of the untraced and of the traced letters,
    /// simulate to classify.
    letter_s: [f64; 2],
    /// Pushes that advanced the decoder, the live-trail latency, per
    /// CPU of the rotor.
    step_ms: Vec<Samples>,
    /// Pushes that closed no window; kept only for the per-layer
    /// metrics, since half a million samples a run would show in
    /// `peak_rss_mb` and grow with the host's speed.
    buffer_push_ns: Option<Samples>,
    step_busy_ns: f64,
    finish_ms: Samples,
    finalize_ms: Samples,
    classify_ms: Samples,
    sim_ms: Samples,
    reports: usize,
    windows: usize,
    late_dropped: usize,
    stats: DecodeStats,
}

/// Outputs of the first `QUALITY_LETTERS` letters of one pass: a
/// deterministic function of the seed and the program.
#[derive(Default)]
struct Quality {
    digest: Digest,
    letters: usize,
    recognized: usize,
    procrustes_mm: Samples,
}

impl Quality {
    fn note(&self, out: &mut Outcome) {
        out.note(format!(
            "digest letters={} {} accuracy={:.4} procrustes_p50_mm={:?}",
            self.letters,
            self.digest.hex(),
            self.recognized as f64 / self.letters.max(1) as f64,
            self.procrustes_mm.quantile(0.5),
        ));
    }
}

/// The trail is non-empty, finite, and on the board: with finalize's
/// global rotation correction (at most 25° about the first point)
/// undone, every point lies inside the board the decoder searched.
fn trail_ok(out: &TrackOutput, cfg: &PolarDrawConfig) -> bool {
    let trail = &out.trail;
    let decoded = rotate_trajectory(&trail.points, -out.initial_azimuth_error);
    !trail.points.is_empty()
        && trail.times.iter().all(|t| t.is_finite())
        && decoded.iter().all(|p| {
            (cfg.board_min.x..=cfg.board_max.x).contains(&p.x)
                && (cfg.board_min.y..=cfg.board_max.y).contains(&p.y)
        })
}

/// Run letters from the start of the seeded sequence until `seconds`
/// have passed and at least one alphabet is done; the letter in flight
/// when time runs out completes. A traced run writes each letter twice,
/// untraced and traced, so that the host's drift cancels out of the
/// tracing overhead. Returns the quality of the untraced and the traced
/// letters.
fn measure(
    tier: Tier,
    cfg: &PolarDrawConfig,
    recognizer: &LetterRecognizer,
    (seed, seconds): (u64, f64),
    rotor: &mut Rotor,
    tr: &mut Tracer,
    pass: &mut Pass,
) -> [Quality; 2] {
    let options = OnlineOptions::default().with_kernel(tier.kernel());
    let repeats = if tr.enabled() { 2 } else { 1 };
    let mut quality = [Quality::default(), Quality::default()];
    let begin = Instant::now();
    let mut i = 0usize;
    pass.step_ms.resize(rotor.len(), Samples::default());
    while i < QUALITY_LETTERS || begin.elapsed().as_secs_f64() < seconds {
        let ch = pen_sim::glyph::ALPHABET[i % 26];
        let setup = TrialSetup::letter(ch);
        let letter_seed = derive_seed_indexed(seed, "polarbench.letter", i as u64);
        let group = i as u64;
        // Each alphabet starts on the next CPU, so every letter visits
        // every CPU.
        rotor.pin_for(i + i / 26);

        for repeat in 0..repeats {
            // A letter's second repeat runs on warm caches and a primed
            // allocator, so traced and untraced take turns going first.
            let traced = (repeat + i) % repeats;
            tr.set_recording(traced == 1);
            let letter = tr.open("trace.letter", group);
            let ((truth, reports), sim) =
                tr.call("sim.simulate_reports", group, || simulate_reports(&setup, letter_seed));
            let (mut tracker, _) =
                tr.call("online.new", group, || OnlineTracker::new(*cfg, options));
            for &r in &reports {
                let ((stepped, windowed), d) = tr.call("online.push", group, || {
                    let (s0, w0) = (tracker.steps_so_far().len(), tracker.windows_so_far().len());
                    tracker.push(r);
                    (tracker.steps_so_far().len() > s0, tracker.windows_so_far().len() > w0)
                });
                if stepped {
                    pass.step_ms[rotor.slot()].push(d.as_secs_f64() * 1e3);
                    pass.step_busy_ns += d.as_nanos() as f64;
                } else if let (false, Some(s)) = (windowed, &mut pass.buffer_push_ns) {
                    s.push(d.as_nanos() as f64);
                }
            }
            let late = tracker.late_reports_dropped();
            let (out, fin) = tr.call("finalize.finalize", group, || tracker.finalize());
            let (predicted, cls) =
                tr.call("recognition.classify", group, || recognizer.classify(&out.trail.points));
            let wall = tr.close(letter);

            let check = tr.open("trace.check", group);
            pass.failed += usize::from(!trail_ok(&out, cfg));
            if i < QUALITY_LETTERS {
                let (err_m, _) = tr.call("recognition.procrustes_distance", group, || {
                    procrustes_distance(&truth, &out.trail.points, 64)
                });
                let q = &mut quality[traced];
                q.letters += 1;
                q.recognized += usize::from(predicted == Some(ch));
                if let Some(e) = err_m {
                    q.procrustes_mm.push(e * 1e3);
                }
                q.digest.bytes(&[ch as u8, predicted.map_or(0, |c| c as u8)]);
                for (&t, p) in out.trail.times.iter().zip(&out.trail.points) {
                    q.digest.f64(t);
                    q.digest.f64(p.x);
                    q.digest.f64(p.y);
                }
            }
            tr.close(check);

            pass.letters += 1;
            pass.letter_s[traced] += wall.as_secs_f64();
            pass.finish_ms.push(ms(fin + cls));
            pass.finalize_ms.push(ms(fin));
            pass.classify_ms.push(ms(cls));
            pass.sim_ms.push(ms(sim));
            pass.reports += reports.len();
            pass.windows += out.windows.len();
            pass.late_dropped += late;
            add_decode_stats(&mut pass.stats, &out.decode_stats);
        }
        i += 1;
    }
    quality
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(tier: Tier, seed: u64, seconds: f64, trace: bool) -> Outcome {
    // The HMM board depends only on how many letters are written, so
    // every single-letter trial shares one rig.
    let cfg = polardraw_config_for(&TrialSetup::letter('A'));
    let mut rotor = Rotor::new();
    let mut times = SetUpTimes {
        setup_s: vec![Samples::default(); rotor.len()],
        artifacts_ms: Samples::default(),
    };
    let recognizer = set_up(tier, &cfg, 0, &rotor, &mut times);
    let mut out = if trace {
        traced(tier, &cfg, &recognizer, (seed, seconds), &mut rotor)
    } else {
        plain(tier, &cfg, &recognizer, (seed, seconds), &mut rotor)
    };
    out.peak_rss_mb = peak_rss_mb();
    for rep in 1..=SETUP_REPS_PER_CPU * rotor.len() {
        rotor.pin_for(rep);
        set_up(tier, &cfg, rep, &rotor, &mut times);
    }
    if trace {
        out.layer("hmm.artifacts_ms", Value::quantile(&times.artifacts_ms, 0.5));
    }
    out.setup_s = Value::per_cpu(&times.setup_s, |s| s.quantile(0.5));
    out
}

fn plain(
    tier: Tier,
    cfg: &PolarDrawConfig,
    recognizer: &LetterRecognizer,
    (seed, seconds): (u64, f64),
    rotor: &mut Rotor,
) -> Outcome {
    let mut out = Outcome::new();
    let mut p = Pass::default();
    let [quality, _] =
        measure(tier, cfg, recognizer, (seed, seconds), rotor, &mut Tracer::new(false), &mut p);
    quality.note(&mut out);
    out.count(p.letters, p.failed);
    let per_s = p.letters as f64 / p.letter_s[0];
    out.e2e("capacity_per_s", Value::of(per_s, p.letters));
    // Each step figure is the mean over CPUs of that CPU's figure, so a
    // CPU that a neighbour slows for a while moves it by its share only.
    let steps = &p.step_ms;
    let p50 = Value::per_cpu(steps, |s| s.quantile(0.5));
    out.note(format!("live_p50_ms {:?} (n={})", p50.value, p50.samples));
    out.e2e("live_mean_ms", Value::per_cpu(steps, Samples::mean));
    out.e2e("live_p99_ms", Value::per_cpu(steps, |s| s.block_quantile(0.99)));
    out.e2e("realtime_frac", Value::per_cpu(steps, |s| s.frac_within(WINDOW_MS)));
    out.e2e("finish_ms", Value::quantile(&p.finish_ms, 0.5));
    out
}

fn traced(
    tier: Tier,
    cfg: &PolarDrawConfig,
    recognizer: &LetterRecognizer,
    (seed, seconds): (u64, f64),
    rotor: &mut Rotor,
) -> Outcome {
    let mut out = Outcome::new();
    let mut p = Pass { buffer_push_ns: Some(Samples::default()), ..Pass::default() };
    // Per-layer timings pool both repeats of each letter; spans come
    // from the traced repeat.
    let mut tr = Tracer::new(true);
    let [plain, traced] = measure(tier, cfg, recognizer, (seed, seconds), rotor, &mut tr, &mut p);
    if plain.digest.hex() != traced.digest.hex() {
        out.mismatch("traced and untraced letters differ");
    }
    traced.note(&mut out);
    out.count(p.letters, p.failed);
    let overhead = p.letter_s[1] / p.letter_s[0] - 1.0;

    let letters = p.letters as f64;
    out.layer("sim.busy_ms", Value::of(p.sim_ms.sum() / letters, p.letters));
    out.layer("sim.reports", Value::of(p.reports as f64 / letters, p.letters));
    out.layer("online.step_busy_ms", Value::of(p.step_busy_ns / 1e6 / letters, p.letters));
    let pushes = p.buffer_push_ns.unwrap_or_default();
    out.layer("online.buffer_push_ns_p50", Value::quantile(&pushes, 0.5));
    out.layer("online.windows", Value::of(p.windows as f64 / letters, p.letters));
    out.layer("online.steps", Value::of(p.stats.steps as f64 / letters, p.letters));
    out.layer("online.late_dropped", Value::of(p.late_dropped as f64, p.letters));
    out.decode_metrics(&p.stats, p.reports);
    let per_expansion = p.step_busy_ns / p.stats.expansions.max(1) as f64;
    out.layer("hmm.ns_per_expansion", Value::of(per_expansion, p.stats.steps));
    out.layer("finalize.busy_ms", Value::quantile(&p.finalize_ms, 0.5));
    out.layer("recognition.classify_ms", Value::quantile(&p.classify_ms, 0.5));
    let accuracy = traced.recognized as f64 / traced.letters.max(1) as f64;
    out.layer("recognition.letter_accuracy", Value::of(accuracy, traced.letters));
    out.layer("recognition.procrustes_p50_mm", Value::quantile(&traced.procrustes_mm, 0.5));
    out.layer("trace.overhead_frac", Value::of(overhead, p.letters));
    out.trace_summary(&tr, "trace.letter");
    out.tracer = Some(tr);
    out
}
