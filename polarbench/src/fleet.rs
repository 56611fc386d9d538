//! `fleet-churn`: an open loop offers a synthetic pen population to a
//! durable `FleetRouter` on a wall-clock schedule.
//!
//! The population is `rfid_sim::traffic`'s default scenario
//! (`TrafficConfig::default()`: a diurnal cycle, two flash crowds,
//! bounded-Pareto writes of 4–90 s, four rigs, 100 Hz per pen) with its
//! day compressed into the run. Every `TICK_S` the generator offers each
//! live pen the reports that fell due since the last tick, re-offers
//! what the router deferred, and drains the router. A `CheckpointStore`
//! is attached with the default `CheckpointPolicy`, and a shard crashes
//! and recovers every [`CRASH_EVERY`] rounds, the mean rate of the chaos
//! soak's `rfid_sim::chaos::ChaosPlan`. The offered load is fixed by the
//! scenario, never derived from the host, so a slower program shows as
//! latency, not as less load.

use crate::cpu::Rotor;
use crate::report::{add_decode_stats, peak_rss_mb, Outcome, Value, SETUP_REPS_PER_CPU};
use crate::stats::Samples;
use crate::trace::Tracer;
use experiments::setup::{polardraw_config_for, TrialSetup};
use polardraw_core::durability::CheckpointStore;
use polardraw_core::fleet::{FleetConfig, FleetRouter, FleetSessionId};
use polardraw_core::hmm::DecodeStats;
use polardraw_core::{OnlineOptions, PolarDrawConfig};
use rf_core::rng::derive_seed_indexed;
use rf_core::Vec2;
use rfid_sim::chaos::{ChaosAction, ChaosPlan};
use rfid_sim::traffic::{SessionPlan, TrafficConfig, TrafficModel};
use rfid_sim::TagReport;
use std::time::{Duration, Instant};

/// Tracker grid coarsening, as in `benches/fleet.rs`: per-report decode
/// is cheap, so routing, draining, checkpointing and recovery carry the
/// work.
const COARSEN: f64 = 8.0;

/// Antenna standoff of each of the scenario's four rigs; each standoff
/// is its own shard key.
const STANDOFFS_M: [f64; 4] = [0.60, 0.65, 0.70, 0.75];

/// Generator period: one offer-and-drain round per 50 ms
/// pre-processing window, the unit the tracker consumes reports in. The
/// default `CheckpointPolicy` seals every 8th drain, so this also sets
/// the checkpoint cadence (every 0.4 s).
const TICK_S: f64 = 0.05;

/// Seed of the session population (arrivals, write lengths, rigs): the
/// one `benches/fleet.rs` draws. It is fixed so that every run offers
/// the same load; the run's seed picks what each pen writes. Drawn
/// afresh per seed, the pen-seconds of a 30 s day vary by about a
/// quarter (interquartile range over the median), which would swamp any
/// bound on the end-to-end metrics.
const POPULATION_SEED: u64 = 0x0F1EE7;

/// A shard crashes every this many rounds: the chaos soak's plan
/// (`ChaosPlan::generate`, as `tests/chaos.rs` runs it) crashes a shard
/// in 3 of every 12 rounds on average.
const CRASH_EVERY: usize = 4;

/// Rounds per block, one checkpoint period, so every block holds one
/// seal and two crashes. Blocks take the CPUs in turn, and a traced run
/// records spans in half of them, so the host's drift cancels out of
/// the tracing overhead.
const BLOCK_ROUNDS: usize = 8;

/// Checkpoint generations the store retains per session.
const KEEP_GENERATIONS: usize = 3;

/// A report should be drained within one 50 ms pre-processing window
/// of its scheduled offer.
const SLO_MS: f64 = 50.0;

fn rigs(shift_m: f64) -> Vec<PolarDrawConfig> {
    STANDOFFS_M
        .iter()
        .map(|&standoff| {
            let mut setup = TrialSetup::letter('L');
            setup.standoff_m = standoff;
            setup.cell_scale *= COARSEN;
            let mut cfg = polardraw_config_for(&setup);
            let shift = Vec2::new(shift_m, 0.0);
            cfg.board_min += shift;
            cfg.board_max += shift;
            cfg
        })
        .collect()
}

/// The default traffic scenario with its day compressed into `seconds`:
/// horizon, diurnal period, flash-crowd width and session count scale
/// together, so arrivals keep the default rate (256 per 600 s) and the
/// default shape. What a pen does once it arrives (write length, report
/// rate) is not compressed. Each pen's report stream is seeded from
/// `seed`.
fn traffic(seed: u64, seconds: f64) -> (TrafficModel, Vec<SessionPlan>) {
    let day = TrafficConfig::default();
    assert_eq!(day.rigs, STANDOFFS_M.len(), "one standoff per rig of the scenario");
    let squeeze = seconds / day.horizon_s;
    let model = TrafficModel::generate(
        TrafficConfig {
            sessions: ((day.sessions as f64 * squeeze).round() as usize).max(1),
            horizon_s: seconds,
            diurnal_period_s: day.diurnal_period_s * squeeze,
            flash_width_s: day.flash_width_s * squeeze,
            ..day
        },
        POPULATION_SEED,
    );
    let plans = model
        .plans()
        .iter()
        .enumerate()
        .map(|(i, &plan)| SessionPlan {
            seed: derive_seed_indexed(seed, "polarbench.stream", i as u64),
            ..plan
        })
        .collect();
    (model, plans)
}

/// Crashes at fixed rounds, at the chaos soak's mean rate and mix: kill
/// and recover, and every third time kill and recover twice, rotating
/// over the shards. With a seal every 8th drain, crashes fall 2 and 6
/// drains after a seal, so recovery replays both a short and a long
/// escrow tail. The soak's other actions are left out: a stalled drain
/// is a delay the benchmark would add to the router's latency, and a
/// corrupted checkpoint forces the restore fallback the checks forbid.
fn crash_plan(rounds: usize, shards: usize) -> ChaosPlan {
    let actions = (0..rounds)
        .map(|r| {
            let n = r / CRASH_EVERY;
            let shard = n % shards;
            match (r % CRASH_EVERY, n % 3) {
                (1, 2) => ChaosAction::DuplicateRecover { shard },
                (1, _) => ChaosAction::KillRecover { shard },
                _ => ChaosAction::Calm,
            }
        })
        .collect();
    ChaosPlan::from_actions(actions)
}

fn router() -> FleetRouter {
    let mut fleet = FleetRouter::new(FleetConfig::default());
    fleet.attach_store(CheckpointStore::in_memory(KEEP_GENERATIONS));
    fleet
}

/// Router construction through the first-sight prewarm of every rig:
/// one `add_session` per rig. Repetition `rep` > 0 shifts every board by
/// `rep` nanometres, new keys to the process-wide artifact cache, so
/// each repetition is a cold start. The cache keeps what it built, so
/// the measured run, on the unshifted rigs of repetition 0, starts warm.
fn set_up(rep: usize, setup_s: &mut Samples) {
    let configs = rigs(rep as f64 * 1e-9);
    let t0 = Instant::now();
    let mut fleet = router();
    for cfg in &configs {
        fleet.add_session(*cfg, OnlineOptions::default());
    }
    setup_s.push(t0.elapsed().as_secs_f64());
    drop(std::hint::black_box(fleet));
}

struct Live {
    id: FleetSessionId,
    plan: usize,
    /// Generated but not yet admitted, in due order.
    backlog: Vec<TagReport>,
    /// When each of the first reports of `backlog` was due to be
    /// offered: the scheduled end of the tick it fell due in (seconds
    /// since the run began). The rest have not been offered yet.
    offered_at: Vec<f64>,
    generated: usize,
}

/// Everything one pass over the schedule observed.
#[derive(Default)]
struct Pass {
    sessions: usize,
    generated: usize,
    failed_reports: usize,
    consumed: usize,
    offered: usize,
    admitted: usize,
    busy: Duration,
    /// Router busy time and reports generated in the schedule's
    /// untraced and traced rounds.
    split_busy: [Duration; 2],
    split_reports: [usize; 2],
    /// Scheduled first offer to end of the drain that consumed the report.
    latency_ms: Samples,
    /// How late the generator was for each report's first offer.
    late_ms: Samples,
    finish_ms: Samples,
    add_us: Samples,
    offer_us: Samples,
    drain_ms: Samples,
    drain_reports: usize,
    drain_busy: Duration,
    ckpt_drain_ms: Samples,
    reports_per_drain: Samples,
    woken_per_drain: Samples,
    recover_ms: Samples,
    requeued: usize,
    fallbacks: usize,
    quarantined: usize,
    degraded_rounds: usize,
    rounds: usize,
    degrade_steps: usize,
    checkpoints: usize,
    ckpt_bytes: Samples,
    stats: DecodeStats,
    stats_reports: usize,
}

struct Run<'a> {
    model: &'a TrafficModel,
    plans: &'a [SessionPlan],
    configs: &'a [PolarDrawConfig],
    fleet: FleetRouter,
    live: Vec<Live>,
    /// Scheduled first-offer times of reports admitted this round.
    inflight: Vec<f64>,
    pass: &'a mut Pass,
}

impl Run<'_> {
    /// Offer every backlog; what the router admits is drained by the
    /// next drain, what it defers stays at the backlog's front.
    /// Reports offered for the first time were due to be offered at
    /// `scheduled`; a late generator does not excuse the router.
    fn offer_all(&mut self, tr: &mut Tracer, round: u64, scheduled: f64) {
        for l in &mut self.live {
            if l.backlog.is_empty() || self.fleet.quarantined(l.id) {
                continue;
            }
            l.offered_at.resize(l.backlog.len(), scheduled);
            let (admitted, d) =
                tr.call("fleet.offer", round, || self.fleet.offer(l.id, &l.backlog));
            self.pass.busy += d;
            self.pass.offer_us.push(d.as_secs_f64() * 1e6);
            self.pass.offered += l.backlog.len();
            self.pass.admitted += admitted;
            self.inflight.extend(l.offered_at.drain(..admitted));
            l.backlog.drain(..admitted);
        }
    }

    fn drain(&mut self, tr: &mut Tracer, round: u64, begin: Instant) {
        let (rep, d) = tr.call("fleet.drain", round, || self.fleet.drain());
        let now = begin.elapsed().as_secs_f64();
        let p = &mut self.pass;
        p.busy += d;
        for offered in self.inflight.drain(..) {
            p.latency_ms.push((now - offered) * 1e3);
        }
        p.consumed += rep.reports;
        if rep.checkpoints > 0 {
            p.ckpt_drain_ms.push(d.as_secs_f64() * 1e3);
        } else {
            p.drain_ms.push(d.as_secs_f64() * 1e3);
            p.drain_reports += rep.reports;
            p.drain_busy += d;
        }
        p.reports_per_drain.push(rep.reports as f64);
        p.woken_per_drain.push(rep.woken as f64);
        for si in 0..self.fleet.shards() {
            p.rounds += 1;
            p.degraded_rounds += usize::from(self.fleet.level(si) > 0);
        }
    }

    /// Crash a shard and recover it, `recoveries` times in a row: the
    /// second recovery of `ChaosAction::DuplicateRecover` has nothing to
    /// rebuild.
    fn kill_and_recover(&mut self, tr: &mut Tracer, round: u64, shard: usize, recoveries: usize) {
        let (_, d) = tr.call("durability.kill_shard", round, || self.fleet.kill_shard(shard));
        self.pass.busy += d;
        for _ in 0..recoveries {
            let (rec, d) = tr.call("durability.recover", round, || self.fleet.recover(shard));
            let p = &mut self.pass;
            p.busy += d;
            let sessions = rec.restored + rec.rebuilt;
            if sessions > 0 {
                p.recover_ms.push(d.as_secs_f64() * 1e3 / sessions as f64);
            }
            p.requeued += rec.requeued_reports;
        }
    }

    /// Finish a pen: the pen-up to final-trail latency, and the checks
    /// that every report it generated was admitted and consumed once and
    /// that its trail is finite.
    fn finish(&mut self, tr: &mut Tracer, round: u64, l: Live) {
        if self.fleet.quarantined(l.id) {
            self.pass.failed_reports += l.generated;
            return;
        }
        let (out, d) = tr.call("fleet.finish_session", round, || self.fleet.finish_session(l.id));
        let (offered, admitted) = self.fleet.session_flow(l.id);
        let p = &mut self.pass;
        p.busy += d;
        p.finish_ms.push(d.as_secs_f64() * 1e3);
        // A pen that joined or left within a window of the run's edge
        // may have too few reports for a trail, so an empty trail is
        // not a failure here.
        let ok = admitted == l.generated
            && offered >= admitted
            && out.degradation.input_reports == l.generated
            && out.trail.points.iter().all(|q| q.x.is_finite() && q.y.is_finite());
        if !ok {
            p.failed_reports += l.generated;
        }
        add_decode_stats(&mut p.stats, &out.decode_stats);
        p.stats_reports += l.generated;
    }
}

/// Run the schedule for `seconds` of wall time on a fresh router, then
/// offer and drain until every generated report is consumed and finish
/// every pen.
fn measure(
    (model, plans): &(TrafficModel, Vec<SessionPlan>),
    configs: &[PolarDrawConfig],
    seconds: f64,
    rotor: &mut Rotor,
    tr: &mut Tracer,
    pass: &mut Pass,
) {
    let mut run = Run {
        model,
        plans,
        configs,
        fleet: router(),
        live: Vec::new(),
        inflight: Vec::new(),
        pass,
    };
    let mut next_plan = 0;
    let ticks = (seconds / TICK_S).round().max(1.0) as usize;
    let crashes = crash_plan(ticks, run.fleet.shards());
    let begin = Instant::now();
    for k in 1..=ticks {
        rotor.pin_for((k - 1) / BLOCK_ROUNDS);
        // Tick k offers what fell due in [(k-1)·TICK, k·TICK) of the
        // schedule.
        let (t0, t1) = ((k - 1) as f64 * TICK_S, k as f64 * TICK_S);
        // Spin rather than sleep: a sleeping generator wakes late by a
        // scheduler quantum, and that jitter would read as report latency.
        while begin.elapsed().as_secs_f64() < t1 {
            std::hint::spin_loop();
        }
        let late_ms = (begin.elapsed().as_secs_f64() - t1) * 1e3;
        let round = k as u64;
        // Blocks go untraced, traced, traced, untraced, and so on, so a
        // trend in the day's load cancels out too.
        let traced = ((k - 1) / BLOCK_ROUNDS).div_ceil(2) % 2 == 1;
        tr.set_recording(traced);
        let (busy, generated_before) = (run.pass.busy, run.pass.generated);
        let root = tr.open("trace.tick", round);

        while next_plan < plans.len() && plans[next_plan].start_s < t1 {
            let cfg = run.configs[plans[next_plan].rig];
            let (id, d) = tr.call("fleet.add_session", round, || {
                run.fleet.add_session(cfg, OnlineOptions::default())
            });
            run.pass.busy += d;
            run.pass.add_us.push(d.as_secs_f64() * 1e6);
            run.pass.sessions += 1;
            run.live.push(Live {
                id,
                plan: next_plan,
                backlog: Vec::new(),
                offered_at: Vec::new(),
                generated: 0,
            });
            next_plan += 1;
        }
        let generated = tr.call("gen.reports_into", round, || {
            let mut n = 0;
            for l in &mut run.live {
                let before = l.backlog.len();
                run.model.reports_into(&run.plans[l.plan], t0, t1, &mut l.backlog);
                l.generated += l.backlog.len() - before;
                n += l.backlog.len() - before;
            }
            n
        });
        run.pass.generated += generated.0;
        run.pass.late_ms.extend(std::iter::repeat_n(late_ms, generated.0));
        run.offer_all(tr, round, t1);
        run.drain(tr, round, begin);
        match crashes.action(k - 1) {
            ChaosAction::KillRecover { shard } => run.kill_and_recover(tr, round, shard, 1),
            ChaosAction::DuplicateRecover { shard } => run.kill_and_recover(tr, round, shard, 2),
            _ => {}
        }
        let mut i = 0;
        while i < run.live.len() {
            let l = &run.live[i];
            let done = plans[l.plan].end_s() <= t1 && l.backlog.is_empty();
            if done || run.fleet.quarantined(l.id) {
                let l = run.live.swap_remove(i);
                run.finish(tr, round, l);
            } else {
                i += 1;
            }
        }
        tr.close(root);
        let p = &mut run.pass;
        p.split_busy[usize::from(traced)] += p.busy - busy;
        p.split_reports[usize::from(traced)] += p.generated - generated_before;
    }
    tr.set_recording(false);

    // The schedule is over: the pens stop writing. Deliver what was
    // deferred, then finish every pen still live.
    let mut round = ticks as u64;
    let waiting = |run: &Run| {
        !run.inflight.is_empty()
            || run.live.iter().any(|l| !l.backlog.is_empty() && !run.fleet.quarantined(l.id))
    };
    while waiting(&run) {
        round += 1;
        assert!(round < (ticks as u64) * 4 + 1000, "fleet never admitted its backlog");
        run.offer_all(tr, round, begin.elapsed().as_secs_f64());
        run.drain(tr, round, begin);
    }
    for l in std::mem::take(&mut run.live) {
        run.finish(tr, round, l);
    }
    let stats = run.fleet.stats();
    let p = &mut run.pass;
    p.degrade_steps += stats.degrade_steps;
    p.checkpoints += stats.checkpoints;
    p.fallbacks += stats.restore_fallbacks;
    p.quarantined += stats.quarantined;
    if let Some(store) = run.fleet.store() {
        for id in 0..stats.sessions as u64 {
            if let Some(bytes) = store.latest(id).and_then(|g| store.read(id, g)) {
                p.ckpt_bytes.push(bytes.len() as f64);
            }
        }
    }
}

fn check(out: &mut Outcome, p: &Pass) {
    out.count(p.generated, p.failed_reports);
    if p.quarantined > 0 {
        out.mismatch(&format!("{} sessions quarantined", p.quarantined));
    }
    if p.fallbacks > 0 {
        out.mismatch(&format!("{} restore fallbacks fired", p.fallbacks));
    }
    if p.consumed < p.generated || p.admitted != p.generated {
        out.mismatch(&format!(
            "{} reports generated, {} admitted, {} consumed",
            p.generated, p.admitted, p.consumed
        ));
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut rotor = Rotor::new();
    let mut setup_s = vec![Samples::default(); rotor.len()];
    set_up(0, &mut setup_s[rotor.slot()]);
    let configs = rigs(0.0);
    let mut out = if trace {
        traced(&configs, (seed, seconds), &mut rotor)
    } else {
        plain(&configs, (seed, seconds), &mut rotor)
    };
    out.peak_rss_mb = peak_rss_mb();
    for rep in 1..=SETUP_REPS_PER_CPU * rotor.len() {
        rotor.pin_for(rep);
        set_up(rep, &mut setup_s[rotor.slot()]);
    }
    out.setup_s = Value::per_cpu(&setup_s, |s| s.quantile(0.5));
    out
}

fn plain(configs: &[PolarDrawConfig], (seed, seconds): (u64, f64), rotor: &mut Rotor) -> Outcome {
    let mut out = Outcome::new();
    let mut p = Pass::default();
    let schedule = traffic(seed, seconds);
    measure(&schedule, configs, seconds, rotor, &mut Tracer::new(false), &mut p);
    check(&mut out, &p);
    out.note(format!(
        "fleet-churn: {} pens, {} reports generated, {} offered, {} admitted",
        p.sessions, p.generated, p.offered, p.admitted
    ));
    let late = Value::quantile(&p.late_ms, 0.99);
    out.note(format!("gen.late_p99_ms {:?} (n={})", late.value, late.samples));
    let per_s = p.generated as f64 / p.busy.as_secs_f64();
    out.e2e("capacity_per_s", Value::of(per_s, p.generated));
    // A report either lands in a quick drain or waits behind a seal or
    // a recovery. The median sees only the first; the mean moves with
    // both.
    let p50 = Value::quantile(&p.latency_ms, 0.5);
    out.note(format!("live_p50_ms {:?} (n={})", p50.value, p50.samples));
    out.e2e("live_mean_ms", Value::opt(p.latency_ms.mean(), p.latency_ms.len()));
    // The tail is a few seals and recoveries per second, too sparse for
    // the block percentile the letters use: the whole run's p99 has
    // about a hundred samples beyond it.
    out.e2e("live_p99_ms", Value::quantile(&p.latency_ms, 0.99));
    // Reports never drained count as misses.
    let within = p.latency_ms.frac_within(SLO_MS).unwrap_or(0.0) * p.latency_ms.len() as f64;
    out.e2e("realtime_frac", Value::of(within / p.generated.max(1) as f64, p.generated));
    // A run has too few pens for an honest median of their finishes.
    out.e2e("finish_ms", Value::opt(p.finish_ms.mean(), p.finish_ms.len()));
    out
}

fn traced(configs: &[PolarDrawConfig], (seed, seconds): (u64, f64), rotor: &mut Rotor) -> Outcome {
    let mut out = Outcome::new();
    let mut p = Pass::default();

    let schedule = traffic(seed, seconds);
    let mut tr = Tracer::new(true);
    measure(&schedule, configs, seconds, rotor, &mut tr, &mut p);
    check(&mut out, &p);
    let per_report =
        |side: usize| p.split_busy[side].as_secs_f64() / p.split_reports[side].max(1) as f64;
    let overhead = per_report(1) / per_report(0) - 1.0;

    out.layer("fleet.offer_us", Value::quantile(&p.offer_us, 0.5));
    out.layer(
        "fleet.admit_ratio",
        Value::of(p.admitted as f64 / p.offered.max(1) as f64, p.offered),
    );
    out.layer("fleet.drain_ms_p50", Value::quantile(&p.drain_ms, 0.5));
    // About 600 drains a run: too few for an honest p99.
    out.layer("fleet.drain_ms_p90", Value::quantile(&p.drain_ms, 0.9));
    out.layer(
        "fleet.reports_per_drain",
        Value::opt(p.reports_per_drain.mean(), p.reports_per_drain.len()),
    );
    out.layer(
        "fleet.woken_per_drain",
        Value::opt(p.woken_per_drain.mean(), p.woken_per_drain.len()),
    );
    out.layer("fleet.add_session_us", Value::opt(p.add_us.mean(), p.add_us.len()));
    let finish_us = p.finish_ms.mean().map(|ms| ms * 1e3);
    out.layer("fleet.finish_session_us", Value::opt(finish_us, p.finish_ms.len()));
    out.layer("fleet.degrade_steps", Value::of(p.degrade_steps as f64, p.rounds));
    let degraded = p.degraded_rounds as f64 / p.rounds.max(1) as f64;
    out.layer("fleet.degraded_frac", Value::of(degraded, p.rounds));
    let us_per_report = p.drain_busy.as_secs_f64() * 1e6 / p.drain_reports.max(1) as f64;
    out.layer("serve.us_per_report", Value::of(us_per_report, p.drain_reports));
    out.decode_metrics(&p.stats, p.stats_reports);
    out.layer("durability.ckpt_drain_ms", Value::quantile(&p.ckpt_drain_ms, 0.5));
    out.layer("durability.checkpoints", Value::of(p.checkpoints as f64, p.ckpt_drain_ms.len()));
    out.layer("durability.ckpt_bytes", Value::opt(p.ckpt_bytes.mean(), p.ckpt_bytes.len()));
    out.layer("durability.requeued_reports", Value::of(p.requeued as f64, p.recover_ms.len()));
    out.layer("durability.fallbacks", Value::of(p.fallbacks as f64, p.recover_ms.len()));
    out.layer("durability.quarantined", Value::of(p.quarantined as f64, p.sessions));
    out.layer("durability.recover_ms", Value::quantile(&p.recover_ms, 0.5));
    out.layer("gen.late_p99_ms", Value::quantile(&p.late_ms, 0.99));
    out.layer("trace.overhead_frac", Value::of(overhead, p.split_reports[1]));
    out.trace_summary(&tr, "trace.tick");
    out.tracer = Some(tr);
    out
}
