//! A live supervised tracking session over a fault-injected reader
//! stream — the streaming counterpart of `examples/robustness.rs`.
//!
//! The pipeline here is the production shape: a simulated LLRP reader
//! connection ([`SimulatedLink`]) carrying a flaky-office stream with a
//! hard mid-glyph outage and occasional wire garbage, supervised by a
//! [`SessionSupervisor`] (watchdog, reconnect backoff, dead-port
//! detection), feeding an [`OnlineTracker`] that commits trail points
//! behind a fixed decision lag. Mid-session the process "dies" — and
//! worse, the newest checkpoint generation in the durability store has
//! rotted on disk. [`CheckpointStore::recover`] rejects it with a
//! typed checksum error, walks back to the previous good generation,
//! and the session replays the gap from the reader link: kill and
//! recover, losing nothing.
//!
//! ```sh
//! cargo run --release --example live_session
//! ```

use experiments::setup::{polardraw_config_for, simulate_reports, TrialSetup};
use polardraw_core::durability::{open_checkpoint, CheckpointStore};
use polardraw_core::{OnlineOptions, OnlineTracker};
use recognition::procrustes_distance;
use rfid_sim::faults::FaultPlan;
use rfid_sim::session::{SessionConfig, SessionEvent, SessionSupervisor, SimulatedLink};

fn main() {
    // A pen writing the letter "W" in a flaky office: Gilbert–Elliott
    // burst dropouts, duplicated and reordered reads, clock jitter.
    let mut setup = TrialSetup::letter('W');
    setup.faults = Some(FaultPlan::flaky_office());
    let seed = 42;
    let (truth, reports) = simulate_reports(&setup, seed);
    let cfg = polardraw_config_for(&setup);
    let t_hi = reports.iter().map(|r| r.t).fold(f64::NEG_INFINITY, f64::max);
    let t_mid = 0.5 * t_hi;

    println!("stream: {} reports over {:.1} s of writing", reports.len(), t_hi);
    println!("faults: flaky office + link outage [{:.1}, {:.1}] s + wire garbage\n", t_mid, t_mid + 0.4);

    // The reader link: frames every 50 ms, a 0.4 s TCP drop mid-glyph,
    // and an undecodable garbage frame before every 6th real one.
    let link = SimulatedLink::from_reports(&reports, 0.05)
        .with_outage(t_mid, t_mid + 0.4)
        .with_garbage_every(6);
    let session_cfg = SessionConfig { seed, ..SessionConfig::default() };

    // The durability store: checksummed checkpoint.v2 envelopes, last
    // 3 generations retained. In-memory here; a real deployment plugs
    // any `rf_core::store::BlobStore` into `CheckpointStore::new`.
    let mut store = CheckpointStore::in_memory(3);
    let session_id = 7u64;

    // ---- First leg: supervise, sealing a generation mid-glyph. ----
    let mut sup = SessionSupervisor::new(session_cfg, link.clone());
    let mut tracker = OnlineTracker::new(cfg, OnlineOptions { lag: 64, hold: 2, ..OnlineOptions::default() });
    let t_ckpt = 0.4 * t_hi;
    let t_kill = 0.65 * t_hi;
    sup.run(&mut tracker, 0.0, t_ckpt);
    let gen1 = store.save(session_id, &tracker).expect("state is finite");
    println!(
        "first leg  [0.0, {t_ckpt:.1}] s: {} reports delivered, {} committed points; sealed generation {gen1}",
        sup.stats().reports_delivered,
        tracker.committed().len(),
    );

    // Continue to the kill point and seal a second generation.
    let link_mid = link.clone().resume_after(sup.link());
    let mut sup_mid = SessionSupervisor::new(session_cfg, link_mid);
    sup_mid.run(&mut tracker, t_ckpt, t_kill);
    let gen2 = store.save(session_id, &tracker).expect("state is finite");
    println!(
        "           [{t_ckpt:.1}, {t_kill:.1}] s: {} more reports, {} committed points; sealed generation {gen2}",
        sup_mid.stats().reports_delivered,
        tracker.committed().len(),
    );

    // ---- The crash, with insult added to injury: the process dies
    // AND the newest generation rots on disk (one flipped byte).
    drop(tracker);
    let mut rotten = store.read(session_id, gen2).expect("committed");
    // Nudge one digit somewhere in the middle: the document stays
    // well-formed JSON, so only the envelope CRC can tell.
    let mid = rotten.len() / 2;
    let digit = (mid..).find(|&i| rotten[i].is_ascii_digit() && rotten[i] != b'9').expect("a digit");
    rotten[digit] += 1;
    store.overwrite(session_id, gen2, &rotten);
    let refused = open_checkpoint(cfg, std::str::from_utf8(&rotten).unwrap_or(""));
    println!("\ncrash: session killed; generation {gen2} corrupted on disk");
    println!("  open_checkpoint(gen {gen2}) -> {}", refused.err().map(|e| e.to_string()).unwrap_or_default());

    // ---- Recover: walk back to the last good generation, then let
    // the reader link replay everything that generation never saw.
    let recovered = store.recover(session_id, cfg).expect("an older generation survives");
    println!(
        "  recover() -> generation {} after {} fallback(s); resuming from {:.1} s\n",
        recovered.generation, recovered.fallbacks, t_ckpt,
    );
    let mut tracker = recovered.tracker;
    let link_b = link.clone().resume_after(sup.link());
    let mut sup_b = SessionSupervisor::new(session_cfg, link_b);
    sup_b.run(&mut tracker, t_ckpt, t_hi + 2.0);
    println!(
        "second leg [{t_ckpt:.1}, end] s: {} reports delivered, {} committed points",
        sup_b.stats().reports_delivered,
        tracker.committed().len(),
    );

    // What the supervisors saw, in order.
    println!("\nsession events:");
    for (leg, events) in [("A", sup.events()), ("A'", sup_mid.events()), ("B", sup_b.events())] {
        for e in events {
            match e {
                SessionEvent::Connected { t } => println!("  [{leg}] {t:6.2} s  connected"),
                SessionEvent::WatchdogStall { t, silent_for_s } => {
                    println!("  [{leg}] {t:6.2} s  watchdog: silent for {silent_for_s:.2} s")
                }
                SessionEvent::Disconnected { t } => println!("  [{leg}] {t:6.2} s  link dropped"),
                SessionEvent::Reconnected { t, attempts } => {
                    println!("  [{leg}] {t:6.2} s  reconnected after {attempts} attempt(s)")
                }
                SessionEvent::GaveUp { t, attempts } => {
                    println!("  [{leg}] {t:6.2} s  gave up after {attempts} attempts")
                }
                SessionEvent::PortDead { t, antenna } => {
                    println!("  [{leg}] {t:6.2} s  antenna port {antenna} dead → degraded mode")
                }
                SessionEvent::PortRecovered { t, antenna } => {
                    println!("  [{leg}] {t:6.2} s  antenna port {antenna} recovered")
                }
                // Reconnect attempts and per-frame garbage are chatty;
                // they are summarized by the stats below.
                SessionEvent::ReconnectAttempt { .. } | SessionEvent::BadFrame { .. } => {}
                SessionEvent::PanicIsolated { context } => {
                    println!("  [{leg}]          sink panic isolated: {context}")
                }
            }
        }
    }
    println!(
        "  bad wire frames rejected: {} (leg A) + {} (leg A') + {} (leg B)",
        sup.stats().bad_frames,
        sup_mid.stats().bad_frames,
        sup_b.stats().bad_frames,
    );

    // Finalize: global rotation correction + smoothing over the full
    // trail, with the degradation census the whole way through.
    let out = tracker.finalize();
    println!("\ntrail: {} points ({} decoder steps)", out.trail.len(), out.steps.len());
    let d = &out.degradation;
    println!("degradation report:");
    println!("  input reports        {}", d.input_reports);
    println!("  duplicates removed   {}", d.duplicates_removed);
    println!("  spurious rejected    {}", d.spurious_rejected);
    println!("  empty windows        {} of {}", d.empty_windows, d.windows);
    println!("  single-antenna       {}", d.single_antenna_windows);
    println!("  gaps bridged         {} (largest {:.2} s)", d.gaps_bridged, d.largest_gap_bridged_s);
    if let Some(err) = procrustes_distance(&truth, &out.trail.points, 64) {
        println!("\nProcrustes error vs ground truth: {:.1} cm", 100.0 * err);
    }
}
