//! Durability-layer integration suite (tier 1).
//!
//! * **Mutation sweep** — 2000 deterministic corruptions of a sealed
//!   `checkpoint.v2` envelope through `rfid_sim::chaos::mutate_bytes`
//!   (bit flips, truncation, garbage extension, field rewrites,
//!   splices, wholesale noise). Restore must be total: every case is
//!   either a clean `Ok` whose state is bit-identical to the original,
//!   or a typed `RestoreError` that renders — never a panic. Mirrors
//!   the `llrp::decode_report` wire sweep, so both untrusted-byte
//!   surfaces get the same treatment.
//! * **v1 → v2 migration golden** — a legacy `checkpoint.v1` document
//!   opens as generation 0 and re-seals into a byte-pinned v2 envelope
//!   (snapshot under `tests/snapshots/`; regenerate with
//!   `GOLDEN_REGEN=1` and review the diff).
//! * **Store crash semantics** — staged-but-uncommitted writes stay
//!   invisible, walk-back recovery survives corrupted newest
//!   generations, and a fully rotten store returns a typed error.
//! * **Seal round trip** — at every round of a fleet stream the sealed
//!   envelope is a fixed point of parse → write, and re-sealing the
//!   tracker it opens to reproduces it byte for byte.
//! * **Non-finite refusal** — a NaN in a session's state makes the seal
//!   a typed refusal (never a `null` that restore rejects); the fleet
//!   keeps the previous generation, counts the refusal, and crash
//!   recovery stays bitwise.
//! * **Hostile kernel options** — a checkpoint whose decode kernel the
//!   decoder cannot carry (an adaptive beam that keeps nothing, zero or
//!   unbounded intra-step threads) is a typed restore rejection, and the
//!   same options handed in through the API never panic a decode.
//! * **Hostile decoder state** — a frontier score that could never be
//!   sealed again, a fractional or negative cell id, a frontier wider
//!   than the beam, or a duplicate frontier cell is a typed restore
//!   rejection.

use experiments::setup::{polardraw_config_for, TrialSetup};
use polardraw_core::durability::NonFiniteNumber;
use polardraw_core::fleet::{CheckpointPolicy, FleetConfig, FleetRouter, FleetStats};
use polardraw_core::hmm::{AdaptiveBeam, KernelOptions, KernelPrecision};
use polardraw_core::{
    durability, open_checkpoint, seal_checkpoint, CheckpointStore, OnlineOptions, OnlineTracker,
    PolarDrawConfig, RestoreError, TrackOutput,
};
use rf_core::json::Json;
use rfid_sim::chaos::mutate_bytes;
use rfid_sim::traffic::{TrafficConfig, TrafficModel};
use rfid_sim::TagReport;
use std::path::PathBuf;

fn coarse_config() -> PolarDrawConfig {
    let mut cfg = PolarDrawConfig::default();
    cfg.hmm.cell_m *= 8.0;
    cfg
}

fn stream(n: usize, t0: f64) -> Vec<TagReport> {
    (0..n)
        .map(|i| TagReport {
            t: t0 + i as f64 * 0.01,
            antenna: i % 2,
            rssi_dbm: -52.0 - (i % 5) as f64 * 0.5,
            phase_rad: rf_core::wrap_tau(0.03 * i as f64),
            channel: i % 4,
            epc: 0xD0_0D5,
        })
        .collect()
}

/// A tracker with real decoded state (not a blank slate), so the sweep
/// exercises the full payload surface: frames, frontier, preprocess
/// windows, model state.
fn warmed_tracker() -> OnlineTracker {
    let mut tracker = OnlineTracker::new(coarse_config(), OnlineOptions::default());
    for r in stream(120, 0.0) {
        tracker.push(r);
    }
    tracker
}

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots").join(name)
}

fn assert_matches_snapshot(name: &str, actual: &str) {
    let path = snapshot_path(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {} ({e}); run GOLDEN_REGEN=1", path.display()));
    assert!(
        expected == actual,
        "{name}: the checkpoint envelope format drifted.\n\
         If this change is intentional, regenerate with GOLDEN_REGEN=1, review the \
         diff, and bump the format tag if old documents can no longer restore."
    );
}

#[test]
fn restore_survives_2000_mutated_envelopes() {
    let tracker = warmed_tracker();
    let reference = tracker.checkpoint_string();
    let sealed = seal_checkpoint(&tracker, 3).expect("seal");

    let mut accepted = 0;
    let mut rejected = 0;
    for case in 0..2000u64 {
        let mutated = mutate_bytes(sealed.as_bytes(), case);
        let opened = match std::str::from_utf8(&mutated) {
            Ok(text) => open_checkpoint(coarse_config(), text),
            // Non-UTF-8 corruption is rejected before parsing, the
            // same way `CheckpointStore::recover` rejects it.
            Err(_) => Err(RestoreError::Field("not UTF-8".into())),
        };
        match opened {
            Ok(restored) => {
                // The CRC admits only semantically identical bytes
                // (e.g. a truncation at full length): the restored
                // state must be bit-identical to the original.
                assert_eq!(restored.generation, 3, "case {case}");
                assert_eq!(
                    restored.tracker.checkpoint_string(),
                    reference,
                    "case {case}: corrupted bytes restored to different state"
                );
                accepted += 1;
            }
            Err(e) => {
                // Typed errors must render without panicking.
                let rendered = e.to_string();
                assert!(!rendered.is_empty(), "case {case}");
                rejected += 1;
            }
        }
    }
    // The sweep is only meaningful if the vast majority of corruptions
    // are actually caught.
    assert!(rejected > 1900, "only {rejected}/2000 rejected");
    assert!(accepted + rejected == 2000);
}

#[test]
fn v1_documents_migrate_to_a_pinned_v2_envelope() {
    let tracker = warmed_tracker();
    let v1 = tracker.checkpoint_string();
    assert!(
        v1.contains("polardraw.online.checkpoint.v1"),
        "precondition: the legacy format tag is intact"
    );

    // A bare v1 document opens as generation 0 …
    let restored = open_checkpoint(coarse_config(), &v1).expect("v1 opens");
    assert_eq!(restored.generation, 0);
    assert_eq!(restored.tracker.checkpoint_string(), v1, "v1 round trip is bitwise");

    // … and re-seals into a v2 envelope whose exact bytes are pinned:
    // any unreviewed format drift (field rename, CRC definition change,
    // serialization change) fails here before it strands old stores.
    let migrated = seal_checkpoint(&restored.tracker, 1).expect("seal");
    assert_matches_snapshot("checkpoint_v2_migration.json", &migrated);

    // The pinned envelope itself restores, to the same v1 payload.
    let reopened = open_checkpoint(coarse_config(), &migrated).expect("v2 opens");
    assert_eq!(reopened.generation, 1);
    assert_eq!(reopened.tracker.checkpoint_string(), v1);

    // And its recorded rig CRC matches the live computation.
    assert!(migrated
        .contains(&format!("\"rig_crc\":{}", durability::rig_crc(&coarse_config()))));
}

#[test]
fn store_walks_back_over_chaos_corruption() {
    let mut store = CheckpointStore::in_memory(3);
    let mut tracker = OnlineTracker::new(coarse_config(), OnlineOptions::default());
    let mut sealed_states = Vec::new();
    for round in 0..4 {
        for r in stream(60, round as f64 * 0.6) {
            tracker.push(r);
        }
        let generation = store.save(9, &tracker).expect("seal");
        sealed_states.push((generation, tracker.checkpoint_string()));
    }
    assert_eq!(store.generations(9), vec![2, 3, 4], "keep=3 pruned generation 1");

    // Chaos-corrupt the newest two generations; recovery must land on
    // generation 2 and reproduce exactly the state sealed then.
    for (i, &generation) in [4u64, 3].iter().enumerate() {
        let bytes = store.read(9, generation).unwrap();
        let mut corrupt = mutate_bytes(&bytes, 1000 + i as u64);
        if corrupt == bytes {
            corrupt.truncate(bytes.len() / 2);
        }
        store.overwrite(9, generation, &corrupt);
    }
    let recovered = store.recover(9, coarse_config()).expect("walk-back");
    assert_eq!(recovered.generation, 2);
    assert_eq!(recovered.fallbacks, 2);
    let expected = &sealed_states.iter().find(|(g, _)| *g == 2).unwrap().1;
    assert_eq!(&recovered.tracker.checkpoint_string(), expected);

    // Rot the last good one too: typed error, not a panic.
    store.overwrite(9, 2, b"\xFF\xFEnot a checkpoint");
    let err = store.recover(9, coarse_config()).unwrap_err();
    assert!(!err.to_string().is_empty());
    assert_eq!(store.recover(1234, coarse_config()).unwrap_err(), RestoreError::Missing);
}

#[test]
fn a_torn_write_never_becomes_visible() {
    let mut store = CheckpointStore::in_memory(2);
    let tracker = warmed_tracker();
    store.save(5, &tracker).expect("seal");

    // Writer crashes after staging generation 2 but before commit.
    let next = seal_checkpoint(&tracker, 2).expect("seal");
    store.stage(5, 2, next.as_bytes());
    assert_eq!(store.latest(5), Some(1), "staged bytes are invisible");
    assert_eq!(store.recover(5, coarse_config()).expect("recover").generation, 1);

    // The restarted writer completes the commit; only now it lands.
    assert!(store.commit(5, 2));
    assert_eq!(store.recover(5, coarse_config()).expect("recover").generation, 2);
}

/// Restore the warmed tracker's checkpoint with its kernel options
/// rewritten (`from` → `to`).
fn restore_with_kernel_edit(from: &str, to: &str) -> Result<OnlineTracker, RestoreError> {
    let doc = warmed_tracker().checkpoint_string();
    assert!(doc.contains(from), "precondition: `{from}` is in the checkpoint");
    OnlineTracker::restore_from_str(coarse_config(), &doc.replacen(from, to, 1))
}

#[test]
fn hostile_kernel_options_are_typed_restore_rejections() {
    let null = r#""adaptive":null"#;
    let one = r#""threads":1"#;
    for (from, to) in [
        (null, r#""adaptive":{"margin":-1,"min_keep":0}"#),
        (null, r#""adaptive":{"margin":-1,"min_keep":128}"#),
        (null, r#""adaptive":{"margin":1e999,"min_keep":128}"#),
        (null, r#""adaptive":{"margin":8,"min_keep":0}"#),
        (one, r#""threads":0"#),
        (one, r#""threads":1000000"#),
    ] {
        match restore_with_kernel_edit(from, to) {
            Err(RestoreError::Field(why)) => assert!(!why.is_empty(), "{to}"),
            other => panic!("{to}: expected a typed Field rejection, got {other:?}"),
        }
    }
    // The restore ceiling is the one `with_threads` clamps to, and sane
    // options still restore.
    let ceiling = KernelOptions::exact().with_threads(usize::MAX).threads;
    assert!(ceiling > 1 && ceiling < 1_000_000);
    restore_with_kernel_edit(one, &format!(r#""threads":{ceiling}"#)).expect("at the ceiling");
    assert!(matches!(
        restore_with_kernel_edit(one, &format!(r#""threads":{}"#, ceiling + 1)),
        Err(RestoreError::Field(_))
    ));
    restore_with_kernel_edit(null, r#""adaptive":{"margin":0,"min_keep":1}"#)
        .expect("a zero margin with one kept cell is carried");
}

#[test]
fn hostile_kernel_options_through_the_api_never_panic() {
    let keep_nothing = Some(AdaptiveBeam { margin: -1.0, min_keep: 0 });
    let nan_margin = Some(AdaptiveBeam { margin: f64::NAN, min_keep: 0 });
    for precision in [KernelPrecision::F64Exact, KernelPrecision::F32Tolerance] {
        for kernel in [
            KernelOptions { precision, adaptive: keep_nothing, threads: 1 },
            KernelOptions { precision, adaptive: nan_margin, threads: 2 },
            KernelOptions { precision, adaptive: None, threads: 1_000_000 },
            KernelOptions { precision, adaptive: None, threads: 1 }.with_threads(usize::MAX),
        ] {
            let mut tracker =
                OnlineTracker::new(coarse_config(), OnlineOptions::default().with_kernel(kernel));
            tracker.extend(&stream(120, 0.0));
            let out = tracker.finalize();
            assert!(!out.trail.points.is_empty(), "{kernel:?}: the session still decodes");
        }
    }
}

/// `obj[key]`, mutably.
fn field<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
    match v {
        Json::Obj(m) => m.get_mut(key).unwrap_or_else(|| panic!("missing `{key}`")),
        other => panic!("`{key}`: not an object: {other:?}"),
    }
}

/// `arr[i]`, mutably.
fn item(v: &mut Json, i: usize) -> &mut Json {
    match v {
        Json::Arr(a) => &mut a[i],
        other => panic!("[{i}]: not an array: {other:?}"),
    }
}

/// Stands in for `-1e999`, which the writer refuses to print.
const NEG_OVERFLOW: f64 = 123456.25;

/// Restore the warmed tracker's checkpoint with its `decoder` section
/// rewritten by `edit`.
fn restore_with_decoder_edit(edit: impl FnOnce(&mut Json)) -> Result<OnlineTracker, RestoreError> {
    let mut doc = Json::parse(&warmed_tracker().checkpoint_string()).expect("checkpoint parses");
    edit(field(&mut doc, "decoder"));
    let text = doc.to_json_string().replace(&NEG_OVERFLOW.to_string(), "-1e999");
    OnlineTracker::restore_from_str(coarse_config(), &text)
}

/// A decoder state that the decoder never produces, or that could never
/// be sealed again, is a typed restore rejection: a non-finite frontier
/// score, a cell id that is fractional or negative (a bare `as u32`
/// would saturate `-7.5` to cell 0) in the frontier or the frames, a
/// frontier wider than the beam, and a duplicate frontier cell.
#[test]
fn hostile_decoder_states_are_typed_restore_rejections() {
    type Edit = fn(&mut Json);
    let cases: [(&str, Edit); 7] = [
        ("non-finite frontier score", |d| {
            let Json::Arr(entries) = field(d, "frontier") else { panic!("frontier") };
            for e in entries.iter_mut() {
                *item(e, 1) = Json::num(NEG_OVERFLOW);
            }
        }),
        ("frontier cell is not a cell id", |d| {
            *item(item(field(d, "frontier"), 0), 0) = Json::num(-7.5)
        }),
        ("frontier cell is not a cell id", |d| {
            *item(item(field(d, "frontier"), 0), 0) = Json::num(3.5)
        }),
        ("frame cell is not a cell id", |d| {
            *item(field(item(field(d, "frames"), 0), "cells"), 0) = Json::num(-1.0)
        }),
        ("frame prev is not a cell id", |d| {
            *item(field(item(field(d, "frames"), 0), "prevs"), 0) = Json::num(0.5)
        }),
        ("wider than the beam", |d| {
            let Json::Arr(entries) = field(d, "frontier") else { panic!("frontier") };
            let cycled: Vec<Json> = entries.iter().cycle().take(200_000).cloned().collect();
            *entries = cycled;
        }),
        ("duplicate decoder frontier cell", |d| {
            let Json::Arr(entries) = field(d, "frontier") else { panic!("frontier") };
            entries.push(entries[0].clone());
        }),
    ];
    for (why, edit) in cases {
        match restore_with_decoder_edit(edit) {
            Err(RestoreError::Field(got)) => assert!(got.contains(why), "{why}: got {got:?}"),
            other => panic!(
                "{why}: expected a typed Field rejection, got {:?}",
                other.map(|_| "a restored tracker")
            ),
        }
    }
    // The untouched state and the pinned v2 migration envelope still
    // restore.
    restore_with_decoder_edit(|_| {}).expect("the warmed state restores");
    let pinned = std::fs::read_to_string(snapshot_path("checkpoint_v2_migration.json"))
        .expect("pinned envelope");
    open_checkpoint(coarse_config(), &pinned).expect("the pinned v2 envelope restores");
}

const ROUND_S: f64 = 5.0;
const ROUNDS: usize = 8;

fn pen_rig() -> PolarDrawConfig {
    polardraw_config_for(&TrialSetup::letter('L').with_cell_scale(8.0))
}

/// A small traffic crowd on one rig: real pens, so the sealed state
/// carries decoded frames, a live frontier and open windows.
fn crowd() -> TrafficModel {
    TrafficModel::generate(
        TrafficConfig {
            sessions: 3,
            horizon_s: ROUNDS as f64 * ROUND_S,
            rigs: 1,
            write_min_s: 10.0,
            report_hz: 20.0,
            ..TrafficConfig::default()
        },
        0xD0AB_1E5E,
    )
}

/// Serve the crowd through a checkpoint-every-drain fleet. `poison`
/// sets the RSSI of one session's report to NaN in the given round;
/// `kill_at` crashes and recovers the shard right after that round's
/// drain. `inspect` sees the fleet after every drain.
fn serve_crowd(
    poison: Option<usize>,
    kill_at: Option<usize>,
    mut inspect: impl FnMut(usize, &FleetRouter, &[usize]),
) -> (Vec<(usize, TrackOutput)>, FleetStats) {
    let model = crowd();
    let cfg = pen_rig();
    let mut fleet = FleetRouter::new(FleetConfig {
        shards: 1,
        queue_cap: usize::MAX / 2,
        soft_session_cap: usize::MAX / 2,
        checkpoint: CheckpointPolicy { every_drains: 1, ..CheckpointPolicy::default() },
        ..FleetConfig::default()
    });
    fleet.attach_store(CheckpointStore::in_memory(3));
    let ids: Vec<_> =
        model.plans().iter().map(|_| fleet.add_session(cfg, OnlineOptions::default())).collect();
    for round in 0..ROUNDS {
        let t0 = round as f64 * ROUND_S;
        for (plan, &id) in model.plans().iter().zip(&ids) {
            let mut reports = model.reports_for(plan, t0, t0 + ROUND_S);
            if poison == Some(round) && id == ids[0] {
                if let Some(last) = reports.last_mut() {
                    last.rssi_dbm = f64::NAN;
                }
            }
            assert_eq!(fleet.offer(id, &reports), reports.len(), "queue is unbounded");
        }
        fleet.drain();
        if kill_at == Some(round) {
            fleet.kill_shard(0);
            fleet.recover(0);
        }
        inspect(round, &fleet, &ids);
    }
    let stats = fleet.stats();
    (fleet.finish(), stats)
}

fn assert_outputs_bitwise_equal(got: &[(usize, TrackOutput)], want: &[(usize, TrackOutput)]) {
    assert_eq!(got.len(), want.len());
    for ((gid, g), (wid, w)) in got.iter().zip(want) {
        assert_eq!(gid, wid);
        assert_eq!(g.trail.points.len(), w.trail.points.len(), "{gid}: trail length");
        for (p, q) in g.trail.points.iter().zip(&w.trail.points) {
            assert_eq!((p.x.to_bits(), p.y.to_bits()), (q.x.to_bits(), q.y.to_bits()), "{gid}");
        }
        for (x, y) in g.trail.times.iter().zip(&w.trail.times) {
            assert_eq!(x.to_bits(), y.to_bits(), "{gid}: time bits");
        }
        assert_eq!(g.decode_stats, w.decode_stats, "{gid}: decode stats");
    }
}

#[test]
fn sealed_envelopes_are_canonical_fixed_points_along_a_fleet_stream() {
    let cfg = pen_rig();
    let mut checked = 0;
    serve_crowd(None, None, |round, fleet, ids| {
        for &id in ids {
            let generation = round as u64 + 1;
            let sealed = seal_checkpoint(fleet.tracker(id), generation).expect("finite state");
            let reparsed = Json::parse(&sealed).expect("sealed envelope parses");
            assert_eq!(reparsed.to_json_string(), sealed, "round {round} session {id}");
            let opened = open_checkpoint(cfg, &sealed).expect("sealed envelope opens");
            assert_eq!(opened.generation, generation);
            assert_eq!(
                seal_checkpoint(&opened.tracker, generation).expect("finite state"),
                sealed,
                "round {round} session {id}: re-seal drifted"
            );
            checked += 1;
        }
    });
    assert_eq!(checked, ROUNDS * 3);
}

#[test]
fn non_finite_state_is_refused_and_recovery_stays_bitwise() {
    const POISON: usize = 3;
    let cfg = pen_rig();
    let mut probed = false;
    let (calm, stats) = serve_crowd(Some(POISON), None, |round, fleet, ids| {
        if round != POISON {
            return;
        }
        let poisoned = fleet.tracker(ids[0]);
        assert_eq!(seal_checkpoint(poisoned, 99), Err(NonFiniteNumber), "typed refusal");
        // The refused drain wrote nothing: the newest generation is the
        // one sealed before the NaN arrived, and it still recovers.
        let store = fleet.store().expect("store attached");
        let latest = store.latest(ids[0] as u64).expect("earlier generations");
        assert_eq!(latest, POISON as u64, "round {POISON}'s seal was refused");
        let recovered = store.recover(ids[0] as u64, cfg).expect("previous generation opens");
        assert_eq!((recovered.generation, recovered.fallbacks), (latest, 0));
        // Healthy neighbours kept sealing.
        assert_eq!(store.latest(ids[1] as u64), Some(POISON as u64 + 1));
        probed = true;
    });
    assert!(probed);
    assert!(stats.seal_refusals >= 1, "refusals are counted: {stats:?}");
    assert_eq!(stats.quarantined, 0);

    // Kill after the poisoned round: recovery restores the last good
    // generation and replays the longer escrow tail, NaN included.
    for kill in [POISON, ROUNDS - 1] {
        let (crashed, crashed_stats) = serve_crowd(Some(POISON), Some(kill), |_, _, _| {});
        assert_eq!(crashed_stats.recoveries, 3, "kill@{kill}");
        assert_eq!(crashed_stats.quarantined, 0, "kill@{kill}");
        assert_outputs_bitwise_equal(&crashed, &calm);
    }
}
