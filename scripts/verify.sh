#!/usr/bin/env bash
# Tier-1 verification entrypoint (see ROADMAP.md).
#
# Builds and tests the whole workspace *offline* and then proves the
# dependency graph is hermetic: every crate in `cargo tree` must be a
# workspace member (path dependency). Any registry/git crate — even one
# that happens to be cached — fails the run.
#
# Usage: scripts/verify.sh [--quick-bench]
#
# --quick-bench additionally smoke-runs the decode bench suite in
# `--quick` mode (milliseconds of sampling, not a real measurement),
# checks the report parses, gates every decode row shared with the
# committed BENCH_decode.json baseline at a generous 1.5×, and holds
# the fast-kernel-vs-reference speedup above a quick-noise-tolerant 5×
# floor (quick mode is noisy; real measurements and the full 8× floor
# come from scripts/bench.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK_BENCH=0
for arg in "$@"; do
    case "$arg" in
        --quick-bench) QUICK_BENCH=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "== verify: offline release build =="
cargo build --release --offline --workspace --benches

echo "== verify: offline test suite =="
cargo test -q --offline --workspace --release

echo "== verify: golden traces + fault layer =="
# Explicit tier-1 gates for the robustness layer (also part of the
# workspace suite above; named here so a failure is unmissable and so
# they run even if the target list is ever filtered):
# - tests/golden.rs pins bit-identical reports/traces vs committed
#   snapshots (the identity-FaultPlan no-op proof rides on these),
# - the fault-injection unit tests live in rfid-sim,
# - the adversarial-stream sweeps live in tests/properties.rs.
cargo test -q --offline --release --test golden
cargo test -q --offline --release -p rfid-sim faults

echo "== verify: decode kernel equivalence =="
# Explicit tier-1 gates for the decoder. FixedLagDecoder is the only
# driver (online sessions step it; its `decode` helper runs it with
# infinite lag for tests and benches), so these suites prove the code
# production runs:
# - tests/kernel_equivalence.rs pins the two precision contracts: the
#   exact f64 kernel bit-identical to viterbi_reference (the oracle) at
#   threads 1/2/8, and the f32 fast kernel inside the quantitative
#   tolerance oracle (per-step best scores, glyph-trail Procrustes
#   < 1 cm, fig13 reduced-config letter-accuracy parity),
# - tests/decoder_equivalence.rs sweeps the intra-step-parallel merge
#   through the degenerate paths (collapse, carry-through, tiny beams),
# - the headline work counters (the decode bench's 100-step stream at
#   2.5 mm, beam 2500) are pinned exactly on both tiers, run by name.
# The exact kernel runs the reference's operations for every candidate
# that can change a kept score, and skips the rest only on a proof: it
# memoizes each cell's hyperbola term once per step (same expression,
# same bits), skips a candidate whose hyperbola-only bound cannot beat
# the cell's best while every later weight is >= 0 (rounded subtraction
# is monotone), and computes `hypot` only for offsets within the
# stencil's ULP margin of an annulus bound. The edge sweep, run by
# name, drives those three shortcuts onto their edges (bounds snapped
# onto ring distances ±1 ULP, far boards, zero/negative/NaN weights,
# non-finite Δθ) at threads 1 and 3.
cargo test -q --offline --release --test kernel_equivalence
cargo test -q --offline --release --test decoder_equivalence
cargo test -q --offline --release --test kernel_equivalence \
    headline_work_counters_are_pinned_on_both_tiers
cargo test -q --offline --release --test decoder_equivalence \
    kernel_shortcut_edges_stay_equivalent

echo "== verify: polarimetric channel =="
# Explicit tier-1 gates for the Jones channel layer:
# - tests/channel_equivalence.rs pins the reduction contract: on every
#   broadside linear-copolarized rig the Jones channel agrees with the
#   scalar cos²β path within 1e-12 per link and bit-for-bit through a
#   full letter trial, and is provably not a no-op off that family,
# - the physics-law unit tests (Fresnel Brewster/grazing closed forms,
#   the circular-reader 3 dB law, Jones unitarity/associativity) live
#   in rf-physics,
# - the polarization report snapshot + jones letter-L trace pin ride in
#   tests/golden.rs above.
cargo test -q --offline --release --test channel_equivalence
cargo test -q --offline --release -p rf-physics
cargo test -q --offline --release --test golden golden_report_polarization
cargo test -q --offline --release --test golden golden_trace_letter_trial_jones

echo "== verify: emission-grid row kernels =="
# Explicit tier-1 gates for the row kernels behind the decoder's Δθ
# emission tables (ChannelModel::evaluate is the one forward model and
# is pinned by the polarimetric-channel gates above):
# - tests/channel_batch.rs pins EmissionTable::build bit-identical to
#   the per-cell expected_dtheta21 spec at workers 1/2/8, and the
#   direct f32 build (EmissionTableF32::build_direct) inside its
#   tolerance oracle (wrap-aware deltas vs the cast spec, bit-identical
#   across workers, fig13 reduced-config letter parity),
# - the dtheta_row unit tests in polardraw-core pin DthetaRowKernel bit
#   for bit against expected_dtheta21 and DthetaRowKernelF32 inside its
#   per-cell tolerance; distances_row pins the shared f64 distance row
#   bit for bit against Vec3::distance.
cargo test -q --offline --release --test channel_batch
cargo test -q --offline --release -p polardraw-core dtheta_row
cargo test -q --offline --release -p polardraw-core distances_row

echo "== verify: online engine + supervised sessions =="
# Explicit tier-1 gates for the streaming layer:
# - tests/online_equivalence.rs pins batch == online bit-for-bit (lag ≥
#   horizon) and the checkpoint → restore → resume cut-point sweep,
# - tests/session.rs pins supervised recovery: reconnect within the
#   backoff schedule, checkpoint resume through the session layer, and
#   bounded accuracy loss under the fault presets,
# - the supervisor/link/backoff unit tests live in rfid-sim.
cargo test -q --offline --release --test online_equivalence
cargo test -q --offline --release --test session
cargo test -q --offline --release -p rfid-sim session

echo "== verify: multi-session serving =="
# Explicit tier-1 gates for the serving layer:
# - tests/serve.rs pins pool == sequential bit-for-bit (32 mixed-fault
#   sessions at threads 1/2/8), the 2-thread single-report stress run,
#   checkpoint/restore through the pool at swept cuts, and the
#   shared-decode-artifact memory gate (one emission table per rig,
#   however many sessions),
# - the pool/fan-in unit tests live in polardraw-core (serve), the
#   claim-order fan-out primitives in rf-core (par).
cargo test -q --offline --release --test serve
cargo test -q --offline --release -p polardraw-core serve
cargo test -q --offline --release -p rf-core par

echo "== verify: fleet front door =="
# Explicit tier-1 gates for the sharded fleet layer:
# - tests/fleet.rs pins live migration bitwise-equivalent to never
#   moving (swept cuts, queued reports carried, threads 1/2/8) and the
#   overload contract (bounded queues, deferral never drops, monotone
#   degradation, hysteretic recovery),
# - tests/serve_alloc.rs proves a warm single-thread drain round
#   allocates nothing (counting global allocator),
# - the router/controller unit tests live in polardraw-core (fleet),
#   the traffic-model unit tests in rfid-sim (traffic).
cargo test -q --offline --release --test fleet
cargo test -q --offline --release --test serve_alloc
cargo test -q --offline --release -p polardraw-core fleet
cargo test -q --offline --release -p rfid-sim traffic

echo "== verify: durability & crash recovery =="
# Explicit tier-1 gates for the crash-safe durability layer:
# - tests/durability.rs sweeps 2000 mutated checkpoint.v2 envelopes
#   through the typed-error parser (every semantic mutation rejected,
#   every accepted envelope bit-identical), pins the v1 → v2 migration
#   golden snapshot, and proves the store's stage-then-commit atomicity
#   plus generation walk-back over corrupted blobs,
# - tests/chaos.rs is the deterministic chaos soak: swept kill points ×
#   thread counts, corrupted-checkpoint fallbacks, duplicate recovery,
#   stalled drains, and random ChaosPlans — no panics, zero report
#   loss, recovery bitwise-identical to a fleet that never crashed,
# - the envelope/store unit tests live in polardraw-core (durability),
#   the chaos-plan/mutator unit tests in rfid-sim (chaos), and the
#   parser recursion-depth bound in rf-core (json),
# - the one-pass seal rests on three pins, run by name: the sealed
#   envelope is a parse → write fixed point that re-seals byte for byte
#   along a fleet stream (and a non-finite state is a typed refusal
#   that keeps recovery bitwise), the writer's integer fast path prints
#   exactly what `{}` prints, and the slicing-by-8 CRC equals the
#   bytewise loop.
cargo test -q --offline --release --test durability
cargo test -q --offline --release --test chaos
cargo test -q --offline --release -p polardraw-core durability
cargo test -q --offline --release -p rfid-sim chaos
cargo test -q --offline --release -p rf-core json
cargo test -q --offline --release --test durability \
    sealed_envelopes_are_canonical_fixed_points_along_a_fleet_stream
cargo test -q --offline --release --test durability \
    non_finite_state_is_refused_and_recovery_stays_bitwise
cargo test -q --offline --release -p rf-core json::tests::write_number_matches_display_formatting
cargo test -q --offline --release -p rf-core crc::tests::sliced_matches_bytewise
# Kernel options are untrusted checkpoint input too: an adaptive beam
# that keeps nothing or an unbounded thread count is a typed restore
# rejection, and the same options through the API never panic.
cargo test -q --offline --release --test durability \
    hostile_kernel_options_are_typed_restore_rejections
cargo test -q --offline --release --test durability \
    hostile_kernel_options_through_the_api_never_panic
# The decoder state is untrusted the same way: a non-finite frontier
# score (which could never be sealed again), a fractional or negative
# cell id, a frontier wider than the beam, or a duplicate frontier cell
# is a typed restore rejection.
cargo test -q --offline --release --test durability \
    hostile_decoder_states_are_typed_restore_rejections

echo "== verify: no unwrap/expect on untrusted-input paths =="
# Grep lint over modules that parse bytes arriving from outside the
# process (checkpoint envelopes, LLRP frames, JSON) or that supervise
# crashed state. Test modules don't count (everything after the first
# `#[cfg(test)]` is stripped). Ceilings are the audited residue —
# each surviving site is invariant-backed (a slice the caller just
# length-checked, a field set before the only call site) and commented
# as such in the source; new untrusted-input unwraps fail the build.
lint_unwraps() {
    local file="$1" ceiling="$2"
    local n
    n=$(sed -n '1,/#\[cfg(test)\]/p' "$file" \
        | grep -c -E '\.unwrap\(\)|\.expect\(' || true)
    if [ "$n" -gt "$ceiling" ]; then
        echo "FAIL: $file has $n unwrap()/expect( sites above the audited ceiling of $ceiling" >&2
        exit 1
    fi
}
lint_unwraps crates/core/src/durability.rs 0
lint_unwraps crates/rf-core/src/json.rs 0
lint_unwraps crates/rfid-sim/src/chaos.rs 0
lint_unwraps crates/core/src/online.rs 2
lint_unwraps crates/core/src/fleet.rs 1
lint_unwraps crates/rfid-sim/src/llrp.rs 2

echo "== verify: one decoder driver, one emission builder, one forward model =="
# FixedLagDecoder, EmissionTable::build, FleetRouter and
# ChannelModel::evaluate are the only decoder driver, f64 emission
# builder, fleet front door and link evaluator; the names of the
# parallel paths they replaced must not come back, or the equivalence
# suites would again prove code production never runs.
forked=$(grep -rnE 'viterbi_beam|viterbi_with_|DecoderScratch|decode_optimized|build_parallel|build_with_workers|SupervisedFleet|RigFactors|ChannelBatch|PoseBatch|BatchOptions|BatchPrecision|evaluate_jones_fast|rf_physics::batch' \
    crates tests examples src || true)
if [ -n "$forked" ]; then
    echo "FAIL: deleted parallel decode/emission/serving/channel paths are referenced again:" >&2
    echo "$forked" >&2
    exit 1
fi

echo "== verify: dependency graph is workspace-only =="
# Every line of `cargo tree` that names a crate must carry the marker of
# a local path dependency: "(/…)" pointing into this repo. Registry
# crates print "vX.Y.Z" with no path; catch them.
nonlocal=$(cargo tree --offline --workspace --edges normal,build,dev --prefix none \
    | sort -u \
    | grep -v "($(pwd)" || true)
if [ -n "$nonlocal" ]; then
    echo "FAIL: non-workspace dependencies found:" >&2
    echo "$nonlocal" >&2
    exit 1
fi

if [ "$QUICK_BENCH" = 1 ]; then
    echo "== verify: decode bench smoke (--quick) =="
    mkdir -p results/quickbench
    # Bench binaries run with the package dir as CWD; --out must be
    # absolute to land at the repo root.
    # The filter keeps the reference row in the quick report so the
    # speedup floor is measured, not assumed; the floor (5×) sits well
    # under the full-methodology 8× gate to absorb quick-mode noise.
    cargo bench --offline -p polardraw-bench --bench decode -- \
        --quick --filter "cell2.5mm/beam2500/steps100" --out "$(pwd)/results/quickbench"
    cargo run --release --offline -p polardraw-bench --bin bench_check -- \
        results/quickbench/bench_decode.json \
        --baseline BENCH_decode.json --max-regression 1.5 \
        --min-speedup 5.0

    echo "== verify: online step latency gate =="
    # The per-window online decode step, measured for real (not --quick:
    # a full warmup + 11-sample median takes well under a second) and
    # gated at an absolute 10 ms — the fixed-lag decoder must beat the
    # stream's window period, or live sessions fall behind their reader.
    mkdir -p results/quickbench_online
    cargo bench --offline -p polardraw-bench --bench decode -- \
        --filter decode/online --out "$(pwd)/results/quickbench_online"
    cargo run --release --offline -p polardraw-bench --bin bench_check -- \
        results/quickbench_online/bench_decode.json \
        --max-median "decode/online/step/cell2.5mm/beam2500/lag64=10000000"

    echo "== verify: contended serve step gate =="
    # The serving pool's contended regime, measured for real: one drain
    # advancing 8 paper-fidelity sessions one pre-processing window
    # each, gated at an absolute 80 ms — 8 × the single-session 10 ms
    # guarantee above, so no session falls behind its reader even when
    # the whole fleet is busy.
    mkdir -p results/quickbench_serve
    cargo bench --offline -p polardraw-bench --bench throughput -- \
        --filter serve/step --out "$(pwd)/results/quickbench_serve"
    cargo run --release --offline -p polardraw-bench --bin bench_check -- \
        results/quickbench_serve/bench_throughput.json \
        --max-median "serve/step/sessions8/threads8=80000000"
fi

echo "verify: OK"
