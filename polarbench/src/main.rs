//! End-to-end PolarDraw benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path polarbench/Cargo.toml -- \
//!     --workload letters-exact --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` and `PROVENANCE.md`):
//!
//! * `letters-exact`, `letters-fast` — one closed-loop client writes
//!   letters through simulate → online tracker → finalize → classify, on
//!   the exact and the fast decode kernel ([`letters`]).
//! * `fleet-churn` — an open loop offers synthetic pen sessions on a
//!   wall-clock schedule to a durable `FleetRouter` ([`fleet`]).
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a traced run and writes its spans to
//! `polarbench/out/`. Human-readable lines carry each value's sample
//! count; the last line of standard output is one JSON object.

mod cpu;
mod fleet;
mod letters;
mod report;
mod stats;
mod trace;

use report::{Value, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("polarbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "letters-exact" => letters::run(letters::Tier::Exact, args.seed, args.seconds, args.trace),
        "letters-fast" => letters::run(letters::Tier::Fast, args.seed, args.seconds, args.trace),
        "fleet-churn" => fleet::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("polarbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    let (list, measured) = if args.trace {
        (PER_LAYER, std::mem::take(&mut out.layer))
    } else {
        let mut m = std::mem::take(&mut out.e2e);
        m.push(("setup_s", out.setup_s));
        m.push(("peak_rss_mb", Value::opt(out.peak_rss_mb, 1)));
        let passed = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        m.push(("passed_frac", Value::of(passed, out.attempted)));
        (END_TO_END, m)
    };
    for (name, _) in &measured {
        assert!(list.iter().any(|(n, _)| n == name), "metric {name} is not declared");
    }

    if let Some(tr) = &out.tracer {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => out.note(format!("spans {} written to {}", tr.spans().len(), path.display())),
            Err(e) => out.mismatch(&format!("writing spans failed: {e}")),
        }
    }
    for line in &out.notes {
        println!("{line}");
    }
    for m in &out.mismatches {
        println!("CHECK FAILED: {m}");
    }
    let mut json = Vec::new();
    let mut unreached = Vec::new();
    for &(name, unit) in list {
        let v = measured.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        match v {
            Some(Value { value: Some(x), samples }) => {
                println!("metric {name} = {x} {unit} (n={samples})");
                json.push(format!("\"{name}\": {{\"value\": {x}, \"unit\": \"{unit}\"}}"));
            }
            Some(Value { value: None, samples }) => {
                println!("metric {name} omitted: {samples} samples are too few");
            }
            None if args.trace => {
                unreached.push(name);
                json.push(format!("\"{name}\": {{\"value\": 0, \"unit\": \"{unit}\"}}"));
            }
            None => println!("metric {name} omitted: not measured"),
        }
    }
    if !unreached.is_empty() {
        println!("not reached by {} (reads 0): {}", args.workload, unreached.join(" "));
    }
    let correct = out.failed == 0 && out.mismatches.is_empty() && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        json.join(", ")
    );
}
