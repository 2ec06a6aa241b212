//! The regla benchmark: end-to-end metrics on the host and simulated
//! clocks, per-layer metrics from a separate traced run, output checks
//! against the f64 host reference, and a determinism check on every
//! simulated-clock value. See `README.md` for each metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pt_sweep --seed 1 --seconds 10 --trace 0
//! ```

mod check;
mod env;
mod inputs;
mod metrics;
mod stats;
mod workloads;

use inputs::derive;
use metrics::{layer_metrics, result_json, Better, Metric, Rep};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{FleetRecovery, ServeMixed, Sweep, Workload};

const USAGE: &str =
    "usage: regla-perfbench --workload <pt_sweep|pb_full|serve_mixed|fleet_recovery> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// Set-ups per run at least; `setup_s` is the median of all of them.
const MIN_SETUPS: usize = 5;
/// Share of the untraced measuring time that set-ups take.
const SETUP_SHARE: f64 = 0.15;
/// Repetitions every run makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// The simulated-clock end-to-end metrics come from the first `SIM_REPS`
/// repetitions, whose seeds depend only on the workload seed, so they are
/// exact functions of it however long a run lasts.
const SIM_REPS: usize = 2;
/// Seed labels: repetition `r` uses `derive(seed, r)`; setups use labels
/// from here on, so no setup input equals a measured one.
const SETUP_LABEL: u64 = 1 << 32;

/// The end-to-end metrics in the result line (`end_to_end` in
/// `BENCHMARK.json`): the ones every workload has and none reads 0.
const RESULT_METRICS: [&str; 4] = [
    "setup_s",
    "host_problems_per_s",
    "peak_rss_mb",
    "sim_gflops",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The set-ups of one run. The first builds the instance the run measures
/// with; the others are built and dropped between untraced repetitions,
/// so `setup_s` meets the host the repetitions meet, not just the host of
/// the run's first seconds.
struct Setups {
    seed: u64,
    start: Instant,
    /// Host seconds of each set-up, as `Workload::setup` reports them.
    times: Vec<f64>,
    /// Wall seconds spent in set-ups, input generation included.
    wall: f64,
}

impl Setups {
    fn seed(&self, i: usize) -> u64 {
        derive(self.seed, SETUP_LABEL + i as u64)
    }

    fn add<W: Workload>(&mut self, w: &W) -> Result<W::Inst, String> {
        let t = Instant::now();
        let (s, inst) = w.setup(self.seed(self.times.len()))?;
        self.times.push(s);
        self.wall += t.elapsed().as_secs_f64();
        Ok(inst)
    }

    /// Seconds the set-ups still owed to [`MIN_SETUPS`] are expected to take.
    fn owed_s(&self) -> f64 {
        let mean = self.wall / self.times.len().max(1) as f64;
        MIN_SETUPS.saturating_sub(self.times.len()) as f64 * mean
    }
}

/// Repetitions until `until` (and at least [`MIN_REPS`]); repetition `r`
/// always gets seed `derive(seed, r)`. A repetition starts only while one
/// as long as the longest so far still ends by `until`, so a run ends on
/// time. With `setups`, a repetition is preceded by set-ups while they
/// have taken less than [`SETUP_SHARE`] of the run, and the run ends with
/// [`MIN_SETUPS`] at least.
fn measure<W: Workload>(
    w: &W,
    inst: &W::Inst,
    seed: u64,
    until: Instant,
    trace: bool,
    mut setups: Option<&mut Setups>,
) -> Result<Vec<Rep>, String> {
    let mut reps = Vec::new();
    let mut longest = 0.0f64;
    loop {
        if let Some(s) = setups.as_deref_mut() {
            while s.wall < SETUP_SHARE * s.start.elapsed().as_secs_f64() {
                s.add(w)?;
            }
        }
        let owed = setups.as_deref().map_or(0.0, Setups::owed_s);
        let left = until
            .saturating_duration_since(Instant::now())
            .as_secs_f64();
        if reps.len() >= MIN_REPS && left < longest + owed {
            break;
        }
        let t = Instant::now();
        reps.push(w.rep(inst, derive(seed, reps.len() as u64), trace)?);
        longest = longest.max(t.elapsed().as_secs_f64());
    }
    if let Some(s) = setups {
        while s.times.len() < MIN_SETUPS {
            s.add(w)?;
        }
    }
    Ok(reps)
}

fn per_s(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.problems as f64 / r.host_s).collect()
}

struct Outcome {
    lines: Vec<String>,
    /// Metrics for the result line, in order.
    result: Vec<Metric>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

fn run<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    let mut setups = Setups {
        seed,
        start,
        times: Vec::new(),
        wall: 0.0,
    };
    let inst = setups.add(w)?;

    // The determinism rerun and the traced run repeat the measured seeds,
    // each on a freshly set-up instance with the measured one's history,
    // so no call meets a schedule an earlier call with the same inputs
    // left in the cache. The rerun of repetition 0 comes first, so the
    // measured repetitions follow a warm-up and the run still ends at
    // `--seconds`.
    let first_setup = setups.seed(0);
    let fresh = || w.setup(first_setup).map(|(_, x)| x);
    let again = w.rep(&fresh()?, derive(seed, 0), false)?;
    let plain_until = if args.trace {
        start + Duration::from_secs_f64(args.seconds / 2.0)
    } else {
        end
    };
    let plain = measure(w, &inst, seed, plain_until, false, Some(&mut setups))?;
    let traced = if args.trace {
        measure(w, &fresh()?, seed, end, true, None)?
    } else {
        Vec::new()
    };

    // Determinism: the rerun of repetition 0, the traced repetition 0,
    // and the fingerprint an earlier invocation of this build left for
    // this seed.
    let mut errors = Vec::new();
    for (what, other) in [("rerun", Some(&again)), ("traced run", traced.first())] {
        if let Some(d) = other.and_then(|o| plain[0].sim.diff(&o.sim)) {
            errors.push(format!(
                "simulated-clock drift in the {what} of seed {seed}: {d}"
            ));
        }
    }
    let fingerprint: String = plain[..SIM_REPS]
        .iter()
        .map(|r| r.sim.fingerprint())
        .collect();
    if let Err(e) = env::check_fingerprint(&format!("{}-{seed}", args.workload), &fingerprint) {
        errors.push(e);
    }

    let all = plain.iter().chain(&traced);
    let attempted: usize = all.clone().map(|r| r.check.attempted).sum();
    let failed: usize = all.map(|r| r.check.failed).sum();

    let mut e2e = vec![
        Metric::host("setup_s", "s", Better::Lower, &setups.times),
        Metric::host("host_problems_per_s", "1/s", Better::Higher, &per_s(&plain)),
        Metric::host("peak_rss_mb", "MB", Better::Lower, &[env::peak_rss_mb()]),
    ];
    e2e.extend(w.sim_metrics(&plain[..SIM_REPS]));
    e2e.push(Metric::sim(
        "failed_frac",
        "ratio",
        Better::Lower,
        failed as f64 / attempted.max(1) as f64,
    ));

    let mut lines = vec![format!(
        "# workload={} seed={seed} seconds={} trace={} reps={} traced_reps={}",
        args.workload,
        args.seconds,
        u8::from(args.trace),
        plain.len(),
        traced.len()
    )];
    lines.extend(env::lines());
    lines.push("# end-to-end (name clock unit better median q1 q3 n)".into());
    lines.extend(e2e.iter().map(|m| format!("e2e   {}", m.line())));
    lines.extend(plain[0].notes.iter().map(|n| format!("# {n}")));

    let result = if args.trace {
        let plain_rate = stats::Summary::of(&per_s(&plain)).median;
        let traced_rate = stats::Summary::of(&per_s(&traced)).median;
        let layers = layer_metrics(&traced, (plain_rate / traced_rate - 1.0) * 100.0);
        lines.push("# per-layer (name clock unit better median q1 q3 n)".into());
        lines.extend(layers.iter().map(|m| format!("layer {}", m.line())));
        lines.push(split_line(&traced));
        lines.extend(
            traced[0]
                .notes
                .iter()
                .filter(|n| n.contains("replay"))
                .map(|n| format!("# {n}")),
        );
        layers
    } else {
        e2e.into_iter()
            .filter(|m| RESULT_METRICS.contains(&m.name))
            .collect()
    };
    Ok(Outcome {
        lines,
        result,
        attempted,
        failed,
        errors,
    })
}

/// Where the traced calls' host time went, as shares of the call.
fn split_line(traced: &[Rep]) -> String {
    let share = |k: &str| {
        let v: Vec<f64> = traced
            .iter()
            .map(|r| r.layers.get(k).copied().unwrap_or(0.0) / r.host_s * 100.0)
            .collect();
        stats::Summary::of(&v).median
    };
    format!(
        "# split of the traced call (median %): upload={:.1} download={:.1} launch={:.1} other={:.1}",
        share("batch.upload_s"),
        share("batch.download_s"),
        share("launch.host_s"),
        share("session.other_s")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = env::refusal() {
        eprintln!("{why}");
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "pt_sweep" => run(&Sweep::pt_sweep(), &args),
        "pb_full" => run(&Sweep::pb_full(), &args),
        "serve_mixed" => run(&ServeMixed, &args),
        "fleet_recovery" => run(&FleetRecovery, &args),
        w => Err(format!("unknown workload {w}\n{USAGE}")),
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for l in &o.lines {
        println!("{l}");
    }
    for e in &o.errors {
        println!("# FAILED: {e}");
    }
    let correct =
        o.errors.is_empty() && o.failed == 0 && o.result.iter().all(|m| m.value.median.is_finite());
    println!(
        "{}",
        result_json(
            correct,
            o.attempted,
            o.failed,
            &o.result.iter().collect::<Vec<_>>()
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{Better, LAYER_METRICS};

    /// `BENCHMARK.json` names the metrics the result line carries; it must
    /// agree with the code that prints them.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json next to the benchmark directory")
            .split_whitespace()
            .collect();
        for name in RESULT_METRICS {
            assert!(
                json.contains(&format!("{{\"name\":\"{name}\",")),
                "{name} missing from end_to_end"
            );
        }
        for (name, unit, _, better) in LAYER_METRICS {
            let better = if *better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            let entry =
                format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}");
            assert!(json.contains(&entry), "{entry} missing from per_layer");
        }
        assert_eq!(
            json.matches("\"better\":").count(),
            RESULT_METRICS.len() + LAYER_METRICS.len()
        );
    }
}
