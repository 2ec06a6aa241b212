//! Named metrics, per-repetition records and their rendering.

use crate::check::Checked;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which clock a number is on. The two never mix: `Sim` is the modelled
/// device (the paper's quantity, an exact function of the seed), `Host`
/// is what the simulator costs to run on the measuring host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

impl Clock {
    fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    pub value: Summary,
}

impl Metric {
    pub fn host(name: &'static str, unit: &'static str, better: Better, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            clock: Clock::Host,
            better,
            value: Summary::of(samples),
        }
    }

    pub fn sim(name: &'static str, unit: &'static str, better: Better, v: f64) -> Metric {
        Metric {
            name,
            unit,
            clock: Clock::Sim,
            better,
            value: Summary::exact(v),
        }
    }

    pub fn line(&self) -> String {
        let v = self.value;
        let better = match self.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        format!(
            "{:<28} {:<5} {:<8} {:<6} median={:<14} q1={:<14} q3={:<14} n={}",
            self.name,
            self.clock.name(),
            self.unit,
            better,
            fmt_num(v.median),
            fmt_num(v.q1),
            fmt_num(v.q3),
            v.n
        )
    }
}

fn fmt_num(v: f64) -> String {
    format!("{v:.6e}")
}

/// Exact, named simulated-clock values of one repetition. Two runs of the
/// same seed must produce bit-identical records (see `determinism`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimRecord(Vec<(String, f64)>);

impl SimRecord {
    pub fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.push((name.into(), v));
    }

    /// Sum of every entry called `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.all(name).sum()
    }

    /// Largest entry called `name` (0 when there is none).
    pub fn max(&self, name: &str) -> f64 {
        self.all(name).fold(0.0, f64::max)
    }

    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.0
            .iter()
            .filter(move |(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// First entry whose bits differ from `other`'s, as a message.
    pub fn diff(&self, other: &SimRecord) -> Option<String> {
        if self.0.len() != other.0.len() {
            return Some(format!("{} vs {} entries", self.0.len(), other.0.len()));
        }
        self.0.iter().zip(&other.0).find_map(|((na, a), (nb, b))| {
            (na != nb || a.to_bits() != b.to_bits()).then(|| format!("{na}={a:e} vs {nb}={b:e}"))
        })
    }

    /// Stable text form: one `name hexbits` line per entry.
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        for (n, v) in &self.0 {
            let _ = writeln!(s, "{n} {:016x}", v.to_bits());
        }
        s
    }
}

/// Per-layer values of one traced repetition, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Add `v` to layer `name`.
pub fn add(layers: &mut Layers, name: &'static str, v: f64) {
    *layers.entry(name).or_insert(0.0) += v;
}

/// What one repetition of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host seconds inside the public calls (the only timed region).
    pub host_s: f64,
    /// Problems the calls completed.
    pub problems: usize,
    pub check: Checked,
    pub sim: SimRecord,
    /// Filled on traced repetitions only.
    pub layers: Layers,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

/// The per-layer metrics, printed with `--trace 1`: name, unit, clock and
/// better direction. Host-clock values are medians over traced
/// repetitions; simulated ones come from the first traced repetition,
/// which has the same seed on every run. Layers a workload does not reach
/// read 0. The model's error is not among them: a shape the model does
/// not price has no error to report, not a zero one, so it is printed per
/// (op, shape, approach) on the `# model` lines of the report instead.
pub const LAYER_METRICS: &[(&str, &str, Clock, Better)] = &[
    ("batch.upload_s", "s", Clock::Host, Better::Lower),
    ("batch.download_s", "s", Clock::Host, Better::Lower),
    ("batch.words_moved", "count", Clock::Sim, Better::Lower),
    ("launch.host_s", "s", Clock::Host, Better::Lower),
    ("launch.blocks_replayed", "count", Clock::Sim, Better::Lower),
    ("launch.blocks_per_s", "1/s", Clock::Host, Better::Higher),
    ("launch.fast_frac", "ratio", Clock::Host, Better::Higher),
    (
        "launch.sched_hit_frac",
        "ratio",
        Clock::Host,
        Better::Higher,
    ),
    ("launch.sim_cycles", "cycles", Clock::Sim, Better::Lower),
    ("launch.sim_dram_bytes", "bytes", Clock::Sim, Better::Lower),
    ("launch.waves", "count", Clock::Sim, Better::Lower),
    ("launch.occupancy", "warps", Clock::Sim, Better::Higher),
    ("session.other_s", "s", Clock::Host, Better::Lower),
    ("model.predict_us", "us", Clock::Host, Better::Lower),
    ("fleet.chunks", "count", Clock::Sim, Better::Lower),
    ("fleet.failovers", "count", Clock::Sim, Better::Lower),
    ("fleet.steals", "count", Clock::Sim, Better::Lower),
    (
        "fleet.cpu_pool_problems",
        "count",
        Clock::Sim,
        Better::Lower,
    ),
    ("fleet.imbalance", "ratio", Clock::Sim, Better::Lower),
    ("recovery.retried", "count", Clock::Sim, Better::Lower),
    ("recovery.fell_back", "count", Clock::Sim, Better::Lower),
    (
        "recovery.verify_failures",
        "count",
        Clock::Sim,
        Better::Lower,
    ),
    (
        "recovery.recovered_frac",
        "ratio",
        Clock::Sim,
        Better::Higher,
    ),
    ("verify.host_s", "s", Clock::Host, Better::Lower),
    ("serve.dispatches", "count", Clock::Sim, Better::Lower),
    ("serve.coalescing", "ratio", Clock::Sim, Better::Higher),
    ("serve.busy_frac", "ratio", Clock::Sim, Better::Lower),
    ("serve.shed", "count", Clock::Sim, Better::Lower),
    (
        "serve.host_ms_per_dispatch",
        "ms",
        Clock::Host,
        Better::Lower,
    ),
    ("trace.overhead_pct", "%", Clock::Host, Better::Lower),
];

/// Reduce traced repetitions to the per-layer metrics.
pub fn layer_metrics(traced: &[Rep], overhead_pct: f64) -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit, clock, better)| {
            let at = |r: &Rep| r.layers.get(name).copied().unwrap_or(0.0);
            let value = match (name, clock) {
                ("trace.overhead_pct", _) => Summary::exact(overhead_pct),
                (_, Clock::Sim) => Summary::exact(traced.first().map_or(0.0, at)),
                (_, Clock::Host) => Summary::of(&traced.iter().map(at).collect::<Vec<_>>()),
            };
            Metric {
                name,
                unit,
                clock,
                better,
                value,
            }
        })
        .collect()
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value", "unit"}` (its median).
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[&Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let v = m.value.median;
        let value = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}
