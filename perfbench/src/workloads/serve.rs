//! `serve_mixed`: open-loop mixed traffic through `ServeEngine` over a
//! two-device fleet. It uses the session, launch and data-path layers the
//! opposite way from `pt_sweep`: hundreds of tiny dispatches instead of
//! one huge batch, so per-call fixed costs dominate.

use super::{finish_launch_layers, launch_layers, predict_us, probe_transfers, timed, Workload};
use crate::check;
use crate::inputs::derive;
use crate::metrics::{add, Better, Metric, Rep};
use regla_core::{Fleet, MatBatch, Op};
use regla_gpu_sim::{ExecMode, GpuConfig};
use regla_model::Algorithm;
use regla_serve::{
    generate_requests, ServeConfig, ServeEngine, ServeOutcome, SolveRequest, TrafficConfig,
};
use std::collections::BTreeMap;

const REQUESTS: usize = 1000;
/// The latency stream: below saturation, so p99 is set by coalescing.
const LATENCY_RPS: f64 = 2500.0;
/// The throughput stream: past the latency stream's load, so coalescing
/// and the latency budget trade against each other.
const GOODPUT_RPS: f64 = 10_000.0;

pub struct ServeMixed;

fn fleet() -> Fleet {
    Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .device(GpuConfig::gt200())
        .build()
        .expect("two valid stock devices")
}

/// Requests are scheduled on the simulated clock, so the generator is
/// never late and latency counts from the scheduled arrival.
fn requests(rate: f64, seed: u64) -> Vec<SolveRequest<f32>> {
    generate_requests(&TrafficConfig::mixed(REQUESTS, rate, seed))
}

fn alg(op: Op) -> Algorithm {
    op.model_algorithm()
        .expect("served operations have a model algorithm")
}

/// Rebuild the dispatches the engine made from its responses (riders of
/// one dispatch complete together; dispatches never overlap) and replay
/// them through `Fleet::run_with` on an identical fresh fleet. Responses
/// split a dispatch's launch statistics away, so this is how the launch
/// and data-path layers of a serve call are seen. Returns the host
/// seconds of launch plus data path, and whether the replay reproduced
/// the engine's busy time bit for bit.
fn replay(
    layers: &mut crate::metrics::Layers,
    sent: &[SolveRequest<f32>],
    outcome: &ServeOutcome<f32>,
) -> Result<(f64, bool), String> {
    let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for r in outcome.responses.iter().filter(|r| r.result.is_ok()) {
        groups
            .entry(r.completion_s.to_bits())
            .or_default()
            .push(r.id as usize);
    }
    let fleet = fleet();
    let base = ServeConfig::default().opts;
    let (mut accounted, mut busy) = (0.0, 0.0);
    for ids in groups.values() {
        let first = &sent[ids[0]];
        let a =
            MatBatch::concat_problems(&ids.iter().map(|&i| sent[i].a.clone()).collect::<Vec<_>>());
        let b = first.b.as_ref().map(|_| {
            MatBatch::concat_problems(
                &ids.iter()
                    .map(|&i| sent[i].b.clone().expect("one key, one rhs shape"))
                    .collect::<Vec<_>>(),
            )
        });
        let mut opts = base.clone();
        opts.math = first.math;
        let before = fleet.device_clocks();
        let fr = fleet
            .run_with(first.op, &a, b.as_ref(), &opts)
            .map_err(|e| format!("serve replay: {e}"))?;
        busy += fleet
            .device_clocks()
            .iter()
            .zip(&before)
            .map(|(x, y)| x - y)
            .fold(0.0f64, f64::max);
        let launches = &fr.output.run.stats.launches;
        launch_layers(layers, launches);
        accounted += launches.iter().map(|l| l.sim_wall_s).sum::<f64>();
        let aug = match &b {
            Some(b) => MatBatch::augment(&a, b),
            None => a,
        };
        accounted += probe_transfers(layers, &aug, first.a.cols(), first.op == Op::Qr);
    }
    Ok((accounted, busy.to_bits() == outcome.report.busy_s.to_bits()))
}

impl Workload for ServeMixed {
    type Inst = ();

    /// The warm-up serves a quarter-length latency stream.
    fn setup(&self, seed: u64) -> Result<(f64, ()), String> {
        let reqs = generate_requests(&TrafficConfig::mixed(REQUESTS / 4, LATENCY_RPS, seed));
        let (s, outcome) = timed(|| ServeEngine::new(fleet(), ServeConfig::default()).serve(reqs));
        if outcome.report.served != REQUESTS / 4 {
            return Err(format!(
                "warm-up served {} of {}",
                outcome.report.served,
                REQUESTS / 4
            ));
        }
        Ok((s, ()))
    }

    fn rep(&self, _: &(), seed: u64, trace: bool) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let budget = ServeConfig::default().latency_budget_s;
        let mut replayed_exactly = true;
        for (k, rate) in [LATENCY_RPS, GOODPUT_RPS].into_iter().enumerate() {
            let sent = requests(rate, derive(seed, k as u64));
            let mut engine = ServeEngine::new(fleet(), ServeConfig::default());
            // `serve` consumes its requests; the check below needs them too.
            let reqs = sent.clone();
            let (wall, outcome) = timed(|| engine.serve(reqs));
            let report = &outcome.report;
            rep.host_s += wall;
            rep.problems += report.problems;

            let (mut flops, mut good) = (0.0, 0usize);
            for resp in &outcome.responses {
                let req = &sent[resp.id as usize];
                rep.check.attempted += 1;
                let Ok(out) = &resp.result else {
                    rep.check.failed += 1;
                    continue;
                };
                let c = check::run(
                    req.op,
                    &req.a,
                    req.b.as_ref(),
                    &out.run,
                    ExecMode::Full,
                    derive(seed, 100 + resp.id),
                );
                rep.check.failed += usize::from(c.failed > 0);
                rep.check.worst = rep.check.worst.max(c.worst);
                rep.sim.push("bwd", c.worst);
                flops += alg(req.op).flops(req.a.rows(), req.a.cols()) * req.a.count() as f64;
                if resp.latency_s() <= budget {
                    good += req.a.count();
                }
                if k == 0 {
                    rep.sim.push("lat_ms", resp.latency_s() * 1e3);
                }
            }
            let sim = &mut rep.sim;
            let stream = ["latency", "goodput"][k];
            sim.push("flops", flops);
            sim.push(format!("{stream}.offered"), report.offered as f64);
            sim.push(
                format!("{stream}.late_or_failed"),
                (report.late + report.shed + report.request_errors) as f64,
            );
            sim.push(format!("{stream}.good_problems"), good as f64);
            sim.push(format!("{stream}.makespan_s"), report.makespan_s);
            sim.push("dispatches", report.dispatches as f64);
            sim.push("busy_s", report.busy_s);
            sim.push("shed", report.shed as f64);
            rep.notes.push(format!(
                "serve {rate} rps: {} served, {} shed, {} late, {} dispatches, p50 {:.4} ms, p99 {:.4} ms, makespan {:.6e} s",
                report.served, report.shed, report.late, report.dispatches, report.p50_ms, report.p99_ms, report.makespan_s
            ));

            if trace {
                let l = &mut rep.layers;
                add(l, "serve.dispatches", report.dispatches as f64);
                add(l, "serve.shed", report.shed as f64);
                add(l, "serve.served", report.served as f64);
                add(l, "serve.busy_s", report.busy_s);
                add(l, "serve.makespan_s", report.makespan_s);
                add(l, "serve.wall_s", wall);
                let (accounted, exact) = replay(l, &sent, &outcome)?;
                replayed_exactly &= exact;
                add(l, "session.other_s", wall - accounted);
            }
        }
        if trace {
            let l = &mut rep.layers;
            let d = l["serve.dispatches"];
            l.insert("serve.coalescing", l["serve.served"] / d);
            l.insert("serve.busy_frac", l["serve.busy_s"] / l["serve.makespan_s"]);
            l.insert("serve.host_ms_per_dispatch", l["serve.wall_s"] / d * 1e3);
            let probe = fleet();
            let session = probe.sessions().next().expect("fleet has devices");
            let shapes = [
                (Algorithm::Lu, 8, 64),
                (Algorithm::Qr, 10, 64),
                (Algorithm::GaussJordan, 8, 32),
            ];
            predict_us(l, session, &shapes);
            finish_launch_layers(l);
            if !replayed_exactly {
                rep.notes.push("serve replay did not reproduce the engine's busy time; launch layers are approximate".into());
            }
        }
        Ok(rep)
    }

    fn sim_metrics(&self, reps: &[Rep]) -> Vec<Metric> {
        let sum = |k: &str| reps.iter().map(|r| r.sim.sum(k)).sum::<f64>();
        let max = |k: &str| reps.iter().map(|r| r.sim.max(k)).fold(0.0, f64::max);
        let mut lat: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.sim.all("lat_ms").collect::<Vec<_>>())
            .collect();
        lat.sort_by(f64::total_cmp);
        // Nearest-rank percentile, as the engine's own report computes it.
        let pct = |q: f64| {
            let i = ((q * lat.len() as f64).ceil() as usize).clamp(1, lat.len().max(1)) - 1;
            lat.get(i).copied().unwrap_or(f64::NAN)
        };
        vec![
            // Per simulated second the service was busy: in an open loop
            // the makespan is set by the arrival schedule, not the system.
            Metric::sim(
                "sim_gflops",
                "GFLOP/s",
                Better::Higher,
                sum("flops") / sum("busy_s") / 1e9,
            ),
            Metric::sim("backward_err", "n*eps", Better::Lower, max("bwd")),
            Metric::sim("sim_p50_ms", "ms", Better::Lower, pct(0.50)),
            Metric::sim("sim_p99_ms", "ms", Better::Lower, pct(0.99)),
            Metric::sim(
                "sim_late_frac",
                "ratio",
                Better::Lower,
                sum("latency.late_or_failed") / sum("latency.offered"),
            ),
            Metric::sim(
                "sim_goodput_pps",
                "1/s",
                Better::Higher,
                sum("goodput.good_problems") / sum("goodput.makespan_s"),
            ),
        ]
    }
}
