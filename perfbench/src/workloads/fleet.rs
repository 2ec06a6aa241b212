//! `fleet_recovery`: `Fleet::run` of a QR solve over two devices and the
//! CPU pool, with verification on and a seeded chaos plan. The only
//! workload that reaches failover, retry, verify and host fallback.

use super::{finish_launch_layers, launch_layers, predict_us, probe_transfers, timed, Workload};
use crate::check;
use crate::inputs::{batch, derive};
use crate::metrics::{add, Better, Metric, Rep};
use regla_core::{ChaosPlan, Fleet, MatBatch, Op, RunOpts, Session, VerifyMode};
use regla_gpu_sim::{ExecMode, GpuConfig};
use regla_model::Algorithm;

const N: usize = 16;
const COUNT: usize = 8192;

pub struct FleetRecovery;

/// Device 1 dies at its second dispatch, device 0 takes a fault storm on
/// its first two and dies at its sixth, so every layer of the recovery
/// stack runs: failover to the survivor, device retry of fault-tainted
/// problems, and the CPU pool for chunks no device can take.
fn chaos(seed: u64) -> ChaosPlan {
    ChaosPlan::new(seed)
        .device_death(1, 1)
        .fault_storm(0, 0, 2, 8)
        .device_death(0, 5)
}

/// Functional-replay host threads of this workload's launches. With the
/// default two, each launch splits its blocks between two threads and
/// ends with the slower one, and on a 2-vCPU shared host that made this
/// workload's throughput swing by up to 2x between runs of one build
/// (10-seed spreads of 0.14, 0.45 and 0.28 in three sets; 0.14 in the
/// set after them with one thread). The workload is here for
/// the recovery stack, not for parallel replay, which `serve_mixed` and
/// `pt_sweep` still measure at the default. Simulated values do not
/// depend on the count.
const REPLAY_THREADS: usize = 1;

/// The fleet is rebuilt for every call: chaos events key on each device's
/// dispatch count, which persists across runs of one fleet.
fn fleet(seed: u64) -> Result<Fleet, String> {
    Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .device(GpuConfig::quadro_6000_dual_copy())
        .opts(opts(VerifyMode::Full))
        .chaos(chaos(seed))
        .build()
        .map_err(|e| format!("fleet build: {e}"))
}

fn opts(verify: VerifyMode) -> RunOpts {
    RunOpts::builder()
        .verify(verify)
        .host_threads(REPLAY_THREADS)
        .build()
        .expect("fixed, valid run options")
}

fn inputs(seed: u64) -> (MatBatch<f32>, MatBatch<f32>) {
    (
        batch(N, N, COUNT, true, derive(seed, 0)),
        batch(N, 1, COUNT, false, derive(seed, 1)),
    )
}

/// Host seconds the verify screens add to one fleet shard: otherwise
/// identical `run_with` calls with `VerifyMode::Full` and `Off`, each on
/// a fresh session so none meets another's cached schedule. The screens
/// cost far less than the launch, so the calls alternate and the fastest
/// of each kind is compared.
fn verify_host_s(a: &MatBatch<f32>, b: &MatBatch<f32>) -> Result<f64, String> {
    let len = COUNT / 8;
    let (a, b) = (a.slice_problems(0, len), b.slice_problems(0, len));
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        for (w, opts) in best
            .iter_mut()
            .zip([opts(VerifyMode::Full), opts(VerifyMode::Off)])
        {
            let session = Session::with_config(GpuConfig::quadro_6000());
            let (s, r) = timed(|| session.run_with(Op::QrSolve, &a, Some(&b), &opts));
            r.map_err(|e| format!("verify probe: {e}"))?;
            *w = w.min(s);
        }
    }
    Ok(best[0] - best[1])
}

impl Workload for FleetRecovery {
    type Inst = ();

    fn setup(&self, seed: u64) -> Result<(f64, ()), String> {
        let (a, b) = inputs(seed);
        let (s, r) = timed(|| {
            fleet(seed).and_then(|f| f.run(Op::QrSolve, &a, Some(&b)).map_err(|e| e.to_string()))
        });
        r.map_err(|e| format!("warm-up: {e}"))?;
        Ok((s, ()))
    }

    fn rep(&self, _: &(), seed: u64, trace: bool) -> Result<Rep, String> {
        let (a, b) = inputs(seed);
        let fleet = fleet(derive(seed, 2))?;
        let (wall, r) = timed(|| fleet.run(Op::QrSolve, &a, Some(&b)));
        let fr = r.map_err(|e| format!("fleet run: {e}"))?;
        let run = &fr.output.run;
        let mut rep = Rep {
            host_s: wall,
            problems: COUNT,
            ..Rep::default()
        };
        let checked = check::run(
            Op::QrSolve,
            &a,
            Some(&b),
            run,
            ExecMode::Full,
            derive(seed, 3),
        );
        rep.check.merge(checked);

        let clocks = fleet.device_clocks();
        let makespan = clocks.iter().copied().fold(0.0, f64::max);
        let mean = clocks.iter().sum::<f64>() / clocks.len() as f64;
        let rec = run.recovery;
        let report = &fr.report;
        let detected = rec.faults_detected + rec.verify_failures;
        let sim = &mut rep.sim;
        sim.push("flops", Algorithm::QrSolve.flops(N, N) * COUNT as f64);
        sim.push("sim_s", makespan);
        sim.push("bwd", checked.worst);
        for (name, v) in [
            ("fleet.chunks", report.chunks),
            ("fleet.failovers", report.failovers),
            ("fleet.steals", report.steals),
            ("fleet.cpu_pool_problems", report.cpu_pool_problems),
            ("recovery.faults_detected", rec.faults_detected),
            ("recovery.retried", rec.retried),
            ("recovery.fell_back", rec.fell_back),
            ("recovery.verify_failures", rec.verify_failures),
            ("recovery.recovered", rec.recovered),
        ] {
            sim.push(name, v as f64);
            if trace {
                rep.layers.insert(name, v as f64);
            }
        }
        for (d, c) in fleet.device_names().iter().zip(&clocks) {
            sim.push(format!("clock.{d}"), *c);
        }
        rep.notes.push(format!(
            "fleet: {} chunks, {} failovers, {} retried, {} verify failures, {} to the CPU pool, {} fell back, makespan {:.6e} s",
            report.chunks, report.failovers, rec.retried, rec.verify_failures, report.cpu_pool_problems, rec.fell_back, makespan
        ));

        if trace {
            let l = &mut rep.layers;
            l.insert(
                "fleet.imbalance",
                if mean > 0.0 { makespan / mean } else { 0.0 },
            );
            l.insert(
                "recovery.recovered_frac",
                if detected > 0 {
                    rec.recovered as f64 / detected as f64
                } else {
                    0.0
                },
            );
            launch_layers(l, &run.stats.launches);
            let launch_s: f64 = run.stats.launches.iter().map(|l| l.sim_wall_s).sum();
            let moved = probe_transfers(l, &MatBatch::augment(&a, &b), N, false);
            add(l, "session.other_s", wall - launch_s - moved);
            add(l, "verify.host_s", verify_host_s(&a, &b)?);
            let probe = Session::with_config(GpuConfig::quadro_6000());
            predict_us(l, &probe, &[(Algorithm::QrSolve, N, COUNT / 8)]);
            finish_launch_layers(l);
        }
        Ok(rep)
    }

    fn sim_metrics(&self, reps: &[Rep]) -> Vec<Metric> {
        let sum = |k: &str| reps.iter().map(|r| r.sim.sum(k)).sum::<f64>();
        let max = |k: &str| reps.iter().map(|r| r.sim.max(k)).fold(0.0, f64::max);
        vec![
            Metric::sim(
                "sim_gflops",
                "GFLOP/s",
                Better::Higher,
                sum("flops") / sum("sim_s") / 1e9,
            ),
            Metric::sim("backward_err", "n*eps", Better::Lower, max("bwd")),
        ]
    }
}
