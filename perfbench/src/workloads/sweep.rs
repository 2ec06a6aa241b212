//! `pt_sweep` and `pb_full`: one `Session`, one `run_with` call per shape.

use super::{finish_launch_layers, launch_layers, predict_us, probe_transfers, timed, Workload};
use crate::check;
use crate::inputs::{batch, derive};
use crate::metrics::{add, Better, Metric, Rep};
use regla_core::{Op, RunOpts, Session};
use regla_gpu_sim::ExecMode;
use regla_model::{Algorithm, Approach};

pub struct Sweep {
    /// (operation, n, problems) per call, square problems.
    shapes: Vec<(Op, usize, usize)>,
    exec: ExecMode,
    opts: RunOpts,
}

impl Sweep {
    fn new(shapes: Vec<(Op, usize, usize)>, approach: Approach, exec: ExecMode) -> Sweep {
        let opts = RunOpts::builder()
            .approach(approach)
            .exec(exec)
            .build()
            .expect("fixed, valid run options");
        Sweep { shapes, exec, opts }
    }

    /// Figure 10's per-thread regime: the host data path does almost all
    /// the work (only 8 blocks replay per launch).
    pub fn pt_sweep() -> Sweep {
        Sweep::new(
            vec![
                (Op::Qr, 8, 64_000),
                (Op::Qr, 16, 64_000),
                (Op::Qr, 32, 46_875),
            ],
            Approach::PerThread,
            ExecMode::Sampled(8),
        )
    }

    /// Figure 9's per-block regime with every block replayed: kernel
    /// replay does almost all the work.
    pub fn pb_full() -> Sweep {
        Sweep::new(
            vec![(Op::Qr, 56, 1024), (Op::Lu, 32, 2048)],
            Approach::PerBlock,
            ExecMode::Full,
        )
    }

    fn alg(op: Op) -> Algorithm {
        op.model_algorithm()
            .expect("sweep operations have a model algorithm")
    }
}

impl Workload for Sweep {
    type Inst = Session;

    /// The warm-up is a whole repetition: one call per shape, each on a
    /// batch made (untimed) just before it.
    fn setup(&self, seed: u64) -> Result<(f64, Session), String> {
        let (mut s, session) = timed(Session::new);
        for (i, &(op, n, count)) in self.shapes.iter().enumerate() {
            let a = batch(n, n, count, true, derive(seed, i as u64));
            let (t, r) = timed(|| session.run_with(op, &a, None, &self.opts));
            r.map_err(|e| format!("warm-up {} {n}: {e}", op.name()))?;
            s += t;
        }
        Ok((s, session))
    }

    fn rep(&self, session: &Session, seed: u64, trace: bool) -> Result<Rep, String> {
        let mut rep = Rep::default();
        for (i, &(op, n, count)) in self.shapes.iter().enumerate() {
            let a = batch(n, n, count, true, derive(seed, i as u64));
            let (wall, out) = timed(|| session.run_with(op, &a, None, &self.opts));
            let run = out
                .map_err(|e| format!("{} {n}x{n}x{count}: {e}", op.name()))?
                .run;
            rep.host_s += wall;
            rep.problems += count;
            let checked = check::run(op, &a, None, &run, self.exec, derive(seed, 1000 + i as u64));
            rep.check.merge(checked);

            let launches = &run.stats.launches;
            let cycles: f64 = launches.iter().map(|l| l.cycles).sum();
            let alg = Sweep::alg(op);
            // The model prices only the shapes it has a candidate for
            // (per-thread needs a register-resident matrix); the others
            // are listed, not guessed.
            let tag = format!("{}.{n}.{:?}", op.name(), run.approach);
            rep.sim.push(format!("{tag}.cycles"), cycles);
            let predicted = regla_model::predicted_cycles(
                session.params(),
                session.config(),
                alg,
                run.approach,
                n,
                n,
                count,
                1,
            );
            if let Some(p) = predicted {
                let e = (p - cycles).abs() / cycles * 100.0;
                rep.sim.push(format!("{tag}.predicted_cycles"), p);
                rep.sim.push("model_err", e);
                rep.notes.push(format!(
                    "model {tag}: predicted {p:.6e} cycles, simulated {cycles:.6e}, error {e:.2}%"
                ));
            } else {
                rep.notes.push(format!(
                    "model {tag}: no prediction for this shape and approach"
                ));
            }
            rep.sim.push("flops", alg.flops(n, n) * count as f64);
            rep.sim.push("sim_s", run.stats.time_s);
            rep.sim.push("bwd", checked.worst);

            if trace {
                let l = &mut rep.layers;
                launch_layers(l, launches);
                let launch_s: f64 = launches.iter().map(|l| l.sim_wall_s).sum();
                let moved = probe_transfers(l, &a, n, op == Op::Qr);
                add(l, "session.other_s", wall - launch_s - moved);
            }
        }
        if trace {
            let shapes: Vec<_> = self
                .shapes
                .iter()
                .map(|&(op, n, c)| (Sweep::alg(op), n, c))
                .collect();
            predict_us(&mut rep.layers, session, &shapes);
            finish_launch_layers(&mut rep.layers);
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
            // NaN when the model prices none of the workload's shapes.
            Metric::sim(
                "model_err_pct",
                "%",
                Better::Lower,
                reps.iter()
                    .flat_map(|r| r.sim.all("model_err").collect::<Vec<_>>())
                    .reduce(f64::max)
                    .unwrap_or(f64::NAN),
            ),
            Metric::sim("backward_err", "n*eps", Better::Lower, max("bwd")),
        ]
    }
}
