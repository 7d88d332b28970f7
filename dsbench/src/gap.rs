//! `gap_pr_8c`: GAP PageRank (2 iterations) on a seeded Kronecker graph,
//! 8 cores, closed pages, cold caches, run to completion.

use std::hint::black_box;

use dramstack_cpu::Instr;
use dramstack_memctrl::PagePolicy;
use dramstack_sim::{SimReport, Simulator, SystemConfig};
use dramstack_workloads::{GapConfig, GapKernel, Graph};

use crate::util::derive_seed;
use crate::{digests, Ctx, Iteration, Traced, Workload};

const CORES: usize = 8;

#[derive(Debug)]
pub struct Gap {
    graph_scale: u32,
    degree: u32,
    max_cycles: u64,
    expected: Option<u64>,
}

impl Gap {
    pub fn new(tiny: bool) -> Self {
        let (graph_scale, degree) = if tiny { (8, 8) } else { (16, 16) };
        Gap {
            graph_scale,
            degree,
            max_cycles: 400_000_000,
            expected: None,
        }
    }

    fn config() -> SystemConfig {
        let mut cfg = SystemConfig::paper_gap(CORES);
        cfg.ctrl.page_policy = PagePolicy::Closed;
        // Fine through-time sampling, as the GAP figures use.
        cfg.sample_period = 2400;
        cfg
    }

    /// Generates the graph and the per-core traces, timing both.
    fn generate(&self, ctx: &mut Ctx, iter: u64) -> Vec<Vec<Instr>> {
        let tr = &ctx.tracer;
        let seed = derive_seed(ctx.seed, 1);
        let (graph, graph_s) = tr.time("workloads.graph", iter, || {
            Graph::kronecker(self.graph_scale, self.degree, seed)
        });
        let cfg = GapConfig {
            pr_iterations: 2,
            ..GapConfig::default()
        };
        let (traces, trace_s) = tr.time("workloads.trace", iter, || {
            GapKernel::Pr.trace(&graph, CORES, &cfg)
        });
        ctx.layers.push("workloads.graph_s", graph_s);
        ctx.layers.push("workloads.trace_s", trace_s);
        let instrs: usize = traces.iter().map(Vec::len).sum();
        ctx.layers.push("workloads.trace_instrs", instrs as f64);
        traces
    }
}

impl Workload for Gap {
    type Input = Simulator;

    fn inputs(&self) -> &'static str {
        "--seed feeds Graph::kronecker"
    }

    /// A direct run with the auditor armed: the reference for this seed.
    fn prepare(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let traces = self.generate(ctx, 0);
        let mut sim = Simulator::with_traces(Self::config(), traces);
        sim.set_audit(true);
        let r = sim.run_to_completion(self.max_cycles);
        let pinned = ctx.pinned().then_some(digests::GAP_PR);
        let d = ctx.oracle.check_report("gap reference", &r, pinned);
        ctx.oracle.check(r.audit.armed && sim.finished(), || {
            "gap reference: auditor not armed or run not finished".to_string()
        });
        self.expected = Some(d);
        Ok(())
    }

    fn setup(&mut self, ctx: &mut Ctx, iter: u64) -> Result<Simulator, String> {
        let traces = self.generate(ctx, iter);
        let (sim, t) = ctx.tracer.time("sim.new", iter, || {
            Simulator::with_traces(Self::config(), traces)
        });
        ctx.layers.push("sim.new_s", t);
        Ok(sim)
    }

    fn run(&mut self, ctx: &mut Ctx, iter: u64, mut sim: Simulator) -> Iteration {
        let (report, run_s) = ctx.tracer.time("sim.run_to_completion", iter, || {
            sim.run_to_completion(self.max_cycles)
        });
        ctx.oracle.check_report("gap", &report, self.expected);
        ctx.oracle
            .check(sim.finished(), || "gap run did not finish".to_string());
        Iteration {
            run_s,
            cycles: report.sim_cycles,
        }
    }

    fn traced(&mut self, ctx: &mut Ctx) -> Result<Traced, String> {
        let iter = u64::MAX;
        let traces = self.generate(ctx, iter);
        let tr = std::sync::Arc::clone(&ctx.tracer);
        let (mut sim, new_s) = tr.time("sim.new", iter, || {
            Simulator::with_traces(Self::config(), traces)
        });
        sim.enable_profiling();
        let (report, run_s): (SimReport, f64) = tr.time("sim.run_to_completion", iter, || {
            sim.run_to_completion(self.max_cycles)
        });
        // `run_to_completion` builds its report inside; a second report
        // of the finished machine estimates that share.
        let (again, report_s) = tr.time("sim.report", iter, || sim.report());
        black_box(again);
        ctx.oracle
            .check_report("gap traced", &report, self.expected);
        Ok(Traced {
            cycles: report.sim_cycles,
            reports: vec![report],
            new_s,
            advance_s: run_s - report_s,
            report_s,
            wall_s: run_s,
            untraced_s: None,
        })
    }
}
