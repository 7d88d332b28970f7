//! `figs_synth`: the synthetic half of the paper's figures — the
//! `experiments::fig2/fig3/fig4/fig6` drivers on every host thread, and
//! the rows rendered as ASCII, CSV and SVG into memory.

use std::hint::black_box;
use std::time::Instant;

use dramstack_memctrl::{MappingScheme, PagePolicy};
use dramstack_sim::experiments::{self, ExperimentScale, SynthRow};
use dramstack_sim::{parallel, ConfigError, SimReport, Simulator, SystemConfig};
use dramstack_viz::{ascii, csv, svg};
use dramstack_workloads::SyntheticPattern;

use crate::util::{report_digest, secs};
use crate::{digests, Ctx, Iteration, Traced, Workload};

type Driver = fn(&ExperimentScale) -> Result<Vec<SynthRow>, ConfigError>;

/// The four drivers with the layer metric timing each.
const FIGURES: [(&str, &str, Driver); 4] = [
    ("fig2", "experiments.fig2_s", experiments::fig2),
    ("fig3", "experiments.fig3_s", experiments::fig3),
    ("fig4", "experiments.fig4_s", experiments::fig4),
    ("fig6", "experiments.fig6_s", experiments::fig6),
];

/// One configuration of the sweep, labelled `<figure>/<row label>`.
#[derive(Debug, Clone)]
struct Config {
    label: String,
    cfg: SystemConfig,
    pattern: SyntheticPattern,
}

/// The drivers' configurations, restated so set-up and the profiled pass
/// can build each simulator directly. The profiled pass checks every
/// report against the driver's row of the same label, so a drift between
/// this list and the drivers fails the oracle.
fn sweep() -> Vec<Config> {
    use MappingScheme::{CacheLineInterleaved as Int, RowBankColumn as Def};
    use PagePolicy::{Closed, Open};
    let seq = SyntheticPattern::sequential;
    let rand = SyntheticPattern::random;
    let mut rows: Vec<(String, usize, SyntheticPattern, PagePolicy, MappingScheme)> = vec![];
    for (name, p) in [("seq", seq(0.0)), ("rand", rand(0.0))] {
        for cores in [1, 2, 4, 8] {
            rows.push((format!("fig2/{name} {cores}c"), cores, p, Open, Def));
        }
    }
    for (name, make) in [("seq", seq as fn(f64) -> _), ("rand", rand)] {
        for pct in [0u32, 10, 20, 50] {
            let p = make(f64::from(pct) / 100.0);
            rows.push((format!("fig3/{name} w{pct}"), 1, p, Open, Def));
        }
    }
    for (name, p) in [("seq", seq(0.0)), ("rand", rand(0.0))] {
        for (pname, policy) in [("open", Open), ("closed", Closed)] {
            rows.push((format!("fig4/{name} {pname}"), 2, p, policy, Def));
        }
    }
    for (mname, mapping) in [("def", Def), ("int", Int)] {
        rows.push((
            format!("fig6/seq w50 1c open {mname}"),
            1,
            seq(0.5),
            Open,
            mapping,
        ));
        rows.push((
            format!("fig6/seq w0 2c closed {mname}"),
            2,
            seq(0.0),
            Closed,
            mapping,
        ));
    }
    rows.into_iter()
        .map(|(label, cores, pattern, policy, mapping)| {
            let mut cfg = SystemConfig::paper_default(cores);
            cfg.ctrl.page_policy = policy;
            cfg.ctrl.mapping = mapping;
            Config {
                label,
                cfg,
                pattern,
            }
        })
        .collect()
}

#[derive(Debug)]
pub struct Figs {
    scale: ExperimentScale,
    configs: Vec<Config>,
    /// `(label, digest)` every row must match.
    expected: Vec<(String, u64)>,
}

impl Figs {
    pub fn new(tiny: bool) -> Self {
        Figs {
            scale: ExperimentScale {
                synth_us: if tiny { 5.0 } else { 200.0 },
                ..ExperimentScale::full()
            },
            configs: sweep(),
            expected: Vec::new(),
        }
    }

    fn expected(&self, label: &str) -> Option<u64> {
        self.expected
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, d)| *d)
    }

    /// Runs one configuration directly; returns the report and the
    /// construction, drive-loop and report seconds.
    fn direct(&self, ctx: &Ctx, i: usize, profile: bool, audit: bool) -> (SimReport, [f64; 3]) {
        let c = &self.configs[i];
        let tr = &ctx.tracer;
        let job = i as u64;
        let (mut sim, new_s) = tr.time("sim.new", job, || {
            Simulator::with_synthetic(c.cfg.clone(), c.pattern)
        });
        sim.set_audit(audit);
        if profile {
            sim.enable_profiling();
        }
        let ((), adv_s) = tr.time("sim.advance", job, || {
            sim.advance_for_us(self.scale.synth_us)
        });
        let (report, rep_s) = tr.time("sim.report", job, || sim.report());
        (report, [new_s, adv_s, rep_s])
    }
}

impl Workload for Figs {
    type Input = ();

    fn threads(&self) -> usize {
        parallel::available_threads()
    }

    fn inputs(&self) -> &'static str {
        "fixed inputs: the figure drivers seed their own patterns, --seed is not used"
    }

    fn prepare(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        if !ctx.tiny {
            self.expected = digests::FIGS
                .iter()
                .map(|(l, d)| (l.to_string(), *d))
                .collect();
            return Ok(());
        }
        // No pinned digests at this scale: direct runs with the auditor
        // armed are the reference.
        for i in 0..self.configs.len() {
            let (r, _) = self.direct(ctx, i, false, true);
            let label = self.configs[i].label.clone();
            ctx.oracle.check(r.audit.armed && r.audit.is_clean(), || {
                format!("{label}: reference run not audit-clean")
            });
            self.expected.push((label, report_digest(&r)));
        }
        Ok(())
    }

    /// Builds (and drops) the simulator of every configuration of the
    /// sweep: the construction cost the drivers pay per row.
    fn setup(&mut self, ctx: &mut Ctx, iter: u64) -> Result<(), String> {
        let mut new_s = 0.0;
        for c in &self.configs {
            c.cfg.validate().map_err(|e| format!("{}: {e}", c.label))?;
            let (sim, t) = ctx.tracer.time("sim.new", iter, || {
                Simulator::with_synthetic(c.cfg.clone(), c.pattern)
            });
            black_box(sim);
            new_s += t;
        }
        ctx.layers.push("sim.new_s", new_s);
        Ok(())
    }

    fn run(&mut self, ctx: &mut Ctx, iter: u64, (): ()) -> Iteration {
        let tr = std::sync::Arc::clone(&ctx.tracer);
        let mut run_s = 0.0;
        let mut figures = Vec::new();
        for (fig, metric, driver) in FIGURES {
            let (rows, t) = tr.time(metric, iter, || driver(&self.scale));
            run_s += t;
            ctx.layers.push(metric, t);
            if let Some(rows) = ctx.oracle.ok(fig, rows) {
                figures.push((fig, rows));
            }
        }
        let (bytes, t) = tr.time("viz.render", iter, || render(&figures));
        black_box(bytes);
        run_s += t;
        ctx.layers.push("viz.render_s", t);

        let mut cycles = 0;
        let mut seen = 0;
        for (fig, rows) in &figures {
            for row in rows {
                let label = format!("{fig}/{}", row.label);
                match self.expected(&label) {
                    Some(e) => {
                        ctx.oracle.check_report(&label, &row.report, Some(e));
                    }
                    None => {
                        let d = ctx.oracle.digest(&row.report);
                        ctx.oracle.check(false, || {
                            format!("{label}: no pinned digest (got {d:016x})")
                        });
                    }
                }
                cycles += row.report.sim_cycles;
                seen += 1;
            }
        }
        let want = self.configs.len();
        ctx.oracle
            .check(seen == want, || format!("{seen} rows, expected {want}"));
        Iteration { run_s, cycles }
    }

    fn traced(&mut self, ctx: &mut Ctx) -> Result<Traced, String> {
        let t = Instant::now();
        let this = &*self;
        let ctx_ref = &*ctx;
        let runs = parallel::map((0..this.configs.len()).collect(), |i| {
            this.direct(ctx_ref, i, true, false)
        });
        let mut traced = Traced {
            wall_s: secs(t),
            ..Traced::default()
        };
        for (i, (report, [new_s, adv_s, rep_s])) in runs.into_iter().enumerate() {
            let label = &self.configs[i].label;
            ctx.oracle
                .check_report(label, &report, self.expected(label));
            traced.new_s += new_s;
            traced.advance_s += adv_s;
            traced.report_s += rep_s;
            traced.cycles += report.sim_cycles;
            traced.reports.push(report);
        }
        Ok(traced)
    }
}

/// Renders every figure's bandwidth and latency stacks as an ASCII
/// chart, CSV and SVG, in memory. Returns the bytes produced.
fn render(figures: &[(&str, Vec<SynthRow>)]) -> usize {
    let mut bytes = 0;
    for (fig, rows) in figures {
        let bw: Vec<_> = rows
            .iter()
            .map(|r| (r.label.clone(), r.report.bandwidth_stack.clone()))
            .collect();
        let lat: Vec<_> = rows
            .iter()
            .map(|r| (r.label.clone(), r.report.latency_stack))
            .collect();
        for text in [
            ascii::bandwidth_chart(&bw),
            ascii::latency_chart(&lat),
            csv::bandwidth_csv(&bw),
            csv::latency_csv(&lat),
            svg::bandwidth_figure(fig, &bw),
            svg::latency_figure(fig, &lat),
        ] {
            bytes += text.len();
        }
    }
    bytes
}
