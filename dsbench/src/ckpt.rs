//! `ckpt_rand_rw_8c`: random traffic with 20 % stores on 8 cores with a
//! pre-warmed LLC, checkpointed through a binary delta chain every 1/16
//! of the run. At the midpoint the simulator is dropped (a crash) and
//! the run resumes from `ckpt::load_latest` + `restore`.

use std::path::PathBuf;
use std::sync::Arc;

use dramstack_cpu::InstrStream;
use dramstack_sim::ckpt::{self, CheckpointChain, SnapshotFormat};
use dramstack_sim::{SimReport, Simulator, SystemConfig};
use dramstack_workloads::SyntheticPattern;

use crate::util::{derive_seed, secs};
use crate::{digests, Ctx, Iteration, Traced, Workload};

const CORES: usize = 8;
const SEGMENTS: u64 = 16;
const KEY: &str = "bench";

#[derive(Debug)]
pub struct Ckpt {
    us: f64,
    dir: PathBuf,
    expected: Option<u64>,
}

/// Totals of one checkpointed run.
#[derive(Debug, Default)]
struct Tally {
    new_s: f64,
    advance_s: f64,
    report_s: f64,
    encode_s: f64,
    finish_s: f64,
    load_s: f64,
    restore_s: f64,
    bytes: usize,
    count: u64,
    deltas_applied: u64,
}

impl Ckpt {
    pub fn new(tiny: bool) -> Self {
        Ckpt {
            us: if tiny { 40.0 } else { 2000.0 },
            dir: PathBuf::new(),
            expected: None,
        }
    }

    fn generate(ctx: &Ctx) -> (SystemConfig, SyntheticPattern) {
        let pattern = SyntheticPattern {
            seed: derive_seed(ctx.seed, 2),
            ..SyntheticPattern::random(0.2)
        };
        (SystemConfig::paper_default(CORES), pattern)
    }

    /// The checkpointed run with its mid-run crash and resume; `None`
    /// when a checkpoint or resume step failed (counted by the oracle).
    fn checkpointed(
        &self,
        ctx: &mut Ctx,
        job: u64,
        mut sim: Simulator,
        profile: bool,
    ) -> (Option<SimReport>, Vec<SimReport>, Tally) {
        let tr = Arc::clone(&ctx.tracer);
        let (cfg, pattern) = Self::generate(ctx);
        let end = cfg.us_to_cycles(self.us);
        let mut t = Tally::default();
        let mut profiled = Vec::new();
        if profile {
            sim.enable_profiling();
        }
        let create = || CheckpointChain::create(&self.dir, KEY, SnapshotFormat::Binary, true);
        let Some(mut chain) = ctx.oracle.ok("create chain", create()) else {
            return (None, profiled, t);
        };
        for k in 1..=SEGMENTS {
            let ((), s) = tr.time("sim.advance", job, || {
                sim.advance_to_cycle(end * k / SEGMENTS)
            });
            t.advance_s += s;
            if k == SEGMENTS {
                break;
            }
            let (n, s) = tr.time("ckpt.encode", job, || chain.checkpoint(&mut sim));
            t.encode_s += s;
            t.count += 1;
            t.bytes += ctx.oracle.ok("checkpoint", n).unwrap_or(0);
            if k != SEGMENTS / 2 {
                continue;
            }
            // Crash: flush what the writer holds, lose the machine.
            let (done, s) = tr.time("ckpt.finish", job, || chain.finish());
            t.finish_s += s;
            ctx.oracle.ok("finish chain", done);
            if profile {
                profiled.push(sim.report());
            }
            drop(sim);
            let (loaded, s) = tr.time("ckpt.load", job, || ckpt::load_latest(&self.dir, KEY));
            t.load_s += s;
            let loaded = loaded.ok_or("no checkpoint on disk");
            let Some(loaded) = ctx.oracle.ok("load_latest", loaded) else {
                return (None, profiled, t);
            };
            t.deltas_applied = loaded.deltas_applied;
            let streams = (0..CORES)
                .map(|c| Box::new(pattern.stream_for_core(c, CORES)) as Box<dyn InstrStream>)
                .collect();
            let (fresh, s) = tr.time("sim.new", job, || Simulator::try_new(cfg.clone(), streams));
            t.new_s += s;
            let Some(fresh) = ctx.oracle.ok("new simulator", fresh) else {
                return (None, profiled, t);
            };
            sim = fresh;
            if profile {
                sim.enable_profiling();
            }
            let (restored, s) = tr.time("ckpt.restore", job, || sim.restore(&loaded.snapshot));
            t.restore_s += s;
            if ctx.oracle.ok("restore", restored).is_none() {
                return (None, profiled, t);
            }
            let Some(next) = ctx.oracle.ok("create chain", create()) else {
                return (None, profiled, t);
            };
            chain = next;
        }
        let (done, s) = tr.time("ckpt.finish", job, || chain.finish());
        t.finish_s += s;
        ctx.oracle.ok("finish chain", done);
        let (report, s) = tr.time("sim.report", job, || sim.report());
        t.report_s += s;
        (Some(report), profiled, t)
    }
}

impl Drop for Ckpt {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for Ckpt {
    type Input = Simulator;

    fn inputs(&self) -> &'static str {
        "--seed feeds SyntheticPattern::seed"
    }

    /// An uninterrupted, uncheckpointed run with the auditor armed: the
    /// reference the resumed run must match bit for bit.
    fn prepare(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        self.dir = ctx.out_dir.join(format!("ckpt-{}", std::process::id()));
        let (cfg, pattern) = Self::generate(ctx);
        let mut sim = Simulator::with_synthetic(cfg, pattern);
        sim.set_audit(true);
        let r = sim.run_for_us(self.us);
        let pinned = ctx.pinned().then_some(digests::CKPT);
        self.expected = Some(ctx.oracle.check_report("ckpt reference", &r, pinned));
        ctx.oracle.check(r.audit.armed, || {
            "ckpt reference: auditor not armed".to_string()
        });
        Ok(())
    }

    fn setup(&mut self, ctx: &mut Ctx, iter: u64) -> Result<Simulator, String> {
        let (cfg, pattern) = Self::generate(ctx);
        cfg.validate().map_err(|e| e.to_string())?;
        let (sim, t) = ctx
            .tracer
            .time("sim.new", iter, || Simulator::with_synthetic(cfg, pattern));
        ctx.layers.push("sim.new_s", t);
        Ok(sim)
    }

    fn run(&mut self, ctx: &mut Ctx, iter: u64, sim: Simulator) -> Iteration {
        let start = std::time::Instant::now();
        let (report, _, t) = self.checkpointed(ctx, iter, sim, false);
        let run_s = secs(start);
        ckpt::clear(&self.dir, KEY);
        let l = &mut ctx.layers;
        l.push("sim.advance_s", t.advance_s);
        l.push("sim.report_s", t.report_s);
        l.push("ckpt.encode_s", t.encode_s);
        l.push("ckpt.finish_s", t.finish_s);
        l.push("ckpt.load_s", t.load_s);
        l.push("ckpt.restore_s", t.restore_s);
        l.push("ckpt.resume_s", t.load_s + t.restore_s);
        l.push("ckpt.bytes", t.bytes as f64);
        l.push("ckpt.count", t.count as f64);
        l.push("ckpt.deltas_applied", t.deltas_applied as f64);
        let cycles = report.as_ref().map_or(0, |r| r.sim_cycles);
        if let Some(r) = report {
            ctx.oracle.check_report("ckpt resumed", &r, self.expected);
        }
        Iteration { run_s, cycles }
    }

    fn traced(&mut self, ctx: &mut Ctx) -> Result<Traced, String> {
        let (cfg, pattern) = Self::generate(ctx);
        let job = u64::MAX;
        let (sim, new_s) = ctx
            .tracer
            .time("sim.new", job, || Simulator::with_synthetic(cfg, pattern));
        let start = std::time::Instant::now();
        let (report, mut reports, t) = self.checkpointed(ctx, job, sim, true);
        let wall_s = secs(start);
        ckpt::clear(&self.dir, KEY);
        let report = report.ok_or("traced checkpointed run failed")?;
        ctx.oracle
            .check_report("ckpt traced", &report, self.expected);
        let cycles = report.sim_cycles;
        reports.push(report);
        Ok(Traced {
            cycles,
            reports,
            new_s: new_s + t.new_s,
            advance_s: t.advance_s,
            report_s: t.report_s,
            wall_s,
            untraced_s: None,
        })
    }
}
