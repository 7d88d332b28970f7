//! dsbench: the dramstack benchmark.
//!
//! ```text
//! dsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         [--scale full|tiny] [--out DIR] [--perturb]
//! ```
//!
//! Runs one workload through the crates' public APIs for `--seconds` of
//! timed iterations (each one set-up plus run), checks every simulated
//! report against the oracle, and prints one JSON object as the last line
//! of standard output. With `--trace 0` it holds the end-to-end metrics;
//! with `--trace 1` the per-layer metrics, which add one profiled pass
//! and write the recorded spans to `DIR/trace-<workload>-seed<n>.json`.
//! See `README.md` in this directory for the workloads and metrics.

mod ckpt;
mod digests;
mod figs;
mod gap;
mod serve;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use dramstack_sim::SimReport;
use serde::Serialize;

use util::{median, peak_rss_mb, process_cpu_s, secs, DriftKernel, Layers, Oracle, Span, Tracer};

/// The seed whose report digests are pinned in [`digests`].
pub const PINNED_SEED: u64 = 1;

/// The computing share of every end-to-end time is rescaled to a
/// nominal host on which the drift kernel takes this long, which cancels
/// most of the host's drift (see `nominal_s`).
const NOMINAL_REF_S: f64 = 0.025;

/// Timed iterations made even when `--seconds` runs out first.
const MIN_ITERATIONS: usize = 2;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("msim_cycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not go through reads 0 there.
const PER_LAYER: [(&str, &str); 42] = [
    ("memctrl.tick_ns", "ns/cycle"),
    ("cpu.cores_ns", "ns/cycle"),
    ("cpu.completions_ns", "ns/cycle"),
    ("sim.pump_ns", "ns/cycle"),
    ("core.sampling_ns", "ns/cycle"),
    ("sim.busy_forward_ns", "ns/cycle"),
    ("sim.unattributed_ns", "ns/cycle"),
    ("sim.busy_ff_cycles", "cycles"),
    ("sim.cycles", "cycles"),
    ("sim.new_s", "s"),
    ("sim.advance_s", "s"),
    ("sim.report_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("host.ref_s", "s"),
    ("host.setup_s", "s"),
    ("host.run_s", "s"),
    ("host.msim_cycles_per_s", "Mcycles/s"),
    ("workloads.graph_s", "s"),
    ("workloads.trace_s", "s"),
    ("workloads.trace_instrs", "count"),
    ("ckpt.encode_s", "s"),
    ("ckpt.finish_s", "s"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.count", "count"),
    ("ckpt.load_s", "s"),
    ("ckpt.restore_s", "s"),
    ("ckpt.resume_s", "s"),
    ("ckpt.deltas_applied", "count"),
    ("experiments.fig2_s", "s"),
    ("experiments.fig3_s", "s"),
    ("experiments.fig4_s", "s"),
    ("experiments.fig6_s", "s"),
    ("viz.render_s", "s"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p90_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.server_elapsed_ms", "ms"),
    ("serve.status_bytes", "bytes"),
    ("serve.metrics_ms", "ms"),
];

/// Drive-loop phases of `PerfReport.phases` and the metric each feeds.
/// The idle fast-forward skips no cycle on any workload here, so its
/// phase is written to the trace file but not printed as a metric.
const PHASES: [(&str, &str); 7] = [
    ("ctrl", "memctrl.tick_ns"),
    ("completions", "cpu.completions_ns"),
    ("cores", "cpu.cores_ns"),
    ("pump", "sim.pump_ns"),
    ("sampling", "core.sampling_ns"),
    ("fast_forward", "sim.fast_forward_ns"),
    ("busy_forward", "sim.busy_forward_ns"),
];

/// Everything a workload needs while it runs.
#[derive(Debug)]
pub struct Ctx {
    /// The input seed.
    pub seed: u64,
    /// Tiny inputs for the self-test.
    pub tiny: bool,
    /// Span recorder and call timer.
    pub tracer: Arc<Tracer>,
    /// Correctness bookkeeping.
    pub oracle: Oracle,
    /// Per-layer samples from the timed iterations.
    pub layers: Layers,
    /// Where checkpoints and traces go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Whether pinned digests apply to this run.
    pub fn pinned(&self) -> bool {
        !self.tiny && self.seed == PINNED_SEED
    }
}

/// One timed run (set-up excluded).
#[derive(Debug)]
pub struct Iteration {
    /// Host seconds from the end of set-up to the final report in hand,
    /// oracle checks excluded.
    pub run_s: f64,
    /// Simulated DRAM cycles covered.
    pub cycles: u64,
}

/// The profiled pass of a workload (`enable_profiling()` on).
#[derive(Debug, Default)]
pub struct Traced {
    /// Profiled reports of every simulator in the pass.
    pub reports: Vec<SimReport>,
    /// Simulated DRAM cycles the pass covered.
    pub cycles: u64,
    /// Summed `Simulator` construction seconds.
    pub new_s: f64,
    /// Summed drive-loop seconds.
    pub advance_s: f64,
    /// Summed report-building seconds.
    pub report_s: f64,
    /// Wall seconds of the pass.
    pub wall_s: f64,
    /// Wall seconds of the same work unprofiled, when the timed
    /// iterations are not the same work.
    pub untraced_s: Option<f64>,
}

/// A benchmark workload.
pub trait Workload {
    /// What set-up hands to the run.
    type Input;
    /// Host threads the workload keeps busy.
    fn threads(&self) -> usize {
        1
    }
    /// Set-ups per iteration; `setup_s` takes their median and the run
    /// gets the last one.
    fn setup_repeats(&self) -> usize {
        1
    }
    /// What `--seed` feeds, for the output.
    fn inputs(&self) -> &'static str;
    /// Untimed, once: reference runs for the oracle.
    fn prepare(&mut self, ctx: &mut Ctx) -> Result<(), String>;
    /// Timed as `setup_s`: generate inputs, get the simulator or server ready.
    fn setup(&mut self, ctx: &mut Ctx, iter: u64) -> Result<Self::Input, String>;
    /// Runs to the final report; times itself.
    fn run(&mut self, ctx: &mut Ctx, iter: u64, input: Self::Input) -> Iteration;
    /// After the timed runs: layer metrics taken over all of them.
    fn finish(&mut self, _ctx: &mut Ctx) {}
    /// One profiled pass over the workload's simulations.
    fn traced(&mut self, ctx: &mut Ctx) -> Result<Traced, String>;
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    perturb: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        perturb: false,
        out: PathBuf::from("bench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--perturb" {
            args.perturb = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            "--scale" => {
                args.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(bad(&"want full or tiny")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// `wall` seconds, `busy` of them spent computing, rescaled to the
/// nominal host. Only the computing share stretches with host speed;
/// sleeps and waits on other threads do not.
fn nominal_s(wall: f64, busy: f64, ref_s: f64) -> f64 {
    let busy = busy.min(wall);
    wall - busy + busy * NOMINAL_REF_S / ref_s
}

/// The traced-run file: spans plus the phase profile.
#[derive(Debug, Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    /// `(phase, ns per DRAM cycle)` for every drive-loop phase.
    phases: Vec<(String, f64)>,
    unattributed_ns: f64,
    overhead_ratio: f64,
    spans: Vec<Span>,
}

/// Timed iterations, then (with `--trace 1`) the profiled pass. Returns
/// the metrics to print.
fn measure<W: Workload>(
    w: &mut W,
    ctx: &mut Ctx,
    args: &Args,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    println!(
        "# dsbench {} seed {}: {}",
        args.workload,
        args.seed,
        w.inputs()
    );
    w.prepare(ctx)?;
    let tracer = Arc::clone(&ctx.tracer);
    let mut drift = DriftKernel::new(w.threads());
    let threads = w.threads() as f64;
    let (mut setup, mut run, mut cycles, mut host) = (vec![], vec![], vec![], vec![]);
    let (mut norm_setup, mut norm_run) = (vec![], vec![]);
    let start = Instant::now();
    let mut iter = 0u64;
    // Start another iteration only if a typical one still fits.
    let mut walls = vec![];
    while run.len() < MIN_ITERATIONS || secs(start) + median(&walls) <= args.seconds {
        let began = Instant::now();
        let before = drift.best_of(3);
        let mut setups = vec![];
        let mut input = None;
        for _ in 0..w.setup_repeats() {
            let cpu = process_cpu_s();
            let (made, t) = tracer.time("setup", iter, || w.setup(ctx, iter));
            setups.push((t, process_cpu_s() - cpu));
            input = Some(made?);
        }
        let input = input.ok_or("no set-up")?;
        let cpu = process_cpu_s();
        let (it, _) = tracer.time("run", iter, || w.run(ctx, iter, input));
        let run_cpu = process_cpu_s() - cpu;
        let ref_s = (before + drift.best_of(3)) / 2.0;
        let nominal = |&(wall, cpu): &(f64, f64)| nominal_s(wall, cpu / threads, ref_s);
        host.push(ref_s);
        walls.push(secs(began));
        setup.push(median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()));
        norm_setup.push(median(&setups.iter().map(nominal).collect::<Vec<_>>()));
        run.push(it.run_s);
        norm_run.push(nominal(&(it.run_s, run_cpu)));
        cycles.push(it.cycles as f64);
        iter += 1;
    }
    w.finish(ctx);
    let rate = |runs: &[f64]| -> f64 {
        let rates: Vec<f64> = cycles.iter().zip(runs).map(|(c, r)| c / r / 1e6).collect();
        median(&rates)
    };
    let list = |xs: &[f64]| -> String {
        let items: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
        items.join(" ")
    };
    println!("# host run_s per iteration: {}", list(&run));
    println!("# host.ref_s per iteration: {}", list(&host));
    println!("# nominal run_s per iteration: {}", list(&norm_run));
    if !args.trace {
        let values = [
            median(&norm_setup),
            median(&norm_run),
            rate(&norm_run),
            peak_rss_mb(),
        ];
        return Ok(END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect());
    }
    let run_s = median(&run);

    let (traced, _) = tracer.time("traced_pass", iter, || w.traced(ctx));
    let traced = traced?;
    let per_cycle = |s: f64| s * 1e9 / traced.cycles.max(1) as f64;
    let phase_s = |p: &str| -> f64 { traced.reports.iter().map(|r| r.perf.phase_seconds(p)).sum() };
    let phases: Vec<(String, f64)> = PHASES
        .iter()
        .map(|(p, _)| (p.to_string(), per_cycle(phase_s(p))))
        .collect();
    let all_phases_s: f64 = PHASES.iter().map(|(p, _)| phase_s(p)).sum();
    let unattributed = per_cycle(traced.advance_s - all_phases_s);
    let overhead = traced.wall_s / traced.untraced_s.unwrap_or(run_s);

    let mut values: Vec<(&str, f64)> = PHASES
        .iter()
        .map(|&(p, name)| (name, per_cycle(phase_s(p))))
        .collect();
    // The timed iterations' own calls when the benchmark makes them;
    // the profiled pass when a driver or the server makes them.
    let layer_or = |name: &str, v: f64| ctx.layers.get(name).unwrap_or(v);
    let busy_ff: u64 = traced
        .reports
        .iter()
        .map(|r| r.perf.busy_forwarded_cycles)
        .sum();
    values.extend([
        ("sim.unattributed_ns", unattributed),
        ("sim.busy_ff_cycles", busy_ff as f64),
        ("sim.cycles", traced.cycles as f64),
        ("sim.new_s", layer_or("sim.new_s", traced.new_s)),
        ("sim.advance_s", layer_or("sim.advance_s", traced.advance_s)),
        ("sim.report_s", layer_or("sim.report_s", traced.report_s)),
        ("trace.overhead_ratio", overhead),
        ("host.ref_s", median(&host)),
        ("host.setup_s", median(&setup)),
        ("host.run_s", run_s),
        ("host.msim_cycles_per_s", rate(&run)),
    ]);
    let file = TraceFile {
        workload: args.workload.clone(),
        seed: args.seed,
        phases,
        unattributed_ns: unattributed,
        overhead_ratio: overhead,
        spans: tracer.take_spans(),
    };
    let path = args
        .out
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, serde_json::to_string(&file).unwrap_or_default()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# trace written to {}", path.display());

    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .or_else(|| ctx.layers.get(name))
                .unwrap_or(0.0);
            (name, v, unit)
        })
        .collect())
}

/// One malloc arena for the whole process. With an arena per thread,
/// peak RSS depends on which threads happened to allocate, and it varied
/// by 1.8× between identical runs of the serve workload.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only adjusts glibc's allocator tuning. It is
    // called before this process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        tiny: args.tiny,
        tracer: Arc::new(Tracer::new(args.trace)),
        oracle: Oracle {
            perturb_next: args.perturb,
            ..Oracle::default()
        },
        layers: Layers::default(),
        out_dir: args.out.clone(),
    };
    let metrics = match args.workload.as_str() {
        "figs_synth" => measure(&mut figs::Figs::new(args.tiny), &mut ctx, &args),
        "gap_pr_8c" => measure(&mut gap::Gap::new(args.tiny), &mut ctx, &args),
        "ckpt_rand_rw_8c" => measure(&mut ckpt::Ckpt::new(args.tiny), &mut ctx, &args),
        "serve_seq_8c" => measure(&mut serve::Serve::new(args.tiny), &mut ctx, &args),
        other => Err(format!(
            "unknown workload {other} (want figs_synth, gap_pr_8c, ckpt_rand_rw_8c, serve_seq_8c)"
        )),
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("dsbench: {e}");
            return ExitCode::from(1);
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let o = &ctx.oracle;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
