//! `serve_seq_8c`: an in-process `serve::Server` with one worker, driven
//! by one closed-loop client. Per job: `POST /jobs`, read
//! `/jobs/<id>/stream` until it closes, `GET /jobs/<id>`; `/metrics` is
//! scraped every tenth job.

use std::thread::JoinHandle;
use std::time::Duration;

use dramstack_serve::{Client, ServeConfig, ServeStats, Server, ServerHandle};
use dramstack_sim::{JobSpec, SimReport, Simulator};
use serde::Value;

use crate::util::{quantile, secs};
use crate::{digests, Ctx, Iteration, Traced, Workload};

/// Jobs per run, and jobs between `/metrics` scrapes.
const METRICS_EVERY: usize = 10;
/// Direct simulations in each half of the profiled pass.
const TRACED_JOBS: usize = 20;

/// A running server and its client. Dropping it drains the server.
#[derive(Debug)]
pub struct Running {
    handle: ServerHandle,
    thread: Option<JoinHandle<ServeStats>>,
    client: Client,
}

impl Running {
    /// Drains the server and waits for its accept loop to return.
    fn stop(&mut self) -> Option<Result<ServeStats, String>> {
        self.handle.drain();
        let thread = self.thread.take()?;
        Some(
            thread
                .join()
                .map_err(|_| "serve thread panicked".to_string()),
        )
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

#[derive(Debug)]
pub struct Serve {
    jobs: usize,
    spec: JobSpec,
    expected: Option<u64>,
    /// Client-side job latencies of every timed run, in ms.
    latencies: Vec<f64>,
}

impl Serve {
    pub fn new(tiny: bool) -> Self {
        Serve {
            jobs: if tiny { 4 } else { 100 },
            spec: JobSpec {
                pattern: "seq".to_string(),
                cores: 8,
                us: 20.0,
                ..JobSpec::default()
            },
            expected: None,
            latencies: Vec::new(),
        }
    }

    /// The job simulated directly, as the server's worker would.
    fn direct(&self, profile: bool, audit: bool) -> Result<(SimReport, [f64; 3]), String> {
        let (cfg, pattern) = self.spec.resolve()?;
        let start = std::time::Instant::now();
        let mut sim = Simulator::with_synthetic(cfg, pattern);
        let new_s = secs(start);
        sim.set_audit(audit);
        if profile {
            sim.enable_profiling();
        }
        let start = std::time::Instant::now();
        sim.advance_for_us(self.spec.us);
        let adv_s = secs(start);
        let start = std::time::Instant::now();
        let report = sim.report();
        Ok((report, [new_s, adv_s, secs(start)]))
    }
}

/// The embedded report of a `done` status body, or why there is none.
fn done_report(body: &str) -> Result<(SimReport, f64), String> {
    let v: Value = serde_json::from_str(body).map_err(|e| format!("status body: {e}"))?;
    let status = v.get("status").and_then(Value::as_str).unwrap_or("?");
    if status != "done" {
        return Err(format!("job ended {status}"));
    }
    let elapsed = v.get("elapsed_ms").and_then(Value::as_f64).unwrap_or(0.0);
    let report = v.get("report").ok_or("done status without a report")?;
    let report = serde_json::from_value(report).map_err(|e| format!("report: {e}"))?;
    Ok((report, elapsed))
}

impl Workload for Serve {
    type Input = Running;

    /// Start-up takes well under a millisecond; one sample per
    /// iteration is too noisy for its median to repeat.
    fn setup_repeats(&self) -> usize {
        8
    }

    fn inputs(&self) -> &'static str {
        "fixed inputs: JobSpec has no seed field, --seed is not used"
    }

    /// The job run directly with the auditor armed: the reference every
    /// served report must match.
    fn prepare(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let (r, _) = self.direct(false, true)?;
        let pinned = (!ctx.tiny).then_some(digests::SERVE);
        self.expected = Some(ctx.oracle.check_report("serve reference", &r, pinned));
        ctx.oracle.check(r.audit.armed, || {
            "serve reference: auditor not armed".to_string()
        });
        Ok(())
    }

    fn setup(&mut self, ctx: &mut Ctx, iter: u64) -> Result<Running, String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServeConfig::default()
        };
        let (server, _) = ctx.tracer.time("serve.bind", iter, || Server::bind(cfg));
        let server = server.map_err(|e| format!("bind: {e}"))?;
        let client = Client::new(server.local_addr().to_string());
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("dsbench-serve".to_string())
            .spawn(move || server.serve())
            .map_err(|e| format!("spawn: {e}"))?;
        Ok(Running {
            handle,
            thread: Some(thread),
            client,
        })
    }

    fn run(&mut self, ctx: &mut Ctx, iter: u64, mut srv: Running) -> Iteration {
        let tr = std::sync::Arc::clone(&ctx.tracer);
        let spec = self.spec.to_json();
        let client = &srv.client;
        let mut run_s = 0.0;
        let mut cycles = 0;
        for j in 0..self.jobs {
            let job = iter * 1_000_000 + j as u64;
            let (outcome, job_s) = tr.time("serve.job", job, || {
                let (id, submit_s) = tr.time("serve.submit", job, || client.submit_job(&spec));
                let id = id.map_err(|e| format!("submit: {e}"))?;
                let (lines, wait_s) = tr.time("serve.wait", job, || client.stream_lines(id));
                lines.map_err(|e| format!("stream: {e}"))?;
                // The stream closes as the report is published, a moment
                // before the job's state flips to done.
                let (body, status_s) = tr.time("serve.status", job, || loop {
                    let body = client.job_status(id)?;
                    if !body.contains("\"status\":\"running\"") {
                        return Ok(body);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                });
                let body =
                    body.map_err(|e: dramstack_serve::ClientError| format!("status: {e}"))?;
                Ok::<_, String>((body, [submit_s, wait_s, status_s]))
            });
            run_s += job_s;
            let checked = outcome.and_then(|(body, times)| {
                let (report, elapsed) = done_report(&body)?;
                Ok((report, elapsed, body.len(), times))
            });
            let Some((report, elapsed, bytes, [submit_s, wait_s, status_s])) =
                ctx.oracle.ok("served job", checked)
            else {
                continue;
            };
            ctx.oracle
                .check_report("served job", &report, self.expected);
            cycles += report.sim_cycles;
            self.latencies.push(job_s * 1e3);
            let l = &mut ctx.layers;
            l.push("serve.submit_ms", submit_s * 1e3);
            l.push("serve.wait_ms", wait_s * 1e3);
            l.push("serve.status_ms", status_s * 1e3);
            l.push("serve.server_elapsed_ms", elapsed);
            l.push("serve.status_bytes", bytes as f64);
            if (j + 1) % METRICS_EVERY == 0 {
                let (m, t) = tr.time("serve.metrics", job, || client.metrics());
                run_s += t;
                ctx.layers.push("serve.metrics_ms", t * 1e3);
                let ok = matches!(&m, Ok(text) if text.contains("dramstack_serve_jobs_total"));
                ctx.oracle
                    .check(ok, || format!("metrics scrape: {:?}", m.err()));
            }
        }
        let stats = srv
            .stop()
            .unwrap_or(Err("server already stopped".to_string()));
        if let Some(stats) = ctx.oracle.ok("drain", stats) {
            let done = stats.completed as usize;
            ctx.oracle.check(done == self.jobs, || {
                format!("server completed {done} jobs of {}", self.jobs)
            });
        }
        ctx.layers
            .push("serve.jobs_per_s", self.jobs as f64 / run_s);
        Iteration { run_s, cycles }
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        let l = &mut ctx.layers;
        l.push("serve.job_p50_ms", quantile(&self.latencies, 0.5));
        l.push("serve.job_p90_ms", quantile(&self.latencies, 0.9));
    }

    /// The job simulated directly, alternately unprofiled and profiled,
    /// so the overhead ratio compares like with like.
    fn traced(&mut self, ctx: &mut Ctx) -> Result<Traced, String> {
        let mut traced = Traced::default();
        let mut untraced_s = 0.0;
        for _ in 0..TRACED_JOBS {
            let (_, [n, a, r]) = self.direct(false, false)?;
            untraced_s += n + a + r;
            let (report, [n, a, r]) = self.direct(true, false)?;
            ctx.oracle
                .check_report("serve traced", &report, self.expected);
            traced.new_s += n;
            traced.advance_s += a;
            traced.report_s += r;
            traced.wall_s += n + a + r;
            traced.cycles += report.sim_cycles;
            traced.reports.push(report);
        }
        traced.untraced_s = Some(untraced_s);
        Ok(traced)
    }
}
