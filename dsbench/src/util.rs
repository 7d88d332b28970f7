//! Measurement plumbing shared by the workloads: statistics, the span
//! recorder, the report oracle, peak memory and the host-drift kernel.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dramstack_sim::SimReport;
use serde::Serialize;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Derives an independent 64-bit seed for input `stream` from the
/// benchmark seed (SplitMix64 finalizer), so every generated input
/// changes with `--seed` without two inputs sharing a seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process has used, over all its threads.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), the only memory `clock_gettime` writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Elsewhere the process clock is not read: every time counts as
/// waiting, so no time is rescaled.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    0.0
}

/// The host-drift sentinel: a fixed pointer-chasing and sorting kernel
/// over a 4 MB buffer per thread, allocated once so only the work is
/// timed. It shares no code with the simulator; its time tracks how fast
/// the host runs right now, on as many threads as the workload uses.
#[derive(Debug)]
pub struct DriftKernel(Vec<Vec<u64>>);

impl DriftKernel {
    pub fn new(threads: usize) -> Self {
        DriftKernel((0..threads.max(1)).map(|_| vec![0; 1 << 19]).collect())
    }

    /// The fastest of `n` runs: the host's speed with the least noise.
    pub fn best_of(&mut self, n: usize) -> f64 {
        (0..n).map(|_| self.time()).fold(f64::MAX, f64::min)
    }

    /// Runs the kernel once on every thread; returns wall seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        match self.0.as_mut_slice() {
            [one] => kernel(one),
            bufs => std::thread::scope(|s| {
                for buf in bufs.iter_mut() {
                    s.spawn(|| kernel(buf));
                }
            }),
        }
        secs(t)
    }
}

fn kernel(v: &mut [u64]) {
    let n = v.len();
    for (i, x) in v.iter_mut().enumerate() {
        *x = derive_seed(i as u64, 7);
    }
    let mut at = 0usize;
    let mut acc = 0u64;
    for _ in 0..n {
        acc = acc.wrapping_add(v[at]).rotate_left(7);
        v[at] ^= acc;
        at = (v[at] as usize) & (n - 1);
    }
    v.sort_unstable();
    black_box(acc ^ v[n / 2]);
}

/// One recorded span: a timed call across a layer boundary.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Span id (ids start at 1).
    pub id: u64,
    /// Id of the enclosing span, 0 at the top.
    pub parent: u64,
    /// Layer call, e.g. `sim.advance`.
    pub name: String,
    /// The config, job or iteration the span belongs to.
    pub job: u64,
    /// Start, in microseconds since the benchmark began.
    pub start_us: f64,
    /// End, in microseconds since the benchmark began.
    pub end_us: f64,
}

thread_local! {
    /// The innermost span open on this thread, the parent of new ones.
    static OPEN_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// Times the benchmark's calls into the layers and, when tracing, keeps
/// a span per call in memory until the end of the run. A span's parent
/// is the span open on the same thread when it started.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer recording spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` as the call `name` of config, job or iteration `job`;
    /// returns its result with its host time in seconds.
    pub fn time<R>(&self, name: &str, job: u64, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.on {
            let start = Instant::now();
            let r = f();
            return (r, secs(start));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN_SPAN.with(|open| open.replace(id));
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        OPEN_SPAN.with(|open| open.set(parent));
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(Span {
                id,
                parent,
                name: name.to_string(),
                job,
                start_us: us(start),
                end_us: us(end),
            });
        (r, end.duration_since(start).as_secs_f64())
    }

    /// The recorded spans, in completion order.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.lock().expect("span recorder poisoned"))
    }
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of everything a report says about the simulated machine: the
/// `strip_perf()` report with the auditor's bookkeeping cleared (the
/// auditor is checked separately and never changes results), so an
/// armed reference run and an unarmed timed run digest alike.
pub fn report_digest(r: &SimReport) -> u64 {
    let mut r = r.strip_perf();
    r.audit = Default::default();
    fnv1a(serde_json::to_string(&r).unwrap_or_default().as_bytes())
}

/// Counts operations attempted and failed, and checks reports against
/// expected digests.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Self-test switch: corrupt the next report before digesting it.
    pub perturb_next: bool,
}

impl Oracle {
    /// Records one operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("dsbench: FAILED: {}", what());
            }
        }
    }

    /// Records an operation that returned a `Result`, yielding its value.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Digest of `r` as this run sees it (corrupted once under the
    /// self-test switch).
    pub fn digest(&mut self, r: &SimReport) -> u64 {
        if std::mem::take(&mut self.perturb_next) {
            let mut bad = r.clone();
            bad.instrs_retired ^= 1;
            return report_digest(&bad);
        }
        report_digest(r)
    }

    /// Checks one report: clean audit, and digest equal to `expected`.
    /// Returns the report's digest.
    pub fn check_report(&mut self, label: &str, r: &SimReport, expected: Option<u64>) -> u64 {
        let d = self.digest(r);
        let clean = r.audit.is_clean();
        let matches = expected.is_none_or(|e| e == d);
        self.check(clean && matches, || {
            format!(
                "{label}: digest {d:016x}, expected {}, audit clean {clean}",
                expected.map_or("-".to_string(), |e| format!("{e:016x}"))
            )
        });
        d
    }
}

/// Per-layer samples, reported as the median of each metric's samples.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    /// Adds one sample of `name`.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    /// Median of the samples of `name`, if any were taken.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| median(v))
    }
}
