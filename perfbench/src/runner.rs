//! Drives one workload: repeated set-up, then a closed loop for the
//! requested seconds, then the metrics.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::probe;
use crate::stats::{median, median_f64, quantile, slope};
use crate::trace::{Layer, Tracer};
use crate::workloads::{OpOutcome, Workload};

/// Set-ups per run; `setup_s` is their median. The first is the one
/// measured; the others are timed after it is torn down.
pub const SETUPS: usize = 9;
/// In a traced run, operations alternate between untraced and traced
/// blocks of this many, so both latency samples span the same period.
pub const TRACE_BLOCK: u64 = 16;
/// The measured phase is cut into this many equal time windows; rates
/// are taken per window and reported as the median over windows, so a
/// burst of outside load moves one window rather than the whole figure.
pub const WINDOWS: usize = 20;
/// Operations per p99 chunk: the fewest that leave ten samples beyond
/// the 99th percentile.
pub const P99_CHUNK: usize = 1000;
/// Resident memory is sampled this often, between operations.
const RSS_EVERY: Duration = Duration::from_millis(50);

/// How to run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Completed calls and their busy and CPU time within one window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    pub calls: u64,
    pub busy_ns: u64,
    pub cpu_ns: u64,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub calls: u64,
    /// Latency of each untraced operation, in ns.
    pub latencies_ns: Vec<u64>,
    /// Latency of each traced operation, in ns.
    pub traced_latencies_ns: Vec<u64>,
    pub windows: Vec<Window>,
    pub outcome: OpOutcome,
    pub setup_s: Vec<f64>,
    pub peak_rss_kb: u64,
    pub rss_growth_kb_per_call: f64,
    pub client_live_objects: usize,
    pub write_syscalls: u64,
    pub read_syscalls: u64,
    pub bytes_copied: u64,
    pub server_allocs: u64,
    pub retries: u64,
    pub replays: u64,
    pub traced_calls: u64,
    /// The calls went through the warm-session protocol.
    pub warm: bool,
    pub layers: crate::trace::LayerTotals,
}

impl RunResult {
    /// Operations that errored or failed verification, over attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn p50_us(&self) -> f64 {
        median(&self.latencies_ns) / 1e3
    }

    /// The p99 of each run of [`P99_CHUNK`] consecutive untraced
    /// operations, median over the chunks: every chunk has ten samples
    /// beyond its p99, and a burst of outside load spoils one chunk
    /// rather than the figure. A run shorter than one chunk falls back
    /// to the p99 of all its samples.
    pub fn p99_us(&self) -> f64 {
        let chunk_p99: Vec<f64> = self
            .latencies_ns
            .chunks_exact(P99_CHUNK)
            .map(|chunk| quantile(chunk, 0.99))
            .collect();
        if chunk_p99.is_empty() {
            return quantile(&self.latencies_ns, 0.99) / 1e3;
        }
        median_f64(chunk_p99) / 1e3
    }

    /// Chunks the p99 is the median over.
    pub fn p99_chunks(&self) -> usize {
        self.latencies_ns.len() / P99_CHUNK
    }

    /// Median over windows of a per-window rate.
    fn window_median(&self, rate: impl Fn(&Window) -> f64) -> f64 {
        median_f64(
            self.windows
                .iter()
                .filter(|w| w.calls > 0)
                .map(rate)
                .collect(),
        )
    }

    /// Completed calls per second of busy (operation) time.
    pub fn calls_per_s(&self) -> f64 {
        self.window_median(|w| w.calls as f64 / (w.busy_ns as f64 / 1e9))
    }

    /// Process CPU time per completed call, in µs.
    pub fn cpu_us_per_call(&self) -> f64 {
        self.window_median(|w| w.cpu_ns as f64 / 1e3 / w.calls as f64)
    }
}

/// Runs workload `W` under `cfg`.
///
/// # Errors
/// A set-up or tear-down failure; per-operation failures are counted in
/// the result instead.
pub fn run<W: Workload>(cfg: RunConfig) -> Result<RunResult, String> {
    let mut result = RunResult {
        warm: W::WARM,
        ..RunResult::default()
    };
    let tracer = Tracer::new();
    let (mut workload, first_setup_s) = set_up::<W>(cfg.seed, &tracer)?;
    result.setup_s.push(first_setup_s);

    let (writes0, reads0) = nrmi_transport::wire_syscalls();
    let copied0 = nrmi_transport::bytes_copied();
    let (process_allocs0, client_allocs0) = (probe::process_allocs(), probe::thread_allocs());
    let mut rss_samples: Vec<(f64, f64)> = vec![(0.0, probe::rss_kb() as f64)];
    let mut next_rss = Instant::now() + RSS_EVERY;
    let phase = Duration::from_secs_f64(cfg.seconds);
    let window_len = phase / WINDOWS as u32;
    result.windows = vec![Window::default(); WINDOWS];
    let phase_start = Instant::now();
    let deadline = phase_start + phase;
    let mut op = 1u64;
    while Instant::now() < deadline {
        workload.prepare(op);
        let traced = cfg.trace && (op / TRACE_BLOCK) % 2 == 1;
        if traced {
            tracer.begin_op(op);
        }
        let cpu0 = probe::process_cpu_ns();
        let started = Instant::now();
        let executed = {
            let _call = tracer.span(Layer::Call);
            workload.execute(op)
        };
        let elapsed = started.elapsed().as_nanos() as u64;
        let cpu = probe::process_cpu_ns() - cpu0;
        if traced {
            tracer.end_op();
        }
        result.attempted += 1;
        let slot =
            (started.duration_since(phase_start).as_secs_f64() / window_len.as_secs_f64()) as usize;
        if traced {
            result.traced_latencies_ns.push(elapsed);
            result.traced_calls += W::CALLS_PER_OP;
        } else {
            result.latencies_ns.push(elapsed);
        }
        // Verify (and collect) even after a failed call.
        let verified = workload.verify(op);
        match executed
            .map_err(|e| format!("op {op}: {e}"))
            .and_then(|outcome| verified.map(|()| outcome))
        {
            Ok(outcome) => {
                result.calls += W::CALLS_PER_OP;
                result.outcome.add(&outcome);
                let window = &mut result.windows[slot.min(WINDOWS - 1)];
                window.calls += W::CALLS_PER_OP;
                window.busy_ns += elapsed;
                window.cpu_ns += cpu;
            }
            Err(e) => {
                result.failed += 1;
                result.first_error.get_or_insert(e);
            }
        }
        if Instant::now() >= next_rss {
            rss_samples.push((result.calls as f64, probe::rss_kb() as f64));
            next_rss = Instant::now() + RSS_EVERY;
        }
        op += 1;
    }
    rss_samples.push((result.calls as f64, probe::rss_kb() as f64));
    result.peak_rss_kb = probe::peak_rss_kb();
    result.rss_growth_kb_per_call = slope(&rss_samples);
    let (writes1, reads1) = nrmi_transport::wire_syscalls();
    result.write_syscalls = writes1 - writes0;
    result.read_syscalls = reads1 - reads0;
    result.bytes_copied = nrmi_transport::bytes_copied() - copied0;
    result.server_allocs = (probe::process_allocs() - process_allocs0)
        .saturating_sub(probe::thread_allocs() - client_allocs0);
    result.retries = tracer.wire.retries.load(Ordering::Relaxed);
    result.replays = tracer.wire.replays.load(Ordering::Relaxed);
    result.layers = tracer.totals();
    result.client_live_objects = workload.client_live_objects();
    workload.finish()?;
    // The remaining set-ups run after the measured one is torn down, so
    // they leave nothing behind in its memory figures.
    for _ in 1..SETUPS {
        let (workload, setup_s) = set_up::<W>(cfg.seed, &Tracer::new())?;
        result.setup_s.push(setup_s);
        workload.finish()?;
    }
    Ok(result)
}

/// Sets a workload up and runs one untimed first operation, which lets
/// lazy set-up finish (and, for warm sessions, seeds the cache). Returns
/// the workload and the seconds all of that took.
fn set_up<W: Workload>(seed: u64, tracer: &Arc<Tracer>) -> Result<(W, f64), String> {
    let started = Instant::now();
    let mut workload = W::setup(seed, tracer).map_err(|e| format!("set-up: {e}"))?;
    workload.prepare(0);
    workload
        .execute(0)
        .map_err(|e| format!("set-up call: {e}"))?;
    workload
        .verify(0)
        .map_err(|e| format!("set-up call: {e}"))?;
    Ok((workload, started.elapsed().as_secs_f64()))
}
