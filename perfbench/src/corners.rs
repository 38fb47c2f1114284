//! `design-corners`: the Artisan flow itself. A trained `Artisan` runs
//! supervised design sessions, cycling the Table 2 specs with
//! per-session seeds, against the full local stack
//! `CornerSim<ScreenedSim<CachedSim<Simulator>>>` (27-corner grid, one
//! shared cache). Bound by `sim`; the GP does nothing here.

use crate::report::{median, percentile, ratio, same_perf, Digest, RunReport};
use crate::trace::{self, Timed, Tracer};
use crate::{mix, training, Size};
use artisan::circuit::Topology;
use artisan::core::Artisan;
use artisan::dataset::DatasetConfig;
use artisan::resilience::{SessionReport, Supervisor};
use artisan::sim::{
    CachedSim, CornerGrid, CornerSim, Performance, ScreenedSim, SimCache, Simulator, Spec,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared cache's capacity: `SimCache`'s own default.
const CACHE_CAPACITY: usize = 4096;

struct Params {
    setups: usize,
    warm_sessions: usize,
    /// Sessions every run completes, whatever its length; the digest
    /// covers exactly these.
    min_sessions: usize,
    dataset: DatasetConfig,
}

impl Params {
    fn new(size: Size) -> Params {
        match size {
            Size::Full => Params {
                setups: 3,
                warm_sessions: 40,
                min_sessions: 200,
                dataset: DatasetConfig::default(),
            },
            Size::Tiny => Params {
                setups: 1,
                warm_sessions: 2,
                min_sessions: 6,
                dataset: DatasetConfig::tiny(),
            },
        }
    }
}

/// Session `i` of the input stream: a Table 2 spec and its seed.
fn session_input(seed: u64, i: u64) -> (Spec, u64) {
    let specs = Spec::table2();
    (specs[(i % specs.len() as u64) as usize].1, mix(seed, i))
}

/// The local stack: corners over screening over the report cache over
/// the simulator, every layer sharing `cache`.
fn stack(cache: &Arc<SimCache>) -> CornerSim<ScreenedSim<CachedSim<Simulator>>> {
    CornerSim::new(
        ScreenedSim::new(CachedSim::new(Simulator::new(), Arc::clone(cache)))
            .with_cache(Arc::clone(cache)),
        CornerGrid::default(),
    )
    .with_cache(Arc::clone(cache))
}

type TimedStack = Timed<CornerSim<Timed<ScreenedSim<Timed<CachedSim<Timed<Simulator>>>>>>>;

/// The same stack with a timing wrapper around every layer.
fn timed_stack(cache: &Arc<SimCache>, tracer: &Tracer) -> TimedStack {
    let sim = Timed::new(Simulator::new(), tracer, "sim");
    let cached = Timed::new(CachedSim::new(sim, Arc::clone(cache)), tracer, "sim.cache");
    let screened = Timed::new(
        ScreenedSim::new(cached).with_cache(Arc::clone(cache)),
        tracer,
        "sim.screen",
    );
    Timed::new(
        CornerSim::new(screened, CornerGrid::default()).with_cache(Arc::clone(cache)),
        tracer,
        "sim.corners",
    )
}

/// What a session leaves for the checks and the digest.
struct Session {
    spec: Spec,
    success: bool,
    performance: Option<Performance>,
    topology: Option<Topology>,
    testbed_seconds: f64,
    attempts: usize,
    llm_steps: usize,
}

impl Session {
    fn of(spec: Spec, report: &SessionReport) -> Session {
        let outcome = report.outcome.as_ref();
        Session {
            spec,
            success: report.success,
            performance: outcome
                .and_then(|o| o.report.as_ref())
                .map(|r| r.performance),
            topology: outcome.map(|o| o.topology.clone()),
            testbed_seconds: report.testbed_seconds,
            attempts: report.attempts,
            llm_steps: report.llm_steps,
        }
    }

    fn same_as(&self, other: &Session) -> bool {
        self.success == other.success
            && same_perf(self.performance.as_ref(), other.performance.as_ref())
            && self.topology == other.topology
            && self.testbed_seconds.to_bits() == other.testbed_seconds.to_bits()
            && self.attempts == other.attempts
            && self.llm_steps == other.llm_steps
    }

    /// A successful session's design re-analyzes on a fresh simulator
    /// to the reported bits and meets the spec.
    fn check(&self) -> Result<(), String> {
        if !self.success {
            return Ok(());
        }
        let topo = self.topology.as_ref().ok_or("success without a design")?;
        let report = Simulator::new()
            .analyze_topology(topo)
            .map_err(|e| format!("design does not re-analyze: {e}"))?;
        if !same_perf(Some(&report.performance), self.performance.as_ref()) {
            return Err("fresh re-analysis differs from the reported performance".into());
        }
        if !self.spec.check(&report.performance).success() {
            return Err("re-analyzed design misses the spec".into());
        }
        Ok(())
    }
}

/// Builds the trained Artisan, then runs warm-up sessions on seeds and
/// a cache the timed phase never uses; repeated `setups` times.
fn setup(params: &Params, seed: u64) -> (Artisan, f64) {
    let supervisor = Supervisor::default();
    let mut times = Vec::new();
    let mut build = || {
        let t0 = Instant::now();
        let mut artisan = Artisan::new(training::options(params.dataset));
        let cache = SimCache::shared(CACHE_CAPACITY);
        for i in 0..params.warm_sessions as u64 {
            let (spec, s) = session_input(!seed, i);
            let mut sim = stack(&cache);
            std::hint::black_box(artisan.design_supervised(&spec, &mut sim, &supervisor, s));
        }
        times.push(t0.elapsed().as_secs_f64());
        artisan
    };
    let mut artisan = build();
    for _ in 1..params.setups {
        artisan = build();
    }
    (artisan, median(&times))
}

fn check_all(report: &mut RunReport, sessions: &[Session], digest_len: usize) {
    let mut digest = Digest::default();
    for (i, s) in sessions.iter().enumerate() {
        report.attempted += 1;
        if i < digest_len {
            digest.bool(s.success);
            digest.performance(s.performance.as_ref());
            digest.f64(s.testbed_seconds);
        }
        if let Err(why) = s.check() {
            report.failed += 1;
            report.fail(format!("session {i}: {why}"));
        }
    }
    report.digest = Some(digest);
}

pub fn run(seed: u64, seconds: f64, size: Size) -> RunReport {
    let params = Params::new(size);
    let (mut artisan, setup_s) = setup(&params, seed);
    let supervisor = Supervisor::default();
    let cache = SimCache::shared(CACHE_CAPACITY);
    let deadline = Duration::from_secs_f64(seconds);
    let mut sessions = Vec::new();
    let mut latencies_ms = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while (i as usize) < params.min_sessions || start.elapsed() < deadline {
        let (spec, s) = session_input(seed, i);
        let t0 = Instant::now();
        let mut sim = stack(&cache);
        let r = artisan.design_supervised(&spec, &mut sim, &supervisor, s);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        sessions.push(Session::of(spec, &r));
        i += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let mut report = RunReport::default();
    check_all(&mut report, &sessions, params.min_sessions);
    report.set("setup_s", setup_s);
    report.set("ops_per_s", ratio(sessions.len() as f64, wall));
    report.set("op_p50_ms", percentile(&latencies_ms, 0.5));
    report.set("op_p90_ms", percentile(&latencies_ms, 0.9));
    report
}

/// Traced pass: dataset build and LM training timed apart, then each
/// session runs twice, untraced on one cache and through the timed
/// stack on another (alternating which goes first); both must give the
/// same result bit for bit.
pub fn run_traced(seed: u64, seconds: f64, size: Size) -> RunReport {
    let params = Params::new(size);
    let mut report = RunReport::default();
    let (build_s, train_s) = training::time_training(&params.dataset, params.setups);
    report.set("dataset.build_s", build_s);
    report.set("llm.train_s", train_s);
    let (mut artisan, _) = setup(
        &Params {
            setups: 1,
            ..Params::new(size)
        },
        seed,
    );
    let supervisor = Supervisor::default();

    let deadline = Duration::from_secs_f64(seconds);
    let (plain_cache, cache) = (
        SimCache::shared(CACHE_CAPACITY),
        SimCache::shared(CACHE_CAPACITY),
    );
    let tracer = Tracer::new(Instant::now());
    let mut traced = Vec::new();
    let (mut grids, mut screened_out) = (0u64, 0u64);
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let start = Instant::now();
    while traced.len() < params.min_sessions || start.elapsed() < deadline {
        let i = traced.len();
        let (spec, s) = session_input(seed, i as u64);
        let mut run_plain = |artisan: &mut Artisan| {
            let t0 = Instant::now();
            let r = artisan.design_supervised(&spec, &mut stack(&plain_cache), &supervisor, s);
            plain_s += t0.elapsed().as_secs_f64();
            Session::of(spec, &r)
        };
        tracer.set_op(i as u32);
        let mut run_traced = |artisan: &mut Artisan| {
            let t0 = Instant::now();
            let mut sim = timed_stack(&cache, &tracer);
            let r = tracer.span("op", || {
                artisan.design_supervised(&spec, &mut sim, &supervisor, s)
            });
            grids += sim.inner().grids_evaluated();
            screened_out += sim.inner().inner().inner().screened_out();
            traced_s += t0.elapsed().as_secs_f64();
            Session::of(spec, &r)
        };
        let (a, b) = if i.is_multiple_of(2) {
            let a = run_plain(&mut artisan);
            (a, run_traced(&mut artisan))
        } else {
            let b = run_traced(&mut artisan);
            (run_plain(&mut artisan), b)
        };
        if !a.same_as(&b) {
            report.failed += 1;
            report.fail(format!(
                "session {i}: timed stack changed the session result"
            ));
        }
        traced.push(b);
    }
    check_all(&mut report, &traced, params.min_sessions);

    let spans = tracer.take();
    let selfs = trace::self_ns(&spans);
    let n = traced.len() as f64;
    let op_ns = trace::total_ns(&spans, "op") as f64;
    let backend_ns = trace::total_ns(&spans, "sim.corners") as f64;
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let stats = cache.stats();
    report.set("sim.calls", count("sim") / n);
    report.set(
        "sim.call_us_p50",
        median(&trace::durations_us(&spans, "sim")),
    );
    report.set("sim.busy_frac", ratio(backend_ns, op_ns));
    report.set(
        "sim.screen.self_ms",
        trace::total_self_ns(&spans, &selfs, "sim.screen") as f64 / 1e6 / n,
    );
    report.set(
        "sim.screen.reject_ratio",
        ratio(screened_out as f64, count("sim.screen")),
    );
    report.set(
        "sim.corners.self_frac",
        ratio(
            trace::total_self_ns(&spans, &selfs, "sim.corners") as f64,
            op_ns,
        ),
    );
    report.set("sim.corners.grids", grids as f64 / n);
    report.set("sim.cache.hit_ratio", stats.hit_rate());
    report.set("sim.cache.coalesced", stats.coalesced as f64);
    report.set("agents.self_frac", ratio(op_ns - backend_ns, op_ns));
    report.set(
        "agents.llm_steps_per_op",
        traced.iter().map(|s| s.llm_steps as f64).sum::<f64>() / n,
    );
    report.set(
        "resilience.attempts_per_op",
        traced.iter().map(|s| s.attempts as f64).sum::<f64>() / n,
    );
    report.set(
        "design.success_ratio",
        traced.iter().filter(|s| s.success).count() as f64 / n,
    );
    report.set("trace.overhead_frac", ratio(traced_s, plain_s) - 1.0);
    report.set(
        "trace.unattributed_frac",
        1.0 - ratio(op_ns / 1e9, traced_s),
    );
    report.spans = spans;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_stack_is_transparent() {
        let params = Params::new(Size::Tiny);
        let mut artisan = Artisan::new(training::options(params.dataset));
        let supervisor = Supervisor::default();
        let tracer = Tracer::new(Instant::now());
        let (plain_cache, timed_cache) = (
            SimCache::shared(CACHE_CAPACITY),
            SimCache::shared(CACHE_CAPACITY),
        );
        for i in 0..4 {
            let (spec, s) = session_input(7, i);
            let a = artisan.design_supervised(&spec, &mut stack(&plain_cache), &supervisor, s);
            let mut sim = timed_stack(&timed_cache, &tracer);
            let b = artisan.design_supervised(&spec, &mut sim, &supervisor, s);
            assert_eq!(a, b, "session {i}");
        }
        assert!(!tracer.take().is_empty());
    }
}
