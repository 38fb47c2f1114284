//! `serve-overlap`: an in-process design server (batching on, default
//! configuration) on loopback, driven closed-loop by one tenant
//! connection per core. Tenants are optimizers that wait for their
//! batch: each wave every tenant sends one `AnalyzeBatch` of fresh
//! candidates (mostly shared across tenants, a few private, a fixed
//! share repeating earlier waves), and every `design_every`-th wave a
//! `Design` request instead. The only path through `serve`: codec,
//! batcher, dedup, admission, cache reads.

use crate::report::{median, percentile, ratio, Digest, RunReport};
use crate::trace::{self, Span, Tracer};
use crate::{mix, nproc, Size};
use artisan::circuit::sample::{sample_topology, SampleRanges};
use artisan::circuit::Topology;
use artisan::resilience::{SessionReport, Supervisor};
use artisan::serve::proto::{read_frame, write_frame};
use artisan::serve::{
    Request, Response, Server, ServerConfig, WireOutcome, WireReport, WireStats, WorkItem,
};
use artisan::sim::{Simulator, Spec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

struct Params {
    tenants: usize,
    shared: usize,
    private: usize,
    repeats: usize,
    /// How far back (in waves) a repeated candidate may come from.
    repeat_window: usize,
    design_every: usize,
    /// Distinct waves of generated candidates; later waves cycle.
    pool_waves: usize,
    warm_waves: usize,
    /// Waves every run completes; the digest covers exactly these.
    min_waves: usize,
    setups: usize,
}

impl Params {
    fn new(size: Size) -> Params {
        match size {
            Size::Full => Params {
                tenants: nproc(),
                shared: 64,
                private: 4,
                repeats: 8,
                repeat_window: 16,
                design_every: 8,
                pool_waves: 256,
                warm_waves: 48,
                min_waves: 64,
                setups: 3,
            },
            Size::Tiny => Params {
                tenants: 2,
                shared: 6,
                private: 1,
                repeats: 2,
                repeat_window: 4,
                design_every: 4,
                pool_waves: 8,
                warm_waves: 2,
                min_waves: 8,
                setups: 1,
            },
        }
    }
}

const CL: f64 = 10e-12;

/// The generated candidates: per pool wave, a shared set every tenant
/// sends and one private set per tenant.
struct Inputs {
    shared: Vec<Vec<Topology>>,
    private: Vec<Vec<Vec<Topology>>>,
}

impl Inputs {
    fn generate(p: &Params, seed: u64, waves: usize) -> Inputs {
        let ranges = SampleRanges::default();
        let draw = |stream: u64, n: usize| -> Vec<Topology> {
            let mut rng = StdRng::seed_from_u64(mix(seed, stream));
            (0..n)
                .map(|_| sample_topology(&mut rng, &ranges, CL))
                .collect()
        };
        let shared = (0..waves).map(|w| draw(w as u64, p.shared)).collect();
        let private = (0..waves)
            .map(|w| {
                (0..p.tenants)
                    .map(|t| draw(((w as u64) << 16) | (t as u64 + 1) << 48, p.private))
                    .collect()
            })
            .collect();
        Inputs { shared, private }
    }

    fn waves(&self) -> usize {
        self.shared.len()
    }

    /// Tenant `t`'s candidates at `wave`: the wave's shared set, its
    /// private set, then `repeats` shared candidates of recent waves.
    fn items(&self, p: &Params, wave: usize, t: usize) -> Vec<Topology> {
        let n = self.waves();
        let w = wave % n;
        let mut out = self.shared[w].clone();
        out.extend(self.private[w][t].iter().cloned());
        for j in 0..p.repeats {
            let back = 1 + (j * 5 + wave) % p.repeat_window;
            let src = (w + n * back - back) % n;
            out.push(self.shared[src][(j * 11 + wave) % p.shared].clone());
        }
        out
    }
}

/// The request tenant `t` sends at `wave`, and for `AnalyzeBatch` the
/// index of the item checked against a local analysis.
fn request(p: &Params, inputs: &Inputs, seed: u64, wave: usize, t: usize) -> (Request, Ask) {
    if wave % p.design_every == p.design_every - 1 {
        let specs = Spec::table2();
        let spec = specs[(wave / p.design_every + t) % specs.len()].1;
        let seed = mix(seed ^ 0xD5, (wave * p.tenants + t) as u64);
        let req = Request::Design {
            tenant: format!("tenant-{t}"),
            seed,
            spec,
        };
        (req, Ask::Design { spec, seed })
    } else {
        let items = inputs.items(p, wave, t);
        let check = (wave * 7 + t * 3) % items.len();
        let req = Request::AnalyzeBatch {
            items: items.into_iter().map(WorkItem::Topo).collect(),
        };
        (req, Ask::Analyze { check })
    }
}

#[derive(Debug, Clone, Copy)]
enum Ask {
    Analyze { check: usize },
    Design { spec: Spec, seed: u64 },
}

/// One completed request.
struct Rec {
    wave: usize,
    tenant: usize,
    ask: Ask,
    ms: f64,
    /// The checked part of the reply: the checked item re-encoded as a
    /// one-item `Analysis`, or the whole `Design` reply payload.
    checked: Result<Vec<u8>, String>,
    /// FNV of the whole reply payload.
    payload_hash: u64,
    frame_bytes: usize,
    codec_ns: u64,
}

/// A set-up run: a started server with warm, connected tenants.
struct Rig {
    /// Kept for its lifetime: dropping it shuts the server down.
    _server: Server,
    streams: Vec<TcpStream>,
    inputs: Inputs,
}

fn call(stream: &mut TcpStream, req: &Request) -> Result<Response, String> {
    write_frame(stream, &req.encode()).map_err(|e| format!("send: {e}"))?;
    let payload = read_frame(stream).map_err(|e| format!("receive: {e}"))?;
    Response::decode(&payload)
}

fn setup_once(p: &Params, seed: u64) -> Result<Rig, String> {
    let inputs = Inputs::generate(p, seed, p.pool_waves);
    let server = Server::start(ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let mut streams = Vec::new();
    for t in 0..p.tenants {
        let stream =
            TcpStream::connect(server.addr()).map_err(|e| format!("tenant {t} connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("tenant {t} nodelay: {e}"))?;
        streams.push(stream);
    }
    // Warm-up on candidates and sessions the timed phase never sends.
    let warm = Inputs::generate(p, !seed, p.warm_waves);
    for wave in 0..p.warm_waves {
        for (t, stream) in streams.iter_mut().enumerate() {
            let (req, _) = request(p, &warm, !seed, wave, t);
            match call(stream, &req)? {
                Response::Analysis { .. } | Response::Report(_) => {}
                other => return Err(format!("warm-up answered {other:?}")),
            }
        }
    }
    Ok(Rig {
        _server: server,
        streams,
        inputs,
    })
}

fn setup(p: &Params, seed: u64) -> Result<(Rig, f64), String> {
    let mut times = Vec::new();
    let mut rig = None;
    for _ in 0..p.setups.max(1) {
        let t0 = Instant::now();
        let built = setup_once(p, seed)?;
        times.push(t0.elapsed().as_secs_f64());
        // An earlier rig is shut down outside the timed region.
        drop(rig.replace(built));
    }
    let rig = rig.ok_or("no setup ran")?;
    Ok((rig, median(&times)))
}

fn stats(stream: &mut TcpStream) -> Result<WireStats, String> {
    match call(stream, &Request::Stats)? {
        Response::Stats(s) => Ok(s),
        other => Err(format!("stats answered {other:?}")),
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.value()
}

/// What every tenant of one measured phase shares.
struct Phase<'a> {
    p: &'a Params,
    inputs: &'a Inputs,
    seed: u64,
    first_wave: usize,
    deadline: Instant,
    barrier: Barrier,
    stop: AtomicBool,
}

/// Runs tenant `t` closed-loop from the phase's first wave until the
/// stop flag is raised; tenant 0 raises it once the deadline has passed
/// and at least `min_waves` waves are done. Every tenant starts each
/// wave at the barrier, so all tenants complete the same waves.
fn tenant(phase: &Phase, t: usize, stream: &mut TcpStream, tracer: Option<&Tracer>) -> Vec<Rec> {
    let mut recs = Vec::new();
    let mut wave = phase.first_wave;
    loop {
        let (req, ask) = request(phase.p, phase.inputs, phase.seed, wave, t);
        phase.barrier.wait();
        if phase.stop.load(Ordering::SeqCst) {
            break;
        }
        let op = if let Some(tr) = tracer {
            tr.set_op(((t as u32) << 24) | wave as u32);
            Some(tr.enter("op"))
        } else {
            None
        };
        let t0 = Instant::now();
        let span = |name, f: &mut dyn FnMut()| match tracer {
            Some(tr) => tr.span(name, f),
            None => f(),
        };
        let mut bytes = Vec::new();
        let t_enc = Instant::now();
        span("serve.encode", &mut || bytes = req.encode());
        let enc_ns = t_enc.elapsed().as_nanos() as u64;
        let mut payload = Err(String::new());
        span("serve.wire", &mut || {
            payload = write_frame(stream, &bytes)
                .and_then(|()| read_frame(stream))
                .map_err(|e| format!("transport: {e}"));
        });
        let mut decoded = Err(String::new());
        let t_dec = Instant::now();
        span("serve.decode", &mut || {
            decoded = payload
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|p| Response::decode(p));
        });
        let dec_ns = t_dec.elapsed().as_nanos() as u64;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(tr), Some(id)) = (tracer, op) {
            tr.exit(id);
        }
        let payload = payload.unwrap_or_default();
        let checked = match (decoded, ask) {
            (Ok(Response::Analysis { results }), Ask::Analyze { check }) => {
                let expected = match &req {
                    Request::AnalyzeBatch { items } => items.len(),
                    _ => 0,
                };
                if results.len() == expected {
                    let one = vec![results[check].clone()];
                    Ok(Response::Analysis { results: one }.encode())
                } else {
                    Err(format!("{} results for {expected} items", results.len()))
                }
            }
            (Ok(Response::Report(_)), Ask::Design { .. }) => Ok(payload.clone()),
            (Ok(other), _) => Err(format!("unexpected reply {other:?}")),
            (Err(e), _) => Err(e),
        };
        recs.push(Rec {
            wave,
            tenant: t,
            ask,
            ms,
            checked,
            payload_hash: fnv(&payload),
            frame_bytes: bytes.len() + payload.len(),
            codec_ns: enc_ns + dec_ns,
        });
        wave += 1;
        if t == 0
            && wave - phase.first_wave >= phase.p.min_waves
            && Instant::now() >= phase.deadline
        {
            phase.stop.store(true, Ordering::SeqCst);
        }
    }
    recs
}

/// Drives every tenant from `first_wave` for `seconds`; returns the
/// records (tenant-major, wave order), the spans and the phase wall.
fn drive(
    p: &Params,
    rig: &mut Rig,
    seed: u64,
    first_wave: usize,
    seconds: f64,
    traced: bool,
) -> (Vec<Rec>, Vec<Span>, f64) {
    let epoch = Instant::now();
    let phase = Phase {
        p,
        inputs: &rig.inputs,
        seed,
        first_wave,
        deadline: epoch + Duration::from_secs_f64(seconds),
        barrier: Barrier::new(p.tenants),
        stop: AtomicBool::new(false),
    };
    let results: Vec<(Vec<Rec>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .streams
            .iter_mut()
            .enumerate()
            .map(|(t, stream)| {
                let phase = &phase;
                scope.spawn(move || {
                    let tracer = traced.then(|| Tracer::new(epoch));
                    let recs = tenant(phase, t, stream, tracer.as_ref());
                    (recs, tracer.map(|tr| tr.take()).unwrap_or_default())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| (Vec::new(), Vec::new())))
            .collect()
    });
    let wall = epoch.elapsed().as_secs_f64();
    let mut recs = Vec::new();
    let mut spans = Vec::new();
    for (r, s) in results {
        recs.extend(r);
        spans.extend(s);
    }
    (recs, spans, wall)
}

/// The wire form of a solo session, built exactly as the server flattens
/// its reports.
fn wire_report(report: &SessionReport) -> WireReport {
    WireReport {
        success: report.success,
        degraded: report.degraded,
        attempts: report.attempts as u64,
        faults_observed: report.faults_observed as u64,
        events_len: report.events.len() as u64,
        simulations: report.simulations as u64,
        llm_steps: report.llm_steps as u64,
        cache_hits: report.cache_hits as u64,
        coalesced_waits: report.coalesced_waits as u64,
        batched_solves: report.batched_solves as u64,
        testbed_seconds: report.testbed_seconds,
        outcome: report.outcome.as_ref().map(|o| WireOutcome {
            success: o.success,
            iterations: o.iterations as u64,
            report: o.report.clone(),
            netlist_text: o.netlist_text.clone(),
        }),
    }
}

/// Per-request checks: the checked item equals a local analysis bit
/// for bit; a `Design` reply equals a solo supervised run.
fn check(p: &Params, inputs: &Inputs, rec: &Rec) -> Result<(), String> {
    let got = rec.checked.as_ref().map_err(Clone::clone)?;
    let expected = match rec.ask {
        Ask::Analyze { check } => {
            let topo = &inputs.items(p, rec.wave, rec.tenant)[check];
            let local = Simulator::new().analyze_topology(topo);
            Response::Analysis {
                results: vec![local],
            }
            .encode()
        }
        Ask::Design { spec, seed } => {
            let solo = Supervisor::default().run(&spec, &mut Simulator::new(), seed);
            Response::Report(Box::new(wire_report(&solo))).encode()
        }
    };
    if *got == expected {
        Ok(())
    } else {
        Err("reply differs from the local reference".into())
    }
}

fn check_all(p: &Params, inputs: &Inputs, recs: &[Rec], report: &mut RunReport) {
    let mut digest = Digest::default();
    let mut ordered: Vec<&Rec> = recs.iter().collect();
    ordered.sort_by_key(|r| (r.wave, r.tenant));
    for rec in ordered {
        report.attempted += 1;
        if rec.wave < p.min_waves {
            digest.u64(rec.payload_hash);
        }
        if let Err(why) = check(p, inputs, rec) {
            report.failed += 1;
            report.fail(format!("tenant {} wave {}: {why}", rec.tenant, rec.wave));
        }
    }
    report.digest = Some(digest);
}

/// Engine counters over a phase; checks jobs = unique + dedup + cache.
fn stats_delta(report: &mut RunReport, before: &WireStats, after: &WireStats) {
    let d = |f: fn(&WireStats) -> u64| f(after).saturating_sub(f(before)) as f64;
    let jobs = d(|s| s.jobs);
    let (unique, dedup, cached) = (
        d(|s| s.unique_computed),
        d(|s| s.dedup_shared),
        d(|s| s.cache_served),
    );
    if jobs != unique + dedup + cached {
        report.failed += 1;
        report.fail(format!(
            "engine counters: {jobs} jobs != {unique} unique + {dedup} dedup + {cached} cached"
        ));
    }
    let occupancy = |s: &WireStats, weighted: bool| -> f64 {
        s.occupancy
            .iter()
            .map(|(occ, n)| {
                if weighted {
                    (occ * n) as f64
                } else {
                    *n as f64
                }
            })
            .sum()
    };
    report.set(
        "serve.batch_occupancy_mean",
        ratio(
            occupancy(after, true) - occupancy(before, true),
            occupancy(after, false) - occupancy(before, false),
        ),
    );
    report.set("serve.dedup_ratio", ratio(dedup, jobs));
    report.set("serve.cache_served_ratio", ratio(cached, jobs));
    report.set("serve.unique_ratio", ratio(unique, jobs));
    report.set("serve.busy_rejects", d(|s| s.busy_rejects));
    let (hits, misses) = (d(|s| s.cache_hits), d(|s| s.cache_misses));
    report.set("sim.cache.hit_ratio", ratio(hits, hits + misses));
}

fn failed_setup(why: String) -> RunReport {
    let mut report = RunReport {
        attempted: 1,
        failed: 1,
        ..RunReport::default()
    };
    report.fail(why);
    report
}

pub fn run(seed: u64, seconds: f64, size: Size) -> RunReport {
    let p = Params::new(size);
    let (mut rig, setup_s) = match setup(&p, seed) {
        Ok(ok) => ok,
        Err(why) => return failed_setup(why),
    };
    let mut report = RunReport::default();
    let before = stats(&mut rig.streams[0]);
    let (recs, _, wall) = drive(&p, &mut rig, seed, 0, seconds, false);
    let after = stats(&mut rig.streams[0]);
    match (before, after) {
        (Ok(b), Ok(a)) => stats_delta(&mut report, &b, &a),
        (Err(e), _) | (_, Err(e)) => report.fail(e),
    }
    check_all(&p, &rig.inputs, &recs, &mut report);
    let latencies: Vec<f64> = recs.iter().map(|r| r.ms).collect();
    report.set("setup_s", setup_s);
    report.set("ops_per_s", ratio(recs.len() as f64, wall));
    report.set("op_p50_ms", percentile(&latencies, 0.5));
    report.set("op_p90_ms", percentile(&latencies, 0.9));
    report
}

/// Traced pass: half the run untraced, then the following waves with
/// spans around the client-side codec and the wire round trip.
pub fn run_traced(seed: u64, seconds: f64, size: Size) -> RunReport {
    let p = Params::new(size);
    let (mut rig, _) = match setup(&p, seed) {
        Ok(ok) => ok,
        Err(why) => return failed_setup(why),
    };
    let mut report = RunReport::default();
    let (plain, _, _) = drive(&p, &mut rig, seed, 0, seconds / 2.0, false);
    let first = plain.iter().map(|r| r.wave + 1).max().unwrap_or(0);
    let before = stats(&mut rig.streams[0]);
    let (recs, spans, wall) = drive(&p, &mut rig, seed, first, seconds / 2.0, true);
    let after = stats(&mut rig.streams[0]);
    match (before, after) {
        (Ok(b), Ok(a)) => stats_delta(&mut report, &b, &a),
        (Err(e), _) | (_, Err(e)) => report.fail(e),
    }
    let n = recs.len() as f64;
    let mean = |rs: &[Rec]| ratio(rs.iter().map(|r| r.ms).sum(), rs.len() as f64);
    let op_ns = trace::total_ns(&spans, "op") as f64;
    report.set(
        "serve.codec_us",
        ratio(recs.iter().map(|r| r.codec_ns as f64).sum::<f64>() / 1e3, n),
    );
    report.set(
        "serve.frame_bytes",
        ratio(recs.iter().map(|r| r.frame_bytes as f64).sum(), n),
    );
    report.set(
        "trace.overhead_frac",
        ratio(mean(&recs), mean(&plain)) - 1.0,
    );
    report.set(
        "trace.unattributed_frac",
        1.0 - ratio(op_ns / 1e9, wall * p.tenants as f64),
    );
    let all: Vec<Rec> = plain.into_iter().chain(recs).collect();
    check_all(&p, &rig.inputs, &all, &mut report);
    report.spans = spans;
    report
}
