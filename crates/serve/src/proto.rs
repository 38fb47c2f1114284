//! The wire protocol: versioned, length-prefixed, checksummed binary
//! frames, and codecs for every request/response the server speaks.
//!
//! ## Frame layout (all integers little-endian)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `b"ARTSNSV1"` |
//! | 8      | 4    | format version (`u32`, currently 2) |
//! | 12     | 4    | payload length in bytes (`u32`, ≤ 16 MiB) |
//! | 16     | n    | binary payload (see below) |
//! | 16+n   | 8    | FNV-1a 64 checksum of the payload bytes |
//!
//! The same discipline as the journal and cache-snapshot formats: a
//! magic that rejects foreign streams instantly, an explicit version so
//! incompatible readers fail loudly, and a checksum so corruption is
//! detected before decoding ever runs. The reader never trusts the
//! length prefix for allocation: payloads are read through a fixed-size
//! staging buffer, so a hostile 16 MiB claim costs the attacker 16 MiB
//! of actual sent bytes, not us 16 MiB of speculative allocation (the
//! same cap-then-stream rule the cache snapshot loader follows).
//!
//! ## Payload
//!
//! A payload is one `u8` variant tag followed by that variant's fields,
//! written with the `artisan_sim::wire` helpers the journal and cache
//! snapshot use:
//!
//! | tag | [`Request`] | [`Response`] |
//! |----:|-------------|--------------|
//! | 0   | `Ping` | `Pong` |
//! | 1   | `Design`: tenant, seed, spec | `Busy`: reason |
//! | 2   | `Analyze`: one work item | `Error`: message |
//! | 3   | `AnalyzeBatch`: count, work items | `Report`: [`WireReport`] |
//! | 4   | `Stats` | `Analysis`: count, results |
//! | 5   | `Drain` | `Stats`: [`WireStats`] |
//! | 6   | — | `Draining`: [`WireStats`] |
//!
//! Integers are little-endian; floats (spec limits, element values,
//! `testbed_seconds`) travel as their raw bit patterns, so they cross
//! the wire bit-exactly; strings are a `u32` byte count plus UTF-8;
//! optional fields are a presence byte. A work item is tag 0 plus the
//! shared `wire::encode_topology` form, or tag 1 plus a netlist (title,
//! then elements as kind tag, label, node names and value bits).
//! Analysis reports use `wire::encode_report` directly. A result is tag
//! 0 plus a report, or tag 1 plus a `SimError` (its own tag, then its
//! fields; `BadNetlist` travels as rendered text).
//!
//! Decoding is hostile-input safe: every count is checked against the
//! bytes left times its entries' minimum encoded size before anything
//! is allocated, and unknown tags, out-of-range indices, unknown node
//! names and trailing bytes are errors, never panics.

use artisan_circuit::units::{Farads, Ohms, Siemens};
use artisan_circuit::{Element, Netlist, Node, Topology};
use artisan_math::MathError;
use artisan_sim::wire::{self, Reader};
use artisan_sim::{AnalysisReport, SimError, Spec};
use std::io::{self, Read, Write};

/// Frame magic: rejects non-protocol streams on the first 8 bytes.
pub const MAGIC: [u8; 8] = *b"ARTSNSV1";

/// Wire format version; bumped on any incompatible change.
pub const FORMAT_VERSION: u32 = 2;

/// Hard cap on a frame payload. Anything larger is a protocol error,
/// mirroring the journal's frame cap.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Reads are staged through a buffer of this size, so the length
/// prefix never drives an allocation.
const READ_CHUNK: usize = 64 * 1024;

/// Message the client maps transport failures to (it must be a
/// `&'static str` because [`MathError::DegenerateInput`] carries one);
/// transient, so supervisors retry with backoff.
pub const TRANSPORT_FAILURE_MSG: &str = "remote backend transport failure";

/// Message the client maps server `busy` replies to — also transient,
/// so a supervised session backs off exactly like a flaky testbed.
pub const REMOTE_BUSY_MSG: &str = "remote backend busy";

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Writes one frame around `payload`.
///
/// # Errors
///
/// Propagates transport errors; rejects payloads over
/// [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES as usize {
        return Err(bad(format!(
            "frame payload of {} bytes over cap",
            payload.len()
        )));
    }
    let mut header = [0u8; 16];
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.write_all(&wire::fnv1a64(payload).to_le_bytes())?;
    w.flush()
}

/// Reads one complete frame, validating magic, version, length cap,
/// and checksum. Returns the payload bytes.
///
/// # Errors
///
/// `UnexpectedEof` when the peer closes cleanly before a header;
/// `InvalidData` for any protocol violation.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 16];
    r.read_exact(&mut header)?;
    if header[..8] != MAGIC {
        return Err(bad("bad frame magic".to_string()));
    }
    let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if version != FORMAT_VERSION {
        return Err(bad(format!(
            "frame version {version} (expected {FORMAT_VERSION})"
        )));
    }
    let len = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    if len > MAX_FRAME_BYTES {
        return Err(bad(format!("frame length {len} over cap")));
    }
    let len = len as usize;
    // Stream the payload through a bounded chunk so the declared
    // length never pre-allocates more than READ_CHUNK ahead of the
    // bytes actually received.
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    let mut chunk = [0u8; READ_CHUNK];
    while payload.len() < len {
        let want = (len - payload.len()).min(READ_CHUNK);
        let got = r.read(&mut chunk[..want])?;
        if got == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "frame truncated mid-payload",
            ));
        }
        payload.extend_from_slice(&chunk[..got]);
    }
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    let expect = u64::from_le_bytes(sum);
    let actual = wire::fnv1a64(&payload);
    if expect != actual {
        return Err(bad(format!(
            "frame checksum mismatch: stored {expect:#018x}, computed {actual:#018x}"
        )));
    }
    Ok(payload)
}

/// One unit of remote simulation work.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkItem {
    /// A structured candidate (skeleton + placements).
    Topo(Topology),
    /// A flat netlist, sent as canonical text.
    Net(Netlist),
}

/// Everything a client can ask the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Run one full supervised design session.
    Design {
        /// Tenant identity for quota accounting.
        tenant: String,
        /// Session seed (drives the whole agent trajectory).
        seed: u64,
        /// The performance specification to design for.
        spec: Spec,
    },
    /// Analyze one candidate (the `RemoteSim` hot path).
    Analyze {
        /// The candidate.
        item: WorkItem,
    },
    /// Analyze a batch of candidates in input order.
    AnalyzeBatch {
        /// The candidates.
        items: Vec<WorkItem>,
    },
    /// Snapshot of server/engine/cache counters.
    Stats,
    /// Begin graceful drain: stop admitting, finish in-flight work,
    /// snapshot the cache, expire terminal journals, reply, shut down.
    Drain,
}

/// A design session's result, flattened to wire-stable fields.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// Spec met within budget.
    pub success: bool,
    /// Success only after retries consumed budget headroom.
    pub degraded: bool,
    /// Attempts run.
    pub attempts: u64,
    /// Faults the backend surfaced.
    pub faults_observed: u64,
    /// Length of the session event log.
    pub events_len: u64,
    /// Simulations billed.
    pub simulations: u64,
    /// LLM steps billed.
    pub llm_steps: u64,
    /// Cache hits billed.
    pub cache_hits: u64,
    /// Coalesced waits billed.
    pub coalesced_waits: u64,
    /// Batched solves billed.
    pub batched_solves: u64,
    /// Modeled testbed seconds (bit-exact on the wire).
    pub testbed_seconds: f64,
    /// Final design outcome, when an attempt produced one.
    pub outcome: Option<WireOutcome>,
}

/// The design outcome subset that travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    /// Whether the final candidate met the spec.
    pub success: bool,
    /// Design-loop iterations consumed.
    pub iterations: u64,
    /// The final candidate's analysis report.
    pub report: Option<AnalysisReport>,
    /// The final candidate's netlist text.
    pub netlist_text: String,
}

/// Server-side counters returned by [`Request::Stats`] and
/// [`Request::Drain`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireStats {
    /// Design sessions completed.
    pub sessions: u64,
    /// Requests refused with `busy`.
    pub busy_rejects: u64,
    /// Batches the engine executed.
    pub batches: u64,
    /// Jobs that passed through the engine.
    pub jobs: u64,
    /// Jobs computed (unique after dedup + cache).
    pub unique_computed: u64,
    /// Jobs served by coalescing onto an identical in-batch twin.
    pub dedup_shared: u64,
    /// Jobs served straight from the shared cache.
    pub cache_served: u64,
    /// Batch occupancy histogram: (occupancy, count), sorted.
    pub occupancy: Vec<(u64, u64)>,
    /// Shared cache hits.
    pub cache_hits: u64,
    /// Shared cache misses.
    pub cache_misses: u64,
    /// Shared cache entries resident.
    pub cache_entries: u64,
}

/// Everything the server can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Admission control refused the request; retry later.
    Busy {
        /// Which limit refused it (`draining`, `saturated`, …).
        reason: String,
    },
    /// The request was malformed or failed server-side.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// A finished design session.
    Report(Box<WireReport>),
    /// Per-candidate analysis results, in request order.
    Analysis {
        /// One verdict per submitted item.
        results: Vec<Result<AnalysisReport, SimError>>,
    },
    /// Counter snapshot.
    Stats(WireStats),
    /// Drain finished; final counters.
    Draining(WireStats),
}

// ---------------------------------------------------------------------
// payload codecs
// ---------------------------------------------------------------------

/// Smallest encoded netlist element: tag, empty label, two empty node
/// names, value.
const ELEMENT_MIN_BYTES: usize = 1 + 4 + 2 * 4 + 8;

/// Smallest encoded work item: a netlist with an empty title and no
/// elements.
const ITEM_MIN_BYTES: usize = 1 + 4 + 4;

/// Smallest encoded analysis result: an error with no fields.
const RESULT_MIN_BYTES: usize = 2;

/// Appends a `u32` count, then each entry.
fn push_list<T>(out: &mut Vec<u8>, items: &[T], push: impl Fn(&mut Vec<u8>, &T)) {
    wire::push_u32(out, items.len() as u32);
    for item in items {
        push(out, item);
    }
}

/// Reads a [`push_list`] of entries that each encode to at least
/// `min_bytes`. A count the rest of the payload cannot hold is rejected
/// before any entry is decoded.
fn read_list<'a, T>(
    r: &mut Reader<'a>,
    min_bytes: usize,
    what: &str,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let count = r.u32()? as usize;
    if count.saturating_mul(min_bytes) > r.remaining() {
        return Err(format!("{what} count {count} exceeds payload"));
    }
    // Grown as entries decode, never sized from the claimed count: an
    // entry can take far more memory than its minimum encoded size.
    (0..count).map(|_| read(r)).collect()
}

/// Appends a presence byte, then the value when there is one.
fn push_opt<T>(out: &mut Vec<u8>, value: Option<&T>, push: impl Fn(&mut Vec<u8>, &T)) {
    match value {
        Some(v) => {
            wire::push_u8(out, 1);
            push(out, v);
        }
        None => wire::push_u8(out, 0),
    }
}

fn read_opt<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Option<T>, String> {
    Ok(match r.bool()? {
        true => Some(read(r)?),
        false => None,
    })
}

/// The whole payload must be consumed: trailing bytes are an error.
fn finish<T>(r: &Reader<'_>, value: T) -> Result<T, String> {
    match r.remaining() {
        0 => Ok(value),
        n => Err(format!("{n} trailing bytes after payload")),
    }
}

fn push_spec(out: &mut Vec<u8>, spec: &Spec) {
    wire::push_f64(out, spec.gain_min_db);
    wire::push_f64(out, spec.gbw_min_hz);
    wire::push_f64(out, spec.pm_min_deg);
    wire::push_f64(out, spec.power_max_w);
    wire::push_f64(out, spec.cl.value());
}

fn read_spec(r: &mut Reader<'_>) -> Result<Spec, String> {
    Ok(Spec::new(r.f64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?))
}

/// Netlists travel structurally — element kind, label, node names, and
/// the value as exact bits — never through `Netlist::to_text()`, whose
/// rounded significant digits would silently perturb values (and with
/// them cache fingerprints) across the wire.
fn push_element(out: &mut Vec<u8>, e: &Element) {
    let kind = match e {
        Element::Resistor { .. } => 0,
        Element::Capacitor { .. } => 1,
        Element::Vccs { .. } => 2,
    };
    wire::push_u8(out, kind);
    wire::push_str(out, e.label());
    for node in e.nodes() {
        wire::push_str(out, &node.name());
    }
    wire::push_f64(out, e.value());
}

fn read_node(r: &mut Reader<'_>) -> Result<Node, String> {
    let name = r.str()?;
    Node::parse(&name).ok_or_else(|| format!("unknown node name `{name}`"))
}

fn read_element(r: &mut Reader<'_>) -> Result<Element, String> {
    Ok(match r.u8()? {
        0 => Element::Resistor {
            label: r.str()?,
            a: read_node(r)?,
            b: read_node(r)?,
            ohms: Ohms(r.f64()?),
        },
        1 => Element::Capacitor {
            label: r.str()?,
            a: read_node(r)?,
            b: read_node(r)?,
            farads: Farads(r.f64()?),
        },
        2 => Element::Vccs {
            label: r.str()?,
            out_p: read_node(r)?,
            out_n: read_node(r)?,
            ctrl_p: read_node(r)?,
            ctrl_n: read_node(r)?,
            gm: Siemens(r.f64()?),
        },
        other => return Err(format!("unknown element tag {other}")),
    })
}

fn push_item(out: &mut Vec<u8>, item: &WorkItem) {
    match item {
        WorkItem::Topo(topo) => {
            wire::push_u8(out, 0);
            wire::encode_topology(out, topo);
        }
        WorkItem::Net(net) => {
            wire::push_u8(out, 1);
            wire::push_str(out, net.title());
            push_list(out, net.elements(), push_element);
        }
    }
}

fn read_item(r: &mut Reader<'_>) -> Result<WorkItem, String> {
    match r.u8()? {
        0 => Ok(WorkItem::Topo(r.topology()?)),
        1 => {
            let title = r.str()?;
            let elements = read_list(r, ELEMENT_MIN_BYTES, "element", read_element)?;
            Ok(WorkItem::Net(Netlist::new(title, elements)))
        }
        other => Err(format!("unknown work item tag {other}")),
    }
}

fn push_math_error(out: &mut Vec<u8>, err: &MathError) {
    match err {
        MathError::DimensionMismatch(what) => {
            wire::push_u8(out, 0);
            wire::push_str(out, what);
        }
        MathError::Singular(at) => {
            wire::push_u8(out, 1);
            wire::push_u64(out, *at as u64);
        }
        MathError::NotPositiveDefinite(at) => {
            wire::push_u8(out, 2);
            wire::push_u64(out, *at as u64);
        }
        MathError::NoConvergence {
            iterations,
            residual,
        } => {
            wire::push_u8(out, 3);
            wire::push_u64(out, *iterations as u64);
            wire::push_f64(out, *residual);
        }
        MathError::DegenerateInput(what) => {
            wire::push_u8(out, 4);
            wire::push_str(out, what);
        }
    }
}

/// `DegenerateInput` carries a `&'static str`, so decoding interns the
/// messages this workspace actually produces; anything else maps to a
/// documented generic static. Error *display* equality is preserved
/// for every error the serve path can emit.
fn intern_degenerate(msg: &str) -> &'static str {
    match msg {
        "no interpolation points" => "no interpolation points",
        "zero polynomial" => "zero polynomial",
        m if m == TRANSPORT_FAILURE_MSG => TRANSPORT_FAILURE_MSG,
        m if m == REMOTE_BUSY_MSG => REMOTE_BUSY_MSG,
        _ => "degenerate input",
    }
}

fn read_math_error(r: &mut Reader<'_>) -> Result<MathError, String> {
    Ok(match r.u8()? {
        0 => MathError::DimensionMismatch(r.str()?),
        1 => MathError::Singular(r.u64()? as usize),
        2 => MathError::NotPositiveDefinite(r.u64()? as usize),
        3 => MathError::NoConvergence {
            iterations: r.u64()? as usize,
            residual: r.f64()?,
        },
        4 => MathError::DegenerateInput(intern_degenerate(&r.str()?)),
        other => return Err(format!("unknown math error tag {other}")),
    })
}

/// `BadNetlist` diagnostics flatten to rendered text on the wire
/// (`BadNetlistReport::render`): the structured `Diagnostic` has no
/// public constructor, and clients only need the message.
fn push_sim_error(out: &mut Vec<u8>, err: &SimError) {
    match err {
        SimError::IllConditioned { frequency } => {
            wire::push_u8(out, 0);
            wire::push_f64(out, *frequency);
        }
        SimError::NoUnityCrossing => wire::push_u8(out, 1),
        SimError::Unstable { worst_pole_re } => {
            wire::push_u8(out, 2);
            wire::push_f64(out, *worst_pole_re);
        }
        SimError::InvalidSweep { f_start, f_stop } => {
            wire::push_u8(out, 3);
            wire::push_f64(out, *f_start);
            wire::push_f64(out, *f_stop);
        }
        SimError::Math(m) => {
            wire::push_u8(out, 4);
            push_math_error(out, m);
        }
        SimError::BadNetlist(report) => {
            wire::push_u8(out, 5);
            wire::push_str(out, &report.render());
        }
    }
}

fn read_sim_error(r: &mut Reader<'_>) -> Result<SimError, String> {
    Ok(match r.u8()? {
        0 => SimError::IllConditioned {
            frequency: r.f64()?,
        },
        1 => SimError::NoUnityCrossing,
        2 => SimError::Unstable {
            worst_pole_re: r.f64()?,
        },
        3 => SimError::InvalidSweep {
            f_start: r.f64()?,
            f_stop: r.f64()?,
        },
        4 => SimError::Math(read_math_error(r)?),
        5 => SimError::BadNetlist(r.str()?.into()),
        other => return Err(format!("unknown sim error tag {other}")),
    })
}

fn push_result(out: &mut Vec<u8>, res: &Result<AnalysisReport, SimError>) {
    match res {
        Ok(report) => {
            wire::push_u8(out, 0);
            wire::encode_report(out, report);
        }
        Err(err) => {
            wire::push_u8(out, 1);
            push_sim_error(out, err);
        }
    }
}

fn read_result(r: &mut Reader<'_>) -> Result<Result<AnalysisReport, SimError>, String> {
    match r.u8()? {
        0 => r.report().map(Ok),
        1 => read_sim_error(r).map(Err),
        other => Err(format!("unknown result tag {other}")),
    }
}

fn push_wire_report(out: &mut Vec<u8>, r: &WireReport) {
    wire::push_u8(out, u8::from(r.success));
    wire::push_u8(out, u8::from(r.degraded));
    for counter in [
        r.attempts,
        r.faults_observed,
        r.events_len,
        r.simulations,
        r.llm_steps,
        r.cache_hits,
        r.coalesced_waits,
        r.batched_solves,
    ] {
        wire::push_u64(out, counter);
    }
    wire::push_f64(out, r.testbed_seconds);
    push_opt(out, r.outcome.as_ref(), |out, o| {
        wire::push_u8(out, u8::from(o.success));
        wire::push_u64(out, o.iterations);
        push_opt(out, o.report.as_ref(), wire::encode_report);
        wire::push_str(out, &o.netlist_text);
    });
}

fn read_wire_report(r: &mut Reader<'_>) -> Result<WireReport, String> {
    Ok(WireReport {
        success: r.bool()?,
        degraded: r.bool()?,
        attempts: r.u64()?,
        faults_observed: r.u64()?,
        events_len: r.u64()?,
        simulations: r.u64()?,
        llm_steps: r.u64()?,
        cache_hits: r.u64()?,
        coalesced_waits: r.u64()?,
        batched_solves: r.u64()?,
        testbed_seconds: r.f64()?,
        outcome: read_opt(r, |r| {
            Ok(WireOutcome {
                success: r.bool()?,
                iterations: r.u64()?,
                report: read_opt(r, Reader::report)?,
                netlist_text: r.str()?,
            })
        })?,
    })
}

fn push_stats(out: &mut Vec<u8>, s: &WireStats) {
    for counter in [
        s.sessions,
        s.busy_rejects,
        s.batches,
        s.jobs,
        s.unique_computed,
        s.dedup_shared,
        s.cache_served,
    ] {
        wire::push_u64(out, counter);
    }
    push_list(out, &s.occupancy, |out, (occupancy, count)| {
        wire::push_u64(out, *occupancy);
        wire::push_u64(out, *count);
    });
    for counter in [s.cache_hits, s.cache_misses, s.cache_entries] {
        wire::push_u64(out, counter);
    }
}

fn read_stats(r: &mut Reader<'_>) -> Result<WireStats, String> {
    Ok(WireStats {
        sessions: r.u64()?,
        busy_rejects: r.u64()?,
        batches: r.u64()?,
        jobs: r.u64()?,
        unique_computed: r.u64()?,
        dedup_shared: r.u64()?,
        cache_served: r.u64()?,
        occupancy: read_list(r, 16, "occupancy row", |r| Ok((r.u64()?, r.u64()?)))?,
        cache_hits: r.u64()?,
        cache_misses: r.u64()?,
        cache_entries: r.u64()?,
    })
}

impl Request {
    /// Serializes to the binary payload bytes of one frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => wire::push_u8(&mut out, 0),
            Request::Design { tenant, seed, spec } => {
                wire::push_u8(&mut out, 1);
                wire::push_str(&mut out, tenant);
                wire::push_u64(&mut out, *seed);
                push_spec(&mut out, spec);
            }
            Request::Analyze { item } => {
                wire::push_u8(&mut out, 2);
                push_item(&mut out, item);
            }
            Request::AnalyzeBatch { items } => {
                wire::push_u8(&mut out, 3);
                push_list(&mut out, items, push_item);
            }
            Request::Stats => wire::push_u8(&mut out, 4),
            Request::Drain => wire::push_u8(&mut out, 5),
        }
        out
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem found; never panics on
    /// hostile input.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let mut r = Reader::new(payload);
        let request = match r.u8()? {
            0 => Request::Ping,
            1 => Request::Design {
                tenant: r.str()?,
                seed: r.u64()?,
                spec: read_spec(&mut r)?,
            },
            2 => Request::Analyze {
                item: read_item(&mut r)?,
            },
            3 => Request::AnalyzeBatch {
                items: read_list(&mut r, ITEM_MIN_BYTES, "work item", read_item)?,
            },
            4 => Request::Stats,
            5 => Request::Drain,
            other => return Err(format!("unknown request tag {other}")),
        };
        finish(&r, request)
    }
}

impl Response {
    /// Serializes to the binary payload bytes of one frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => wire::push_u8(&mut out, 0),
            Response::Busy { reason } => {
                wire::push_u8(&mut out, 1);
                wire::push_str(&mut out, reason);
            }
            Response::Error { message } => {
                wire::push_u8(&mut out, 2);
                wire::push_str(&mut out, message);
            }
            Response::Report(report) => {
                wire::push_u8(&mut out, 3);
                push_wire_report(&mut out, report);
            }
            Response::Analysis { results } => {
                wire::push_u8(&mut out, 4);
                push_list(&mut out, results, push_result);
            }
            Response::Stats(stats) => {
                wire::push_u8(&mut out, 5);
                push_stats(&mut out, stats);
            }
            Response::Draining(stats) => {
                wire::push_u8(&mut out, 6);
                push_stats(&mut out, stats);
            }
        }
        out
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem found; never panics on
    /// hostile input.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let mut r = Reader::new(payload);
        let response = match r.u8()? {
            0 => Response::Pong,
            1 => Response::Busy { reason: r.str()? },
            2 => Response::Error { message: r.str()? },
            3 => Response::Report(Box::new(read_wire_report(&mut r)?)),
            4 => Response::Analysis {
                results: read_list(&mut r, RESULT_MIN_BYTES, "result", read_result)?,
            },
            5 => Response::Stats(read_stats(&mut r)?),
            6 => Response::Draining(read_stats(&mut r)?),
            other => return Err(format!("unknown response tag {other}")),
        };
        finish(&r, response)
    }
}
