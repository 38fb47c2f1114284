//! Wire-protocol hardening suite.
//!
//! Three families of properties:
//!
//! 1. **Roundtrip** — every request/response variant (including every
//!    `SimError` shape and sampled random topologies) survives
//!    encode → frame → read → decode bit-exactly.
//! 2. **Torn reads** — a frame delivered one byte at a time (or in
//!    random small chunks) decodes identically; multiple frames on one
//!    stream stay delimited.
//! 3. **Hostile input** — corrupt magic/version/length/checksum and
//!    arbitrary payload bytes are rejected with errors, never panics,
//!    and a hostile length prefix cannot drive a large allocation
//!    (the reader streams through a bounded chunk). The binary payload
//!    decoders are reachable from any bytes that pass the checksum, so
//!    they are attacked directly too: every strict prefix and every
//!    trailing-byte extension of every variant is an error, every
//!    single-bit flip of every variant decodes without panicking,
//!    malformed tags, indices and node names are errors, and a
//!    `u32::MAX` count or length on a short payload errors without a
//!    large allocation (measured by a per-thread tracking allocator).
//!
//! Case count follows `PROPTEST_CASES` (default 64); the CI `chaos`
//! job raises it and sweeps `CHAOS_SEED_OFFSET`, which shifts every
//! sampled seed by a per-leg window.

use artisan_circuit::sample::{sample_topology, SampleRanges};
use artisan_circuit::Topology;
use artisan_math::MathError;
use artisan_serve::proto::{
    read_frame, write_frame, Request, Response, WireOutcome, WireReport, WireStats, WorkItem,
    FORMAT_VERSION, MAX_FRAME_BYTES, REMOTE_BUSY_MSG, TRANSPORT_FAILURE_MSG,
};
use artisan_sim::{wire, AnalysisReport, SimError, Simulator, Spec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;
use std::sync::OnceLock;

/// Forwards to the system allocator, recording the largest single
/// request this thread has made since [`largest_allocation_during`]
/// last reset it.
struct TrackingAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation(size: usize) {
    // `try_with`: allocations during thread teardown are not tracked.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping beside it
// touches only a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller's `alloc` contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        // SAFETY: the caller's `realloc` contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: TrackingAlloc = TrackingAlloc;

/// Runs `f` and returns its result with the largest single allocation
/// it made on this thread.
fn largest_allocation_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// Shifts a sampled seed by the `CHAOS_SEED_OFFSET` window (0 unset).
fn offset(seed: u64) -> u64 {
    let leg: u64 = std::env::var("CHAOS_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    seed.wrapping_add(leg.wrapping_mul(1_000_000_007))
}

/// Proptest case count: `PROPTEST_CASES` when set, else 64.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// A real analysis report to embed in responses.
fn sample_report() -> &'static AnalysisReport {
    static REPORT: OnceLock<AnalysisReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let mut sim = Simulator::new();
        #[allow(clippy::expect_used)]
        sim.analyze_topology(&Topology::nmc_example())
            .expect("NMC example analyzes")
    })
}

/// A `Read` that yields at most `chunk` bytes per call — the torn-read
/// adversary.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    #[allow(clippy::expect_used)]
    write_frame(&mut out, payload).expect("in-memory frame write");
    out
}

fn every_sim_error() -> Vec<SimError> {
    vec![
        SimError::IllConditioned { frequency: 1.25e6 },
        SimError::NoUnityCrossing,
        SimError::Unstable {
            worst_pole_re: 3.5e4,
        },
        SimError::InvalidSweep {
            f_start: 10.0,
            f_stop: 1.0,
        },
        SimError::Math(MathError::DimensionMismatch("3x3 vs 4".to_string())),
        SimError::Math(MathError::Singular(7)),
        SimError::Math(MathError::NotPositiveDefinite(2)),
        SimError::Math(MathError::NoConvergence {
            iterations: 50,
            residual: 1e-3,
        }),
        SimError::Math(MathError::DegenerateInput("no interpolation points")),
        SimError::Math(MathError::DegenerateInput(TRANSPORT_FAILURE_MSG)),
        SimError::Math(MathError::DegenerateInput(REMOTE_BUSY_MSG)),
        SimError::BadNetlist("netlist has no CL load element".into()),
        SimError::BadNetlist("line 1: unparsable \"garbage\"\n  with a second line".into()),
    ]
}

fn every_request(rng: &mut StdRng) -> Vec<Request> {
    let topo = sample_topology(rng, &SampleRanges::default(), 10e-12);
    #[allow(clippy::expect_used)]
    let netlist = Topology::nmc_example().elaborate().expect("NMC elaborates");
    vec![
        Request::Ping,
        Request::Design {
            tenant: "tenant-\"quoted\" — ünïcode".to_string(),
            seed: rng.next_u64(),
            spec: Spec::g3(),
        },
        Request::Analyze {
            item: WorkItem::Topo(topo.clone()),
        },
        Request::Analyze {
            item: WorkItem::Net(netlist.clone()),
        },
        Request::AnalyzeBatch {
            items: vec![
                WorkItem::Topo(Topology::nmc_example()),
                WorkItem::Net(netlist),
                WorkItem::Topo(topo),
            ],
        },
        Request::Stats,
        Request::Drain,
    ]
}

fn sample_wire_report() -> WireReport {
    WireReport {
        success: true,
        degraded: false,
        attempts: 2,
        faults_observed: 1,
        events_len: 9,
        simulations: 17,
        llm_steps: 80,
        cache_hits: 0,
        coalesced_waits: 0,
        batched_solves: 0,
        testbed_seconds: 1234.5678,
        outcome: Some(WireOutcome {
            success: true,
            iterations: 3,
            report: Some(sample_report().clone()),
            netlist_text: "* final\nR1 in out 1e3\nCL out 0 1e-11\n".to_string(),
        }),
    }
}

fn every_response() -> Vec<Response> {
    let report = sample_report().clone();
    let stats = WireStats {
        sessions: 12,
        busy_rejects: 3,
        batches: 40,
        jobs: 160,
        unique_computed: 50,
        dedup_shared: 70,
        cache_served: 40,
        occupancy: vec![(1, 4), (4, 30), (64, 2)],
        cache_hits: 99,
        cache_misses: 17,
        cache_entries: 82,
    };
    let wire_report = sample_wire_report();
    let mut results: Vec<Result<AnalysisReport, SimError>> = vec![Ok(report)];
    results.extend(every_sim_error().into_iter().map(Err));
    vec![
        Response::Pong,
        Response::Busy {
            reason: "saturated".to_string(),
        },
        Response::Error {
            message: "bad frame\nwith newline".to_string(),
        },
        Response::Report(Box::new(wire_report.clone())),
        Response::Report(Box::new(WireReport {
            outcome: None,
            testbed_seconds: f64::NAN.copysign(-1.0),
            ..wire_report
        })),
        Response::Analysis { results },
        Response::Stats(stats.clone()),
        Response::Draining(stats),
    ]
}

/// `WireReport` carries NaN-able floats; compare bitwise.
fn responses_equal(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::Report(x), Response::Report(y)) => {
            let (mut x, mut y) = (x.clone(), y.clone());
            let (xb, yb) = (x.testbed_seconds.to_bits(), y.testbed_seconds.to_bits());
            x.testbed_seconds = 0.0;
            y.testbed_seconds = 0.0;
            xb == yb && x == y
        }
        _ => a == b,
    }
}

#[test]
fn all_request_variants_roundtrip() {
    let mut rng = StdRng::seed_from_u64(7);
    for request in every_request(&mut rng) {
        let framed = frame_bytes(&request.encode());
        let payload = read_frame(&mut framed.as_slice()).unwrap_or_else(|e| panic!("{e}"));
        let back = Request::decode(&payload).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(request, back);
    }
}

#[test]
fn all_response_variants_roundtrip() {
    for response in every_response() {
        let framed = frame_bytes(&response.encode());
        let payload = read_frame(&mut framed.as_slice()).unwrap_or_else(|e| panic!("{e}"));
        let back = Response::decode(&payload).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            responses_equal(&response, &back),
            "response changed across the wire:\n  sent {response:?}\n  got  {back:?}"
        );
    }
}

#[test]
fn torn_reads_resume_correctly() {
    let mut rng = StdRng::seed_from_u64(11);
    let requests = every_request(&mut rng);
    // Two frames back to back on one stream, delivered in 1..7-byte
    // slivers: both must decode and the stream must stay delimited.
    for chunk in 1..8 {
        let mut stream = Vec::new();
        for request in &requests {
            stream.extend_from_slice(&frame_bytes(&request.encode()));
        }
        let mut trickle = Trickle {
            data: &stream,
            pos: 0,
            chunk,
        };
        for request in &requests {
            let payload = read_frame(&mut trickle).unwrap_or_else(|e| panic!("{e}"));
            let back = Request::decode(&payload).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(request, &back);
        }
        assert_eq!(trickle.pos, stream.len());
    }
}

#[test]
fn corrupt_magic_version_length_checksum_rejected() {
    let good = frame_bytes(&Request::Ping.encode());

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xff;
    assert!(read_frame(&mut bad_magic.as_slice()).is_err());

    let mut bad_version = good.clone();
    bad_version[8] = (FORMAT_VERSION + 1) as u8;
    assert!(read_frame(&mut bad_version.as_slice()).is_err());

    // Length prefix far over the actual bytes: must fail with EOF, not
    // hang or allocate the claimed size.
    let mut hostile_len = good.clone();
    hostile_len[12..16].copy_from_slice(&(MAX_FRAME_BYTES - 1).to_le_bytes());
    assert!(read_frame(&mut hostile_len.as_slice()).is_err());

    // Length prefix over the cap: rejected before any payload read.
    let mut over_cap = good.clone();
    over_cap[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(read_frame(&mut over_cap.as_slice()).is_err());

    // Flip one payload byte: the checksum catches it.
    let mut flipped_payload = good.clone();
    flipped_payload[16] ^= 0x01;
    assert!(read_frame(&mut flipped_payload.as_slice()).is_err());

    // Flip one checksum byte.
    let mut flipped_sum = good.clone();
    let last = flipped_sum.len() - 1;
    flipped_sum[last] ^= 0x80;
    assert!(read_frame(&mut flipped_sum.as_slice()).is_err());

    // Truncations at every boundary.
    for cut in [0, 5, 15, 16, good.len() - 9, good.len() - 1] {
        assert!(
            read_frame(&mut good[..cut].as_ref()).is_err(),
            "truncation at {cut} accepted"
        );
    }

    // The original still parses (the mutations above cloned).
    assert!(read_frame(&mut good.as_slice()).is_ok());
}

#[test]
fn version_1_frames_are_rejected_with_the_version_error() {
    assert_eq!(FORMAT_VERSION, 2);
    let mut old = frame_bytes(&Request::Ping.encode());
    old[8..12].copy_from_slice(&1u32.to_le_bytes());
    let err = rejected(read_frame(&mut old.as_slice()));
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("frame version 1"), "{err}");
}

/// The error of a result that must be one.
fn rejected<T: std::fmt::Debug, E>(result: Result<T, E>) -> E {
    match result {
        Ok(value) => panic!("accepted: {value:?}"),
        Err(e) => e,
    }
}

/// Every variant's encoded payload, requests then responses.
fn every_payload() -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(13);
    let mut payloads: Vec<Vec<u8>> = every_request(&mut rng)
        .iter()
        .map(Request::encode)
        .collect();
    payloads.extend(every_response().iter().map(Response::encode));
    payloads
}

fn decode_either(payload: &[u8]) -> (Result<Request, String>, Result<Response, String>) {
    (Request::decode(payload), Response::decode(payload))
}

#[test]
fn strict_prefixes_and_trailing_bytes_are_rejected() {
    let mut rng = StdRng::seed_from_u64(17);
    for request in every_request(&mut rng) {
        let payload = request.encode();
        for cut in 0..payload.len() {
            assert!(
                Request::decode(&payload[..cut]).is_err(),
                "{request:?} prefix of {cut}/{} bytes accepted",
                payload.len()
            );
        }
        let mut long = payload.clone();
        long.push(0);
        let err = rejected(Request::decode(&long));
        assert!(err.contains("trailing"), "{request:?}: {err}");
    }
    for response in every_response() {
        let payload = response.encode();
        for cut in 0..payload.len() {
            assert!(
                Response::decode(&payload[..cut]).is_err(),
                "{response:?} prefix of {cut}/{} bytes accepted",
                payload.len()
            );
        }
        let mut long = payload.clone();
        long.push(0);
        let err = rejected(Response::decode(&long));
        assert!(err.contains("trailing"), "{response:?}: {err}");
    }
}

/// Every single-bit flip of every variant's payload, fed straight to
/// both decoders (no frame checksum in the way): errors allowed,
/// panics not.
#[test]
fn every_single_bit_flip_of_every_variant_never_panics() {
    for payload in every_payload() {
        for at in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.clone();
                flipped[at] ^= 1 << bit;
                let _ = decode_either(&flipped);
            }
        }
    }
}

#[test]
fn malformed_tags_indices_and_node_names_are_rejected() {
    for tag in [6u8, 7, 0x80, 0xff] {
        assert!(Request::decode(&[tag]).is_err(), "request tag {tag}");
    }
    for tag in [7u8, 0x80, 0xff] {
        assert!(Response::decode(&[tag]).is_err(), "response tag {tag}");
    }
    // Tag 2 = Analyze, then the work item; item tag 0 = topology.
    let topo_request = Request::Analyze {
        item: WorkItem::Topo(Topology::nmc_example()),
    }
    .encode();
    let mut bad_item = topo_request.clone();
    bad_item[1] = 2;
    assert!(Request::decode(&bad_item).is_err());
    // Nine stage f64s, rl, cl, then the placement count: the first
    // placement's position and connection index bytes follow it.
    let first_placement = 2 + 11 * 8 + 4;
    let mut bad_position = topo_request.clone();
    bad_position[first_placement] = 7;
    let err = rejected(Request::decode(&bad_position));
    assert!(err.contains("position"), "{err}");
    let mut bad_connection = topo_request.clone();
    bad_connection[first_placement + 1] = 25;
    let err = rejected(Request::decode(&bad_connection));
    assert!(err.contains("connection"), "{err}");

    // A one-resistor netlist: tag 2, item tag 1, title, element count,
    // element tag 0, label, node names, value.
    let netlist = |kind: u8, node: &str| {
        let mut out = vec![2u8, 1];
        wire::push_str(&mut out, "t");
        wire::push_u32(&mut out, 1);
        wire::push_u8(&mut out, kind);
        wire::push_str(&mut out, "R1");
        wire::push_str(&mut out, "in");
        wire::push_str(&mut out, node);
        wire::push_f64(&mut out, 1e3);
        out
    };
    assert!(Request::decode(&netlist(0, "out")).is_ok());
    let err = rejected(Request::decode(&netlist(0, "n9")));
    assert!(err.contains("unknown node name"), "{err}");
    assert!(Request::decode(&netlist(3, "out")).is_err());

    // Result tag 2 and SimError tag 6 do not exist.
    let mut bad_result = vec![4u8];
    bad_result.extend_from_slice(&1u32.to_le_bytes());
    bad_result.extend_from_slice(&[2, 1]);
    assert!(Response::decode(&bad_result).is_err());
    let last = bad_result.len() - 2;
    bad_result[last] = 1;
    bad_result[last + 1] = 6;
    assert!(Response::decode(&bad_result).is_err());
    // A boolean byte other than 0/1.
    let mut bad_bool = Response::Report(Box::new(WireReport {
        outcome: None,
        ..sample_wire_report()
    }))
    .encode();
    bad_bool[1] = 2;
    assert!(Response::decode(&bad_bool).is_err());
}

/// A `u32::MAX` count or length at every place one is read, on a
/// payload of a few bytes: an error, with no allocation anywhere near
/// the claimed size.
#[test]
fn hostile_counts_error_without_large_allocations() {
    // The tracker itself must see a large allocation.
    let (_, largest) = largest_allocation_during(|| vec![0u8; 1 << 20]);
    assert!(largest >= 1 << 20, "tracking allocator saw {largest} bytes");
    let max = u32::MAX.to_le_bytes();
    let filler = [0u8; 32];
    let with = |prefix: &[u8]| -> Vec<u8> {
        let mut out = prefix.to_vec();
        out.extend_from_slice(&max);
        out.extend_from_slice(&filler);
        out
    };
    let requests = [
        // AnalyzeBatch item count.
        with(&[3]),
        // Design tenant string length.
        with(&[1]),
        // Analyze netlist title length.
        with(&[2, 1]),
        // Analyze netlist element count.
        with(&[2, 1, 0, 0, 0, 0]),
        // Analyze netlist element label length.
        with(&[2, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0]),
    ];
    for payload in &requests {
        let (decoded, largest) = largest_allocation_during(|| Request::decode(payload));
        // Refused up front by the count check, not by running out of
        // bytes partway through the claimed entries.
        let err = rejected(decoded);
        assert!(err.contains("exceeds payload"), "{payload:?}: {err}");
        assert!(largest < 4096, "{payload:?} allocated {largest} bytes");
    }
    let responses = [
        // Analysis result count.
        with(&[4]),
        // Busy reason and Error message lengths.
        with(&[1]),
        with(&[2]),
        // BadNetlist message length inside one Analysis result.
        with(&[4, 1, 0, 0, 0, 1, 5]),
        // Stats occupancy row count (after seven counters).
        with(&[[5u8].as_slice(), &[0u8; 56]].concat()),
    ];
    for payload in &responses {
        let (decoded, largest) = largest_allocation_during(|| Response::decode(payload));
        // Refused up front by the count check, not by running out of
        // bytes partway through the claimed entries.
        let err = rejected(decoded);
        assert!(err.contains("exceeds payload"), "{payload:?}: {err}");
        assert!(largest < 4096, "{payload:?} allocated {largest} bytes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Arbitrary bytes into the decoders: errors allowed, panics not.
    #[test]
    fn hostile_payload_bytes_never_panic(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(offset(seed));
        let len = rng.gen_range(0..512);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
        let framed = frame_bytes(&payload);
        // A well-framed garbage payload still reads as a frame…
        let read = read_frame(&mut framed.as_slice()).unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(read, payload);
    }

    /// Arbitrary byte mutations of a valid frame: reads may fail but
    /// must never panic, and whatever payload survives must still
    /// decode without panicking.
    #[test]
    fn mutated_frames_never_panic(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(offset(seed) ^ 0xD1CE);
        let request = Request::Design {
            tenant: format!("t{seed}"),
            seed,
            spec: Spec::g1(),
        };
        let mut framed = frame_bytes(&request.encode());
        let flips = rng.gen_range(1..4);
        for _ in 0..flips {
            let at = rng.gen_range(0..framed.len());
            framed[at] ^= 1 << rng.gen_range(0..8);
        }
        if let Ok(payload) = read_frame(&mut framed.as_slice()) {
            // Survivable only if the flips cancelled out; decode must
            // still not panic.
            let _ = Request::decode(&payload);
        }
    }

    /// Several random byte rewrites of every variant's payload, fed
    /// straight to both decoders: errors allowed, panics not.
    #[test]
    fn mutated_payloads_never_panic(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(offset(seed) ^ 0xB17F);
        for mut payload in every_payload() {
            for _ in 0..rng.gen_range(1..6) {
                let at = rng.gen_range(0..payload.len());
                payload[at] = rng.gen_range(0u32..256) as u8;
            }
            let _ = decode_either(&payload);
        }
    }
}
