//! Reusable little-endian binary framing helpers shared by every
//! binary format in the workspace: the [`crate::SimCache`] snapshot
//! (`cache::persist`), the session write-ahead journal in
//! `artisan-resilience`, and the `artisan-serve` wire protocol.
//!
//! The discipline is the same everywhere:
//!
//! - integers and `f64` bit patterns are little-endian ([`push_u64`],
//!   [`push_f64`], …), so a save → load cycle is bit-exact,
//! - decoding goes through a bounds-checked [`Reader`] — a malformed
//!   length or count can never panic or over-allocate, it surfaces as a
//!   `String` diagnostic the caller turns into a load warning,
//! - corruption detection is [`fnv1a64`] over the framed bytes (cheap,
//!   dependency-free; the artifacts are local caches and journals, not
//!   trust boundaries).
//!
//! [`encode_report`]/[`Reader::report`] carry a full
//! [`AnalysisReport`] in the shared format, so the cache snapshot, the
//! journal and the server serialize simulation results byte-identically;
//! [`encode_topology`]/[`Reader::topology`] do the same for candidate
//! topologies in the journal and the server.

use crate::metrics::Performance;
use crate::poles::PoleZero;
use crate::simulator::AnalysisReport;
use artisan_circuit::units::{Decibels, Degrees, Farads, Hertz, Ohms, Siemens, Watts};
use artisan_circuit::{
    ConnectionParams, ConnectionType, Placement, Position, Skeleton, StageParams, Topology,
};
use artisan_math::Complex64;

/// FNV-1a 64-bit over `bytes` — cheap, dependency-free corruption
/// detection (not cryptographic; the artifacts it guards are local
/// caches and journals, not trust boundaries).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends one byte.
pub fn push_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

/// Appends a little-endian `u32`.
pub fn push_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends an `f64` as its little-endian bit pattern (bit-exact across
/// a round trip, NaN payloads included).
pub fn push_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_bits().to_le_bytes());
}

/// Appends a UTF-8 string as a `u32` byte count followed by the bytes.
pub fn push_str(out: &mut Vec<u8>, value: &str) {
    push_u32(out, value.len() as u32);
    out.extend_from_slice(value.as_bytes());
}

/// Appends a pole/zero list as a `u32` count of `(re, im)` `f64` pairs.
pub fn push_complex_list(out: &mut Vec<u8>, list: &[Complex64]) {
    // Pole/zero lists are tiny (circuit order ≈ 10); u32 is generous.
    push_u32(out, list.len() as u32);
    for c in list {
        push_f64(out, c.re);
        push_f64(out, c.im);
    }
}

/// Appends a full [`AnalysisReport`]: five `f64` metric bit patterns
/// (gain, gbw, pm, power, fom), one stability byte, then the pole and
/// zero lists.
pub fn encode_report(out: &mut Vec<u8>, report: &AnalysisReport) {
    push_f64(out, report.performance.gain.0);
    push_f64(out, report.performance.gbw.0);
    push_f64(out, report.performance.pm.0);
    push_f64(out, report.performance.power.0);
    push_f64(out, report.performance.fom);
    push_u8(out, u8::from(report.stable));
    push_complex_list(out, &report.pole_zero.poles);
    push_complex_list(out, &report.pole_zero.zeros);
}

fn push_stage(out: &mut Vec<u8>, stage: &StageParams) {
    push_f64(out, stage.gm.value());
    push_f64(out, stage.ro.value());
    push_f64(out, stage.cp.value());
}

fn push_opt_f64(out: &mut Vec<u8>, value: Option<f64>) {
    match value {
        Some(v) => {
            push_u8(out, 1);
            push_f64(out, v);
        }
        None => push_u8(out, 0),
    }
}

/// Appends a [`Topology`]: the three stages' `(gm, ro, cp)` bit
/// patterns, `rl`, `cl`, then a `u32` placement count and, per
/// placement, its [`Position::ALL`] index byte, its
/// [`ConnectionType::ALL`] index byte and the optional `r`, `c`, `gm`
/// values (a presence byte, then the bits).
pub fn encode_topology(out: &mut Vec<u8>, topo: &Topology) {
    push_stage(out, &topo.skeleton.stage1);
    push_stage(out, &topo.skeleton.stage2);
    push_stage(out, &topo.skeleton.stage3);
    push_f64(out, topo.skeleton.rl.value());
    push_f64(out, topo.skeleton.cl.value());
    push_u32(out, topo.placements().len() as u32);
    for placement in topo.placements() {
        // Indices into the canonical ALL orders — stable across
        // processes by construction.
        let position = Position::ALL
            .iter()
            .position(|p| *p == placement.position)
            .unwrap_or(0) as u8;
        let connection = ConnectionType::ALL
            .iter()
            .position(|c| *c == placement.connection)
            .unwrap_or(0) as u8;
        push_u8(out, position);
        push_u8(out, connection);
        push_opt_f64(out, placement.params.r.map(|v| v.value()));
        push_opt_f64(out, placement.params.c.map(|v| v.value()));
        push_opt_f64(out, placement.params.gm.map(|v| v.value()));
    }
}

/// Bounded little-endian reader over a framed payload. Every read is
/// length-checked so a malformed count can never panic or
/// over-allocate; errors are diagnostic strings the caller folds into
/// its load warning.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Current read position (bytes consumed).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// A diagnostic when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("unexpected end of payload at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// A diagnostic at end of payload.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool encoded as `0`/`1`.
    ///
    /// # Errors
    ///
    /// A diagnostic at end of payload or on any other byte value.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid boolean byte {other}")),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// A diagnostic at end of payload.
    pub fn u32(&mut self) -> Result<u32, String> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(buf))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// A diagnostic at end of payload.
    pub fn u64(&mut self) -> Result<u64, String> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// A diagnostic at end of payload.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a [`push_str`]-framed string.
    ///
    /// # Errors
    ///
    /// A diagnostic when the count outruns the payload or the bytes are
    /// not UTF-8.
    pub fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(format!("string length {len} exceeds payload"));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| format!("invalid UTF-8: {e}"))
    }

    /// Reads a [`push_complex_list`]-framed pole/zero list.
    ///
    /// # Errors
    ///
    /// A diagnostic when the count outruns the payload.
    pub fn complex_list(&mut self) -> Result<Vec<Complex64>, String> {
        let count = self.u32()? as usize;
        // Each complex needs 16 bytes; reject counts the remaining
        // payload cannot possibly satisfy before allocating.
        if count.saturating_mul(16) > self.remaining() {
            return Err(format!("pole/zero count {count} exceeds payload"));
        }
        let mut list = Vec::with_capacity(count);
        for _ in 0..count {
            let re = self.f64()?;
            let im = self.f64()?;
            list.push(Complex64 { re, im });
        }
        Ok(list)
    }

    /// Reads an [`encode_report`]-framed [`AnalysisReport`].
    ///
    /// # Errors
    ///
    /// A diagnostic on truncation or an invalid stability byte. Metric
    /// finiteness is *not* enforced here — the cache snapshot rejects
    /// non-finite entries (its admission rule), while the journal must
    /// round-trip poisoned reports exactly; each caller applies its own
    /// policy.
    pub fn report(&mut self) -> Result<AnalysisReport, String> {
        let performance = Performance {
            gain: Decibels(self.f64()?),
            gbw: Hertz(self.f64()?),
            pm: Degrees(self.f64()?),
            power: Watts(self.f64()?),
            fom: self.f64()?,
        };
        let stable = self.bool().map_err(|e| format!("stability byte: {e}"))?;
        let poles = self.complex_list()?;
        let zeros = self.complex_list()?;
        Ok(AnalysisReport {
            performance,
            pole_zero: PoleZero { poles, zeros },
            stable,
            // Corner verdicts are never serialized: every cached or
            // journaled snapshot deserializes as nominal-only, and the
            // corner layer (which sits outside the report cache)
            // re-attaches worst-case data from its own verdict map.
            worst_case: None,
        })
    }

    fn stage(&mut self) -> Result<StageParams, String> {
        Ok(StageParams {
            gm: Siemens(self.f64()?),
            ro: Ohms(self.f64()?),
            cp: Farads(self.f64()?),
        })
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, String> {
        Ok(match self.bool()? {
            true => Some(self.f64()?),
            false => None,
        })
    }

    /// Reads an [`encode_topology`]-framed [`Topology`].
    ///
    /// # Errors
    ///
    /// A diagnostic on truncation, more placements than positions, an
    /// out-of-range position or connection index, or a placement the
    /// topology refuses.
    pub fn topology(&mut self) -> Result<Topology, String> {
        let stage1 = self.stage()?;
        let stage2 = self.stage()?;
        let stage3 = self.stage()?;
        let rl = self.f64()?;
        let cl = self.f64()?;
        let mut topo = Topology::new(Skeleton {
            stage1,
            stage2,
            stage3,
            rl: Ohms(rl),
            cl: Farads(cl),
        });
        let count = self.u32()? as usize;
        if count > Position::ALL.len() {
            return Err(format!("placement count {count} exceeds the 7 positions"));
        }
        for _ in 0..count {
            let position = *Position::ALL
                .get(self.u8()? as usize)
                .ok_or("invalid position index")?;
            let connection = *ConnectionType::ALL
                .get(self.u8()? as usize)
                .ok_or("invalid connection index")?;
            let params = ConnectionParams {
                r: self.opt_f64()?.map(Ohms),
                c: self.opt_f64()?.map(Farads),
                gm: self.opt_f64()?.map(Siemens),
            };
            topo.place(Placement::new(position, connection, params))
                .map_err(|e| format!("illegal placement: {e}"))?;
        }
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_circuit::Topology;

    #[test]
    fn scalar_round_trip_is_exact() {
        let mut out = Vec::new();
        push_u8(&mut out, 7);
        push_u32(&mut out, 0xDEAD_BEEF);
        push_u64(&mut out, u64::MAX - 3);
        push_f64(&mut out, -0.0);
        push_f64(&mut out, f64::NAN);
        push_str(&mut out, "journal ≠ snapshot");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap_or_else(|e| panic!("{e}")), 7);
        assert_eq!(r.u32().unwrap_or_else(|e| panic!("{e}")), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap_or_else(|e| panic!("{e}")), u64::MAX - 3);
        // Bit-exact: -0.0 and NaN payloads survive.
        assert_eq!(
            r.f64().unwrap_or_else(|e| panic!("{e}")).to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            r.f64().unwrap_or_else(|e| panic!("{e}")).to_bits(),
            f64::NAN.to_bits()
        );
        assert_eq!(
            r.str().unwrap_or_else(|e| panic!("{e}")),
            "journal ≠ snapshot"
        );
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn report_round_trip_is_exact() {
        let mut sim = crate::Simulator::new();
        let report = sim
            .analyze_topology(&Topology::nmc_example())
            .unwrap_or_else(|e| panic!("{e}"));
        let mut out = Vec::new();
        encode_report(&mut out, &report);
        let mut r = Reader::new(&out);
        let decoded = r.report().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(decoded, report);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn topology_round_trip_is_exact_and_truncation_errors() {
        let topo = Topology::nmc_example();
        let mut out = Vec::new();
        encode_topology(&mut out, &topo);
        let mut r = Reader::new(&out);
        assert_eq!(r.topology().unwrap_or_else(|e| panic!("{e}")), topo);
        assert_eq!(r.remaining(), 0);
        for cut in 0..out.len() {
            assert!(Reader::new(&out[..cut]).topology().is_err(), "cut {cut}");
        }
    }

    #[test]
    fn topology_rejects_bad_indices_and_counts() {
        let mut out = Vec::new();
        encode_topology(&mut out, &Topology::nmc_example());
        // Stages (9 f64s) + rl + cl, then the placement count.
        let count_at = 11 * 8;
        let first_placement = count_at + 4;
        let mut bad = out.clone();
        bad[count_at..first_placement].copy_from_slice(&8u32.to_le_bytes());
        assert!(Reader::new(&bad).topology().is_err());
        let mut bad = out.clone();
        bad[first_placement] = Position::ALL.len() as u8;
        assert!(Reader::new(&bad).topology().is_err());
        let mut bad = out.clone();
        bad[first_placement + 1] = ConnectionType::ALL.len() as u8;
        assert!(Reader::new(&bad).topology().is_err());
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let mut out = Vec::new();
        push_str(&mut out, "hello");
        for cut in 0..out.len() {
            let mut r = Reader::new(&out[..cut]);
            assert!(r.str().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn hostile_counts_cannot_over_allocate() {
        // A string claiming u32::MAX bytes with a 4-byte payload.
        let mut out = Vec::new();
        push_u32(&mut out, u32::MAX);
        push_u32(&mut out, 0);
        let mut r = Reader::new(&out);
        assert!(r.str().is_err());
        // A complex list claiming more pairs than the payload holds.
        let mut out = Vec::new();
        push_u32(&mut out, 1_000_000);
        let mut r = Reader::new(&out);
        assert!(r.complex_list().is_err());
    }

    #[test]
    fn bool_rejects_other_bytes() {
        let mut r = Reader::new(&[2u8]);
        assert!(r.bool().is_err());
        let mut r = Reader::new(&[1u8, 0u8]);
        assert_eq!(r.bool().unwrap_or_else(|e| panic!("{e}")), true);
        assert_eq!(r.bool().unwrap_or_else(|e| panic!("{e}")), false);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
