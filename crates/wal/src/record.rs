//! Record framing: one length-prefixed, checksummed record per committed
//! operation batch.
//!
//! On disk a record is
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload bytes]
//! ```
//!
//! and the payload is
//!
//! ```text
//! u64   epoch                 — the epoch this batch published
//! u32   op count
//!       per op: u8 tag (0 = insert, 1 = remove)
//!                insert: str name + Region (spatial_core::wire)
//!                remove: str name
//! u32   changed-name count
//!       per name: str
//! ```
//!
//! All coordinate data rides through [`spatial_core::wire`], so the exact
//! `Rational` numerator/denominator pairs are preserved bit-for-bit — replay
//! reconstructs the *identical* instance, not an approximation of it.

use crate::crc::crc32;
use crate::error::WalError;
use spatial_core::region::Region;
use spatial_core::wire::{put_string, put_u32, put_u64, Wire, WireReader};

/// Framing overhead preceding every record payload (length + CRC words).
pub const RECORD_HEADER_LEN: usize = 8;

/// Hard upper bound on a single record's payload, rejected at both append
/// and recovery time. Guards recovery against allocating pathological
/// lengths decoded from corrupt headers.
pub const MAX_RECORD_LEN: usize = 256 << 20;

/// One operation of a write batch: what a `topodb` transaction buffers,
/// what its commit applies, and what the log records and replays — one type
/// from transaction to log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalOp {
    /// Insert (or replace) the named region.
    Insert(String, Region),
    /// Remove the named region (a no-op if absent).
    Remove(String),
}

/// A committed batch as logged: the epoch it published, the ops applied,
/// and the set of region names whose geometry actually changed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchRecord {
    /// Epoch number the batch published.
    pub epoch: u64,
    /// The operations, in application order.
    pub ops: Vec<WalOp>,
    /// Names whose geometry changed (the epoch's changed set) — logged so
    /// replay can cross-check its own `apply_ops` result.
    pub changed: Vec<String>,
}

impl BatchRecord {
    /// Serialize the payload (everything after the length/CRC words).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        put_u64(&mut out, self.epoch);
        put_u32(&mut out, self.ops.len() as u32);
        for op in &self.ops {
            match op {
                WalOp::Insert(name, region) => {
                    out.push(0);
                    put_string(&mut out, name);
                    region.to_wire(&mut out);
                }
                WalOp::Remove(name) => {
                    out.push(1);
                    put_string(&mut out, name);
                }
            }
        }
        put_u32(&mut out, self.changed.len() as u32);
        for name in &self.changed {
            put_string(&mut out, name);
        }
        out
    }

    /// Serialize the full framed record (header + payload).
    pub fn encode_framed(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        assert!(payload.len() <= MAX_RECORD_LEN, "record payload exceeds MAX_RECORD_LEN");
        let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decode a payload previously produced by [`encode_payload`]
    /// (CRC already verified by the caller). `context` names the segment
    /// and `base` is the payload's absolute offset in it, so errors point
    /// at the offending bytes on disk.
    ///
    /// [`encode_payload`]: BatchRecord::encode_payload
    pub fn decode_payload(payload: &[u8], context: &str, base: u64) -> Result<BatchRecord, WalError> {
        let mut r = WireReader::new(payload);
        let fail = |r: &WireReader<'_>, detail: String| WalError::Corrupt {
            segment: context.to_string(),
            offset: base + r.position() as u64,
            detail,
        };
        let wire_fail = |e: spatial_core::wire::WireError| WalError::Corrupt {
            segment: context.to_string(),
            offset: base + e.offset as u64,
            detail: e.detail,
        };

        let epoch = r.read_u64().map_err(wire_fail)?;
        let op_count = r.read_u32().map_err(wire_fail)? as usize;
        let mut ops = Vec::with_capacity(op_count.min(4096));
        for _ in 0..op_count {
            let tag = r.read_u8().map_err(wire_fail)?;
            match tag {
                0 => {
                    let name = r.read_string().map_err(wire_fail)?;
                    let region = Region::from_wire(&mut r).map_err(wire_fail)?;
                    ops.push(WalOp::Insert(name, region));
                }
                1 => ops.push(WalOp::Remove(r.read_string().map_err(wire_fail)?)),
                other => return Err(fail(&r, format!("unknown op tag {other}"))),
            }
        }
        let changed_count = r.read_u32().map_err(wire_fail)? as usize;
        let mut changed = Vec::with_capacity(changed_count.min(4096));
        for _ in 0..changed_count {
            changed.push(r.read_string().map_err(wire_fail)?);
        }
        if !r.is_exhausted() {
            return Err(fail(&r, format!("{} trailing bytes in record payload", r.remaining())));
        }
        Ok(BatchRecord { epoch, ops, changed })
    }
}

/// Outcome of pulling one record off a byte stream.
#[derive(Debug)]
pub enum RecordRead {
    /// A complete, checksum-verified record, plus the offset just past it.
    Complete(BatchRecord, usize),
    /// The stream ends inside the header or the payload: a torn tail if
    /// this is the final segment's final bytes, corruption otherwise.
    Incomplete,
    /// The payload is fully present but its CRC does not match. `end` is
    /// the offset just past the record; the caller decides (by whether any
    /// bytes follow) if this is a torn tail or mid-log corruption.
    BadCrc {
        /// Offset of the record's header within `buf`.
        at: usize,
        /// Offset just past the record.
        end: usize,
    },
}

/// Try to read one framed record starting at `pos` in `buf`.
///
/// `context` names the segment for error messages. A length field larger
/// than [`MAX_RECORD_LEN`] is reported as corruption outright — no real
/// record is that large, and trusting it would make recovery attempt a
/// matching allocation.
pub fn read_record(buf: &[u8], pos: usize, context: &str) -> Result<RecordRead, WalError> {
    let rest = &buf[pos..];
    if rest.len() < RECORD_HEADER_LEN {
        return Ok(RecordRead::Incomplete);
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    let crc_stored = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN {
        return Err(WalError::Corrupt {
            segment: context.to_string(),
            offset: pos as u64,
            detail: format!("record length {len} exceeds maximum {MAX_RECORD_LEN}"),
        });
    }
    if rest.len() < RECORD_HEADER_LEN + len {
        return Ok(RecordRead::Incomplete);
    }
    let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
    let end = pos + RECORD_HEADER_LEN + len;
    if crc32(payload) != crc_stored {
        return Ok(RecordRead::BadCrc { at: pos, end });
    }
    let record =
        BatchRecord::decode_payload(payload, context, (pos + RECORD_HEADER_LEN) as u64)?;
    Ok(RecordRead::Complete(record, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BatchRecord {
        BatchRecord {
            epoch: 7,
            ops: vec![
                WalOp::Insert("A".into(), Region::rect_from_ints(0, 0, 4, 4)),
                WalOp::Remove("B".into()),
                WalOp::Insert(
                    "C".into(),
                    Region::polygon_from_ints(&[(0, 0), (8, 0), (4, 5)]).unwrap(),
                ),
            ],
            changed: vec!["A".into(), "C".into()],
        }
    }

    #[test]
    fn framed_round_trip() {
        let rec = sample();
        let framed = rec.encode_framed();
        match read_record(&framed, 0, "seg").unwrap() {
            RecordRead::Complete(back, end) => {
                assert_eq!(back, rec);
                assert_eq!(end, framed.len());
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_incomplete() {
        let framed = sample().encode_framed();
        for cut in 0..framed.len() {
            match read_record(&framed[..cut], 0, "seg").unwrap() {
                RecordRead::Incomplete => {}
                other => panic!("cut at {cut}: expected Incomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_payload_bit_flip_fails_crc() {
        let framed = sample().encode_framed();
        for i in RECORD_HEADER_LEN..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            match read_record(&bad, 0, "seg").unwrap() {
                RecordRead::BadCrc { at: 0, end } => assert_eq!(end, framed.len()),
                other => panic!("flip at {i}: expected BadCrc, got {other:?}"),
            }
        }
    }

    #[test]
    fn absurd_length_is_corruption() {
        let mut framed = sample().encode_framed();
        framed[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = match read_record(&framed, 0, "seg-test") {
            Err(e) => e,
            Ok(r) => panic!("expected error, got {r:?}"),
        };
        match err {
            WalError::Corrupt { segment, offset, .. } => {
                assert_eq!(segment, "seg-test");
                assert_eq!(offset, 0);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn empty_batch_round_trips() {
        let rec = BatchRecord { epoch: 1, ops: vec![], changed: vec![] };
        let framed = rec.encode_framed();
        match read_record(&framed, 0, "seg").unwrap() {
            RecordRead::Complete(back, _) => assert_eq!(back, rec),
            other => panic!("{other:?}"),
        }
    }
}
