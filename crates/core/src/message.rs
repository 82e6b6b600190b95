//! User-level message representation and wire format.

use carlos_lrc::{Diffs, Records, Vc};
use carlos_sim::transport::FrameBuf;
use carlos_util::codec::{DecodeError, Decoder, Encoder, Wire};

use crate::annotation::Annotation;

/// The consistency information appended to a message under its annotation.
///
/// This is the part of the message that is "invisible at the user level"
/// (§4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Consistency {
    /// NONE messages carry nothing.
    None,
    /// REQUEST messages piggyback the sender's vector timestamp.
    Request {
        /// The sender's vector timestamp at send time.
        vt: Vc,
    },
    /// RELEASE / RELEASE_NT messages.
    Release {
        /// The minimum vector timestamp a recipient must reach to become
        /// consistent on the basis of this message; necessary to handle
        /// forwarding correctly (§4.3).
        required: Vc,
        /// Interval descriptions (write notices), node-major and
        /// index-ascending.
        records: Records,
        /// Diffs for the noticed pages — none under the invalidate
        /// strategy (eager granules apart); carried under the
        /// update/hybrid strategy, where "pages to which a 'complete' set
        /// of diffs can be applied remain valid" (§4.3). Flat batches,
        /// encoded back to back as one record sequence: a built or decoded
        /// release holds one batch, or none when it carries no diff, which
        /// is how `Vec::new()` (the form `benchmark/` builds) reads.
        diffs: Vec<Diffs>,
    },
}

impl Consistency {
    /// The minimum timestamp a recipient must reach before acting on the
    /// message, if it carries one (releases only).
    #[must_use]
    pub fn required(&self) -> Option<&Vc> {
        match self {
            Self::Release { required, .. } => Some(required),
            Self::None | Self::Request { .. } => None,
        }
    }
}

/// A user-level CarlOS message as seen by a low-level handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Immediate sender (the forwarder, for forwarded messages).
    pub src: u32,
    /// Original sender — the node whose consistency information the message
    /// encapsulates, and the node to ask when that information is
    /// inadequate after a forward.
    pub origin: u32,
    /// Handler identifier the message is dispatched to.
    pub handler: u32,
    /// The user-visible consistency annotation.
    pub annotation: Annotation,
    /// Application payload.
    pub body: Vec<u8>,
    /// System-appended consistency information.
    pub consistency: Consistency,
}

impl Message {
    /// Encodes everything except `src` (which the transport supplies).
    ///
    /// `pad` appends that many zero bytes as a modeled header: the real
    /// system's messages carried request ids, types, and bookkeeping
    /// structures considerably fatter than this crate's minimal encoding,
    /// and the paper's tables report message sizes including them.
    #[must_use]
    pub fn to_wire_bytes(&self, pad: usize) -> Vec<u8> {
        self.to_wire_bytes_with(pad, false)
    }

    /// Like [`Message::to_wire_bytes`] with an explicit choice of the
    /// aggregated write-notice encoding for release payloads.
    #[must_use]
    pub fn to_wire_bytes_with(&self, pad: usize, aggregate: bool) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(self.size_hint(pad));
        self.encode_into(&mut enc, pad, aggregate);
        enc.finish_vec()
    }

    /// Encodes like [`Message::to_wire_bytes`], but with transport-header
    /// headroom reserved in front so the transport frames the message in
    /// place — the encoder's buffer becomes the wire datagram without
    /// further copying.
    #[must_use]
    pub fn to_framed(&self, pad: usize) -> FrameBuf {
        self.to_framed_with(pad, false)
    }

    /// Like [`Message::to_framed`], optionally using the aggregated
    /// write-notice encoding (wire tags 4/5) for release payloads. With
    /// `aggregate` false the frame is byte-identical to the legacy one.
    #[must_use]
    pub fn to_framed_with(&self, pad: usize, aggregate: bool) -> FrameBuf {
        let mut enc = Encoder::with_capacity(FrameBuf::HEADROOM + self.size_hint(pad));
        enc.put_raw(&[0u8; FrameBuf::HEADROOM]);
        self.encode_into(&mut enc, pad, aggregate);
        FrameBuf::from_reserved(enc.finish_vec())
    }

    /// The size of the legacy encoding (the aggregated one differs by a
    /// few bytes per creator), so that the encoder's buffer is allocated
    /// once instead of doubling its way up from nothing.
    fn size_hint(&self, pad: usize) -> usize {
        let vc = Vc::wire_len;
        let head = 1 + 4 + 4 + 4 + pad + 4 + self.body.len();
        head + match &self.consistency {
            Consistency::None => 0,
            Consistency::Request { vt } => vc(vt),
            Consistency::Release {
                required,
                records,
                diffs,
            } => {
                let diffs: usize = diffs.iter().map(|b| b.wire_len() - 4).sum();
                vc(required) + records.wire_len() + 4 + diffs
            }
        }
    }

    fn encode_into(&self, enc: &mut Encoder, pad: usize, aggregate: bool) {
        let aggregated = aggregate && self.annotation.is_release();
        if aggregated {
            // Tags 4/5 mark the aggregated release encodings; the legacy
            // tags 0–3 and their payload bytes are untouched.
            enc.put_u8(match self.annotation {
                Annotation::Release => 4,
                Annotation::ReleaseNt => 5,
                _ => unreachable!("aggregated implies release"),
            });
        } else {
            self.annotation.encode(enc);
        }
        enc.put_u32(self.handler);
        enc.put_u32(self.origin);
        enc.put_zeros(pad);
        enc.put_bytes(&self.body);
        match &self.consistency {
            Consistency::None => {}
            Consistency::Request { vt } => vt.encode(enc),
            Consistency::Release {
                required,
                records,
                diffs,
            } => {
                required.encode(enc);
                if aggregated {
                    records.encode_grouped(enc);
                } else {
                    records.encode(enc);
                }
                enc.put_u32(diffs.iter().map(Diffs::len).sum::<usize>() as u32);
                for rec in diffs.iter().flat_map(Diffs::iter) {
                    rec.encode(enc);
                }
            }
        }
    }

    /// Decodes a message received from `src`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn from_wire_bytes(src: u32, buf: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(buf);
        // Tags 0–3 are the annotation's own encoding; 4/5 are the
        // aggregated forms of Release/ReleaseNt (write notices grouped by
        // creator with delta-coded vector clocks).
        let (annotation, aggregated) = match dec.get_u8()? {
            0 => (Annotation::None, false),
            1 => (Annotation::Request, false),
            2 => (Annotation::Release, false),
            3 => (Annotation::ReleaseNt, false),
            4 => (Annotation::Release, true),
            5 => (Annotation::ReleaseNt, true),
            tag => {
                return Err(DecodeError::BadTag {
                    tag: u32::from(tag),
                    what: "Annotation",
                })
            }
        };
        let handler = dec.get_u32()?;
        let origin = dec.get_u32()?;
        let _pad = dec.get_byte_slice()?;
        let body = dec.get_bytes()?;
        let consistency = match annotation {
            Annotation::None => Consistency::None,
            Annotation::Request => Consistency::Request {
                vt: Vc::decode(&mut dec)?,
            },
            Annotation::Release | Annotation::ReleaseNt => {
                let required = Vc::decode(&mut dec)?;
                let records = if aggregated {
                    Records::decode_grouped(&mut dec)?
                } else {
                    Records::decode(&mut dec)?
                };
                let diffs = Diffs::decode(&mut dec)?;
                Consistency::Release {
                    required,
                    records,
                    diffs: if diffs.is_empty() { Vec::new() } else { vec![diffs] },
                }
            }
        };
        dec.expect_end()?;
        Ok(Self {
            src,
            origin,
            handler,
            annotation,
            body,
            consistency,
        })
    }

    /// Number of write notices carried (0 for non-release messages).
    #[must_use]
    pub fn notice_count(&self) -> usize {
        match &self.consistency {
            Consistency::Release { records, .. } => records.notice_count(),
            _ => 0,
        }
    }
}

/// A message after acceptance, handed to user-level code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptedMsg {
    /// Immediate sender.
    pub src: u32,
    /// Original sender.
    pub origin: u32,
    /// Handler id it arrived under.
    pub handler: u32,
    /// The annotation it carried.
    pub annotation: Annotation,
    /// Application payload.
    pub body: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use carlos_lrc::{DiffRecord, IntervalRecord};

    fn rec(node: u32, index: u32, n: usize) -> IntervalRecord {
        let mut vc = Vc::new(n);
        vc.set(node, index);
        IntervalRecord {
            node,
            index,
            vc,
            pages: vec![3, 4],
        }
    }

    #[test]
    fn none_roundtrip() {
        let m = Message {
            src: 1,
            origin: 1,
            handler: 7,
            annotation: Annotation::None,
            body: b"payload".to_vec(),
            consistency: Consistency::None,
        };
        let back = Message::from_wire_bytes(1, &m.to_wire_bytes(0)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn request_roundtrip_carries_vt() {
        let mut vt = Vc::new(3);
        vt.set(2, 9);
        let m = Message {
            src: 0,
            origin: 0,
            handler: 1,
            annotation: Annotation::Request,
            body: vec![],
            consistency: Consistency::Request { vt: vt.clone() },
        };
        let back = Message::from_wire_bytes(0, &m.to_wire_bytes(0)).unwrap();
        assert_eq!(back.consistency, Consistency::Request { vt });
    }

    #[test]
    fn release_roundtrip_with_records() {
        let mut required = Vc::new(2);
        required.set(0, 2);
        let m = Message {
            src: 0,
            origin: 0,
            handler: 2,
            annotation: Annotation::Release,
            body: vec![1, 2, 3],
            consistency: Consistency::Release {
                required,
                records: [rec(0, 1, 2), rec(0, 2, 2)].into_iter().collect(),
                diffs: Vec::new(),
            },
        };
        let back = Message::from_wire_bytes(0, &m.to_wire_bytes(0)).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.notice_count(), 4);
    }

    #[test]
    fn size_hint_is_the_legacy_encoded_length() {
        let diff = DiffRecord {
            node: 1,
            page: 3,
            first: 2,
            last: 2,
            vc: Vc::new(2),
            diff: carlos_lrc::Diff::create(&[0; 16], &[0, 7, 7, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
        };
        let mut m = Message {
            src: 0,
            origin: 0,
            handler: 2,
            annotation: Annotation::Release,
            body: vec![1, 2, 3],
            consistency: Consistency::Release {
                required: Vc::new(2),
                records: [rec(0, 1, 2), rec(1, 2, 2)].into_iter().collect(),
                diffs: vec![[diff.view()].into_iter().collect()],
            },
        };
        assert_eq!(m.to_wire_bytes(90).len(), m.size_hint(90));
        m.annotation = Annotation::Request;
        m.consistency = Consistency::Request { vt: Vc::new(5) };
        assert_eq!(m.to_wire_bytes(0).len(), m.size_hint(0));
    }

    #[test]
    fn request_is_larger_than_none() {
        // The §5.4 distinction: REQUEST costs a timestamp on the wire.
        let none = Message {
            src: 0,
            origin: 0,
            handler: 1,
            annotation: Annotation::None,
            body: vec![0; 8],
            consistency: Consistency::None,
        };
        let req = Message {
            annotation: Annotation::Request,
            consistency: Consistency::Request { vt: Vc::new(4) },
            ..none.clone()
        };
        let extra = req.to_wire_bytes(0).len() - none.to_wire_bytes(0).len();
        // Two bytes per node plus the length prefix.
        assert_eq!(extra, 2 + 4 * 2);
    }

    #[test]
    fn truncated_message_rejected() {
        let m = Message {
            src: 0,
            origin: 0,
            handler: 1,
            annotation: Annotation::Release,
            body: vec![9; 4],
            consistency: Consistency::Release {
                required: Vc::new(2),
                records: [rec(1, 1, 2)].into_iter().collect(),
                diffs: Vec::new(),
            },
        };
        let bytes = m.to_wire_bytes(0);
        for cut in [1, 5, bytes.len() - 1] {
            assert!(Message::from_wire_bytes(0, &bytes[..cut]).is_err());
        }
    }

    #[test]
    fn aggregated_release_roundtrips_losslessly() {
        // Three records from node 0 (a chain whose vc grows stepwise) and
        // one from node 2 — the aggregated form must reproduce them all,
        // in order, bit for bit.
        let n = 4;
        let mk = |node: u32, index: u32, other: (u32, u32), pages: Vec<u32>| {
            let mut vc = Vc::new(n);
            vc.set(node, index);
            vc.set(other.0, other.1);
            IntervalRecord {
                node,
                index,
                vc,
                pages,
            }
        };
        let records = [
            mk(0, 1, (1, 0), vec![3]),
            mk(0, 2, (1, 5), vec![3, 9]),
            mk(0, 3, (1, 5), vec![]),
            mk(2, 7, (3, 1), vec![11]),
        ]
        .into_iter()
        .collect();
        let mut required = Vc::new(n);
        required.set(0, 3);
        required.set(2, 7);
        let m = Message {
            src: 0,
            origin: 0,
            handler: 2,
            annotation: Annotation::Release,
            body: vec![5, 6],
            consistency: Consistency::Release {
                required,
                records,
                diffs: Vec::new(),
            },
        };
        let agg = m.to_wire_bytes_with(0, true);
        let legacy = m.to_wire_bytes(0);
        assert_eq!(Message::from_wire_bytes(0, &agg).unwrap(), m);
        // Elided vc components make the aggregated frame strictly smaller
        // once a creator contributes more than one record.
        assert!(agg.len() < legacy.len(), "{} !< {}", agg.len(), legacy.len());
        // Tag byte distinguishes the encodings.
        assert_eq!(agg[0], 4);
        assert_eq!(legacy[0], 2);
    }

    #[test]
    fn aggregated_release_nt_uses_tag_5() {
        let m = Message {
            src: 1,
            origin: 1,
            handler: 2,
            annotation: Annotation::ReleaseNt,
            body: vec![],
            consistency: Consistency::Release {
                required: Vc::new(2),
                records: [rec(1, 1, 2)].into_iter().collect(),
                diffs: Vec::new(),
            },
        };
        let agg = m.to_wire_bytes_with(0, true);
        assert_eq!(agg[0], 5);
        assert_eq!(Message::from_wire_bytes(1, &agg).unwrap(), m);
    }

    #[test]
    fn aggregation_flag_leaves_non_releases_untouched() {
        let m = Message {
            src: 0,
            origin: 0,
            handler: 1,
            annotation: Annotation::Request,
            body: vec![1],
            consistency: Consistency::Request { vt: Vc::new(3) },
        };
        assert_eq!(m.to_wire_bytes_with(7, true), m.to_wire_bytes(7));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let m = Message {
            src: 0,
            origin: 0,
            handler: 1,
            annotation: Annotation::None,
            body: vec![],
            consistency: Consistency::None,
        };
        let mut bytes = m.to_wire_bytes(0);
        bytes.push(0xFF);
        assert!(Message::from_wire_bytes(0, &bytes).is_err());
    }
}
