//! Memory-consistency annotations (§2.1 of the paper).

use carlos_util::{
    codec::{DecodeError, Decoder, Encoder, Wire},
    event::MsgClass,
};

/// The annotation every user-level CarlOS message carries.
///
/// Annotations are a user-visible component of the message; any consistency
/// information CarlOS appends under them is invisible at user level (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Annotation {
    /// Non-synchronizing; does not interact with the consistency mechanisms
    /// in any way. Semantically equivalent to `Request` but cheaper: no
    /// vector timestamp is carried (§2.1, §5.4).
    None,
    /// Non-synchronizing; piggybacks the sender's vector timestamp so that
    /// a precisely tailored RELEASE can be sent in response. Intended for
    /// messages whose reply will be a RELEASE.
    Request,
    /// Synchronizing: sending is a release event and accepting is the
    /// matching acquire. Carries the required vector timestamp and the
    /// interval descriptions the sender believes the receiver lacks.
    Release,
    /// The non-transitive release: carries only consistency information
    /// about intervals created at the sending node (plus the correct
    /// required timestamp, so the receiver can detect a gap and repair it).
    /// Included in the model specifically for global barriers, where the
    /// union of every member's own contribution is globally consistent.
    ReleaseNt,
}

impl Annotation {
    /// True for the two release forms (the synchronizing annotations).
    #[must_use]
    pub fn is_release(self) -> bool {
        matches!(self, Annotation::Release | Annotation::ReleaseNt)
    }

    /// True when the message carries the sender's vector timestamp.
    #[must_use]
    pub fn carries_timestamp(self) -> bool {
        !matches!(self, Annotation::None)
    }

    /// The cost-attribution class of a user message with this annotation.
    #[must_use]
    pub fn class(self) -> MsgClass {
        match self {
            Annotation::None => MsgClass::None,
            Annotation::Request => MsgClass::Request,
            Annotation::Release => MsgClass::Release,
            Annotation::ReleaseNt => MsgClass::ReleaseNt,
        }
    }

    /// Display name as the paper writes it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Annotation::None => "NONE",
            Annotation::Request => "REQUEST",
            Annotation::Release => "RELEASE",
            Annotation::ReleaseNt => "RELEASE_NT",
        }
    }
}

impl Wire for Annotation {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            Annotation::None => 0,
            Annotation::Request => 1,
            Annotation::Release => 2,
            Annotation::ReleaseNt => 3,
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(Annotation::None),
            1 => Ok(Annotation::Request),
            2 => Ok(Annotation::Release),
            3 => Ok(Annotation::ReleaseNt),
            tag => Err(DecodeError::BadTag {
                tag: u32::from(tag),
                what: "Annotation",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Annotation::Release.is_release());
        assert!(Annotation::ReleaseNt.is_release());
        assert!(!Annotation::None.is_release());
        assert!(!Annotation::Request.is_release());
        assert!(Annotation::Request.carries_timestamp());
        assert!(!Annotation::None.carries_timestamp());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Annotation::ReleaseNt.name(), "RELEASE_NT");
        assert_eq!(Annotation::None.name(), "NONE");
    }

    #[test]
    fn wire_roundtrip_all() {
        for a in [
            Annotation::None,
            Annotation::Request,
            Annotation::Release,
            Annotation::ReleaseNt,
        ] {
            assert_eq!(Annotation::from_wire(&a.to_wire()).unwrap(), a);
            assert_eq!(a.wire_size(), 1);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Annotation::from_wire(&[9]),
            Err(DecodeError::BadTag { .. })
        ));
    }
}
