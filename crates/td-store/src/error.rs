//! Typed load/save failures. A hostile `.tds` file can produce any of
//! these, but never a panic and never an allocation sized by
//! unvalidated input.

use std::error::Error;
use std::fmt;

use td_model::ModelError;

/// Everything that can go wrong opening, validating, or decoding a
/// `.tds` store. Every variant that concerns file contents names the
/// section it was detected in, so corruption reports point at bytes,
/// not at symptoms.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The underlying file could not be read or written. The original
    /// [`std::io::Error`] is flattened to its kind and message so the
    /// error stays `Clone + PartialEq` (the workspace-level `TdError`
    /// carries it by value).
    Io {
        /// The i/o error kind as reported by the OS.
        kind: std::io::ErrorKind,
        /// The rendered i/o error message.
        detail: String,
    },
    /// The file is shorter than the fixed header (or its section
    /// table): nothing past this point is trustworthy.
    TruncatedHeader {
        /// Actual file length in bytes.
        len: usize,
    },
    /// The first four bytes are not `TDS1`.
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 4],
    },
    /// The header declares a format version this build cannot decode.
    UnsupportedVersion {
        /// The version field as read.
        found: u32,
    },
    /// A section's XXH64 checksum does not match its payload.
    ChecksumMismatch {
        /// Section name (`"sources"`, `"claims"`, …).
        section: &'static str,
    },
    /// A section's declared `[offset, offset+len)` range escapes the
    /// file (or overflows).
    SectionOutOfBounds {
        /// Section name, or `"header"` for the section table itself.
        section: &'static str,
    },
    /// A section's payload is internally inconsistent: counts that
    /// don't fit the byte length, duplicate interned names, ids out of
    /// range, non-canonical packed words, …
    Corrupt {
        /// Section name the inconsistency was detected in.
        section: &'static str,
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// The decoded parts were well-formed bytes but do not assemble
    /// into a valid [`td_model::Dataset`].
    Model(ModelError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { detail, .. } => write!(f, "i/o: {detail}"),
            StoreError::TruncatedHeader { len } => {
                write!(f, "truncated header: file is only {len} bytes")
            }
            StoreError::BadMagic { found } => {
                write!(f, "bad magic {found:?} (expected \"TDS1\")")
            }
            StoreError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported format version {found} (this build reads version {})",
                    crate::VERSION
                )
            }
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:?}")
            }
            StoreError::SectionOutOfBounds { section } => {
                write!(f, "section {section:?} extends past the end of the file")
            }
            StoreError::Corrupt { section, detail } => {
                write!(f, "corrupt section {section:?}: {detail}")
            }
            StoreError::Model(e) => write!(f, "decoded dataset is invalid: {e}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

impl From<ModelError> for StoreError {
    fn from(e: ModelError) -> Self {
        StoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_section() {
        let e = StoreError::ChecksumMismatch { section: "claims" };
        assert!(e.to_string().contains("claims"));
        let e = StoreError::Corrupt {
            section: "values",
            detail: "NaN float".into(),
        };
        assert!(e.to_string().contains("values") && e.to_string().contains("NaN"));
        let e = StoreError::BadMagic { found: *b"NOPE" };
        assert!(e.to_string().contains("TDS1"));
        let e = StoreError::UnsupportedVersion { found: 1 };
        assert_eq!(
            e.to_string(),
            format!(
                "unsupported format version 1 (this build reads version {})",
                crate::VERSION
            )
        );
    }

    #[test]
    fn implements_std_error_with_sources() {
        let io = StoreError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert_eq!(
            io,
            StoreError::Io {
                kind: std::io::ErrorKind::NotFound,
                detail: "gone".into()
            }
        );
        assert!(io.to_string().contains("gone"));
        let model = StoreError::from(ModelError::Parse("bad".into()));
        assert!(model.source().is_some());
        assert!(StoreError::TruncatedHeader { len: 3 }.source().is_none());
    }
}
