//! Error type shared by graph IO and partitioning.

use std::fmt;

/// Errors raised by graph construction, IO and partitioning.
#[derive(Debug)]
pub enum GraphError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// A text edge list line could not be parsed.
    Parse { line: usize, content: String },
    /// A binary edge list had a trailing partial record.
    TruncatedBinary { bytes: usize },
    /// The requested partition count is invalid (k must be >= 2).
    InvalidPartitionCount { k: u32 },
    /// The graph has no edges, which partitioners cannot handle meaningfully.
    EmptyGraph,
    /// An edge referenced a vertex id >= the declared vertex count.
    VertexOutOfRange { vertex: u32, num_vertices: u32 },
    /// A streamed h2h edge had an endpoint outside the high-degree set
    /// V_h (a forged or mismatched spill file: phase 2 keeps replica rows
    /// for V_h only).
    NotHighDegree { vertex: u32 },
    /// A configuration parameter was out of its valid domain.
    InvalidConfig(String),
    /// A headered binary edge file had a malformed or inconsistent header.
    BadHeader(String),
    /// A checksummed section of a binary edge file failed verification
    /// (HEPB v2 carries one checksum over the header and one over the edge
    /// payload).
    ChecksumMismatch {
        /// Which section failed (`"header"` or `"payload"`).
        section: &'static str,
        /// The checksum recorded in the file.
        expected: u64,
        /// The checksum computed over the bytes actually read.
        actual: u64,
    },
    /// A pruned CSR segment offset does not fit its `u32` slot: the low
    /// segments before `vertex` in its block of 64 ids hold more than
    /// `u32::MAX` column entries (a column array of 16 GiB or more).
    SegmentIndexOverflow {
        /// The vertex whose segment start overflowed.
        vertex: u32,
        /// Its offset from the block base, in column entries.
        offset: u64,
    },
    /// The configured memory budget cannot be met: even the most degraded
    /// ingestion plan (smallest τ, maximum column chunking) needs more.
    BudgetExceeded {
        /// The configured budget in bytes.
        budget_bytes: u64,
        /// The smallest estimated peak any plan achieves.
        required_bytes: u64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Io(e) => write!(f, "io error: {e}"),
            GraphError::Parse { line, content } => {
                write!(f, "cannot parse edge list line {line}: {content:?}")
            }
            GraphError::TruncatedBinary { bytes } => {
                write!(f, "binary edge list truncated: {bytes} trailing bytes")
            }
            GraphError::InvalidPartitionCount { k } => {
                write!(f, "invalid partition count k={k}; need k >= 2")
            }
            GraphError::EmptyGraph => write!(f, "graph has no edges"),
            GraphError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range (num_vertices={num_vertices})")
            }
            GraphError::NotHighDegree { vertex } => {
                write!(f, "h2h edge endpoint {vertex} is not a high-degree vertex")
            }
            GraphError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            GraphError::BadHeader(msg) => write!(f, "bad edge file header: {msg}"),
            GraphError::ChecksumMismatch { section, expected, actual } => {
                write!(
                    f,
                    "{section} checksum mismatch: file records {expected:#018x}, \
                     computed {actual:#018x} (corrupt or tampered edge file)"
                )
            }
            GraphError::SegmentIndexOverflow { vertex, offset } => {
                write!(
                    f,
                    "pruned CSR segment of vertex {vertex} starts {offset} entries \
                     past its block base, beyond the u32 offset range"
                )
            }
            GraphError::BudgetExceeded { budget_bytes, required_bytes } => {
                write!(
                    f,
                    "memory budget {budget_bytes} bytes cannot be met: \
                     the smallest ingestion plan needs {required_bytes} bytes"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::Parse { line: 3, content: "a b".into() };
        assert!(e.to_string().contains("line 3"));
        let e = GraphError::InvalidPartitionCount { k: 1 };
        assert!(e.to_string().contains("k=1"));
    }

    #[test]
    fn io_error_round_trips_source() {
        use std::error::Error;
        let e: GraphError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.source().is_some());
    }
}
