//! The serve-layer error taxonomy.
//!
//! Every error a request can hit — malformed frames, unknown tenants,
//! and **every library error underneath** ([`PlannerError`],
//! [`ReviseError`], [`DemandError`], [`DiffError`], [`DeployError`],
//! journal corruption) — maps to a [`ServeError`] with a stable wire
//! [`ErrorCode`], so a failing request is answered with a typed error
//! frame instead of a dropped connection. The codes are part of the
//! wire contract and documented in `docs/WIRE_API.md`.

use adept_control::ControlError;
use adept_core::planner::{PlannerError, ReviseError};
use adept_godiet::DeployError;
use adept_hierarchy::DiffError;
use adept_workload::DemandError;
use std::fmt;

/// Stable machine-readable error codes carried in error frames.
///
/// `as_str` values are the wire contract; adding a code is
/// backward-compatible, renaming one is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not a valid protocol frame.
    BadFrame,
    /// The request line exceeded the daemon's frame cap; the daemon
    /// closes the connection after answering.
    FrameTooLarge,
    /// The frame's `method` is not part of the protocol.
    UnknownMethod,
    /// A required field is missing or has the wrong type/value.
    BadRequest,
    /// The named platform is not in the daemon's catalog.
    UnknownPlatform,
    /// The named tenant has no live session.
    UnknownTenant,
    /// A session (live or journaled) already claims this tenant id.
    TenantExists,
    /// The demand vector was rejected ([`DemandError`]).
    BadDemand,
    /// Initial planning failed ([`PlannerError`]).
    Planner,
    /// A revision round failed ([`ReviseError`]).
    Revise,
    /// A plan diff does not apply to the running plan ([`DiffError`]).
    Diff,
    /// Compiling or executing a migration failed ([`DeployError`]).
    Deploy,
    /// A journal record is corrupt, truncated, or inconsistent.
    JournalCorrupt,
    /// A journal disagrees with the daemon's catalog (fingerprint,
    /// tenant name) or an already-claimed journal file.
    JournalMismatch,
    /// An I/O failure (socket, journal file).
    Io,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::UnknownMethod => "unknown-method",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownPlatform => "unknown-platform",
            ErrorCode::UnknownTenant => "unknown-tenant",
            ErrorCode::TenantExists => "tenant-exists",
            ErrorCode::BadDemand => "bad-demand",
            ErrorCode::Planner => "planner",
            ErrorCode::Revise => "revise",
            ErrorCode::Diff => "diff",
            ErrorCode::Deploy => "deploy",
            ErrorCode::JournalCorrupt => "journal-corrupt",
            ErrorCode::JournalMismatch => "journal-mismatch",
            ErrorCode::Io => "io",
        }
    }

    /// Parses a wire code back into the enum (`None` for codes this
    /// build does not know — a newer daemon, typically).
    pub fn from_wire(code: &str) -> Option<ErrorCode> {
        [
            ErrorCode::BadFrame,
            ErrorCode::FrameTooLarge,
            ErrorCode::UnknownMethod,
            ErrorCode::BadRequest,
            ErrorCode::UnknownPlatform,
            ErrorCode::UnknownTenant,
            ErrorCode::TenantExists,
            ErrorCode::BadDemand,
            ErrorCode::Planner,
            ErrorCode::Revise,
            ErrorCode::Diff,
            ErrorCode::Deploy,
            ErrorCode::JournalCorrupt,
            ErrorCode::JournalMismatch,
            ErrorCode::Io,
        ]
        .into_iter()
        .find(|c| c.as_str() == code)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Why a journal could not be written, read, or replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// The journal holds no records at all — nothing to resume.
    Empty {
        /// The offending file.
        path: String,
    },
    /// The last record is not valid JSON: the writer crashed
    /// mid-append. Lenient replay drops it (losing at most that one
    /// unacknowledged tick); strict reads surface this error.
    TruncatedTail {
        /// 1-based line number of the partial record.
        line: usize,
    },
    /// A record **before** the tail is unreadable — real corruption,
    /// never produced by a crash of the append-only writer.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What failed to parse.
        detail: String,
    },
    /// The first record is not a `register` record.
    NotRegistered,
    /// The register record's tenant differs from the journal file name.
    TenantMismatch {
        /// Tenant the file name claims.
        file: String,
        /// Tenant the register record claims.
        record: String,
    },
    /// The register record's platform fingerprint does not match the
    /// platform the daemon catalog has under that name.
    FingerprintMismatch {
        /// Platform name in the register record.
        platform: String,
        /// Fingerprint in the journal (hex).
        journaled: String,
        /// Fingerprint of the catalog platform (hex).
        catalog: String,
    },
    /// A journal file for this tenant already exists; a second session
    /// may not claim the same tenant id.
    AlreadyClaimed {
        /// The contested tenant id.
        tenant: String,
    },
    /// Deterministic replay did not reproduce the journaled migration
    /// history — the journal and the code disagree about the past.
    ReplayDivergence {
        /// The tenant being resumed.
        tenant: String,
        /// What diverged.
        detail: String,
    },
    /// Reading or writing the journal file failed.
    Io(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Empty { path } => write!(f, "journal {path} is empty"),
            JournalError::TruncatedTail { line } => {
                write!(f, "journal record {line} is truncated (crash mid-write)")
            }
            JournalError::Corrupt { line, detail } => {
                write!(f, "journal record {line} is corrupt: {detail}")
            }
            JournalError::NotRegistered => {
                write!(f, "journal does not start with a register record")
            }
            JournalError::TenantMismatch { file, record } => write!(
                f,
                "journal file is named for tenant {file:?} but registers {record:?}"
            ),
            JournalError::FingerprintMismatch {
                platform,
                journaled,
                catalog,
            } => write!(
                f,
                "platform {platform:?} changed shape: journal fingerprint {journaled}, \
                 catalog fingerprint {catalog}"
            ),
            JournalError::AlreadyClaimed { tenant } => {
                write!(f, "tenant {tenant:?} is already claimed by a journal")
            }
            JournalError::ReplayDivergence { tenant, detail } => {
                write!(
                    f,
                    "replaying tenant {tenant:?} diverged from its journal: {detail}"
                )
            }
            JournalError::Io(e) => write!(f, "journal I/O failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Every way a serve-layer request can fail. Each variant carries the
/// library error it wraps (or the protocol-level detail) and maps to
/// one wire [`ErrorCode`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request line is not a valid frame (bad JSON, missing
    /// `method`, non-object params).
    BadFrame(String),
    /// The request line is longer than the cap (in bytes) before its
    /// newline.
    FrameTooLarge(usize),
    /// The method is not part of the protocol.
    UnknownMethod(String),
    /// A field is missing, mistyped, or out of range.
    BadRequest(String),
    /// No platform under this name in the daemon catalog.
    UnknownPlatform(String),
    /// No live session for this tenant.
    UnknownTenant(String),
    /// A live session already holds this tenant id.
    TenantExists(String),
    /// The demand vector was rejected at validation.
    Demand(DemandError),
    /// Initial planning failed.
    Planner(PlannerError),
    /// A revision round failed.
    Revise(ReviseError),
    /// A plan diff failed to apply to the running plan.
    Diff(DiffError),
    /// Compiling or executing a migration failed.
    Deploy(DeployError),
    /// The journal layer failed.
    Journal(JournalError),
    /// Socket or file I/O failed.
    Io(String),
}

impl ServeError {
    /// The wire code this error answers with.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeError::BadFrame(_) => ErrorCode::BadFrame,
            ServeError::FrameTooLarge(_) => ErrorCode::FrameTooLarge,
            ServeError::UnknownMethod(_) => ErrorCode::UnknownMethod,
            ServeError::BadRequest(_) => ErrorCode::BadRequest,
            ServeError::UnknownPlatform(_) => ErrorCode::UnknownPlatform,
            ServeError::UnknownTenant(_) => ErrorCode::UnknownTenant,
            ServeError::TenantExists(_) => ErrorCode::TenantExists,
            ServeError::Demand(_) => ErrorCode::BadDemand,
            ServeError::Planner(_) => ErrorCode::Planner,
            ServeError::Revise(_) => ErrorCode::Revise,
            ServeError::Diff(_) => ErrorCode::Diff,
            ServeError::Deploy(_) => ErrorCode::Deploy,
            ServeError::Journal(e) => match e {
                JournalError::TenantMismatch { .. }
                | JournalError::FingerprintMismatch { .. }
                | JournalError::AlreadyClaimed { .. } => ErrorCode::JournalMismatch,
                JournalError::Io(_) => ErrorCode::Io,
                _ => ErrorCode::JournalCorrupt,
            },
            ServeError::Io(_) => ErrorCode::Io,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadFrame(msg) => write!(f, "bad frame: {msg}"),
            ServeError::FrameTooLarge(cap) => {
                write!(
                    f,
                    "request frame exceeds {cap} bytes; closing the connection"
                )
            }
            ServeError::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::UnknownPlatform(p) => write!(f, "unknown platform {p:?}"),
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServeError::TenantExists(t) => write!(f, "tenant {t:?} already registered"),
            ServeError::Demand(e) => write!(f, "{e}"),
            ServeError::Planner(e) => write!(f, "{e}"),
            ServeError::Revise(e) => write!(f, "{e}"),
            ServeError::Diff(e) => write!(f, "{e}"),
            ServeError::Deploy(e) => write!(f, "{e}"),
            ServeError::Journal(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "i/o failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DemandError> for ServeError {
    fn from(e: DemandError) -> Self {
        ServeError::Demand(e)
    }
}

impl From<PlannerError> for ServeError {
    fn from(e: PlannerError) -> Self {
        ServeError::Planner(e)
    }
}

impl From<ReviseError> for ServeError {
    fn from(e: ReviseError) -> Self {
        ServeError::Revise(e)
    }
}

impl From<DiffError> for ServeError {
    fn from(e: DiffError) -> Self {
        ServeError::Diff(e)
    }
}

impl From<DeployError> for ServeError {
    fn from(e: DeployError) -> Self {
        ServeError::Deploy(e)
    }
}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> Self {
        ServeError::Journal(e)
    }
}

impl From<ControlError> for ServeError {
    fn from(e: ControlError) -> Self {
        // The controller's two failure classes unwrap to the library
        // errors they carry, so the wire code names the real culprit.
        match e {
            ControlError::Revise(e) => ServeError::Revise(e),
            ControlError::Deploy(e) => ServeError::Deploy(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_code_roundtrips_through_its_wire_spelling() {
        let codes = [
            ErrorCode::BadFrame,
            ErrorCode::FrameTooLarge,
            ErrorCode::UnknownMethod,
            ErrorCode::BadRequest,
            ErrorCode::UnknownPlatform,
            ErrorCode::UnknownTenant,
            ErrorCode::TenantExists,
            ErrorCode::BadDemand,
            ErrorCode::Planner,
            ErrorCode::Revise,
            ErrorCode::Diff,
            ErrorCode::Deploy,
            ErrorCode::JournalCorrupt,
            ErrorCode::JournalMismatch,
            ErrorCode::Io,
        ];
        for code in codes {
            assert_eq!(ErrorCode::from_wire(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_wire("not-a-code"), None);
    }

    #[test]
    fn library_errors_map_to_their_codes() {
        assert_eq!(
            ServeError::from(DemandError::Empty).code(),
            ErrorCode::BadDemand
        );
        assert_eq!(
            ServeError::from(PlannerError::InvalidConfig("x".into())).code(),
            ErrorCode::Planner
        );
        assert_eq!(
            ServeError::from(JournalError::TruncatedTail { line: 3 }).code(),
            ErrorCode::JournalCorrupt
        );
        assert_eq!(
            ServeError::from(JournalError::AlreadyClaimed { tenant: "t".into() }).code(),
            ErrorCode::JournalMismatch
        );
    }
}
