//! XRL error types.

use std::fmt;

/// Errors arising from composing, resolving, transporting or dispatching
/// XRLs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XrlError {
    /// The textual XRL failed to parse.
    Parse(String),
    /// An argument had the wrong type or was missing.
    BadArgs(String),
    /// The Finder knows no such component class or instance.
    ResolveFailed(String),
    /// The Finder's access-control policy denied resolution (§7).
    AccessDenied(String),
    /// The target resolved but no such interface/method is registered.
    NoSuchMethod(String),
    /// The receiver rejected the call because the 16-byte method key did
    /// not match its registration — a caller tried to bypass the Finder.
    BadMethodKey,
    /// The transport failed (connection refused, reset, ...).
    Transport(String),
    /// The command ran but reported an application-level failure.
    CommandFailed(String),
    /// Binary frame was malformed.
    BadFrame(String),
    /// The target process went away before replying.
    TargetDied,
    /// The request exhausted its retry budget without a response.
    Timeout,
    /// The sending router shed this frame: the destination lane was at its
    /// hard queue cap (see `QueuePolicy`).  Backpressure, not transport
    /// failure — the caller should slow down, not retry immediately.
    Overloaded,
}

impl fmt::Display for XrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XrlError::Parse(s) => write!(f, "XRL parse error: {s}"),
            XrlError::BadArgs(s) => write!(f, "bad XRL arguments: {s}"),
            XrlError::ResolveFailed(s) => write!(f, "resolve failed: {s}"),
            XrlError::AccessDenied(s) => write!(f, "access denied: {s}"),
            XrlError::NoSuchMethod(s) => write!(f, "no such method: {s}"),
            XrlError::BadMethodKey => write!(f, "method key mismatch (Finder bypassed?)"),
            XrlError::Transport(s) => write!(f, "transport error: {s}"),
            XrlError::CommandFailed(s) => write!(f, "command failed: {s}"),
            XrlError::BadFrame(s) => write!(f, "bad frame: {s}"),
            XrlError::TargetDied => write!(f, "target died"),
            XrlError::Timeout => write!(f, "request timed out"),
            XrlError::Overloaded => write!(f, "lane overloaded; frame shed"),
        }
    }
}

impl std::error::Error for XrlError {}

/// Wire code for each error variant (frame encoding).
impl XrlError {
    pub(crate) fn code(&self) -> u8 {
        match self {
            XrlError::Parse(_) => 1,
            XrlError::BadArgs(_) => 2,
            XrlError::ResolveFailed(_) => 3,
            XrlError::AccessDenied(_) => 4,
            XrlError::NoSuchMethod(_) => 5,
            XrlError::BadMethodKey => 6,
            XrlError::Transport(_) => 7,
            XrlError::CommandFailed(_) => 8,
            XrlError::BadFrame(_) => 9,
            XrlError::TargetDied => 10,
            XrlError::Timeout => 11,
            XrlError::Overloaded => 12,
        }
    }

    /// The text the variant carries, which is what the wire holds:
    /// [`XrlError::from_code`] wraps it back into the variant, so a
    /// decoded error equals the one sent.  A unit variant carries none.
    pub(crate) fn payload(&self) -> &str {
        match self {
            XrlError::Parse(s)
            | XrlError::BadArgs(s)
            | XrlError::ResolveFailed(s)
            | XrlError::AccessDenied(s)
            | XrlError::NoSuchMethod(s)
            | XrlError::Transport(s)
            | XrlError::CommandFailed(s)
            | XrlError::BadFrame(s) => s,
            XrlError::BadMethodKey
            | XrlError::TargetDied
            | XrlError::Timeout
            | XrlError::Overloaded => "",
        }
    }

    pub(crate) fn from_code(code: u8, msg: String) -> XrlError {
        match code {
            1 => XrlError::Parse(msg),
            2 => XrlError::BadArgs(msg),
            3 => XrlError::ResolveFailed(msg),
            4 => XrlError::AccessDenied(msg),
            5 => XrlError::NoSuchMethod(msg),
            6 => XrlError::BadMethodKey,
            7 => XrlError::Transport(msg),
            8 => XrlError::CommandFailed(msg),
            10 => XrlError::TargetDied,
            11 => XrlError::Timeout,
            12 => XrlError::Overloaded,
            _ => XrlError::BadFrame(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        let errors = vec![
            XrlError::Parse("p".into()),
            XrlError::BadArgs("a".into()),
            XrlError::ResolveFailed("r".into()),
            XrlError::AccessDenied("d".into()),
            XrlError::NoSuchMethod("m".into()),
            XrlError::BadMethodKey,
            XrlError::Transport("t".into()),
            XrlError::CommandFailed("c".into()),
            XrlError::TargetDied,
            XrlError::Timeout,
            XrlError::Overloaded,
        ];
        for e in errors {
            let msg = match &e {
                XrlError::Parse(s)
                | XrlError::BadArgs(s)
                | XrlError::ResolveFailed(s)
                | XrlError::AccessDenied(s)
                | XrlError::NoSuchMethod(s)
                | XrlError::Transport(s)
                | XrlError::CommandFailed(s) => s.clone(),
                _ => String::new(),
            };
            assert_eq!(XrlError::from_code(e.code(), msg), e);
        }
    }

    #[test]
    fn display_is_informative() {
        assert!(XrlError::BadMethodKey.to_string().contains("key"));
        assert!(XrlError::ResolveFailed("bgp".into())
            .to_string()
            .contains("bgp"));
    }
}
