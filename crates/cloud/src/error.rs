//! API error codes for the simulated cloud.

use std::fmt;

/// An error returned by a cloud API call, mirroring the AWS error-code
/// families the paper's operations have to handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// A referenced resource does not exist or has been deleted.
    NotFound {
        /// Resource kind, e.g. `ami`, `key-pair`.
        kind: &'static str,
        /// The id or name that failed to resolve.
        id: String,
    },
    /// A dependent service (e.g. the ELB) is unavailable.
    ServiceUnavailable {
        /// The unavailable service.
        service: String,
    },
    /// The request failed validation (bad argument, wrong state).
    Validation(String),
}

impl ApiError {
    /// Whether retrying the same call may succeed — the consistent-API layer
    /// only retries these.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ApiError::ServiceUnavailable { .. })
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::NotFound { kind, id } => {
                write!(f, "InvalidResource.NotFound: {kind} `{id}` does not exist")
            }
            ApiError::ServiceUnavailable { service } => {
                write!(f, "ServiceUnavailable: {service} is not responding")
            }
            ApiError::Validation(msg) => write!(f, "ValidationError: {msg}"),
        }
    }
}

impl std::error::Error for ApiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_classification() {
        assert!(ApiError::ServiceUnavailable {
            service: "elb".into()
        }
        .is_retryable());
        assert!(!ApiError::NotFound {
            kind: "ami",
            id: "ami-1".into()
        }
        .is_retryable());
        assert!(!ApiError::Validation("bad".into()).is_retryable());
    }

    #[test]
    fn display_includes_code_and_detail() {
        let e = ApiError::NotFound {
            kind: "key-pair",
            id: "prod-key".into(),
        };
        let s = e.to_string();
        assert!(s.contains("InvalidResource.NotFound") && s.contains("prod-key"));
    }
}
