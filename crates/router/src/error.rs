//! The router's typed error surface.

use scales_runtime::SubmitError;

/// Everything that can go wrong routing, loading, or reloading a model.
///
/// The variants partition cleanly onto HTTP statuses for the network
/// edge: an unknown name is the caller's 404, a duplicate or
/// non-reloadable name is a 409, a failed load is the server's 500, and
/// submission errors map as the front end maps a runtime's
/// [`SubmitError`].
#[derive(Debug)]
pub enum RouterError {
    /// No model is registered under this name.
    UnknownModel {
        /// The name the caller asked for.
        name: String,
    },
    /// A model with this name is already registered; names are unique.
    DuplicateModel {
        /// The contested name.
        name: String,
    },
    /// The model name does not satisfy the router's naming rule
    /// (1–64 characters from `[A-Za-z0-9._-]`) — enforced at
    /// registration so names embed safely in URLs, metric labels, and
    /// JSON without escaping.
    InvalidName {
        /// The rejected name.
        name: String,
        /// Which rule it broke.
        reason: &'static str,
    },
    /// The model was registered in-memory (no artifact path), so there is
    /// no source to reload or re-admit it from; it is pinned resident.
    NotReloadable {
        /// The pinned model's name.
        name: String,
    },
    /// Reading, decoding, or spawning a runtime for an artifact failed.
    /// A failed load never disturbs the serving version of the model.
    Load {
        /// The model whose (re)load failed.
        name: String,
        /// The underlying failure, rendered.
        detail: String,
    },
    /// The per-model runtime refused or timed out the request.
    Submit(SubmitError),
    /// [`ModelRouter::shutdown`](crate::ModelRouter::shutdown) has begun:
    /// resident models drain, new work and new models are refused.
    ShuttingDown,
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::UnknownModel { name } => write!(f, "no model named {name:?}"),
            RouterError::DuplicateModel { name } => {
                write!(f, "a model named {name:?} is already registered")
            }
            RouterError::InvalidName { name, reason } => {
                write!(f, "invalid model name {name:?}: {reason}")
            }
            RouterError::NotReloadable { name } => {
                write!(f, "model {name:?} was registered in-memory and has no artifact path to reload from")
            }
            RouterError::Load { name, detail } => {
                write!(f, "loading model {name:?} failed: {detail}")
            }
            RouterError::Submit(e) => write!(f, "submitting to the model's runtime failed: {e}"),
            RouterError::ShuttingDown => f.write_str("router is shutting down"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::Submit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SubmitError> for RouterError {
    fn from(e: SubmitError) -> Self {
        RouterError::Submit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant renders a non-empty, variant-specific message (the
    /// `scales-io` error-surface discipline). Add a row when
    /// `RouterError` grows a variant.
    #[test]
    fn display_is_exhaustive_and_variant_specific() {
        let cases: Vec<(RouterError, &str)> = vec![
            (RouterError::UnknownModel { name: "edsr".into() }, "no model named \"edsr\""),
            (
                RouterError::DuplicateModel { name: "edsr".into() },
                "already registered",
            ),
            (
                RouterError::InvalidName { name: "a b".into(), reason: "spaces" },
                "invalid model name \"a b\": spaces",
            ),
            (
                RouterError::NotReloadable { name: "pinned".into() },
                "no artifact path",
            ),
            (
                RouterError::Load { name: "edsr".into(), detail: "bad magic".into() },
                "loading model \"edsr\" failed: bad magic",
            ),
            (
                RouterError::Submit(SubmitError::ShuttingDown),
                "runtime failed: runtime is shutting down",
            ),
            (RouterError::ShuttingDown, "router is shutting down"),
        ];
        assert_eq!(cases.len(), 7, "add a row when RouterError grows a variant");
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{err:?} renders {text:?}, wanted {needle:?}");
            let dyn_err: &dyn std::error::Error = &err;
            match err {
                RouterError::Submit(_) => assert!(dyn_err.source().is_some()),
                _ => assert!(dyn_err.source().is_none(), "{err:?} is a leaf error"),
            }
        }
    }
}
