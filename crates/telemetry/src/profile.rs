//! Per-op plan profiles: where planned-forward wall time actually goes.

use crate::JsonWriter;

/// Cumulative per-op-kind profile of the planned executor.
///
/// When profiling is switched on, the executor stamps the monotonic
/// clock around every op it runs and accumulates `(calls, ns)` here,
/// keyed by the op's stable kind label (`"body_conv"`,
/// `"float_conv"`, `"relu"`, …). When profiling is off — the default —
/// nothing is stamped and the profile stays empty: the hot loop pays
/// one branch.
///
/// Entries keep first-seen order (plan op order), so rendering is
/// deterministic. Profiles merge associatively across workers and
/// models via [`merge`](OpProfile::merge).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    entries: Vec<OpProfileEntry>,
}

/// One op kind's cumulative cost inside an [`OpProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfileEntry {
    /// Stable op-kind label (e.g. `"body_conv"`).
    pub kind: &'static str,
    /// Times an op of this kind ran.
    pub calls: u64,
    /// Total nanoseconds spent in ops of this kind.
    pub total_ns: u64,
}

impl OpProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Account one executed op of `kind` that took `ns` nanoseconds.
    pub fn record(&mut self, kind: &'static str, ns: u64) {
        match self.entries.iter_mut().find(|e| e.kind == kind) {
            Some(entry) => {
                entry.calls += 1;
                entry.total_ns += ns;
            }
            None => self.entries.push(OpProfileEntry { kind, calls: 1, total_ns: ns }),
        }
    }

    /// Fold another profile into this one (summing matching kinds,
    /// appending new ones).
    pub fn merge(&mut self, other: &OpProfile) {
        for e in &other.entries {
            match self.entries.iter_mut().find(|mine| mine.kind == e.kind) {
                Some(mine) => {
                    mine.calls += e.calls;
                    mine.total_ns += e.total_ns;
                }
                None => self.entries.push(e.clone()),
            }
        }
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The per-kind entries, in first-seen order.
    #[must_use]
    pub fn entries(&self) -> &[OpProfileEntry] {
        &self.entries
    }

    /// Total nanoseconds across all kinds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.entries.iter().map(|e| e.total_ns).sum()
    }

    /// Total calls across all kinds.
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.entries.iter().map(|e| e.calls).sum()
    }

    /// Forget everything recorded so far.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Render as a JSON array of `{"op":…,"calls":…,"total_ns":…}`
    /// objects, in entry order — the per-model payload of
    /// `GET /v1/debug/profile`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.array(|w| {
            for e in &self.entries {
                w.object(|w| {
                    w.key("op").string(e.kind).key("calls").int(e.calls).key("total_ns").int(e.total_ns);
                });
            }
        });
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_accumulates_per_kind() {
        let mut p = OpProfile::new();
        assert!(p.is_empty());
        p.record("body_conv", 100);
        p.record("relu", 5);
        p.record("body_conv", 50);
        assert_eq!(p.entries().len(), 2, "kinds coalesce");
        assert_eq!(p.entries()[0], OpProfileEntry { kind: "body_conv", calls: 2, total_ns: 150 });
        assert_eq!(p.total_ns(), 155);
        assert_eq!(p.total_calls(), 3);
        p.clear();
        assert!(p.is_empty());
    }

    #[test]
    fn merge_sums_matching_kinds_and_appends_new_ones() {
        let mut a = OpProfile::new();
        a.record("body_conv", 10);
        let mut b = OpProfile::new();
        b.record("body_conv", 5);
        b.record("pixel_shuffle", 7);
        a.merge(&b);
        assert_eq!(a.entries().len(), 2);
        assert_eq!(a.entries()[0].total_ns, 15);
        assert_eq!(a.entries()[1], OpProfileEntry { kind: "pixel_shuffle", calls: 1, total_ns: 7 });
        // Merging an empty profile is the identity.
        let before = a.clone();
        a.merge(&OpProfile::new());
        assert_eq!(a, before);
    }

    #[test]
    fn profiles_render_as_json() {
        let mut p = OpProfile::new();
        assert_eq!(p.to_json(), "[]");
        p.record("relu", 3);
        p.record("add", 4);
        assert_eq!(
            p.to_json(),
            "[{\"op\":\"relu\",\"calls\":1,\"total_ns\":3},{\"op\":\"add\",\"calls\":1,\"total_ns\":4}]"
        );
    }
}
