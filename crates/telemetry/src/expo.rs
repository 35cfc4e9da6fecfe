//! The Prometheus text exposition format (version 0.0.4), written in
//! one place: every `/metrics` family of the serving stack goes through
//! [`Exposition`], so header layout, label syntax and escaping are
//! properties of this writer and not of its callers.

use std::fmt::{Display, Write as _};

/// The `# TYPE` of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Monotonic count (by convention the family name ends in `_total`).
    Counter,
    /// A reading that can go down.
    Gauge,
    /// Cumulative `_bucket{le=…}` series with `_sum` and `_count`.
    Histogram,
}

/// A `/metrics` document under construction: open a family with
/// [`family`](Self::family) — one `# HELP` / `# TYPE` header — then write
/// its samples with [`sample`](Self::sample) or
/// [`histogram`](Self::histogram). Label **values** and help text may be
/// arbitrary UTF-8 and are escaped here (`\\`, `\"` and `\n` in a label
/// value; `\\` and `\n` in help). Family names and label **keys** have no
/// escape in the format, so callers pass literals from
/// `[a-zA-Z_][a-zA-Z0-9_]*`; sample values are numbers.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    /// Name of the family the next sample belongs to.
    family: String,
}

impl Exposition {
    /// Open the family `name`: its `# HELP` and `# TYPE` lines. Every
    /// sample written until the next call belongs to it.
    pub fn family(&mut self, name: &str, help: &str, kind: FamilyKind) {
        let kind = match kind {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
        };
        let _ = write!(self.out, "# HELP {name} ");
        escape_into(&mut self.out, help, false);
        let _ = writeln!(self.out, "\n# TYPE {name} {kind}");
        self.family = name.to_string();
    }

    /// One sample of the open family: `name{key="value",…} value` (bare
    /// `name value` when `labels` is empty).
    pub fn sample(&mut self, labels: &[(&str, &str)], value: impl Display) {
        self.line("", labels, None, value);
    }

    /// One labelled series of the open histogram family: a `_bucket`
    /// line per `(upper bound, cumulative count)` pair with the bound as
    /// the trailing `le` label, the closing `le="+Inf"` bucket, then
    /// `_sum` and `_count`.
    pub fn histogram(
        &mut self,
        labels: &[(&str, &str)],
        buckets: impl IntoIterator<Item = (f64, u64)>,
        sum: f64,
        count: u64,
    ) {
        for (bound, cumulative) in buckets {
            self.line("_bucket", labels, Some(&bound.to_string()), cumulative);
        }
        self.line("_bucket", labels, Some("+Inf"), count);
        self.line("_sum", labels, None, sum);
        self.line("_count", labels, None, count);
    }

    /// The finished document.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    fn line(&mut self, suffix: &str, labels: &[(&str, &str)], le: Option<&str>, value: impl Display) {
        self.out.push_str(&self.family);
        self.out.push_str(suffix);
        let mut separator = '{';
        for (key, label) in labels.iter().copied().chain(le.map(|bound| ("le", bound))) {
            let _ = write!(self.out, "{separator}{key}=\"");
            escape_into(&mut self.out, label, true);
            self.out.push('"');
            separator = ',';
        }
        if separator == ',' {
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }
}

/// The format's two escapes (backslash, line feed), plus the double
/// quote inside a label value.
fn escape_into(out: &mut String, text: &str, quoted: bool) {
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' if quoted => out.push_str("\\\""),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_lay_out_one_header_then_their_samples() {
        let mut expo = Exposition::default();
        expo.family("t_requests_total", "Requests.", FamilyKind::Counter);
        expo.sample(&[], 7u64);
        expo.family("t_fill", "Fill.", FamilyKind::Gauge);
        expo.sample(&[("model", "a"), ("state", "serving")], 0.75);
        expo.family("t_seconds", "Spans.", FamilyKind::Histogram);
        expo.histogram(&[("stage", "infer")], [(0.001, 1), (0.002, 3)], 0.004, 3);
        expo.histogram(&[], [(0.001, 0)], 0.0, 0);
        assert_eq!(
            expo.finish(),
            "# HELP t_requests_total Requests.\n\
             # TYPE t_requests_total counter\n\
             t_requests_total 7\n\
             # HELP t_fill Fill.\n\
             # TYPE t_fill gauge\n\
             t_fill{model=\"a\",state=\"serving\"} 0.75\n\
             # HELP t_seconds Spans.\n\
             # TYPE t_seconds histogram\n\
             t_seconds_bucket{stage=\"infer\",le=\"0.001\"} 1\n\
             t_seconds_bucket{stage=\"infer\",le=\"0.002\"} 3\n\
             t_seconds_bucket{stage=\"infer\",le=\"+Inf\"} 3\n\
             t_seconds_sum{stage=\"infer\"} 0.004\n\
             t_seconds_count{stage=\"infer\"} 3\n\
             t_seconds_bucket{le=\"0.001\"} 0\n\
             t_seconds_bucket{le=\"+Inf\"} 0\n\
             t_seconds_sum 0\n\
             t_seconds_count 0\n"
        );
    }

    /// The inverse of `escape_into`, strict: any other backslash pair,
    /// or a raw quote inside a label value, is malformed.
    fn unescape(text: &str, quoted: bool) -> Option<String> {
        let mut out = String::new();
        let mut chars = text.chars();
        while let Some(c) = chars.next() {
            out.push(match (c, quoted) {
                ('\\', _) => match (chars.next()?, quoted) {
                    ('\\', _) => '\\',
                    ('n', _) => '\n',
                    ('"', true) => '"',
                    _ => return None,
                },
                ('"', true) => return None,
                (c, _) => c,
            });
        }
        Some(out)
    }

    #[test]
    fn hostile_label_values_and_help_stay_on_their_line() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        for hostile in [
            "quote\" backslash\\ both\\\"",
            "x\"} 1\nscales_injected_total 42\n# \"",
            controls.as_str(),
            "multi-byte é 超解像 🦀",
            "",
        ] {
            let mut expo = Exposition::default();
            expo.family("t_info", hostile, FamilyKind::Gauge);
            expo.sample(&[("name", hostile), ("other", "plain")], 1);
            let text = expo.finish();
            let lines: Vec<&str> = text.split('\n').collect();
            assert_eq!(lines.len(), 4, "HELP, TYPE, one sample, the closing line feed: {text:?}");
            let help = lines[0].strip_prefix("# HELP t_info ").unwrap();
            assert_eq!(unescape(help, false).as_deref(), Some(hostile));
            assert_eq!(lines[1], "# TYPE t_info gauge");
            let value = lines[2]
                .strip_prefix("t_info{name=\"")
                .and_then(|rest| rest.strip_suffix("\",other=\"plain\"} 1"))
                .unwrap_or_else(|| panic!("sample line broke apart: {:?}", lines[2]));
            assert_eq!(unescape(value, true).as_deref(), Some(hostile));
        }
    }
}
