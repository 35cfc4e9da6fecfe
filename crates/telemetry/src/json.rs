//! JSON, written in one place: every document the serving stack answers
//! with (`/v1/debug/*`, `/v1/models`, the reload reply) goes through
//! [`JsonWriter`], so punctuation and string escaping are properties of
//! this writer and not of its callers.

use std::fmt::Write as _;

/// A JSON value under construction, written compactly (no whitespace) in
/// call order: `w.object(|w| { w.key("name").string("a\"b"); })` finishes
/// as `{"name":"a\"b"}`. Commas and brackets are the writer's business;
/// giving every [`key`](Self::key) exactly one value is the caller's.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value needs a `,` in front of it.
    comma: bool,
}

impl JsonWriter {
    /// An object: `{`, the keys and values `fields` writes, `}`.
    pub fn object(&mut self, fields: impl FnOnce(&mut Self)) -> &mut Self {
        self.nested('{', '}', fields)
    }

    /// An array: `[`, the values `items` writes, `]`.
    pub fn array(&mut self, items: impl FnOnce(&mut Self)) -> &mut Self {
        self.nested('[', ']', items)
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.string(key).out.push(':');
        self.comma = false;
        self
    }

    /// A string value, quoted and escaped: `\"`, `\\`, and `\u00XX` for
    /// every control character below 0x20.
    pub fn string(&mut self, value: &str) -> &mut Self {
        self.value().push('"');
        for c in value.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }

    /// A string value, or `null`.
    pub fn string_or_null(&mut self, value: Option<&str>) -> &mut Self {
        match value {
            Some(value) => self.string(value),
            None => self.null(),
        }
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// An integer value.
    pub fn int(&mut self, value: impl Into<i128>) -> &mut Self {
        let _ = write!(self.value(), "{}", value.into());
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.raw(if value { "true" } else { "false" })
    }

    /// A value that is already JSON (a document another [`JsonWriter`]
    /// finished), spliced in verbatim.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.value().push_str(json);
        self
    }

    /// The finished document.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    /// Where the next value goes: behind a `,` unless it is the first of
    /// its object or array, or follows its key.
    fn value(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    fn nested(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.value().push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commas_follow_the_nesting() {
        let mut w = JsonWriter::default();
        w.object(|w| {
            w.key("empty").array(|_| {});
            w.key("nested").array(|w| {
                w.object(|_| {});
                w.object(|w| {
                    w.key("a").int(1u8).key("b").bool(false);
                });
                w.raw("[2,3]").null().string_or_null(None).string_or_null(Some("s"));
            });
            w.key("last").int(i64::MIN);
        });
        assert_eq!(
            w.finish(),
            r#"{"empty":[],"nested":[{},{"a":1,"b":false},[2,3],null,null,"s"],"last":-9223372036854775808}"#
        );
    }

    #[test]
    fn strings_and_keys_escape_hostile_content() {
        let mut w = JsonWriter::default();
        w.object(|w| {
            w.key("k\"\\").string("quote\" backslash\\ é 超解像 🦀");
        });
        assert_eq!(w.finish(), r#"{"k\"\\":"quote\" backslash\\ é 超解像 🦀"}"#);
        // Every control character below 0x20 leaves as a \u00XX escape:
        // nothing raw survives that could end the line or the string.
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let mut w = JsonWriter::default();
            w.string(&format!("a{c}b"));
            assert_eq!(w.finish(), format!("\"a\\u{code:04x}b\""));
        }
    }
}
