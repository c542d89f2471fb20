//! The JSON string-escape format every stream and log in this workspace
//! writes, and its strict inverse.
//!
//! [`json_escape`] escapes `"`, `\` and the C0 controls: `\n`, `\r` and
//! `\t` by name, every other control as `\u00xx` (lowercase hex), and
//! copies everything else through. [`json_unescape`] accepts exactly that
//! output and nothing else, so a decoded string re-escapes to the very
//! bytes it was read from.

use std::borrow::Cow;
use std::convert::Infallible;
use std::io::{self, Write};

/// The escape of each C0 control character, indexed by its code.
const CONTROL: [&str; 0x20] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f", "\\u0010",
    "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
    "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// Feeds `emit` the escaped form of `s` as consecutive pieces: each run of
/// bytes that needs no escape is passed through as one slice. Every byte
/// that needs an escape is ASCII, so the runs split `s` on char
/// boundaries.
fn escape_pieces<E>(s: &str, mut emit: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            0..=0x1f => CONTROL[usize::from(b)],
            _ => continue,
        };
        if run < i {
            emit(&s[run..i])?;
        }
        emit(escaped)?;
        run = i + 1;
    }
    if run < s.len() {
        emit(&s[run..])?;
    }
    Ok(())
}

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let _ = escape_pieces::<Infallible>(s, |piece| {
        out.push_str(piece);
        Ok(())
    });
    out
}

/// Writes [`json_escape`]`(s)` to `out` without building the escaped
/// string first.
///
/// # Errors
///
/// Propagates the first write failure.
pub fn write_json_escaped<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    escape_pieces(s, |piece| out.write_all(piece.as_bytes()))
}

/// The code of a `\u00xx` escape as [`json_escape`] writes it: a C0
/// control in lowercase hex that has no short escape.
fn control_code(hex: &[u8]) -> Option<u8> {
    let [b'0', b'0', hi @ (b'0' | b'1'), lo] = *hex else {
        return None;
    };
    let lo = match lo {
        b'0'..=b'9' => lo - b'0',
        b'a'..=b'f' => lo - b'a' + 10,
        _ => return None,
    };
    let code = ((hi - b'0') << 4) | lo;
    (!matches!(code, b'\t' | b'\n' | b'\r')).then_some(code)
}

/// Decodes the body of a JSON string literal written by [`json_escape`],
/// in one pass.
///
/// `s` starts just after the opening quote. Returns the decoded string
/// and the text after the closing quote. A body without escapes is
/// borrowed; any other is decoded into `scratch` (cleared first, and
/// kept by the caller across calls) and copied out at its exact length.
/// Returns `None` unless the body is exactly what [`json_escape`]
/// writes: no raw control character, only the escapes `\"`, `\\`, `\n`,
/// `\r`, `\t` and `\u00xx` (lowercase, for the other controls), and a
/// closing quote.
pub fn json_unescape<'a>(s: &'a str, scratch: &mut String) -> Option<(Cow<'a, str>, &'a str)> {
    let bytes = s.as_bytes();
    scratch.clear();
    let mut escapes = false;
    let mut run = 0;
    let mut i = 0;
    loop {
        match *bytes.get(i)? {
            b'"' => break,
            b'\\' => {
                let (decoded, width) = match *bytes.get(i + 1)? {
                    quoted @ (b'"' | b'\\') => (quoted, 2),
                    b'n' => (b'\n', 2),
                    b'r' => (b'\r', 2),
                    b't' => (b'\t', 2),
                    b'u' => (control_code(bytes.get(i + 2..i + 6)?)?, 6),
                    _ => return None,
                };
                escapes = true;
                scratch.push_str(&s[run..i]);
                scratch.push(char::from(decoded));
                i += width;
                run = i;
            }
            0..=0x1f => return None,
            _ => i += 1,
        }
    }
    let rest = &s[i + 1..];
    if !escapes {
        return Some((Cow::Borrowed(&s[..i]), rest));
    }
    scratch.push_str(&s[run..i]);
    Some((Cow::Owned(scratch.as_str().to_owned()), rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_matches_the_string_form() {
        let s = "key \"q\"\t\\ \u{0}\u{8}é";
        let mut out = Vec::new();
        write_json_escaped(&mut out, s).unwrap();
        assert_eq!(out, json_escape(s).into_bytes());
    }

    #[test]
    fn unescape_inverts_escape_and_sizes_exactly() {
        let s = "a\"b\\c\nd\r\t\u{0}\u{1f}é€";
        let mut scratch = String::new();
        let text = format!("{}\",rest", json_escape(s));
        let (decoded, rest) = json_unescape(&text, &mut scratch).unwrap();
        assert_eq!((decoded.as_ref(), rest), (s, ",rest"));
        assert_eq!(decoded.into_owned().capacity(), s.len());
        let (plain, rest) = json_unescape("cell/0\"}", &mut scratch).unwrap();
        assert!(matches!(plain, Cow::Borrowed("cell/0")));
        assert_eq!(rest, "}");
    }

    #[test]
    fn unescape_rejects_what_escape_never_writes() {
        for body in [
            "no closing quote",
            "raw\ncontrol\"",
            "slash \\/\"",
            "backspace \\b\"",
            "upper \\u001F\"",
            "named control \\u000a\"",
            "not a control \\u0041\"",
            "truncated \\u00",
            "dangling \\",
        ] {
            assert_eq!(json_unescape(body, &mut String::new()), None, "{body:?}");
        }
    }
}
