//! The run-copying JSON writers against a char-by-char oracle.
//!
//! `hcperf_harness::json_escape` and the vendored `serde_json` string and
//! number writers copy unescaped runs and format numbers straight into
//! their output. The oracles below are the straightforward char-by-char
//! escaper and `format!`-based number rendering those writers replaced;
//! every stream digest and store log depends on the text staying
//! identical to theirs.

use std::borrow::Cow;

use hcperf_harness::{json_escape, json_unescape, write_json_escaped};
use proptest::prelude::*;

fn oracle_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn oracle_number(n: f64) -> String {
    if !n.is_finite() {
        "null".to_owned()
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Every C0 control, the two escaped printables, their look-alikes, DEL
/// and non-ASCII of every UTF-8 width.
fn palette() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend(['"', '\\', '/', '\'', 'u', '0', 'a', ' ', '\u{7f}']);
    chars.extend(['é', '\u{80}', '€', '\u{2028}', '\u{fffd}', '𝄞']);
    chars
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn escapers_match_the_oracle_and_decode_back(
        picks in proptest::collection::vec(0usize..1024, 0..40),
    ) {
        let palette = palette();
        let s: String = picks.iter().map(|&i| palette[i % palette.len()]).collect();
        let expected = oracle_escape(&s);

        prop_assert_eq!(json_escape(&s), expected.clone());
        let mut written = Vec::new();
        write_json_escaped(&mut written, &s).unwrap();
        prop_assert_eq!(String::from_utf8(written).unwrap(), expected.clone());
        prop_assert_eq!(serde_json::to_string(&s).unwrap(), format!("\"{expected}\""));

        let literal = format!("{expected}\",tail");
        let (decoded, rest) = json_unescape(&literal, &mut String::new()).unwrap();
        prop_assert_eq!(decoded.as_ref(), s.as_str());
        prop_assert_eq!(rest, ",tail");
        if let Cow::Owned(owned) = decoded {
            prop_assert_eq!(owned.capacity(), s.len());
        }
    }

    #[test]
    fn numbers_render_like_the_oracle(
        bits in any::<u64>(),
        offset in -4096i64..4096,
        scale in -30i32..30,
    ) {
        let near_cutoff = 9.0e15 + offset as f64;
        let scaled = (offset as f64 + 0.5) * 10f64.powi(scale);
        for n in [f64::from_bits(bits), near_cutoff, -near_cutoff, scaled, offset as f64] {
            prop_assert_eq!(serde_json::to_string(&n).unwrap(), oracle_number(n));
        }
    }
}

#[test]
fn number_edges_render_like_the_oracle() {
    for n in [
        0.0,
        -0.0,
        8_999_999_999_999_999.0,
        9.0e15 - 1.0,
        9.0e15,
        9.0e15 + 1.0,
        -9.0e15 + 1.0,
        -9.0e15,
        1e21,
        1e-7,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        assert_eq!(serde_json::to_string(&n).unwrap(), oracle_number(n), "{n}");
    }
}
