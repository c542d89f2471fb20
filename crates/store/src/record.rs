//! One log line: the five op shapes the store writes, and the strict
//! reader that replays exactly those shapes.
//!
//! The grammar is the writer's output, byte for byte: fixed key order,
//! no whitespace, strings in [`hcperf_harness::json_escape`]'s format,
//! `wall_ms` in Rust's shortest round-trip `f64` rendering, integers in
//! plain decimal, and `attempts` present only when it exceeds 1. Any
//! other line, valid JSON or not, does not parse, and replay treats it
//! as the start of a corrupt tail.

use std::borrow::Cow;
use std::io::{self, Write};

use hcperf_harness::{json_unescape, write_json_escaped};

const PENDING: &str = r#"{"op":"pending","cell":""#;
const RUNNING: &str = r#"{"op":"running","cell":""#;
const DONE: &str = r#"{"op":"done","cell":""#;
const FAILED: &str = r#"{"op":"failed","cell":""#;
const RUN: &str = r#"{"op":"run","fingerprint":""#;
const KEY: &str = r#","key":""#;
const WALL_MS: &str = r#","wall_ms":"#;
const PAYLOAD: &str = r#","payload":""#;
const ERROR: &str = r#","error":""#;
const HITS: &str = r#","hits":"#;
const MISSES: &str = r#","misses":"#;
const ATTEMPTS: &str = r#","attempts":"#;

/// One store log record. Strings are borrowed from the line they were
/// read from unless they held an escape.
#[derive(Debug, PartialEq)]
pub(crate) enum Record<'a> {
    /// `{"op":"pending","cell":…,"key":…}`
    Pending {
        /// Cell id.
        cell: Cow<'a, str>,
        /// Stable job key.
        key: Cow<'a, str>,
    },
    /// `{"op":"running","cell":…}`
    Running {
        /// Cell id.
        cell: Cow<'a, str>,
    },
    /// `{"op":"done","cell":…,"wall_ms":…,"payload":…[,"attempts":…]}`
    Done {
        /// Cell id.
        cell: Cow<'a, str>,
        /// Wall-clock milliseconds of the producing job.
        wall_ms: f64,
        /// The producer's exact payload bytes.
        payload: Cow<'a, str>,
        /// Attempts the job took (1 = first try).
        attempts: u32,
    },
    /// `{"op":"failed","cell":…,"error":…[,"attempts":…]}`
    Failed {
        /// Cell id.
        cell: Cow<'a, str>,
        /// The failure message.
        error: Cow<'a, str>,
        /// Attempts the job made.
        attempts: u32,
    },
    /// `{"op":"run","fingerprint":…,"hits":…,"misses":…}`
    Run {
        /// The run's cell fingerprint.
        fingerprint: Cow<'a, str>,
        /// Cells served from the store.
        hits: usize,
        /// Cells that had to run.
        misses: usize,
    },
}

impl<'a> Record<'a> {
    /// Writes the record and its newline to `w`, escaping strings on the
    /// way.
    pub(crate) fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            Record::Pending { cell, key } => {
                w.write_all(PENDING.as_bytes())?;
                write_str(w, cell)?;
                w.write_all(KEY.as_bytes())?;
                write_str(w, key)?;
            }
            Record::Running { cell } => {
                w.write_all(RUNNING.as_bytes())?;
                write_str(w, cell)?;
            }
            Record::Done {
                cell,
                wall_ms,
                payload,
                attempts,
            } => {
                w.write_all(DONE.as_bytes())?;
                write_str(w, cell)?;
                write!(w, "{WALL_MS}{wall_ms}{PAYLOAD}")?;
                write_str(w, payload)?;
                write_attempts(w, *attempts)?;
            }
            Record::Failed {
                cell,
                error,
                attempts,
            } => {
                w.write_all(FAILED.as_bytes())?;
                write_str(w, cell)?;
                w.write_all(ERROR.as_bytes())?;
                write_str(w, error)?;
                write_attempts(w, *attempts)?;
            }
            Record::Run {
                fingerprint,
                hits,
                misses,
            } => {
                w.write_all(RUN.as_bytes())?;
                write_str(w, fingerprint)?;
                write!(w, "{HITS}{hits}{MISSES}{misses}")?;
            }
        }
        w.write_all(b"}\n")
    }

    /// Reads one line (without its newline); `None` unless the line is
    /// exactly what [`Record::write_to`] writes for some record.
    /// `scratch` is decoding space for escaped strings, reused across
    /// lines.
    pub(crate) fn parse(line: &'a str, scratch: &mut String) -> Option<Record<'a>> {
        let (record, rest) = if let Some(rest) = line.strip_prefix(PENDING) {
            let (cell, rest) = json_unescape(rest, scratch)?;
            let (key, rest) = json_unescape(rest.strip_prefix(KEY)?, scratch)?;
            (Record::Pending { cell, key }, rest)
        } else if let Some(rest) = line.strip_prefix(RUNNING) {
            let (cell, rest) = json_unescape(rest, scratch)?;
            (Record::Running { cell }, rest)
        } else if let Some(rest) = line.strip_prefix(DONE) {
            let (cell, rest) = json_unescape(rest, scratch)?;
            let (wall_ms, rest) = decimal(rest.strip_prefix(WALL_MS)?)?;
            let (payload, rest) = json_unescape(rest.strip_prefix(PAYLOAD)?, scratch)?;
            let (attempts, rest) = attempts(rest)?;
            let done = Record::Done {
                cell,
                wall_ms,
                payload,
                attempts,
            };
            (done, rest)
        } else if let Some(rest) = line.strip_prefix(FAILED) {
            let (cell, rest) = json_unescape(rest, scratch)?;
            let (error, rest) = json_unescape(rest.strip_prefix(ERROR)?, scratch)?;
            let (attempts, rest) = attempts(rest)?;
            let failed = Record::Failed {
                cell,
                error,
                attempts,
            };
            (failed, rest)
        } else {
            let (fingerprint, rest) = json_unescape(line.strip_prefix(RUN)?, scratch)?;
            let (hits, rest) = natural(rest.strip_prefix(HITS)?)?;
            let (misses, rest) = natural(rest.strip_prefix(MISSES)?)?;
            let run = Record::Run {
                fingerprint,
                hits,
                misses,
            };
            (run, rest)
        };
        (rest == "}").then_some(record)
    }
}

/// A string's escaped body and closing quote; the opening quote ends the
/// key before it.
fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_json_escaped(w, s)?;
    w.write_all(b"\"")
}

/// The optional `attempts` field, written only for retried jobs.
fn write_attempts<W: Write>(w: &mut W, attempts: u32) -> io::Result<()> {
    if attempts > 1 {
        write!(w, "{ATTEMPTS}{attempts}")?;
    }
    Ok(())
}

/// Reads the optional `attempts` field: absent means 1, present means
/// more than 1.
fn attempts(s: &str) -> Option<(u32, &str)> {
    match s.strip_prefix(ATTEMPTS) {
        None => Some((1, s)),
        Some(rest) => natural(rest).filter(|&(n, _)| n > 1),
    }
}

/// Length of the leading decimal digits of `s`, without a redundant
/// leading zero.
fn digits(s: &str) -> Option<usize> {
    let n = s.bytes().take_while(u8::is_ascii_digit).count();
    (n == 1 || (n > 1 && !s.starts_with('0'))).then_some(n)
}

/// A leading unsigned integer in plain decimal.
fn natural<T: std::str::FromStr>(s: &str) -> Option<(T, &str)> {
    let n = digits(s)?;
    Some((s[..n].parse().ok()?, &s[n..]))
}

/// A leading `f64` as Rust's `Display` writes a finite value:
/// `-?digits(.digits)?`, with no exponent.
fn decimal(s: &str) -> Option<(f64, &str)> {
    let sign = usize::from(s.starts_with('-'));
    let mut end = sign + digits(&s[sign..])?;
    if let Some(fraction) = s[end..].strip_prefix('.') {
        let n = fraction.bytes().take_while(u8::is_ascii_digit).count();
        if n == 0 {
            return None;
        }
        end += 1 + n;
    }
    Some((s[..end].parse().ok()?, &s[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(record: &Record<'_>) -> String {
        let mut out = Vec::new();
        record.write_to(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn samples() -> Vec<Record<'static>> {
        vec![
            Record::Pending {
                cell: "0123456789abcdef0123456789abcdef".into(),
                key: "fleet/car-following/vehicle=3".into(),
            },
            Record::Running {
                cell: "00ff".into(),
            },
            Record::Done {
                cell: "00ff".into(),
                wall_ms: 0.123_456_789,
                payload: "ok:{\"x\":[1.5,null],\"s\":\"a\\\"b\"}".into(),
                attempts: 1,
            },
            Record::Done {
                cell: "00ff".into(),
                wall_ms: -0.0,
                payload: "".into(),
                attempts: 3,
            },
            Record::Failed {
                cell: "00ff".into(),
                error: "panicked: tab\there\nnewline \u{1}".into(),
                attempts: 1,
            },
            Record::Failed {
                cell: "00ff".into(),
                error: "payload not encodable".into(),
                attempts: 4,
            },
            Record::Run {
                fingerprint: "9ae16a3b2f90404f".into(),
                hits: 980,
                misses: 0,
            },
        ]
    }

    #[test]
    fn every_written_record_parses_back_to_itself() {
        for record in samples() {
            let line = written(&record);
            let body = line.strip_suffix('\n').unwrap();
            assert_eq!(
                Record::parse(body, &mut String::new()),
                Some(record),
                "{line}"
            );
        }
    }

    #[test]
    fn writes_the_documented_bytes() {
        let [pending, _, done, retried, ..] = &samples()[..] else {
            unreachable!()
        };
        assert_eq!(
            written(pending),
            "{\"op\":\"pending\",\"cell\":\"0123456789abcdef0123456789abcdef\",\
             \"key\":\"fleet/car-following/vehicle=3\"}\n"
        );
        assert_eq!(
            written(done),
            "{\"op\":\"done\",\"cell\":\"00ff\",\"wall_ms\":0.123456789,\
             \"payload\":\"ok:{\\\"x\\\":[1.5,null],\\\"s\\\":\\\"a\\\\\\\"b\\\"}\"}\n"
        );
        assert_eq!(
            written(retried),
            "{\"op\":\"done\",\"cell\":\"00ff\",\"wall_ms\":-0,\"payload\":\"\",\"attempts\":3}\n"
        );
    }

    #[test]
    fn rejects_every_other_shape() {
        for line in [
            "",
            "{}",
            "{\"op\":\"running\",\"cell\":\"00ff\"} ",
            "{\"op\":\"running\",\"cell\":\"00ff\",\"extra\":1}",
            "{\"cell\":\"00ff\",\"op\":\"running\"}",
            "{\"op\": \"running\",\"cell\":\"00ff\"}",
            "{\"op\":\"paused\",\"cell\":\"00ff\"}",
            "{\"op\":\"done\",\"cell\":\"00ff\",\"wall_ms\":NaN,\"payload\":\"1\"}",
            "{\"op\":\"done\",\"cell\":\"00ff\",\"wall_ms\":1e3,\"payload\":\"1\"}",
            "{\"op\":\"done\",\"cell\":\"00ff\",\"wall_ms\":01,\"payload\":\"1\"}",
            "{\"op\":\"done\",\"cell\":\"00ff\",\"wall_ms\":1.,\"payload\":\"1\"}",
            "{\"op\":\"done\",\"cell\":\"00ff\",\"wall_ms\":1,\"payload\":\"1\",\"attempts\":1}",
            "{\"op\":\"failed\",\"cell\":\"00ff\",\"error\":\"x\",\"attempts\":99999999999}",
            "{\"op\":\"run\",\"fingerprint\":\"ab\",\"hits\":-1,\"misses\":0}",
            "{\"op\":\"pending\",\"cell\":\"00ff\",\"key\":\"a\\/b\"}",
        ] {
            assert_eq!(Record::parse(line, &mut String::new()), None, "{line}");
        }
    }
}
