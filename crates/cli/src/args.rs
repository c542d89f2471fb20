//! Hand-rolled argument parsing (no external parser dependency).
//!
//! Grammar: `hcperf <command> [--key value]...` — every option is a
//! `--key value` pair, except `--help`/`-h`, which takes no value;
//! unknown keys and malformed values are errors with helpful messages.

use std::collections::BTreeMap;
use std::fmt;

use hcperf::Scheme;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    command: String,
    options: BTreeMap<String, String>,
    help: bool,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

impl Args {
    /// Parses `argv[1..]` (command followed by `--key value` pairs).
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] when no command is given, an option is not of
    /// the form `--key`, or a key has no value.
    pub fn parse<I, S>(argv: I) -> Result<Args, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = argv.into_iter().map(Into::into);
        let command = iter
            .next()
            .ok_or_else(|| ParseError("missing command; try `hcperf help`".into()))?;
        let mut options = BTreeMap::new();
        let mut help = false;
        while let Some(key) = iter.next() {
            if key == "--help" || key == "-h" {
                help = true;
                continue;
            }
            let Some(stripped) = key.strip_prefix("--") else {
                return Err(ParseError(format!(
                    "expected an option like --key, got {key:?}"
                )));
            };
            let value = iter
                .next()
                .ok_or_else(|| ParseError(format!("option --{stripped} needs a value")))?;
            options.insert(stripped.to_owned(), value);
        }
        Ok(Args {
            command,
            options,
            help,
        })
    }

    /// Whether `--help` or `-h` followed the command.
    #[must_use]
    pub fn wants_help(&self) -> bool {
        self.help
    }

    /// The subcommand name.
    #[must_use]
    pub fn command(&self) -> &str {
        &self.command
    }

    /// Raw option value, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// `f64` option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the value is present but not a number.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ParseError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("--{key} expects a number, got {v:?}"))),
        }
    }

    /// `u64` option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the value is present but not an integer.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ParseError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("--{key} expects an integer, got {v:?}"))),
        }
    }

    /// `usize` option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the value is present but not an integer.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, ParseError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("--{key} expects an integer, got {v:?}"))),
        }
    }

    /// Boolean option (`true | false`) with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the value is present but neither `true`
    /// nor `false`.
    pub fn get_bool(&self, key: &str, default: bool) -> Result<bool, ParseError> {
        match self.get(key) {
            None => Ok(default),
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(v) => Err(ParseError(format!(
                "--{key} expects true or false, got {v:?}"
            ))),
        }
    }

    /// Scheme option (`hpf | edf | edf-vd | apollo | hcperf`) with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] for an unknown scheme name.
    pub fn get_scheme(&self, key: &str, default: Scheme) -> Result<Scheme, ParseError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => parse_scheme(v)
                .ok_or_else(|| ParseError(format!("unknown scheme {v:?} for --{key}"))),
        }
    }
}

/// Parses a scheme name (case-insensitive).
#[must_use]
pub fn parse_scheme(name: &str) -> Option<Scheme> {
    match name.to_ascii_lowercase().as_str() {
        "hpf" => Some(Scheme::Hpf),
        "edf" => Some(Scheme::Edf),
        "edf-vd" | "edfvd" | "edf_vd" => Some(Scheme::EdfVd),
        "apollo" => Some(Scheme::Apollo),
        "hcperf" => Some(Scheme::HcPerf),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_options() {
        let args = Args::parse(["run", "--scheme", "edf", "--duration", "12.5"]).unwrap();
        assert_eq!(args.command(), "run");
        assert_eq!(args.get("scheme"), Some("edf"));
        assert_eq!(args.get_f64("duration", 0.0).unwrap(), 12.5);
        assert_eq!(args.get_f64("missing", 7.0).unwrap(), 7.0);
    }

    #[test]
    fn rejects_missing_command() {
        let err = Args::parse(Vec::<String>::new()).unwrap_err();
        assert!(err.0.contains("missing command"));
    }

    #[test]
    fn rejects_bare_option() {
        let err = Args::parse(["run", "scheme"]).unwrap_err();
        assert!(err.0.contains("--key"));
    }

    #[test]
    fn rejects_valueless_option() {
        let err = Args::parse(["run", "--scheme"]).unwrap_err();
        assert!(err.0.contains("needs a value"));
    }

    #[test]
    fn help_flags_take_no_value() {
        for flag in ["--help", "-h"] {
            let args = Args::parse(["fleet", flag]).unwrap();
            assert!(args.wants_help());
            let args = Args::parse(["fleet", "--vehicles", "4", flag]).unwrap();
            assert!(args.wants_help());
            assert_eq!(args.get("vehicles"), Some("4"));
        }
        assert!(!Args::parse(["fleet"]).unwrap().wants_help());
    }

    #[test]
    fn rejects_bad_numbers() {
        let args = Args::parse(["run", "--duration", "abc"]).unwrap();
        assert!(args.get_f64("duration", 0.0).is_err());
        let args = Args::parse(["run", "--seed", "1.5"]).unwrap();
        assert!(args.get_u64("seed", 0).is_err());
    }

    #[test]
    fn scheme_names_parse_case_insensitively() {
        assert_eq!(parse_scheme("HCPerf"), Some(Scheme::HcPerf));
        assert_eq!(parse_scheme("EDF-VD"), Some(Scheme::EdfVd));
        assert_eq!(parse_scheme("edfvd"), Some(Scheme::EdfVd));
        assert_eq!(parse_scheme("nope"), None);
        let args = Args::parse(["run", "--scheme", "zzz"]).unwrap();
        assert!(args.get_scheme("scheme", Scheme::Edf).is_err());
    }
}
