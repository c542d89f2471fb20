//! Property tests for the CLI argument parser.

use hcperf_cli::Args;
use proptest::prelude::*;

proptest! {
    #[test]
    fn any_key_value_pairs_parse_and_round_trip(
        command in "[a-z]{1,12}",
        pairs in proptest::collection::vec(("[a-z]{1,10}", "[a-zA-Z0-9._-]{1,12}"), 0..8),
    ) {
        let mut argv = vec![command.clone()];
        for (k, v) in &pairs {
            argv.push(format!("--{k}"));
            argv.push(v.clone());
        }
        let args = Args::parse(argv).unwrap();
        prop_assert_eq!(args.command(), command.as_str());
        // Later duplicates win; every final value is retrievable.
        for (k, _) in &pairs {
            let stored = args.get(k).unwrap();
            let last = pairs.iter().rev().find(|(kk, _)| kk == k).unwrap();
            prop_assert_eq!(stored, last.1.as_str());
        }
    }

    #[test]
    fn numeric_getters_accept_what_rust_parses(
        value in -1e6f64..1e6,
    ) {
        let args = Args::parse(["run".to_string(), "--x".into(), value.to_string()]).unwrap();
        let parsed = args.get_f64("x", 0.0).unwrap();
        prop_assert!((parsed - value).abs() < 1e-9 * (1.0 + value.abs()));
    }

    #[test]
    fn dangling_option_is_always_an_error(
        command in "[a-z]{1,8}",
        key in "[a-z]{1,8}",
    ) {
        // `--help` is the one option that takes no value.
        prop_assume!(key != "help");
        let err = Args::parse([command, format!("--{key}")]).unwrap_err();
        prop_assert!(err.0.contains("needs a value"));
    }

    #[test]
    fn non_option_tokens_are_rejected(
        command in "[a-z]{1,8}",
        stray in "[a-z][a-z0-9]{0,8}",
    ) {
        let err = Args::parse([command, stray]).unwrap_err();
        prop_assert!(err.0.contains("--key"));
    }
}
