//! The one command-line flag parser behind every tool in the workspace:
//! `rsc`, the figure binaries, `snap_hash` and `rsc-serve`.
//!
//! A tool names the flags that take a value and the switches that take
//! none. A flag's value is spelled `--name value` or `--name=value`; a
//! switch is `--name` alone, and `-h` is read as `--help` when `help` is
//! one of the switches. Anything else is refused, so a typo never
//! silently runs the default:
//!
//! - a flag the tool does not know, named with the list it does know;
//! - a stray positional argument;
//! - a flag with no value, or a switch given one.
//!
//! The typed getter [`Args::parse_or`] names the flag in its error. Range
//! checks (a positive `--days`, say) stay with each tool.
//!
//! ```
//! use rsc_sim_core::cli;
//!
//! let raw = ["--seed", "7", "--days=14", "--smoke"].map(String::from);
//! let args = cli::parse(raw, &["seed", "days"], &["smoke"]).unwrap();
//! assert_eq!(args.parse_or("seed", 1u64), Ok(7));
//! assert_eq!(args.parse_or("days", 30u64), Ok(14));
//! assert!(args.switch("smoke"));
//! assert!(cli::parse(["--sead".to_string()], &["seed"], &[]).is_err());
//! ```

use std::collections::{HashMap, HashSet};
use std::fmt::Display;
use std::str::FromStr;

/// The flags and switches one command line set.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    values: HashMap<String, String>,
    switches: HashSet<String>,
}

impl Args {
    /// The raw value of flag `name`, if it was given (the last one wins).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Flag `name` parsed as a `T`, or `default` when it was not given.
    ///
    /// # Errors
    ///
    /// A message naming the flag and its value when the value does not
    /// parse.
    pub fn parse_or<T>(&self, name: &str, default: T) -> Result<T, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{name} {v:?}: {e}")),
        }
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }
}

/// Parses `args` (without the program name) against the known `flags`,
/// which take a value, and `switches`, which do not.
///
/// # Errors
///
/// A message for an unknown flag (listing the known ones), a stray
/// positional argument, a flag without a value or a switch with one.
pub fn parse<I>(args: I, flags: &[&str], switches: &[&str]) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let mut out = Args::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let arg = if arg == "-h" && switches.contains(&"help") {
            "--help".to_string()
        } else {
            arg
        };
        let Some(flag) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        let (name, inline) = match flag.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (flag, None),
        };
        if switches.contains(&name) {
            if inline.is_some() {
                return Err(format!("--{name} takes no value"));
            }
            out.switches.insert(name.to_string());
        } else if flags.contains(&name) {
            let value = match inline {
                Some(value) => value,
                None => args.next().ok_or(format!("--{name} expects a value"))?,
            };
            out.values.insert(name.to_string(), value);
        } else {
            return Err(unknown(name, flags, switches));
        }
    }
    Ok(out)
}

fn unknown(name: &str, flags: &[&str], switches: &[&str]) -> String {
    let known: Vec<String> = flags
        .iter()
        .chain(switches)
        .map(|k| format!("--{k}"))
        .collect();
    if known.is_empty() {
        format!("unknown flag --{name} (this tool takes no arguments)")
    } else {
        format!(
            "unknown flag --{name} (expected one of {})",
            known.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(raw: &[&str], flags: &[&str], switches: &[&str]) -> Result<Args, String> {
        parse(raw.iter().map(|s| s.to_string()), flags, switches)
    }

    const FLAGS: &[&str] = &["seed", "days"];

    #[test]
    fn both_spellings_and_last_wins() {
        let args = parse_strs(&["--seed", "7", "--days=14", "--seed=9"], FLAGS, &[]).unwrap();
        assert_eq!(args.get("seed"), Some("9"));
        assert_eq!(args.parse_or("days", 0u64), Ok(14));
        assert_eq!(args.parse_or("missing", 3u32), Ok(3));
        // Only the first `=` splits: the rest is the value.
        let args = parse_strs(&["--seed=a=b"], FLAGS, &[]).unwrap();
        assert_eq!(args.get("seed"), Some("a=b"));
    }

    #[test]
    fn unknown_flag_is_named_with_the_known_ones() {
        let err = parse_strs(&["--sead", "5"], FLAGS, &["smoke"]).unwrap_err();
        assert_eq!(
            err,
            "unknown flag --sead (expected one of --seed, --days, --smoke)"
        );
        let err = parse_strs(&["--sead=5"], FLAGS, &[]).unwrap_err();
        assert!(err.starts_with("unknown flag --sead "), "{err}");
    }

    #[test]
    fn stray_positional_and_missing_value_are_rejected() {
        let err = parse_strs(&["--days", "3", "extra"], FLAGS, &[]).unwrap_err();
        assert_eq!(err, "unexpected argument \"extra\"");
        let err = parse_strs(&["--days"], FLAGS, &[]).unwrap_err();
        assert_eq!(err, "--days expects a value");
    }

    #[test]
    fn switches_take_no_value() {
        let args = parse_strs(&["--smoke", "--days", "2"], FLAGS, &["smoke", "help"]).unwrap();
        assert!(args.switch("smoke"));
        assert!(!args.switch("help"));
        assert_eq!(args.get("smoke"), None);
        let err = parse_strs(&["--smoke=1"], FLAGS, &["smoke"]).unwrap_err();
        assert_eq!(err, "--smoke takes no value");
        // `-h` is `--help` only for a tool that has a help switch.
        assert!(parse_strs(&["-h"], FLAGS, &["help"])
            .unwrap()
            .switch("help"));
        assert!(parse_strs(&["-h"], FLAGS, &[]).is_err());
    }

    #[test]
    fn bad_number_names_its_flag() {
        let args = parse_strs(&["--days", "zero", "--seed=-1"], FLAGS, &[]).unwrap();
        let err = args.parse_or("days", 30u64).unwrap_err();
        assert!(err.starts_with("bad --days \"zero\": "), "{err}");
        let err = args.parse_or("seed", 0u64).unwrap_err();
        assert!(err.starts_with("bad --seed \"-1\": "), "{err}");
        assert_eq!(args.parse_or("seed", 0.5f64), Ok(-1.0));
    }

    #[test]
    fn a_tool_without_flags_refuses_every_argument() {
        assert_eq!(parse_strs(&[], &[], &[]), Ok(Args::default()));
        let err = parse_strs(&["--seed", "5"], &[], &[]).unwrap_err();
        assert_eq!(err, "unknown flag --seed (this tool takes no arguments)");
        assert!(parse_strs(&["5"], &[], &[]).is_err());
    }
}
