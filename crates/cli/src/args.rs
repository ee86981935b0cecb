//! Minimal flag parser: `--name value` pairs plus positional arguments.
//!
//! Hand-rolled rather than a dependency: the CLI has a dozen flags and the
//! workspace policy is to keep the dependency set to the approved list.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed command-line arguments: positionals in order, flags by name.
///
/// Every `get`/`switch` lookup records the flag name; after a command has
/// read its configuration, [`Args::ensure_consumed`] rejects anything the
/// user passed that nothing looked at — typos and unsupported flags fail
/// loudly instead of being silently ignored.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    /// Ordered map so flag errors list names in a stable order regardless
    /// of how the user passed them.
    flags: BTreeMap<String, String>,
    /// Flags given without a value (`--json`).
    switches: Vec<String>,
    consumed: RefCell<BTreeSet<String>>,
}

/// Parsing failure with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses a token stream. A token starting with `--` either consumes
    /// the next token as its value or, when the next token is also a flag
    /// (or absent), becomes a switch.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Args {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                match it.next_if(|next| !next.starts_with("--")) {
                    Some(value) => {
                        out.flags.insert(name.to_string(), value);
                    }
                    None => out.switches.push(name.to_string()),
                }
            } else {
                out.positional.push(tok);
            }
        }
        out
    }

    pub fn positional(&self, idx: usize) -> Option<&str> {
        self.positional.get(idx).map(String::as_str)
    }

    pub fn require_positional(&self, idx: usize, what: &str) -> Result<&str, ArgError> {
        self.positional(idx)
            .ok_or_else(|| ArgError(format!("missing {what}")))
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.consumed.borrow_mut().insert(name.to_string());
        self.flags.get(name).map(String::as_str)
    }

    pub fn switch(&self, name: &str) -> bool {
        self.consumed.borrow_mut().insert(name.to_string());
        self.switches.iter().any(|s| s == name)
    }

    /// Every flag name a command has read so far.
    #[cfg(test)]
    pub(crate) fn consumed(&self) -> BTreeSet<String> {
        self.consumed.borrow().clone()
    }

    /// Errors if any flag or switch the user passed was never read: it is
    /// misspelt, or the program it was given to does not honour it.
    pub fn ensure_consumed(&self) -> Result<(), ArgError> {
        let consumed = self.consumed.borrow();
        let mut unknown: Vec<&str> = self
            .flags
            .keys()
            .map(String::as_str)
            .chain(self.switches.iter().map(String::as_str))
            .filter(|name| !consumed.contains(*name))
            .collect();
        unknown.sort_unstable();
        unknown.dedup();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(ArgError(format!(
                "unknown or unused flag(s): {}",
                unknown
                    .iter()
                    .map(|n| format!("--{n}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )))
        }
    }

    /// Typed flag with a default.
    pub fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}"))),
        }
    }

    /// Typed flag that must be present.
    pub fn require_parse<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        let v = self
            .get(name)
            .ok_or_else(|| ArgError(format!("missing required --{name}")))?;
        v.parse()
            .map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse("run graph.etag --alg bfs --source 5 --json");
        assert_eq!(a.positional(0), Some("run"));
        assert_eq!(a.positional(1), Some("graph.etag"));
        assert_eq!(a.get("alg"), Some("bfs"));
        assert_eq!(a.get_parse::<u32>("source", 0).unwrap(), 5);
        assert!(a.switch("json"));
        assert!(!a.switch("quiet"));
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse("generate rmat --scale 10");
        assert_eq!(a.get_parse::<u32>("scale", 0).unwrap(), 10);
        assert_eq!(a.get_parse::<u64>("seed", 42).unwrap(), 42);
        assert!(a.require_parse::<usize>("edges").is_err());
        assert!(a.require_positional(5, "thing").is_err());
    }

    #[test]
    fn flag_followed_by_flag_is_a_switch() {
        let a = parse("run --json --alg sssp");
        assert!(a.switch("json"));
        assert_eq!(a.get("alg"), Some("sssp"));
    }

    #[test]
    fn unconsumed_flags_are_rejected() {
        let a = parse("run g --alg bfs --sorces 0,1 --jsn");
        let _ = a.get("alg");
        let err = a.ensure_consumed().unwrap_err();
        assert!(err.0.contains("--sorces"), "{err}");
        assert!(err.0.contains("--jsn"), "{err}");
        // After reading them, the same args pass.
        let _ = a.get("sorces");
        let _ = a.switch("jsn");
        assert!(a.ensure_consumed().is_ok());
    }

    #[test]
    fn parse_errors_name_the_flag() {
        let a = parse("x --k abc");
        let err = a.get_parse::<u32>("k", 1).unwrap_err();
        assert!(err.0.contains("--k"));
    }
}
