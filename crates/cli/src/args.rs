//! A small `--flag value` argument parser (no external dependencies).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Parsed command line: a subcommand plus `--key value` options. It
/// remembers which names the command asked about, so
/// [`Args::reject_unread`] can refuse the rest by name.
#[derive(Debug, Default)]
pub struct Args {
    opts: HashMap<String, String>,
    flags: Vec<String>,
    read_opts: RefCell<HashSet<String>>,
    read_flags: RefCell<HashSet<String>>,
}

/// Errors produced while parsing or reading options.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A required option was not provided.
    Required(String),
    /// An option's value failed to parse, or is out of range.
    Invalid(String, String),
    /// An option the command does not have (a misspelling, usually).
    Unknown(String),
    /// An option that takes a value was given none.
    MissingValue(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Required(k) => write!(f, "missing required option --{k}"),
            ArgError::Invalid(k, v) => write!(f, "invalid value '{v}' for --{k}"),
            ArgError::Unknown(k) => write!(f, "unknown option --{k}"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `--key value` pairs and bare `--flag`s (a `--key` followed
    /// by another `--...` or end of input is a boolean flag).
    pub fn parse<I: IntoIterator<Item = String>>(items: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = items.into_iter().peekable();
        while let Some(tok) = it.next() {
            let key = match tok.strip_prefix("--") {
                Some(k) if !k.is_empty() => k.to_string(),
                _ => return Err(ArgError::Invalid("".into(), tok)),
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    args.opts.insert(key, it.next().unwrap());
                }
                _ => args.flags.push(key),
            }
        }
        Ok(args)
    }

    /// True when the boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.read_flags.borrow_mut().insert(name.into());
        self.flags.iter().any(|f| f == name)
    }

    /// Optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.read_opts.borrow_mut().insert(name.into());
        self.opts.get(name).map(|s| s.as_str())
    }

    /// Refuses, by name, whatever was given but never asked about: call
    /// it once the command has read everything it understands and before
    /// it acts. A flag given a value and a valued option given none are
    /// refused too — silently ignoring either runs something other than
    /// what was typed.
    pub fn reject_unread(&self) -> Result<(), ArgError> {
        let (opts, flags) = (self.read_opts.borrow(), self.read_flags.borrow());
        let mut given: Vec<&String> = self.opts.keys().chain(&self.flags).collect();
        given.sort();
        for k in given {
            let value = self.opts.get(k);
            let understood = match value {
                Some(_) => opts.contains(k),
                None => flags.contains(k),
            };
            if !understood {
                return Err(match value {
                    Some(v) if flags.contains(k) => ArgError::Invalid(k.clone(), v.clone()),
                    None if opts.contains(k) => ArgError::MissingValue(k.clone()),
                    _ => ArgError::Unknown(k.clone()),
                });
            }
        }
        Ok(())
    }

    /// Required string option.
    #[allow(dead_code)] // part of the parser's API; exercised in tests
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError::Required(name.into()))
    }

    /// Typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::Invalid(name.into(), v.into())),
        }
    }

    /// As [`Args::get_or`], for a count that must be at least one (the
    /// constructors downstream assert it).
    pub fn get_positive<T>(&self, name: &str, default: T) -> Result<T, ArgError>
    where
        T: std::str::FromStr + Default + PartialEq + ToString,
    {
        let v = self.get_or(name, default)?;
        if v == T::default() {
            return Err(ArgError::Invalid(name.into(), v.to_string()));
        }
        Ok(v)
    }
}

/// Parses a strategy name (as printed by experiment tables).
pub fn parse_strategy(name: &str) -> Option<vmqs_core::Strategy> {
    use vmqs_core::Strategy;
    Some(match name.to_ascii_uppercase().as_str() {
        "FIFO" => Strategy::Fifo,
        "MUF" => Strategy::Muf,
        "FF" => Strategy::FarthestFirst,
        "CF" => Strategy::closest_first_default(),
        "CNBF" => Strategy::Cnbf,
        "SJF" => Strategy::Sjf,
        "HYBRID" => Strategy::hybrid_default(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn options_and_flags() {
        let a = parse("--zoom 4 --batch --out x.ppm");
        assert_eq!(a.get("zoom"), Some("4"));
        assert!(a.flag("batch"));
        assert!(!a.flag("zoom"));
        assert_eq!(a.get_or("zoom", 1u32).unwrap(), 4);
        assert_eq!(a.get_or("missing", 7u32).unwrap(), 7);
    }

    #[test]
    fn require_and_invalid() {
        let a = parse("--zoom banana");
        assert_eq!(a.require("out"), Err(ArgError::Required("out".into())));
        assert!(matches!(
            a.get_or::<u32>("zoom", 1),
            Err(ArgError::Invalid(_, _))
        ));
    }

    #[test]
    fn zero_is_not_a_positive_count() {
        let a = parse("--threads 0 --zoom 3");
        assert_eq!(
            a.get_positive("threads", 4usize),
            Err(ArgError::Invalid("threads".into(), "0".into()))
        );
        assert_eq!(a.get_positive("zoom", 1u32), Ok(3));
        assert_eq!(a.get_positive("lod", 1u32), Ok(1));
    }

    #[test]
    fn unread_options_are_refused_by_name() {
        let a = parse("--thraeds 2 --batch --zoom 4");
        let _ = (a.get("zoom"), a.flag("batch"), a.get("threads"));
        assert_eq!(a.reject_unread(), Err(ArgError::Unknown("thraeds".into())));
        let ok = parse("--zoom 4 --batch");
        let _ = (ok.get("zoom"), ok.flag("batch"));
        assert_eq!(ok.reject_unread(), Ok(()));
        // A flag given a value, and a valued option given none.
        let a = parse("--batch yes --zoom");
        let _ = (a.get("zoom"), a.flag("batch"));
        assert_eq!(
            a.reject_unread(),
            Err(ArgError::Invalid("batch".into(), "yes".into()))
        );
        let a = parse("--zoom");
        let _ = a.get("zoom");
        assert_eq!(
            a.reject_unread(),
            Err(ArgError::MissingValue("zoom".into()))
        );
    }

    #[test]
    fn bad_token_rejected() {
        assert!(Args::parse(vec!["zoom".to_string()]).is_err());
    }

    #[test]
    fn strategies_parse() {
        for name in ["FIFO", "MUF", "FF", "CF", "CNBF", "SJF", "HYBRID", "cnbf"] {
            assert!(parse_strategy(name).is_some(), "{name}");
        }
        assert!(parse_strategy("NOPE").is_none());
    }
}
