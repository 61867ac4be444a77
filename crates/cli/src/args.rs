//! Minimal `--flag value` argument parser (no external dependencies).

use crate::error::CliError;
use std::collections::HashMap;

/// Parsed command-line arguments: `--key value` pairs plus bare switches.
#[derive(Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parse from an iterator of raw arguments. A `--key` followed by a
    /// value that does not start with `--` binds that value; otherwise it
    /// is a boolean switch. Non-flag tokens are rejected.
    pub fn parse(raw: impl Iterator<Item = String>) -> Result<Args, CliError> {
        let mut args = Args::default();
        let mut raw = raw.peekable();
        while let Some(token) = raw.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| {
                    CliError::Usage(format!("unexpected argument {token:?} (expected --flag)"))
                })?
                .to_string();
            if key.is_empty() {
                return Err(CliError::Usage("empty flag name".into()));
            }
            match raw.peek() {
                Some(v) if !v.starts_with("--") => {
                    let value = raw.next().expect("peeked");
                    if args.flags.insert(key.clone(), value).is_some() {
                        return Err(CliError::Usage(format!("flag --{key} given twice")));
                    }
                }
                _ => args.switches.push(key),
            }
        }
        Ok(args)
    }

    /// Value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Required value of `--key`.
    pub fn req(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
    }

    /// Parsed value of `--key` with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("cannot parse --{key} value {v:?}"))),
        }
    }

    /// Was bare switch `--key` given?
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Reject any flag or switch not in `known`: a typo such as
    /// `--thread 2` is a usage error naming the flag, not an option the
    /// command silently ignores. Commands call this before any work.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), CliError> {
        let mut given: Vec<&String> = self.flags.keys().chain(&self.switches).collect();
        given.sort();
        match given.into_iter().find(|k| !known.contains(&k.as_str())) {
            Some(key) => Err(CliError::Usage(format!(
                "unknown flag --{key} for this command (try `jem help`)"
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, CliError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_and_switches() {
        let a = parse(&["--in", "x.fa", "--verbose", "--k", "16"]).unwrap();
        assert_eq!(a.get("in"), Some("x.fa"));
        assert_eq!(a.get_or("k", 0usize).unwrap(), 16);
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
        assert_eq!(a.get_or("w", 100usize).unwrap(), 100);
    }

    #[test]
    fn required_flag_error() {
        let a = parse(&[]).unwrap();
        let err = a.req("in").unwrap_err();
        assert!(err.to_string().contains("--in"));
        assert!(matches!(err, CliError::Usage(_)));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn rejects_bare_positional() {
        assert!(matches!(parse(&["x.fa"]).unwrap_err(), CliError::Usage(_)));
    }

    #[test]
    fn rejects_duplicate_flag() {
        assert!(parse(&["--k", "1", "--k", "2"]).is_err());
    }

    #[test]
    fn bad_parse_reported() {
        let a = parse(&["--k", "sixteen"]).unwrap();
        assert!(matches!(
            a.get_or("k", 0usize).unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn unknown_flags_and_switches_rejected() {
        let a = parse(&["--threads", "2", "--paf", "x.paf", "--ping"]).unwrap();
        assert!(a.reject_unknown(&["threads", "paf", "ping"]).is_ok());
        let err = a.reject_unknown(&["threads", "paf"]).unwrap_err();
        assert!(err.to_string().contains("--ping"), "{err}");
        let typo = parse(&["--thread", "2"]).unwrap();
        let err = typo.reject_unknown(&["threads"]).unwrap_err();
        assert!(err.to_string().contains("--thread "), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn trailing_switch() {
        let a = parse(&["--fast"]).unwrap();
        assert!(a.has("fast"));
    }
}
