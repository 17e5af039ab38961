//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed `--key value` pairs plus boolean flags.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses an argument list. Every `--key` either captures the following
    /// token as its value or, if the next token is another option (or
    /// missing), becomes a boolean flag.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            let Some(key) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{tok}`"));
            };
            if key.is_empty() {
                return Err("empty option name `--`".into());
            }
            match argv.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    args.values.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ => {
                    args.flags.push(key.to_string());
                    i += 1;
                }
            }
        }
        Ok(args)
    }

    /// The raw value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Whether the boolean flag `--key` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// A parsed value with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("cannot parse --{key} value `{raw}`")),
        }
    }

    /// A required value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Fails on the first option that is in none of the `known` lists,
    /// naming it and the subcommand, so a mistyped option (`--shard` for
    /// `--shards`) is an error instead of a silent default.
    pub fn reject_unknown(&self, command: &str, known: &[&[&str]]) -> Result<(), String> {
        let is_known = |key: &str| known.iter().any(|set| set.contains(&key));
        match self.values.keys().chain(&self.flags).find(|k| !is_known(k)) {
            Some(key) => Err(format!(
                "unknown option `--{key}` for `lcf {command}`; try `lcf help`"
            )),
            None => Ok(()),
        }
    }

    /// A comma-separated list of parsed values.
    pub fn get_list<T: std::str::FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .split(',')
                .map(|part| {
                    part.trim()
                        .parse()
                        .map_err(|_| format!("cannot parse --{key} element `{part}`"))
                })
                .collect::<Result<Vec<T>, String>>()
                .map(Some),
        }
    }
}

/// Parses a request-matrix spec: `"0:1,2;1:0,2,3;3:1"` means requester 0
/// requests resources 1 and 2, requester 1 requests 0, 2 and 3, requester 3
/// requests 1. Requesters may appear in any order; omitted requesters have
/// no requests.
pub fn parse_requests(n: usize, spec: &str) -> Result<Vec<(usize, usize)>, String> {
    let mut pairs = Vec::new();
    for group in spec.split(';').filter(|g| !g.trim().is_empty()) {
        let (req, resources) = group
            .split_once(':')
            .ok_or_else(|| format!("malformed group `{group}` (want `i:j,k`)"))?;
        let i: usize = req
            .trim()
            .parse()
            .map_err(|_| format!("bad requester `{req}`"))?;
        if i >= n {
            return Err(format!("requester {i} out of range for n = {n}"));
        }
        for r in resources.split(',').filter(|r| !r.trim().is_empty()) {
            let j: usize = r
                .trim()
                .parse()
                .map_err(|_| format!("bad resource `{r}`"))?;
            if j >= n {
                return Err(format!("resource {j} out of range for n = {n}"));
            }
            pairs.push((i, j));
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_values_and_flags() {
        let a = Args::parse(&argv(&["--load", "0.8", "--quick", "--ports", "16"])).unwrap();
        assert_eq!(a.get("load"), Some("0.8"));
        assert!(a.flag("quick"));
        assert_eq!(a.get_parsed::<usize>("ports", 0).unwrap(), 16);
        assert_eq!(a.get_parsed::<u64>("slots", 99).unwrap(), 99);
    }

    #[test]
    fn rejects_positional() {
        assert!(Args::parse(&argv(&["oops"])).is_err());
    }

    #[test]
    fn negative_looking_values_vs_flags() {
        // a value starting with `--` is treated as the next option
        let a = Args::parse(&argv(&["--quick", "--seed", "7"])).unwrap();
        assert!(a.flag("quick"));
        assert_eq!(a.get("seed"), Some("7"));
    }

    #[test]
    fn require_and_lists() {
        let a = Args::parse(&argv(&["--loads", "0.1, 0.5,0.9"])).unwrap();
        assert_eq!(
            a.get_list::<f64>("loads").unwrap(),
            Some(vec![0.1, 0.5, 0.9])
        );
        assert!(a.require("nope").is_err());
    }

    #[test]
    fn unknown_options_are_named() {
        let a = Args::parse(&argv(&["--load", "0.5", "--fast", "--lod", "0.9"])).unwrap();
        assert!(a
            .reject_unknown("simulate", &[&["load", "fast", "lod"]])
            .is_ok());
        let err = a
            .reject_unknown("simulate", &[&["load"], &["fast"]])
            .unwrap_err();
        assert!(
            err.contains("`--lod`") && err.contains("lcf simulate"),
            "{err}"
        );
        let flag = Args::parse(&argv(&["--quiet"])).unwrap();
        assert!(flag.reject_unknown("hw", &[&["ports"]]).is_err());
    }

    #[test]
    fn parse_error_messages() {
        let a = Args::parse(&argv(&["--ports", "many"])).unwrap();
        let err = a.get_parsed::<usize>("ports", 1).unwrap_err();
        assert!(err.contains("--ports"));
    }

    #[test]
    fn request_spec_roundtrip() {
        let pairs = parse_requests(4, "0:1,2;1:0,2,3;3:1").unwrap();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (3, 1)]);
    }

    #[test]
    fn request_spec_errors() {
        assert!(parse_requests(4, "9:1").is_err());
        assert!(parse_requests(4, "0:9").is_err());
        assert!(parse_requests(4, "garbage").is_err());
        assert_eq!(parse_requests(4, "").unwrap(), vec![]);
    }
}
