//! Dependency-free `--key value` argument parsing.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Parsed `--key value` arguments (flags without values store `"true"`).
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    /// Every key the command has asked for, present or not.
    read: RefCell<HashSet<String>>,
}

impl Args {
    /// Parses a `--key value ...` list. A `--key` followed by another
    /// `--key` (or end of input) is treated as a boolean flag.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let k = &argv[i];
            let Some(key) = k.strip_prefix("--") else {
                return Err(format!("expected --key, got '{k}'"));
            };
            if key.is_empty() {
                return Err("empty option name".into());
            }
            let next = argv.get(i + 1);
            match next {
                Some(v) if !v.starts_with("--") => {
                    values.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ => {
                    values.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
            }
        }
        Ok(Args {
            values,
            read: RefCell::default(),
        })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.values.get(key).map(|s| s.as_str())
    }

    /// Fails on a given option the command never read. Commands call
    /// this once they have read every option, before doing any work,
    /// so a misspelled `--scael` is an error rather than a silent
    /// default. An option only some modes read (`query --op stats
    /// --user 3`) is reported the same way.
    pub fn reject_unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        match self.values.keys().filter(|k| !read.contains(*k)).min() {
            Some(key) => Err(format!(
                "option --{key} is not used by this command with these options"
            )),
            None => Ok(()),
        }
    }

    /// Required string option.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Optional parsed value with default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: '{v}'")),
        }
    }

    pub fn flag(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::parse(&argv(&["--model", "NMCDR", "--verbose", "--scale", "0.01"])).unwrap();
        assert_eq!(a.get("model"), Some("NMCDR"));
        assert!(a.flag("verbose"));
        assert_eq!(a.parse_or::<f64>("scale", 1.0).unwrap(), 0.01);
    }

    #[test]
    fn missing_required_is_error() {
        let a = Args::parse(&argv(&["--x", "1"])).unwrap();
        assert!(a.required("model").is_err());
        assert!(a.required("x").is_ok());
    }

    #[test]
    fn rejects_positional() {
        assert!(Args::parse(&argv(&["train"])).is_err());
    }

    #[test]
    fn bad_parse_reported() {
        let a = Args::parse(&argv(&["--epochs", "many"])).unwrap();
        assert!(a.parse_or::<usize>("epochs", 4).is_err());
    }

    #[test]
    fn default_applies_when_absent() {
        let a = Args::parse(&argv(&[])).unwrap();
        assert_eq!(a.parse_or::<usize>("epochs", 7).unwrap(), 7);
        assert!(!a.flag("verbose"));
    }
}
