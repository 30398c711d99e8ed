//! Minimal hand-rolled flag parsing (the workspace deliberately uses only
//! the pre-approved dependency set, which has no argument parser).

use std::collections::HashMap;

/// Parsed `--flag value` / `--switch` arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `argv` (after the subcommand) against the command's flags:
    /// `values` lists the flags that take a value, `switches` those that
    /// take none.
    ///
    /// # Errors
    ///
    /// Returns a message for a positional argument, a flag the command
    /// does not take, a value flag missing its value, or a value flag
    /// given twice (which value was meant is a guess, so none is taken).
    pub fn parse(argv: &[String], values: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            if switches.contains(&name) {
                out.switches.push(name.to_string());
                i += 1;
            } else if values.contains(&name) {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                if out.values.insert(name.to_string(), value.clone()).is_some() {
                    return Err(format!("flag '--{name}' given twice"));
                }
                i += 2;
            } else {
                return Err(format!("unknown flag '--{name}'"));
            }
        }
        Ok(out)
    }

    /// The value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Whether switch `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Parses `--name` as `T`, with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let a = Args::parse(
            &argv(&["--k", "32", "--json", "--pes", "56"]),
            &["k", "pes"],
            &["json"],
        )
        .unwrap();
        assert_eq!(a.get("k"), Some("32"));
        assert!(a.has("json"));
        assert_eq!(a.get_parsed("pes", 0usize).unwrap(), 56);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&argv(&["--k"]), &["k"], &[]).is_err());
    }

    #[test]
    fn positional_arguments_are_rejected() {
        assert!(Args::parse(&argv(&["kro"]), &[], &[]).is_err());
    }

    #[test]
    fn undeclared_flags_are_rejected_by_name() {
        let err = Args::parse(&argv(&["--k", "32", "--bogus", "3"]), &["k"], &[]).unwrap_err();
        assert_eq!(err, "unknown flag '--bogus'");
        // A switch of the command is not a value flag, and vice versa.
        let err = Args::parse(&argv(&["--json", "--k", "32"]), &["k"], &[]).unwrap_err();
        assert_eq!(err, "unknown flag '--json'");
        let err = Args::parse(&argv(&["--k"]), &[], &["json"]).unwrap_err();
        assert_eq!(err, "unknown flag '--k'");
    }

    #[test]
    fn repeated_value_flags_are_rejected_by_name() {
        let err = Args::parse(
            &argv(&["--benchmark", "myc", "--k", "16", "--benchmark", "kro"]),
            &["benchmark", "k"],
            &[],
        )
        .unwrap_err();
        assert_eq!(err, "flag '--benchmark' given twice");
        // The same value twice is still a repeat.
        let err = Args::parse(&argv(&["--k", "16", "--k", "16"]), &["k"], &[]).unwrap_err();
        assert_eq!(err, "flag '--k' given twice");
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let a = Args::parse(&argv(&[]), &["k"], &[]).unwrap();
        assert_eq!(a.get_parsed("k", 32usize).unwrap(), 32);
    }

    #[test]
    fn bad_parse_is_an_error() {
        let a = Args::parse(&argv(&["--k", "abc"]), &["k"], &[]).unwrap();
        assert!(a.get_parsed("k", 0usize).is_err());
    }
}
