//! Strict `--key value` command-line parsing.
//!
//! Each binary declares the keys (`--key value`) and bare flags
//! (`--flag`) it accepts. Anything else — an unknown or misspelt
//! option, a key without its value, a flag given one, an option given
//! twice, a positional argument, a value of the wrong type or out of
//! range — is an error, so a rerun with a typo never silently runs the
//! defaults.

use std::collections::BTreeMap;
use std::str::FromStr;

/// Parsed command-line arguments: `--key value` pairs and bare
/// `--flag`s (a key followed by another `--key` or end of input).
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    /// The usage line printed with a rejected value.
    usage: String,
}

impl Args {
    /// Parses the process arguments against the `keys` and bare
    /// `flags` this binary accepts. On anything else it prints the
    /// error and a usage line to stderr and exits with status 2.
    pub fn parse(keys: &[&str], flags: &[&str]) -> Self {
        let mut argv = std::env::args();
        let bin = argv
            .next()
            .map(|path| {
                std::path::Path::new(&path)
                    .file_name()
                    .map_or(path.clone(), |name| name.to_string_lossy().into_owned())
            })
            .unwrap_or_default();
        Self::parse_from(&bin, argv, keys, flags)
    }

    /// Parses `argv`, the arguments after `command` (a program name and
    /// any subcommand), as [`Args::parse`] does.
    pub fn parse_from<I: IntoIterator<Item = String>>(
        command: &str,
        argv: I,
        keys: &[&str],
        flags: &[&str],
    ) -> Self {
        let usage = usage(command, keys, flags);
        let args =
            Self::from_iter(argv, keys, flags).unwrap_or_else(|err| exit_usage(&err, &usage));
        Args { usage, ..args }
    }

    /// Parses an explicit argument list against the accepted `keys`
    /// and `flags`.
    ///
    /// # Errors
    /// Names the first argument that is positional, undeclared, given
    /// twice, a key missing its value, or a flag given one.
    fn from_iter<I: IntoIterator<Item = String>>(
        iter: I,
        keys: &[&str],
        flags: &[&str],
    ) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = iter.into_iter().peekable();
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(format!(
                    "unexpected positional argument: {tok} (flags are --key value)"
                ));
            };
            if args.get(key).is_some() || args.has_flag(key) {
                return Err(format!("--{key} given twice"));
            }
            let value = it.next_if(|next| !next.starts_with("--"));
            match (keys.contains(&key), flags.contains(&key), value) {
                (true, _, Some(v)) => {
                    args.values.insert(key.to_string(), v);
                }
                (true, _, None) => return Err(format!("--{key} expects a value")),
                (false, true, None) => args.flags.push(key.to_string()),
                (false, true, Some(v)) => return Err(format!("--{key} takes no value, got {v}")),
                (false, false, _) => return Err(format!("unknown option --{key}")),
            }
        }
        Ok(args)
    }

    /// A string value.
    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A count: a `usize` value of at least 1, with default. A value
    /// that is not a whole number, or is 0, prints the error and the
    /// usage line and exits with status 2, as [`Args::parse`] does.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get_usize_at_least(key, default, 1)
    }

    /// A `usize` value of at least `min`, with default; anything else
    /// exits 2 as [`Args::get_usize`] does.
    pub fn get_usize_at_least(&self, key: &str, default: usize, min: usize) -> usize {
        self.or_exit(self.at_least(key, default, min))
    }

    /// A `u64` value with default; a value that is not a whole number
    /// exits 2 as [`Args::get_usize`] does.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.or_exit(self.parsed(key, default, "an integer"))
    }

    /// `key`'s value parsed as `what`, or `default` when absent.
    fn parsed<T: FromStr>(&self, key: &str, default: T, what: &str) -> Result<T, String> {
        self.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{key} expects {what}, got {v}"))
        })
    }

    /// `key`'s `usize` value, rejected below `min`; the default is
    /// taken as given.
    fn at_least(&self, key: &str, default: usize, min: usize) -> Result<usize, String> {
        let value = self.parsed(key, default, "an integer")?;
        if self.get(key).is_some() && value < min {
            return Err(format!("--{key} must be at least {min}, got {value}"));
        }
        Ok(value)
    }

    fn or_exit<T>(&self, value: Result<T, String>) -> T {
        value.unwrap_or_else(|err| exit_usage(&err, &self.usage))
    }

    /// Whether a bare flag was passed.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// Prints `err` and the usage line to stderr and exits with status 2.
pub fn exit_usage(err: &str, usage: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// `usage: bin [--key V]… [--flag]…`.
fn usage(bin: &str, keys: &[&str], flags: &[&str]) -> String {
    let mut line = format!("usage: {bin}");
    for key in keys {
        line.push_str(&format!(" [--{key} V]"));
    }
    for flag in flags {
        line.push_str(&format!(" [--{flag}]"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: &[&str] = &["anneals", "seed", "snr", "name"];
    const FLAGS: &[&str] = &["full"];

    fn try_args(s: &[&str]) -> Result<Args, String> {
        Args::from_iter(s.iter().map(|x| x.to_string()), KEYS, FLAGS)
    }

    fn args(s: &[&str]) -> Args {
        try_args(s).expect("valid arguments")
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = args(&["--anneals", "500", "--full", "--seed", "7"]);
        assert_eq!(a.get_usize("anneals", 0), 500);
        assert_eq!(a.get_u64("seed", 0), 7);
        assert!(a.has_flag("full"));
        assert!(!a.has_flag("anneals"));
        assert_eq!(
            args(&["--snr", "-5"]).parsed("snr", 0.0, "a number"),
            Ok(-5.0)
        );
    }

    #[test]
    fn defaults_apply() {
        let a = args(&[]);
        assert_eq!(a.get_usize("anneals", 123), 123);
        assert_eq!(a.parsed("snr", 20.0, "a number"), Ok(20.0));
        assert_eq!(a.get("name"), None);
    }

    #[test]
    fn bad_values_are_rejected() {
        let a = args(&["--anneals", "many", "--seed", "3.0", "--snr", "loud"]);
        let err = a.parsed::<usize>("anneals", 0, "an integer").unwrap_err();
        assert_eq!(err, "--anneals expects an integer, got many");
        let err = a.parsed::<u64>("seed", 0, "an integer").unwrap_err();
        assert_eq!(err, "--seed expects an integer, got 3.0");
        let err = a.parsed::<f64>("snr", 0.0, "a number").unwrap_err();
        assert_eq!(err, "--snr expects a number, got loud");
        // `--iters` below the bound (IDD feeds back from iteration 2).
        let a = Args::from_iter(["--iters", "1"].map(String::from), &["iters"], &[]).unwrap();
        let err = a.at_least("iters", 3, 2).unwrap_err();
        assert_eq!(err, "--iters must be at least 2, got 1");
        assert_eq!(a.at_least("iters", 3, 1), Ok(1));
        // Every count rejects 0.
        let a = args(&["--anneals", "0"]);
        let err = a.at_least("anneals", 8, 1).unwrap_err();
        assert_eq!(err, "--anneals must be at least 1, got 0");
        assert_eq!(args(&[]).at_least("anneals", 8, 2), Ok(8));
        assert_eq!(args(&[]).at_least("anneals", 0, 1), Ok(0));
    }

    #[test]
    fn positional_rejected() {
        let err = try_args(&["fig5"]).unwrap_err();
        assert!(err.contains("positional"), "{err}");
    }

    #[test]
    fn undeclared_and_misused_options_are_rejected() {
        for (argv, expect) in [
            (&["--frame", "12"][..], "unknown option --frame"),
            (&["--seed", "1", "--bogus"], "unknown option --bogus"),
            (&["--anneals"], "--anneals expects a value"),
            (&["--anneals", "--seed", "3"], "--anneals expects a value"),
            (&["--full", "yes"], "--full takes no value"),
            (&["--seed", "1", "--seed", "2"], "--seed given twice"),
            (&["--full", "--full"], "--full given twice"),
        ] {
            let err = try_args(argv).unwrap_err();
            assert!(err.contains(expect), "{argv:?}: {err}");
        }
    }

    #[test]
    fn usage_lists_every_option() {
        assert_eq!(
            usage("fig5", &["anneals", "seed"], &["full"]),
            "usage: fig5 [--anneals V] [--seed V] [--full]"
        );
    }
}
