//! The command-line skeleton every workspace binary shares: flag
//! iteration, `--help`, the "needs a value" and "unknown argument"
//! usage errors, `--threads` and `LOCERT_THREADS` validation, and the
//! exit-code contract.
//!
//! Exit codes: 0 success, [`FINDING`] (1) when the run found what it
//! checks for — a rejection, a divergence, a violation — and [`USAGE`]
//! (2) for bad arguments and for files that cannot be read, parsed or
//! written.

use std::fmt::Display;
use std::str::FromStr;

/// Exit status of a run that found what it checks for.
pub const FINDING: u8 = 1;

/// Exit status of a usage or I/O error.
pub const USAGE: u8 = 2;

/// The environment variable that sizes the global pool.
const THREADS_ENV: &str = "LOCERT_THREADS";

/// A binary's arguments, consumed front to back.
pub struct Cli {
    name: &'static str,
    usage: &'static str,
    args: std::iter::Peekable<std::vec::IntoIter<String>>,
}

impl Cli {
    /// The process arguments of binary `name`, whose `--help` text is
    /// `usage`.
    pub fn new(name: &'static str, usage: &'static str) -> Cli {
        Cli::from_args(name, usage, std::env::args().skip(1).collect())
    }

    /// [`Cli::new`] for a binary that runs on the global pool: a set
    /// `LOCERT_THREADS` must be a positive integer.
    pub fn with_pool(name: &'static str, usage: &'static str) -> Cli {
        let cli = Cli::new(name, usage);
        if let Ok(raw) = std::env::var(THREADS_ENV) {
            cli.thread_count(&format!("{THREADS_ENV}={raw}"), &raw);
        }
        cli
    }

    fn from_args(name: &'static str, usage: &'static str, args: Vec<String>) -> Cli {
        Cli {
            name,
            usage,
            args: args.into_iter().peekable(),
        }
    }

    /// The operand of `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.args.next() {
            Some(v) => v,
            None => self.usage_error(format!("{flag} needs a value")),
        }
    }

    /// The operand of `flag`, parsed.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T {
        let raw = self.value(flag);
        match raw.parse() {
            Ok(v) => v,
            Err(_) => self.usage_error(format!("bad {flag} value {raw:?}")),
        }
    }

    /// The operand of `flag`, parsed and at least `min`.
    pub fn parse_at_least<T: FromStr + PartialOrd + Display>(&mut self, flag: &str, min: T) -> T {
        let v = self.parse(flag);
        if v < min {
            self.usage_error(format!("{flag} must be at least {min}"));
        }
        v
    }

    /// An optional operand: the next argument, when `accept` takes it.
    pub fn optional(&mut self, accept: impl Fn(&str) -> bool) -> Option<String> {
        self.args.next_if(|a| accept(a))
    }

    /// The operand of `--threads`: sizes the global pool.
    pub fn threads(&mut self) {
        let raw = self.value("--threads");
        let n = self.thread_count(&format!("--threads {raw}"), &raw);
        if !crate::configure_threads(n) {
            self.usage_error("--threads must come before the pool is first used");
        }
    }

    /// A thread count from `source`: zero and non-numbers are usage
    /// errors (a zero-worker pool would deadlock the first parallel
    /// region, and a silent fall-back hides typos).
    fn thread_count(&self, source: &str, raw: &str) -> usize {
        crate::parse_threads(raw).unwrap_or_else(|| {
            self.usage_error(format!("{source}: thread count must be at least 1"))
        })
    }

    /// An argument the binary does not take.
    pub fn unknown(&self, arg: &str) -> ! {
        self.usage_error(format!("unknown argument {arg:?}"))
    }

    /// Prints `msg` and the usage, then exits [`USAGE`].
    pub fn usage_error(&self, msg: impl Display) -> ! {
        eprintln!("{}: {msg}\n{}", self.name, self.usage);
        std::process::exit(USAGE.into())
    }

    /// Prints an I/O error, then exits [`USAGE`].
    pub fn io_error(&self, msg: impl Display) -> ! {
        eprintln!("{}: {msg}", self.name);
        std::process::exit(USAGE.into())
    }
}

/// The arguments in order; `--help` and `-h` print the usage and exit 0.
impl Iterator for Cli {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args("t", "usage", args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn flags_operands_and_optional_operands() {
        let mut c = cli(&["--seed", "7", "--out", "x", "pos", "--metrics", "--quick"]);
        assert_eq!(c.next().as_deref(), Some("--seed"));
        assert_eq!(c.parse::<u64>("--seed"), 7);
        assert_eq!(c.next().as_deref(), Some("--out"));
        assert_eq!(c.value("--out"), "x");
        assert_eq!(c.optional(|a| !a.starts_with("--")).as_deref(), Some("pos"));
        assert_eq!(c.next().as_deref(), Some("--metrics"));
        assert_eq!(c.optional(|a| !a.starts_with("--")), None);
        assert_eq!(c.next().as_deref(), Some("--quick"));
        assert_eq!(c.next(), None);
    }

    #[test]
    fn thread_counts_are_trimmed_integers() {
        let c = cli(&[]);
        assert_eq!(c.thread_count("--threads 3", " 3 "), 3);
    }
}
