//! The one argv reader the binaries share.
//!
//! [`Argv`] yields flags in order and takes each flag's value, parsed
//! with [`FromStr`]. `--help`/`-h` print the usage on stdout and exit 0.
//! Every bad argument goes through [`usage_exit`] (`error: <msg>` and the
//! usage on stderr, exit 2) in one wording: `--flag needs a value`,
//! `malformed --flag "raw"`, `unknown argument "--x"`.

use std::str::FromStr;

/// Prints `error: <message>` and `usage` on stderr and exits with
/// status 2.
pub fn usage_exit(usage: &str, message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// A binary's arguments, read flag by flag against its usage text.
pub struct Argv {
    args: Box<dyn Iterator<Item = String>>,
    usage: &'static str,
}

impl Argv {
    /// The process's arguments, program name skipped.
    pub fn from_env(usage: &'static str) -> Argv {
        Argv {
            args: Box::new(std::env::args().skip(1)),
            usage,
        }
    }

    /// The next flag, or `None` once the arguments are used up.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.args.next()?;
        if flag == "--help" || flag == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(flag)
    }

    /// The value following `flag`, verbatim.
    pub fn value(&mut self, flag: &str) -> String {
        self.parse(flag)
    }

    /// The value following `flag`, parsed.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T {
        let value = self.take(flag);
        value.unwrap_or_else(|message| self.fail(&message))
    }

    /// The usage error for an argument no flag matched.
    pub fn unknown(&self, arg: &str) -> ! {
        self.fail(&format!("unknown argument {arg:?}"))
    }

    /// A usage error against this binary's usage text.
    pub fn fail(&self, message: &str) -> ! {
        usage_exit(self.usage, message)
    }

    fn take<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self
            .args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse().map_err(|_| format!("malformed {flag} {raw:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroUsize;

    fn argv(args: &'static [&'static str]) -> Argv {
        Argv {
            args: Box::new(args.iter().map(|a| a.to_string())),
            usage: "usage: test",
        }
    }

    #[test]
    fn yields_flags_and_takes_values_verbatim() {
        let mut args = argv(&["--seed", "7", "--list", "--out", "--list"]);
        assert_eq!(args.next_flag().as_deref(), Some("--seed"));
        assert_eq!(args.parse::<u64>("--seed"), 7);
        assert_eq!(args.next_flag().as_deref(), Some("--list"));
        assert_eq!(args.next_flag().as_deref(), Some("--out"));
        assert_eq!(args.value("--out"), "--list", "the flag owns its value");
        assert_eq!(args.next_flag(), None);
    }

    #[test]
    fn missing_and_malformed_values_are_worded_once() {
        let mut args = argv(&["x7", "0"]);
        let malformed = args.take::<u64>("--seed");
        assert_eq!(malformed.unwrap_err(), "malformed --seed \"x7\"");
        let zero = args.take::<NonZeroUsize>("--threads");
        assert_eq!(zero.unwrap_err(), "malformed --threads \"0\"");
        let missing = args.take::<String>("--out");
        assert_eq!(missing.unwrap_err(), "--out needs a value");
    }
}
