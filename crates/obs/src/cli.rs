//! The workspace's one argument parser.
//!
//! `dbpsim`, `bench_all`, and `dbpreport` all take the same shape of
//! command line — a few boolean flags, a few valued options (possibly
//! repeated), and positionals (a subcommand, experiment names, or file
//! paths with stdin as the fallback). A [`CliSpec`] declares the
//! surface once; [`CliSpec::parse_or_exit`] gives every bin the same
//! behaviour: `--help`/`-h` prints a uniformly formatted help text to
//! stdout and exits 0, a usage error goes to stderr and exits 2.
//!
//! The parser itself ([`CliSpec::try_parse`]) is pure and fully
//! testable: it never touches the process environment or exits.

/// A boolean flag (`--md`) or valued option (`--chrome <path>`).
#[derive(Debug, Clone, Copy)]
pub struct Arg {
    /// The spelling, including leading dashes (`"--require-key"`).
    pub name: &'static str,
    /// Placeholder for the value in help output; empty for flags.
    pub value: &'static str,
    /// One-line description for help output.
    pub help: &'static str,
}

impl Arg {
    /// A boolean flag.
    pub const fn flag(name: &'static str, help: &'static str) -> Arg {
        Arg { name, value: "", help }
    }

    /// An option that consumes the next argument as its value.
    pub const fn opt(name: &'static str, value: &'static str, help: &'static str) -> Arg {
        Arg { name, value, help }
    }

    const fn takes_value(&self) -> bool {
        !self.value.is_empty()
    }
}

/// Declarative description of a bin's command-line surface.
#[derive(Debug, Clone, Copy)]
pub struct CliSpec {
    /// Binary name, used in help and error messages.
    pub bin: &'static str,
    /// One-line summary shown at the top of `--help`.
    pub about: &'static str,
    /// Description of the positional arguments (e.g.
    /// `"[file ...]  JSON documents (default: stdin)"`); empty if the
    /// bin takes none.
    pub positional: &'static str,
    /// Accepted flags and options, in help order.
    pub args: &'static [Arg],
}

/// The outcome of parsing: either the parsed arguments or a request for
/// help.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Parsed(Parsed),
    HelpRequested,
}

/// Parsed command line: flag/option occurrences plus positional files.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Parsed {
    seen: Vec<(String, Option<String>)>,
    /// Positional arguments in order.
    pub files: Vec<String>,
}

impl Parsed {
    /// Was this flag given at least once?
    pub fn flag(&self, name: &str) -> bool {
        self.seen.iter().any(|(n, _)| n == name)
    }

    /// The last value given for this option, if any.
    pub fn option(&self, name: &str) -> Option<&str> {
        self.seen.iter().rev().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    /// Every value given for this (repeatable) option, in order.
    pub fn options(&self, name: &str) -> Vec<&str> {
        self.seen.iter().filter(|(n, _)| n == name).filter_map(|(_, v)| v.as_deref()).collect()
    }
}

impl CliSpec {
    /// Render the uniform help text.
    pub fn help(&self) -> String {
        let mut out = format!("{} — {}\n\nusage: {}", self.bin, self.about, self.bin);
        if !self.args.is_empty() {
            out.push_str(" [options]");
        }
        if !self.positional.is_empty() {
            // `positional` is "<placeholder>  <description>" — the usage
            // line shows just the placeholder.
            let head = self.positional.split("  ").next().unwrap_or("").trim();
            out.push(' ');
            out.push_str(head);
        }
        out.push('\n');
        if !self.positional.is_empty() {
            out.push_str(&format!("\n  {}\n", self.positional));
        }
        if !self.args.is_empty() {
            out.push_str("\noptions:\n");
            let width = self
                .args
                .iter()
                .map(|a| a.name.len() + if a.takes_value() { a.value.len() + 3 } else { 0 })
                .max()
                .unwrap_or(0)
                .max("--help".len());
            for a in self.args {
                let lhs = if a.takes_value() {
                    format!("{} <{}>", a.name, a.value)
                } else {
                    a.name.to_string()
                };
                out.push_str(&format!("  {lhs:width$}  {}\n", a.help));
            }
            out.push_str(&format!("  {:width$}  {}\n", "--help", "show this help"));
        }
        out
    }

    /// Parse an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a one-line usage error for an unknown flag or a missing
    /// option value.
    pub fn try_parse<I>(&self, args: I) -> Result<Outcome, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = Parsed::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(Outcome::HelpRequested);
            }
            if let Some(spec) = self.args.iter().find(|a| a.name == arg) {
                if spec.takes_value() {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("{}: {} needs a value", self.bin, arg))?;
                    parsed.seen.push((arg, Some(value)));
                } else {
                    parsed.seen.push((arg, None));
                }
            } else if arg.starts_with('-') && arg != "-" {
                return Err(format!("{}: unknown argument `{arg}` (try --help)", self.bin));
            } else {
                parsed.files.push(arg);
            }
        }
        Ok(Outcome::Parsed(parsed))
    }

    /// Parse the process arguments; print help to stdout and exit 0 on
    /// `--help`, print a usage error to stderr and exit 2 on a bad
    /// command line.
    pub fn parse_or_exit(&self) -> Parsed {
        match self.try_parse(std::env::args().skip(1)) {
            Ok(Outcome::Parsed(p)) => p,
            Ok(Outcome::HelpRequested) => {
                print!("{}", self.help());
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
}

/// Read every named file — or stdin when `files` is empty — as
/// `(label, contents)` pairs. IO failures are reported per input
/// (messages carry no bin prefix; callers add their own), so bins can
/// keep going and exit non-zero at the end.
pub fn read_inputs(files: &[String]) -> Vec<(String, Result<String, String>)> {
    if files.is_empty() {
        let mut text = String::new();
        let result = std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
            .map(|_| text)
            .map_err(|e| format!("<stdin>: {e}"));
        return vec![("<stdin>".to_string(), result)];
    }
    files
        .iter()
        .map(|path| {
            let result = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
            (path.clone(), result)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: CliSpec = CliSpec {
        bin: "testbin",
        about: "exercise the parser",
        positional: "[file ...]  JSON documents (default: stdin)",
        args: &[
            Arg::flag("--md", "markdown output"),
            Arg::opt("--require-key", "key", "require a top-level key (repeatable)"),
            Arg::opt("--chrome", "path", "write a Chrome trace"),
        ],
    };

    fn parse(args: &[&str]) -> Result<Outcome, String> {
        SPEC.try_parse(args.iter().map(|s| (*s).to_string()))
    }

    fn parsed(args: &[&str]) -> Parsed {
        match parse(args).unwrap() {
            Outcome::Parsed(p) => p,
            Outcome::HelpRequested => panic!("unexpected help"),
        }
    }

    #[test]
    fn flags_options_and_files_separate() {
        let p = parsed(&["--md", "a.json", "--require-key", "x", "b.json"]);
        assert!(p.flag("--md"));
        assert!(!p.flag("--chrome"));
        assert_eq!(p.files, vec!["a.json", "b.json"]);
        assert_eq!(p.options("--require-key"), vec!["x"]);
    }

    #[test]
    fn repeated_options_keep_order_and_last_wins_for_option() {
        let p =
            parsed(&["--require-key", "a", "--require-key", "b", "--chrome", "x", "--chrome", "y"]);
        assert_eq!(p.options("--require-key"), vec!["a", "b"]);
        assert_eq!(p.option("--chrome"), Some("y"));
    }

    #[test]
    fn help_short_and_long() {
        assert_eq!(parse(&["-h"]).unwrap(), Outcome::HelpRequested);
        assert_eq!(parse(&["a.json", "--help"]).unwrap(), Outcome::HelpRequested);
    }

    #[test]
    fn unknown_flag_and_missing_value_are_usage_errors() {
        let err = parse(&["--nope"]).unwrap_err();
        assert!(err.contains("unknown argument `--nope`"), "{err}");
        let err = parse(&["--require-key"]).unwrap_err();
        assert!(err.contains("--require-key needs a value"), "{err}");
    }

    #[test]
    fn bare_dash_is_positional() {
        let p = parsed(&["-"]);
        assert_eq!(p.files, vec!["-"]);
    }

    #[test]
    fn help_text_lists_every_arg() {
        let h = SPEC.help();
        assert!(h.contains("testbin — exercise the parser"), "{h}");
        for a in SPEC.args {
            assert!(h.contains(a.name), "missing {} in:\n{h}", a.name);
        }
        assert!(h.contains("--help"), "{h}");
        assert!(h.contains("default: stdin"), "{h}");
    }
}
