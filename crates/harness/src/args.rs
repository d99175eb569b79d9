//! Minimal `--key value` argument parsing for the experiment binaries.
//!
//! No external CLI crate: experiments need exactly "override a few numeric
//! parameters and maybe a CSV path", and this keeps the dependency set to
//! the pre-approved list.

use std::collections::BTreeMap;

/// Parsed `--key value` pairs with typed, defaulted getters. A `--key`
/// followed by another `--token`, or by nothing, is a bare flag and reads
/// as `true`.
///
/// # Example
///
/// ```
/// use dsu_harness::Args;
///
/// let args = Args::from_iter(["--n", "1024", "--quick", "--threads", "1,2"]);
/// assert_eq!(args.usize("n", 64), 1024);
/// assert_eq!(args.usize("reps", 5), 5);
/// assert!(args.flag("quick"));
/// assert_eq!(args.thread_ladder(), vec![1, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: BTreeMap<String, String>,
}

impl Args {
    /// Parses the process's real arguments.
    ///
    /// # Panics
    ///
    /// Panics on a bare token (one not following a `--key`), to fail fast
    /// on typos.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses from any iterator of tokens (tests use string slices).
    ///
    /// # Panics
    ///
    /// Panics on malformed input.
    // Not the std trait: this parses `--key value` pairs and panics on
    // malformed input, which `FromIterator` must not.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I, S>(tokens: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut map = BTreeMap::new();
        let mut it = tokens.into_iter().map(Into::into).peekable();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --key, got {tok:?}"))
                .to_string();
            let value = it.next_if(|v| !v.starts_with("--")).unwrap_or_else(|| "true".into());
            map.insert(key, value);
        }
        Args { map }
    }

    /// Raw lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// `usize` parameter with default.
    ///
    /// # Panics
    ///
    /// Panics if present but unparsable.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.get(key).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
        })
    }

    /// `u64` parameter with default.
    ///
    /// # Panics
    ///
    /// Panics if present but unparsable.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.get(key).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
        })
    }

    /// `f64` parameter with default.
    ///
    /// # Panics
    ///
    /// Panics if present but unparsable.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.get(key).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| panic!("--{key} expects a number, got {v:?}"))
        })
    }

    /// Boolean flag: bare `--key` or `--key true|1|yes` (absent ⇒ false).
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    /// Thread counts to sweep: `--threads 1,2,4` or a default doubling
    /// ladder capped at the machine's parallelism.
    pub fn thread_ladder(&self) -> Vec<usize> {
        if let Some(spec) = self.get("threads") {
            return spec
                .split(',')
                .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("bad thread count {s:?}")))
                .collect();
        }
        let max = std::thread::available_parallelism().map_or(8, |n| n.get());
        let mut ladder = vec![1];
        while *ladder.last().unwrap() * 2 <= max {
            ladder.push(ladder.last().unwrap() * 2);
        }
        ladder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_defaults() {
        let a = Args::from_iter(["--n", "42", "--theta", "1.5", "--csv", "/tmp/x.csv"]);
        assert_eq!(a.usize("n", 7), 42);
        assert_eq!(a.usize("m", 7), 7);
        assert_eq!(a.f64("theta", 0.0), 1.5);
        assert_eq!(a.get("csv"), Some("/tmp/x.csv"));
        assert!(!a.flag("quick"));
    }

    #[test]
    fn explicit_thread_list() {
        let a = Args::from_iter(["--threads", "1,2, 8"]);
        assert_eq!(a.thread_ladder(), vec![1, 2, 8]);
    }

    #[test]
    fn default_thread_ladder_doubles() {
        let ladder = Args::default().thread_ladder();
        assert_eq!(ladder[0], 1);
        for w in ladder.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    #[should_panic(expected = "expected --key")]
    fn bare_token_rejected() {
        Args::from_iter(["oops"]);
    }

    #[test]
    fn bare_flag_does_not_swallow_the_next_key() {
        let a = Args::from_iter(["--quick", "--threads", "1,2"]);
        assert!(a.flag("quick"));
        assert_eq!(a.thread_ladder(), vec![1, 2]);
        let trailing = Args::from_iter(["--n", "3", "--quick"]);
        assert_eq!(trailing.usize("n", 0), 3);
        assert!(trailing.flag("quick"));
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn missing_value_rejected() {
        // A valueless numeric key parses as a flag, so reading it as a
        // number still fails fast.
        Args::from_iter(["--n"]).usize("n", 0);
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn bad_int_rejected() {
        let a = Args::from_iter(["--n", "banana"]);
        a.usize("n", 0);
    }
}
