//! Command-line parsing. Every option takes exactly one value
//! (`--seed 7`, `--trace 1`).

use crate::workloads::Kind;

pub const USAGE: &str = "usage: perfbench --workload <name>[,<name>...] [--workload <name>] \
[--seed <u64>] [--seconds <n>] [--trace <0|1>]
workloads: uniform-ops, rmat-components, keyed-stream, versioned-checkpoints, all";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workloads: Vec<Kind>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args { workloads: Vec::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = argv.into_iter();
    while let Some(tok) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match tok.as_str() {
            "--workload" => {
                for name in value("--workload")?.split(',') {
                    if name == "all" {
                        args.workloads.extend(Kind::ALL);
                    } else {
                        args.workloads.push(Kind::parse(name)?);
                    }
                }
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("--seed: not a u64: {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: not a positive number: {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("no --workload given".to_string());
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn full_argument_set_and_lists() {
        let a =
            parse(argv("--workload keyed-stream,rmat-components --seed 3 --seconds 10 --trace 1"))
                .unwrap();
        assert_eq!(a.workloads, vec![Kind::Keyed, Kind::Rmat]);
        assert!(a.trace);
        assert_eq!(a.seconds, 10.0);
        assert_eq!(parse(argv("--workload all")).unwrap().workloads, Kind::ALL.to_vec());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(argv("--seed 3")).is_err());
        assert!(parse(argv("--workload nope")).is_err());
        assert!(parse(argv("--workload all --trace yes")).is_err());
        assert!(parse(argv("--workload all --seed")).is_err());
        assert!(parse(argv("--workload all extra")).is_err());
    }
}
