//! The repo benchmark. See `../README.md`.
//!
//! ```text
//! csb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! csb-benchmark run [--seed <n>] [--seconds <s>] [--workload <name>] [--trace <0|1>] [--smoke] [--out <file>]
//! csb-benchmark compare <a.json> <b.json>
//! ```

mod check;
mod compare;
mod inputs;
mod layers;
mod manifest;
mod metrics;
mod orchestrate;
mod plan;
mod probe;
mod provenance;
mod run_one;
mod section;
mod serve;
mod stats;

use plan::{Plan, Workload, RUN_SECONDS};
use std::process::ExitCode;

/// Errors that end a run: the program's own, I/O, or a violated expectation
/// of the harness stated as text.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// `--flag value` pairs and bare `--switch`es after the subcommand.
pub struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    const SWITCHES: [&'static str; 1] = ["--smoke"];

    pub fn parse(args: &[String], known: &[&str]) -> Res<Flags> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag:?} (expected one of {known:?})").into());
            }
            let value = if Self::SWITCHES.contains(&flag.as_str()) {
                None
            } else {
                Some(it.next().ok_or_else(|| format!("{flag} needs a value"))?.clone())
            };
            pairs.push((flag.clone(), value));
        }
        Ok(Flags { pairs })
    }

    pub fn has(&self, flag: &str) -> bool {
        self.pairs.iter().any(|(f, _)| f == flag)
    }

    pub fn get(&self, flag: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    pub fn number(&self, flag: &str, default: u64) -> Res<u64> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: {v:?} is not a whole number").into()),
        }
    }

    pub fn workload(&self) -> Res<Option<Workload>> {
        self.get("--workload")
            .map(|name| {
                Workload::parse(name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("--workload: {name:?} is not one of {names:?}").into()
                })
            })
            .transpose()
    }

    /// `--seconds`, within what the contract allows one run to measure.
    pub fn seconds(&self) -> Res<u64> {
        match self.number("--seconds", RUN_SECONDS)? {
            s @ 1..=60 => Ok(s),
            s => Err(format!("--seconds: {s} is outside 1..=60").into()),
        }
    }

    pub fn trace(&self) -> Res<Option<bool>> {
        match self.get("--trace") {
            None => Ok(None),
            Some("0") => Ok(Some(false)),
            Some("1") => Ok(Some(true)),
            Some(v) => Err(format!("--trace: {v:?} is neither 0 nor 1").into()),
        }
    }
}

fn one_run(args: &[String]) -> Res<()> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace", "--smoke"])?;
    let workload = flags.workload()?.ok_or("--workload is required")?;
    let threads = provenance::threads();
    rayon::ThreadPoolBuilder::new().num_threads(threads).build_global()?;
    let plan = Plan::new(
        workload,
        flags.number("--seed", 0)?,
        flags.seconds()?,
        flags.has("--smoke"),
        flags.trace()?.unwrap_or(false),
        threads,
    );
    run_one::run(&plan)
}

fn dispatch(args: &[String]) -> Res<ExitCode> {
    match args.first().map(String::as_str) {
        Some("run") => orchestrate::run(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        _ => one_run(args).map(|()| ExitCode::SUCCESS),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("csb-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_the_driver_command_line() {
        let known = ["--workload", "--seed", "--seconds", "--trace", "--smoke"];
        let f = Flags::parse(
            &args("--workload gen_mem --seed 9 --seconds 5 --trace 1 --smoke"),
            &known,
        )
        .unwrap();
        assert_eq!(f.workload().unwrap(), Some(Workload::GenMem));
        assert_eq!(f.number("--seed", 0).unwrap(), 9);
        assert_eq!(f.seconds().unwrap(), 5);
        assert_eq!(f.trace().unwrap(), Some(true));
        assert!(f.has("--smoke"));
        assert!(Flags::parse(&args("--bogus 1"), &known).is_err());
        assert!(Flags::parse(&args("--seed"), &known).is_err());
        let f = Flags::parse(&args("--workload nope --seconds 0 --trace 2"), &known).unwrap();
        assert!(f.workload().is_err() && f.seconds().is_err() && f.trace().is_err());
    }
}
