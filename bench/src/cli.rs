//! The arguments both binaries take for one run.

use crate::workload::{self, Workload};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
}

/// Parses `--workload <name> [--seed n] [--seconds s]`. The acceptance
/// driver passes `--seconds`; it is checked and ignored, because a run's
/// length is fixed by the operation counts in [`workload::WORKLOADS`].
pub fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    workload::find(value)
                        .ok_or_else(|| format!("unknown workload `{value}` (one of {names:?})"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => drop(number()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload <name> is required")?;
    Ok(RunArgs { workload, seed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let a = parse_run(&args("--workload large --seed 7 --seconds 25")).unwrap();
        assert_eq!((a.workload.name, a.seed), ("large", 7));
        assert_eq!(parse_run(&args("--workload small")).unwrap().seed, 1);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_run(&args("--seed 1")).is_err());
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--workload small --seed x")).is_err());
        assert!(parse_run(&args("--workload small --seed")).is_err());
        assert!(parse_run(&args("--workload small --seconds soon")).is_err());
        assert!(parse_run(&args("--workload small --fast 1")).is_err());
    }
}
