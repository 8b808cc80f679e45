//! The options `e2e` and `layers` share; the driver appends
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use std::path::PathBuf;

use crate::host::HostShape;
use crate::run::{Env, GOLDEN_SEED};

#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// One workload (the driver's contract); all six when absent.
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub light: PathBuf,
    pub bench_dir: PathBuf,
    /// `e2e graph` only: where to write the edge list.
    pub out: Option<PathBuf>,
}

pub fn parse(args: &[String]) -> Result<Opts, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let mut o = Opts {
        workload: None,
        seed: GOLDEN_SEED,
        // Runs started by hand measure as long as the driver's do.
        seconds: crate::catalog::RUN_SECONDS as f64,
        trace: false,
        light: target.join("release").join("light"),
        bench_dir: "benchmark".into(),
        out: None,
    };
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{key} needs a value"));
        match key.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?}: 0 or 1")),
                }
            }
            "--light" => o.light = value()?.into(),
            "--bench-dir" => o.bench_dir = value()?.into(),
            "--out" => o.out = Some(value()?.into()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

impl Opts {
    pub fn env(&self) -> Env {
        // `e2e` and `layers` are built into one directory.
        let e2e = std::env::current_exe()
            .map(|exe| exe.with_file_name("e2e"))
            .unwrap_or_else(|_| "e2e".into());
        Env {
            light: self.light.clone(),
            e2e,
            bench_dir: self.bench_dir.clone(),
            host: HostShape::detect(),
            seed: self.seed,
            seconds: self.seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_contract() {
        let o = parse(&args(
            "--workload serve_point --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("serve_point"));
        assert_eq!((o.seed, o.seconds, o.trace), (42, 10.0, true));
        let d = parse(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.trace), (None, GOLDEN_SEED, false));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--workload",
            "--nope 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
