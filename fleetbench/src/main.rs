//! `fleetbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload once and prints, as the last line of standard
//! output, `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Exits non-zero on bad arguments or when the run cannot
//! start.

use fleetbench::{fleet_config, run, smoke_fleet_config, Params, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: fleetbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--smoke]",
        names.join("|")
    )
}

fn parse() -> Result<Params, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--smoke" => smoke = true,
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Params {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        fleet: if smoke {
            smoke_fleet_config(seed)
        } else {
            fleet_config(seed)
        },
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn main() -> ExitCode {
    let params = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&params) {
        Ok(outcome) => {
            for e in &outcome.errors {
                eprintln!("fleetbench: {e}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::FAILURE
        }
    }
}
