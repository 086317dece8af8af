//! `ledger`: the compiled half of the netanom benchmark (see README.md).
//! `run.py` drives it; each subcommand is one step of a workload run.

mod gen;
mod load;
mod replay;
mod serve;
mod subspace;
mod trace;
mod traced;

use std::fs;
use std::path::PathBuf;

fn arg<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("{name} is required"))
}

fn path_arg(args: &[String], name: &str) -> Result<PathBuf, String> {
    arg(args, name).map(PathBuf::from)
}

fn num_arg<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    arg(args, name)?
        .parse()
        .map_err(|_| format!("{name} must be a number"))
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gen-m484") => {
            let (net, links) = gen::m484(num_arg(args, "--seed")?);
            gen::write_network_files(&path_arg(args, "--out")?, &net, &links)
        }
        Some("gen-tenants") => {
            gen::write_tenants(&path_arg(args, "--out")?, num_arg(args, "--seed")?)
        }
        Some("reference-m484") => {
            let out = replay::reference(&path_arg(args, "--dir")?)?;
            let dest = path_arg(args, "--out")?;
            fs::write(&dest, out).map_err(|e| format!("writing {}: {e}", dest.display()))
        }
        Some("serve-load") => {
            let json = load::run(
                arg(args, "--addr")?,
                &path_arg(args, "--tenants")?,
                &path_arg(args, "--ckpt-dir")?,
                path_arg(args, "--reference-cache").ok().as_deref(),
                arg(args, "--mode")?,
                num_arg(args, "--seconds")?,
            )?;
            println!("{json}");
            Ok(())
        }
        Some("trace") => {
            let mut spans = String::new();
            let metrics = match arg(args, "--workload")? {
                "replay-m484" | "distributed-m484" => {
                    let reference = path_arg(args, "--reference")?;
                    let want = fs::read_to_string(&reference)
                        .map_err(|e| format!("reading {}: {e}", reference.display()))?;
                    let dir = path_arg(args, "--dir")?;
                    if arg(args, "--workload")? == "replay-m484" {
                        traced::replay(&dir, &want, &mut spans)?
                    } else {
                        traced::distributed(&dir, &want, &mut spans)?
                    }
                }
                "serve-tenants" => traced::serve(
                    &path_arg(args, "--dir")?,
                    &path_arg(args, "--ckpt-dir")?,
                    &mut spans,
                )?,
                other => return Err(format!("unknown workload {other:?}")),
            };
            let dest = path_arg(args, "--spans")?;
            fs::write(&dest, spans).map_err(|e| format!("writing {}: {e}", dest.display()))?;
            let fields: Vec<String> = metrics
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            println!("{{{}}}", fields.join(", "));
            Ok(())
        }
        _ => Err(
            "usage: ledger gen-m484|gen-tenants|reference-m484|serve-load|trace ...".to_string(),
        ),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("ledger: {e}");
        std::process::exit(1);
    }
}
