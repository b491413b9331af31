//! `bench-gate` — the paired throughput gate: times a parent and a
//! change binary on the same host and exits 1 when the change is slower.
//!
//! ```text
//! bench-gate PARENT CHANGE [-- ARGS...]
//! ```
//!
//! Runs `PARENT ARGS...` and `CHANGE ARGS...` once per round for
//! [`ROUNDS`] rounds, the parent first in odd rounds and the change
//! first in even ones, and times each process from spawn to exit. The
//! children's stdout is discarded. It prints one line per round and a
//! `PASS` or `FAIL` line; a fail also prints a GitHub workflow `::error`
//! annotation. The verdict is [`vex_bench::gate::judge`]'s. Exit status:
//! 0 on a pass, 1 on a regression, 2 on a usage error or a failed run,
//! which prints that run's exit status and stderr.

use std::process::{exit, Command, Stdio};
use std::time::Instant;
use vex_bench::gate::{judge, FLOOR, ROUNDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (bins, child_args) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None => (&args[..], &[][..]),
    };
    let [parent, change] = bins else {
        eprintln!("usage: bench-gate PARENT CHANGE [-- ARGS...]");
        exit(2);
    };

    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 1..=ROUNDS {
        let (parent_s, change_s) = if round % 2 == 1 {
            let p = time(parent, child_args);
            (p, time(change, child_args))
        } else {
            let c = time(change, child_args);
            (time(parent, child_args), c)
        };
        println!(
            "round {round:>2}: parent {parent_s:.3} s  change {change_s:.3} s  ratio {:.3}",
            change_s / parent_s
        );
        rounds.push((parent_s, change_s));
    }

    let g = judge(&rounds);
    let summary = format!(
        "median ratio {:.3}, lower quartile {:.3}, change slower in {}/{ROUNDS} rounds \
         (fails above a median of {:.2} with a lower quartile above 1)",
        g.median,
        g.lower_quartile,
        g.slower,
        1.0 + FLOOR
    );
    if g.fail {
        println!("bench-gate: FAIL — {summary}");
        println!(
            "::error title=throughput regression::{change} is slower than {parent}: {summary}"
        );
        exit(1);
    }
    println!("bench-gate: PASS — {summary}");
}

/// Wall seconds of one run of `bin` with `args`, from spawn to exit.
fn time(bin: &str, args: &[String]) -> f64 {
    let start = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output();
    let secs = start.elapsed().as_secs_f64();
    match out {
        Ok(out) if out.status.success() => secs,
        Ok(out) => {
            eprintln!("bench-gate: `{bin}` failed ({})", out.status);
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            exit(2);
        }
        Err(e) => {
            eprintln!("bench-gate: cannot run `{bin}`: {e}");
            exit(2);
        }
    }
}
