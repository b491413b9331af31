//! `repro` — regenerates the paper's figures from the command line.
//!
//! ```text
//! repro [--quick|--full] [fig13|fig14|fig15|fig16|ablate|all]
//! ```

use vex_experiments::{ablate, fig13, fig14, fig15, fig16, Scale, SweepRunner};
use vex_spec::SweepSpec;

fn main() {
    if let Err(e) = real_main() {
        eprintln!("repro: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::DEFAULT;
    let mut cmds: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--quick" => scale = Scale::QUICK,
            "--full" => scale = Scale::FULL,
            "--help" | "-h" => {
                eprintln!("usage: repro [--quick|--full] [fig13|fig14|fig15|fig16|ablate|all]");
                return Ok(());
            }
            c => cmds.push(c.to_string()),
        }
    }
    if cmds.is_empty() {
        cmds.push("all".to_string());
    }

    let wants = |c: &str| cmds.iter().any(|x| x == c || x == "all");
    let t0 = std::time::Instant::now();

    if wants("fig13") {
        let rows = fig13::run(scale)?;
        println!("{}", fig13::render(&rows));
    }

    if wants("fig14") || wants("fig15") || wants("fig16") {
        eprintln!("[repro] running the mix/technique sweep...");
        let outcome = SweepRunner::new(&SweepSpec::paper_grid(scale)).run()?;
        if wants("fig14") {
            println!("{}", fig14::render(&fig14::run(&outcome)?));
        }
        if wants("fig15") {
            println!("{}", fig15::render(&fig15::run(&outcome)?));
        }
        if wants("fig16") {
            println!("{}", fig16::render(&fig16::run(&outcome)?));
        }
    }

    if wants("ablate") {
        println!("{}", ablate::renaming(scale)?);
        println!("{}", ablate::comm_split(scale)?);
        println!("{}", ablate::timeslice(scale)?);
        println!("{}", ablate::thread_scaling(scale)?);
        println!("{}", ablate::mt_modes(scale)?);
    }

    eprintln!("[repro] done in {:.1}s", t0.elapsed().as_secs_f32());
    Ok(())
}
