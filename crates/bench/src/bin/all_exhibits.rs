//! Print the paper's exhibits: all sixteen in sequence (slow ones
//! last), or just the ones named.
//!
//! ```bash
//! cargo run --release -p bench --bin all_exhibits
//! cargo run --release -p bench --bin all_exhibits -- table1 figure2
//! cargo run --release -p bench --bin all_exhibits -- --list
//! ```

use bench::exhibits::EXHIBITS;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (name, _) in EXHIBITS {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    if args.is_empty() {
        for (name, render) in EXHIBITS {
            println!("\n================= {name} =================\n");
            print!("{}", render());
        }
        return ExitCode::SUCCESS;
    }
    // Resolve every name before rendering anything: a typo must not
    // cost the exhibits in front of it.
    let mut chosen = Vec::new();
    for arg in &args {
        match EXHIBITS.iter().find(|(name, _)| name == arg) {
            Some((_, render)) => chosen.push(render),
            None => {
                let names: Vec<&str> = EXHIBITS.iter().map(|(name, _)| *name).collect();
                eprintln!("unknown exhibit {arg:?}; valid: {}", names.join(" "));
                return ExitCode::from(2);
            }
        }
    }
    for render in chosen {
        print!("{}", render());
    }
    ExitCode::SUCCESS
}
