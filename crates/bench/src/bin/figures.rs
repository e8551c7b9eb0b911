//! Regenerates the paper's evaluation figures.
//!
//! Usage:
//!   figures                 # all figures, paper scale (5000 flows)
//!   figures --quick         # all figures, reduced scale
//!   figures fig11a fig12d   # selected figures
//!   figures table2 calib    # the capability matrix / calibration anchors

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick {
        bench::Scale::quick()
    } else {
        bench::Scale::full()
    };
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();

    for (name, driver) in bench::SECTIONS {
        if wanted.is_empty() || wanted.contains(&name) {
            let t0 = std::time::Instant::now();
            print!("{}", driver(scale));
            eprintln!("[{name} took {:.1?}]", t0.elapsed());
            println!();
        }
    }
}
