//! `repro <name>… | all | list`: the one writer of `results/`.
//!
//! Every experiment in [`TABLE`] runs at exactly one size, the one its
//! committed file uses, and is deterministic (seeded generators, virtual
//! time, no wall clock), so CI deletes the files, runs `repro all` and
//! `git diff`s the directory. A size the record needs later is a new name
//! in the table, not an argument; for another scale there is `yafim-cli`
//! (`generate` takes one, then `mine`).
//!
//! Exit codes: `0` written, `1` a file could not be written or a manifest
//! broke [`RunManifest::check`], `2` unknown name. A failed assertion
//! inside an experiment (miners diverging, a replay bound exceeded) panics.

use std::process::ExitCode;
use yafim_cluster::RunManifest;

/// `writeln!` into a `String`, which cannot fail.
macro_rules! say {
    ($dst:expr $(, $($arg:tt)*)?) => {{
        use std::fmt::Write as _;
        let _ = writeln!($dst $(, $($arg)*)?);
    }};
}

#[path = "repro/ablations.rs"]
mod ablations;
#[path = "repro/chaos.rs"]
mod chaos;
#[path = "repro/figures.rs"]
mod figures;

/// Where the record lives, from any working directory.
const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// What an experiment hands back for `repro` to write.
enum Writes {
    /// `results/<name>.txt`.
    Report(fn() -> String),
    /// `results/<name>.txt` and `results/<stem>.manifest.json`.
    ReportAndManifest(&'static str, fn() -> (String, RunManifest)),
}
use Writes::{Report, ReportAndManifest};

/// Every experiment of the record, by name.
static TABLE: [(&str, Writes); 12] = [
    ("table1", Report(figures::table1)),
    ("fig3", Report(figures::fig3)),
    ("fig4", Report(figures::fig4)),
    ("fig5", Report(figures::fig5)),
    ("fig6", Report(figures::fig6)),
    ("ablation_broadcast", Report(ablations::broadcast)),
    ("ablation_cache", Report(ablations::cache)),
    (
        "ablation_matching",
        ReportAndManifest("phase2", ablations::matching),
    ),
    ("ablation_phase_combine", Report(ablations::phase_combine)),
    ("compare_miners", Report(figures::compare_miners)),
    ("chaos", ReportAndManifest("chaos", chaos::chaos)),
    ("chaos_e", ReportAndManifest("chaos_e", chaos::chaos_e)),
];

/// The files `name` writes, relative to `results/`.
fn files(name: &str, writes: &Writes) -> Vec<String> {
    let mut files = vec![format!("{name}.txt")];
    if let ReportAndManifest(stem, _) = writes {
        files.push(format!("{stem}.manifest.json"));
    }
    files
}

/// Run one experiment: its files' bytes in [`files`] order, or why its
/// manifest may not be written.
fn run(writes: &Writes) -> Result<Vec<String>, String> {
    match writes {
        Report(f) => Ok(vec![f()]),
        ReportAndManifest(_, f) => {
            let (report, manifest) = f();
            manifest.check()?;
            Ok(vec![report, format!("{}\n", manifest.to_json())])
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names = || TABLE.each_ref().map(|(name, _)| *name).join(" ");
    let selected: Vec<&(&str, Writes)> = match args.as_slice() {
        [] => {
            eprintln!("usage: repro <name>... | all | list\nnames: {}", names());
            return ExitCode::from(2);
        }
        [all] if all == "all" => TABLE.iter().collect(),
        [list] if list == "list" => {
            for (name, writes) in &TABLE {
                println!("{name}: {}", files(name, writes).join(" "));
            }
            return ExitCode::SUCCESS;
        }
        picked => {
            let mut selected = Vec::new();
            for arg in picked {
                let Some(entry) = TABLE.iter().find(|(name, _)| name == arg) else {
                    eprintln!("unknown experiment `{arg}`\nnames: {}", names());
                    return ExitCode::from(2);
                };
                selected.push(entry);
            }
            selected
        }
    };
    for (name, writes) in selected {
        let contents = match run(writes) {
            Ok(contents) => contents,
            Err(e) => {
                eprintln!("{name}: incoherent manifest: {e}");
                return ExitCode::from(1);
            }
        };
        for (file, bytes) in files(name, writes).iter().zip(contents) {
            if let Err(e) = std::fs::write(format!("{RESULTS}/{file}"), bytes) {
                eprintln!("results/{file}: {e}");
                return ExitCode::from(1);
            }
            println!("wrote results/{file}");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// No orphan file and no name without a file: what the table declares
    /// is what `results/` holds (`*.fault.json` are inputs, README.md is
    /// prose).
    #[test]
    fn the_table_declares_exactly_the_files_on_disk() {
        let declared: BTreeSet<String> = TABLE.iter().flat_map(|(n, w)| files(n, w)).collect();
        let on_disk: BTreeSet<String> = std::fs::read_dir(RESULTS)
            .expect("results/ exists")
            .map(|e| {
                e.expect("readable")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .filter(|f| f.ends_with(".txt") || f.ends_with(".manifest.json"))
            .collect();
        assert_eq!(declared, on_disk);
    }

    /// The three cheapest experiments, run here and compared with the
    /// committed bytes; CI's `repro all` + `git diff` covers the rest.
    #[test]
    fn cheap_experiments_regenerate_the_committed_bytes() {
        for wanted in ["table1", "ablation_broadcast", "fig6"] {
            let (name, writes) = TABLE.iter().find(|(n, _)| *n == wanted).expect("named");
            let contents = run(writes).expect("coherent");
            for (file, bytes) in files(name, writes).iter().zip(contents) {
                let committed = std::fs::read_to_string(format!("{RESULTS}/{file}"));
                assert_eq!(committed.expect("committed"), bytes, "results/{file}");
            }
        }
    }
}
