//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--scale test|repro] [--out DIR] <experiment>...
//! repro all
//! ```
//!
//! Experiments: `table1..table14`, `fig5`, `fig6`, `fig7`, `fig9`,
//! `fig10`, `fig11`, `timing`, `revert`, `policy`, and the extensions
//! `context`, `fonts` and `components`. An unknown experiment or scale
//! is a usage error (exit 2).

use sham_measure::{humanstudy, CharDbContext, Study};
use sham_perception::ExperimentConfig;
use sham_workload::{Workload, WorkloadConfig};
use std::io::Write as _;

struct Args {
    scale: String,
    out_dir: Option<String>,
    experiments: Vec<String>,
}

const USAGE: &str = "usage: repro [--scale test|repro] [--out DIR] <experiment>...\n\
     experiments: table1..table14 fig5 fig6 fig7 fig9 fig10 fig11 timing revert policy context fonts components all";

/// Prints `message` and the usage, and exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut scale = "repro".to_string();
    let mut out_dir = None;
    let mut experiments = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => match args.next() {
                Some(value) if value == "test" || value == "repro" => scale = value,
                Some(value) => usage_error(&format!("invalid value {value:?} for --scale")),
                None => usage_error("--scale needs a value"),
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(dir),
                None => usage_error("--out needs a directory"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                let known =
                    [CHARDB_EXPERIMENTS, STUDY_EXPERIMENTS, EXTENSION_EXPERIMENTS, &["all"]];
                if !known.iter().any(|names| names.contains(&other)) {
                    usage_error(&format!("unknown experiment {other:?}"));
                }
                experiments.push(other.to_string());
            }
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    Args { scale, out_dir, experiments }
}

const CHARDB_EXPERIMENTS: &[&str] =
    &["table1", "table2", "table3", "table4", "table5", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11"];
const STUDY_EXPERIMENTS: &[&str] = &[
    "table6", "table7", "table8", "table9", "table10", "table11", "table12", "table13",
    "table14", "timing", "revert", "policy",
];

/// Extension experiments beyond the paper's tables.
const EXTENSION_EXPERIMENTS: &[&str] = &["context", "fonts", "components"];

fn main() {
    let args = parse_args();
    let wants = |name: &str| {
        args.experiments.iter().any(|e| e == name || e == "all")
    };
    let needs_chardb = CHARDB_EXPERIMENTS.iter().any(|e| wants(e))
        || EXTENSION_EXPERIMENTS.iter().any(|e| wants(e));
    let needs_study = STUDY_EXPERIMENTS.iter().any(|e| wants(e));

    let mut output = String::new();
    let mut emit = |s: String| {
        println!("{s}");
        output.push_str(&s);
        output.push('\n');
    };

    let ctx = if needs_chardb || needs_study {
        eprintln!("[repro] building SimChar over the full repertoire …");
        Some(CharDbContext::create())
    } else {
        None
    };

    if let Some(ctx) = &ctx {
        if wants("table1") {
            emit(ctx.table1().render());
        }
        if wants("table2") {
            emit(ctx.table2().render());
        }
        if wants("table3") {
            emit(ctx.table3().render());
        }
        if wants("table4") {
            emit(ctx.table4().render());
        }
        if wants("table5") {
            emit(ctx.table5().render());
        }
        if wants("fig5") {
            emit(ctx.figure5());
        }
        if wants("fig6") {
            emit(ctx.figure6().render());
        }
        if wants("fig7") {
            emit(ctx.figure7());
        }
        if wants("fig9") {
            let outcome = humanstudy::experiment1(&ExperimentConfig::default());
            emit(humanstudy::render_outcome(
                "Figure 9: confusability score vs Δ (paper: Δ=4 mean 3.57/median 4; Δ=5 mean 2.57/median 2)",
                &outcome,
            )
            .render());
            emit(format!(
                "removed raters: {}, effective responses: {}, implied pay: {:.2} USD/h\n",
                outcome.removed_raters, outcome.effective_responses, outcome.hourly_rate_usd
            ));
        }
        if wants("fig10") {
            let ctx_ref = ctx;
            let outcome = humanstudy::experiment2(ctx_ref, &ExperimentConfig::default());
            emit(humanstudy::render_outcome(
                "Figure 10: confusability of Random / SimChar / UC (paper: SimChar mean > 4 > UC mean; both medians 4)",
                &outcome,
            )
            .render());
        }
        if wants("fig11") {
            emit(humanstudy::figure11(ctx, 3).render());
        }
        if wants("context") {
            emit(humanstudy::context_experiment(ctx).render());
        }
        if wants("fonts") {
            emit(ctx.font_sensitivity().render());
        }
        if wants("components") {
            emit(ctx.component_diagnostics().render());
        }
    }

    if needs_study {
        let ctx = ctx.as_ref().expect("chardb context built above");
        let config = match args.scale.as_str() {
            "test" => WorkloadConfig::test(),
            _ => WorkloadConfig::repro(),
        };
        eprintln!(
            "[repro] generating workload ({} benign domains) …",
            config.benign_ascii + config.benign_idns
        );
        let workload = Workload::generate(config);
        eprintln!("[repro] running measurement study …");
        let study = Study::run(workload, ctx.build.db.clone(), ctx.uc.clone());

        if wants("table6") {
            emit(study.table6().render());
        }
        if wants("table7") {
            emit(study.table7(8).render());
        }
        if wants("table8") {
            emit(study.table8().render());
        }
        if wants("table9") {
            emit(study.table9(5).render());
        }
        let needs_active = ["table10", "table11", "table12", "table13"]
            .iter()
            .any(|e| wants(e));
        if needs_active {
            let analysis = study.active_analysis();
            if wants("table10") {
                emit(study.table10(&analysis).render());
            }
            if wants("table11") {
                emit(study.table11(&analysis, 10).render());
            }
            if wants("table12") || wants("table13") {
                let (t12, t13) = study.table12_13(&analysis);
                if wants("table12") {
                    emit(t12.render());
                }
                if wants("table13") {
                    emit(t13.render());
                }
            }
        }
        if wants("table14") {
            emit(study.table14().render());
        }
        if wants("revert") {
            // The study's shared index already holds the HomoglyphDb
            // the detections came from — no rebuild, no clone.
            emit(study.revert_analysis(study.shared_db()).render());
        }
        if wants("policy") {
            emit(study.policy_analysis().render());
        }
        if wants("timing") {
            emit(study.timing().render());
        }
    }

    if let Some(dir) = args.out_dir {
        let path = std::path::Path::new(&dir);
        std::fs::create_dir_all(path).expect("create output dir");
        let file = path.join("repro_output.txt");
        let mut f = std::fs::File::create(&file).expect("create output file");
        f.write_all(output.as_bytes()).expect("write output");
        eprintln!("[repro] wrote {}", file.display());
    }
}
