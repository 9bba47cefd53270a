//! The benchmark's correctness gate must be able to fail: a perturbed op
//! is counted as failed, and only that op; unperturbed passes match the
//! pinned references. `BENCHMARK.json` declares exactly what the
//! benchmark emits. The fleet degradation contract's known violations at
//! other fleet seeds are pinned, so that a fix, or a new violation, shows.

use irs_fleet::run_campaign;
use irs_perfbench::digest::{failed_ops, parse_references, run_digest, REFERENCES};
use irs_perfbench::trace::ROOT;
use irs_perfbench::workloads::{
    fleet_cells, fleet_spec, paper_grid_cells, Cell, Kind, Workload, FLEET_SEED, PAPER_SEEDS,
};
use irs_perfbench::{END_TO_END, PER_LAYER};

fn reference(kind: Kind, slot: u64) -> Vec<u64> {
    parse_references(REFERENCES).expect("references parse")[kind.name()][&slot].clone()
}

#[test]
fn a_cell_run_with_another_seed_counts_as_exactly_one_failed_op() {
    const OPS: usize = 12;
    const PERTURBED: usize = 5;
    let w = Workload {
        kind: Kind::PaperGrid,
        slot: 0,
        jobs: 1,
    };
    let got: Vec<Option<u64>> = paper_grid_cells(w.input_seed(), PAPER_SEEDS)[..OPS]
        .iter()
        .enumerate()
        .map(|(i, &cell)| {
            let cell = if i == PERTURBED {
                Cell {
                    seed: cell.seed + 1,
                    ..cell
                }
            } else {
                cell
            };
            Some(run_digest(&cell.scenario().run()))
        })
        .collect();
    assert_eq!(
        failed_ops(&reference(Kind::PaperGrid, 0)[..OPS], &got),
        vec![PERTURBED]
    );
}

#[test]
fn unperturbed_passes_match_their_references() {
    for kind in Kind::ALL {
        let w = Workload {
            kind,
            slot: 0,
            jobs: 2,
        };
        let pass = w.pass(&w.setup(), ROOT);
        assert!(
            failed_ops(&reference(kind, 0), &pass.checked()).is_empty(),
            "{} slot 0 diverged from its pinned reference",
            kind.name()
        );
    }
}

#[test]
fn benchmark_json_declares_every_emitted_metric_and_workload() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let decl =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(text.contains(&decl), "BENCHMARK.json lacks {decl}");
    }
    assert_eq!(
        text.matches("\"better\"").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for kind in Kind::ALL {
        assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\"", kind.name())));
    }
}

/// `fleet-churn` runs the published campaign at [`FLEET_SEED`], where every
/// cell keeps the degradation contract. At these other fleet seeds the
/// campaign breaks it (IRS honest p95 above vanilla × 1.15; op 0 =
/// first-fit/clean, 2 = interference-aware/clean, 9 = first-fit/evade, all
/// at overcommit 1.5). That is a defect of the simulated
/// system, not of the benchmark; when it is fixed this test fails, and
/// `fleet-churn` can take its campaign seed from `--seed` again.
#[test]
fn fleet_contract_holds_at_the_published_seed_and_is_known_broken_elsewhere() {
    let broken_cells = |seed: u64| -> Vec<usize> {
        let report = run_campaign(&fleet_spec(seed, 2));
        fleet_cells(&report)
            .iter()
            .enumerate()
            .filter(|(_, &(_, holds))| !holds)
            .map(|(i, _)| i)
            .collect()
    };
    assert_eq!(broken_cells(FLEET_SEED), Vec::<usize>::new());
    for (seed, known) in [(5, vec![0, 2]), (6, vec![0]), (7, vec![2, 9]), (14, vec![0])] {
        assert_eq!(broken_cells(seed), known, "fleet seed {seed}");
    }
}
