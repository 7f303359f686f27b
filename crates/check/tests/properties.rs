//! Property tests for the input validator: shipped inputs stay clean, and
//! injected corruptions trigger exactly the rule written for them.

use catalyze::basis::Basis;
use catalyze_cat::{Domain, RunnerConfig};
use catalyze_check::{check_basis, check_preset_file, check_presets, study, Severity};
use catalyze_events::{
    EventCatalog, EventDomain, EventInfo, EventName, Preset, PresetTable, PresetTerm,
};
use proptest::prelude::*;

fn domain_strategy() -> impl Strategy<Value = Domain> {
    (0..6usize).prop_map(|i| Domain::ALL[i])
}

fn rules(ds: &[catalyze_check::Diagnostic]) -> Vec<String> {
    ds.iter().map(|d| d.rule.clone()).collect()
}

proptest! {
    /// Every shipped basis passes the basis lints with zero errors, for
    /// every domain. (`check_shipped` cross-checks the row counts against
    /// the benchmark kernel spaces.)
    #[test]
    fn shipped_bases_produce_zero_errors(domain in domain_strategy()) {
        let basis = study(domain, &RunnerConfig::default_sim()).basis;
        let ds = check_basis(domain.label(), &basis, None);
        let errors: Vec<_> = ds.iter().filter(|d| d.severity == Severity::Error).collect();
        prop_assert!(errors.is_empty(), "{domain}: {errors:?}");
    }

    /// Duplicating any column of a shipped basis triggers B005 (identical
    /// columns) — the corruption is caught no matter which column.
    #[test]
    fn duplicated_column_is_caught(domain in domain_strategy(), pick in 0.0f64..1.0) {
        let basis = study(domain, &RunnerConfig::default_sim()).basis;
        let dim = basis.matrix.cols();
        let src = ((pick * dim as f64) as usize).min(dim - 1);
        // Overwrite a different column with a copy of `src`.
        let dst = (src + 1) % dim;
        let mut cols: Vec<Vec<f64>> = (0..dim).map(|j| basis.matrix.col(j).to_vec()).collect();
        cols[dst] = cols[src].clone();
        let corrupted = Basis {
            labels: basis.labels.clone(),
            matrix: catalyze_linalg::Matrix::from_columns(&cols).expect("same shape"),
        };
        let ds = check_basis(domain.label(), &corrupted, None);
        prop_assert!(rules(&ds).contains(&"B005".to_string()), "{domain} src={src}: {ds:?}");
    }

    /// Dropping any row of a shipped basis breaks the declared row count
    /// and triggers B006.
    #[test]
    fn dropped_row_is_caught(domain in domain_strategy(), pick in 0.0f64..1.0) {
        let basis = study(domain, &RunnerConfig::default_sim()).basis;
        let rows = basis.matrix.rows();
        let drop = ((pick * rows as f64) as usize).min(rows - 1);
        let cols: Vec<Vec<f64>> = (0..basis.matrix.cols())
            .map(|j| {
                basis
                    .matrix
                    .col(j)
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, &v)| v)
                    .collect()
            })
            .collect();
        let corrupted = Basis {
            labels: basis.labels.clone(),
            matrix: catalyze_linalg::Matrix::from_columns(&cols).expect("same shape"),
        };
        let ds = check_basis(domain.label(), &corrupted, Some(rows));
        prop_assert!(rules(&ds).contains(&"B006".to_string()), "{domain} drop={drop}: {ds:?}");
    }

    /// A preset whose term references an event missing from the catalog is
    /// always caught as C004, whatever the event name looks like.
    #[test]
    fn dangling_preset_event_is_caught(base in "[A-Z][A-Z_]{2,18}", coeff in 1.0f64..16.0) {
        let catalog = {
            let mut c = EventCatalog::new();
            c.add(EventInfo {
                name: EventName::cpu("PRESENT_EVENT"),
                description: "the only real event".into(),
                domain: EventDomain::Other,
            })
            .expect("unique");
            c
        };
        let dangling = EventName::cpu(format!("MISSING_{base}"));
        let table = PresetTable {
            title: "t".into(),
            presets: vec![Preset {
                metric: "M".into(),
                terms: vec![
                    PresetTerm { coefficient: coeff, event: EventName::cpu("PRESENT_EVENT") },
                    PresetTerm { coefficient: coeff, event: dangling },
                ],
                error: 1e-16,
            }],
        };
        let ds = check_presets("t", &table, &catalog);
        prop_assert_eq!(&rules(&ds), &vec!["C004".to_string()], "{:?}", ds);
    }

    /// Round-tripping an arbitrary valid preset table through the PAPI file
    /// format never invents diagnostics: what was clean stays clean.
    #[test]
    fn papi_round_trip_stays_clean(
        n_terms in 1usize..5,
        coeffs in proptest::collection::vec(-8.0f64..8.0, 5),
    ) {
        let mut catalog = EventCatalog::new();
        let mut terms = Vec::new();
        for (i, &c) in coeffs.iter().enumerate().take(n_terms) {
            let name = EventName::cpu(format!("EV_{i}"));
            catalog
                .add(EventInfo {
                    name: name.clone(),
                    description: format!("event {i}"),
                    domain: EventDomain::Other,
                })
                .expect("unique");
            // A coefficient inside C005's epsilon would (correctly) warn;
            // keep the generated table in the clean regime.
            prop_assume!(c.abs() >= 1e-6);
            terms.push(PresetTerm { coefficient: c, event: name });
        }
        let table = PresetTable {
            title: "round-trip".into(),
            presets: vec![Preset { metric: "Generated Metric".into(), terms, error: 1e-16 }],
        };
        prop_assert!(check_presets("t", &table, &catalog).is_empty());
        let text = catalyze_events::to_papi_format("prop-sim", &table);
        let ds = check_preset_file("t", &text, &catalog);
        prop_assert!(ds.is_empty(), "{:?}", ds);
    }
}
