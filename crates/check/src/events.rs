//! Catalog and preset lints (`C…`): validation of the event namespace and
//! of derived-metric preset tables.
//!
//! | Rule | Severity | Finding |
//! |------|----------|---------|
//! | C001 | Error    | event name does not survive a parse round-trip |
//! | C002 | Error    | event carries duplicate qualifier keys |
//! | C003 | Error    | two catalog entries share one name |
//! | C004 | Error    | preset term references an event absent from the catalog |
//! | C005 | Warning  | preset coefficient with magnitude below `COEFF_EPS` |
//! | C006 | Warning  | preset with no terms |
//! | C007 | Error    | preset backward error is negative or non-finite |
//! | C008 | Warning  | catalog entry with an empty description |
//! | C009 | Error    | preset file does not parse |

use crate::diag::{Diagnostic, Severity};
use catalyze_events::{EventCatalog, EventName, PresetTable};
use std::collections::HashSet;

/// Coefficients below this magnitude are numerically indistinguishable from
/// the zero terms the definition stage is supposed to prune.
pub(crate) const COEFF_EPS: f64 = 1e-12;

/// Validates one event catalog. `name` labels the diagnostics.
pub fn check_catalog(name: &str, catalog: &EventCatalog) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    for (id, info) in catalog.iter() {
        let rendered = info.name.to_string();
        let loc = format!("catalog {name}, event {} ({rendered})", id.0);

        // C001: the canonical rendering must parse back to the same name —
        // otherwise the event cannot be addressed by string, which is how
        // both the CLI and the PAPI preset format refer to it.
        match rendered.parse::<EventName>() {
            Ok(parsed) if parsed == info.name => {}
            Ok(parsed) => out.push(Diagnostic::new(
                "C001",
                Severity::Error,
                loc.clone(),
                format!(
                    "name does not round-trip: renders as `{rendered}`, parses back as `{parsed}`"
                ),
            )),
            Err(e) => out.push(Diagnostic::new(
                "C001",
                Severity::Error,
                loc.clone(),
                format!("canonical rendering does not parse: {e}"),
            )),
        }

        // C002: duplicate qualifier keys make the qualifier lookup ambiguous.
        let mut keys: HashSet<&str> = HashSet::new();
        for q in &info.name.qualifiers {
            if !keys.insert(q.key.as_str()) {
                out.push(Diagnostic::new(
                    "C002",
                    Severity::Error,
                    loc.clone(),
                    format!("duplicate qualifier key `{}`", q.key),
                ));
            }
        }

        // C003: the catalog index maps strings to ids; duplicates shadow.
        if !seen.insert(rendered.clone()) {
            out.push(
                Diagnostic::new("C003", Severity::Error, loc.clone(), "duplicate catalog entry")
                    .with_suggestion("later entries shadow earlier ones in the name index"),
            );
        }

        // C008: descriptions are what `catalyze events` prints to humans.
        if info.description.trim().is_empty() {
            out.push(Diagnostic::new("C008", Severity::Warning, loc, "empty event description"));
        }
    }
    out
}

/// Validates a preset table against the catalog its events must live in.
/// `name` labels the diagnostics.
pub fn check_presets(name: &str, table: &PresetTable, catalog: &EventCatalog) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for preset in &table.presets {
        let loc_preset = format!("presets {name}, metric `{}`", preset.metric);

        // C006: an empty preset evaluates to the constant zero.
        if preset.terms.is_empty() {
            out.push(Diagnostic::new(
                "C006",
                Severity::Warning,
                loc_preset.clone(),
                "preset has no terms and always evaluates to zero",
            ));
        }

        // C007: backward error is a norm ratio; it cannot be negative and
        // a NaN would silently pass every composability threshold.
        if !preset.error.is_finite() || preset.error < 0.0 {
            out.push(Diagnostic::new(
                "C007",
                Severity::Error,
                loc_preset.clone(),
                format!("backward error {} is not a finite non-negative number", preset.error),
            ));
        }

        for (i, term) in preset.terms.iter().enumerate() {
            let loc = format!("{loc_preset}, term {i} ({})", term.event);

            // C004: a dangling event reference means the preset cannot be
            // evaluated on the architecture it claims to describe.
            if catalog.id_of(&term.event.to_string()).is_none() {
                out.push(
                    Diagnostic::new(
                        "C004",
                        Severity::Error,
                        loc.clone(),
                        "term references an event absent from the catalog",
                    )
                    .with_suggestion("regenerate the preset against the current catalog"),
                );
            }

            // C005: the definition stage prunes zero coefficients; terms
            // this small are rounding residue that survived by accident.
            if term.coefficient.abs() < COEFF_EPS {
                out.push(Diagnostic::new(
                    "C005",
                    Severity::Warning,
                    loc,
                    format!(
                        "coefficient {:e} is below {COEFF_EPS:e} and contributes nothing",
                        term.coefficient
                    ),
                ));
            }
        }
    }
    out
}

/// Parses a PAPI-style preset file and validates it against `catalog`.
/// A file that does not parse yields a single C009 error; a file that does
/// goes through [`check_presets`].
pub fn check_preset_file(name: &str, text: &str, catalog: &EventCatalog) -> Vec<Diagnostic> {
    match catalyze_events::from_papi_format(text) {
        Ok(table) => check_presets(name, &table, catalog),
        Err(e) => vec![Diagnostic::new(
            "C009",
            Severity::Error,
            format!("{name}:{}", e.line),
            format!("preset file does not parse: {}", e.reason),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyze_events::{EventDomain, EventInfo, Preset, PresetTerm};

    fn catalog_of(names: &[EventName]) -> EventCatalog {
        let mut cat = EventCatalog::new();
        for n in names {
            cat.add(EventInfo {
                name: n.clone(),
                description: "test event".to_string(),
                domain: EventDomain::Other,
            })
            .expect("unique test events");
        }
        cat
    }

    fn rules(ds: &[Diagnostic]) -> Vec<&str> {
        ds.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn clean_catalog_has_no_findings() {
        let cat = catalog_of(&[
            EventName::cpu("BR_INST_RETIRED"),
            EventName::cpu_q("FP_ARITH_INST_RETIRED", "SCALAR_DOUBLE"),
        ]);
        assert!(check_catalog("t", &cat).is_empty());
    }

    #[test]
    fn duplicate_qualifier_key_is_c002() {
        let name = EventName::cpu_q("EV", "device")
            .with_qualifier(catalyze_events::Qualifier::flag("device"));
        let cat = catalog_of(&[name]);
        assert!(rules(&check_catalog("t", &cat)).contains(&"C002"));
    }

    #[test]
    fn shadowed_entry_is_c003() {
        // `add` rejects duplicates, so inject one the way it happens in the
        // wild: through deserialization of a corrupted serialized catalog
        // (the name index is rebuilt, silently shadowing the first entry).
        let cat = catalog_of(&[EventName::cpu("EV")]);
        let mut v = serde_json::to_value(&cat).expect("catalog serializes");
        if let serde_json::Value::Object(pairs) = &mut v {
            for (key, val) in pairs.iter_mut() {
                if key.as_str() == "events" {
                    if let serde_json::Value::Array(events) = val {
                        let first = events[0].clone();
                        events.push(first);
                    }
                }
            }
        }
        let mut corrupt: EventCatalog =
            serde_json::from_value(&v).expect("corrupted catalog deserializes");
        corrupt.rebuild_index();
        assert_eq!(corrupt.len(), 2);
        assert!(rules(&check_catalog("t", &corrupt)).contains(&"C003"));
    }

    #[test]
    fn empty_description_is_c008() {
        let mut cat = EventCatalog::new();
        cat.add(EventInfo {
            name: EventName::cpu("EV"),
            description: "  ".to_string(),
            domain: EventDomain::Other,
        })
        .expect("unique");
        assert_eq!(rules(&check_catalog("t", &cat)), vec!["C008"]);
    }

    #[test]
    fn dangling_event_is_c004() {
        let cat = catalog_of(&[EventName::cpu("KNOWN")]);
        let table = PresetTable {
            title: "t".to_string(),
            presets: vec![Preset {
                metric: "M".to_string(),
                terms: vec![PresetTerm { coefficient: 1.0, event: EventName::cpu("UNKNOWN") }],
                error: 1e-16,
            }],
        };
        assert!(rules(&check_presets("t", &table, &cat)).contains(&"C004"));
    }

    #[test]
    fn tiny_coefficient_is_c005() {
        let cat = catalog_of(&[EventName::cpu("EV")]);
        let table = PresetTable {
            title: "t".to_string(),
            presets: vec![Preset {
                metric: "M".to_string(),
                terms: vec![PresetTerm { coefficient: 1e-15, event: EventName::cpu("EV") }],
                error: 0.0,
            }],
        };
        let ds = check_presets("t", &table, &cat);
        assert_eq!(rules(&ds), vec!["C005"]);
        assert_eq!(ds[0].severity, Severity::Warning);
    }

    #[test]
    fn preset_file_round_trip_and_parse_failure() {
        let cat = catalog_of(&[EventName::cpu("EV")]);
        let table = PresetTable {
            title: "t".to_string(),
            presets: vec![Preset {
                metric: "M".to_string(),
                terms: vec![PresetTerm { coefficient: 2.0, event: EventName::cpu("EV") }],
                error: 1e-16,
            }],
        };
        let text = catalyze_events::to_papi_format("test-sim", &table);
        assert!(check_preset_file("f", &text, &cat).is_empty());
        let ds = check_preset_file("f", "PRESET,CAT_X,LINEAR,notacoeff*EV", &cat);
        assert_eq!(rules(&ds), vec!["C009"]);
    }

    #[test]
    fn empty_preset_is_c006_and_bad_error_is_c007() {
        let cat = catalog_of(&[EventName::cpu("EV")]);
        let table = PresetTable {
            title: "t".to_string(),
            presets: vec![Preset { metric: "M".to_string(), terms: vec![], error: f64::NAN }],
        };
        let ds = check_presets("t", &table, &cat);
        let got = rules(&ds);
        assert!(got.contains(&"C006"));
        assert!(got.contains(&"C007"));
    }
}
