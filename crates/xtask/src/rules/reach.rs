//! R010 — call-graph-aware panic escalation.
//!
//! R001 asks "is this panic site annotated"; R010 asks the sharper
//! question "can a long-running service request actually hit it". The
//! entry set is declared here, not inferred:
//!
//! * `AnalysisRequest::run` — the library analysis pipeline;
//! * `SimRequest::run` — the one way to run a CAT benchmark domain;
//! * the CLI entry point (`cli` crate free `main`).
//!
//! Every non-test library function transitively reachable from an entry
//! (per the approximate call graph in [`crate::graph`]) is scanned for:
//!
//! * **panic sites** — `.unwrap()` / `.expect()` calls and `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` macros (same detection as
//!   R001);
//! * **caller-controlled indexing** — a bracket-index expression whose
//!   index mentions a *parameter of the enclosing function*. Plain
//!   internal indexing (`m.data[k]` over a locally computed `k`) is
//!   deliberately out of scope: the 200+ such sites in the numeric kernels
//!   are bounds-established loops, and flagging them would bury the
//!   signal. A parameter flowing through a local before indexing is a
//!   known false negative (documented in DESIGN.md §7).
//!
//! Each finding carries the witness call chain from the entry point.
//! Suppression kind: `reachable_panic` — sites that are both annotated for
//! R001 and reachable need the multi-kind form
//! `// lint: allow(panic, reachable_panic): <reason>`.

use super::Finding;
use crate::graph::{FileAnalysis, WorkspaceGraph};
use crate::lexer::TokenKind;

const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
/// Keyword idents that can precede `[` without it being an index
/// expression (`return [a, b]` is an array literal).
const NOT_INDEX_PREV: [&str; 10] =
    ["return", "in", "else", "match", "if", "while", "break", "move", "mut", "ref"];

/// The declared service entry points, as indices into `graph.fns`.
pub fn entries(graph: &WorkspaceGraph) -> Vec<usize> {
    graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            (f.name == "run"
                && matches!(f.owner.as_deref(), Some("AnalysisRequest" | "SimRequest")))
                || (f.crate_name == "cli" && f.owner.is_none() && f.name == "main")
        })
        .map(|(i, _)| i)
        .collect()
}

/// Runs R010 over every function reachable from the entry set.
pub fn check(analyses: &[FileAnalysis<'_>], graph: &WorkspaceGraph) -> Vec<(usize, Finding)> {
    let parent = graph.reachable_from(&entries(graph));
    let mut out = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if parent[i].is_none() || f.is_test {
            continue;
        }
        let Some((open, close)) = f.body else { continue };
        let fa = &analyses[f.file];
        if !fa.file.role.panic_and_cast_rules_apply() {
            continue; // binaries may panic at the edge of the process
        }
        let chain = graph.chain_to(&parent, i);
        for c in open + 1..close {
            if fa.ctx.code_in_test(c) {
                continue;
            }
            let t = fa.ctx.code_text(c);
            let prev = if c == 0 { "" } else { fa.ctx.code_text(c - 1) };
            if PANIC_METHODS.contains(&t) && prev == "." && fa.ctx.code_text(c + 1) == "(" {
                out.push((f.file, finding(fa, c, format!("`.{t}()` may panic"), &chain)));
            } else if PANIC_MACROS.contains(&t) && fa.ctx.code_text(c + 1) == "!" && prev != "." {
                out.push((f.file, finding(fa, c, format!("`{t}!` panics"), &chain)));
            } else if t == "[" {
                if let Some(p) = caller_controlled_index(fa, c, prev, &f.params) {
                    out.push((
                        f.file,
                        finding(
                            fa,
                            p,
                            format!(
                                "index expression uses caller-controlled parameter `{}` \
                                 and may panic out of bounds",
                                fa.ctx.code_text(p)
                            ),
                            &chain,
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// When the `[` at `c` opens an index expression whose index mentions a
/// parameter of the enclosing function, returns the code index of the
/// first such parameter mention.
fn caller_controlled_index(
    fa: &FileAnalysis<'_>,
    c: usize,
    prev: &str,
    params: &[String],
) -> Option<usize> {
    if params.is_empty() {
        return None;
    }
    // Expression position: the bracket follows a value (identifier, `)`,
    // or `]`), not a type/pattern/attribute context.
    let prev_is_value = prev == ")"
        || prev == "]"
        || (fa.ctx.code_token(c - 1).map(|t| t.kind) == Some(TokenKind::Ident)
            && !NOT_INDEX_PREV.contains(&prev));
    if c == 0 || !prev_is_value {
        return None;
    }
    // Find the matching `]` and scan the index expression for parameters.
    let mut depth = 0usize;
    let mut d = c;
    while d < fa.ctx.code.len() {
        match fa.ctx.code_text(d) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            t => {
                if fa.ctx.code_token(d).map(|t| t.kind) == Some(TokenKind::Ident)
                    && params.iter().any(|p| p == t)
                    && fa.ctx.code_text(d.wrapping_sub(1)) != "."
                    && fa.ctx.code_text(d.wrapping_sub(1)) != "::"
                {
                    return Some(d);
                }
            }
        }
        d += 1;
    }
    None
}

fn finding(fa: &FileAnalysis<'_>, c: usize, what: String, chain: &str) -> Finding {
    Finding {
        kind: "reachable_panic",
        diag: fa
            .ctx
            .diagnostic_at(c, "R010", format!("{what}; reachable from service entry: {chain}"))
            .with_suggestion(
                "return a typed error along this path, or annotate with \
                 `// lint: allow(reachable_panic): <reason>`",
            ),
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::{FileAnalysis, WorkspaceFile, WorkspaceGraph};
    use crate::rules::role_of;

    fn run(files: &[(&str, &str)]) -> Vec<(usize, String)> {
        let files: Vec<WorkspaceFile> = files
            .iter()
            .map(|(rel, src)| WorkspaceFile {
                rel: rel.to_string(),
                src: src.to_string(),
                role: role_of(rel),
            })
            .collect();
        let analyses: Vec<FileAnalysis<'_>> = files.iter().map(FileAnalysis::new).collect();
        let graph = WorkspaceGraph::build(&analyses);
        super::check(&analyses, &graph)
            .into_iter()
            .map(|(_, f)| (f.diag.span.map(|s| s.line).unwrap_or(0), f.diag.message))
            .collect()
    }

    #[test]
    fn unwrap_reachable_from_runner_is_flagged_with_chain() {
        let got = run(&[
            (
                "crates/cat/src/request.rs",
                "impl SimRequest<'_> { pub fn run(self) { catalyze::step(); } }",
            ),
            (
                "crates/core/src/lib.rs",
                "pub fn step() { inner(); }\nfn inner() { maybe().unwrap(); }",
            ),
        ]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, 2);
        assert!(got[0].1.contains("`.unwrap()`"), "{}", got[0].1);
        let chain = "cat::SimRequest::run -> core::step -> core::inner";
        assert!(got[0].1.contains(chain), "{}", got[0].1);
    }

    #[test]
    fn unreachable_code_is_not_flagged() {
        let got = run(&[
            ("crates/cat/src/request.rs", "impl SimRequest<'_> { pub fn run(self) {} }"),
            ("crates/core/src/lib.rs", "pub fn orphan() { maybe().unwrap(); }"),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn caller_controlled_index_is_flagged_internal_index_is_not() {
        let got = run(&[
            (
                "crates/cat/src/request.rs",
                "impl SimRequest<'_> { pub fn run(self) { catalyze::pick(xs, 0); } }",
            ),
            (
                "crates/core/src/lib.rs",
                "pub fn pick(xs: &[f64], i: usize) -> f64 {\n\
                 let k = 0;\n\
                 let _internal = xs[k];\n\
                 xs[i]\n}",
            ),
        ]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, 4);
        assert!(got[0].1.contains("caller-controlled parameter `i`"), "{}", got[0].1);
    }

    #[test]
    fn panic_macro_behind_entry_main_is_flagged() {
        let got = run(&[
            ("crates/cli/src/main.rs", "fn main() { catalyze::go(); }"),
            ("crates/core/src/lib.rs", "pub fn go() { panic!(\"boom\"); }"),
        ]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].1.contains("`panic!`"), "{}", got[0].1);
        assert!(got[0].1.contains("cli::main -> core::go"), "{}", got[0].1);
    }

    #[test]
    fn binary_and_test_code_stay_exempt() {
        let got = run(&[
            // main.rs is BinaryRoot: its own unwraps are edge-of-process.
            ("crates/cli/src/main.rs", "fn main() { opt().unwrap(); }"),
            (
                "crates/core/src/lib.rs",
                "pub fn go() {}\n#[cfg(test)]\nmod t { fn f() { maybe().unwrap(); } }",
            ),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn helpers_named_run_prefix_are_not_entries() {
        let got = run(&[
            ("crates/cat/src/runner.rs", "fn run_key() { catalyze::go(); }"),
            ("crates/core/src/lib.rs", "pub fn go() { panic!(\"boom\"); }"),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    /// The real workspace: `SimRequest::run` reaches every domain's kernel
    /// or chase builders through `measure` and the domain's sweep
    /// descriptor, whose closures call the builders in its own body.
    #[test]
    fn sim_request_run_reaches_every_domain_builder() {
        let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let Ok((files, _, policy)) = crate::rules::load_repo_inputs(&repo) else {
            panic!("the workspace loads");
        };
        let analyses: Vec<FileAnalysis<'_>> = files.iter().map(FileAnalysis::new).collect();
        let deps = policy.entries().iter().map(|e| (e.dir.clone(), e.allowed.clone())).collect();
        let graph = WorkspaceGraph::build_filtered(&analyses, &deps);
        let idx = |q: &str| {
            let found = graph.fns.iter().position(|f| f.qual == q && !f.is_test);
            found.unwrap_or_else(|| panic!("{q} is in the graph"))
        };
        let entry = idx("cat::SimRequest::run");
        assert!(super::entries(&graph).contains(&entry));
        let parent = graph.reachable_from(&[entry]);
        let measure = idx("cat::measure");
        assert!(graph.calls[entry].contains(&measure));
        for (sweep, builders) in [
            ("cat::cpu_flops_sweep", &["cat::FlopsKernel::program"][..]),
            ("cat::branch_sweep", &["cat::BranchKernel::program"]),
            ("cat::dcache_sweep", &["cat::ChaseConfig::program", "cat::ChaseConfig::trace"]),
            ("cat::dtlb_sweep", &["cat::TlbChaseConfig::program", "cat::TlbChaseConfig::trace"]),
            ("cat::dstore_sweep", &["cat::StoreConfig::program", "cat::StoreConfig::trace"]),
            ("cat::gpu_flops_sweep", &["cat::GpuFlopsKernel::kernel"]),
        ] {
            let sweep_fn = idx(sweep);
            assert!(graph.calls[measure].contains(&sweep_fn), "measure calls {sweep}");
            for builder in builders {
                let b = idx(builder);
                assert!(graph.calls[sweep_fn].contains(&b), "{sweep} calls {builder}");
                assert!(parent[b].is_some(), "SimRequest::run reaches {builder}");
            }
        }
    }
}
