//! The workspace model: per-file item trees linked into a cross-crate
//! module inventory and an approximate call graph.
//!
//! [`FileAnalysis`] pairs the per-file rule context with the parsed
//! [`ItemTree`]; [`WorkspaceGraph`] flattens every function item in every
//! analyzed file into a [`FnNode`] table and connects them with
//! name-resolved call edges. Resolution is deliberately *approximate and
//! over-inclusive* — exactly what a reachability rule wants:
//!
//! * `recv.name(…)` method calls link to **every** known method named
//!   `name` (no receiver types);
//! * `Owner::name(…)` links to methods of `Owner` named `name`, falling
//!   back to any function named `name` when `Owner` is unknown (it may be
//!   a module path segment);
//! * `name(…)` links to free functions named `name`, falling back to any
//!   function of that name.
//!
//! Known false-negative classes (documented in DESIGN.md §7): calls made
//! through function pointers or closures passed as values, calls generated
//! by macro expansion, and items nested inside function bodies.

use crate::parser::{Item, ItemKind, ItemTree};
use crate::rules::{FileContext, FileRole};
use catalyze_check::Span;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One source file handed to the workspace engine.
#[derive(Debug, Clone)]
pub struct WorkspaceFile {
    /// Repo-relative path (`crates/core/src/pipeline.rs`).
    pub rel: String,
    /// Full source text.
    pub src: String,
    /// Lint role (derived from the path for on-disk trees).
    pub role: FileRole,
}

/// A lint file analyzed once: rule context plus parsed item tree.
pub struct FileAnalysis<'s> {
    /// The underlying file.
    pub file: &'s WorkspaceFile,
    /// Shared per-file rule context (tokens, test mask, annotations).
    pub ctx: FileContext<'s>,
    /// The parsed top-level item tree.
    pub tree: ItemTree,
}

impl<'s> FileAnalysis<'s> {
    /// Lexes, contextualizes, and parses one file.
    pub fn new(file: &'s WorkspaceFile) -> Self {
        let ctx = FileContext::new(file.rel.clone(), &file.src, file.role);
        let tree = crate::parser::parse_items(&file.src, &ctx.tokens, &ctx.code);
        FileAnalysis { file, ctx, tree }
    }

    /// The crate directory name under `crates/` (`core`, `cat`, …), or
    /// `""` for paths outside `crates/` (tests, examples).
    pub fn crate_name(&self) -> &str {
        crate_of(&self.file.rel)
    }
}

/// Crate directory of a repo-relative path (`crates/core/src/x.rs` →
/// `core`); empty for anything outside `crates/`.
pub(crate) fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or("")
}

/// One function item, flattened out of its file's item tree.
#[derive(Debug, Clone)]
// lint: allow(dead_api): node type in WorkspaceGraph's public fields, which the parser tests walk
pub struct FnNode {
    /// Index of the defining file in the analysis slice.
    pub file: usize,
    /// Crate directory name (`core`, `cat`, `""` for non-crate files).
    pub crate_name: String,
    /// Enclosing `impl` head type, for methods.
    pub owner: Option<String>,
    /// The function's bare name.
    pub name: String,
    /// Display name: `crate::Owner::name` / `crate::name`.
    pub qual: String,
    /// Span of the name token.
    pub span: Span,
    /// Body as an inclusive code-token index range (`{` … `}`), when the
    /// function has one.
    pub body: Option<(usize, usize)>,
    /// Parameter binding names.
    pub params: Vec<String>,
    /// True when the function (or an enclosing item) is test-only.
    pub is_test: bool,
    /// True when the function carries a `// lint: contract(deterministic)`
    /// annotation (on its `fn` line or the line above) — a dataflow-rule
    /// entry point (R012–R015).
    pub is_contract: bool,
}

/// The linked workspace: all functions plus approximate call edges.
pub struct WorkspaceGraph {
    /// Every function in every analyzed file.
    pub fns: Vec<FnNode>,
    /// Adjacency: `calls[i]` are indices of functions `fns[i]` may call.
    pub calls: Vec<Vec<usize>>,
}

/// The code-token index after a turbofish (`::<...>`) starting at `c`, or
/// `c` when none starts there, so `f::<W>(x)` reads as a call of `f` just
/// like `f(x)`. Stops at `close`, the end of the enclosing body.
fn after_turbofish(fa: &FileAnalysis<'_>, c: usize, close: usize) -> usize {
    if fa.ctx.code_text(c) != "::" || fa.ctx.code_text(c + 1) != "<" {
        return c;
    }
    let mut depth = 0i32;
    for t in c + 1..close {
        match fa.ctx.code_text(t) {
            "<" => depth += 1,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            _ => {}
        }
        if depth <= 0 {
            return t + 1;
        }
    }
    c
}

/// Keywords that look like calls when followed by `(`.
const NOT_CALLS: [&str; 12] =
    ["if", "while", "for", "match", "return", "loop", "fn", "move", "in", "let", "else", "break"];

impl WorkspaceGraph {
    /// Builds the graph over the analyzed files with no cross-crate
    /// dependency filter (tests, ad-hoc callers).
    pub fn build(files: &[FileAnalysis<'_>]) -> Self {
        Self::build_filtered(files, &BTreeMap::new())
    }

    /// Builds the graph, keeping a cross-crate call edge only when the
    /// caller's crate is allowed to depend on the callee's crate (or the
    /// caller is absent from `allowed` — permissive for unknown crates).
    /// Name-based resolution otherwise invents edges between crates that
    /// cannot even import each other (`.push()` in `cat` linking to a
    /// `push` method in `xtask`), and every such edge is a false witness
    /// chain for R010.
    pub fn build_filtered(
        files: &[FileAnalysis<'_>],
        allowed: &BTreeMap<String, BTreeSet<String>>,
    ) -> Self {
        let mut fns = Vec::new();
        for (fi, fa) in files.iter().enumerate() {
            collect_fns(fa, fi, &mut fns);
        }

        // Name indexes for approximate resolution.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_owner_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
            match &f.owner {
                Some(o) => {
                    methods_by_name.entry(&f.name).or_default().push(i);
                    by_owner_name.entry((o, &f.name)).or_default().push(i);
                }
                None => {
                    free_by_name.entry(&f.name).or_default().push(i);
                }
            }
        }

        let mut calls: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (i, f) in fns.iter().enumerate() {
            let Some((open, close)) = f.body else { continue };
            let fa = &files[f.file];
            let mut targets: BTreeSet<usize> = BTreeSet::new();
            let mut c = open + 1;
            while c < close {
                if fa.ctx.code_token(c).map(|t| t.kind) == Some(crate::lexer::TokenKind::Ident)
                    && fa.ctx.code_text(after_turbofish(fa, c + 1, close)) == "("
                {
                    let name = fa.ctx.code_text(c);
                    let prev = if c == 0 { "" } else { fa.ctx.code_text(c - 1) };
                    if !NOT_CALLS.contains(&name) && prev != "fn" {
                        let resolved: &[usize] = if prev == "." {
                            methods_by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
                        } else if prev == "::" {
                            let owner = if c >= 2 { fa.ctx.code_text(c - 2) } else { "" };
                            let owner = if owner == "Self" {
                                f.owner.as_deref().unwrap_or(owner)
                            } else {
                                owner
                            };
                            match by_owner_name.get(&(owner, name)) {
                                Some(v) => v.as_slice(),
                                None => by_name.get(name).map(Vec::as_slice).unwrap_or(&[]),
                            }
                        } else {
                            match free_by_name.get(name) {
                                Some(v) => v.as_slice(),
                                None => by_name.get(name).map(Vec::as_slice).unwrap_or(&[]),
                            }
                        };
                        targets.extend(resolved.iter().copied().filter(|&t| {
                            let callee = &fns[t].crate_name;
                            f.crate_name.is_empty()
                                || *callee == f.crate_name
                                || allowed
                                    .get(&f.crate_name)
                                    .map_or(true, |deps| deps.contains(callee))
                        }));
                    }
                }
                c += 1;
            }
            targets.remove(&i);
            calls[i] = targets.into_iter().collect();
        }
        WorkspaceGraph { fns, calls }
    }

    /// Breadth-first reachability from the given entry functions. Returns
    /// per-function predecessor indices (`parent[i]` is the function
    /// through which `i` was first reached; entries are their own
    /// parents), or `None` for unreachable functions.
    pub fn reachable_from(&self, entries: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &e in entries {
            if e < self.fns.len() && parent[e].is_none() {
                parent[e] = Some(e);
                queue.push_back(e);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &j in &self.calls[i] {
                if parent[j].is_none() && !self.fns[j].is_test {
                    parent[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }
        parent
    }

    /// Renders the call chain from an entry to `i` (inclusive), using the
    /// predecessor table from [`Self::reachable_from`]. Truncates long
    /// chains in the middle.
    pub fn chain_to(&self, parent: &[Option<usize>], i: usize) -> String {
        let mut hops = vec![i];
        let mut cur = i;
        while let Some(p) = parent.get(cur).copied().flatten() {
            if p == cur {
                break;
            }
            hops.push(p);
            cur = p;
            if hops.len() > 32 {
                break; // cycle guard; parents always terminate in practice
            }
        }
        hops.reverse();
        let names: Vec<&str> = hops.iter().map(|&h| self.fns[h].qual.as_str()).collect();
        if names.len() <= 5 {
            names.join(" -> ")
        } else {
            format!("{} -> {} -> … -> {}", names[0], names[1], names[names.len() - 1])
        }
    }
}

/// Flattens every `fn` item of one file into [`FnNode`]s, tracking the
/// enclosing impl owner and module path.
fn collect_fns(fa: &FileAnalysis<'_>, file_idx: usize, out: &mut Vec<FnNode>) {
    let crate_name = fa.crate_name().to_string();
    fa.tree.walk(|path, item| {
        if item.kind != ItemKind::Fn {
            return;
        }
        let owner = path.iter().rev().find_map(|p| match &p.kind {
            ItemKind::Impl { self_ty, .. } => Some(self_ty.clone()),
            _ => None,
        });
        let mods: Vec<&str> =
            path.iter().filter(|p| p.kind == ItemKind::Mod).map(|p| p.name.as_str()).collect();
        let mut qual = if crate_name.is_empty() { fa.file.rel.clone() } else { crate_name.clone() };
        for m in &mods {
            qual.push_str("::");
            qual.push_str(m);
        }
        if let Some(o) = &owner {
            qual.push_str("::");
            qual.push_str(o);
        }
        qual.push_str("::");
        qual.push_str(&item.name);
        let is_test = item_is_test(fa, item) || path.iter().any(|p| item_is_test(fa, p));
        let is_contract = fa.ctx.contracts.iter().any(|a| {
            a.kind == "deterministic" && (a.line == item.span.line || a.line + 1 == item.span.line)
        });
        out.push(FnNode {
            file: file_idx,
            crate_name: crate_name.clone(),
            owner,
            name: item.name.clone(),
            qual,
            span: item.span,
            body: item.body,
            params: item.params.clone(),
            is_test,
            is_contract,
        });
    });
}

/// Whether an item's name token sits inside the file's test mask.
fn item_is_test(fa: &FileAnalysis<'_>, item: &Item) -> bool {
    fa.ctx.code.get(item.name_code).is_some_and(|&ti| fa.ctx.in_test[ti])
}

/// The identifier sets rule R011 resolves usage against.
pub struct UsageSets {
    /// Per-crate: every identifier appearing in the crate's non-test
    /// source code.
    pub non_test_by_crate: BTreeMap<String, BTreeSet<String>>,
    /// Identifiers appearing in any test-masked code across the workspace.
    pub test_idents: BTreeSet<String>,
    /// Identifiers appearing in reference files (top-level `tests/`,
    /// `examples/`, and crate `benches/`/`examples/` trees).
    pub reference_idents: BTreeSet<String>,
}

impl UsageSets {
    /// Collects identifier sets from the analyzed lint files plus the raw
    /// reference files.
    pub fn collect(files: &[FileAnalysis<'_>], references: &[WorkspaceFile]) -> Self {
        let mut non_test_by_crate: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut test_idents = BTreeSet::new();
        let mut reference_idents = BTreeSet::new();
        for fa in files {
            // Binary targets (`src/main.rs`, `src/bin/`) are separate
            // compilation units that import their sibling library by
            // package name — their usage justifies `pub` exactly like an
            // external crate's, so they count as references.
            let is_binary = matches!(fa.file.role, FileRole::Binary | FileRole::BinaryRoot);
            let per_crate = non_test_by_crate.entry(fa.crate_name().to_string()).or_default();
            for &ti in &fa.ctx.code {
                let tok = &fa.ctx.tokens[ti];
                if tok.kind != crate::lexer::TokenKind::Ident {
                    continue;
                }
                let text = tok.text(fa.ctx.src);
                if fa.ctx.in_test[ti] {
                    test_idents.insert(text.to_string());
                } else if is_binary {
                    reference_idents.insert(text.to_string());
                } else {
                    per_crate.insert(text.to_string());
                }
            }
        }
        for file in references {
            for tok in crate::lexer::tokenize(&file.src) {
                if tok.kind == crate::lexer::TokenKind::Ident {
                    reference_idents.insert(tok.text(&file.src).to_string());
                }
            }
        }
        UsageSets { non_test_by_crate, test_idents, reference_idents }
    }

    /// Whether `name`, defined in `def_crate`, is referenced anywhere that
    /// justifies `pub`: another crate's sources, any test code, or a
    /// reference file.
    pub fn justifies_pub(&self, def_crate: &str, name: &str) -> bool {
        if self.test_idents.contains(name) || self.reference_idents.contains(name) {
            return true;
        }
        self.non_test_by_crate
            .iter()
            .any(|(krate, idents)| krate != def_crate && idents.contains(name))
    }
}

/// Loads the lintable workspace sources (`crates/*/src/**/*.rs`) and the
/// reference-only sources (top-level `tests/` and `examples/`, plus each
/// crate's `benches/` and `examples/` trees) from disk.
pub(crate) fn load_workspace(
    repo: &Path,
) -> std::io::Result<(Vec<WorkspaceFile>, Vec<WorkspaceFile>)> {
    let mut lint = Vec::new();
    let mut reference = Vec::new();
    let crates_dir = repo.join("crates");
    let mut crate_dirs: Vec<std::path::PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        push_tree(repo, &crate_dir.join("src"), &mut lint);
        push_tree(repo, &crate_dir.join("tests"), &mut reference);
        push_tree(repo, &crate_dir.join("benches"), &mut reference);
        push_tree(repo, &crate_dir.join("examples"), &mut reference);
    }
    push_tree(repo, &repo.join("tests"), &mut reference);
    push_tree(repo, &repo.join("examples"), &mut reference);
    Ok((lint, reference))
}

fn push_tree(repo: &Path, dir: &Path, out: &mut Vec<WorkspaceFile>) {
    let mut files = Vec::new();
    collect_rs(dir, &mut files);
    files.sort();
    for path in files {
        let Ok(src) = std::fs::read_to_string(&path) else { continue };
        let rel = path.strip_prefix(repo).unwrap_or(&path).display().to_string();
        let role = crate::rules::role_of(&rel);
        out.push(WorkspaceFile { rel, src, role });
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else { return };
    for entry in rd.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Vec<WorkspaceFile> {
        files
            .iter()
            .map(|(rel, src)| WorkspaceFile {
                rel: rel.to_string(),
                src: src.to_string(),
                role: crate::rules::role_of(rel),
            })
            .collect()
    }

    #[test]
    fn builds_cross_crate_call_edges() {
        let files = ws(&[
            (
                "crates/cat/src/runner.rs",
                "pub fn run_x() { helper(); }\nfn helper() { catalyze::analyze_all(); }",
            ),
            ("crates/core/src/lib.rs", "pub fn analyze_all() { deep(); }\nfn deep() {}"),
        ]);
        let analyses: Vec<FileAnalysis<'_>> = files.iter().map(FileAnalysis::new).collect();
        let graph = WorkspaceGraph::build(&analyses);
        let idx =
            |q: &str| graph.fns.iter().position(|f| f.qual == q).unwrap_or_else(|| panic!("{q}"));
        let run_x = idx("cat::run_x");
        let parent = graph.reachable_from(&[run_x]);
        assert!(parent[idx("core::deep")].is_some(), "deep is reachable through two crates");
        let chain = graph.chain_to(&parent, idx("core::deep"));
        assert_eq!(chain, "cat::run_x -> cat::helper -> core::analyze_all -> core::deep");
    }

    #[test]
    fn method_calls_resolve_to_methods_only() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "pub struct S;\nimpl S { pub fn go(&self) {} }\npub fn go() { free(); }\nfn free() {}\npub fn caller(s: &S) { s.go(); }",
        )]);
        let analyses: Vec<FileAnalysis<'_>> = files.iter().map(FileAnalysis::new).collect();
        let graph = WorkspaceGraph::build(&analyses);
        let caller = graph.fns.iter().position(|f| f.qual == "a::caller").unwrap();
        let method = graph.fns.iter().position(|f| f.qual == "a::S::go").unwrap();
        let free_go = graph.fns.iter().position(|f| f.owner.is_none() && f.name == "go").unwrap();
        assert!(graph.calls[caller].contains(&method));
        assert!(!graph.calls[caller].contains(&free_go), "`.go()` cannot be the free fn");
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "pub struct S;\nimpl S { fn go<const W: usize>(&self) {} }\nfn free<T>() {}\npub fn caller(s: &S) { s.go::<0>(); free::<Vec<Vec<u8>>>(); }",
        )]);
        let analyses: Vec<FileAnalysis<'_>> = files.iter().map(FileAnalysis::new).collect();
        let graph = WorkspaceGraph::build(&analyses);
        let idx = |q: &str| graph.fns.iter().position(|f| f.qual == q).unwrap();
        let caller = idx("a::caller");
        assert!(graph.calls[caller].contains(&idx("a::S::go")), "method turbofish");
        assert!(graph.calls[caller].contains(&idx("a::free")), "nested `>>` closes the turbofish");
    }

    #[test]
    fn test_functions_are_flagged_and_not_traversed() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn entry() { used(); }\nfn used() {}\n#[cfg(test)]\nmod t {\n  fn helper() { super::entry(); }\n}",
        )]);
        let analyses: Vec<FileAnalysis<'_>> = files.iter().map(FileAnalysis::new).collect();
        let graph = WorkspaceGraph::build(&analyses);
        let helper = graph.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.is_test);
    }

    #[test]
    fn usage_sets_distinguish_crates_and_tests() {
        let files = ws(&[
            ("crates/a/src/lib.rs", "pub fn only_here() {}\npub fn used_by_b() {}"),
            ("crates/b/src/lib.rs", "pub fn f() { catalyze_a::used_by_b(); }"),
        ]);
        let analyses: Vec<FileAnalysis<'_>> = files.iter().map(FileAnalysis::new).collect();
        let refs = ws(&[("tests/x.rs", "fn t() { from_test(); }")]);
        let sets = UsageSets::collect(&analyses, &refs);
        assert!(sets.justifies_pub("a", "used_by_b"));
        assert!(!sets.justifies_pub("a", "only_here"));
        assert!(sets.justifies_pub("a", "from_test"), "reference files count");
    }
}
