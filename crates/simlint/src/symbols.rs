//! Workspace symbol table and call graph over the per-file HIR.
//!
//! [`Workspace::build`] lexes and parses every source file once; the
//! flow-aware passes then query it for structs, functions and call-graph
//! reachability. Resolution is name-based (the lexer has no type
//! information): a callee name resolves to *every* workspace function with
//! that name in scope. That over-approximates the true call graph — a
//! method call `.len()` reaches every `fn len` — which is the conservative
//! direction for reachability-style lints: false edges can only add
//! mentions (digest-completeness) or findings that a human waives once
//! (panic-reach), never silently miss a real path.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::hir::{self, FileHir};
use crate::lexer::{self, Lexed};
use crate::FileCtx;

/// One analysed source file: context, token artefacts and HIR.
#[derive(Debug)]
pub struct Unit {
    /// Where the file sits in the workspace.
    pub ctx: FileCtx,
    /// Token stream and inline allow directives.
    pub lexed: Lexed,
    /// Test-gated line ranges.
    pub regions: Vec<(usize, usize)>,
    /// Item-level HIR.
    pub hir: FileHir,
}

/// Every analysed file, indexed for the workspace passes.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Units in input order.
    pub units: Vec<Unit>,
}

/// A function node: (unit index, index into that unit's `hir.fns`).
pub type FnNode = (usize, usize);

impl Workspace {
    /// Lexes and parses `sources` (pairs of file context and contents).
    pub fn build(sources: &[(FileCtx, String)]) -> Self {
        let units = sources
            .iter()
            .map(|(ctx, src)| {
                let lexed = lexer::lex(src);
                let regions = lexer::test_regions(&lexed.tokens);
                let hir = hir::parse(&lexed.tokens, &regions, ctx.is_test_file);
                Unit { ctx: ctx.clone(), lexed, regions, hir }
            })
            .collect();
        Self { units }
    }

    /// Unit indices whose crate dir is in `crates`.
    pub fn units_in(&self, crates: &[String]) -> Vec<usize> {
        self.units
            .iter()
            .enumerate()
            .filter(|(_, u)| crates.contains(&u.ctx.crate_dir))
            .map(|(i, _)| i)
            .collect()
    }

    /// The function definition behind a node.
    pub fn fn_def(&self, node: FnNode) -> &hir::FnDef {
        &self.units[node.0].hir.fns[node.1]
    }
}

/// A name-resolved call graph over a set of units.
///
/// Edges follow callee names: within a crate always, across crates only
/// when [`CallGraph::reachable`] is asked to. Test-gated functions are
/// excluded entirely — test helpers may panic freely.
#[derive(Debug)]
pub struct CallGraph<'w> {
    ws: &'w Workspace,
    /// Name → nodes, per crate dir.
    by_crate: BTreeMap<&'w str, BTreeMap<&'w str, Vec<FnNode>>>,
}

impl<'w> CallGraph<'w> {
    /// Builds the graph over `unit_ids` (typically one crate's units or an
    /// entire lint scope).
    pub fn build(ws: &'w Workspace, unit_ids: &[usize]) -> Self {
        let mut by_crate: BTreeMap<&str, BTreeMap<&str, Vec<FnNode>>> = BTreeMap::new();
        for &ui in unit_ids {
            let unit = &ws.units[ui];
            for (fi, f) in unit.hir.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                by_crate
                    .entry(unit.ctx.crate_dir.as_str())
                    .or_default()
                    .entry(f.name.as_str())
                    .or_default()
                    .push((ui, fi));
            }
        }
        Self { ws, by_crate }
    }

    /// Functions named `name` in crate `crate_dir`.
    pub fn named_in(&self, crate_dir: &str, name: &str) -> &[FnNode] {
        self.by_crate
            .get(crate_dir)
            .and_then(|m| m.get(name))
            .map_or(&[], Vec::as_slice)
    }

    /// BFS closure over callee names from `roots`. With `cross_crate`
    /// false, edges stay inside each node's own crate (the
    /// digest-completeness contract: a crate's digest path); with it true,
    /// a callee name resolves in every crate in the graph (panic-reach).
    pub fn reachable(&self, roots: &[FnNode], cross_crate: bool) -> BTreeSet<FnNode> {
        let mut seen: BTreeSet<FnNode> = roots.iter().copied().collect();
        let mut queue: VecDeque<FnNode> = roots.iter().copied().collect();
        while let Some(node) = queue.pop_front() {
            let home = self.ws.units[node.0].ctx.crate_dir.as_str();
            for callee in &self.ws.fn_def(node).callees {
                let mut push = |targets: &[FnNode]| {
                    for &t in targets {
                        if seen.insert(t) {
                            queue.push_back(t);
                        }
                    }
                };
                if cross_crate {
                    for per_name in self.by_crate.values() {
                        if let Some(ts) = per_name.get(callee.as_str()) {
                            push(ts);
                        }
                    }
                } else {
                    push(self.named_in(home, callee));
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let sources: Vec<(FileCtx, String)> = files
            .iter()
            .map(|(p, s)| (FileCtx::new(p), (*s).to_string()))
            .collect();
        Workspace::build(&sources)
    }

    #[test]
    fn same_crate_reachability() {
        let w = ws(&[(
            "crates/tlb/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn island() {}\n",
        )]);
        let ids = w.units_in(&["crates/tlb".to_string()]);
        let g = CallGraph::build(&w, &ids);
        let root = g.named_in("crates/tlb", "a").to_vec();
        let reach = g.reachable(&root, false);
        let names: Vec<&str> = reach.iter().map(|&n| w.fn_def(n).name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn cross_crate_needs_the_flag() {
        let w = ws(&[
            ("crates/mgpu/src/system.rs", "fn tick() { helper_frob(); }\n"),
            ("crates/uvm/src/lib.rs", "pub fn helper_frob() { inner(); }\nfn inner() {}\n"),
        ]);
        let ids: Vec<usize> = (0..w.units.len()).collect();
        let g = CallGraph::build(&w, &ids);
        let root = g.named_in("crates/mgpu", "tick").to_vec();
        assert_eq!(g.reachable(&root, false).len(), 1, "stays in mgpu");
        let cross = g.reachable(&root, true);
        let names: Vec<&str> = cross.iter().map(|&n| w.fn_def(n).name.as_str()).collect();
        assert!(names.contains(&"helper_frob") && names.contains(&"inner"), "{names:?}");
    }

    #[test]
    fn trait_object_calls_resolve_by_name() {
        // `p.decide()` through `Box<dyn Policy>` has no static receiver
        // type; name-based resolution must conservatively edge into every
        // same-named method so reachability (panic-reach) over-approximates
        // rather than misses.
        let w = ws(&[(
            "crates/mgpu/src/lib.rs",
            "trait Policy { fn decide(&mut self); }\n\
             struct Greedy;\n\
             impl Policy for Greedy { fn decide(&mut self) { greedy_inner(); } }\n\
             fn greedy_inner() {}\n\
             fn drive(p: &mut Box<dyn Policy>) { p.decide(); }\n",
        )]);
        let ids: Vec<usize> = (0..w.units.len()).collect();
        let g = CallGraph::build(&w, &ids);
        let root = g.named_in("crates/mgpu", "drive").to_vec();
        let reach = g.reachable(&root, false);
        let names: Vec<&str> = reach.iter().map(|&n| w.fn_def(n).name.as_str()).collect();
        assert!(
            names.contains(&"decide") && names.contains(&"greedy_inner"),
            "dyn dispatch must over-approximate: {names:?}"
        );
    }

    #[test]
    fn generic_bound_calls_resolve_by_name() {
        // Monomorphized `t.decide()` under `T: Policy` likewise edges into
        // every impl — and the over-approximation stays conservative: a
        // method the driver never names is NOT pulled into the closure.
        let w = ws(&[(
            "crates/mgpu/src/lib.rs",
            "trait Policy { fn decide(&mut self); fn audit(&self); }\n\
             struct Greedy;\n\
             impl Policy for Greedy {\n\
                 fn decide(&mut self) {}\n\
                 fn audit(&self) { audit_inner(); }\n\
             }\n\
             fn audit_inner() {}\n\
             fn run<T: Policy>(t: &mut T) { t.decide(); }\n",
        )]);
        let ids: Vec<usize> = (0..w.units.len()).collect();
        let g = CallGraph::build(&w, &ids);
        let root = g.named_in("crates/mgpu", "run").to_vec();
        let reach = g.reachable(&root, false);
        let names: Vec<&str> = reach.iter().map(|&n| w.fn_def(n).name.as_str()).collect();
        assert!(names.contains(&"decide"), "{names:?}");
        assert!(
            !names.contains(&"audit") && !names.contains(&"audit_inner"),
            "uncalled trait method leaked into the closure: {names:?}"
        );
    }

    #[test]
    fn test_fns_are_not_nodes() {
        let w = ws(&[(
            "crates/tlb/src/lib.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests { fn helper() { live(); } }\n",
        )]);
        let ids: Vec<usize> = (0..w.units.len()).collect();
        let g = CallGraph::build(&w, &ids);
        assert!(g.named_in("crates/tlb", "helper").is_empty());
        assert_eq!(g.named_in("crates/tlb", "live").len(), 1);
    }
}
