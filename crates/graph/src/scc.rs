//! Strongly connected components (iterative Tarjan).
//!
//! Delegation graphs are cyclic in practice — zones serve each other's
//! nameservers (the paper's Figure 1 shows cornell ↔ rochester ↔ wisc
//! interdependencies). SCCs identify such mutual-trust clusters, and
//! their reverse-topological numbering lets closure and depth passes
//! walk the condensation in id order, with no topological sort. The pass is
//! serial, so the numbering is a pure function of the adjacency order —
//! the same on every machine and at every thread count.

/// The SCC decomposition of a graph.
#[derive(Debug, Clone)]
pub struct SccResult {
    /// For each node, the id of its component (0-based, reverse
    /// topological: every edge `a → b` has `component_of[a] >=
    /// component_of[b]`, so a pass in ascending id order sees every
    /// out-of-component successor finished first).
    pub component_of: Vec<usize>,
    /// Members of each component.
    pub components: Vec<Vec<u32>>,
}

impl SccResult {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.components.len()
    }
}

/// Computes strongly connected components with an iterative Tarjan over
/// any adjacency representation: `degree(u)` is node `u`'s out-degree and
/// `neighbor(u, k)` its `k`-th out-neighbor. The survey's dependency index
/// and glueless-depth index run it over per-home-zone rows without
/// building a graph.
pub fn tarjan_scc_with(
    n: usize,
    degree: impl Fn(usize) -> usize,
    neighbor: impl Fn(usize, usize) -> usize,
) -> SccResult {
    const UNSET: usize = usize::MAX;
    let mut index_of = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut component_of = vec![UNSET; n];
    let mut components: Vec<Vec<u32>> = Vec::new();
    let mut next_index = 0usize;

    // Explicit DFS frames: (node, neighbor cursor).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n {
        if index_of[root] != UNSET {
            continue;
        }
        frames.push((root as u32, 0));
        index_of[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root as u32);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            let v = v as usize;
            if *cursor < degree(v) {
                let w = neighbor(v, *cursor);
                *cursor += 1;
                if index_of[w] == UNSET {
                    index_of[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    frames.push((w as u32, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index_of[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent as usize] = low[parent as usize].min(low[v]);
                }
                if low[v] == index_of[v] {
                    // v roots a component; pop it off the stack.
                    let id = components.len();
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack holds the component");
                        on_stack[w as usize] = false;
                        component_of[w as usize] = id;
                        members.push(w);
                        if w as usize == v {
                            break;
                        }
                    }
                    components.push(members);
                }
            }
        }
    }
    SccResult {
        component_of,
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tarjan over an adjacency list.
    fn scc_of(adjacency: &[&[usize]]) -> SccResult {
        tarjan_scc_with(
            adjacency.len(),
            |u| adjacency[u].len(),
            |u, k| adjacency[u][k],
        )
    }

    #[test]
    fn single_cycle_is_one_component() {
        let scc = scc_of(&[&[1], &[2], &[3], &[4], &[0]]);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.components[0].len(), 5);
    }

    #[test]
    fn dag_has_singleton_components() {
        let scc = scc_of(&[&[1], &[2], &[]]);
        assert_eq!(scc.count(), 3);
        assert!(scc.components.iter().all(|m| m.len() == 1));
    }

    #[test]
    fn mixed_graph_mirrors_paper_interdependency() {
        // cornell ↔ rochester form a mutual-trust pair; wisc depends on
        // umich; rochester depends on wisc.
        let (cornell, rochester, wisc, umich) = (0, 1, 2, 3);
        let adjacency: [&[usize]; 4] = [&[rochester], &[cornell, wisc], &[umich], &[]];
        let scc = scc_of(&adjacency);
        assert_eq!(scc.count(), 3);
        assert_eq!(scc.component_of[cornell], scc.component_of[rochester]);
        assert_ne!(scc.component_of[wisc], scc.component_of[umich]);
        // Ids are reverse topological: umich, then wisc, then the pair.
        assert_eq!(scc.component_of[umich], 0);
        assert_eq!(scc.component_of[wisc], 1);
        assert_eq!(scc.components[2].len(), 2);
        for (from, outs) in adjacency.iter().enumerate() {
            for &to in *outs {
                assert!(scc.component_of[from] >= scc.component_of[to]);
            }
        }
    }

    #[test]
    fn self_loop_is_singleton_component() {
        let scc = scc_of(&[&[0]]);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.components[0], vec![0]);
    }

    #[test]
    fn empty_graph() {
        let scc = scc_of(&[]);
        assert_eq!(scc.count(), 0);
    }
}
