//! Strongly connected components (iterative Tarjan, parallel FW-BW).
//!
//! Delegation graphs are cyclic in practice — zones serve each other's
//! nameservers (the paper's Figure 1 shows cornell ↔ rochester ↔ wisc
//! interdependencies). SCCs identify such mutual-trust clusters, and
//! their reverse-topological numbering lets closure and depth passes
//! walk the condensation in id order without building it.

use crate::digraph::{DiGraph, NodeId};
use perils_util::par;

/// The SCC decomposition of a graph.
#[derive(Debug, Clone)]
pub struct SccResult {
    /// For each node, the id of its component (0-based, reverse
    /// topological: every edge `a → b` has `component_of[a] >=
    /// component_of[b]`, so a pass in ascending id order sees every
    /// out-of-component successor finished first).
    pub component_of: Vec<usize>,
    /// Members of each component.
    pub components: Vec<Vec<NodeId>>,
}

impl SccResult {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.components.len()
    }
}

/// Computes strongly connected components with an iterative Tarjan.
pub fn tarjan_scc<N>(graph: &DiGraph<N>) -> SccResult {
    tarjan_scc_with(
        graph.node_count(),
        |u| graph.out_degree(NodeId(u as u32)),
        |u, k| graph.out_neighbors(NodeId(u as u32))[k].index(),
    )
}

/// The iterative-Tarjan core over any adjacency representation: `degree(u)`
/// is node `u`'s out-degree and `neighbor(u, k)` its `k`-th out-neighbor.
/// [`tarjan_scc`] (arena graphs) and [`crate::csr::Csr::scc`] (CSR) both
/// delegate here.
pub fn tarjan_scc_with(
    n: usize,
    degree: impl Fn(usize) -> usize,
    neighbor: impl Fn(usize, usize) -> usize,
) -> SccResult {
    const UNSET: usize = usize::MAX;
    let mut index_of = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut component_of = vec![UNSET; n];
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    let mut next_index = 0usize;

    // Explicit DFS frames: (node, neighbor cursor).
    let mut frames: Vec<(NodeId, usize)> = Vec::new();
    for root in (0..n as u32).map(NodeId) {
        if index_of[root.index()] != UNSET {
            continue;
        }
        frames.push((root, 0));
        index_of[root.index()] = next_index;
        low[root.index()] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root.index()] = true;

        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor < degree(v.index()) {
                let w = NodeId(neighbor(v.index(), *cursor) as u32);
                *cursor += 1;
                if index_of[w.index()] == UNSET {
                    index_of[w.index()] = next_index;
                    low[w.index()] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w.index()] = true;
                    frames.push((w, 0));
                } else if on_stack[w.index()] {
                    low[v.index()] = low[v.index()].min(index_of[w.index()]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent.index()] = low[parent.index()].min(low[v.index()]);
                }
                if low[v.index()] == index_of[v.index()] {
                    // v roots a component; pop it off the stack.
                    let id = components.len();
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack holds the component");
                        on_stack[w.index()] = false;
                        component_of[w.index()] = id;
                        members.push(w);
                        if w == v {
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

/// Renumbers an SCC decomposition into the *canonical* form: components
/// are ordered by (longest path to a condensation sink, ascending; smallest
/// member node id, ascending) and member lists are sorted ascending.
///
/// The canonical numbering is a pure function of the component *partition*
/// and the graph — any SCC algorithm, serial or parallel, lands on the same
/// ids after this pass. It stays reverse topological (every condensation
/// edge goes from a higher id to a strictly lower one, because the
/// longest-path level strictly decreases along an edge), which is the
/// invariant downstream memoization orders rely on.
pub fn canonical_scc(
    scc: &SccResult,
    degree: impl Fn(usize) -> usize,
    neighbor: impl Fn(usize, usize) -> usize,
) -> SccResult {
    let n = scc.component_of.len();
    let c = scc.count();
    // Members per (old) component, node ids ascending.
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); c];
    for u in 0..n {
        members[scc.component_of[u]].push(NodeId(u as u32));
    }
    // Cross-component edges, as a flat predecessor CSR over the raw
    // *multigraph* — deduplicating successors buys nothing here: the
    // level recurrence takes a max over edges (equal over duplicates),
    // and the Kahn counter just has to reach zero when a component's
    // last raw out-edge resolves. Two streaming passes over the edges
    // beat one pass through epoch stamps and per-component vectors.
    let mut out_raw = vec![0u32; c];
    let mut pred_off = vec![0u32; c + 1];
    for u in 0..n {
        let cu = scc.component_of[u];
        for k in 0..degree(u) {
            let cd = scc.component_of[neighbor(u, k)];
            if cd != cu {
                out_raw[cu] += 1;
                pred_off[cd + 1] += 1;
            }
        }
    }
    for i in 0..c {
        pred_off[i + 1] += pred_off[i];
    }
    let mut cursor: Vec<u32> = pred_off[..c].to_vec();
    let mut preds = vec![0u32; pred_off[c] as usize];
    for u in 0..n {
        let cu = scc.component_of[u];
        for k in 0..degree(u) {
            let cd = scc.component_of[neighbor(u, k)];
            if cd != cu {
                preds[cursor[cd] as usize] = cu as u32;
                cursor[cd] += 1;
            }
        }
    }
    drop(cursor);
    // Longest path to a sink, by Kahn's algorithm from the sinks upward.
    let mut remaining = out_raw;
    let mut level = vec![0u32; c];
    let mut queue: Vec<usize> = (0..c).filter(|&cid| remaining[cid] == 0).collect();
    let mut head = 0;
    while head < queue.len() {
        let cid = queue[head];
        head += 1;
        for &p in &preds[pred_off[cid] as usize..pred_off[cid + 1] as usize] {
            let p = p as usize;
            level[p] = level[p].max(level[cid] + 1);
            remaining[p] -= 1;
            if remaining[p] == 0 {
                queue.push(p);
            }
        }
    }
    debug_assert_eq!(head, c, "condensation must be acyclic");
    // Sinks first: ids ascend with level, so edges (which always point to
    // strictly lower levels) point to strictly lower ids. The smallest
    // member is a total tiebreak — components partition the nodes.
    let mut order: Vec<usize> = (0..c).collect();
    order.sort_unstable_by_key(|&cid| (level[cid], members[cid][0]));
    let mut new_id = vec![0usize; c];
    for (new, &old) in order.iter().enumerate() {
        new_id[old] = new;
    }
    SccResult {
        component_of: scc.component_of.iter().map(|&old| new_id[old]).collect(),
        components: order
            .iter()
            .map(|&old| std::mem::take(&mut members[old]))
            .collect(),
    }
}

/// Frontier size below which a trim round runs inline instead of fanning
/// out — spawning a scope costs more than peeling a few dozen nodes.
const TRIM_PARALLEL_THRESHOLD: usize = 512;

/// Sub-region size below which FW-BW queues the region whole instead of
/// decomposing it into weakly connected pieces first — the decomposition
/// BFS is not worth it on a region one task finishes anyway.
const WCC_SPLIT_MIN: usize = 32;

/// Effective worker count below which the FW-BW strategy loses to a
/// canonicalized serial Tarjan: the trim/FW-BW pipeline re-reads every
/// edge ~6× (reverse CSR build, trim rounds, forward+backward BFS, weak
/// splits) where Tarjan reads each once, so it needs enough real cores
/// to amortize the redundancy.
const FWBW_MIN_WORKERS: usize = 4;

/// Parallel strongly connected components with the partition strategy
/// picked by *usable* parallelism: below `FWBW_MIN_WORKERS` effective
/// workers (`min(threads, cores)`) the serial Tarjan core runs as-is; at
/// or above it, [`fwbw_scc_with`] decomposes the graph with trim rounds
/// plus task-parallel forward-backward reachability and canonicalizes.
///
/// The partition is unique, the numbering deterministic for a given
/// machine shape, and cross-component edges always point from a higher
/// component id to a lower one (reverse topological) — the invariant
/// downstream condensation and memoization rely on. The *numbering* may
/// differ between the two strategies (raw Tarjan vs canonical); callers
/// that need machine-independent ids canonicalize via [`canonical_scc`]
/// or call [`fwbw_scc_with`] directly. Raw Tarjan is kept on the
/// small-machine route because the canonical renumbering pass re-reads
/// every edge twice — pure overhead when the discovery order is already
/// deterministic.
pub fn parallel_scc_with(
    n: usize,
    degree: impl Fn(usize) -> usize + Sync,
    neighbor: impl Fn(usize, usize) -> usize + Sync,
    threads: usize,
) -> SccResult {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if threads.min(cores) < FWBW_MIN_WORKERS || n < 2 {
        return tarjan_scc_with(n, &degree, &neighbor);
    }
    fwbw_scc_with(n, degree, neighbor, threads)
}

/// The explicit trim+FW-BW strategy in canonical numbering: trim rounds
/// peel the acyclic bulk of the graph in parallel (a delegation graph is
/// mostly a DAG — every in- or out-degree-0 node is its own SCC), then
/// task-parallel forward-backward (FW-BW) reachability decomposes the
/// cyclic residue.
///
/// Output is byte-identical to `canonical_scc(&tarjan_scc_with(..), ..)`
/// for every input, thread count, and machine shape; exposed separately
/// so tests and benches can pin the parallel strategy regardless of the
/// machine's core count. At `threads <= 1` it falls back to the
/// canonicalized Tarjan.
pub fn fwbw_scc_with(
    n: usize,
    degree: impl Fn(usize) -> usize + Sync,
    neighbor: impl Fn(usize, usize) -> usize + Sync,
    threads: usize,
) -> SccResult {
    if threads <= 1 || n < 2 {
        return canonical_scc(&tarjan_scc_with(n, &degree, &neighbor), &degree, &neighbor);
    }
    let raw = trim_fwbw_scc(n, &degree, &neighbor, threads);
    canonical_scc(&raw, &degree, &neighbor)
}

/// The parallel partition pass behind [`parallel_scc_with`]: component ids
/// come out in discovery order (nondeterministic under real concurrency),
/// so callers must canonicalize before comparing or condensing.
fn trim_fwbw_scc<D, A>(n: usize, degree: &D, neighbor: &A, threads: usize) -> SccResult
where
    D: Fn(usize) -> usize + Sync,
    A: Fn(usize, usize) -> usize + Sync,
{
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use std::sync::Mutex;

    const UNSET: u32 = u32::MAX;
    // The caller's thread count selects the algorithm; the worker count is
    // additionally capped at the machine's parallelism — oversubscribing a
    // BFS workload onto fewer cores only adds context-switch latency.
    let cores = std::thread::available_parallelism().map_or(usize::MAX, |p| p.get());
    let threads = threads.min(n.max(1)).min(cores);

    // --- Reverse CSR (needed for backward reachability and in-degrees).
    // **Self-loops are dropped throughout**: a u→u edge never changes a
    // component partition, but it would pin both of u's trim counters
    // above zero forever — and dependency rows self-refer (a server's
    // home-zone row contains the server itself), so keeping them would
    // disable trimming for the entire graph.
    let in_count: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let out_rem: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    par::map_ranges(n, threads, |range| {
        for u in range {
            let mut nonself = 0u32;
            for k in 0..degree(u) {
                let w = neighbor(u, k);
                if w != u {
                    nonself += 1;
                    in_count[w].fetch_add(1, Ordering::Relaxed);
                }
            }
            out_rem[u].store(nonself, Ordering::Relaxed);
        }
    });
    let mut roff = vec![0u32; n + 1];
    for u in 0..n {
        roff[u + 1] = roff[u] + in_count[u].load(Ordering::Relaxed);
    }
    // The scatter stays serial on purpose: per-edge fetch_adds on shared
    // row cursors cost more in cache-line contention than one
    // memcpy-speed pass saves.
    let mut rpos: Vec<u32> = roff[..n].to_vec();
    let mut rtargets = vec![0u32; roff[n] as usize];
    for u in 0..n {
        for k in 0..degree(u) {
            let w = neighbor(u, k);
            if w != u {
                rtargets[rpos[w] as usize] = u as u32;
                rpos[w] += 1;
            }
        }
    }
    drop(rpos);
    let in_neighbors = |u: usize| &rtargets[roff[u] as usize..roff[u + 1] as usize];

    // --- Trim rounds: any node with zero live in- or out-degree is a
    // singleton SCC; removing it may expose more. Each round claims the
    // candidate frontier (swap dedups double-nominations), then decrements
    // neighbor counters; whoever decrements a counter to zero nominates
    // that node for the next round.
    let removed: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let in_rem: Vec<AtomicU32> = in_count; // live non-self in-degrees, reused
    let comp: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNSET)).collect();
    let comp_count = AtomicU32::new(0);

    let trim_round = |candidates: &[u32], next: &mut Vec<u32>| {
        for &u in candidates {
            let u = u as usize;
            if removed[u].swap(1, Ordering::Relaxed) != 0 {
                continue;
            }
            comp[u].store(
                comp_count.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            for k in 0..degree(u) {
                let w = neighbor(u, k);
                if w == u {
                    continue; // self-loops are not in the counters
                }
                if in_rem[w].fetch_sub(1, Ordering::AcqRel) == 1
                    && removed[w].load(Ordering::Relaxed) == 0
                {
                    next.push(w as u32);
                }
            }
            for &w in in_neighbors(u) {
                let w = w as usize;
                if out_rem[w].fetch_sub(1, Ordering::AcqRel) == 1
                    && removed[w].load(Ordering::Relaxed) == 0
                {
                    next.push(w as u32);
                }
            }
        }
    };

    let mut frontier: Vec<u32> = (0..n as u32)
        .filter(|&u| {
            out_rem[u as usize].load(Ordering::Relaxed) == 0
                || in_rem[u as usize].load(Ordering::Relaxed) == 0
        })
        .collect();
    while !frontier.is_empty() {
        let workers = if frontier.len() < TRIM_PARALLEL_THRESHOLD {
            1
        } else {
            threads
        };
        frontier = par::map_ranges(frontier.len(), workers, |range| {
            let mut next = Vec::new();
            trim_round(&frontier[range], &mut next);
            next
        })
        .concat();
    }

    // --- FW-BW over the cyclic residue: a shared worklist of regions;
    // each task picks a pivot, computes forward/backward reachability
    // within its region, emits the intersection as one SCC, and splits the
    // rest into up to three independent subregions.
    let residue: Vec<u32> = (0..n as u32)
        .filter(|&u| removed[u as usize].load(Ordering::Relaxed) == 0)
        .collect();
    if !residue.is_empty() {
        const DONE: u32 = u32::MAX;
        let owner: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(DONE)).collect();
        for &u in &residue {
            owner[u as usize].store(0, Ordering::Relaxed);
        }
        let next_region = AtomicU32::new(1);
        let pending = AtomicUsize::new(1);
        let worklist: Mutex<Vec<(u32, Vec<u32>)>> = Mutex::new(vec![(0, residue)]);

        std::thread::scope(|s| {
            for _ in 0..threads {
                let (worklist, pending, next_region) = (&worklist, &pending, &next_region);
                let (owner, comp, comp_count) = (&owner, &comp, &comp_count);
                let rtargets = &rtargets;
                let roff = &roff;
                s.spawn(move || {
                    // Per-worker scratch: 2-bit visit marks (1 = forward,
                    // 2 = backward), cleared sparsely between regions.
                    let mut mark = vec![0u8; n];
                    let mut queue: Vec<u32> = Vec::new();
                    let mut fwd: Vec<u32> = Vec::new();
                    let mut bwd: Vec<u32> = Vec::new();
                    let mut local: Vec<(u32, Vec<u32>)> = Vec::new();
                    let mut idle_spins = 0u32;
                    loop {
                        let task = local
                            .pop()
                            .or_else(|| worklist.lock().expect("worklist").pop());
                        let Some((rid, region)) = task else {
                            if pending.load(Ordering::SeqCst) == 0 {
                                break;
                            }
                            // Back off after a few fruitless polls so idle
                            // workers stop stealing timeslices from the
                            // one doing the BFS.
                            idle_spins += 1;
                            if idle_spins > 8 {
                                std::thread::sleep(std::time::Duration::from_micros(50));
                            } else {
                                std::thread::yield_now();
                            }
                            continue;
                        };
                        idle_spins = 0;
                        if region.len() == 1 {
                            let u = region[0] as usize;
                            owner[u].store(DONE, Ordering::Relaxed);
                            comp[u].store(
                                comp_count.fetch_add(1, Ordering::Relaxed),
                                Ordering::Relaxed,
                            );
                            pending.fetch_sub(1, Ordering::SeqCst);
                            continue;
                        }
                        // Pivot on the region's biggest hub (max in×out
                        // degree): delegation residues are customer cliques
                        // glued together through shared provider servers, so
                        // removing a hub's reachability classes shatters the
                        // remainder into independent pieces, where an
                        // arbitrary pivot would peel one leaf clique per
                        // pass.
                        let pivot = region
                            .iter()
                            .copied()
                            .max_by_key(|&u| {
                                let u = u as usize;
                                (roff[u + 1] - roff[u]) as u64 * degree(u) as u64
                            })
                            .expect("region is non-empty");
                        // Forward BFS within the region.
                        fwd.clear();
                        queue.clear();
                        queue.push(pivot);
                        mark[pivot as usize] |= 1;
                        fwd.push(pivot);
                        while let Some(v) = queue.pop() {
                            let v = v as usize;
                            for k in 0..degree(v) {
                                let w = neighbor(v, k);
                                if owner[w].load(Ordering::Relaxed) == rid && mark[w] & 1 == 0 {
                                    mark[w] |= 1;
                                    fwd.push(w as u32);
                                    queue.push(w as u32);
                                }
                            }
                        }
                        // Backward BFS within the region.
                        bwd.clear();
                        queue.clear();
                        queue.push(pivot);
                        mark[pivot as usize] |= 2;
                        bwd.push(pivot);
                        while let Some(v) = queue.pop() {
                            let v = v as usize;
                            for &w in &rtargets[roff[v] as usize..roff[v + 1] as usize] {
                                let w = w as usize;
                                if owner[w].load(Ordering::Relaxed) == rid && mark[w] & 2 == 0 {
                                    mark[w] |= 2;
                                    bwd.push(w as u32);
                                    queue.push(w as u32);
                                }
                            }
                        }
                        // fwd ∩ bwd is the pivot's SCC.
                        let cid = comp_count.fetch_add(1, Ordering::Relaxed);
                        let mut fwd_only: Vec<u32> = Vec::new();
                        for &u in &fwd {
                            if mark[u as usize] == 3 {
                                owner[u as usize].store(DONE, Ordering::Relaxed);
                                comp[u as usize].store(cid, Ordering::Relaxed);
                            } else {
                                fwd_only.push(u);
                            }
                        }
                        let bwd_only: Vec<u32> = bwd
                            .iter()
                            .copied()
                            .filter(|&u| mark[u as usize] == 2)
                            .collect();
                        let rest: Vec<u32> = region
                            .iter()
                            .copied()
                            .filter(|&u| {
                                mark[u as usize] == 0
                                    && owner[u as usize].load(Ordering::Relaxed) == rid
                            })
                            .collect();
                        for &u in &fwd {
                            mark[u as usize] = 0;
                        }
                        for &u in &bwd {
                            mark[u as usize] = 0;
                        }
                        for sub in [fwd_only, bwd_only, rest] {
                            if sub.is_empty() {
                                continue;
                            }
                            let sub_rid = next_region.fetch_add(1, Ordering::Relaxed);
                            for &u in &sub {
                                owner[u as usize].store(sub_rid, Ordering::Relaxed);
                            }
                            if sub.len() <= WCC_SPLIT_MIN {
                                pending.fetch_add(1, Ordering::SeqCst);
                                local.push((sub_rid, sub));
                                continue;
                            }
                            // Decompose into weakly connected pieces before
                            // queueing: once the pivot's SCC and the other
                            // reachability classes leave, a sub-region
                            // usually shatters into many independent
                            // clusters (sibling NS cliques that only met in
                            // the departed upstream servers). Queueing the
                            // pieces separately keeps the task tree wide —
                            // without this, the remainder re-enters whole
                            // and FW-BW peels one SCC per pass off it.
                            for &u in &sub {
                                if mark[u as usize] & 4 != 0 {
                                    continue;
                                }
                                mark[u as usize] |= 4;
                                queue.clear();
                                queue.push(u);
                                let mut piece = vec![u];
                                while let Some(v) = queue.pop() {
                                    let v = v as usize;
                                    for k in 0..degree(v) {
                                        let w = neighbor(v, k);
                                        if mark[w] & 4 == 0
                                            && owner[w].load(Ordering::Relaxed) == sub_rid
                                        {
                                            mark[w] |= 4;
                                            piece.push(w as u32);
                                            queue.push(w as u32);
                                        }
                                    }
                                    for &w in &rtargets[roff[v] as usize..roff[v + 1] as usize] {
                                        let w = w as usize;
                                        if mark[w] & 4 == 0
                                            && owner[w].load(Ordering::Relaxed) == sub_rid
                                        {
                                            mark[w] |= 4;
                                            piece.push(w as u32);
                                            queue.push(w as u32);
                                        }
                                    }
                                }
                                if piece.len() == 1 {
                                    // Isolated survivor: its only residue
                                    // edges led to the departed classes, so
                                    // it is a singleton SCC — finalize here
                                    // rather than round-tripping a task.
                                    let u = piece[0] as usize;
                                    owner[u].store(DONE, Ordering::Relaxed);
                                    comp[u].store(
                                        comp_count.fetch_add(1, Ordering::Relaxed),
                                        Ordering::Relaxed,
                                    );
                                    continue;
                                }
                                let piece_rid = next_region.fetch_add(1, Ordering::Relaxed);
                                for &x in &piece {
                                    owner[x as usize].store(piece_rid, Ordering::Relaxed);
                                }
                                pending.fetch_add(1, Ordering::SeqCst);
                                if piece.len() <= WCC_SPLIT_MIN {
                                    // Small cliques stay on this worker's
                                    // local stack: a few thousand of them
                                    // through the shared Mutex is the
                                    // dominant FW-BW cost, not the BFS work.
                                    local.push((piece_rid, piece));
                                } else {
                                    worklist.lock().expect("worklist").push((piece_rid, piece));
                                }
                            }
                            for &u in &sub {
                                mark[u as usize] &= !4;
                            }
                        }
                        pending.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
    }

    // --- Assemble (discovery-order ids; the caller canonicalizes).
    let count = comp_count.into_inner() as usize;
    let component_of: Vec<usize> = comp.into_iter().map(|a| a.into_inner() as usize).collect();
    let mut components: Vec<Vec<NodeId>> = vec![Vec::new(); count];
    for (u, &cid) in component_of.iter().enumerate() {
        debug_assert_ne!(cid, UNSET as usize, "every node lands in a component");
        components[cid].push(NodeId(u as u32));
    }
    SccResult {
        component_of,
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cycle_is_one_component() {
        let mut g = DiGraph::<()>::new();
        let nodes: Vec<NodeId> = (0..5).map(|_| g.add_node(())).collect();
        for i in 0..5 {
            g.add_edge(nodes[i], nodes[(i + 1) % 5]);
        }
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.components[0].len(), 5);
    }

    #[test]
    fn dag_has_singleton_components() {
        let mut g = DiGraph::<()>::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b);
        g.add_edge(b, c);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 3);
        assert!(scc.components.iter().all(|m| m.len() == 1));
    }

    #[test]
    fn mixed_graph_mirrors_paper_interdependency() {
        // cornell ↔ rochester form a mutual-trust pair; wisc depends on
        // umich; rochester depends on wisc.
        let mut g = DiGraph::<&str>::new();
        let cornell = g.add_node("cornell");
        let rochester = g.add_node("rochester");
        let wisc = g.add_node("wisc");
        let umich = g.add_node("umich");
        g.add_edge(cornell, rochester);
        g.add_edge(rochester, cornell);
        g.add_edge(rochester, wisc);
        g.add_edge(wisc, umich);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 3);
        assert_eq!(
            scc.component_of[cornell.index()],
            scc.component_of[rochester.index()]
        );
        assert_ne!(
            scc.component_of[wisc.index()],
            scc.component_of[umich.index()]
        );
        // Ids are reverse topological: umich, then wisc, then the pair.
        assert_eq!(scc.component_of[umich.index()], 0);
        assert_eq!(scc.component_of[wisc.index()], 1);
        assert_eq!(scc.components[2].len(), 2);
        for (from, to) in g.edges() {
            assert!(scc.component_of[from.index()] >= scc.component_of[to.index()]);
        }
    }

    #[test]
    fn self_loop_is_singleton_component() {
        let mut g = DiGraph::<()>::new();
        let a = g.add_node(());
        g.add_edge(a, a);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.components[0], vec![a]);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::<()>::new();
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 0);
    }

    fn assert_canonical_parallel_matches(g: &DiGraph<()>) {
        let degree = |u: usize| g.out_degree(NodeId(u as u32));
        let neighbor = |u: usize, k: usize| g.out_neighbors(NodeId(u as u32))[k].index();
        let reference = canonical_scc(
            &tarjan_scc_with(g.node_count(), degree, neighbor),
            degree,
            neighbor,
        );
        // fwbw_scc_with pins the trim+FW-BW strategy (parallel_scc_with
        // would route small thread counts to the Tarjan core on small
        // machines); the adaptive dispatcher's numbering is strategy- and
        // machine-dependent, so it is normalized through canonical_scc
        // before comparing and checked reverse-topological directly.
        for threads in [1, 2, 8] {
            let parallel = fwbw_scc_with(g.node_count(), degree, neighbor, threads);
            assert_eq!(
                parallel.component_of, reference.component_of,
                "{threads} threads"
            );
            assert_eq!(
                parallel.components, reference.components,
                "{threads} threads"
            );
            let adaptive = parallel_scc_with(g.node_count(), degree, neighbor, threads);
            let normalized = canonical_scc(&adaptive, degree, neighbor);
            assert_eq!(
                normalized.component_of, reference.component_of,
                "{threads} adaptive"
            );
            for u in 0..g.node_count() {
                for k in 0..degree(u) {
                    let (cf, ct) = (
                        adaptive.component_of[u],
                        adaptive.component_of[neighbor(u, k)],
                    );
                    assert!(ct <= cf, "adaptive ids must be reverse topological");
                }
            }
        }
    }

    #[test]
    fn parallel_matches_canonical_tarjan_on_mixed_graphs() {
        // Cycle + tail + isolated node + self-loop, the shapes trim and
        // FW-BW each have to handle.
        let mut g = DiGraph::<()>::new();
        let nodes: Vec<NodeId> = (0..8).map(|_| g.add_node(())).collect();
        for i in 0..4 {
            g.add_edge(nodes[i], nodes[(i + 1) % 4]); // 4-cycle
        }
        g.add_edge(nodes[4], nodes[0]); // tail into the cycle
        g.add_edge(nodes[1], nodes[5]); // tail out of the cycle
        g.add_edge(nodes[6], nodes[6]); // self-loop
        assert_canonical_parallel_matches(&g);
    }

    #[test]
    fn parallel_matches_on_two_cycles_sharing_a_bridge() {
        let mut g = DiGraph::<()>::new();
        let nodes: Vec<NodeId> = (0..7).map(|_| g.add_node(())).collect();
        for i in 0..3 {
            g.add_edge(nodes[i], nodes[(i + 1) % 3]);
        }
        for i in 3..6 {
            g.add_edge(nodes[i], nodes[3 + (i + 1 - 3) % 3]);
        }
        g.add_edge(nodes[0], nodes[3]); // bridge between the cycles
        g.add_edge(nodes[5], nodes[6]);
        assert_canonical_parallel_matches(&g);
    }

    #[test]
    fn canonical_ids_are_reverse_topological() {
        let mut g = DiGraph::<()>::new();
        let nodes: Vec<NodeId> = (0..6).map(|_| g.add_node(())).collect();
        g.add_edge(nodes[0], nodes[1]);
        g.add_edge(nodes[1], nodes[2]);
        g.add_edge(nodes[3], nodes[2]);
        g.add_edge(nodes[4], nodes[1]);
        let degree = |u: usize| g.out_degree(NodeId(u as u32));
        let neighbor = |u: usize, k: usize| g.out_neighbors(NodeId(u as u32))[k].index();
        let scc = fwbw_scc_with(g.node_count(), degree, neighbor, 4);
        for (from, to) in g.edges() {
            let (cf, ct) = (scc.component_of[from.index()], scc.component_of[to.index()]);
            if cf != ct {
                assert!(
                    ct < cf,
                    "edge {from:?}->{to:?} must point to a lower canonical id"
                );
            }
        }
        // Members come out sorted ascending.
        for members in &scc.components {
            assert!(members.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn parallel_empty_and_singleton() {
        let scc = parallel_scc_with(0, |_| 0, |_, _| 0, 8);
        assert_eq!(scc.count(), 0);
        let scc = parallel_scc_with(1, |_| 0, |_, _| 0, 8);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.component_of, vec![0]);
        let scc = fwbw_scc_with(0, |_| 0, |_, _| 0, 8);
        assert_eq!(scc.count(), 0);
        let scc = fwbw_scc_with(1, |_| 0, |_, _| 0, 8);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.component_of, vec![0]);
    }
}
